"""Minimal estimator base class and seeded RNG derivation.

Estimators follow the scikit-learn convention: constructor arguments are
hyperparameters stored verbatim and learned state lives in trailing-underscore
attributes set by ``fit``. The constructor's argument names are the one piece
of introspection the package uses: a ``Spec`` reads them to reject unknown
options and to decide whether an estimator takes a seed.
"""

import hashlib
import inspect
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np


class BaseEstimator:
    """Constructor-argument introspection shared by every estimator."""

    @classmethod
    def _param_names(cls):
        init = cls.__init__
        if init is object.__init__:
            return []
        sig = inspect.signature(init)
        names = [
            p.name
            for p in sig.parameters.values()
            if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]
        return sorted(names)


def _key_to_ints(key):
    if isinstance(key, (int, np.integer)):
        return [int(key) & 0xFFFFFFFFFFFFFFFF]
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 16, 8)]
    if isinstance(key, (tuple, list)):
        out = []
        for part in key:
            out.extend(_key_to_ints(part))
        return out
    raise TypeError(f"cannot derive seed material from {type(key).__name__}")


def seed_sequence(*keys):
    """Deterministic SeedSequence from a mix of ints and strings.

    Never touches Python's randomized ``hash``; the same keys produce the
    same stream on every run, process and platform.
    """
    entropy = []
    for key in keys:
        entropy.extend(_key_to_ints(key))
    return np.random.SeedSequence(entropy)


def derive_rng(*keys):
    """Independent Generator for the given key path."""
    return np.random.default_rng(seed_sequence(*keys))


def derive_seed(*keys):
    """64-bit integer seed for the given key path."""
    return int(seed_sequence(*keys).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Spec:
    """A registered estimator kind plus the constructor arguments it is
    given, checked once when the spec is made.

    Subclasses name their ``family`` and ``registry``. Every option must be
    a constructor argument of the kind; ``seed`` never is, since ``build``
    derives it. Making the spec builds one instance, so a constructor's own
    range checks fail here, before any work.
    """

    family: ClassVar[str]
    registry: ClassVar[dict]
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in self.registry:
            raise ValueError(
                f"unknown {self.family} kind {self.kind!r}; "
                f"known kinds: {sorted(self.registry)}"
            )
        known = [n for n in self.registry[self.kind]._param_names() if n != "seed"]
        unknown = sorted(set(self.params) - set(known))
        if unknown:
            raise ValueError(f"unknown option(s) {unknown}; known: {known}")
        self.build()

    def build(self, seed=0):
        """Fresh unfitted estimator; one that takes ``seed`` gets one derived
        from ``(seed, kind)``."""
        cls = self.registry[self.kind]
        params = self.params
        if "seed" in cls._param_names():
            # the 0 is the former per-spec salt, always 0, so seeds stay as they were
            params = {**params, "seed": derive_seed(seed, 0, self.kind)}
        return cls(**params)
