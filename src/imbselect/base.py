"""Estimator base class, option tables and seeded RNG derivation.

Estimators follow the scikit-learn convention: hyperparameters are stored
verbatim as attributes and learned state lives in trailing-underscore
attributes set by ``fit``. Each estimator class declares its hyperparameters
once, in its ``options`` table: name to (default, rule), with the rules of
``validation``. ``BaseEstimator.__init__`` builds and checks every estimator
from that table, and a ``Spec`` reads it to reject unknown options and to
decide whether an estimator takes a seed.
"""

import functools
import hashlib
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np


class BaseEstimator:
    """Construction from the class's ``options`` table.

    Options not given take their defaults. Every value is stored as given,
    and one ``ValueError`` names every value that breaks its rule, in table
    order.
    """

    options: ClassVar[dict] = {}

    def __init__(self, **params):
        unknown = params.keys() - self.options.keys()
        if unknown:
            raise TypeError(f"{type(self).__name__} takes no option(s) {sorted(unknown)}")
        problems = []
        for name, (default, rule) in self.options.items():
            value = params.get(name, default)
            if not rule.accepts(value):
                problems.append(f"{name} must be {rule.text}, got {value!r}")
            setattr(self, name, value)
        if problems:
            raise ValueError("; ".join(problems))


def _words(value):
    """A non-negative int as numpy's SeedSequence reads one: its 32-bit
    words, least significant first, at least one."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


@functools.lru_cache(maxsize=None)
def _str_words(key):
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return tuple(w for i in range(0, 16, 8) for w in _words(int.from_bytes(digest[i : i + 8], "little")))


def _key_to_words(key):
    if isinstance(key, (int, np.integer)):
        return _words(int(key) & 0xFFFFFFFFFFFFFFFF)
    if isinstance(key, str):
        return _str_words(key)
    if isinstance(key, (tuple, list)):
        out = []
        for part in key:
            out.extend(_key_to_words(part))
        return out
    raise TypeError(f"cannot derive seed material from {type(key).__name__}")


def seed_sequence(*keys):
    """Deterministic SeedSequence from a mix of ints and strings.

    Never touches Python's randomized ``hash``; the same keys produce the
    same stream on every run, process and platform. Each int key, and each
    string key's two 64-bit halves of its sha256, is entropy in the order
    given; the words go to numpy as one uint32 array, the form it converts
    a list of ints to.
    """
    entropy = []
    for key in keys:
        entropy.extend(_key_to_words(key))
    return np.random.SeedSequence(np.array(entropy, dtype=np.uint32))


def derive_rng(*keys):
    """Independent Generator for the given key path."""
    return np.random.default_rng(seed_sequence(*keys))


def derive_seed(*keys):
    """64-bit integer seed for the given key path."""
    return int(seed_sequence(*keys).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Spec:
    """A registered estimator kind plus the options it is given, checked
    once when the spec is made.

    Subclasses name their ``family`` and ``registry``. Every option must be
    in the kind's ``options`` table; ``seed`` never is one, since ``build``
    derives it. Making the spec builds one instance, so a value that breaks
    its rule fails here, before any work.
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
        known = sorted(n for n in self.registry[self.kind].options if n != "seed")
        unknown = sorted(set(self.params) - set(known))
        if unknown:
            raise ValueError(f"unknown option(s) {unknown}; known: {known}")
        self.build()

    def build(self, seed=0):
        """Fresh unfitted estimator; one that takes ``seed`` gets one derived
        from ``(seed, kind)``."""
        cls = self.registry[self.kind]
        params = self.params
        if "seed" in cls.options:
            # the 0 is the former per-spec salt, always 0, so seeds stay as they were
            params = {**params, "seed": derive_seed(seed, 0, self.kind)}
        return cls(**params)
