"""Minimal estimator base class and seeded RNG derivation.

Estimators follow the scikit-learn convention: constructor arguments are
hyperparameters stored verbatim, learned state lives in trailing-underscore
attributes set by ``fit``, and ``get_params``/``set_params`` expose the
hyperparameters for composition with the wider ecosystem.
"""

import hashlib
import inspect

import numpy as np


class BaseEstimator:
    """Parameter introspection shared by every estimator in the package."""

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

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    def __repr__(self):
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


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


def build_estimator(cls, kind, params, seed):
    """``cls(**params)``; a constructor that takes ``seed`` gets one derived
    from ``(seed, kind)`` unless ``params`` sets it."""
    if "seed" in cls._param_names() and "seed" not in params:
        # the 0 is the former per-spec salt, always 0, so seeds stay as they were
        params = {**params, "seed": derive_seed(seed, 0, kind)}
    return cls(**params)
