"""Every sampler and classifier kind is built and checked from its
``options`` table.

An unfitted estimator holds its options and nothing else, each default
passes its own rule, and every rule refuses ``inf``, NaN, a string and
(unless it is a flag) ``True``. Each kind built from its table then fits on
a small set, so a table that leaves out an option the estimator reads fails
here.
"""

import math

import numpy as np
import pytest

from imbselect.classifiers import CLASSIFIER_REGISTRY, ClassifierSpec
from imbselect.sampling import SAMPLER_REGISTRY, SamplerSpec
from imbselect.validation import FLAG

KINDS = [(SamplerSpec, kind) for kind in SAMPLER_REGISTRY] + [
    (ClassifierSpec, kind) for kind in CLASSIFIER_REGISTRY
]


@pytest.mark.parametrize("spec_cls, kind", KINDS, ids=[kind for _, kind in KINDS])
def test_every_constructor_path_is_on_the_table(spec_cls, kind):
    cls = spec_cls.registry[kind]
    assert set(vars(cls())) == set(cls.options)
    for name, (default, rule) in cls.options.items():
        if name != "seed":
            spec_cls(kind, {name: default})
        assert getattr(cls(**{name: default}), name) is default
        for value in [math.inf, math.nan, "abc"] + ([] if rule is FLAG else [True]):
            with pytest.raises(ValueError, match=f"^{name} must be .*, got {value!r}$"):
                cls(**{name: value})

    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, (48, 3)), rng.normal(2, 1, (12, 3))])
    y = np.repeat([0, 1], [48, 12])
    estimator = spec_cls(kind).build(seed=3)
    if spec_cls is SamplerSpec:
        Xr, yr = estimator.fit_resample(X, y)
        assert Xr.shape[0] == yr.shape[0] > 0
    else:
        assert estimator.fit(X, y).predict_score(X).shape == (60,)
