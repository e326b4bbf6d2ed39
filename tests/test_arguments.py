"""Every public count, dimension and order passes one integer screen.

Each argument below must be an int or a numpy integer, not a bool, and
at least its minimum; anything else raises a ValueError that names the
argument, before any numerical work.
"""

import numpy as np
import pytest

from fgfilter import (
    FeatureFunction,
    Grid1D,
    StateSpaceModel,
    expected_likelihood_weight,
    gaussian_moment_oracle,
    make_monomial_feature,
    make_noise_magnitude_model,
    run_experiment_batch,
    sigma_point,
    simulate,
)


def _identity(x, _):
    return x


def _model(**dims):
    sizes = dict(state_dim=1, meas_dim=1, process_noise_dim=1, obs_noise_dim=1)
    return StateSpaceModel(**{**sizes, **dims}, process=_identity, observe=_identity)


_NOISE_MODEL, _ = make_noise_magnitude_model()

# (where, argument name, least value, call taking the value)
ARGUMENTS = [
    ("FeatureFunction", "out_dim", 2, lambda v: FeatureFunction("f", v, lambda y: y)),
    ("make_monomial_feature", "meas_dim", 1, lambda v: make_monomial_feature(v, 2)),
    ("make_monomial_feature", "order", 1, lambda v: make_monomial_feature(1, v)),
    *[
        ("StateSpaceModel", name, 1, lambda v, name=name: _model(**{name: v}))
        for name in ("state_dim", "meas_dim", "process_noise_dim", "obs_noise_dim")
    ],
    ("Grid1D", "n", 2, lambda v: Grid1D(0.0, 1.0, v)),
    ("gaussian_moment_oracle", "k", 0, lambda v: gaussian_moment_oracle(2.0, 1.0, v)),
    ("expected_likelihood_weight", "dim", 1,
     lambda v: expected_likelihood_weight(v, sigma_point())),
    ("simulate", "steps", 1, lambda v: simulate(_NOISE_MODEL, [5.0], v, 0)),
    ("simulate", "seed", 0, lambda v: simulate(_NOISE_MODEL, [5.0], 3, v)),
    ("run_experiment_batch", "order", 1,
     lambda v: run_experiment_batch("noise_magnitude", 1, 0, 5, orders=(v,))),
]

ARGUMENT_IDS = [f"{where}.{name}" for where, name, _, _ in ARGUMENTS]

BAD = [
    ("bool", lambda least: True),
    ("float", lambda least: 2.0),
    ("str", lambda least: "2"),
    ("below", lambda least: least - 1),
]


@pytest.mark.parametrize("kind, bad", BAD, ids=[kind for kind, _ in BAD])
@pytest.mark.parametrize("where, name, least, call", ARGUMENTS, ids=ARGUMENT_IDS)
def test_integer_argument_rejects_non_integers_and_small_values(
    where, name, least, call, kind, bad
):
    value = bad(least)
    if kind == "below":
        message = f"{name} must be at least {least}, got {value}"
    else:
        message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(value)


@pytest.mark.parametrize("where, name, least, call", ARGUMENTS, ids=ARGUMENT_IDS)
def test_integer_argument_accepts_its_least_numpy_integer(where, name, least, call):
    call(np.int64(least))
