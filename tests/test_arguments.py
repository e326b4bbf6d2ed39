"""Every public count, dimension, order and real parameter passes one screen.

Each integer argument in ``INTEGERS`` must be an int or a numpy integer,
not a bool, and at least its minimum. Each real argument in ``REALS``
must be an int, a float or a numpy real, not a bool, finite and at
least its minimum where it has one. Anything else raises a ValueError
that names the argument, before any numerical work. A guard holds every
``int`` or ``float`` parameter of the public API to one of the tables.
"""

import dataclasses
import functools
import inspect
import math
import os
import re

import numpy as np
import pytest

import fgfilter
from fgfilter import (
    ExpectationEngine,
    ExperimentReport,
    FeatureFunction,
    GaussianBelief,
    Grid1D,
    StateSpaceModel,
    conditional_slice,
    default_grids,
    expected_likelihood_weight,
    gauss_hermite,
    gaussian_moment_oracle,
    joint_density_grid,
    make_affine_feature,
    make_heaviside_model,
    make_monomial_feature,
    make_noise_magnitude_model,
    monte_carlo,
    run_experiment_batch,
    run_heaviside_experiment,
    run_noise_experiment,
    sample_points,
    sigma_point,
    simulate,
    write_report_csv,
)


def _identity(x, _):
    return x


def _model(**dims):
    sizes = dict(state_dim=1, meas_dim=1, process_noise_dim=1, obs_noise_dim=1)
    return StateSpaceModel(**{**sizes, **dims}, process=_identity, observe=_identity)


_NOISE_MODEL, _NOISE_PRIOR = make_noise_magnitude_model()
_UNIT = GaussianBelief([0.0], [[1.0]])


@functools.cache
def _reports():
    return [run_noise_experiment(steps=3)]


@functools.cache
def _density():
    x_grid, y_grid = Grid1D(-1.0, 11.0, 101), Grid1D(-31.0, 31.0, 101)
    return joint_density_grid(_NOISE_MODEL, _NOISE_PRIOR, x_grid, y_grid)


# (where, argument name, least value, call taking the value)
INTEGERS = [
    ("FeatureFunction", "out_dim", 2, lambda v: FeatureFunction("f", v, lambda y: y)),
    ("make_affine_feature", "meas_dim", 1, lambda v: make_affine_feature(v)),
    ("make_monomial_feature", "meas_dim", 1, lambda v: make_monomial_feature(v, 2)),
    ("make_monomial_feature", "order", 1, lambda v: make_monomial_feature(1, v)),
    *[
        ("StateSpaceModel", name, 1, lambda v, name=name: _model(**{name: v}))
        for name in ("state_dim", "meas_dim", "process_noise_dim", "obs_noise_dim")
    ],
    ("ExpectationEngine", "sample_count", 2,
     lambda v: ExpectationEngine("monte_carlo", sample_count=v)),
    ("ExpectationEngine", "seed", 0, lambda v: ExpectationEngine("monte_carlo", seed=v)),
    ("ExpectationEngine", "nodes", 2, lambda v: ExpectationEngine("gauss_hermite", nodes=v)),
    ("monte_carlo", "sample_count", 2, lambda v: monte_carlo(sample_count=v)),
    ("monte_carlo", "seed", 0, lambda v: monte_carlo(seed=v)),
    ("gauss_hermite", "nodes", 2, lambda v: gauss_hermite(v)),
    ("sample_points", "noise_dim", 0, lambda v: sample_points(sigma_point(), _UNIT, v)),
    ("Grid1D", "n", 2, lambda v: Grid1D(0.0, 1.0, v)),
    ("default_grids", "n", 2, lambda v: default_grids(_NOISE_MODEL, _NOISE_PRIOR, n=v)),
    ("default_grids", "seed", 0,
     lambda v: default_grids(_NOISE_MODEL, _NOISE_PRIOR, n=3, seed=v)),
    ("gaussian_moment_oracle", "k", 0, lambda v: gaussian_moment_oracle(2.0, 1.0, v)),
    ("expected_likelihood_weight", "dim", 1,
     lambda v: expected_likelihood_weight(v, sigma_point())),
    ("simulate", "steps", 1, lambda v: simulate(_NOISE_MODEL, [5.0], v, 0)),
    ("simulate", "seed", 0, lambda v: simulate(_NOISE_MODEL, [5.0], 3, v)),
    ("run_experiment_batch", "n_seeds", 1,
     lambda v: run_experiment_batch("noise_magnitude", v, 0, 3)),
    ("run_experiment_batch", "base_seed", 0,
     lambda v: run_experiment_batch("noise_magnitude", 1, v, 3)),
    ("run_experiment_batch", "steps", 1,
     lambda v: run_experiment_batch("noise_magnitude", 1, 0, v)),
    ("run_experiment_batch", "order", 1,
     lambda v: run_experiment_batch("noise_magnitude", 1, 0, 5, orders=(v,))),
    ("run_noise_experiment", "steps", 1, lambda v: run_noise_experiment(steps=v)),
    ("run_noise_experiment", "seed", 0, lambda v: run_noise_experiment(steps=3, seed=v)),
    ("run_heaviside_experiment", "steps", 1,
     lambda v: run_heaviside_experiment(steps=v, engine=gauss_hermite(4))),
    ("run_heaviside_experiment", "seed", 0,
     lambda v: run_heaviside_experiment(steps=3, seed=v, engine=gauss_hermite(4))),
    ("write_report_csv", "order", 1, lambda v: write_report_csv(_reports(), v, os.devnull)),
]

# (where, argument name, least value or None, call taking the value)
REALS = [
    ("ExpectationEngine", "kappa", None, lambda v: ExpectationEngine("sigma_point", kappa=v)),
    ("sigma_point", "kappa", None, lambda v: sigma_point(v)),
    ("Grid1D", "lo", None, lambda v: Grid1D(v, 10.0, 3)),
    ("Grid1D", "hi", None, lambda v: Grid1D(0.0, v, 3)),
    ("default_grids", "span", None,
     lambda v: default_grids(_NOISE_MODEL, _NOISE_PRIOR, n=3, span=v)),
    ("conditional_slice", "y", None, lambda v: conditional_slice(_density(), v)),
    ("gaussian_moment_oracle", "mean", None, lambda v: gaussian_moment_oracle(v, 1.0, 2)),
    ("gaussian_moment_oracle", "var", 0, lambda v: gaussian_moment_oracle(2.0, v, 2)),
    *[
        (factory.__name__, name, 0 if name == "prior_var" else None,
         lambda v, factory=factory, name=name: factory(**{name: v}))
        for factory, names in (
            (make_noise_magnitude_model, ("prior_mean", "prior_var", "noise_scale")),
            (make_heaviside_model, ("prior_mean", "prior_var", "step_height")),
        )
        for name in names
    ],
    ("run_experiment_batch", "prior_var", 0,
     lambda v: run_experiment_batch("noise_magnitude", 1, 0, 3, prior_var=v)),
]

BOUNDED_REALS = [entry for entry in REALS if entry[2] is not None]


def _ids(table):
    return [f"{where}.{name}" for where, name, _, _ in table]


BAD_INTEGERS = [
    ("bool", lambda least: True),
    ("float", lambda least: 2.0),
    ("str", lambda least: "2"),
    ("below", lambda least: least - 1),
]

BAD_REALS = [
    ("bool", True),
    ("str", "1.5"),
    ("None", None),
    ("nan", math.nan),
    ("inf", math.inf),
    ("huge_int", 10**400),
]


@pytest.mark.parametrize("kind, bad", BAD_INTEGERS, ids=[kind for kind, _ in BAD_INTEGERS])
@pytest.mark.parametrize("where, name, least, call", INTEGERS, ids=_ids(INTEGERS))
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


@pytest.mark.parametrize("where, name, least, call", INTEGERS, ids=_ids(INTEGERS))
def test_integer_argument_accepts_its_least_numpy_integer(where, name, least, call):
    call(np.int64(least))


@pytest.mark.parametrize("kind, value", BAD_REALS, ids=[kind for kind, _ in BAD_REALS])
@pytest.mark.parametrize("where, name, least, call", REALS, ids=_ids(REALS))
def test_real_argument_rejects_non_reals(where, name, least, call, kind, value):
    message = f"{name} must be a finite real number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("where, name, least, call", BOUNDED_REALS, ids=_ids(BOUNDED_REALS))
def test_real_argument_rejects_values_below_its_least(where, name, least, call):
    with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got -0.5$"):
        call(-0.5)


@pytest.mark.parametrize("value", [1, 1.5, np.float32(1.5)], ids=["int", "float", "float32"])
@pytest.mark.parametrize("where, name, least, call", REALS, ids=_ids(REALS))
def test_real_argument_accepts_ints_floats_and_numpy_reals(where, name, least, call, value):
    call(value)


def test_screened_reals_are_stored_as_floats():
    assert type(sigma_point(np.int64(1)).kappa) is float
    assert type(gaussian_moment_oracle(np.float32(1.5), 1, 1)) is float


# ExperimentReport is built by the runners from screened values, not by
# callers; the runners' **model_kwargs go to a factory, whose parameters
# have their own entries above.
_EXEMPT = {
    *(("ExperimentReport", field.name) for field in dataclasses.fields(ExperimentReport)),
    *((run, "model_kwargs")
      for run in ("run_noise_experiment", "run_heaviside_experiment", "run_experiment_batch")),
}


def test_every_int_and_float_parameter_of_the_public_api_is_screened():
    # A dataclass's signature lists its fields, so they are covered too.
    # The package's annotations are strings (``from __future__ import
    # annotations``).
    screened = {(where, name) for where, name, _, _ in INTEGERS + REALS}
    missing = []
    for where in fgfilter.__all__:
        obj = getattr(fgfilter, where)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        for name, param in inspect.signature(obj).parameters.items():
            annotated = param.annotation in ("int", "float", int, float)
            if annotated and (where, name) not in screened | _EXEMPT:
                missing.append(f"{where}.{name}")
    assert not missing, f"no screen test for {missing}"
