"""Benchmark experiments comparing affine and higher-order features.

Each experiment simulates one of the built-in scalar models, runs the
filter with the affine feature (the plain Gaussian filter) and with
each requested higher order as lanes of one fused pass, and reports
per-step tracks plus RMSE summaries. Everything is reproducible from (seed, configuration): data
generation, engine draws, and CSV bytes.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._linalg import sqrt_psd
from .filters import make_monomial_feature, run_filter_lanes
from .models import (
    GaussianBelief,
    StateSpaceModel,
    make_heaviside_model,
    make_noise_magnitude_model,
    simulate,
)
from .quadrature import ExpectationEngine, monte_carlo

__all__ = [
    "ExperimentReport",
    "run_noise_experiment",
    "run_heaviside_experiment",
    "run_experiment_batch",
    "write_report_csv",
    "write_summary_csv",
]

REPORT_COLUMNS = (
    "seed",
    "t",
    "true_state",
    "measurement",
    "gf_mean",
    "gf_std",
    "fgf_mean",
    "fgf_std",
)

# Wall-clock runtime stays on the report object only: summary.csv must
# be byte-identical across reruns of the same seed and configuration.
SUMMARY_COLUMNS = (
    "model",
    "seed",
    "order",
    "steps",
    "engine_kind",
    "engine_samples",
    "engine_kappa",
    "engine_seed",
    "rmse_gf",
    "rmse_fgf",
    "diverged_at",
)


@dataclass(frozen=True)
class ExperimentReport:
    """Tracks and summaries of one seeded experiment run.

    ``means``/``stds``/``rmse``/``diverged_at`` are keyed by feature
    order; order 1 is always present and is the plain Gaussian filter.
    A diverged order keeps NaN tracks and RMSE with the failing step
    recorded. Treat all fields as read-only.
    """

    model_name: str
    seed: int
    steps: int
    engine: ExpectationEngine
    orders: tuple[int, ...]
    true_states: np.ndarray
    measurements: np.ndarray
    means: Mapping[int, np.ndarray]
    stds: Mapping[int, np.ndarray]
    rmse: Mapping[int, float]
    diverged_at: Mapping[int, int | None]
    runtime: float

    @property
    def rmse_gf(self) -> float:
        return self.rmse[1]


def _run_tracking(
    model: StateSpaceModel,
    prior: GaussianBelief,
    steps: int,
    seed: int,
    engine: ExpectationEngine | None,
    orders: Sequence[int],
    standardize: bool,
) -> ExperimentReport:
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if engine is None:
        # Tie the engine stream to the trajectory seed so seed batches
        # see independent estimator noise.
        engine = monte_carlo(seed=seed)
    orders_run = tuple(sorted(set(int(o) for o in orders) | {1}))
    if any(o < 1 for o in orders_run):
        raise ValueError(f"feature orders must be positive, got {orders!r}")
    start = time.perf_counter()
    init_rng = np.random.default_rng((seed, 1))
    init = prior.mean + sqrt_psd(prior.cov) @ init_rng.standard_normal(prior.state_dim)
    states, measurements = simulate(model, init, steps, seed)
    truth = states[:, 0]
    features = [make_monomial_feature(model.meas_dim, order) for order in orders_run]
    lanes = run_filter_lanes(
        model, prior, features, engine, measurements, standardize=standardize
    )
    means: dict[int, np.ndarray] = {}
    stds: dict[int, np.ndarray] = {}
    rmse: dict[int, float] = {}
    diverged: dict[int, int | None] = {}
    for lane, order in enumerate(orders_run):
        diverged[order] = lanes.diverged_at[lane]
        if diverged[order] is not None:
            means[order] = np.full(steps, np.nan)
            stds[order] = np.full(steps, np.nan)
            rmse[order] = float("nan")
            continue
        track = lanes.means[lane, :, 0]
        means[order] = track
        stds[order] = np.sqrt(np.clip(lanes.covs[lane, :, 0, 0], 0.0, None))
        rmse[order] = float(np.sqrt(np.mean((track - truth) ** 2)))
    return ExperimentReport(
        model_name=model.name,
        seed=seed,
        steps=steps,
        engine=engine,
        orders=orders_run,
        true_states=truth,
        measurements=measurements[:, 0],
        means=means,
        stds=stds,
        rmse=rmse,
        diverged_at=diverged,
        runtime=time.perf_counter() - start,
    )


def run_noise_experiment(
    steps: int = 1000,
    seed: int = 0,
    engine: ExpectationEngine | None = None,
    orders: Sequence[int] = (2,),
    standardize: bool = False,
    **model_kwargs: float,
) -> ExperimentReport:
    """Track the drifting noise magnitude.

    The measurement is zero-mean however large the state, so the affine
    run learns nothing and its RMSE is essentially the prior spread;
    the quadratic feature reads the state off the measurement energy.
    Model keyword arguments (``prior_mean``, ``prior_var``,
    ``noise_scale``) go to :func:`make_noise_magnitude_model`.
    """
    model, prior = make_noise_magnitude_model(**model_kwargs)
    return _run_tracking(model, prior, steps, seed, engine, orders, standardize)


def run_heaviside_experiment(
    steps: int = 1000,
    seed: int = 0,
    engine: ExpectationEngine | None = None,
    orders: Sequence[int] = (3,),
    standardize: bool = True,
    **model_kwargs: float,
) -> ExperimentReport:
    """Track a random walk observed through a hard step.

    Near the discontinuity the cubic feature reacts to which side of
    the step the measurement fell on; far away both filters behave like
    the linear optimum. Feature standardization is on by default: raw
    cubic Grams of measurements around 50 are pathologically
    ill-conditioned. Model keyword arguments (``prior_mean``,
    ``prior_var``, ``step_height``) go to :func:`make_heaviside_model`.
    """
    model, prior = make_heaviside_model(**model_kwargs)
    return _run_tracking(model, prior, steps, seed, engine, orders, standardize)


_EXPERIMENTS = {
    "noise_magnitude": run_noise_experiment,
    "heaviside": run_heaviside_experiment,
}


def run_experiment_batch(
    model_name: str,
    n_seeds: int = 100,
    base_seed: int = 0,
    **kwargs,
) -> list[ExperimentReport]:
    """Run one experiment over consecutive seeds base_seed..base_seed+n-1.

    Keyword arguments are forwarded to the single-seed runner. Reports
    come back ordered by seed; each seed is independent, so failures
    surface in its report rather than aborting the batch.
    """
    try:
        runner = _EXPERIMENTS[model_name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {model_name!r}; known: {sorted(_EXPERIMENTS)}"
        ) from None
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}")
    return [runner(seed=base_seed + i, **kwargs) for i in range(n_seeds)]


def _fmt(value) -> str:
    # repr of the Python float: shortest round-trip, bit-stable output.
    return repr(float(value))


def write_report_csv(reports: Sequence[ExperimentReport], order: int, path) -> None:
    """Per-step tracks for one feature order, ordered by (seed, t), t 1-based."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for report in reports:
            if order not in report.means:
                raise ValueError(
                    f"report for seed {report.seed} has no order-{order} run"
                )
            gf_m, gf_s = report.means[1], report.stds[1]
            fg_m, fg_s = report.means[order], report.stds[order]
            for t in range(report.steps):
                writer.writerow(
                    [
                        report.seed,
                        t + 1,
                        _fmt(report.true_states[t]),
                        _fmt(report.measurements[t]),
                        _fmt(gf_m[t]),
                        _fmt(gf_s[t]),
                        _fmt(fg_m[t]),
                        _fmt(fg_s[t]),
                    ]
                )


def write_summary_csv(reports: Sequence[ExperimentReport], path) -> None:
    """One row per (seed, order), order 1 included (there fgf equals gf)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for report in reports:
            engine = report.engine
            for order in report.orders:
                diverged = report.diverged_at[order]
                writer.writerow(
                    [
                        report.model_name,
                        report.seed,
                        order,
                        report.steps,
                        engine.kind,
                        engine.sample_count if engine.kind == "monte_carlo" else "",
                        _fmt(engine.kappa) if engine.kind == "sigma_point" else "",
                        engine.seed if engine.kind == "monte_carlo" else "",
                        _fmt(report.rmse[1]),
                        _fmt(report.rmse[order]),
                        "" if diverged is None else diverged,
                    ]
                )
