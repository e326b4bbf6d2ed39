"""Benchmark experiments comparing affine and higher-order features.

Each experiment simulates one of the built-in scalar models, runs the
filter with the affine feature (the plain Gaussian filter) and with
each requested higher order, and reports per-step tracks plus RMSE
summaries. A batch of seeds is filtered in blocks: each block is one
fused pass whose lanes are seeds x orders. Every seed keeps its own
measurements and its engine's point set, and its point work runs per
seed; the small per-step algebra runs once over the whole block. A
seed's report does not depend on the block it ran in, so a batch and
the single-seed runners agree bit for bit. Everything is reproducible from
(seed, configuration): data generation, engine draws, and CSV bytes.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ._linalg import _psd_roots
from .filters import _filter_pass, make_monomial_feature
from .models import (
    GaussianBelief,
    StateSpaceModel,
    _integer,
    make_heaviside_model,
    make_noise_magnitude_model,
    simulate,
)
from .quadrature import ExpectationEngine, _unit_points, gauss_hermite, monte_carlo

__all__ = [
    "EXPERIMENTS",
    "Experiment",
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
    recorded. ``runtime`` is the seed's share of its block's wall time
    in seconds: the block's simulation and filtering, divided by its
    seed count. Treat all fields as read-only.
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


# Seeds filtered together are capped by the points their pass holds,
# seeds x lanes x points per lane, and a batch is split into blocks of
# near-equal size. At heaviside's default 5000 draws and two orders a
# block holds ten seeds, so a 20-seed call runs in two. Measured on a
# 2-vCPU Xeon, ten and twenty seeds per block filter equally fast, but
# twenty hold twice the point sets: peak RSS of a 20-seed simulate call
# rises 8.6% over one seed at a time, against 4.7% at ten.
_BLOCK_POINTS = 100_000


def _run_block(model, prior, steps, seeds, engines, features, orders_run):
    start = time.perf_counter()
    root = _psd_roots(prior.cov[None])[0][0]
    truths, measurements = [], []
    for seed in seeds:
        init_rng = np.random.default_rng((seed, 1))
        init = prior.mean + root @ init_rng.standard_normal(prior.state_dim)
        states, meas = simulate(model, init, steps, seed)
        truths.append(states[:, 0])
        measurements.append(meas)
    block = _filter_pass(model, prior, features, engines, np.stack(measurements))
    runtime = (time.perf_counter() - start) / len(seeds)
    reports = []
    for seed, engine, truth, meas, lanes in zip(seeds, engines, truths, measurements, block):
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
        reports.append(
            ExperimentReport(
                model_name=model.name,
                seed=seed,
                steps=steps,
                engine=engine,
                orders=orders_run,
                true_states=truth,
                measurements=meas[:, 0],
                means=means,
                stds=stds,
                rmse=rmse,
                diverged_at=diverged,
                runtime=runtime,
            )
        )
    return reports


class Experiment(NamedTuple):
    """A built-in: its model factory, default feature order and
    ``engine``, a seed's default engine given the seed and the orders run.
    """

    factory: Callable[..., tuple[StateSpaceModel, GaussianBelief]]
    order: int
    engine: Callable[[int, tuple[int, ...]], ExpectationEngine]


def _exact_gauss_hermite(seed: int, orders: tuple[int, ...]) -> ExpectationEngine:
    # On y = M w the order-k fit's raw moments are polynomials of degree
    # 2k in each of M and w, which k + 1 nodes per axis integrate exactly.
    return gauss_hermite(max(orders) + 1)


def _seeded_monte_carlo(seed: int, orders: tuple[int, ...]) -> ExpectationEngine:
    # The draw stream is tied to the trajectory seed, so seed batches see
    # independent estimator noise.
    return monte_carlo(seed=seed)


# The one place a built-in experiment is defined. The heaviside step is
# not polynomial, and under Gauss-Hermite rules criterion 6's far check
# fails, so it keeps per-seed Monte Carlo.
EXPERIMENTS: Mapping[str, Experiment] = MappingProxyType(
    {
        "noise_magnitude": Experiment(make_noise_magnitude_model, 2, _exact_gauss_hermite),
        "heaviside": Experiment(make_heaviside_model, 3, _seeded_monte_carlo),
    }
)


def _experiment(name: str) -> Experiment:
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown model {name!r}; known models: {', '.join(EXPERIMENTS)}")
    return EXPERIMENTS[name]


def run_noise_experiment(
    steps: int = 1000,
    seed: int = 0,
    engine: ExpectationEngine | None = None,
    orders: Sequence[int] | None = None,
    **model_kwargs: float,
) -> ExperimentReport:
    """Track the drifting noise magnitude.

    The measurement is zero-mean however large the state, so the affine
    run learns nothing and its RMSE is essentially the prior spread;
    the quadratic feature reads the state off the measurement energy.
    Model keyword arguments (``prior_mean``, ``prior_var``,
    ``noise_scale``) go to :func:`make_noise_magnitude_model`.
    """
    _integer("seed", seed, 0)
    return run_experiment_batch(
        "noise_magnitude", 1, seed, steps, engine, orders, **model_kwargs
    )[0]


def run_heaviside_experiment(
    steps: int = 1000,
    seed: int = 0,
    engine: ExpectationEngine | None = None,
    orders: Sequence[int] | None = None,
    **model_kwargs: float,
) -> ExperimentReport:
    """Track a random walk observed through a hard step.

    Near the discontinuity the cubic feature reacts to which side of
    the step the measurement fell on; far away both filters behave like
    the linear optimum. Model keyword arguments (``prior_mean``,
    ``prior_var``, ``step_height``) go to :func:`make_heaviside_model`.
    """
    _integer("seed", seed, 0)
    return run_experiment_batch("heaviside", 1, seed, steps, engine, orders, **model_kwargs)[0]


def run_experiment_batch(
    model_name: str,
    n_seeds: int = 100,
    base_seed: int = 0,
    steps: int = 1000,
    engine: ExpectationEngine | None = None,
    orders: Sequence[int] | None = None,
    **model_kwargs: float,
) -> list[ExperimentReport]:
    """Run one experiment over consecutive seeds base_seed..base_seed+n-1.

    ``engine`` and ``orders`` left as None take the experiment's
    defaults in :data:`EXPERIMENTS`; model keyword arguments
    go to its factory. The seeds are filtered in blocks, each block as
    lanes of one pass (seeds x orders); a seed's report does not depend
    on its block. Reports come back ordered by seed; a numerical failure
    stays inside its own seed and order, recorded in that report, and
    does not abort the batch. ``n_seeds``, ``base_seed``, ``steps`` and
    each order must be integers (not bools), at least 1, 0, 1 and 1;
    anything else raises ValueError.
    """
    entry = _experiment(model_name)
    _integer("n_seeds", n_seeds, 1)
    _integer("base_seed", base_seed, 0)
    _integer("steps", steps, 1)
    model, prior = entry.factory(**model_kwargs)
    orders = (entry.order,) if orders is None else orders
    for order in orders:
        _integer("order", order, 1)
    orders_run = tuple(sorted(set(orders) | {1}))
    # Without an engine, each seed takes its experiment's default engine.
    seeds = range(base_seed, base_seed + n_seeds)
    engines = [entry.engine(seed, orders_run) if engine is None else engine for seed in seeds]
    features = [make_monomial_feature(model.meas_dim, o) for o in orders_run]
    points = _unit_points(engines[0], model.state_dim, model.obs_noise_dim).weights.size
    blocks = -(-len(seeds) * len(features) * points // _BLOCK_POINTS)
    size = -(-len(seeds) // blocks)
    reports = []
    for lo in range(0, len(seeds), size):
        block = slice(lo, lo + size)
        reports += _run_block(
            model, prior, steps, seeds[block], engines[block], features, orders_run
        )
    return reports


def _fmt(value) -> str:
    # repr of the Python float: shortest round-trip, bit-stable output.
    return repr(float(value))


def write_report_csv(reports: Sequence[ExperimentReport], order: int, path) -> None:
    """Per-step tracks for one feature order, ordered by (seed, t), t 1-based.

    The bytes are those of ``csv.writer`` with ``lineterminator="\\n"``:
    the repr of a float holds no delimiter, quote or newline, so no field
    is ever quoted, and each column is formatted once and the rows joined.
    A report without an order-``order`` run raises ValueError before the
    file is opened.
    """
    _integer("order", order, 1)
    for report in reports:
        if order not in report.means:
            raise ValueError(f"report for seed {report.seed} has no order-{order} run")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        for report in reports:
            columns = (
                report.true_states,
                report.measurements,
                report.means[1],
                report.stds[1],
                report.means[order],
                report.stds[order],
            )
            cells = [map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
            steps = map(str, range(1, report.steps + 1))
            rows = zip(repeat(str(report.seed)), steps, *cells)
            fh.write("".join([",".join(row) + "\n" for row in rows]))


def write_summary_csv(reports: Sequence[ExperimentReport], path) -> None:
    """One row per (seed, order), order 1 included (there fgf equals gf)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for report in reports:
            engine = report.engine
            # engine_samples holds the engine's point-count setting.
            size = {"monte_carlo": engine.sample_count, "gauss_hermite": engine.nodes}
            for order in report.orders:
                diverged = report.diverged_at[order]
                writer.writerow(
                    [
                        report.model_name,
                        report.seed,
                        order,
                        report.steps,
                        engine.kind,
                        size.get(engine.kind, ""),
                        _fmt(engine.kappa) if engine.kind == "sigma_point" else "",
                        engine.seed if engine.kind == "monte_carlo" else "",
                        _fmt(report.rmse[1]),
                        _fmt(report.rmse[order]),
                        "" if diverged is None else diverged,
                    ]
                )
