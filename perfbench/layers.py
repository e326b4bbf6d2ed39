"""Per-layer instrumentation: what the traced run wraps and what it reports.

Layers are the modules of ``src/fgfilter``. Every span is recorded from
this file, around calls into a layer, by replacing the attribute its
caller resolves at call time. Counts marked ``-computed`` in their unit
are derived from array shapes, not measured, and repeat exactly for the
same workload and seed.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from collections import defaultdict

from .tracer import NO_PARENT, Tracer, self_times

# (metric name, unit). The order is the print order.
PER_LAYER = [
    ("filters.step_us.p50", "us"),
    ("filters.step_us.p99", "us"),
    *[
        (f"filters.{stage}.{kind}", unit)
        for stage in ("predict", "joint_moments", "fgf_solve", "fgf_update", "standardize")
        for kind, unit in (("self_ms", "ms"), ("calls", "count"))
    ],
    ("filters.feature_map.ms", "ms"),
    ("filters.feature_map.calls", "count"),
    ("filters.feature_map.rows", "rows-computed"),
    ("filters.joint_moments.mflop", "Mflop-computed"),
    ("filters.joint_moments.gflops", "Gflop/s"),
    ("quadrature.point_sets.calls", "count"),
    ("quadrature.point_sets.ms", "ms"),
    ("quadrature.points_per_step", "points-computed"),
    ("quadrature.sqrt_psd.calls", "count"),
    ("quadrature.sqrt_psd.ms", "ms"),
    ("quadrature.point_set_useful_ratio", "ratio"),
    ("models.process.calls", "count"),
    ("models.process.ms", "ms"),
    ("models.process.rows", "rows-computed"),
    ("models.observe.calls", "count"),
    ("models.observe.ms", "ms"),
    ("models.observe.rows", "rows-computed"),
    ("models.belief_validate.calls", "count"),
    ("models.belief_validate.ms", "ms"),
    ("linalg.cholesky.attempts", "count"),
    ("linalg.cholesky.failures", "count"),
    ("linalg.cho_solve.ms", "ms"),
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.ms", "ms"),
    ("linalg.eigvalsh.calls", "count"),
    ("linalg.eigvalsh.ms", "ms"),
    ("experiments.seed_ms.p50", "ms"),
    ("experiments.seed_ms.p90", "ms"),
    ("experiments.simulate_ms", "ms"),
    ("experiments.write_csv_ms", "ms"),
    ("experiments.csv_rows", "rows"),
    ("cli.self_ms", "ms"),
    ("gridoracle.default_grids.ms", "ms"),
    ("gridoracle.joint_density_grid.ms", "ms"),
    ("gridoracle.grid_joint_moments.ms", "ms"),
    ("gridoracle.kl_conditional.ms", "ms"),
    ("gridoracle.cells", "cells-computed"),
    ("gridoracle.cells_per_s", "cells/s"),
    ("gridoracle.mbytes_computed", "MB-computed"),
    ("rmse_fgf.median", "state-units"),
    ("diverged_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
    ("trace.absent_targets", "count"),
]

# Plain timed wraps: (target, span name). One span name may cover
# several targets that callers resolve in different modules.
SPANS = [
    ("fgfilter.cli:cli_main", "cli"),
    ("fgfilter:run_filter", "filters.run_filter"),
    ("fgfilter.experiments:run_filter", "filters.run_filter"),
    ("fgfilter.filters:predict", "filters.predict"),
    ("fgfilter.filters:fgf_update", "filters.fgf_update"),
    ("fgfilter.filters:_measurement_scale", "filters.standardize"),
    ("fgfilter.filters:standardize_feature", "filters.standardize"),
    ("fgfilter.filters:fgf_solve", "filters.fgf_solve"),
    ("fgfilter.cli:fgf_solve", "filters.fgf_solve"),
    ("fgfilter.quadrature:sqrt_psd", "quadrature.sqrt_psd"),
    ("fgfilter.models:GaussianBelief.__post_init__", "models.belief_validate"),
    ("numpy.linalg:eigh", "linalg.eigh"),
    ("numpy.linalg:eigvalsh", "linalg.eigvalsh"),
    ("fgfilter._linalg:cho_solve", "linalg.cho_solve"),
    ("fgfilter.experiments:simulate", "experiments.simulate"),
    ("fgfilter.cli:default_grids", "gridoracle.default_grids"),
]

MODEL_FACTORIES = [
    "fgfilter.experiments:make_noise_magnitude_model",
    "fgfilter.experiments:make_heaviside_model",
    "fgfilter.config:make_noise_magnitude_model",
    "fgfilter.config:make_heaviside_model",
]

FEATURE_FACTORIES = [
    "fgfilter.experiments:make_monomial_feature",
    "fgfilter.cli:make_monomial_feature",
    "fgfilter.cli:make_affine_feature",
]


def _rows(arr) -> int:
    shape = arr.shape
    return math.prod(shape[:-1]) if len(shape) >= 2 else 1


def _count_rows(key):
    def done(t, args, kwargs, result):
        t.counts[key] += _rows(result)

    return done


def _points_drawn(t, args, kwargs, result):
    rows = result[0].shape[0]
    t.counts["quadrature.points"] += rows
    t.state["last_points"] = rows
    belief = args[1]
    key = (belief.mean.tobytes(), belief.cov.tobytes())
    if key != t.state.get("last_belief"):
        t.counts["quadrature.distinct_beliefs"] += 1
        t.state["last_belief"] = key


def _moments_flop(t, args, kwargs, result):
    # The stacked (state, feature) sample block is n x m; its Gram is 2 n m^2.
    m = result.mu_x.shape[0] + result.mu_f.shape[0] - 1
    t.counts["filters.joint_moments.flop"] += 2.0 * t.state.get("last_points", 0) * m * m


def _cholesky_failed(t):
    t.counts["linalg.cholesky.failures"] += 1


def _grid_built(t, args, kwargs, result):
    cells = result.mass.size
    t.counts["gridoracle.cells"] += cells
    t.counts["gridoracle.bytes"] += 8.0 * cells


def _grid_read(t, args, kwargs, result):
    t.counts["gridoracle.bytes"] += 8.0 * args[0].mass.size


def _csv_written(t, args, kwargs, result):
    path = kwargs.get("path", args[-1])
    with open(path, "rb") as fh:
        t.counts["experiments.csv_rows"] += fh.read().count(b"\n") - 1


def _seed_begins(t, args, kwargs):
    t.trace_id = f"seed{kwargs['seed']}"


def _cli_begins(t, args, kwargs):
    t.state["cli_calls"] = t.state.get("cli_calls", 0) + 1
    t.trace_id = f"cli{t.state['cli_calls']}"


def timed_model(t: Tracer, model):
    """Copy of ``model`` whose process and observe maps record spans."""
    try:
        return dataclasses.replace(
            model,
            process=t.timed("models.process", model.process, done=_count_rows("models.process.rows")),
            observe=t.timed("models.observe", model.observe, done=_count_rows("models.observe.rows")),
        )
    except (TypeError, AttributeError):
        t.absent.append(f"{type(model).__name__}.process/observe")
        return model


def timed_feature(t: Tracer, feature):
    try:
        return dataclasses.replace(
            feature,
            map=t.timed("filters.feature_map", feature.map, done=_count_rows("filters.feature_map.rows")),
        )
    except (TypeError, AttributeError):
        t.absent.append(f"{type(feature).__name__}.map")
        return feature


def _timed_factory(t, transform):
    def make(original):
        def factory(*args, **kwargs):
            result = original(*args, **kwargs)
            if isinstance(result, tuple):
                return (transform(t, result[0]), *result[1:])
            return transform(t, result)

        return factory

    return make


def install(t: Tracer) -> None:
    """Wrap every layer boundary; absent targets are recorded, not fatal."""
    for target, name in SPANS:
        begin = _cli_begins if name == "cli" else None
        t.wrap(target, name, begin=begin)
    t.wrap("fgfilter.filters:_draw_points", "quadrature.point_sets", done=_points_drawn)
    t.wrap("fgfilter.filters:joint_moments", "filters.joint_moments", done=_moments_flop)
    t.wrap("numpy.linalg:cholesky", "linalg.cholesky", failed=_cholesky_failed)
    t.wrap("fgfilter.cli:joint_density_grid", "gridoracle.joint_density_grid", done=_grid_built)
    t.wrap("fgfilter.cli:grid_joint_moments", "gridoracle.grid_joint_moments", done=_grid_read)
    t.wrap("fgfilter.cli:kl_conditional", "gridoracle.kl_conditional", done=_grid_read)
    for target in ("fgfilter.cli:write_report_csv", "fgfilter.cli:write_summary_csv"):
        t.wrap(target, "experiments.write_csv", done=_csv_written)
    for key in ("noise_magnitude", "heaviside"):
        t.wrap(f"fgfilter.experiments:_EXPERIMENTS[{key}]", "experiments.seed", begin=_seed_begins)
    for target in MODEL_FACTORIES:
        t.patch(target, _timed_factory(t, timed_model))
    for target in FEATURE_FACTORIES:
        t.patch(target, _timed_factory(t, timed_feature))


def percentile(values, q) -> float:
    """Linear-interpolation percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(t: Tracer, lo: int, hi: int, counts: dict) -> dict:
    """Per-layer values for spans ``lo:hi`` and the counters they added."""
    names = t.names[lo:hi]
    starts = t.starts[lo:hi]
    ends = t.ends[lo:hi]
    parents = [p - lo if p != NO_PARENT else NO_PARENT for p in t.parents[lo:hi]]
    own = self_times(starts, ends, parents)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    children = defaultdict(list)
    for i, name in enumerate(names):
        calls[name] += 1
        total[name] += ends[i] - starts[i]
        self_s[name] += own[i]
        if parents[i] != NO_PARENT:
            children[parents[i]].append(i)

    steps_us = []
    for i, name in enumerate(names):
        if name != "filters.run_filter":
            continue
        marks = sorted(starts[k] for k in children[i] if names[k] == "filters.predict")
        marks.append(ends[i])
        steps_us.extend(1e6 * (b - a) for a, b in zip(marks, marks[1:]))
    seed_ms = [1e3 * (ends[i] - starts[i]) for i, n in enumerate(names) if n == "experiments.seed"]

    def ms(name):
        return 1e3 * total[name]

    flop = counts.get("filters.joint_moments.flop", 0.0)
    grid_s = total["gridoracle.joint_density_grid"]
    cells = counts.get("gridoracle.cells", 0.0)
    point_sets = calls["quadrature.point_sets"]
    out = {
        "filters.step_us.p50": percentile(steps_us, 50),
        "filters.step_us.p99": percentile(steps_us, 99),
        "filters.feature_map.ms": ms("filters.feature_map"),
        "filters.feature_map.calls": calls["filters.feature_map"],
        "filters.feature_map.rows": counts.get("filters.feature_map.rows", 0),
        "filters.joint_moments.mflop": flop / 1e6,
        "filters.joint_moments.gflops": flop / 1e9 / total["filters.joint_moments"]
        if total["filters.joint_moments"]
        else 0.0,
        "quadrature.point_sets.calls": point_sets,
        "quadrature.point_sets.ms": ms("quadrature.point_sets"),
        "quadrature.points_per_step": counts.get("quadrature.points", 0) / len(steps_us)
        if steps_us
        else 0.0,
        "quadrature.sqrt_psd.calls": calls["quadrature.sqrt_psd"],
        "quadrature.sqrt_psd.ms": ms("quadrature.sqrt_psd"),
        "quadrature.point_set_useful_ratio": counts.get("quadrature.distinct_beliefs", 0) / point_sets
        if point_sets
        else 0.0,
        "linalg.cholesky.attempts": calls["linalg.cholesky"],
        "linalg.cholesky.failures": counts.get("linalg.cholesky.failures", 0),
        "linalg.cho_solve.ms": ms("linalg.cho_solve"),
        "experiments.seed_ms.p50": percentile(seed_ms, 50),
        "experiments.seed_ms.p90": percentile(seed_ms, 90),
        "experiments.simulate_ms": ms("experiments.simulate"),
        "experiments.write_csv_ms": ms("experiments.write_csv"),
        "experiments.csv_rows": counts.get("experiments.csv_rows", 0),
        "cli.self_ms": 1e3 * self_s["cli"],
        "gridoracle.cells": cells,
        "gridoracle.cells_per_s": cells / grid_s if grid_s else 0.0,
        "gridoracle.mbytes_computed": counts.get("gridoracle.bytes", 0.0) / 1e6,
        "trace.spans": hi - lo,
    }
    for stage in ("predict", "joint_moments", "fgf_solve", "fgf_update", "standardize"):
        out[f"filters.{stage}.self_ms"] = 1e3 * self_s[f"filters.{stage}"]
        out[f"filters.{stage}.calls"] = calls[f"filters.{stage}"]
    for layer in ("process", "observe"):
        out[f"models.{layer}.calls"] = calls[f"models.{layer}"]
        out[f"models.{layer}.ms"] = ms(f"models.{layer}")
        out[f"models.{layer}.rows"] = counts.get(f"models.{layer}.rows", 0)
    out["models.belief_validate.calls"] = calls["models.belief_validate"]
    out["models.belief_validate.ms"] = ms("models.belief_validate")
    for op in ("eigh", "eigvalsh"):
        out[f"linalg.{op}.calls"] = calls[f"linalg.{op}"]
        out[f"linalg.{op}.ms"] = ms(f"linalg.{op}")
    for stage in ("default_grids", "joint_density_grid", "grid_joint_moments", "kl_conditional"):
        out[f"gridoracle.{stage}.ms"] = ms(f"gridoracle.{stage}")
    return out


def median_metrics(reps: list[dict]) -> dict:
    return {key: statistics.median(rep[key] for rep in reps) for key in reps[0]}
