"""The four benchmark workloads and their correctness checks.

Each workload issues *units* of work through the program's public entry
points (``fgfilter.cli.cli_main`` in-process, or ``fgfilter.run_filter``),
times each call, parses what the program wrote and records every failed
correctness check by name. Names are looked up on the program's modules
at call time, so a traced run sees the tracer's wrappers.

Every end-to-end metric is reported on every workload; README.md gives
the per-workload definition of each.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linear
from .calibrate import Clock
from .layers import percentile, timed_feature, timed_model

# Chance-level tolerance for the win rules on a handful of seeds: the
# observed win count must not be below what the criterion's win rate
# yields with probability 0.001 (one-sided binomial tail).
WIN_RULE_ALPHA = 1e-3


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``smoke`` shrinks every one of them for tests."""

    # Seeds per batch call: one call fills --seconds 20 at today's speed,
    # so a batched filter sees the whole batch.
    noise_mc_seeds: int = 20
    heaviside_mc_seeds: int = 16
    mc_steps: int | None = None  # None keeps the CLI default (1000)
    linear_steps: int = 100
    linear_min_trajectories: int = 110  # p90 needs >= 10 samples beyond it
    kl_grid_n: int = 2001
    density_grid_n: int = 201
    traced_mc_seeds: int = 2
    traced_trajectories: int = 20


FULL = Sizes()
SMOKE = Sizes(
    noise_mc_seeds=1,
    heaviside_mc_seeds=1,
    mc_steps=200,
    linear_steps=20,
    linear_min_trajectories=12,
    kl_grid_n=201,
    density_grid_n=41,
    traced_mc_seeds=1,
    traced_trajectories=3,
)


def binom_cdf(k: int, n: int, p: float) -> float:
    return sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k + 1))


def win_rule_holds(wins: int, n: int, rate: float) -> bool:
    return binom_cdf(wins, n, rate) >= WIN_RULE_ALPHA


class Checks:
    """Named correctness checks; a check fails on its first bad case."""

    def __init__(self):
        self.failed: dict[str, str] = {}
        self.names: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if name not in self.names:
            self.names.append(name)
        if not ok and name not in self.failed:
            self.failed[name] = detail

    @property
    def correct(self) -> bool:
        return not self.failed


def _cli():
    return importlib.import_module("fgfilter.cli")


def call_cli(argv, clock: Clock) -> tuple[int, float, float, str]:
    """Run ``fgfilter.cli.cli_main(argv)`` in-process.

    Returns the exit code, wall and reported seconds (see ``Clock``) and
    everything the call printed.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code, wall, seconds = clock.timed(_cli().cli_main, list(argv))
    return code, wall, seconds, buf.getvalue()


def drive(unit, seconds: float, fixed: int | None = None, min_units: int = 1):
    """Run ``unit(0), unit(1), ...`` and return their results.

    With ``fixed`` the count is exact. Otherwise units continue until at
    least ``min_units`` ran and less than half of the last unit's
    duration still fits into ``seconds``.
    """
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(unit(len(results)))
        last = time.perf_counter() - t0
        if fixed is not None:
            if len(results) >= fixed:
                return results
            continue
        elapsed = time.perf_counter() - start
        if len(results) >= min_units and elapsed + 0.5 * last >= seconds:
            return results


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        self.checks = Checks()
        self.tracer = None
        self.clock = Clock()

    def instrument(self, tracer) -> None:
        """Route this workload's own program inputs through ``tracer``; None undoes."""
        self.tracer = tracer

    def _unit_dir(self, tag) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=self.work_dir))

    def warmup(self) -> None:
        """Run a small piece of the workload so lazy imports finish."""

    def unit(self, index: int) -> dict:
        raise NotImplementedError

    def traced_units(self) -> int:
        return 1

    def summarize(self, results) -> tuple[dict, int, int, float]:
        """(end-to-end values, attempted, failed, diverged_frac)."""
        raise NotImplementedError


class MonteCarloWorkload(Workload):
    """``fgfilter simulate`` at CLI defaults, one batch call per unit."""

    model = ""
    order = 0
    win_rate = 0.0  # the acceptance criterion's required win share

    def __init__(self, seed, sizes, work_dir, traced=False):
        super().__init__(seed, sizes, work_dir)
        self.seeds_per_call = (
            sizes.traced_mc_seeds if traced else getattr(sizes, f"{self.name}_seeds")
        )
        self.base = seed * 1000

    def _argv(self, base, n, out, steps=None):
        argv = ["simulate", "--model", self.model, "--seeds", str(n), "--seed", str(base)]
        steps = self.sizes.mc_steps if steps is None else steps
        if steps is not None:
            argv += ["--steps", str(steps)]
        return argv + ["--out", str(out)]

    def warmup(self):
        out = self._unit_dir("warmup")
        call_cli(self._argv(self.base + 999, 1, out, steps=20), self.clock)
        shutil.rmtree(out, ignore_errors=True)

    def unit(self, index):
        n = self.seeds_per_call
        base = self.base + index * n
        out = self._unit_dir(f"unit{index}")
        try:
            code, wall, seconds, text = call_cli(self._argv(base, n, out), self.clock)
            return {"wall": wall, "time": seconds, "seeds": n, **self._parse(code, text, base, n, out)}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _parse(self, code, text, base, n, out):
        chk = self.checks
        chk.check("cli_exit_zero", code == 0, f"simulate exited {code}: {text[-300:]}")
        expected = {(s, o) for s in range(base, base + n) for o in (1, self.order)}
        rows = {}
        summary = out / "summary.csv"
        if summary.exists():
            with open(summary, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    rows[(int(row["seed"]), int(row["order"]))] = row
        chk.check(
            "summary_rows_complete",
            set(rows) == expected,
            f"summary.csv has {len(rows)} of {len(expected)} (seed, order) rows",
        )
        diverged = 0
        for (s, o), row in rows.items():
            if row["diverged_at"]:
                diverged += 1
                continue
            if self.model == "noise_magnitude" and o == 1:
                continue  # rmse_gf is unbounded under Monte Carlo here
            chk.check(
                "summary_rows_complete",
                math.isfinite(float(row["rmse_fgf"])),
                f"seed {s} order {o}: rmse_fgf {row['rmse_fgf']} without diverged_at",
            )
        rmse_fgf, wins = [], 0
        near = self._near_step_rmse(out, base, n) if self.model == "heaviside" else None
        for s in range(base, base + n):
            row = rows.get((s, self.order))
            fgf = float(row["rmse_fgf"]) if row and not row["diverged_at"] else math.inf
            rmse_fgf.append(fgf)
            if near is not None:
                gf_near, fgf_near = near.get(s, (math.nan, math.nan))
                wins += fgf_near < gf_near
            elif row is not None:
                wins += fgf < float(row["rmse_gf"])
        return {
            "attempted": len(expected),
            "diverged": diverged if code == 0 else len(expected),
            "wins": wins,
            "rmse_fgf": rmse_fgf,
        }

    def _near_step_rmse(self, out, base, n):
        """Per seed (gf, fgf) RMSE over steps with |x| < 5 (criterion 6)."""
        path = out / f"report_{self.model}_{self.order}.csv"
        if not path.exists():
            self.checks.check("report_rows_complete", False, f"{path.name} missing")
            return {}
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        steps = self.sizes.mc_steps or 1000
        self.checks.check(
            "report_rows_complete",
            data.shape[0] == n * steps,
            f"{path.name} has {data.shape[0]} rows, expected {n * steps}",
        )
        out_map = {}
        for s in range(base, base + n):
            block = data[data[:, 0] == s]
            truth = block[:, 2]
            near = np.abs(truth) < 5.0
            if not near.any():
                continue
            gf = np.sqrt(np.mean((block[near, 4] - truth[near]) ** 2))
            fgf = np.sqrt(np.mean((block[near, 6] - truth[near]) ** 2))
            out_map[s] = (float(gf), float(fgf))
        return out_map

    def summarize(self, results):
        wall = sum(r["time"] for r in results)
        seeds = sum(r["seeds"] for r in results)
        steps = self.sizes.mc_steps or 1000
        attempted = sum(r["attempted"] for r in results)
        diverged = sum(r["diverged"] for r in results)
        wins = sum(r["wins"] for r in results)
        rmse = [v for r in results for v in r["rmse_fgf"]]
        per_seed_ms = [1000.0 * r["time"] / r["seeds"] for r in results]
        self.checks.check(
            "win_rule",
            win_rule_holds(wins, seeds, self.win_rate),
            f"FGF won {wins} of {seeds} seeds; the criterion needs a "
            f"{self.win_rate:.0%} win rate",
        )
        values = {
            "filter_steps_per_s": seeds * 2 * steps / wall,
            "trajectory_ms.p50": percentile(per_seed_ms, 50),
            "trajectory_ms.p90": percentile(per_seed_ms, 90),
            "oracle_cmds_per_s": len(results) / wall,
            "fgf_win_frac": wins / seeds,
            "rmse_fgf.median": statistics.median(rmse),
        }
        return values, attempted, diverged, diverged / attempted


class NoiseMC(MonteCarloWorkload):
    name = "noise_mc"
    model = "noise_magnitude"
    order = 2
    win_rate = 0.95  # criterion 5: at least 95 of 100 seeds


class HeavisideMC(MonteCarloWorkload):
    name = "heaviside_mc"
    model = "heaviside"
    order = 3
    win_rate = 0.90  # criterion 6: at least 90 of 100 seeds near the step


class LinearSigma(Workload):
    """Public ``run_filter`` on a 3-state linear-Gaussian model, sigma points."""

    name = "linear_sigma"

    def __init__(self, seed, sizes, work_dir, traced=False):
        super().__init__(seed, sizes, work_dir)
        fg = importlib.import_module("fgfilter")
        self.system = linear.make_system(seed)
        self.model = make_model(fg, self.system)
        self.prior = fg.GaussianBelief(self.system["m0"], self.system["p0"])
        self.feature = fg.make_affine_feature(linear.MEAS_DIM)
        self.engine = fg.sigma_point()
        self.plain = (self.model, self.feature)

    def instrument(self, tracer):
        super().instrument(tracer)
        self.model, self.feature = self.plain
        if tracer is not None:
            self.model = timed_model(tracer, self.model)
            self.feature = timed_feature(tracer, self.feature)

    def traced_units(self):
        return self.sizes.traced_trajectories

    def warmup(self):
        fg = importlib.import_module("fgfilter")
        _, meas = linear.simulate(self.system, 5, self.seed, 10**9)
        fg.run_filter(self.model, self.prior, self.feature, self.engine, meas)

    def unit(self, index):
        fg = importlib.import_module("fgfilter")
        steps = self.sizes.linear_steps
        states, meas = linear.simulate(self.system, steps, self.seed, index)
        if self.tracer is not None:
            self.tracer.trace_id = f"trajectory{index}"

        def attempt():
            try:
                return fg.run_filter(self.model, self.prior, self.feature, self.engine, meas)
            except fg.NumericsError as err:
                return err

        posts, wall, seconds = self.clock.timed(attempt)
        if isinstance(posts, fg.NumericsError):
            self.checks.check("no_numerics_error", False, f"trajectory {index}: {posts}")
            return {"wall": wall, "time": seconds, "failed": True}
        means = np.array([p.mean for p in posts])
        covs = np.array([p.cov for p in posts])
        kf_means, kf_covs = linear.kalman(self.system, meas)
        mean_gap = float(np.max(np.abs(means - kf_means)))
        cov_gap = float(np.max(np.abs(covs - kf_covs) / np.abs(kf_covs).max(axis=(1, 2))[:, None, None]))
        self.checks.check(
            "kalman_match",
            mean_gap < 1e-6 and cov_gap < 1e-5,
            f"trajectory {index}: mean gap {mean_gap:.3g}, relative cov gap {cov_gap:.3g}",
        )
        rmse = float(np.sqrt(np.mean((means - states) ** 2)))
        open_rmse = float(np.sqrt(np.mean((linear.open_loop(self.system, steps) - states) ** 2)))
        return {"wall": wall, "time": seconds, "failed": False, "rmse": rmse, "win": rmse < open_rmse}

    def summarize(self, results):
        ok = [r for r in results if not r["failed"]]
        self.checks.check("no_numerics_error", len(ok) == len(results))
        wall = sum(r["time"] for r in results)
        lat = [1000.0 * r["time"] for r in results]
        failed = len(results) - len(ok)
        rmse = [r["rmse"] for r in ok] + [math.inf] * failed
        values = {
            "filter_steps_per_s": len(results) * self.sizes.linear_steps / wall,
            "trajectory_ms.p50": percentile(lat, 50),
            "trajectory_ms.p90": percentile(lat, 90),
            "oracle_cmds_per_s": len(results) / wall,
            "fgf_win_frac": sum(r["win"] for r in ok) / len(results),
            "rmse_fgf.median": statistics.median(rmse),
        }
        return values, len(results), failed, failed / len(results)


def make_model(fg, system):
    """The linear system as a fgfilter model with Cholesky-factor noise."""
    a, b, c, d = system["a"], system["b"], system["c"], system["d"]
    lq = linear.cholesky(system["q"])
    lr = linear.cholesky(system["r"])

    def process(x, v):
        return x @ a.T + b + v @ lq.T

    def observe(x, w):
        return x @ c.T + d + w @ lr.T

    return fg.StateSpaceModel(
        state_dim=linear.STATE_DIM,
        meas_dim=linear.MEAS_DIM,
        process_noise_dim=linear.STATE_DIM,
        obs_noise_dim=linear.MEAS_DIM,
        process=process,
        observe=observe,
        name="linear_sigma",
    )


class OracleGrid(Workload):
    """In-process ``kl`` and ``density`` on both models; one sweep per unit."""

    name = "oracle_grid"
    models = ("noise_magnitude", "heaviside")
    orders = (1, 2, 3)

    def __init__(self, seed, sizes, work_dir, traced=False):
        super().__init__(seed, sizes, work_dir)
        self.base = seed * 1000

    def _commands(self, cli_seed, kl_n, density_n, out):
        common = ["--seed", str(cli_seed), "--out", str(out)]
        orders = ",".join(map(str, self.orders))
        cmds = []
        for model in self.models:
            cmds.append(["kl", "--model", model, "--orders", orders, "--grid-n", str(kl_n), *common])
        for model in self.models:
            cmds.append(["density", "--model", model, "--grid-n", str(density_n), *common])
        return cmds

    def warmup(self):
        out = self._unit_dir("warmup")
        for argv in self._commands(self.base + 999, 101, 21, out):
            call_cli(argv, self.clock)
        shutil.rmtree(out, ignore_errors=True)

    def unit(self, index):
        out = self._unit_dir(f"sweep{index}")
        cmds = self._commands(self.base + index, self.sizes.kl_grid_n, self.sizes.density_grid_n, out)
        try:
            wall, total, failed, fits = 0.0, 0.0, 0, 0
            for argv in cmds:
                code, seconds, reported, text = call_cli(argv, self.clock)
                wall += seconds
                total += reported
                self.checks.check("cli_exit_zero", code == 0, f"{argv[0]} {argv[2]} exited {code}: {text[-300:]}")
                failed += code != 0
                fits += len(self.orders) if argv[0] == "kl" else 2
            wins, pairs, rmse = self._parse(out)
            return {"wall": wall, "time": total, "cmds": len(cmds), "failed": failed, "fits": fits,
                    "wins": wins, "pairs": pairs, "rmse": rmse}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _parse(self, out):
        wins, pairs, rmse = 0, 0, []
        for model in self.models:
            kl = {}
            path = out / f"kl_{model}.csv"
            if path.exists():
                with open(path, newline="", encoding="utf-8") as fh:
                    kl = {int(r["order"]): float(r["kl"]) for r in csv.DictReader(fh)}
            ok = set(kl) == set(self.orders) and all(
                kl[a] >= kl[b] - 1e-6 for a, b in zip(self.orders, self.orders[1:])
            )
            self.checks.check("kl_nonincreasing", ok, f"{model}: {kl}")
            for order in self.orders[1:]:
                pairs += 1
                wins += order in kl and 1 in kl and kl[order] < kl[1]
            rmse.append(self._density_rmse(out / f"density_{model}.csv"))
        return wins, pairs, rmse

    def _density_rmse(self, path):
        """RMSE of the FGF conditional mean under the exact grid joint."""
        n = self.sizes.density_grid_n
        if not path.exists():
            self.checks.check("density_rows_complete", False, f"{path.name} missing")
            return math.inf
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        self.checks.check(
            "density_rows_complete",
            data.shape == (n * n, 5),
            f"{path.name} has shape {data.shape}, expected {(n * n, 5)}",
        )
        p, x, q_fgf = data[:, 2], data[:, 1], data[:, 4]
        return float(np.sqrt(np.sum(p * (x - q_fgf) ** 2) / np.sum(p)))

    def summarize(self, results):
        wall = sum(r["time"] for r in results)
        cmds = sum(r["cmds"] for r in results)
        failed = sum(r["failed"] for r in results)
        lat = [1000.0 * r["time"] for r in results]
        rmse = [v for r in results for v in r["rmse"]]
        values = {
            "filter_steps_per_s": sum(r["fits"] for r in results) / wall,
            "trajectory_ms.p50": percentile(lat, 50),
            "trajectory_ms.p90": percentile(lat, 90),
            "oracle_cmds_per_s": cmds / wall,
            "fgf_win_frac": sum(r["wins"] for r in results) / sum(r["pairs"] for r in results),
            "rmse_fgf.median": statistics.median(rmse),
        }
        return values, cmds, failed, failed / cmds


WORKLOADS = {w.name: w for w in (NoiseMC, HeavisideMC, LinearSigma, OracleGrid)}
