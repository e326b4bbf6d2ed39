"""Tests for the experiment runners and their CSV writers.

Determinism is the headline requirement: identical seed and
configuration must reproduce every array and every output byte.
"""

import csv
import math

import fgfilter.filters
import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgfilter import (
    gauss_hermite,
    make_heaviside_model,
    make_monomial_feature,
    make_noise_magnitude_model,
    monte_carlo,
    run_experiment_batch,
    run_heaviside_experiment,
    run_filter_lanes,
    run_noise_experiment,
    sigma_point,
    write_report_csv,
    write_summary_csv,
)
from fgfilter import experiments
from fgfilter.experiments import (
    REPORT_COLUMNS,
    SUMMARY_COLUMNS,
    ExperimentReport,
)
from helpers import oracle_gaps, rescaled


def test_report_shapes_and_rmse():
    rep = run_noise_experiment(steps=40, seed=3, engine=monte_carlo(800, seed=3))
    assert rep.model_name == "noise_magnitude"
    assert rep.orders == (1, 2)
    assert rep.true_states.shape == (40,)
    assert rep.measurements.shape == (40,)
    for order in rep.orders:
        assert rep.means[order].shape == (40,)
        assert np.all(rep.stds[order] >= 0.0)
        recomputed = float(np.sqrt(np.mean((rep.means[order] - rep.true_states) ** 2)))
        assert_allclose(rep.rmse[order], recomputed)
        assert rep.diverged_at[order] is None
    assert rep.rmse_gf == rep.rmse[1]


def test_runs_are_deterministic():
    a = run_noise_experiment(steps=30, seed=5)
    b = run_noise_experiment(steps=30, seed=5)
    assert np.array_equal(a.true_states, b.true_states)
    for order in a.orders:
        assert np.array_equal(a.means[order], b.means[order])
        assert a.rmse[order] == b.rmse[order]
    c = run_noise_experiment(steps=30, seed=6)
    assert not np.array_equal(a.true_states, c.true_states)


def test_sigma_engine_is_blind_to_noise_magnitude():
    # With sigma points the state/measurement cross moments vanish
    # identically at every feature order (no point displaces state and
    # observation noise together), so both posteriors stay pinned at the
    # prior mean. This is why the noise experiment defaults to a
    # Gauss-Hermite product rule, whose points displace both together.
    rep = run_noise_experiment(steps=50, seed=0, engine=sigma_point())
    assert np.max(np.abs(rep.means[1] - 5.0)) < 1e-9
    assert np.max(np.abs(rep.means[2] - 5.0)) < 1e-9


def test_monte_carlo_engine_sees_the_magnitude():
    rep = run_noise_experiment(steps=50, seed=0, engine=monte_carlo(seed=0))
    assert rep.rmse[2] < rep.rmse[1]


def test_fgf_tracks_are_calibrated():
    rep = run_noise_experiment(steps=600, seed=1)
    inside = np.abs(rep.true_states - rep.means[2]) <= 3.0 * rep.stds[2]
    assert inside.mean() >= 0.95
    rep = run_heaviside_experiment(steps=600, seed=1)
    inside = np.abs(rep.true_states - rep.means[3]) <= 3.0 * rep.stds[3]
    assert inside.mean() >= 0.95


def test_noise_run_matches_the_grid_oracle_at_every_step():
    # The pass's QR fit at each step's predicted belief is the fit the
    # grid oracle makes there, moment-based and on an 801-point grid, for
    # the noise model's default run: at each of 50 steps on three seeds,
    # within 1e-5 in both the mean (in posterior sd) and the relative
    # variance. Measured: at most 9.2e-7 and 3.8e-6.
    model, prior = make_noise_magnitude_model()
    feature = make_monomial_feature(1, 2)
    for rep in run_experiment_batch("noise_magnitude", 3, 0, steps=50):
        covs = (rep.stds[2] ** 2)[:, None, None]
        mean_gaps, var_gaps = oracle_gaps(
            model, prior, feature, rep.means[2][:, None], covs, rep.measurements
        )
        assert len(mean_gaps) == 50
        assert mean_gaps.max() <= 1e-5 and var_gaps.max() <= 1e-5


def test_heaviside_experiment_defaults():
    rep = run_heaviside_experiment(steps=25, seed=2, engine=monte_carlo(800, seed=2))
    assert rep.model_name == "heaviside"
    assert rep.orders == (1, 3)
    assert all(np.isfinite(rep.rmse[o]) for o in rep.orders)


def test_raw_high_order_monomials_fit_like_rescaled_ones():
    # The pass fits by QR of its weighted points, so raw monomials of
    # measurements around 50 stay as well conditioned as the same
    # monomials of (y - 25) / 25: on seeds 10 and 17, at orders 5 and 7,
    # every lane runs through and each step's mean agrees with its
    # rescaled twin. Measured: 2.8e-8 sd at order 5 and 6.0e-5 sd at
    # order 7. Under normal equations the raw order-5 lane ran away at
    # step 975 on seed 17.
    model, prior = make_heaviside_model()
    raw = [make_monomial_feature(1, order) for order in (5, 7)]
    features = raw + [rescaled(feature, 25.0, 25.0) for feature in raw]
    for seed in (10, 17):
        rep = run_heaviside_experiment(seed=seed, orders=(1,))
        lanes = run_filter_lanes(model, prior, features, monte_carlo(seed=seed), rep.measurements)
        assert lanes.diverged_at == (None,) * 4
        for lane, bound in enumerate((1e-7, 2e-4)):
            sd = np.sqrt(lanes.covs[lane + 2, :, 0, 0])
            gap = np.abs(lanes.means[lane, :, 0] - lanes.means[lane + 2, :, 0]) / sd
            assert gap.max() <= bound


def test_model_keywords_go_to_the_factory():
    rep = run_heaviside_experiment(steps=5, seed=0, step_height=7.0)
    # The same filter run by hand on the step-7 model, with heaviside's
    # features and seeded draws, reproduces the report.
    model, prior = make_heaviside_model(step_height=7.0)
    features = [make_monomial_feature(1, 1), make_monomial_feature(1, 3)]
    ref = run_filter_lanes(model, prior, features, monte_carlo(seed=0), rep.measurements)
    for lane, order in enumerate(rep.orders):
        assert np.array_equal(rep.means[order], ref.means[lane, :, 0])
        assert np.array_equal(rep.stds[order], np.sqrt(np.clip(ref.covs[lane, :, 0, 0], 0, None)))
    default = run_heaviside_experiment(steps=5, seed=0)
    assert not np.array_equal(rep.measurements, default.measurements)
    # A keyword the factory does not take is an error, not ignored.
    with pytest.raises(TypeError):
        run_noise_experiment(steps=5, step_height=7.0)
    with pytest.raises(TypeError):
        run_heaviside_experiment(steps=5, noise_scale=0.2)


def test_experiment_validation():
    with pytest.raises(ValueError):
        run_noise_experiment(steps=0)
    with pytest.raises(ValueError):
        run_noise_experiment(steps=10, orders=(0,))
    with pytest.raises(ValueError):
        run_experiment_batch("pendulum", n_seeds=1)
    with pytest.raises(ValueError):
        run_experiment_batch("heaviside", n_seeds=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_seeds": 2.5}, "n_seeds must be an integer, got 2.5"),
        ({"n_seeds": True}, "n_seeds must be an integer, got True"),
        ({"base_seed": -1}, "base_seed must be at least 0, got -1"),
        ({"base_seed": 1.0}, "base_seed must be an integer, got 1.0"),
        ({"steps": 3.5}, "steps must be an integer, got 3.5"),
        ({"steps": False}, "steps must be an integer, got False"),
    ],
)
def test_batch_rejects_bad_counts_and_seeds(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_experiment_batch("heaviside", **kwargs)


def test_batch_runs_consecutive_seeds():
    reports = run_experiment_batch(
        "noise_magnitude", n_seeds=3, base_seed=10, steps=15,
        engine=monte_carlo(500, seed=0),
    )
    assert [r.seed for r in reports] == [10, 11, 12]


def _assert_same_report(got, want):
    assert (got.model_name, got.seed, got.steps) == (want.model_name, want.seed, want.steps)
    assert (got.engine, got.orders) == (want.engine, want.orders)
    assert np.array_equal(got.true_states, want.true_states)
    assert np.array_equal(got.measurements, want.measurements)
    assert got.diverged_at == want.diverged_at
    for order in want.orders:
        assert np.array_equal(got.means[order], want.means[order], equal_nan=True)
        assert np.array_equal(got.stds[order], want.stds[order], equal_nan=True)
        same = got.rmse[order] == want.rmse[order]
        assert same or (math.isnan(got.rmse[order]) and math.isnan(want.rmse[order]))


SOLO = {"noise_magnitude": run_noise_experiment, "heaviside": run_heaviside_experiment}


@pytest.mark.parametrize(
    "model_name, budget, batch",
    [
        pytest.param(name, budget, {}, id=f"{budget}-{name}")
        for budget in (None, 2 * 2 * 5000)
        for name in sorted(SOLO)
    ]
    + [
        # At 200 draws seed 3's orders 3 and 4 diverge at steps 175 and
        # 10, while the other lanes of its block run on.
        pytest.param(
            "heaviside",
            None,
            {"n_seeds": 8, "base_seed": 0, "steps": 200,
             "engine": monte_carlo(200, seed=3), "orders": (2, 3, 4)},
            id="mid_block_failure-heaviside",
        )
    ],
)
def test_batch_reports_equal_solo_runs(monkeypatch, model_name, budget, batch):
    # With a small point budget the five seeds run in three blocks of at
    # most two; with the default budget, in one block. Either way each
    # seed's report is its single-seed run, bit for bit, also where some
    # lanes of the block fail.
    if budget is not None:
        monkeypatch.setattr(experiments, "_BLOCK_POINTS", budget)
    kwargs = {"n_seeds": 5, "base_seed": 20, "steps": 40, **batch}
    n_seeds, base_seed = kwargs.pop("n_seeds"), kwargs.pop("base_seed")
    reports = run_experiment_batch(model_name, n_seeds=n_seeds, base_seed=base_seed, **kwargs)
    assert [r.seed for r in reports] == list(range(base_seed, base_seed + n_seeds))
    if "orders" in batch:
        assert any(at is not None for r in reports for at in r.diverged_at.values())
    for report in reports:
        _assert_same_report(report, SOLO[model_name](seed=report.seed, **kwargs))


def test_batch_engines(monkeypatch):
    # An explicit engine gives every seed the same point set, built once;
    # without one, each heaviside seed draws its own monte_carlo(seed=seed)
    # stream, and the noise seeds share one Gauss-Hermite rule, built once.
    built = []
    unit_points = fgfilter.filters._unit_points

    def recording(engine, *args):
        built.append(engine)
        return unit_points(engine, *args)

    monkeypatch.setattr("fgfilter.filters._unit_points", recording)
    shared = monte_carlo(700, seed=9)
    reports = run_experiment_batch("noise_magnitude", n_seeds=3, base_seed=4, steps=15, engine=shared)
    assert built == [shared]
    assert [r.engine for r in reports] == [shared] * 3
    for report in reports:
        _assert_same_report(report, run_noise_experiment(steps=15, seed=report.seed, engine=shared))
    built.clear()
    reports = run_experiment_batch("heaviside", n_seeds=3, base_seed=4, steps=15)
    assert built == [monte_carlo(seed=s) for s in (4, 5, 6)]
    for report in reports:
        own = monte_carlo(seed=report.seed)
        assert report.engine == own
        _assert_same_report(report, run_heaviside_experiment(steps=15, seed=report.seed, engine=own))
    built.clear()
    reports = run_experiment_batch("noise_magnitude", n_seeds=3, base_seed=4, steps=15)
    assert built == [gauss_hermite(3)]
    assert [r.engine for r in reports] == [gauss_hermite(3)] * 3
    # The rule is the smallest exact one for the highest order run.
    cubic = run_experiment_batch("noise_magnitude", n_seeds=1, steps=3, orders=(3,))
    assert cubic[0].engine == gauss_hermite(4)


def test_runtime_is_the_seed_share_of_its_block():
    reports = run_experiment_batch("heaviside", n_seeds=3, steps=20)
    assert all(math.isfinite(r.runtime) and r.runtime > 0.0 for r in reports)
    assert len({r.runtime for r in reports}) == 1  # one block, shared evenly
    solo = run_heaviside_experiment(steps=20)
    assert math.isfinite(solo.runtime) and solo.runtime > 0.0


def test_report_csv_layout(tmp_path):
    reports = run_experiment_batch(
        "noise_magnitude", n_seeds=2, base_seed=0, steps=12,
        engine=monte_carlo(500, seed=0),
    )
    path = tmp_path / "report.csv"
    write_report_csv(reports, 2, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 1 + 2 * 12
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"  # seed then 1-based step
    with pytest.raises(ValueError):
        write_report_csv(reports, 4, tmp_path / "missing.csv")


def test_report_csv_checks_every_report_before_opening_the_file(tmp_path):
    # Whether the first or only a later report lacks the order, no file
    # is left behind, not even its header.
    without = run_noise_experiment(steps=3)
    with_3 = run_noise_experiment(steps=3, orders=(3,))
    path = tmp_path / "report.csv"
    for reports in ([without], [with_3, without]):
        with pytest.raises(ValueError, match="report for seed 0 has no order-3 run"):
            write_report_csv(reports, 3, path)
        assert not path.exists()


def _reference_report_csv(reports, order, path):
    # The writer as csv.writer spells it, row by row.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            tracks = (r.true_states, r.measurements, r.means[1], r.stds[1], r.means[order], r.stds[order])
            for t in range(r.steps):
                writer.writerow([r.seed, t + 1, *(repr(float(c[t])) for c in tracks)])


def test_report_csv_matches_csv_writer(tmp_path):
    # Awkward floats: -0.0, a subnormal, 1e17 (repr '1e+17'), inf, and a
    # diverged order whose tracks are NaN.
    special = np.array([-0.0, 5e-324, 1e17, -2.5e-310, 0.1, np.inf])
    nan = np.full(6, np.nan)
    reports = [
        ExperimentReport(
            model_name="noise_magnitude", seed=seed, steps=6, engine=monte_carlo(10),
            orders=(1, 2), true_states=special * (seed + 1), measurements=-special,
            means={1: special[::-1].copy(), 2: nan}, stds={1: np.abs(special), 2: nan},
            rmse={1: 1.0, 2: float("nan")}, diverged_at={1: None, 2: 3}, runtime=0.0,
        )
        for seed in (0, 11)
    ]
    reports += run_experiment_batch("noise_magnitude", n_seeds=2, base_seed=3, steps=30)
    write_report_csv(reports, 2, tmp_path / "fast.csv")
    _reference_report_csv(reports, 2, tmp_path / "reference.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    text = (tmp_path / "fast.csv").read_text()
    assert "-0.0" in text and "5e-324" in text and "1e+17" in text and ",nan," in text


def test_summary_csv_layout(tmp_path):
    mc_reports = run_experiment_batch(
        "noise_magnitude", n_seeds=1, steps=10, engine=monte_carlo(500, seed=3)
    )
    sp_reports = run_experiment_batch(
        "noise_magnitude", n_seeds=1, steps=10, engine=sigma_point(kappa=0.5)
    )
    path = tmp_path / "summary.csv"
    write_summary_csv(mc_reports + sp_reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    assert len(lines) == 1 + 4  # one row per (seed, order), orders (1, 2)
    mc_row = dict(zip(SUMMARY_COLUMNS, lines[1].split(",")))
    assert mc_row["engine_kind"] == "monte_carlo"
    assert mc_row["engine_samples"] == "500" and mc_row["engine_seed"] == "3"
    assert mc_row["engine_kappa"] == ""
    sp_row = dict(zip(SUMMARY_COLUMNS, lines[3].split(",")))
    assert sp_row["engine_kind"] == "sigma_point"
    assert sp_row["engine_samples"] == "" and sp_row["engine_seed"] == ""
    assert sp_row["engine_kappa"] == "0.5"
    assert sp_row["diverged_at"] == ""


def test_csv_bytes_reproduce(tmp_path):
    for run in ("one", "two"):
        reports = run_experiment_batch(
            "heaviside", n_seeds=2, steps=10, engine=monte_carlo(500, seed=1)
        )
        write_report_csv(reports, 3, tmp_path / f"report_{run}.csv")
        write_summary_csv(reports, tmp_path / f"summary_{run}.csv")
    assert (tmp_path / "report_one.csv").read_bytes() == (
        tmp_path / "report_two.csv"
    ).read_bytes()
    assert (tmp_path / "summary_one.csv").read_bytes() == (
        tmp_path / "summary_two.csv"
    ).read_bytes()
