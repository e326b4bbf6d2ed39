"""CLI tests driven in process through cli_main(argv)."""

import csv
import inspect
import warnings

import numpy as np
import pytest

from fgfilter import GridDensity2D, Grid1D
from fgfilter.cli import _parse_range, _write_density_csv, cli_main
from fgfilter.experiments import EXPERIMENTS


def _read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def _write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


SMALL_RUN = """
model.name = noise_magnitude
engine.kind = monte_carlo
engine.samples = 500
run.steps = 12
run.seeds = 2
"""


def test_simulate_writes_reports_and_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    rc = cli_main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0

    report = out / "report_noise_magnitude_2.csv"
    summary = out / "summary.csv"
    assert report.is_file() and summary.is_file()

    report_lines = _read_lines(report)
    assert report_lines[0].split(",")[:2] == ["seed", "t"]
    assert len(report_lines) == 1 + 2 * 12
    # summary carries the order-1 baseline row alongside each requested order
    assert len(_read_lines(summary)) == 1 + 2 * 2

    stdout = capsys.readouterr().out
    assert "order 2:" in stdout
    assert "fgf better in" in stdout


def test_simulate_accepts_multiple_orders(tmp_path):
    cfg = _write_config(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    rc = cli_main(
        ["simulate", "--config", str(cfg), "--out", str(out), "--orders", "1,2"]
    )
    assert rc == 0
    assert (out / "report_noise_magnitude_1.csv").is_file()
    assert (out / "report_noise_magnitude_2.csv").is_file()
    assert len(_read_lines(out / "summary.csv")) == 1 + 2 * 2


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, SMALL_RUN)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("report_noise_magnitude_2.csv", "summary.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


@pytest.mark.parametrize(
    "text, nodes",
    [("", "3"), ("engine.kind = gauss_hermite\nengine.nodes = 4\n", "4")],
)
def test_simulate_writes_a_gauss_hermite_summary_row(tmp_path, text, nodes):
    # The noise experiment's default engine, and one set in a config file.
    cfg = _write_config(tmp_path, f"model.name = noise_magnitude\n{text}")
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg), "--steps", "5", "--out", str(out)]) == 0
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["order"] for row in rows] == ["1", "2"]
    for row in rows:
        engine = [row[c] for c in ("engine_kind", "engine_samples", "engine_kappa", "engine_seed")]
        assert engine == ["gauss_hermite", nodes, "", ""]


def test_density_grid_and_columns(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli_main(
        [
            "density",
            "--model",
            "noise_magnitude",
            "--out",
            str(out),
            "--grid-n",
            "61",
            "--x-range",
            "1,9",
            # = form so argparse does not read the leading minus as a flag
            "--y-range=-20,20",
        ]
    )
    assert rc == 0
    lines = _read_lines(out / "density_noise_magnitude.csv")
    assert lines[0] == "y,x,p,q_gf,q_fgf"
    assert len(lines) == 1 + 61 * 61

    cols = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    y, x, p, q_gf, q_fgf = cols.T
    assert np.all(p >= 0.0)
    cell = ((9 - 1) / 61) * ((20 - -20) / 61)
    assert abs(p.sum() * cell - 1.0) < 1e-9
    # The magnitude is uncorrelated with the raw measurement, so the
    # affine posterior mean must sit flat over all y. Its level sits a
    # little under the prior mean because the y truncation clips more
    # mass from wide-magnitude slices of the grid.
    assert np.ptp(q_gf) < 1e-6
    assert np.max(np.abs(q_gf - 5.0)) < 5e-3
    # The squared-measurement feature bends the curve away from the prior.
    assert np.ptp(q_fgf) > 0.5

    stdout = capsys.readouterr().out
    assert "posterior stds:" in stdout


def test_kl_scores_decrease_with_order(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli_main(
        [
            "kl",
            "--model",
            "noise_magnitude",
            "--out",
            str(out),
            "--grid-n",
            "301",
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    for order in (1, 2, 3):
        assert f"order {order}: kl=" in stdout

    lines = _read_lines(out / "kl_noise_magnitude.csv")
    assert lines[0] == "model,order,kl"
    assert len(lines) == 4
    kls = [float(line.split(",")[2]) for line in lines[1:]]
    assert kls[0] >= kls[1] - 1e-9
    assert kls[1] >= kls[2] - 1e-9


def test_density_writer_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(3)
    xg, yg = Grid1D(-1.0, 2.5, 7), Grid1D(-3e-5, 40.0, 4)
    mass = rng.uniform(size=(7, 4))
    mass[2, 1] = 0.0
    mass[4, 3] = 5e-324
    joint = GridDensity2D(xg, yg, mass / (mass.sum() * xg.spacing * yg.spacing))
    gf = rng.standard_normal(4) * 1e-20
    fgf = -rng.uniform(size=4) * 1e17
    path = tmp_path / "fast.csv"
    _write_density_csv(path, joint, gf, fgf)

    ref = tmp_path / "ref.csv"
    with open(ref, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y", "x", "p", "q_gf", "q_fgf"])
        for j in range(yg.n):
            for i in range(xg.n):
                writer.writerow(
                    [
                        repr(float(yg.values[j])),
                        repr(float(xg.values[i])),
                        repr(float(joint.mass[i, j])),
                        repr(float(gf[j])),
                        repr(float(fgf[j])),
                    ]
                )
    assert path.read_bytes() == ref.read_bytes()


def test_density_with_both_ranges_skips_the_auto_grids(tmp_path, monkeypatch, capsys):
    def density_bytes(name):
        out = tmp_path / name
        argv = ["density", "--model", "noise_magnitude", "--grid-n", "41"]
        ranges = ["--x-range", "0.5,9.5", "--y-range=-25,25"]
        assert cli_main([*argv, *ranges, "--out", str(out)]) == 0
        return (out / "density_noise_magnitude.csv").read_bytes()

    expected = density_bytes("auto")

    def no_auto_grids(*args, **kwargs):
        raise AssertionError("default_grids called although both ranges are given")

    monkeypatch.setattr("fgfilter.cli.default_grids", no_auto_grids)
    assert density_bytes("explicit") == expected
    capsys.readouterr()


def test_density_with_only_a_y_range_takes_x_from_the_prior(tmp_path, monkeypatch, capsys):
    def density_bytes(name, *ranges):
        out = tmp_path / name
        argv = ["density", "--model", "noise_magnitude", "--grid-n", "41"]
        assert cli_main([*argv, *ranges, "--y-range=-25,25", "--out", str(out)]) == 0
        return (out / "density_noise_magnitude.csv").read_bytes()

    # The prior N(5, 1) at the default span of 6 standard deviations.
    expected = density_bytes("explicit", "--x-range=-1,11")

    def no_auto_grids(*args, **kwargs):
        raise AssertionError("default_grids called although the y range is given")

    monkeypatch.setattr("fgfilter.cli.default_grids", no_auto_grids)
    assert density_bytes("prior") == expected
    capsys.readouterr()


def test_grids_use_the_config_seed(tmp_path, capsys):
    def kl_bytes(name, *extra):
        out = tmp_path / name
        argv = ["kl", "--model", "noise_magnitude", "--grid-n", "201"]
        assert cli_main([*argv, "--out", str(out), *extra]) == 0
        return (out / "kl_noise_magnitude.csv").read_bytes()

    cfg = _write_config(tmp_path, "run.seed = 5\n")
    from_config = kl_bytes("cfg", "--config", str(cfg))
    assert from_config == kl_bytes("flag", "--seed", "5")
    # the seed moves the Monte Carlo y grid, so seed 0 scores differ
    assert from_config != kl_bytes("zero", "--seed", "0")
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_unknown_flag_exits_one(capsys):
    assert cli_main(["simulate", "--bogus"]) == 1
    capsys.readouterr()


def test_missing_model_exits_one(capsys):
    assert cli_main(["simulate", "--steps", "5"]) == 1
    assert "no model selected" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = cli_main(["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    capsys.readouterr()


def test_unknown_config_key_exits_one(tmp_path, capsys):
    # feature.kind was once accepted but never used, so it is unknown now
    for line in ("run.bogus = 1", "feature.kind = affine"):
        cfg = _write_config(tmp_path, f"model.name = heaviside\n{line}\n")
        assert cli_main(["simulate", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err


def test_numerical_failure_exits_two(tmp_path, capsys):
    # Every value is valid, but a magnitude near the largest float makes
    # the simulated measurement m * w overflow within a few dozen steps.
    # simulate screens and reports that itself, so numpy stays silent.
    cfg = _write_config(
        tmp_path, "model.name = noise_magnitude\nmodel.prior_mean = 1e308\n"
    )
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        rc = cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert rc == 2
    assert "numerical failure: non-finite measurement" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, line",
    [
        ("simulate", "run.steps = abc"),
        ("simulate", "run.seeds = abc"),
        ("simulate", "run.seed = abc"),
        ("simulate", "run.orders = 1,abc"),
        ("simulate", "run.orders = 2,2"),
        ("simulate", "feature.standardize = maybe"),
        ("density", "feature.order = abc"),
        # engine keys that the selected kind ignores
        ("simulate", "engine.samples = 500\nengine.kind = sigma_point"),
        ("simulate", "engine.seed = 3\nengine.kind = sigma_point"),
        ("simulate", "engine.kappa = 1\nengine.kind = monte_carlo"),
        ("simulate", "engine.nodes = 4\nengine.kind = monte_carlo"),
        ("simulate", "engine.samples = 500\nengine.kind = gauss_hermite"),
        ("simulate", "engine.kappa = 1\nengine.kind = gauss_hermite"),
        # model values that parse but that no model can take
        ("simulate", "model.prior_var = -1"),
        ("simulate", "model.prior_var = nan"),
        ("simulate", "model.prior_mean = inf"),
        ("simulate", "model.noise_scale = nan"),
    ],
)
def test_bad_config_value_names_its_key(tmp_path, capsys, command, line):
    cfg = _write_config(tmp_path, f"model.name = noise_magnitude\n{line}\n")
    rc = cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    key = line.split("=")[0].strip()
    assert f"config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, line",
    [
        ("simulate", "feature.order = 7"),
        *[
            (command, line)
            for command in ("density", "kl")
            for line in (
                "engine.kind = sigma_point",
                "engine.samples = 300",
                "engine.seed = 3",
                "feature.standardize = yes",
                "run.steps = 10",
                "run.seeds = 3",
            )
        ],
        ("density", "run.orders = 1,2"),
        ("kl", "feature.order = 2"),
    ],
)
def test_config_key_the_subcommand_ignores_exits_one(tmp_path, capsys, command, line):
    cfg = _write_config(tmp_path, f"model.name = noise_magnitude\n{line}\n")
    out = tmp_path / "o"
    rc = cli_main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    key = line.split("=")[0].strip()
    assert f"config key {key!r} does not apply to subcommand {command!r}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, line",
    [("heaviside", "model.noise_scale = 7"), ("noise_magnitude", "model.step_height = 7")],
)
def test_model_key_of_the_other_model_exits_one(tmp_path, capsys, name, line):
    cfg = _write_config(tmp_path, f"model.name = {name}\n{line}\n")
    rc = cli_main(["simulate", "--config", str(cfg), "--steps", "3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert line.split("=")[0].strip() in err and name in err


def test_simulate_passes_only_the_options_that_are_set(tmp_path, monkeypatch, capsys):
    seen = []

    def fake_batch(model_name, **kwargs):
        seen.append(kwargs)
        raise ValueError("stop")

    monkeypatch.setattr("fgfilter.cli.run_experiment_batch", fake_batch)
    bare = _write_config(tmp_path, "model.name = heaviside\n")
    assert cli_main(["simulate", "--config", str(bare)]) == 1
    set_ = _write_config(
        tmp_path,
        "model.name = heaviside\nmodel.prior_var = 2\nfeature.standardize = no\n",
    )
    assert cli_main(["simulate", "--config", str(set_)]) == 1
    capsys.readouterr()
    assert not {"prior_mean", "prior_var", "step_height", "standardize"} & set(seen[0])
    assert seen[1]["prior_var"] == 2.0 and seen[1]["standardize"] is False


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_each_built_in_runs_from_the_table(tmp_path, capsys, name):
    entry = EXPERIMENTS[name]
    # Every factory parameter is a model.* key, here set to its default.
    params = inspect.signature(entry.factory).parameters.values()
    lines = "".join(f"model.{p.name} = {p.default}\n" for p in params)
    cfg = _write_config(tmp_path, f"model.name = {name}\n{lines}")
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg), "--steps", "3", "--out", str(out)]) == 0
    written = sorted(path.name for path in out.iterdir())
    assert written == [f"report_{name}_{entry.order}.csv", "summary.csv"]
    with open(out / "summary.csv", encoding="utf-8") as fh:
        assert {int(row["order"]) for row in csv.DictReader(fh)} == {1, entry.order}
    capsys.readouterr()


def test_too_few_sigma_points_for_the_cubic_exits_one(tmp_path, capsys):
    # With kappa = 0 the centre weight is 0, so the cubic's four outputs
    # would interpolate the four positively weighted points.
    text = "model.name = heaviside\nengine.kind = sigma_point\n"
    argv = ["simulate", "--steps", "3", "--out", str(tmp_path / "o")]
    cfg = _write_config(tmp_path, text)
    assert cli_main([*argv, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "sigma_point engine has 4 positively weighted points" in err
    assert "4 outputs" in err
    assert not (tmp_path / "o").exists()
    cfg = _write_config(tmp_path, text + "engine.kappa = 1\n")
    assert cli_main([*argv, "--config", str(cfg)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag, line", [(["--order", "0"], ""), ([], "feature.order = 0\n")])
def test_density_checks_the_order_before_the_grid_work(
    tmp_path, monkeypatch, capsys, flag, line
):
    calls = []
    monkeypatch.setattr("fgfilter.cli.joint_density_grid", lambda *a, **k: calls.append(a))
    cfg = _write_config(tmp_path, f"model.name = heaviside\n{line}")
    argv = ["density", "--config", str(cfg), *flag, "--grid-n", "21"]
    assert cli_main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert not calls
    assert "order must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_engine_seed_exits_one_before_filtering(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("fgfilter.cli.run_experiment_batch", lambda *a, **k: calls.append(a))
    cfg = _write_config(tmp_path, "model.name = heaviside\nengine.seed = -1\n")
    out = tmp_path / "o"
    assert cli_main(["simulate", "--config", str(cfg), "--steps", "3", "--out", str(out)]) == 1
    assert not calls and not out.exists()
    assert "seed must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, message",
    [("1", "--x-range must be 'lo,hi', got '1'"), ("1,b", "--x-range must be numeric 'lo,hi'")],
)
def test_parse_range_names_the_flag(raw, message):
    with pytest.raises(ValueError, match=message):
        _parse_range(raw, "--x-range")


@pytest.mark.parametrize(
    "argv, line, message",
    [
        (["density", "--seed", "-1"], "", "seed must be at least 0, got -1"),
        (["kl"], "run.seed = -2\n", "seed must be at least 0, got -2"),
        (
            ["simulate", "--seed", "-1", "--steps", "3"],
            "engine.seed = 0\n",
            "base_seed must be at least 0, got -1",
        ),
    ],
    ids=["density", "kl", "simulate"],
)
def test_negative_seed_exits_one_naming_it(tmp_path, capsys, argv, line, message):
    cfg = _write_config(tmp_path, f"model.name = heaviside\n{line}")
    out = tmp_path / "o"
    assert cli_main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
