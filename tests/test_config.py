"""Tests for the key = value config format and its typed accessors."""

import pytest

from fgfilter import run_heaviside_experiment
from fgfilter.config import (
    engine_from_config,
    load_config,
    parse_config_text,
    parse_orders,
)
from fgfilter.quadrature import DEFAULT_SAMPLE_COUNT


def test_parse_config_text_basics():
    cfg = parse_config_text(
        """
        # a comment
        model.name = heaviside
        run.steps = 250   # trailing comment
        run.steps = 300
        """
    )
    assert cfg == {"model.name": "heaviside", "run.steps": "300"}


def test_parse_config_text_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("model.name heaviside")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("model.nmae = heaviside")
    with pytest.raises(ValueError, match="empty value"):
        parse_config_text("run.steps =")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("model.name = noise_magnitude\nrun.seed = 7\n")
    assert load_config(path)["run.seed"] == "7"


def test_parse_orders():
    assert parse_orders("1,2,3") == (1, 2, 3)
    assert parse_orders(" 2 ") == (2,)
    with pytest.raises(ValueError):
        parse_orders("1,a")
    with pytest.raises(ValueError):
        parse_orders("0,1")
    with pytest.raises(ValueError, match="order 2 is listed twice"):
        parse_orders("2,2")
    with pytest.raises(ValueError, match="order 1 is listed twice"):
        parse_orders("1,3,1")


def test_engine_from_config():
    assert engine_from_config({}) is None
    eng = engine_from_config({"engine.kind": "monte_carlo", "engine.samples": "500"})
    assert eng.kind == "monte_carlo" and eng.sample_count == 500
    eng = engine_from_config({"engine.kind": "sigma_point", "engine.kappa": "1.5"})
    assert eng.kind == "sigma_point" and eng.kappa == 1.5
    eng = engine_from_config({"engine.kind": "gauss_hermite", "engine.nodes": "4"})
    assert eng.kind == "gauss_hermite" and eng.nodes == 4
    assert engine_from_config({"engine.kind": "gauss_hermite"}).nodes == 3
    with pytest.raises(ValueError, match="nodes must be at least 2"):
        engine_from_config({"engine.kind": "gauss_hermite", "engine.nodes": "1"})
    with pytest.raises(ValueError):
        engine_from_config({"engine.kind": "quasi_random"})
    # Keys that the selected kind would ignore are rejected, naming both.
    for kind, key in [
        ("sigma_point", "engine.samples"),
        ("sigma_point", "engine.seed"),
        ("monte_carlo", "engine.kappa"),
        ("monte_carlo", "engine.nodes"),
        ("sigma_point", "engine.nodes"),
        ("gauss_hermite", "engine.samples"),
        ("gauss_hermite", "engine.seed"),
        ("gauss_hermite", "engine.kappa"),
    ]:
        with pytest.raises(ValueError, match=f"'{key}'.*'{kind}'"):
            engine_from_config({"engine.kind": kind, key: "3"})
    with pytest.raises(ValueError, match="'engine.kappa'.*'monte_carlo'"):
        engine_from_config({"engine.kappa": "1.5"})


def test_engine_draw_default_is_shared():
    # A config that sets engine keys but no draw count gets the same
    # count as an experiment run without an engine (heaviside's default
    # engine is Monte Carlo).
    eng = engine_from_config({"engine.seed": "3"})
    report = run_heaviside_experiment(steps=3, seed=0)
    assert eng.sample_count == report.engine.sample_count == DEFAULT_SAMPLE_COUNT
