"""Tests of the benchmark itself: output contract, tracer arithmetic, absent targets.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.tracer import NO_PARENT, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_catalogues_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in lines[:-1]
        ), metric["name"]


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run("noise_mc", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10]; children [1, 3] and [2, 5] overlap, [6, 7] has a
    # grandchild [6.2, 6.5], and [9, 12] sticks out past the root.
    starts = [0.0, 1.0, 2.0, 6.0, 6.2, 9.0]
    ends = [10.0, 3.0, 5.0, 7.0, 6.5, 12.0]
    parents = [NO_PARENT, 0, 0, 0, 3, 0]
    got = self_times(starts, ends, parents)
    expected = [10.0 - 4.0 - 1.0 - 1.0, 2.0, 3.0, 1.0 - 0.3, 0.3, 3.0]
    assert got == pytest.approx(expected)


def test_spans_record_parent_trace_and_failures():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_t = tracer.timed("inner", inner, failed=lambda t: t.counts.__setitem__("bad", 1))
    outer_t = tracer.timed("outer", lambda x: inner_t(x) + 1)
    tracer.trace_id = "a"
    assert outer_t(1) == 2
    with pytest.raises(ValueError):
        inner_t(-1)
    assert tracer.names == ["outer", "inner", "inner"]
    assert tracer.parents == [NO_PARENT, 0, NO_PARENT]
    assert tracer.traces == ["a", "a", "a"]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))
    assert tracer.counts["bad"] == 1


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    import fgfilter.filters as filters
    import fgfilter.experiments as experiments

    tracer = Tracer()
    assert not tracer.wrap("fgfilter.filters:no_such_function", "x")
    assert not tracer.wrap("no_such_module:anything", "x")
    assert not tracer.wrap("fgfilter.experiments:_EXPERIMENTS[no_such_model]", "x")
    assert tracer.absent == [
        "fgfilter.filters:no_such_function",
        "no_such_module:anything",
        "fgfilter.experiments:_EXPERIMENTS[no_such_model]",
    ]

    # A later refactor deletes internals the layer map names; the noise
    # experiment (no standardization) still runs without them.
    monkeypatch.delattr(filters, "_measurement_scale")
    monkeypatch.delattr(filters, "standardize_feature")
    original_predict = filters.predict
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert filters.predict is not original_predict
        assert "fgfilter.filters:_measurement_scale" in tracer.absent
        assert "fgfilter.filters:standardize_feature" in tracer.absent
        report = experiments.run_noise_experiment(steps=5, seed=0, orders=(2,))
    finally:
        tracer.restore()
    assert filters.predict is original_predict
    assert report.diverged_at == {1: None, 2: None}
    values = layers.layer_metrics(tracer, 0, len(tracer.names), dict(tracer.counts))
    assert values["filters.standardize.calls"] == 0
    assert values["filters.predict.calls"] == 10
    assert values["quadrature.point_sets.calls"] == 20
    assert tracer.counts["trace.hook_errors"] == 0
