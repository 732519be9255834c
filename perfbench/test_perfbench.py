"""Self-tests of the benchmark, kept out of the repository's test suite.

    PYTHONDONTWRITEBYTECODE=1 python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs for one batch of ops, so the whole file takes well
under a minute.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SECONDS = 0.05


def run_workload(name, trace, monkeypatch, tmp_path, expected=None):
    if expected is not None:
        monkeypatch.setattr(workloads, "load_expected", lambda: expected)
    return workloads.WORKLOADS[name](name, 7, SECONDS, trace, tmp_path)


@pytest.mark.parametrize("name", ["queries", "engine"])
def test_smoke_run_reports_every_declared_metric(name, monkeypatch, tmp_path):
    result = run_workload(name, False, monkeypatch, tmp_path)
    assert result.attempted > 0 and result.failed == 0, result.notes
    assert set(result.metrics) == set(workloads.declared_units(False))
    assert all(v > 0 for v in result.metrics.values())


@pytest.mark.parametrize("slot,field,value", [
    ("verify", "sha256", "0" * 64),
    ("regions", "exit", 2),
    ("h_locus", "exit", 0),
    ("curve", "sha256", "0" * 64),
])
def test_tampered_expectation_counts_as_failure(slot, field, value, monkeypatch, tmp_path):
    expected = workloads.load_expected()
    expected["queries"][slot] = [dict(e, **{field: value}) for e in expected["queries"][slot]]
    result = run_workload("queries", False, monkeypatch, tmp_path, expected)
    assert result.failed > 0
    assert result.failed / result.attempted > 0


def test_traced_run_counts_root_locus_checks_per_grid_point(monkeypatch, tmp_path):
    result = run_workload("queries", True, monkeypatch, tmp_path)
    assert result.failed == 0, result.notes
    assert set(result.metrics) == set(workloads.declared_units(True))
    assert result.metrics["torus_rep.is_defined.calls_per_point.verify"] == 4.0
    assert result.metrics["torus_rep.is_defined.calls_per_point.regions"] == 2.0
    assert result.metrics["startup.numpy_loaded"] == 1.0
    assert result.metrics["trace.overhead_ratio"] > 0


def test_tracing_restores_bindings_and_nests_self_time():
    import linksig.cli

    modules = tracing._linksig_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    mul = linksig.su2.UnitQuaternion.__mul__
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        for mod in (linksig.verify, linksig.signature, linksig.pillowcase, linksig.cli):
            assert mod.is_defined.__wrapped__ is before[("linksig.torus_rep", "is_defined")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert linksig.cli.main(["verify", "--ell", "-3..3", "--res", "7"]) == 0
            assert linksig.cli.main(["curve", "--ell", "3", "--alpha", "1/3", "1/5",
                                     "--samples", "16"]) == 0
            assert linksig.cli.main(["h", "--ell", "3", "--alpha", "1/3", "1/3"]) == 2
    finally:
        restore()
    assert tracing.wrapped_names() == []
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before
    assert linksig.su2.UnitQuaternion.__mul__ is mul
    dump = tracer.dump()
    assert tracing.check_spans([dump]) == []
    spans = dump["spans"]
    assert {s[0] for s in spans} >= {"cli.main", "verify.sweep_main_identity",
                                     "pillowcase.sample_curve"}
    for s in spans:
        assert 0 <= s[4] <= s[2] - s[1]
        if s[3] >= 0:
            parent = spans[s[3]]
            assert parent[1] <= s[1] and s[2] <= parent[2]
    assert dump["aggs"]["torus_rep.is_defined"][0] > 0
    assert dump["counts"]["su2.qmul"] > 0


def test_check_spans_flags_children_longer_than_parent():
    dump = {"spans": [["p", 0, 10, -1, 2, {}], ["c", 1, 9, 0, 8, {}], ["d", 2, 8, 0, 6, {}]],
            "aggs": {}, "counts": {}}
    assert tracing.check_spans([dump])


def test_pace_scales_times_and_rates_but_not_memory():
    pace = workloads.Pace(lambda: None, nominal_s=0.5)
    pace.samples = [1.0, 1.0, 3.0]
    raw = {"setup_s": 2.0, "peak_rss_mb": 30.0, "items_per_s": 10.0,
           "op_p50_ms": 100.0, "op_p90_ms": 200.0}
    assert workloads.paced(raw, pace) == {"setup_s": 1.0, "peak_rss_mb": 30.0,
                                          "items_per_s": 20.0, "op_p50_ms": 50.0,
                                          "op_p90_ms": 100.0}
    assert raw["pace_slowness"] == 2.0
