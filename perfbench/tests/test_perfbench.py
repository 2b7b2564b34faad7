"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (first: puts the checkout's src/ on the path)
import run  # noqa: E402
import tracing  # noqa: E402
from polykahan import Polynomial, linalg, maps  # noqa: E402

TINY_DARBOUX = {k: workloads.Darboux.CASES[k] for k in ("lv_d3", "quartic_d6")}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads.Darboux, "CASES", TINY_DARBOUX)
    monkeypatch.setattr(workloads.Orbit, "STEPS", 60)
    monkeypatch.setattr(workloads.Orbit, "CHUNK", 20)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("name", ["darboux", "orbit", "report"])
def test_each_workload_runs_clean_at_a_tiny_size(tiny, name, capsys):
    result = run.run_untraced(workloads, name, seed=5, seconds=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mb", "pass_rel"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    out = capsys.readouterr().out
    assert "fail_rate = 0.0 ratio" in out


def _one_op(w: workloads.Workload, name: str) -> workloads.Op:
    return next(op for op in w.run_pass() if op.name == name)


def test_perturbed_certificate_is_a_failure(tiny):
    w = workloads.Darboux(1)
    w.setup()
    op = _one_op(w, "lv_d3")
    assert w.check(op) is None
    cert = op.result[0]
    cert.P = cert.P + Polynomial.const(1)
    assert "verify_darboux" in w.check(op)
    assert run._checked(w, [workloads.Op("lv_d3", result=op.result)])[0].error


def test_wrong_solution_dimension_is_a_failure(tiny):
    w = workloads.Darboux(1)
    w.setup()
    op = _one_op(w, "quartic_d6")
    op.result = op.result[:1]
    assert "solution dimension 1" in w.check(op)


def test_report_with_a_changed_dimension_line_is_a_failure():
    w = workloads.Report(2)
    w.setup()
    op = _one_op(w, "lv")
    rc, text = op.result
    tampered = text.replace(b"solution space dimension = 1", b"solution space dimension = 0")
    fresh = workloads.Report(2)
    fresh.setup()
    assert fresh.check(workloads.Op("lv", result=(rc, tampered))) is not None
    assert w.check(op) is None
    # A second repetition that differs from the first is caught too.
    assert "differs" in w.check(workloads.Op("lv", result=(rc, tampered)))


def test_report_keeps_beam_lag_singular_status_as_expected():
    w = workloads.Report(0)
    w.setup()
    op = _one_op(w, "beam-lag")
    assert b"status = singular-at-step 72" in op.result[1]
    assert w.check(op) is None


def test_large_orbit_residual_is_a_failure(tiny):
    w = workloads.Orbit(3)
    w.setup()
    op = _one_op(w, "lv")
    assert w.check(op) is None
    op.result["max_residual"] = 1e-6
    assert "residual" in w.check(op)


def test_traced_counts_repeat_exactly(tiny, capsys):
    first = run.run_traced(workloads, tracing, "darboux", seed=4)
    second = run.run_traced(workloads, tracing, "darboux", seed=4)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(tracing.LAYER_METRICS)
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        if unit != "s":
            assert first["metrics"][name] == second["metrics"][name], name
    m = first["metrics"]
    assert m["darboux.solution_dim"]["value"] == 3
    assert m["darboux.ansatz_size"]["value"] == 10 + 28
    assert m["darboux.certified_ratio"]["value"] == 1.0
    assert m["linalg.nullspace.calls"]["value"] == 2
    assert m["poly.mul.term_pairs"]["value"] > 0


def test_tracer_wraps_every_lookup_and_restores_them():
    targets = {name: owner.__dict__[attr] for name, (owner, attr) in tracing.TARGETS.items()}
    places = [
        (owner, attr)
        for owner in list(tracing.MODULES) + [Polynomial, maps.BirationalMap]
        for attr, value in vars(owner).items()
        if any(value is fn for fn in targets.values())
    ]
    assert (Polynomial, "__rmul__") in places
    assert (workloads.polykahan.darboux, "jacobian") in places
    with tracing.Tracer() as tracer:
        for owner, attr in places:
            assert all(getattr(owner, attr) is not fn for fn in targets.values())
        Polynomial.var(workloads.polykahan.x(1)) * 3
        linalg.det_poly([[Polynomial.const(2)]])
    for owner, attr in places:
        assert any(getattr(owner, attr) is fn for fn in targets.values())
    names = [span[0] for span in tracer.spans]
    assert names == ["poly.mul", "linalg.det"]
    assert tracer.counts["poly.mul.calls"] == 1


def test_self_time_excludes_children():
    t = tracing.Tracer()
    # parent 0..10 with 1 s of tracer bookkeeping inside; child 2..5
    t.spans = [["a", 0.0, 10.0, -1, None, 1.0], ["b", 2.0, 5.0, 0, None, 0.0]]
    assert t.self_times() == {"a": 6.0, "b": 3.0}


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
