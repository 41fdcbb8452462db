"""Self-tests of the benchmark: `python3 -m pytest perfbench`."""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run as bench
import tracer
import workloads
import worker

sys.path.insert(0, str(bench.ROOT / "src"))

from kvhsim import cli  # noqa: E402

SMALL_HARMONIC = ["unitarity", "energy", "characteristics", "commutators"]


def small_runs(**tolerances):
    return [
        workloads.make_run("harmonic-kvh", SMALL_HARMONIC, 64, 0.05, compare=True,
                           tolerances=tolerances),
        workloads.make_run("free-kvh", ["unitarity", "energy"], 64, 0.03, compare=True,
                           tolerances=tolerances),
    ]


def run_iteration(runs, index, traced=False, tmp_path=None):
    spans = tmp_path / f"spans{index}.json" if traced else None
    deadline = time.clock_gettime(time.CLOCK_MONOTONIC) + 120
    return bench.in_fresh_process(runs, 7, deadline, f"test{index}", trace_to=spans)


# -- self time arithmetic ---------------------------------------------------

def test_covered_length_merges_overlaps_and_clips():
    assert tracer.covered_length([], 0.0, 10.0) == 0.0
    assert tracer.covered_length([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == 5.0
    assert tracer.covered_length([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0


def test_summarize_self_time_and_recursion():
    S = tracer
    spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 5.0, 9.0, 0, 0],
        ["a", 6.0, 7.0, 3, 0],    # recursive call of a: not counted twice inclusive
        ["outer", 20.0, 21.0, -1, 1],
    ]
    stats = S.summarize(spans)
    assert stats["outer"] == {"calls": 2, "s": 11.0, "self_s": (10.0 - 7.0) + 1.0}
    assert stats["a"] == {"calls": 3, "s": 7.0, "self_s": (3.0 - 1.0) + (4.0 - 1.0) + 1.0}
    assert stats["b"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert S.summarize(spans, request=1)["outer"]["calls"] == 1


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("inner", lambda x: x + 1, count=lambda a, out: {"inner.points": a["x"]})
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    t.request = 3
    assert outer(4) == 10
    assert [s[:4] for s in t.spans] == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]
    assert t.totals() == {"inner.points": 4} and t.totals(3) == {"inner.points": 4}


# -- wrapping ----------------------------------------------------------------

def test_install_replaces_every_binding_and_restores():
    for name in ("kvh", "liouville", "madelung", "contact", "vonneumann", "qhd", "fieldio", "cli"):
        importlib.import_module(f"kvhsim.{name}")
    originals = [getattr(importlib.import_module(f"kvhsim.{m}"), f) for m, f, _, _ in tracer.FUNCTIONS]
    originals += [getattr(importlib.import_module(f"kvhsim.{m}"), f) for m, f, _ in tracer.COUNTED]
    checks = dict(cli.CHECKS)
    restore = tracer.install(tracer.Tracer())
    try:
        for mod in tracer.kvhsim_modules():
            for attr, value in vars(mod).items():
                assert not any(value is o for o in originals), f"{mod.__name__}.{attr} not wrapped"
        assert all(cli.CHECKS[c] is not fn for c, fn in checks.items())
    finally:
        restore()
    from kvhsim import contact, hamiltonian
    assert contact.flow_with_action is hamiltonian.flow_with_action
    assert hamiltonian.flow_with_action in originals
    assert cli.CHECKS == checks


def test_flow_node_steps_come_from_the_steps_taken():
    from kvhsim import hamiltonian

    H = hamiltonian.scenario_hamiltonian("harmonic")
    q0 = np.linspace(-1.0, 1.0, 10)
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        hamiltonian.flow_map(H, 0.0095, (q0, np.zeros_like(q0)), dt=1e-3)
        hamiltonian.flow_with_action(H, 0.0, q0, q0)
    finally:
        restore()
    metrics = tracer.layer_metrics(t)
    assert metrics["hamiltonian.flow.calls"] == 2
    assert metrics["hamiltonian.flow.node_steps"] == 10 * 10   # ceil(0.0095 / 1e-3) steps
    assert t.totals()["hamiltonian.flow.nodes"] == 20


def test_per_layer_names_and_units_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    traced = {"verdict_s": 2.0, "results": [], "layers": tracer.layer_metrics(tracer.Tracer())}
    produced = bench.per_layer({"verdict_s": 1.0}, traced)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in produced.items()}
    assert produced["trace.overhead_s"][0] == 1.0


# -- workload pinning --------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_run_resolves_to_the_requested_values(tmp_path, name):
    for i, run in enumerate(workloads.plan(name, 5)):
        ini = tmp_path / f"run{i}.ini"
        ini.write_text(workloads.ini_text(run, 5, f"out{i}"))
        assert worker.resolve(cli, run, ini, 5) == []


def test_pin_detects_the_default_overwrite(tmp_path):
    # t_final = 1.0 equals the RunConfig default, so the CLI replaces it
    # with the harmonic scenario's 2 pi; the pin must notice
    run = workloads.make_run("harmonic-kvh", ["unitarity"], 32, 1.0)
    ini = tmp_path / "run.ini"
    ini.write_text(workloads.ini_text(run, 0, "out"))
    assert any("t_final" in e for e in worker.resolve(cli, run, ini, 0))


def test_seed_orders_runs_only():
    a, b = workloads.plan("kvh-period", 1), workloads.plan("kvh-period", 2)
    key = lambda r: r["name"]
    assert sorted(a, key=key) == sorted(b, key=key)
    assert [r["name"] for r in a] != [r["name"] for r in b]


# -- end to end ---------------------------------------------------------------

def test_traced_counts_repeat_and_match_the_derivative_identity(tmp_path):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] in ("count", "B", "GFLOP", "ratio") and m["name"] in tracer.layer_metrics(tracer.Tracer())]
    first = run_iteration(small_runs(), 0, traced=True, tmp_path=tmp_path)
    second = run_iteration(small_runs(), 1, traced=True, tmp_path=tmp_path)
    assert first["errors"] == [] and second["errors"] == []
    assert {k: first["layers"][k] for k in counts} == {k: second["layers"][k] for k in counts}
    harmonic = first["run_counts"][0]
    assert harmonic["evolve_steps"] == 50
    assert harmonic["fft_deriv_calls"] == 8 * 50 + 34
    assert first["layers"]["fieldio.save.calls"] == 4
    assert first["layers"]["fieldio.load.calls"] == 8   # compare, then the geometry read-back
    spans = json.loads((tmp_path / "spans0.json").read_text())
    assert {s[tracer.NAME] for s in spans} >= {"cli.run", "cli.compare", "kvh.evolve"}


def test_impossible_tolerance_counts_failures_without_crashing():
    result = run_iteration(small_runs(norm_drift=0.0), 2)
    failed = [r["name"] for r in result["results"] if not r["passed"]]
    assert failed == ["norm_drift", "norm_drift"]
    assert result["errors"] == []
    assert 0 < len(failed) / len(result["results"]) < 1
    assert all(math.isfinite(r["headroom"]) for r in result["results"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kvh-period", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
