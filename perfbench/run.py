"""Benchmark of kvhsim's time to a verdict, its accuracy headroom and memory.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: each iteration of a workload starts a fresh Python
process (`worker.py`) that calls `kvhsim.cli.main` for every run of the
workload, as a `kvhsim run` user would, then reads the artifacts back and
checks them. Before each iteration one more fresh process only sets up, so
set-up samples spread over the run. Cycles of the two repeat until the next
one would overrun `--seconds`.

With `--trace 0` the last line of standard output is one JSON object with the
end-to-end metrics: medians over the run's iterations, and over all its
fresh-process set-ups for `setup_s`. With `--trace 1` one untraced and one
traced iteration run, and the object holds the per-layer metrics of the
traced one and `trace.overhead_s`, the traced minus the untraced `verdict_s`.
The lines before it record the environment and the effective time steps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads
from worker import NO_VALUE_HEADROOM

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0   # a run must end within 180 s
# One BLAS thread: a second one spins while it waits for the first, and the
# CPU time of that spinning follows the host's load, not the program's work.
BLAS_THREADS = 1


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def prepare(runs, seed, label: str) -> Path:
    """Directory for one worker, with the plan and one INI file per run."""
    work = WORK / f"{os.getpid()}-{label}"
    work.mkdir(parents=True)
    for i, run in enumerate(runs):
        (work / f"run{i}.ini").write_text(workloads.ini_text(run, seed, f"out{i}"))
    (work / "plan.json").write_text(json.dumps({"seed": seed, "runs": runs}))
    return work


def spawn(work: Path, deadline: float, *flags) -> dict | None:
    """Run the worker in a fresh process; its result, or None if it failed."""
    env = worker_env()
    env["KVHSIM_OUTPUT_ROOT"] = str(work)
    cmd = [sys.executable, str(HERE / "worker.py"), str(work), *flags]
    proc = subprocess.Popen(cmd, env=env, cwd=work, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded the time limit: {' '.join(flags)}", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        print(f"perfbench: worker exited with {code}", file=sys.stderr)
        return None
    return json.loads((work / "result.json").read_text())


def failed_iteration(runs) -> dict:
    """A worker that crashed or timed out fails every check of every run."""
    names = [n for run in runs for c in run["run"]["checks"] for n in workloads.RESULTS[c]]
    return {"errors": ["worker failed"],
            "results": [{"name": n, "passed": False, "headroom": NO_VALUE_HEADROOM} for n in names]}


def in_fresh_process(runs, seed, deadline, label, *flags, trace_to=None) -> dict | None:
    """One worker in its own directory; with `trace_to`, traced, spans saved there."""
    work = prepare(runs, seed, label)
    try:
        result = spawn(work, deadline, *flags, *(["--trace"] if trace_to else []))
        if trace_to and result is not None:
            trace_to.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(work / "spans.json"), trace_to)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def cache_sizes() -> dict:
    """Cache sizes per level, read from sysfs (read only)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "type").read_text().strip() in ("Unified", "Data"):
                out[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def git_commit() -> str:
    """Commit of the checkout; git does not look above it for a repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(worker_env_record: dict, seed: int, runs) -> dict:
    nodes = max(r["grid"]["n_q"] * r["grid"]["n_p"] for r in runs)
    working_set = {"field_bytes": 16 * nodes}
    if any(c in ("vonneumann", "sigma-defect") for r in runs for c in r["run"]["checks"]):
        working_set["kernel_bytes"] = 16 * nodes * nodes
    return {
        **worker_env_record,
        "blas_threads": BLAS_THREADS,
        "nproc": nproc(),
        "caches": cache_sizes(),
        "commit": git_commit(),
        "seed": seed,
        "working_set": working_set,
        "note": "the working sets fit in cache; byte counts are computed from "
                "array sizes, not measured bandwidth; setup_s and verdict_s are "
                "CPU seconds",
    }


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def end_to_end(setups, iterations) -> dict:
    rows = [r for it in iterations for r in it["results"]]
    timed = [it for it in iterations if "verdict_s" in it]
    return {
        "setup_s": (median(setups), "s"),
        "verdict_s": (median(it["verdict_s"] for it in timed), "s"),
        "check_pass_share": (sum(r["passed"] for r in rows) / len(rows), "ratio"),
        "min_headroom_digits": (median(min(r["headroom"] for r in it["results"])
                                       for it in iterations), "decades"),
        "peak_rss_mb": (median(it["peak_rss_mb"] for it in timed), "MB"),
    }


def per_layer(untraced, traced) -> dict:
    """Layer metrics of the traced iteration, the headroom of every check
    result (0 for one the workload does not produce), and the tracing cost."""
    values = dict(traced.get("layers", {}))
    headrooms = {}
    for r in traced["results"]:
        headrooms[r["name"]] = min(headrooms.get(r["name"], math.inf), r["headroom"])
    for name in workloads.RESULT_NAMES:
        values[f"cli.result.{name}.headroom_digits"] = headrooms.get(name, 0.0)
    values["trace.overhead_s"] = (traced.get("verdict_s", math.nan)
                                  - untraced.get("verdict_s", math.nan))
    return {name: (value, tracer.unit(name)) for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kvhsim" / "cli.py").is_file():
        print(f"perfbench: no kvhsim sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2

    start = now()
    deadline = start + HARD_LIMIT_S
    runs = workloads.plan(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)

    setups, errors, iterations = [], [], []

    def iteration(label, trace_to=None):
        return (in_fresh_process(runs, args.seed, deadline, label, trace_to=trace_to)
                or failed_iteration(runs))

    if args.trace:
        iterations.append(iteration("untraced"))
        spans = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        iterations.append(iteration("traced", spans))
    else:
        # untimed warm-up: byte-code caches and the page cache fill once, as
        # for any CLI user after the first run
        in_fresh_process(runs, args.seed, deadline, "warm-up", "--setup-only")
        measure_start = now()
        while True:
            cycle_start = now()
            k = len(iterations)
            result = in_fresh_process(runs, args.seed, deadline, f"setup{k}", "--setup-only")
            if result is None:
                errors.append("set-up failed")
            else:
                setups.append(result["setup_s"])
                errors += result["errors"]
            it = iteration(f"iteration{k}")
            iterations.append(it)
            t = now()
            cycle = t - cycle_start
            if (t - measure_start + cycle > args.seconds
                    or t + cycle > deadline or "verdict_s" not in it):
                break
    for it in iterations:
        errors += it["errors"]
        if "setup_s" in it:
            setups.append(it["setup_s"])

    record = next((it for it in iterations if "environment" in it), {})
    print(json.dumps({"environment": environment(record.get("environment", {}), args.seed, runs)}))
    print(json.dumps({"workload": args.workload, "runs": record.get("runs", []),
                      "iterations": len(iterations), "setup_samples": len(setups),
                      "verdict_s": [it.get("verdict_s") for it in iterations],
                      "setup_s": setups}))
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)

    rows = [r for it in iterations for r in it["results"]]
    attempted = len(rows)
    failed = sum(not r["passed"] for r in rows)
    if args.trace:
        metrics = per_layer(iterations[0], iterations[1])
    else:
        metrics = end_to_end(setups, iterations)
        print(f"check_failure_share = {failed / attempted:.6g} ratio ({failed} of {attempted})")
        wall = median(it["verdict_wall_s"] for it in iterations if "verdict_wall_s" in it)
        print(f"verdict wall time = {wall:.6g} s (median; not a gated metric)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
