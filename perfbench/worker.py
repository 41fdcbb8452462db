"""One workload iteration in a fresh process, as a `kvhsim run` user pays it.

    python3 worker.py ITERATION_DIR [--setup-only] [--trace]

ITERATION_DIR holds `plan.json` and one INI file per run, written by
`run.py`; the worker writes `result.json` there. `setup_s` is the CPU time
this process has used once `kvhsim` is imported and every config is loaded
and resolved, interpreter start-up included. The worker then calls
`kvhsim.cli.main` for each run and for the `compare` read-backs, and checks
every artifact it reads back; `verdict_s` is the CPU time that takes.

Times are CPU seconds (user and system, all threads) rather than wall
seconds: on a shared virtual machine the time the host gives to other guests
(steal) lengthens wall time, and a guest kernel that accounts steal apart
leaves it out of CPU time. The wall time of the verdict is recorded next to
it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu() -> float:
    """CPU seconds of this process since it started, over all its threads."""
    return time.process_time()


EPS = 2.0**-52  # a value below double-precision epsilon is round-off
NO_VALUE_HEADROOM = -16.0  # headroom of a result that was not produced


def headroom(value: float, tol: float) -> float:
    """Decades between a check's value and its tolerance."""
    if not (math.isfinite(value) and math.isfinite(tol) and tol > 0):
        return NO_VALUE_HEADROOM
    return math.log10(tol / max(value, EPS))


def call_main(cli, argv):
    """kvhsim.cli.main(argv) -> (exit code or None after a crash, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, buf.getvalue()


def read_keyed(path: Path) -> dict:
    """`key = value` lines of a report or manifest."""
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def resolve(cli, run, ini, seed) -> list:
    """Load and resolve one config; mismatches against the plan, if any."""
    cfg = cli.apply_scenario_defaults(cli.load_config(str(ini)))
    wanted = {**run["run"], **run["grid"], "checks": tuple(run["run"]["checks"]), "seed": seed}
    return [f"{run['name']}: {key} resolves to {getattr(cfg, key)!r}, requested {value!r}"
            for key, value in wanted.items() if getattr(cfg, key) != value]


def score_run(run, code, report_path, workloads) -> tuple:
    """(per-result rows, errors) for one CLI run."""
    rows, errors = [], []
    expected = [name for check in run["run"]["checks"] for name in workloads.RESULTS[check]]
    report = {}
    if code in (0, 1):
        try:
            report = read_keyed(report_path)
        except OSError as exc:
            errors.append(f"{run['name']}: report unreadable: {exc}")
    else:
        errors.append(f"{run['name']}: kvhsim run exited with {code}")
    for name in expected:
        try:
            value = float(report[name])
            tol = float(report[f"{name}.tol"])
            passed = report[f"{name}.status"] == "pass" and value < tol
        except (KeyError, ValueError):
            rows.append({"name": name, "passed": False, "headroom": NO_VALUE_HEADROOM})
            continue
        rows.append({"name": name, "value": value, "tol": tol, "passed": passed,
                     "headroom": headroom(value, tol)})
    if report and (code == 0) != all(r["passed"] for r in rows):
        errors.append(f"{run['name']}: exit code {code} disagrees with the report")
    return rows, errors


def check_manifest(run, path, seed, workloads) -> list:
    try:
        manifest = read_keyed(path)
    except OSError as exc:
        return [f"{run['name']}: manifest unreadable: {exc}"]
    return [f"{run['name']}: manifest {key} = {manifest.get(key)!r}, requested {value!r}"
            for key, value in workloads.expected_manifest(run, seed).items()
            if manifest.get(key) != value]


def read_back(cli, run, outdir) -> list:
    """`kvhsim compare` of the run's two fields, and their reloaded grids."""
    from kvhsim.fieldio import load_field
    from kvhsim.grid import PhaseGrid

    name = run["name"]
    a, b = outdir / "psi_initial.kvhf", outdir / "psi_final.kvhf"
    code, out = call_main(cli, ["compare", str(a), str(b), "--norm", "l2"])
    errors = []
    try:
        norm = float(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        norm = math.nan
    if code != 0 or not math.isfinite(norm):
        errors.append(f"{name}: compare exited with {code} and printed {out.strip()!r}")
    g = run["grid"]
    requested = PhaseGrid(g["q_min"], g["q_max"], g["p_min"], g["p_max"], g["n_q"], g["n_p"],
                          run["run"]["bc"])
    for path in (a, b):
        try:
            same = load_field(str(path)).grid.same_geometry(requested)
        except Exception as exc:  # any failure to reload is a read-back error
            errors.append(f"{name}: {path.name} does not reload: {exc}")
            continue
        if not same:
            errors.append(f"{name}: {path.name} reloads on another grid")
    return errors


# Derivative calls of the harmonic period run beyond the 8 per RK4 step:
# kvh_energy at the two snapshots (2 each) and the commutator check's
# 15 prequantum applications (2 each).
HARMONIC_CHECKS = {"unitarity", "energy", "characteristics", "commutators"}
HARMONIC_EXTRA_DERIVS = 34


def fft_identity_errors(runs, run_counts) -> list:
    """A traced harmonic period run must count 8 derivatives per step + 34.

    A wrapper that misses a re-imported binding, or counts a call twice,
    breaks the identity.
    """
    errors = []
    for run, counts in zip(runs, run_counts):
        if run["name"] == "harmonic-kvh" and set(run["run"]["checks"]) == HARMONIC_CHECKS:
            expected = 8 * counts["evolve_steps"] + HARMONIC_EXTRA_DERIVS
            if counts["fft_deriv_calls"] != expected:
                errors.append(f"harmonic-kvh: traced {counts['fft_deriv_calls']} spectral "
                              f"derivatives, expected {expected}")
    return errors


def environment() -> dict:
    import numpy
    import scipy

    env = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("iteration_dir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from kvhsim import cli
    from kvhsim.grid import time_steps

    import workloads

    work = args.iteration_dir
    plan = json.loads((work / "plan.json").read_text())
    seed = plan["seed"]
    errors = []
    for i, run in enumerate(plan["runs"]):
        try:
            errors += resolve(cli, run, work / f"run{i}.ini", seed)
        except (cli.ConfigError, ValueError) as exc:
            errors.append(f"{run['name']}: configuration error: {exc}")
    setup_s = cpu()
    result = {"setup_s": setup_s, "errors": errors}
    if args.setup_only:
        (work / "result.json").write_text(json.dumps(result))
        return 0

    tracer = restore = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        restore = tracing.install(tracer)

    def step(name, request, fn, *fn_args):
        """fn(*fn_args), inside a span of the given CLI invocation when traced."""
        if tracer is None:
            return fn(*fn_args)
        tracer.request = request
        return tracer.call(name, fn, *fn_args)

    codes = []
    t0, c0 = now(), cpu()
    for i, run in enumerate(plan["runs"]):
        argv = ["run", "--config", str(work / f"run{i}.ini"), "--seed", str(seed)]
        codes.append(step("cli.run", i, call_main, cli, argv)[0])
    rows = []
    for i, run in enumerate(plan["runs"]):
        outdir = work / f"out{i}"
        if run["compare"]:
            errors += step("cli.compare", i, read_back, cli, run, outdir)
        run_rows, run_errors = score_run(run, codes[i], outdir / "report", workloads)
        rows += run_rows
        errors += run_errors
        errors += check_manifest(run, outdir / "manifest.txt", seed, workloads)
    verdict_s, verdict_wall_s = cpu() - c0, now() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if restore:
        restore()
    runs = []
    for run in plan["runs"]:
        steps, dt_effective = time_steps(run["run"]["t_final"], run["run"]["dt"])
        runs.append({"name": run["name"], "checks": run["run"]["checks"],
                     "t_final": run["run"]["t_final"], "dt": run["run"]["dt"],
                     "steps": steps, "dt_effective": dt_effective})
    result.update(verdict_s=verdict_s, verdict_wall_s=verdict_wall_s,
                  peak_rss_mb=peak_rss_mb, results=rows,
                  environment=environment(), runs=runs)
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer)
        result["run_counts"] = [
            {"fft_deriv_calls": tracing.summarize(tracer.spans, i).get("grid.fft_deriv", {}).get("calls", 0),
             "evolve_steps": int(tracer.totals(i).get("kvh.evolve.steps", 0))}
            for i in range(len(plan["runs"]))]
        errors += fft_identity_errors(plan["runs"], result["run_counts"])
        (work / "spans.json").write_text(json.dumps(tracer.spans))
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
