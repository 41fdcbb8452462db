"""Workload definitions: which `kvhsim run` invocations make up each workload.

Every `[run]` and `[grid]` key is written out explicitly. `kvhsim` replaces
any value that equals its `RunConfig` default with the scenario's default, so
a key left implicit could silently change what is measured; the worker checks
each run's `manifest.txt` against the values requested here.

The seed only orders the runs of a workload. The scenario inputs stay fixed,
because each guarantee is stated at its settings, and the checks of a run keep
their order, so that the check which first builds the run's shared trajectory
is the same on every seed.
"""

from __future__ import annotations

import math
import random

# Share of each scenario's characteristic period that kvh-period integrates.
# The full periods cost about 95 s at 128x128; a tenth keeps every check at
# work and lets a run hold three iterations of about 9 s.
PERIOD_FRACTION = 0.1

# hydro-transport integrates a quarter period, where the harmonic flow maps the
# grid onto itself, so the naturality check has no interpolation error; at
# 0.08 of the period naturality_l1 exceeds its tolerance. Its madelung check
# integrates a 192x192 grid to t = 1 whatever the horizon, so the horizon sets
# little of its cost and the time step is coarser instead: at dt = 1e-3 an
# iteration takes about 25 s, at 2.5e-3 about 10 s.
HYDRO_FRACTION = 0.25
HYDRO_DT = 2.5e-3

# kernel-point-particle integrates 30 RK4 steps of the kernel instead of the
# 100 of its period (t = 0.5): each step is 8 dense 576x576 matmuls, about
# 0.25 s on one thread.
KERNEL_T_FINAL = 0.15

# Characteristic periods, as in the scenario table of `kvhsim.cli`.
PERIODS = {
    "free-kvh": 1.0,
    "harmonic-kvh": 2 * math.pi,
    "quartic-kvh": 9.270375,
    "pendulum-kvh": 6.699976,
}

# (q_min, q_max, p_min, p_max): each scenario keeps its own box.
BOXES = {
    "free-kvh": (-8.0, 8.0, -8.0, 8.0),
    "harmonic-kvh": (-8.0, 8.0, -8.0, 8.0),
    "quartic-kvh": (-3.0, 3.0, -3.0, 3.0),
    "pendulum-kvh": (-math.pi, math.pi, -6.0, 6.0),
    "point-particle": (-4.0, 4.0, -4.0, 4.0),
}

HAMILTONIANS = {
    "free-kvh": "free",
    "harmonic-kvh": "harmonic",
    "quartic-kvh": "quartic",
    "pendulum-kvh": "pendulum",
    "point-particle": "harmonic",
}

# Result names each check writes to the report, in the order it writes them.
# A run that crashes or leaves no readable report counts all of them as failed.
RESULTS = {
    "unitarity": ("norm_drift",),
    "energy": ("energy_drift",),
    "characteristics": ("oracle_l2",),
    "commutators": (
        "commutator_residual.q_p",
        "commutator_residual.harmonic_qp",
        "commutator_residual.free_q",
    ),
    "naturality": ("naturality_l1", "mass_drift"),
    "madelung": ("madelung_l2",),
    "transport": ("transport_residual",),
    "equivariance": ("equivariance_residual", "momap_equivariance_l1"),
    "vonneumann": ("vn_rank1_error", "vn_trace_drift", "vn_casimir_drift", "vn_eigenvalue_drift"),
    "sigma-defect": ("sigma_defect_rate", "centroid_cells"),
    "qhd": ("qhd_norm_drift", "qhd_continuity", "qhd_bohm"),
}

RESULT_NAMES = tuple(name for names in RESULTS.values() for name in names)


def make_run(scenario, checks, n, t_final, dt=1e-3, compare=False, tolerances=None):
    """One `kvhsim run` invocation with every [run] and [grid] key set."""
    q_min, q_max, p_min, p_max = BOXES[scenario]
    return {
        "name": scenario,
        "run": {
            "scenario": scenario,
            "hamiltonian": HAMILTONIANS[scenario],
            "bc": "periodic",
            "hbar": 1.0,
            "dt": dt,
            "t_final": t_final,
            "stride": 0,
            "checks": list(checks),
        },
        "grid": {
            "q_min": q_min, "q_max": q_max, "p_min": p_min, "p_max": p_max,
            "n_q": n, "n_p": n,
        },
        "tolerances": dict(tolerances or {}),
        "compare": compare,
    }


def _kvh_period():
    runs = []
    for scenario in ("free-kvh", "harmonic-kvh", "quartic-kvh", "pendulum-kvh"):
        checks = ["unitarity", "energy"]
        if scenario == "harmonic-kvh":
            checks += ["characteristics", "commutators"]
        t = PERIOD_FRACTION * PERIODS[scenario]
        runs.append(make_run(scenario, checks, 128, t, compare=True))
    return runs


def _hydro_transport():
    checks = ["madelung", "transport", "naturality", "equivariance", "qhd"]
    t = HYDRO_FRACTION * PERIODS["harmonic-kvh"]
    return [make_run("harmonic-kvh", checks, 64, t, dt=HYDRO_DT)]


def _kernel_point_particle():
    return [make_run("point-particle", ["vonneumann", "sigma-defect"], 24,
                     KERNEL_T_FINAL, dt=5e-3)]


WORKLOADS = {
    "kvh-period": _kvh_period,
    "hydro-transport": _hydro_transport,
    "kernel-point-particle": _kernel_point_particle,
}


def plan(workload: str, seed: int) -> list:
    """The runs of `workload`, in an order drawn from `seed`."""
    runs = WORKLOADS[workload]()
    random.Random(seed).shuffle(runs)
    return runs


def ini_text(run: dict, seed: int, outdir: str) -> str:
    """The INI configuration `kvhsim run --config` reads for one run."""
    r = run["run"]
    lines = ["[run]"]
    for key in ("scenario", "hamiltonian", "bc"):
        lines.append(f"{key} = {r[key]}")
    for key in ("hbar", "dt", "t_final"):
        lines.append(f"{key} = {float(r[key])!r}")
    lines.append(f"stride = {int(r['stride'])}")
    lines.append(f"seed = {int(seed)}")
    lines.append(f"outdir = {outdir}")
    lines.append(f"checks = {', '.join(r['checks'])}")
    lines.append("")
    lines.append("[grid]")
    g = run["grid"]
    for key in ("q_min", "q_max", "p_min", "p_max"):
        lines.append(f"{key} = {float(g[key])!r}")
    for key in ("n_q", "n_p"):
        lines.append(f"{key} = {int(g[key])}")
    if run["tolerances"]:
        lines.append("")
        lines.append("[tolerances]")
        for key, value in run["tolerances"].items():
            lines.append(f"{key} = {float(value)!r}")
    return "\n".join(lines) + "\n"


def expected_manifest(run: dict, seed: int) -> dict:
    """Manifest lines that must show the requested scenario, grid and horizon."""
    r, g = run["run"], run["grid"]
    return {
        "scenario": r["scenario"],
        "hamiltonian": r["hamiltonian"],
        "t_final": repr(float(r["t_final"])),
        "dt": repr(float(r["dt"])),
        "seed": str(int(seed)),
        "grid": (
            f"{g['n_q']}x{g['n_p']} [{float(g['q_min'])},{float(g['q_max'])}]"
            f"x[{float(g['p_min'])},{float(g['p_max'])}] {r['bc']}"
        ),
    }
