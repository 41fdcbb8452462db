"""End-to-end verification suite.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints a single PASS/FAIL summary line (visible under
``pytest -s`` and in failure output). Runtimes are desk scale; the whole
file stays under five minutes.
"""

import filecmp
import functools

import numpy as np
import pytest

from kvhsim import cli
from kvhsim.cli import RunConfig, RunContext, apply_scenario_defaults
from kvhsim.hamiltonian import SCENARIO_NAMES
from kvhsim.madelung import classical_density
from kvhsim.vonneumann import (
    hydro_from_kernel,
    point_particle_kernel,
    sigma_defect,
)


def _report(label, triples):
    """Print one summary line for (name, value, bound) triples, then assert."""
    ok = all(v < t for _, v, t in triples)
    detail = ", ".join(f"{n}={v:.3e} (tol {t:.1e})" for n, v, t in triples)
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _from_results(label, results):
    _report(label, [(r.name, r.value, r.tol) for r in results])


@functools.cache
def _fine_context(scenario):
    """One 128x128 run context per scenario, at its own period and dt = 1e-3:
    test_01 and test_02 share the harmonic trajectory instead of solving it twice."""
    return RunContext(apply_scenario_defaults(RunConfig(scenario=scenario, n_q=128, n_p=128)))


def test_01_unitarity_and_energy_all_hamiltonians():
    # one characteristic period per scenario, 128x128, dt = 1e-3
    results = []
    for name in SCENARIO_NAMES:
        ctx = _fine_context(f"{name}-kvh")
        for r in cli.check_unitarity(ctx) + cli.check_energy(ctx):
            results.append(type(r)(f"{name}.{r.name}", r.value, r.tol))
    _from_results("conservation", results)


def test_02_characteristics_oracle_and_convergence_order():
    (main,) = cli.check_characteristics(_fine_context("harmonic-kvh"))

    # dt-halving study on the coarser grid, away from its interpolation floor
    errs = []
    for dt in (4e-3, 2e-3):
        c = apply_scenario_defaults(RunConfig(scenario="harmonic-kvh", dt=dt))
        errs.append(cli.check_characteristics(RunContext(c))[0].value)
    ratio = errs[0] / errs[1]
    _report(
        "oracle",
        [
            (main.name, main.value, main.tol),
            # 4th-order scheme: halving dt must shrink the error >= 12x,
            # encoded as 12/ratio < 1
            ("dt_halving_gain", 12.0 / ratio, 1.0),
        ],
    )


def test_03_commutator_algebra():
    cfg = apply_scenario_defaults(RunConfig(scenario="harmonic-kvh"))
    _from_results("commutators", cli.check_commutators(RunContext(cfg)))


def test_04_density_pushforward_naturality():
    # t = 1 on the fine grid; the pushforward path has a bicubic floor
    # that only clears the bound at 128 nodes per axis
    cfg = RunConfig(scenario="harmonic-kvh", t_final=1.0, n_q=128, n_p=128)
    _from_results("naturality", cli.check_naturality(RunContext(cfg)))


def test_05_madelung_equivalence_and_transport():
    cfg = apply_scenario_defaults(RunConfig(scenario="harmonic-kvh"))
    ctx = RunContext(cfg)
    _from_results(
        "madelung", cli.check_madelung(ctx) + cli.check_transport(ctx)
    )


def test_06_lifted_flow_equivariance():
    cfg = apply_scenario_defaults(RunConfig(scenario="harmonic-kvh"))
    _from_results("equivariance", cli.check_equivariance(RunContext(cfg)))


def test_07_kernel_rank1_consistency():
    cfg = apply_scenario_defaults(RunConfig(scenario="point-particle"))
    _from_results("vonneumann", cli.check_vonneumann(RunContext(cfg)))


def test_08_point_particle_structure_and_tracking():
    cfg = apply_scenario_defaults(RunConfig(scenario="point-particle"))
    ctx = RunContext(cfg)

    # static structure checks on the same cell-centered grid and density the
    # defect check uses: extracted sigma matches D * (p, 0) and the classical
    # density rebuilt from the hydrodynamic variables matches D
    g, density = cli._point_particle_setup(cfg)
    D = density(g.Q, g.P)
    theta0 = point_particle_kernel(g, density, 16.0)
    state0 = hydro_from_kernel(theta0)
    rho = classical_density(state0)
    rho_err = float(np.max(np.abs(rho.values - D)))

    triples = [
        ("sigma_structure", sigma_defect(state0), 1e-4),
        ("density_reconstruction", rho_err, 1e-5),
    ]
    for r in cli.check_sigma_defect(ctx):
        triples.append((r.name, r.value, r.tol))
    _report("point-particle", triples)


def test_09_hydrodynamic_demonstrator():
    cfg = apply_scenario_defaults(RunConfig(scenario="qhd-coherent"))
    _from_results("demonstrator", cli.check_qhd(RunContext(cfg)))


def test_10_bitwise_determinism(tmp_path):
    args = ["run", "--scenario", "free-kvh", "--check", "unitarity",
            "--check", "energy", "--seed", "0"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(args + ["--outdir", str(out_a)]) == 0
    assert cli.main(args + ["--outdir", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    mismatched = [
        n for n in names if not filecmp.cmp(out_a / n, out_b / n, shallow=False)
    ]
    # every artifact must agree byte for byte
    _report("determinism", [("mismatched_files", float(len(mismatched)), 1.0)])
