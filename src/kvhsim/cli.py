"""Scenario runner and verification harness.

Configuration is key = value sections (INI); every tolerance consulted by
a check has a documented default here and may be overridden in the
[tolerances] section, so the emitted report is fully auditable.

Verbs: run, compare, list-scenarios, list-checks. Exit codes: 0 pass,
1 check failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import contact, kvh, liouville, madelung, qhd, vonneumann
from .fieldio import load_field, save_field, write_csv_log
from .grid import FD4, PERIODIC, GridError, PhaseGrid, ScalarField, integrate, l1_norm, l2_norm, time_steps
from .hamiltonian import (
    Characteristics,
    HamiltonianSpec,
    PolynomialHamiltonian,
    backward_characteristics,
    flow_map,
    scenario_hamiltonian,
)

OUTPUT_ROOT_ENV = "KVHSIM_OUTPUT_ROOT"

# Default tolerances; every key may be overridden in [tolerances].
TOLERANCES = {
    "norm_drift": 1e-8,
    "energy_drift": 1e-7,
    "oracle_l2": 1e-4,
    "commutator_residual": 1e-6,
    "naturality_l1": 1e-4,
    "mass_drift": 1e-8,
    "madelung_l2": 1e-4,
    "transport_residual": 1e-5,
    "equivariance_residual": 1e-5,
    "momap_equivariance_l1": 1e-5,
    "vn_rank1_error": 1e-5,
    "vn_trace_drift": 1e-9,
    "vn_casimir_drift": 1e-7,
    "vn_eigenvalue_drift": 1e-6,
    "sigma_defect_rate": 1e-4,
    "centroid_cells": 1.0,
    "qhd_norm_drift": 1e-10,
    "qhd_continuity": 1e-5,
    "qhd_bohm": 1e-4,
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    scenario: str = "harmonic-kvh"
    hamiltonian: str = ""           # empty: scenario default
    poly_coeffs: dict | None = None  # custom polynomial H(q,p)
    q_min: float = -8.0
    q_max: float = 8.0
    p_min: float = -8.0
    p_max: float = 8.0
    n_q: int = 64
    n_p: int = 64
    bc: str = PERIODIC
    hbar: float = 1.0
    dt: float = 1e-3
    t_final: float = 1.0
    stride: int = 0
    seed: int = 0
    outdir: str = ""
    checks: tuple = ()
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("dt", "t_final", "hbar"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.n_q <= 0 or self.n_p <= 0:
            raise ConfigError("grid sample counts must be positive")
        if self.stride < 0:
            raise ConfigError(f"stride must be nonnegative (0 keeps only start and end), got {self.stride}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; available: {sorted(SCENARIOS)}"
            )
        for c in self.checks:
            if c not in CHECKS:
                raise ConfigError(f"unknown check {c!r}; available: {sorted(CHECKS)}")
        for k, v in self.tolerances.items():
            if k not in TOLERANCES:
                raise ConfigError(f"unknown tolerance key {k!r}")
            if np.isnan(v):
                raise ConfigError(f"tolerance {k} is NaN; every check would fail against it")
            if v < 0:
                raise ConfigError(f"tolerance {k} = {v} is negative; every check would fail against it")
            if np.isinf(v):
                raise ConfigError(f"tolerance {k} is inf; every check would pass against it")

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, TOLERANCES[name]))


@dataclass
class CheckResult:
    name: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.value < self.tol


# -- scenarios -------------------------------------------------------------

SCENARIOS = {
    # wavefunction benchmarks: Hamiltonian, domain, characteristic time and
    # a reference wavepacket, clear of the box edge for harmonic, free and
    # qhd-coherent only: |Ψ| there is 1.2e-4 of peak for quartic, 9.2e-6
    # for pendulum and 2.7e-2 for point-particle
    "harmonic-kvh": dict(hamiltonian="harmonic", t_final=2 * np.pi,
                         center=(0.5, 0.3), sigma=(0.7, 0.7)),
    "free-kvh": dict(hamiltonian="free", t_final=1.0,
                     center=(0.0, 0.5), sigma=(0.7, 0.7)),
    # period of the quartic orbit through q = 0.8: 7.4163 / 0.8
    "quartic-kvh": dict(
        hamiltonian="quartic",
        t_final=9.270375,
        q_min=-3.0,
        q_max=3.0,
        p_min=-3.0,
        p_max=3.0,
        center=(0.8, 0.0),
        sigma=(0.35, 0.35),
    ),
    # libration period through q = 1: 4 K(sin^2(1/2))
    "pendulum-kvh": dict(
        hamiltonian="pendulum",
        t_final=6.699976,
        q_min=-np.pi,
        q_max=np.pi,
        p_min=-6.0,
        p_max=6.0,
        center=(1.0, 0.0),
        sigma=(0.3, 0.3),
    ),
    "point-particle": dict(hamiltonian="harmonic", t_final=0.5, dt=5e-3,
                           n_q=24, n_p=24,
                           q_min=-4.0, q_max=4.0, p_min=-4.0, p_max=4.0,
                           center=(1.0, 0.0), sigma=(0.7, 0.7)),
    "qhd-coherent": dict(hamiltonian="harmonic", t_final=1.0,
                         center=(1.0, 0.0), sigma=(0.7, 0.7)),
}


class RunContext:
    """Shared, lazily computed objects for the checks of one run."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.grid = PhaseGrid(
            cfg.q_min, cfg.q_max, cfg.p_min, cfg.p_max, cfg.n_q, cfg.n_p, cfg.bc
        )
        if cfg.poly_coeffs:
            self.H = PolynomialHamiltonian("custom", cfg.poly_coeffs)
        else:
            self.H = scenario_hamiltonian(cfg.hamiltonian or SCENARIOS[cfg.scenario]["hamiltonian"])
        self._trajectory = None
        self._lifts = {}

    def initial_wavefunction(self) -> kvh.WaveFunction:
        defaults = SCENARIOS[self.cfg.scenario]
        return kvh.gaussian_wavepacket(
            self.grid,
            center=defaults["center"],
            sigma=defaults["sigma"],
            phase=lambda q, p: 0.3 * q - 0.2 * p,
            hbar=self.cfg.hbar,
        )

    def trajectory(self) -> kvh.Trajectory:
        if self._trajectory is None:
            self._trajectory = kvh.evolve(
                self.H,
                self.initial_wavefunction(),
                self.cfg.t_final,
                self.cfg.dt,
                stride=self.cfg.stride,
            )
        return self._trajectory

    def lift(self, H: HamiltonianSpec, t: float) -> Characteristics:
        """The lift of H's time-t flow: its backward characteristics at the
        run's dt, exited nodes marked.

        One per (H.name, t), so the checks of a run share one backward flow.
        """
        key = (H.name, t)
        if key not in self._lifts:
            self._lifts[key] = backward_characteristics(H, self.grid, t, self.cfg.dt)
        return self._lifts[key]


# -- checks ----------------------------------------------------------------

def check_unitarity(ctx: RunContext):
    traj = ctx.trajectory()
    drift = max(abs(n - traj.norms[0]) for n in traj.norms)
    return [CheckResult("norm_drift", drift, ctx.cfg.tol("norm_drift"))]


def check_energy(ctx: RunContext):
    traj = ctx.trajectory()
    drift = max(abs(e - traj.energies[0]) for e in traj.energies)
    return [CheckResult("energy_drift", drift, ctx.cfg.tol("energy_drift"))]


def check_characteristics(ctx: RunContext):
    cfg = ctx.cfg
    psi0 = ctx.initial_wavefunction()
    final = ctx.trajectory().final()
    oracle = kvh.characteristics_oracle(psi0, ctx.lift(ctx.H, cfg.t_final))
    err = l2_norm(ScalarField(ctx.grid, final.field.values - oracle.field.values))
    return [CheckResult("oracle_l2", err, cfg.tol("oracle_l2"))]


def check_commutators(ctx: RunContext):
    psi = ctx.initial_wavefunction()
    pairs = [
        ("q_p", {(1, 0): 1.0}, {(0, 1): 1.0}),
        ("harmonic_qp", {(2, 0): 0.5, (0, 2): 0.5}, {(1, 1): 1.0}),
        ("free_q", {(0, 2): 0.5}, {(1, 0): 1.0}),
    ]
    out = []
    for label, ch, cf in pairs:
        H = PolynomialHamiltonian(f"H_{label}", ch)
        F = PolynomialHamiltonian(f"F_{label}", cf)
        r = kvh.commutator_residual(H, F, psi)
        out.append(CheckResult(f"commutator_residual.{label}", r, ctx.cfg.tol("commutator_residual")))
    return out


def _momentum_map_l1(psi_t: kvh.WaveFunction, psi0: kvh.WaveFunction, ch: Characteristics):
    """(‖ρ(J(psi_t)) - η_*ρ(J(psi0))‖₁, |∫ρ(J(psi_t)) - ∫ρ(J(psi0))|) for the
    momentum map J = hydro_from_wavefunction, the density ρ =
    classical_density and η the flow whose backward characteristics are `ch`."""
    rho0, rho_t = (madelung.classical_density(madelung.hydro_from_wavefunction(psi)) for psi in (psi0, psi_t))
    diff = rho_t.values - liouville.evolve_pushforward(rho0, ch).values
    return l1_norm(ScalarField(rho0.grid, diff)), abs(integrate(rho_t) - integrate(rho0))


def check_naturality(ctx: RunContext):
    cfg = ctx.cfg
    final = ctx.trajectory().final()
    dist, drift = _momentum_map_l1(final, ctx.initial_wavefunction(), ctx.lift(ctx.H, cfg.t_final))
    return [
        CheckResult("naturality_l1", dist, cfg.tol("naturality_l1")),
        CheckResult("mass_drift", drift, cfg.tol("mass_drift")),
    ]


def _polar_initial(ctx: RunContext, n_q: int, n_p: int) -> madelung.PolarPair:
    """Smooth synthetic polar data on n_q x n_p nodes of the run's box:
    quadratic phase, narrow Gaussian density.

    S is a non-periodic polynomial, so it lies on an FD4 grid, whose stencils
    and closures are exact up to degree 4. D is clear of the box edge, so it
    lies on the periodic grid of the same nodes and is differentiated
    spectrally.
    """
    cfg = ctx.cfg
    gS = PhaseGrid(cfg.q_min, cfg.q_max, cfg.p_min, cfg.p_max, n_q, n_p, FD4)
    gD = PhaseGrid(cfg.q_min, cfg.q_max, cfg.p_min, cfg.p_max, n_q, n_p)
    S0 = ScalarField(gS, 0.3 * gS.Q - 0.2 * gS.P + 0.05 * gS.Q * gS.P)
    env = np.exp(-((gD.Q - 0.5) ** 2) / (2 * 0.8**2) - ((gD.P - 0.3) ** 2) / (2 * 0.8**2))
    D0 = ScalarField(gD, env / np.real(gD.integrate_values(env)))
    return madelung.PolarPair(S0, D0)


def _edge_content(values: np.ndarray) -> float:
    """Share of the L2 norm of a periodic field held by the wavenumbers |k| >=
    n/2 - 1 of either axis: a measure of how far the grid is from resolving
    the field."""
    power = np.abs(np.fft.fft2(values)) ** 2
    q_edge, p_edge = (np.abs(np.fft.fftfreq(n, 1 / n)) >= n // 2 - 1 for n in values.shape)
    return float(np.sqrt(power[q_edge[:, None] | p_edge[None, :]].sum() / power.sum()))


def check_madelung(ctx: RunContext):
    # The polar pair and the wavefunction reference run on the same n² nodes,
    # to the fixed comparison time t = 1. n is 64, unless the reference's edge
    # modes there hold more than 1e-9 (a small ħ chirps the packet past 64²;
    # the quartic and pendulum boxes cut it off unperiodically): then 192.
    cfg = ctx.cfg
    t_cmp = 1.0
    for n in (64, 192):
        pair0 = _polar_initial(ctx, n, n)
        g = pair0.D.grid
        psi0 = np.sqrt(pair0.D.values) * np.exp(1j * pair0.S.values / cfg.hbar)
        psi = kvh.WaveFunction(ScalarField(g, psi0), cfg.hbar)
        psi_t = kvh.evolve(ctx.H, psi, t_cmp, cfg.dt, record_energy=False).final().field.values
        if _edge_content(psi_t) <= 1e-9:
            break
    for _, pair_t in madelung.evolve_polar(pair0, ctx.H, t_cmp, cfg.dt):
        pass
    recon = np.sqrt(np.maximum(pair_t.D.values, 0.0)) * np.exp(
        1j * pair_t.S.values / cfg.hbar
    )
    err = l2_norm(ScalarField(g, recon - psi_t))
    return [CheckResult("madelung_l2", err, cfg.tol("madelung_l2"))]


def check_transport(ctx: RunContext):
    # fine dt: the residual uses centered time differences and the
    # one-form carries O(domain-size) entries, so dt^2 truncation matters.
    # The residual reads S alone, so D is not evolved.
    cfg = ctx.cfg
    phase0 = madelung.PolarPair(_polar_initial(ctx, cfg.n_q, cfg.n_p).S, None)
    stream = madelung.evolve_polar(phase0, ctx.H, 0.05, 2.5e-4, stride=1)
    residuals = madelung.one_form_transport_residual(stream, ctx.H)
    return [CheckResult("transport_residual", max(residuals), cfg.tol("transport_residual"))]


def check_equivariance(ctx: RunContext):
    cfg = ctx.cfg
    ch = ctx.lift(scenario_hamiltonian("harmonic"), np.pi / 2)
    psi = ctx.initial_wavefunction()
    H_half = PolynomialHamiltonian("half_q2", {(2, 0): 0.5})
    H_rot = PolynomialHamiltonian("half_p2", {(0, 2): 0.5})  # q2/2 composed with quarter rotation
    r, upsi = contact.equivariance_residual(ch, H_half, psi, composed=H_rot)
    dist, _ = _momentum_map_l1(upsi, psi, ch)
    return [
        CheckResult("equivariance_residual", r, cfg.tol("equivariance_residual")),
        CheckResult("momap_equivariance_l1", dist, cfg.tol("momap_equivariance_l1")),
    ]


def check_vonneumann(ctx: RunContext):
    cfg = ctx.cfg
    g = ctx.grid
    psi0 = kvh.gaussian_wavepacket(
        g, center=(1.0, 0.0), sigma=(0.7, 0.7), hbar=cfg.hbar
    )
    theta0 = vonneumann.kernel_from_wavefunction(psi0)
    theta_t = vonneumann.evolve_kernel(theta0, ctx.H, cfg.t_final, cfg.dt)
    psi_t = kvh.evolve(ctx.H, psi0, cfg.t_final, cfg.dt, record_energy=False).final()
    ref = np.outer(psi_t.field.values.reshape(-1), psi_t.field.values.conj().reshape(-1))
    err = float(np.max(np.abs(theta_t.K - ref)))
    ev0 = theta0.eigenvalues()
    ev1 = theta_t.eigenvalues()
    return [
        CheckResult("vn_rank1_error", err, cfg.tol("vn_rank1_error")),
        CheckResult("vn_trace_drift", abs(theta_t.trace() - theta0.trace()), cfg.tol("vn_trace_drift")),
        CheckResult(
            "vn_casimir_drift", abs(theta_t.casimir() - theta0.casimir()), cfg.tol("vn_casimir_drift")
        ),
        CheckResult("vn_eigenvalue_drift", float(np.max(np.abs(ev1 - ev0))), cfg.tol("vn_eigenvalue_drift")),
    ]


def _point_particle_setup(cfg: RunConfig):
    """(grid, D(q, p)) of the sigma-defect check: a Gaussian of width 4 dq
    about (1, 0), normalized on the nodes of a cell-centered FD4 box."""
    # cell-centered box: the quarter-period rotation then maps the node
    # set onto itself, which keeps the characteristics propagator exact at
    # the boundary rows where the kernel still carries mass.
    shift_q = 0.5 * (cfg.q_max - cfg.q_min) / cfg.n_q
    shift_p = 0.5 * (cfg.p_max - cfg.p_min) / cfg.n_p
    g = PhaseGrid(
        cfg.q_min + shift_q, cfg.q_max + shift_q,
        cfg.p_min + shift_p, cfg.p_max + shift_p,
        cfg.n_q, cfg.n_p, FD4,
    )
    eps = 4 * g.dq

    def envelope(q, p):
        return np.exp(-((q - 1.0) ** 2 + p**2) / (2 * eps**2))

    total = np.real(g.integrate_values(envelope(g.Q, g.P)))
    return g, lambda q, p: envelope(q, p) / total


def check_sigma_defect(ctx: RunContext):
    # The kernel phase is a chirp at frequency p/hbar, so a large hbar keeps
    # it well resolved by the wide extraction stencils at 24 nodes per axis.
    cfg = ctx.cfg
    g, density = _point_particle_setup(cfg)
    hbar = 16.0
    t_final = np.pi / 2
    theta0 = vonneumann.point_particle_kernel(g, density, hbar)
    defect0 = vonneumann.sigma_defect(vonneumann.hydro_from_kernel(theta0))
    theta_t = vonneumann.evolve_kernel(
        theta0, ctx.H, t_final, cfg.dt, method="characteristics"
    )
    state_t = vonneumann.hydro_from_kernel(theta_t)
    defect_t = vonneumann.sigma_defect(state_t)
    rate = (defect_t - defect0) / t_final
    qc, pc = vonneumann.density_centroid(state_t.D)
    q_ref, p_ref = flow_map(ctx.H, t_final, (1.0, 0.0), dt=cfg.dt)
    cell_err = max(abs(qc - float(q_ref)) / g.dq, abs(pc - float(p_ref)) / g.dp)
    return [
        CheckResult("sigma_defect_rate", max(rate, 0.0), cfg.tol("sigma_defect_rate")),
        CheckResult("centroid_cells", cell_err, cfg.tol("centroid_cells")),
    ]


def check_qhd(ctx: RunContext):
    cfg = ctx.cfg
    g = qhd.LineGrid(-10.0, 10.0, 256)
    V = 0.5 * g.x**2
    psi0 = qhd.coherent_state(g, x0=1.0, p0=0.0, hbar=cfg.hbar)
    if time_steps(cfg.t_final, cfg.dt)[0] < 2:
        raise ConfigError(
            f"the qhd check needs two steps for a centered time difference; "
            f"t_final = {cfg.t_final} at dt = {cfg.dt} takes one"
        )
    # one band of the stream at a time: bands share their edge snapshots,
    # which a maximum counts once as well as twice
    norm_drift = cont = bohm = 0.0
    for band in qhd.snapshot_bands(qhd.schrodinger_evolve(psi0, V, cfg.t_final, cfg.dt)):
        norm_drift = max(norm_drift, *(abs(s.norm() - 1.0) for _, s in band))
        cont = max(cont, *qhd.continuity_residual(band))
        bohm = max(bohm, *qhd.bohm_potential_residual(band, V))
    return [
        CheckResult("qhd_norm_drift", norm_drift, cfg.tol("qhd_norm_drift")),
        CheckResult("qhd_continuity", cont, cfg.tol("qhd_continuity")),
        CheckResult("qhd_bohm", bohm, cfg.tol("qhd_bohm")),
    ]


CHECKS = {
    "unitarity": check_unitarity,
    "energy": check_energy,
    "characteristics": check_characteristics,
    "commutators": check_commutators,
    "naturality": check_naturality,
    "madelung": check_madelung,
    "transport": check_transport,
    "equivariance": check_equivariance,
    "vonneumann": check_vonneumann,
    "sigma-defect": check_sigma_defect,
    "qhd": check_qhd,
}


# -- config parsing --------------------------------------------------------

def _names(value: str) -> tuple:
    return tuple(s.strip() for s in value.split(",") if s.strip())


# the keys of [run] and [grid], each with its parser; any other key is an error
CONFIG_KEYS = {
    "run": dict(
        scenario=str, hamiltonian=str, bc=str, outdir=str, hbar=float, dt=float,
        t_final=float, stride=int, seed=int, checks=_names,
    ),
    "grid": dict(q_min=float, q_max=float, p_min=float, p_max=float, n_q=int, n_p=int),
}
CONFIG_SECTIONS = (*CONFIG_KEYS, "hamiltonian.coeffs", "tolerances")


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    # [DEFAULT] keys would leak into every section; reject them as a section
    for section in parser.sections() + (["DEFAULT"] if parser.defaults() else []):
        if section not in CONFIG_SECTIONS:
            raise ConfigError(f"unknown section [{section}]; available: {list(CONFIG_SECTIONS)}")
    kwargs = {}
    for section, keys in CONFIG_KEYS.items():
        if parser.has_section(section):
            for key, value in parser[section].items():
                if key not in keys:
                    raise ConfigError(f"unknown key {key!r} in [{section}]; available: {list(keys)}")
                kwargs[key] = keys[key](value)
    if parser.has_section("hamiltonian.coeffs"):
        coeffs = {}
        for key, value in parser["hamiltonian.coeffs"].items():
            if not re.fullmatch(r"[0-9]+_[0-9]+", key):
                raise ConfigError(
                    f"bad key {key!r} in [hamiltonian.coeffs]; expected i_j for the term q^i p^j"
                )
            i, j = (int(s) for s in key.split("_"))
            coeffs[(i, j)] = float(value)
        kwargs["poly_coeffs"] = coeffs
    if parser.has_section("tolerances"):
        kwargs["tolerances"] = {k: float(v) for k, v in parser["tolerances"].items()}
    return RunConfig(**kwargs)


def apply_scenario_defaults(cfg: RunConfig) -> RunConfig:
    """Fill unset fields from the scenario table (explicit config wins)."""
    defaults = SCENARIOS[cfg.scenario]  # RunConfig rejects an unknown scenario
    updates = {}
    if not cfg.hamiltonian and not cfg.poly_coeffs:
        updates["hamiltonian"] = defaults["hamiltonian"]
    for key, value in defaults.items():
        if key in ("hamiltonian",):
            continue
        if key in ("q_min", "q_max", "p_min", "p_max", "n_q", "n_p", "t_final", "dt"):
            updates.setdefault(key, value)
    # only apply domain/time defaults the user left at dataclass defaults
    base = RunConfig()
    for key in list(updates):
        if getattr(cfg, key) != getattr(base, key):
            del updates[key]
    return replace(cfg, **updates) if updates else cfg


# -- report ----------------------------------------------------------------

def write_report(path, results) -> bool:
    ok = True
    lines = []
    for r in results:
        status = "pass" if r.passed else "fail"
        ok = ok and r.passed
        lines.append(f"{r.name} = {r.value:.6e}")
        lines.append(f"{r.name}.tol = {r.tol:.6e}")
        lines.append(f"{r.name}.status = {status}")
    lines.append(f"overall = {'pass' if ok else 'fail'}")
    Path(path).write_text("\n".join(lines) + "\n")
    return ok


def run_command(args) -> int:
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        overrides = {}
        if args.scenario:
            overrides["scenario"] = args.scenario
        if args.check:
            overrides["checks"] = tuple(args.check)
        if args.dt is not None:
            overrides["dt"] = args.dt
        if args.t_final is not None:
            overrides["t_final"] = args.t_final
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.outdir:
            overrides["outdir"] = args.outdir
        if overrides:
            cfg = replace(cfg, **overrides)
        cfg = apply_scenario_defaults(cfg)
        ctx = RunContext(cfg)
        # an overflowing step count is refused here, before any check runs
        dt_effective = time_steps(cfg.t_final, cfg.dt)[1]
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    checks = cfg.checks or ("unitarity",)
    results = []
    try:
        for name in checks:
            results.extend(CHECKS[name](ctx))
    except (ConfigError, GridError, vonneumann.KernelError, kvh.EvolutionAborted,
            qhd.UnresolvedStateError) as exc:
        # a horizon too short for a check, a check grid too small for its
        # stencils, an ill-conditioned kernel basis, an unstable dt or an
        # unresolved hbar; no run directory is made
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    outdir = root / (cfg.outdir or f"{cfg.scenario}-out")
    outdir.mkdir(parents=True, exist_ok=True)

    # artifacts: snapshots + conserved-quantity log for wavefunction runs
    if ctx._trajectory is not None:
        traj = ctx._trajectory
        save_field(outdir / "psi_initial.kvhf", traj.initial.field)
        save_field(outdir / "psi_final.kvhf", traj.final().field)
        log = {"t": traj.times, "norm": traj.norms}
        if traj.energies:
            log["energy"] = traj.energies
        write_csv_log(outdir / "conserved.csv", log)
    manifest = [
        f"scenario = {cfg.scenario}",
        f"hamiltonian = {ctx.H.name}",
        f"t_final = {cfg.t_final!r}",
        f"dt = {cfg.dt!r}",
        f"dt_effective = {dt_effective!r}",
        f"scheme = rk4",
        f"seed = {cfg.seed}",
        f"grid = {cfg.n_q}x{cfg.n_p} [{cfg.q_min},{cfg.q_max}]x[{cfg.p_min},{cfg.p_max}] {cfg.bc}",
    ]
    (outdir / "manifest.txt").write_text("\n".join(manifest) + "\n")
    ok = write_report(outdir / "report", results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} = {r.value:.3e} (tol {r.tol:.1e})")
    return 0 if ok else 1


def compare_command(args) -> int:
    try:
        fa = load_field(args.file_a)
        fb = load_field(args.file_b)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not fa.grid.same_geometry(fb.grid):
        print("error: field headers do not match", file=sys.stderr)
        return 2
    diff = ScalarField(fa.grid, fa.values - fb.values)
    if args.norm == "l1":
        value = l1_norm(diff)
    elif args.norm == "l2":
        value = l2_norm(diff)
    else:
        value = float(np.max(np.abs(diff.values)))
    print(f"{value:.12e}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kvhsim", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a scenario and its verification checks")
    p_run.add_argument("--config", help="INI configuration file")
    p_run.add_argument("--scenario", help="scenario name")
    p_run.add_argument("--check", action="append", help="check to run (repeatable)")
    p_run.add_argument("--dt", type=float)
    p_run.add_argument("--t-final", type=float, dest="t_final")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--outdir")
    p_run.set_defaults(func=run_command)

    p_cmp = sub.add_parser("compare", help="norm of the difference of two field files")
    p_cmp.add_argument("file_a")
    p_cmp.add_argument("file_b")
    p_cmp.add_argument("--norm", choices=("l1", "l2", "linf"), default="l2")
    p_cmp.set_defaults(func=compare_command)

    p_ls = sub.add_parser("list-scenarios", help="list available scenarios")
    p_ls.set_defaults(func=lambda args: (print("\n".join(sorted(SCENARIOS))), 0)[1])

    p_lc = sub.add_parser("list-checks", help="list available checks")
    p_lc.set_defaults(func=lambda args: (print("\n".join(sorted(CHECKS))), 0)[1])

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
