"""Serialization formats and the command-line harness."""

import os
import re
import struct
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from kvhsim import cli, hamiltonian
from kvhsim.fieldio import FormatError, load_field, save_field, write_csv_log
from kvhsim.grid import PhaseGrid, ScalarField


@pytest.fixture
def grid():
    return PhaseGrid(-8, 8, -8, 8, 16, 16)


@pytest.fixture
def field(grid):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    return ScalarField(grid, vals)


class TestBinaryFormat:
    def test_roundtrip_exact(self, tmp_path, field):
        path = tmp_path / "f.kvhf"
        save_field(path, field)
        back = load_field(path)
        np.testing.assert_array_equal(back.values, field.values)
        assert back.grid.same_geometry(field.grid)

    def test_bad_magic(self, tmp_path, field):
        path = tmp_path / "f.kvhf"
        save_field(path, field)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_field(path)

    def test_truncated_payload(self, tmp_path, field):
        path = tmp_path / "f.kvhf"
        save_field(path, field)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_field(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.kvhf"
        path.write_bytes(b"KVHF\x00")
        with pytest.raises(FormatError):
            load_field(path)


class TestBinaryLayout:
    """The exact bytes save_field writes and the exact errors load_field raises."""

    def test_layout_is_header_then_little_endian_complex128(self, tmp_path):
        g = PhaseGrid(-4, 4, -2, 2, 2, 3)
        values = np.arange(6).reshape(2, 3) * (1 + 0.5j)
        path = tmp_path / "f.kvhf"
        save_field(path, ScalarField(g, values))
        header = b"KVHF" + struct.pack("<II4f", 2, 3, -4, 4, -2, 2) + bytes(4)
        assert path.read_bytes() == header + values.astype("<c16").tobytes()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda raw: raw[:10], "{path}: truncated header"),
            (lambda raw: b"NOPE" + raw[4:], "{path}: bad magic b'NOPE'"),
            (lambda raw: raw[:-8], "{path}: expected 4128 bytes, found 4120"),
        ],
        ids=["header", "magic", "length"],
    )
    def test_error_messages(self, tmp_path, field, corrupt, message):
        path = tmp_path / "f.kvhf"
        save_field(path, field)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(FormatError, match=f"^{re.escape(message.format(path=path))}$"):
            load_field(path)

    def test_trailing_bytes_rejected(self, tmp_path, field):
        path = tmp_path / "f.kvhf"
        save_field(path, field)
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(FormatError, match="expected 4128 bytes, found 4144"):
            load_field(path)

    def test_rectangular_grid_roundtrip(self, tmp_path):
        g = PhaseGrid(-3, 5, -2, 2, 12, 20)
        rng = np.random.default_rng(4)
        f = ScalarField(g, rng.standard_normal((12, 20)) + 1j * rng.standard_normal((12, 20)))
        path = tmp_path / "f.kvhf"
        save_field(path, f)
        back = load_field(path)
        np.testing.assert_array_equal(back.values, f.values)
        assert (back.grid.n_q, back.grid.n_p) == (12, 20)
        assert (back.grid.q_min, back.grid.q_max, back.grid.p_min, back.grid.p_max) == (-3, 5, -2, 2)


class TestCsvFormats:
    def test_log_layout(self, tmp_path):
        path = tmp_path / "log.csv"
        write_csv_log(path, {"t": [0.0, 0.5], "norm": [1.0, 1.0]})
        lines = path.read_text().splitlines()
        assert lines[0] == "t,norm"
        assert len(lines) == 3


class TestConfigParsing:
    def test_sections_and_overrides(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\n"
            "scenario = free-kvh\n"
            "dt = 2e-3\n"
            "checks = unitarity, energy\n"
            "seed = 7\n"
            "[grid]\n"
            "n_q = 32\n"
            "n_p = 48\n"
            "[tolerances]\n"
            "norm_drift = 1e-6\n"
        )
        cfg = cli.load_config(path)
        assert cfg.scenario == "free-kvh"
        assert cfg.dt == 2e-3
        assert cfg.checks == ("unitarity", "energy")
        assert cfg.seed == 7
        assert (cfg.n_q, cfg.n_p) == (32, 48)
        assert cfg.tol("norm_drift") == 1e-6
        assert cfg.tol("energy_drift") == cli.TOLERANCES["energy_drift"]

    def test_polynomial_coefficients(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\nscenario = free-kvh\n[hamiltonian.coeffs]\n0_2 = 0.5\n2_0 = 0.5\n"
        )
        cfg = cli.load_config(path)
        assert cfg.poly_coeffs == {(0, 2): 0.5, (2, 0): 0.5}

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.load_config(tmp_path / "nope.ini")

    def test_invalid_values_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(dt=-1.0)
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(scenario="bogus")
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(checks=("bogus",))
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(tolerances={"bogus": 1.0})
        with pytest.raises(cli.ConfigError, match="NaN"):
            cli.RunConfig(tolerances={"norm_drift": float("nan")})
        # a zero tolerance is legal: the run then fails every check it names
        assert cli.RunConfig(tolerances={"norm_drift": 0.0}).tol("norm_drift") == 0.0

    def test_scenario_defaults_respect_explicit_fields(self):
        cfg = cli.apply_scenario_defaults(cli.RunConfig(scenario="quartic-kvh"))
        assert cfg.q_max == 3.0 and cfg.t_final == pytest.approx(9.270375)
        cfg2 = cli.apply_scenario_defaults(
            cli.RunConfig(scenario="quartic-kvh", t_final=0.25)
        )
        assert cfg2.t_final == 0.25


class TestCommandLine:
    def test_listing_verbs(self, capsys):
        assert cli.main(["list-scenarios"]) == 0
        assert "harmonic-kvh" in capsys.readouterr().out
        assert cli.main(["list-checks"]) == 0
        assert "sigma-defect" in capsys.readouterr().out

    def test_unknown_scenario_is_usage_error(self, tmp_path):
        rc = cli.main(["run", "--scenario", "bogus", "--outdir", str(tmp_path / "o")])
        assert rc == 2

    def test_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run-out"
        rc = cli.main(
            [
                "run",
                "--scenario",
                "free-kvh",
                "--check",
                "unitarity",
                "--t-final",
                "0.05",
                "--outdir",
                str(out),
            ]
        )
        assert rc == 0
        assert "PASS norm_drift" in capsys.readouterr().out
        for name in ("psi_initial.kvhf", "psi_final.kvhf", "conserved.csv",
                     "manifest.txt", "report"):
            assert (out / name).exists()
        assert "overall = pass" in (out / "report").read_text()

    def test_manifest_records_requested_and_effective_dt(self, tmp_path):
        out = tmp_path / "run-out"
        argv = ["run", "--scenario", "free-kvh", "--check", "unitarity",
                "--t-final", "0.05", "--dt", "7e-3", "--outdir", str(out)]
        assert cli.main(argv) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert "dt = 0.007" in lines
        # 0.05 / 7e-3 rounds to 7 steps of 0.05 / 7
        assert f"dt_effective = {0.05 / 7!r}" in lines

    def test_impossible_tolerance_fails_run(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[run]\nscenario = free-kvh\nchecks = unitarity\nt_final = 0.05\n"
            "[tolerances]\nnorm_drift = 1e-300\n"
        )
        out = tmp_path / "fail-out"
        rc = cli.main(["run", "--config", str(ini), "--outdir", str(out)])
        assert rc == 1
        assert "overall = fail" in (out / "report").read_text()

    @pytest.mark.parametrize(
        "run_lines, grid_lines, flags, message",
        [
            ("bc = bogus", "", (), ""),
            ("hamiltonian = nosuch", "", (), ""),
            ("", "q_min = 2\nq_max = -2", (), ""),
            ("t_finl = 0.01", "", (), ""),
            ("", "n_qq = 16", (), ""),
            ("", "[grdi]\nn_q = 16", (), ""),
            ("hbar = nan", "", (), ""),
            ("", "", ("--t-final", "nan"), ""),
            ("", "", ("--t-final", "inf"), ""),
            ("", "", ("--dt", "nan"), ""),
            ("", "", ("--dt", "inf"), ""),
            ("", "q_min = nan", (), "domain bounds must be finite"),
            ("", "q_max = inf", (), "domain bounds must be finite"),
            ("", "[hamiltonian.coeffs]\n2_0 = nan", (), "coefficient of q^2 p^0 must be finite"),
            ("", "[hamiltonian.coeffs]\n2 = 1.0", (), "bad key '2' in [hamiltonian.coeffs]"),
            ("", "[tolerances]\nnorm_drift = nan", (), "tolerance norm_drift is NaN"),
        ],
        ids=["bc", "hamiltonian", "bounds", "run-key", "grid-key", "section",
             "hbar-nan", "t-final-nan", "t-final-inf", "dt-nan", "dt-inf",
             "q-min-nan", "q-max-inf", "coeff-nan", "coeff-key", "tolerance-nan"],
    )
    def test_late_config_error_is_one_line_usage_error(
        self, tmp_path, capsys, run_lines, grid_lines, flags, message
    ):
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[run]\nscenario = free-kvh\nchecks = unitarity\n{run_lines}\n[grid]\n{grid_lines}\n"
        )
        out = tmp_path / "o"
        with warnings.catch_warnings():
            # a warning would print a second line to stderr
            warnings.simplefilter("error")
            rc = cli.main(["run", "--config", str(ini), "--outdir", str(out), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {message}")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[DEFAULT]\nsed = 3\n", "[DEFAULT]\nseed = 3\n"],
                             ids=["unknown-key", "known-key"])
    def test_default_section_is_one_line_usage_error(self, tmp_path, capsys, text):
        # configparser copies [DEFAULT] keys into every section; the error names [DEFAULT]
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        rc = cli.main(["run", "--config", str(ini), "--outdir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: unknown section [DEFAULT]")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "scenario, check, t_final, message",
        [("free-kvh", "unitarity", "200", "non-finite state"),
         ("point-particle", "vonneumann", "50", "non-finite kernel")],
    )
    def test_unstable_solve_is_one_line_usage_error(self, tmp_path, capsys, scenario, check, t_final, message):
        argv = ["run", "--scenario", scenario, "--check", check, "--dt", "0.5",
                "--t-final", t_final, "--outdir", str(tmp_path / "o")]
        with warnings.catch_warnings():
            # the advisory CFL warning of the wavefunction solve is not under test
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = cli.main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {message}")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_qhd_blow_up_is_one_line_usage_error(self, tmp_path, capsys):
        # no grid resolves the coherent state's width at this hbar, so the
        # state is refused before the first step
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nscenario = qhd-coherent\nhbar = 1e-300\nchecks = qhd\n")
        with warnings.catch_warnings():
            # a warning would print a second line to stderr
            warnings.simplefilter("error")
            rc = cli.main(["run", "--config", str(ini), "--outdir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: coherent state at hbar = 1e-300")
        assert "dx = 0.0781" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_kernel_error_is_one_line_usage_error(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[run]\nscenario = point-particle\nhamiltonian = free\nbc = fd4\n"
            "checks = vonneumann\nt_final = 0.05\n[grid]\nn_q = 10\nn_p = 10\n"
        )
        rc = cli.main(["run", "--config", str(ini), "--outdir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert len(err.strip().splitlines()) == 1
        assert "characteristics" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "scenario, check, bc, n, message",
        [("free-kvh", "unitarity", "fd4", 4, "fd4 stencils span 5 nodes; the grid has 4x4"),
         ("point-particle", "sigma-defect", "periodic", 4, "fd4 stencils span 5 nodes"),
         ("point-particle", "sigma-defect", "periodic", 6, "9-point stencils do not fit on 6 nodes")],
        ids=["run-grid", "sigma-defect-grid", "kernel-stencil"],
    )
    def test_stencil_wider_than_grid_is_one_line_usage_error(
        self, tmp_path, capsys, scenario, check, bc, n, message
    ):
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[run]\nscenario = {scenario}\nbc = {bc}\nchecks = {check}\n"
            f"[grid]\nn_q = {n}\nn_p = {n}\n"
        )
        rc = cli.main(["run", "--config", str(ini), "--outdir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {message}")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_compare_identical_and_mismatched(self, tmp_path, capsys, grid, field):
        a = tmp_path / "a.kvhf"
        b = tmp_path / "b.kvhf"
        save_field(a, field)
        save_field(b, field)
        assert cli.main(["compare", str(a), str(b)]) == 0
        assert float(capsys.readouterr().out) == 0.0
        other = PhaseGrid(-4, 4, -4, 4, 16, 16)
        c = tmp_path / "c.kvhf"
        save_field(c, ScalarField(other, field.values))
        assert cli.main(["compare", str(a), str(c)]) == 2
        assert cli.main(["compare", str(a), str(tmp_path / "missing")]) == 2

    def test_compare_norm_choices(self, tmp_path, capsys, grid, field):
        a = tmp_path / "a.kvhf"
        b = tmp_path / "b.kvhf"
        save_field(a, field)
        save_field(b, ScalarField(grid, field.values + 1.0))
        assert cli.main(["compare", str(a), str(b), "--norm", "linf"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0)


class TestSharedCharacteristics:
    """A run flows each backward characteristic set once, whichever checks need it."""

    @pytest.fixture
    def flows(self, monkeypatch):
        times = []
        flow = hamiltonian.flow_with_action

        def counted(H, t, *args, **kwargs):
            times.append(t)
            return flow(H, t, *args, **kwargs)

        monkeypatch.setattr(hamiltonian, "flow_with_action", counted)
        return times

    @pytest.mark.parametrize(
        "t_final, checks, n_flows",
        [
            (1.0, ("equivariance",), 1),
            (1.0, ("characteristics", "naturality"), 1),
            (np.pi / 2, ("naturality", "equivariance"), 1),
        ],
    )
    def test_flow_count(self, flows, t_final, checks, n_flows):
        # t_final 1.0 is the RunConfig default, so harmonic-kvh runs to 2 pi;
        # equivariance applies its quarter-turn lift only forward, so at
        # t_final = pi/2 it reuses the flow of naturality
        cfg = cli.RunConfig(scenario="harmonic-kvh", n_q=16, n_p=16, dt=1e-2, t_final=t_final)
        ctx = cli.RunContext(cli.apply_scenario_defaults(cfg))
        for name in checks:
            cli.CHECKS[name](ctx)
        assert len(flows) == n_flows, flows


def test_runtime_never_loads_scipy(tmp_path):
    # scipy is a test dependency only; with its import blocked, the CLI must
    # still run the checks that interpolate along the characteristics
    ini = tmp_path / "harmonic.ini"
    ini.write_text(
        "[run]\nscenario = harmonic-kvh\nchecks = characteristics, naturality\n"
        f"t_final = {np.pi / 2!r}\ndt = 0.01\n[grid]\nn_q = 48\nn_p = 48\n"
    )
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
        from kvhsim import cli
        runs = [
            ["run", "--config", {str(ini)!r}, "--outdir", {str(tmp_path / "kvh")!r}],
            ["run", "--scenario", "point-particle", "--check", "sigma-defect",
             "--outdir", {str(tmp_path / "kernel")!r}],
        ]
        print([cli.main(argv) for argv in runs])
        print(sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod))
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[0, 0]", "[]"], proc.stdout
    assert (tmp_path / "kvh" / "manifest.txt").read_text().count(f"t_final = {np.pi / 2!r}") == 1
