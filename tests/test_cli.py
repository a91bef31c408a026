"""CLI contract: commands, outputs, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qg3d
from qg3d import cli, nonlinear, spectral
from qg3d.cli import RunConfig, main
from qg3d.nonlinear import NEWTON_TOL, Collocation

FAST = ["--phi-nodes", "24", "--de-level", "7"]


def run(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--outdir", str(out)])
    return code, out


class TestValidate:
    def test_sphere(self, tmp_path):
        code, out = run(tmp_path, "validate", "--profile", "sphere", *FAST)
        assert code == 0
        payload = json.loads((out / "validate.json").read_text())
        assert payload["passed"]
        assert payload["kappa"] == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_spheroid_kappa(self, tmp_path):
        code, out = run(tmp_path, "validate", "--profile", "spheroid:2", *FAST)
        assert code == 0
        payload = json.loads((out / "validate.json").read_text())
        assert payload["kappa"] == pytest.approx(2 * qg3d.ellipsoid_alphas(2.0).alpha1, abs=1e-5)

    def test_malformed_csv_exit_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("phi;r0\n0;0\n")
        code, _ = run(tmp_path, "validate", "--profile", f"file:{bad}")
        assert code == 1

    @pytest.mark.parametrize("command", ["bifpoints", "dispersion"])
    @pytest.mark.parametrize("spec", ["spheroid:nan", "spheroid:inf", "file:nan", "file:inf",
                                      "series:nan", "series:1,inf", "series:", "series:x"])
    def test_non_finite_profile_exit_1(self, tmp_path, capsys, command, spec):
        # rejected at load, before any solve could end in a LinAlgError
        kind, _, word = spec.partition(":")
        if kind == "file":
            phi = np.linspace(0.0, np.pi, 9)
            cells = [f"{p:.17g},{np.sin(p):.17g}" for p in phi]
            cells[4] = f"{phi[4]:.17g},{word}"
            csv = tmp_path / f"{word}.csv"
            csv.write_text("phi,r0\n" + "\n".join(cells) + "\n")
            spec = f"file:{csv}"
        code, _ = run(tmp_path, command, "--profile", spec, "--phi-nodes", "8", "--modes", "2", "--omega-grid=0")
        assert code == 1
        assert "cannot load profile" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path):
        code, _ = run(tmp_path, "validate", "--profile", "file:/nonexistent.csv")
        assert code == 1

    @pytest.mark.parametrize("flag", ["--modes=2,x", "--omega-grid=0.1,abc"])
    def test_bad_list_item_exit_2(self, tmp_path, flag, capsys):
        code, _ = run(tmp_path, "validate", "--profile", "sphere", flag)
        assert code == 2
        assert flag.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["series:0", "series:1,2"])
    def test_profile_the_solvers_refuse(self, tmp_path, spec):
        # r0 <= 0 at grid nodes: no kernel context, so kappa is null, but
        # the hypotheses are still reported
        code, out = run(tmp_path, "validate", "--profile", spec, "--phi-nodes", "16", "--de-level", "4")
        assert code == 2
        payload = json.loads((out / "validate.json").read_text())
        assert payload["kappa"] is None and not payload["h1_ok"]

    def test_profile_too_small_for_the_kernel(self, tmp_path):
        # H1 to H3 hold at radius 1e-300, but H_n overflows, kappa is null
        # and every solver exits 3, so the profile fails; the report keeps
        # every field (the session turns a RuntimeWarning into an error)
        code, out = run(tmp_path, "validate", "--profile", "spheroid:1e-300", "--phi-nodes", "16", "--de-level", "4")
        assert code == 2
        payload = json.loads((out / "validate.json").read_text())
        assert payload["kappa"] is None and payload["passed"] is False
        assert payload["h1_ok"] and payload["h2_ok"] and payload["h3_ok"]
        assert set(payload) == {
            "profile", "h1_ok", "h2_ok", "h3_ok", "endpoint_values", "interior_min", "h2_lo", "h2_hi",
            "sym_defect", "arc_chord_lo", "arc_chord_hi", "kappa", "passed",
        }

    def test_profile_too_large_for_the_kernel(self, tmp_path):
        # a radius of 1e200 overflows the arc-chord ratios and H_n: both
        # constants and kappa are null, without a RuntimeWarning (an error
        # in this session), and the report is still written
        code, out = run(tmp_path, "validate", "--profile", "spheroid:1e200", "--phi-nodes", "16", "--de-level", "4")
        assert code == 2
        payload = json.loads((out / "validate.json").read_text())
        assert payload["arc_chord_lo"] is None and payload["arc_chord_hi"] is None
        assert payload["kappa"] is None and payload["passed"] is False

    def test_non_finite_report_is_strict_json(self, tmp_path):
        # r0 overflows to inf and nan on this profile: those values are
        # written as null, and the file parses without NaN or Infinity
        def refuse(name):
            raise AssertionError(f"validate.json holds {name}")

        code, out = run(tmp_path, "validate", "--profile", "series:1e308,1e308", "--phi-nodes", "16", "--de-level", "4")
        assert code == 2
        payload = json.loads((out / "validate.json").read_text(), parse_constant=refuse)
        assert payload["endpoint_values"][0] is None and payload["passed"] is False

    def test_large_radius_passes_h1(self, tmp_path):
        # the endpoint test is relative to max r0: sin(pi) 1e10 = 1.2e-6 is round-off
        code, out = run(tmp_path, "validate", "--profile", "spheroid:1e10", "--phi-nodes", "16", "--de-level", "4")
        assert code == 0
        payload = json.loads((out / "validate.json").read_text())
        assert payload["h1_ok"] and payload["passed"] and payload["kappa"] > 0.0

    def test_failing_profile_exit_2(self, tmp_path):
        phi = np.linspace(0.0, np.pi, 101)
        r0 = np.sin(phi) * (1.0 + 0.3 * np.cos(phi))  # breaks H3
        csv = tmp_path / "asym.csv"
        csv.write_text("phi,r0\n" + "\n".join(f"{p:.17g},{r:.17g}" for p, r in zip(phi, r0)) + "\n")
        code, out = run(tmp_path, "validate", "--profile", f"file:{csv}", *FAST)
        assert code == 2
        assert not json.loads((out / "validate.json").read_text())["passed"]


class TestDispersion:
    def test_table_and_monotonicity(self, tmp_path):
        code, out = run(
            tmp_path, "dispersion", "--profile", "sphere", *FAST,
            "--modes", "1,2,3", "--omega-grid=-0.5,0.0,0.2",
        )
        assert code == 0
        lines = (out / "dispersion.csv").read_text().splitlines()
        assert lines[0] == "n,omega,lambda,iterations,residual"
        assert len(lines) == 10
        anomalies = (out / "dispersion_anomalies.csv").read_text().splitlines()
        assert len(anomalies) == 1  # header only

    def test_unsorted_modes_and_grid_no_anomaly(self, tmp_path):
        code, out = run(
            tmp_path, "dispersion", "--profile", "sphere", *FAST,
            "--modes", "3,2", "--omega-grid=0.2,-0.5",
        )
        assert code == 0
        assert len((out / "dispersion_anomalies.csv").read_text().splitlines()) == 1  # header only

    def test_empty_grid_header_only(self, tmp_path):
        code, out = run(tmp_path, "dispersion", "--profile", "sphere", *FAST, "--modes", "2", "--omega-grid", "")
        assert code == 0
        assert (out / "dispersion.csv").read_text() == "n,omega,lambda,iterations,residual\n"

    def test_omega_above_guard_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "dispersion", "--profile", "sphere", *FAST, "--modes", "2", "--omega-grid", "0.4")
        assert code == 2

    def test_bad_mode_named_exit_2(self, tmp_path, capsys):
        code, out = run(tmp_path, "dispersion", "--profile", "sphere", *FAST, "--modes", "0,2", "--omega-grid", "0.0")
        assert code == 2
        assert "mode 0" in capsys.readouterr().err
        assert not (out / "dispersion.csv").exists()

    def test_determinism(self, tmp_path):
        args = ["dispersion", "--profile", "sphere", *FAST, "--modes", "1,2", "--omega-grid=-0.5,0.1"]
        code1, out1 = run(tmp_path / "a", *args)
        code2, out2 = run(tmp_path / "b", *args)
        assert code1 == code2 == 0
        assert (out1 / "dispersion.csv").read_bytes() == (out2 / "dispersion.csv").read_bytes()


class TestBifpoints:
    def test_table_ordering(self, tmp_path):
        code, out = run(tmp_path, "bifpoints", "--profile", "sphere", *FAST, "--modes", "2,3")
        assert code == 0
        lines = (out / "bifpoints.csv").read_text().splitlines()[1:]
        oms = [float(l.split(",")[1]) for l in lines]
        assert 0.0 < oms[0] < oms[1] < 1.0 / 3.0
        assert (out / "eigenfun_m2.csv").exists()
        assert (out / "eigenfun_m3.csv").exists()

    @pytest.mark.parametrize("g,mirrored", [("1.15,0,-0.15", True), ("1,0.1", False)], ids=["bump", "asym"])
    def test_series_profile(self, tmp_path, g, mirrored):
        # Omega_m is the library's, bitwise, and (N, de_level) = (48, 8) is 3.3e-16 from (96, 9)
        code, out = run(tmp_path, "bifpoints", "--profile", f"series:{g}", "--phi-nodes", "48", "--de-level", "8", "--modes", "2,3")
        ctx = qg3d.KernelContext(qg3d.make_profile("series", g=[float(c) for c in g.split(",")]), 48, 8)
        fine = ctx.refined()
        assert code == 0 and ctx.mirrored is mirrored
        oms = [float(line.split(",")[1]) for line in (out / "bifpoints.csv").read_text().splitlines()[1:]]
        assert oms == [qg3d.find_bifurcation_point(ctx, m).omega_m for m in (2, 3)]
        assert all(abs(om - qg3d.find_bifurcation_point(fine, m).omega_m) <= 2e-15 for m, om in zip((2, 3), oms))

    def test_m1_rejected_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "bifpoints", "--profile", "sphere", *FAST, "--modes", "1")
        assert code == 2


class TestEigenfun:
    def test_report(self, tmp_path):
        code, out = run(tmp_path, "eigenfun", "--profile", "sphere", *FAST, "--modes", "2")
        assert code == 0
        rep = json.loads((out / "eigenfun_report.json").read_text())
        assert "2" in rep and rep["2"]["interior_max"] > 0

    def test_report_describes_bifurcation_eigenpair(self, tmp_path):
        # without --omega the report's lambda is that of the eigenpair
        # written to eigenfun_m{m}.csv, i.e. bifpoints' lambda
        args = ["--profile", "spheroid:0.5", "--phi-nodes", "48", "--de-level", "8", "--modes", "3,4"]
        code, out = run(tmp_path / "e", "eigenfun", *args)
        assert code == 0
        code, bif = run(tmp_path / "b", "bifpoints", *args)
        assert code == 0
        rep = json.loads((out / "eigenfun_report.json").read_text())
        for line in (bif / "bifpoints.csv").read_text().splitlines()[1:]:
            m, _, lam = line.split(",")
            assert abs(rep[m]["lambda"] - 1.0) <= 1e-10
            assert rep[m]["lambda"] == pytest.approx(float(lam), abs=1e-12)
            name = f"eigenfun_m{m}.csv"
            assert (out / name).read_bytes() == (bif / name).read_bytes()


class TestBranch:
    def test_small_branch(self, tmp_path):
        code, out = run(
            tmp_path, "branch", "--profile", "sphere", *FAST,
            "--modes", "2", "--s-max", "0.006", "--steps", "2",
        )
        assert code == 0
        payload = json.loads((out / "branch.json").read_text())
        assert payload["failed_at"] is None
        assert payload["newton_tol"] == NEWTON_TOL
        assert (payload["n_vphi"], payload["n_eta"]) == (Collocation.n_vphi, Collocation.n_eta)
        assert len(payload["points"]) == 2
        for pt in payload["points"]:
            assert pt["residual"] <= 1e-8
            assert pt["axis_velocity"] <= 1e-8
        surf = (out / "branch_point_001.csv").read_text().splitlines()
        assert surf[0] == "phi,theta,r"
        assert len(surf) == 1 + 24 * 64

    def test_config_file_and_echo(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": "sphere", "phi_nodes": 24, "de_level": 7, "modes": [2], "s_max": 0.004, "steps": 1}))
        out = tmp_path / "out"
        code = main(["branch", "--config", str(cfg), "--outdir", str(out)])
        assert code == 0
        echo = json.loads((out / "branch_config.json").read_text())
        assert echo["phi_nodes"] == 24 and echo["s_max"] == 0.004

    @pytest.mark.parametrize("key", ["no_such_key", "eig_tol", "quad_tol", "newton_tol", "format", "threads"])
    def test_unknown_config_key(self, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        assert main(["branch", "--config", str(cfg), "--outdir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "entry",
        [
            {"phi_nodes": "16"},
            {"modes": "2,3"},
            {"modes": [2.5]},
            {"steps": 2.0},
            {"guard": "1e-3"},
            {"omega": "0.1"},
            {"axis_z": [0.0, "x"]},
            {"profile": 3},
            {"n_modes": True},
        ],
    )
    def test_config_value_of_wrong_type(self, tmp_path, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        assert main(["branch", "--config", str(cfg), "--outdir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "command,args",
        [
            ("branch", ["--s-max", "nan"]),
            ("eigenfun", ["--omega", "inf"]),
            ("dispersion", ["--omega-grid=0.1,nan"]),
            ("branch", ["--config", "axis_z_nan.json"]),
        ],
    )
    def test_non_finite_value_exit_2(self, tmp_path, command, args):
        # rejected before the config echo, which would hold bare NaN tokens
        (tmp_path / "axis_z_nan.json").write_text('{"axis_z": [NaN]}')
        args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
        code, out = run(tmp_path, command, "--profile", "sphere", "--phi-nodes", "8", "--modes", "2", *args)
        assert code == 2
        assert not list(out.glob("*_config.json"))

    def test_mode_below_2_exit_2(self, tmp_path):
        code, out = run(tmp_path, "branch", "--profile", "sphere", "--phi-nodes", "8", "--modes", "1", "--steps", "1")
        assert code == 2
        assert not (out / "branch.json").exists()

    def test_more_than_one_mode_exit_2(self, tmp_path):
        # branch continues one m: the rest of --modes would go unused
        code, out = run(
            tmp_path, "branch", "--profile", "sphere", "--phi-nodes", "8", "--modes", "2,3",
            "--n-modes", "2", "--theta-nodes", "4", "--s-max", "0.002", "--steps", "1",
        )
        assert code == 2
        assert json.loads((out / "branch_config.json").read_text())["modes"] == [2, 3]
        assert not (out / "branch.json").exists()

    def test_empty_modes_exit_2(self, tmp_path):
        # an empty --modes would leave m to a default the config echo does not show
        code, out = run(
            tmp_path, "branch", "--profile", "sphere", "--phi-nodes", "8", "--modes", "",
            "--n-modes", "2", "--theta-nodes", "4", "--s-max", "0.002", "--steps", "1",
        )
        assert code == 2
        assert json.loads((out / "branch_config.json").read_text())["modes"] == []
        assert not (out / "branch.json").exists()

    def test_default_mode_is_2(self, tmp_path):
        # without --modes, branch continues m = 2, not the list 2..6 of the
        # spectral commands
        code, out = run(
            tmp_path, "branch", "--profile", "sphere", "--phi-nodes", "8",
            "--n-modes", "2", "--theta-nodes", "4", "--s-max", "0.002", "--steps", "1",
        )
        assert code == 0
        assert json.loads((out / "branch_config.json").read_text())["modes"] == [2]
        assert json.loads((out / "branch.json").read_text())["m"] == 2

    def test_zero_modes_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "branch", "--profile", "sphere", *FAST, "--modes", "2", "--n-modes", "0")
        assert code == 2

    def test_modes_not_below_theta_nodes_exit_2(self, tmp_path):
        # n_modes >= n_theta makes the collocation system singular
        args = ["branch", "--profile", "sphere", "--phi-nodes", "8", "--modes", "2", "--n-modes", "8", "--theta-nodes", "8", "--steps", "1"]
        code, _ = run(tmp_path, *args)
        assert code == 2

    @pytest.mark.parametrize("s_max,steps", [("0", "2"), ("nan", "1"), ("inf", "1")])
    def test_degenerate_s_max_exit_2(self, tmp_path, s_max, steps):
        # s_max = 0 once made the second predictor 0/0 and wrote a NaN point
        code, out = run(
            tmp_path, "branch", "--profile", "sphere", "--phi-nodes", "8", "--de-level", "5", "--modes", "2",
            "--n-modes", "2", "--theta-nodes", "4", "--s-max", s_max, "--steps", steps,
        )
        assert code == 2
        result = out / "branch.json"
        assert not result.exists() or "NaN" not in result.read_text()

    def test_asymmetric_profile_exit_0(self, tmp_path):
        # a profile without the equatorial mirror solves every phi node;
        # s -> -s is a half-period shift in theta, so Omega is even in s
        phi = np.linspace(0.0, np.pi, 401)
        r0 = np.sin(phi) * (1.0 + 0.1 * np.cos(phi))
        csv = tmp_path / "asym.csv"
        csv.write_text("phi,r0\n" + "\n".join(f"{p:.17g},{r:.17g}" for p, r in zip(phi, r0)) + "\n")
        omegas = []
        for s_max in ("0.01", "-0.01"):
            code, out = run(
                tmp_path / s_max, "branch", "--profile", f"file:{csv}", "--phi-nodes", "16", "--de-level", "6",
                "--modes", "2", "--n-modes", "2", "--theta-nodes", "4", f"--s-max={s_max}", "--steps", "2",
            )
            assert code == 0
            points = json.loads((out / "branch.json").read_text())["points"]
            assert len(points) == 2
            assert all(pt["axis_velocity"] <= 1e-14 for pt in points)
            omegas.append([pt["omega"] for pt in points])
        assert np.max(np.abs(np.subtract(*omegas))) <= 1e-13


class TestDegenerateProfile:
    """A profile the kernel cannot carry ends in a documented exit code,
    with a message and the config echo, never in a traceback: r0 <= 0 at
    a grid node is refused before any solve (2), and a radius so small
    that H_n overflows, or so large, is a solver failure (3).  Run as a real process
    through the module entry point with RuntimeWarnings as errors: the
    overflow must not warn."""

    ARGS = {
        "bifpoints": ["--modes", "2"],
        "dispersion": ["--modes", "1,2", "--omega-grid", "0"],
        "eigenfun": ["--modes", "2"],
        "branch": ["--n-modes", "2", "--theta-nodes", "4", "--s-max", "0.002", "--steps", "1"],
        "crosscheck": ["--modes", "2"],
    }

    @pytest.mark.parametrize("command", sorted(ARGS))
    @pytest.mark.parametrize(
        "spec,code,says",
        [
            ("series:0", 2, "r0 = 0 is not positive at the grid node"),
            ("series:1,2", 2, "is not positive at the grid node"),
            ("spheroid:1e-300", 3, "solver error"),
            ("spheroid:1e200", 3, "solver error"),
        ],
        ids=["series:0", "series:1,2", "spheroid:1e-300", "spheroid:1e200"],
    )
    def test_exit_code_without_traceback(self, tmp_path, command, spec, code, says):
        out = tmp_path / "out"
        argv = [command, "--profile", spec, "--phi-nodes", "16", "--de-level", "4", *self.ARGS[command]]
        env = {**os.environ, "PYTHONPATH": str(Path(qg3d.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "qg3d.cli", *argv, "--outdir", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr + proc.stdout
        assert "Warning" not in proc.stderr
        assert says in proc.stderr
        assert json.loads((out / f"{command}_config.json").read_text())["profile"] == spec


class TestCrosscheck:
    def test_runs(self, tmp_path):
        code, out = run(tmp_path, "crosscheck", "--profile", "sphere", *FAST, "--modes", "2")
        assert code == 0
        payload = json.loads((out / "crosscheck.json").read_text())
        assert float(payload["discrepancy"]["2"]) <= 1e-5


class TestResourceLimits:
    def test_tanh_sinh_level_too_large_exit_2(self, tmp_path, capsys):
        # level 40 would ask for 29 TiB of rule nodes; it is refused before
        code, out = run(tmp_path, "bifpoints", "--phi-nodes", "16", "--de-level", "40", "--modes", "2")
        assert code == 2
        assert "level must lie in 1..16" in capsys.readouterr().err
        assert json.loads((out / "bifpoints_config.json").read_text())["de_level"] == 40

    def test_out_of_memory_exit_3(self, tmp_path, monkeypatch, capsys):
        def too_big(ctx, m):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(spectral, "find_bifurcation_point", too_big)
        code, out = run(tmp_path, "bifpoints", "--phi-nodes", "16", "--de-level", "4", "--modes", "2")
        assert code == 3
        assert "qg3d: solver error: out of memory: Unable to allocate 74.5 GiB" in capsys.readouterr().err
        assert (out / "bifpoints_config.json").exists() and not (out / "bifpoints.csv").exists()


class TestLinAlgError:
    def test_eigensolve_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        # a LAPACK failure in the eigensolve is a solver error naming the
        # mode, with the config echo written, not a traceback
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        code, out = run(tmp_path, "bifpoints", "--phi-nodes", "16", "--de-level", "4", "--modes", "2")
        assert code == 3
        assert "qg3d: solver error: find_bifurcation_point: mode 2: Eigenvalues did not converge" in capsys.readouterr().err
        assert (out / "bifpoints_config.json").exists() and not (out / "bifpoints.csv").exists()


class TestFlags:
    """Every RunConfig field is one --flag, the field's name with - for _."""

    # a valid value for every field, unlike its default
    VALUES = {
        "profile": "spheroid:2",
        "phi_nodes": 10,
        "theta_nodes": 6,
        "de_level": 5,
        "direct_level": 4,
        "n_modes": 3,
        "guard": 0.005,
        "modes": [3, 4],
        "omega_grid": [-0.5, 0.1],
        "omega": 0.05,
        "s_max": 0.01,
        "steps": 3,
        "axis_z": [-0.25, 0.5],
        "outdir": "set-by-itself",
    }

    def test_flag_and_config_file_write_the_same_echo(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli.COMMANDS, "dispersion", lambda cfg, ctx, outdir: 0)    # the echo alone
        names = [f.name for f in dataclasses.fields(RunConfig)]
        assert sorted(names) == sorted(self.VALUES)
        for name in names:
            out = tmp_path / (self.VALUES[name] if name == "outdir" else name)
            val = str(out) if name == "outdir" else self.VALUES[name]
            assert val != getattr(RunConfig(), name)
            text = ",".join(map(str, val)) if isinstance(val, list) else str(val)
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({name: val}))
            rest = [] if name == "outdir" else ["--outdir", str(out)]
            echoes = []
            for setting in ([f"--{name.replace('_', '-')}={text}"], ["--config", str(config)]):
                assert main(["dispersion", *setting, *rest]) == 0
                echo = out / "dispersion_config.json"
                echoes.append(echo.read_bytes())
                echo.unlink()
            assert echoes[0] == echoes[1], name
            assert json.loads(echoes[0])[name] == val

    def test_axis_z_reaches_the_solver(self, tmp_path, monkeypatch):
        seen, on_axis = [], nonlinear.velocity_on_axis
        monkeypatch.setattr(nonlinear, "velocity_on_axis", lambda col, f, z: seen.append(z) or on_axis(col, f, z))
        code, out = run(
            tmp_path, "branch", "--profile", "sphere", "--phi-nodes", "8", "--n-modes", "2", "--theta-nodes", "4",
            "--s-max", "0.002", "--steps", "1", "--axis-z=0.1,0.2",
        )
        assert code == 0
        assert seen == [[0.1, 0.2]]
