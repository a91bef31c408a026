"""Command-line front end.

    qg3d <validate|dispersion|bifpoints|eigenfun|branch|crosscheck>
         [--config cfg.json] [overrides...]

Every run writes a resolved-config echo next to its outputs so results
are reproducible from the artifacts alone.  Numeric CSV output uses 17
significant digits and LF line endings; reruns with identical
configuration produce byte-identical files.

Exit codes: 0 success, 1 I/O or parse failure, 2 validation/config
failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import nonlinear, spectral
from .errors import AccuracyError, DomainError, GeometryError, SolverError
from .kernel import KernelContext, assemble_kernel_matrix
from .linop import cross_validate
from .profiles import arc_chord_constants, make_profile, profile_from_csv, validate_profile

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


@dataclass
class RunConfig:
    """Resolved run configuration (JSON file merged with CLI overrides).
    The solver settings default to the defaults of the ``KernelContext``
    and ``nonlinear.Collocation`` fields they drive.  ``modes`` defaults to
    2..6, and to the one mode 2 for ``branch``, which continues one m."""

    profile: str = "sphere"
    phi_nodes: int = KernelContext.n_nodes
    theta_nodes: int = nonlinear.Collocation.n_theta
    de_level: int = KernelContext.de_level
    direct_level: int = KernelContext.direct_level
    n_modes: int = nonlinear.Collocation.n_modes
    guard: float = KernelContext.guard_frac
    modes: list[int] = field(default_factory=lambda: [2, 3, 4, 5, 6])
    omega_grid: list[float] = field(default_factory=list)
    omega: float | None = None
    s_max: float = 0.03
    steps: int = 10
    axis_z: list[float] = field(default_factory=lambda: [-0.5, 0.0, 0.3])
    outdir: str = "out"

    def check(self):
        if self.phi_nodes < 8:
            raise DomainError("config: phi_nodes must be >= 8")
        if self.theta_nodes < 2:
            raise DomainError("config: theta_nodes must be >= 2")
        if not 0.0 < self.guard < 1e-2:
            raise DomainError(f"config: guard must lie in (0, 1e-2), got {self.guard}")
        if self.steps < 1:
            raise DomainError("config: steps must be >= 1")
        for key in ("s_max", "omega", "omega_grid", "axis_z"):
            val = getattr(self, key)
            if val is not None and not np.all(np.isfinite(val)):
                raise DomainError(f"config: {key} must be finite, got {val}")


def _fits(hint, val) -> bool:
    """True if a config-file value has the type of its RunConfig field
    (an int is accepted where a float is expected, a bool nowhere)."""
    if isinstance(val, bool):
        return False
    if hint == float | None:
        return val is None or _fits(float, val)
    if get_origin(hint) is list:
        return isinstance(val, list) and all(_fits(get_args(hint)[0], v) for v in val)
    return isinstance(val, (int, float) if hint is float else hint)


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (float, np.floating)) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _json_safe(obj):
    """obj with every non-finite float, NaN or +-inf, replaced by None."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, obj) -> None:
    """Strict JSON: a non-finite float is written as null."""
    text = json.dumps(_json_safe(obj), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", newline="\n")


def _load_profile(spec: str):
    kind, _, arg = spec.partition(":")
    try:
        if spec == "sphere":
            return make_profile("sphere")
        if kind == "spheroid":
            return make_profile("spheroid", a=float(arg))
        if kind == "series":
            return make_profile("series", g=[float(c) for c in arg.split(",")])
    except ValueError:
        raise DomainError(f"profile spec {spec!r}: bad number {arg!r}") from None
    if kind == "file":
        return profile_from_csv(arg)
    raise DomainError(f"unknown profile spec {spec!r} (expected sphere | spheroid:a | series:c0,c1,... | file:path)")


def _context(cfg: RunConfig, profile) -> KernelContext:
    return KernelContext(profile, cfg.phi_nodes, cfg.de_level, cfg.direct_level, cfg.guard)


def _echo_config(cfg: RunConfig, outdir: Path, command: str) -> None:
    _write_json(outdir / f"{command}_config.json", asdict(cfg))


def cmd_validate(cfg: RunConfig, profile, outdir: Path) -> int:
    """``validate.json``: the fields of the profile's ValidationReport,
    with ``profile``, the arc-chord constants, ``kappa`` and ``passed``.
    It reports the profile's hypotheses also where the solvers refuse it:
    ``kappa`` is null when no context or no kappa can be computed, the
    arc-chord constants are null when they are not finite, and the profile
    then fails."""
    report = validate_profile(profile, max(cfg.phi_nodes, 64))
    try:
        c_lo, c_hi = arc_chord_constants(profile)
    except GeometryError:
        c_lo = c_hi = None
    try:
        kappa = _context(cfg, profile).kappa
    except (GeometryError, AccuracyError):
        kappa = None
    payload = {"profile": cfg.profile, **asdict(report), "arc_chord_lo": c_lo, "arc_chord_hi": c_hi, "kappa": kappa}
    payload["passed"] = report.passed and kappa is not None and c_lo is not None
    _write_json(outdir / "validate.json", payload)
    return EXIT_OK if payload["passed"] else EXIT_VALIDATION


def cmd_dispersion(cfg: RunConfig, ctx: KernelContext, outdir: Path) -> int:
    curve = spectral.dispersion_scan(ctx, cfg.modes, cfg.omega_grid)
    _write_csv(outdir / "dispersion.csv", ["n", "omega", "lambda", "iterations", "residual"], curve.rows)
    _write_csv(outdir / "dispersion_anomalies.csv", ["kind", "first", "second", "at"], curve.anomalies)
    return EXIT_OK


def _eigenfunctions(ctx: KernelContext, modes, omega, outdir: Path):
    """Yield (m, h, omega, lambda) per listed mode m, on one walk of every
    B_m: the eigenpair of Omega_m, or the top eigenpair of K_m at ``omega``
    when it is given, with ``eigenfun_m{m}.csv`` written before the next
    mode is solved.  Modes below 1 are left to the solvers, which reject
    them after the outputs of the modes listed before them are written."""
    ctx.mode_b_matrices(m for m in modes if m >= 1)
    for m in modes:
        if omega is None:
            bp = spectral.find_bifurcation_point(ctx, m)
            h, om, lam = bp.eigfun, bp.omega_m, bp.lam
        else:
            res = spectral.largest_eigenvalue(assemble_kernel_matrix(ctx, m, omega))
            h, om, lam = res.eigvec, omega, res.lam
        _write_csv(outdir / f"eigenfun_m{m}.csv", ["phi", "h"], list(zip(ctx.nodes, h)))
        yield m, h, om, lam


def cmd_bifpoints(cfg: RunConfig, ctx: KernelContext, outdir: Path) -> int:
    rows = [(m, om, lam) for m, _, om, lam in _eigenfunctions(ctx, cfg.modes, None, outdir)]
    _write_csv(outdir / "bifpoints.csv", ["m", "omega_m", "lambda"], rows)
    return EXIT_OK


def cmd_eigenfun(cfg: RunConfig, ctx: KernelContext, outdir: Path) -> int:
    reports = {}
    for m, h, omega, lam in _eigenfunctions(ctx, cfg.modes, cfg.omega, outdir):
        rep = spectral.eigenfunction_boundary_report(ctx, h)
        reports[str(m)] = {
            "omega": omega,
            "lambda": lam,
            "boundary_0": rep.value_0,
            "boundary_pi": rep.value_pi,
            "interior_max": rep.interior_max,
        }
    _write_json(outdir / "eigenfun_report.json", reports)
    return EXIT_OK


def cmd_branch(cfg: RunConfig, ctx: KernelContext, outdir: Path) -> int:
    if len(cfg.modes) != 1:
        raise DomainError(f"branch continues one mode m, got modes {cfg.modes}: pass --modes with one value")
    col = nonlinear.Collocation(ctx, cfg.modes[0], n_modes=cfg.n_modes, n_theta=cfg.theta_nodes)
    branch = nonlinear.continue_branch(col, cfg.s_max, cfg.steps)
    theta_out = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    points_meta = []
    for i, pt in enumerate(branch.points):
        axis = nonlinear.velocity_on_axis(col, pt.f, cfg.axis_z)
        points_meta.append(
            {
                "s": pt.s,
                "omega": pt.omega,
                "residual": pt.residual,
                "iterations": pt.iterations,
                "axis_velocity": axis,
                "velocity_form_residual": pt.velocity_residual,
            }
        )
        r = pt.f.radius_at_nodes(theta_out)
        rows = [
            (ctx.nodes[ip], theta_out[it], r[ip, it])
            for ip in range(ctx.n_nodes)
            for it in range(len(theta_out))
        ]
        _write_csv(outdir / f"branch_point_{i + 1:03d}.csv", ["phi", "theta", "r"], rows)
    payload = {
        "m": branch.bp.m,
        "omega_m": branch.bp.omega_m,
        "s_max": cfg.s_max,
        "steps": cfg.steps,
        "newton_tol": nonlinear.NEWTON_TOL,
        "n_vphi": col.n_vphi,
        "n_eta": col.n_eta,
        "failed_at": branch.failed_at,
        "message": branch.message,
        "points": points_meta,
    }
    _write_json(outdir / "branch.json", payload)
    return EXIT_OK if branch.failed_at is None else EXIT_SOLVER


def cmd_crosscheck(cfg: RunConfig, ctx: KernelContext, outdir: Path) -> int:
    results = {}
    for n in cfg.modes:
        h = np.sin(ctx.nodes) ** 2
        omega = cfg.omega if cfg.omega is not None else 0.0
        results[str(n)] = cross_validate(ctx, n, omega, h)
    _write_json(outdir / "crosscheck.json", {"profile": cfg.profile, "discrepancy": results})
    return EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "dispersion": cmd_dispersion,
    "bifpoints": cmd_bifpoints,
    "eigenfun": cmd_eigenfun,
    "branch": cmd_branch,
    "crosscheck": cmd_crosscheck,
}


def _parse_args(argv):
    """The command, ``--config`` and one ``--flag`` per RunConfig field,
    named after it with - for _: a list field takes comma-separated text,
    which _build_config splits, and ``float | None`` takes a float."""
    ap = argparse.ArgumentParser(prog="qg3d", description=__doc__)
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", help="JSON config file")
    for key, hint in get_type_hints(RunConfig).items():
        is_list = get_origin(hint) is list
        kind = str if is_list else float if hint == float | None else hint
        ap.add_argument("--" + key.replace("_", "-"), type=kind, help="comma-separated list" if is_list else None)
    return ap.parse_args(argv)


def _build_config(args) -> RunConfig:
    cfg = RunConfig(modes=[2]) if args.command == "branch" else RunConfig()
    hints = get_type_hints(RunConfig)
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise OSError(f"config file {args.config}: {exc}") from exc
        for key, val in raw.items():
            if key not in hints:
                raise DomainError(f"config file: unknown key {key!r}")
            if not _fits(hints[key], val):
                raise DomainError(f"config file: value {val!r} of {key!r} has the wrong type")
            setattr(cfg, key, val)
    for key, val in vars(args).items():
        if key not in hints or val is None:
            continue
        if get_origin(hints[key]) is list:
            val = _list_arg("--" + key.replace("_", "-"), val, get_args(hints[key])[0])
        setattr(cfg, key, val)
    cfg.check()
    return cfg


def _list_arg(flag: str, text: str, kind) -> list:
    """Comma-separated values of ``flag``; a bad item is a DomainError."""
    items = [s for s in text.split(",") if s.strip()]
    try:
        return [kind(s) for s in items]
    except ValueError:
        raise DomainError(f"{flag}: expected comma-separated {kind.__name__} values, got {text!r}") from None


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cfg = _build_config(args)
    except (OSError,) as exc:
        print(f"qg3d: {exc}", file=sys.stderr)
        return EXIT_IO
    except DomainError as exc:
        print(f"qg3d: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        profile = _load_profile(cfg.profile)
    except (OSError, DomainError, GeometryError) as exc:
        print(f"qg3d: cannot load profile: {exc}", file=sys.stderr)
        return EXIT_IO
    outdir = Path(cfg.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        _echo_config(cfg, outdir, args.command)
        if args.command == "validate":
            return cmd_validate(cfg, profile, outdir)
        return COMMANDS[args.command](cfg, _context(cfg, profile), outdir)
    except OSError as exc:
        print(f"qg3d: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DomainError, GeometryError) as exc:
        print(f"qg3d: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverError, AccuracyError) as exc:
        print(f"qg3d: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        print("qg3d: solver error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
