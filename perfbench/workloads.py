"""The benchmark's workloads: CLI arguments made from a seed, and the
per-operation checks of the written outputs against exact sphere oracles.

Every check returns ``(attempted, failed, worst_error)``.  ``worst_error``
is the largest deviation from the oracle over the run's operations; the
benchmark reports ``-log10`` of it as ``accuracy_digits``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DISPERSION_TOL = 1e-4      # |lambda (2n+1)(1/3 - Omega) - 1|
BIFPOINT_TOL = 1e-6        # |Omega_m - (1/3 - 1/(2m+1))|, criterion 6's drift bound
# branch points: criterion 12's bounds
BRANCH_RESIDUAL = 1e-8
BRANCH_ITERATIONS = 12
BRANCH_AXIS = 1e-8
BRANCH_VELOCITY_FORM = 1e-5
BRANCH_MONOTONE_SLACK = 1e-9
BRANCH_STEP = 0.003        # s_max / steps, as in criterion 12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: list          # qg3d CLI arguments without --outdir
    operations: int     # operations one invocation attempts
    check: object       # check(outdir, argv) -> (attempted, failed, worst_error)


def _worse(worst: float, err: float) -> float:
    return math.inf if math.isnan(err) else max(worst, err)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _option(argv: list, flag: str) -> str:
    for i, a in enumerate(argv):
        if a == flag:
            return argv[i + 1]
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
    raise KeyError(flag)


def _ints(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def check_dispersion(outdir: Path, argv: list):
    """One operation per requested (n, Omega), each against the sphere's
    lambda_n(Omega) = 1 / ((2n+1)(1/3 - Omega)), plus one for an empty
    monotonicity-anomaly file."""
    modes = _ints(_option(argv, "--modes"))
    omegas = [float(s) for s in _option(argv, "--omega-grid").split(",")]
    got = {}
    for row in _read_csv(outdir / "dispersion.csv"):
        got[(int(row["n"]), float(row["omega"]))] = float(row["lambda"])
    failed, worst = 0, 0.0
    for n in modes:
        for om in omegas:
            lam = got.get((n, om))
            err = math.inf if lam is None else abs(lam * (2 * n + 1) * (1.0 / 3.0 - om) - 1.0)
            worst = _worse(worst, err)
            failed += not err <= DISPERSION_TOL
    failed += len(_read_csv(outdir / "dispersion_anomalies.csv")) != 0
    return len(modes) * len(omegas) + 1, failed, worst


def check_bifpoints(outdir: Path, argv: list):
    """One operation per requested m, against Omega_m = 1/3 - 1/(2m+1)."""
    modes = _ints(_option(argv, "--modes"))
    got = {int(r["m"]): float(r["omega_m"]) for r in _read_csv(outdir / "bifpoints.csv")}
    failed, worst = 0, 0.0
    for m in modes:
        om = got.get(m)
        err = math.inf if om is None else abs(om - (1.0 / 3.0 - 1.0 / (2 * m + 1)))
        worst = _worse(worst, err)
        failed += not err <= BIFPOINT_TOL
    return len(modes), failed, worst


def check_branch(outdir: Path, argv: list):
    """One operation per requested branch point, with criterion 12's
    bounds, and |Omega(s) - Omega_2| non-decreasing along the branch.
    The oracle error is the velocity-form residual or the axis velocity,
    both of which vanish for an exact solution."""
    steps = int(_option(argv, "--steps"))
    m = _ints(_option(argv, "--modes"))[0]
    omega_m = 1.0 / 3.0 - 1.0 / (2 * m + 1)
    points = json.loads((outdir / "branch.json").read_text())["points"]
    failed, worst, prev_gap = 0, 0.0, 0.0
    for pt in points[:steps]:
        worst = _worse(_worse(worst, pt["velocity_form_residual"]), pt["axis_velocity"])
        gap = abs(pt["omega"] - omega_m)
        ok = (
            pt["residual"] <= BRANCH_RESIDUAL
            and pt["iterations"] <= BRANCH_ITERATIONS
            and pt["axis_velocity"] <= BRANCH_AXIS
            and pt["velocity_form_residual"] <= BRANCH_VELOCITY_FORM
            and gap >= prev_gap - BRANCH_MONOTONE_SLACK
        )
        failed += not ok
        prev_gap = gap
    missing = steps - min(len(points), steps)
    if missing:
        worst = math.inf
    return steps, failed + missing, worst


def _dispersion_argv(rng: random.Random, nodes: int, level: int, modes: int, n_omega: int) -> list:
    # one Omega drawn from each of n_omega equal sub-intervals of [-2, 0.3]
    lo, hi = -2.0, 0.3
    width = (hi - lo) / n_omega
    omegas = [lo + width * (k + rng.random()) for k in range(n_omega)]
    return [
        "dispersion", "--profile", "sphere", "--phi-nodes", str(nodes), "--de-level", str(level),
        "--modes", ",".join(str(n) for n in range(1, modes + 1)),
        "--omega-grid=" + ",".join(repr(om) for om in omegas),
    ]


def _bifpoints_argv(nodes: int, level: int, modes: list) -> list:
    return [
        "bifpoints", "--profile", "sphere", "--phi-nodes", str(nodes), "--de-level", str(level),
        "--modes", ",".join(str(m) for m in modes),
    ]


def _branch_argv(rng: random.Random, nodes: int, steps: int, n_modes: int, theta_nodes: int) -> list:
    # s_max jittered by up to 1 % around steps * BRANCH_STEP
    s_max = steps * BRANCH_STEP * (1.0 + 0.01 * (2.0 * rng.random() - 1.0))
    return [
        "branch", "--profile", "sphere", "--phi-nodes", str(nodes), "--de-level", "7",
        "--modes", "2", "--n-modes", str(n_modes), "--theta-nodes", str(theta_nodes),
        "--s-max", repr(s_max), "--steps", str(steps),
    ]


WHY = {
    "dispersion": "lumped kernel tables dominate: 8 mode tables each reused by only 6 eigensolves, no product-integration matrix B, no bisection",
    "bifpoints": "tables reused heavily and B built per mode: about 40 assemble, power and refine solves per mode on cached tables",
    "branch": "the nonlinear layer: stream residuals, finite-difference Jacobian and damped Newton; kernel tables are negligible",
}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``tiny`` gives the same shape on
    a grid small enough for the harness self-test."""
    rng = random.Random(seed)
    if name == "dispersion":
        argv = _dispersion_argv(rng, 32, 4, 3, 2) if tiny else _dispersion_argv(rng, 96, 7, 8, 6)
        ops = (3 * 2 if tiny else 8 * 6) + 1
        return Workload(name, WHY[name], argv, ops, check_dispersion)
    if name == "bifpoints":
        modes = [2, 3] if tiny else [2, 3, 4, 5, 6]
        argv = _bifpoints_argv(16, 4, modes) if tiny else _bifpoints_argv(96, 7, modes)
        return Workload(name, WHY[name], argv, len(modes), check_bifpoints)
    if name == "branch":
        argv = _branch_argv(rng, 8, 1, 2, 4) if tiny else _branch_argv(rng, 8, 2, 4, 8)
        return Workload(name, WHY[name], argv, int(_option(argv, "--steps")), check_branch)
    raise KeyError(name)


NAMES = ("dispersion", "bifpoints", "branch")
