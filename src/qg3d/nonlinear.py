"""Nonlinear rotating-patch functional and branch continuation.

A shape near the revolution profile is r(phi, theta) = r0(phi) + f with
an m-fold cosine perturbation f = sum_k f_k(phi) cos(k m theta).  The
stationarity functional in the rotating frame is

    Ftilde(Omega, f) = [ I(f) - (Omega/2) r^2 - mean_theta(...) ] / r0(phi),

where I(f) is the Newtonian volume potential of the deformed body
evaluated on its boundary.  The radial part of the triple integral is
integrated in closed form (antiderivative of r / sqrt(r^2 - 2cr + d^2)),
leaving a 2-d (vphi, eta) quadrature whose only singular point is the
evaluation target; both directions split there and use tanh-sinh rules.
One batched path, ``_stream``, evaluates I(f) for every caller: per phi
target it contracts a block of theta targets and both eta half-ranges
in one tensor, whether the targets are the collocation grid (Ftilde,
the Newton residual, the velocity-form check) or single points and
full circles (``stream_I``, ``mean_m``, ``f_tilde_circle``).

The branch of rotating solutions through the mode-m bifurcation point is
parametrized by the amplitude s = <f, h*_m> and corrected by a damped
Newton iteration on the square collocation system
{mode coefficients of Ftilde = 0, amplitude = s} in the unknowns
(f-coefficients on the equatorial half grid, Omega).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, SolverError
from .kernel import KernelContext
from .quadrature import double_exponential, interp_matrix, periodic_trapezoid, split_de
from .spectral import BifurcationPoint, find_bifurcation_point

__all__ = [
    "Collocation",
    "Perturbation",
    "BranchPoint",
    "Branch",
    "stream_I",
    "mean_m",
    "f_tilde",
    "f_tilde_modes",
    "velocity_residual",
    "velocity_on_axis",
    "newton_correct",
    "continue_branch",
]

NEWTON_TOL = 1e-8
NEWTON_MAXIT = 25
FD_STEP = 1e-6
DAMP_MAX = 6
REFRESH_AFTER = 8


# --------------------------------------------------------------------------
# collocation setup
# --------------------------------------------------------------------------


@dataclass(eq=False)
class Collocation:
    """Collocation discretization of the nonlinear functional.

    phi targets are the equatorial half of the kernel-context grid
    (symmetry unfolds the other half); theta targets are the n_theta
    first-kind cosine sample points of one half m-period, which
    diagonalize the retained cos(k m theta) modes, k = 1..n_modes.
    """

    kctx: KernelContext
    m: int
    n_modes: int = 4
    n_theta: int = 8
    phi_level: int = 4
    eta_level: int = 4

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"Collocation: m must be >= 2, got {self.m}")
        if self.n_modes < 1:
            raise DomainError(f"Collocation: n_modes must be >= 1, got {self.n_modes}")
        N = self.kctx.n_nodes
        self.half = N // 2
        j = np.arange(self.n_theta)
        self.theta = (2 * j + 1) * np.pi / (2 * self.m * self.n_theta)
        rule = double_exponential(0.0, np.pi, self.eta_level)
        self.eta_nodes = rule.nodes
        self.eta_w = rule.weights
        k = np.arange(1, self.n_modes + 1)
        self.cos_ktheta = np.cos(k[:, None] * self.m * self.theta[None, :])
        self.sin_ktheta = np.sin(k[:, None] * self.m * self.theta[None, :])
        self._geom = {}

    def geometry(self, phi_t: float):
        """Split tanh-sinh vphi rule at the target phi_t with the profile
        and interpolation samples at its nodes, built once per target."""
        key = float(phi_t)
        if key not in self._geom:
            rule = split_de(0.0, np.pi, key, self.phi_level)
            vphi = rule.nodes
            self._geom[key] = {
                "wsin": rule.weights * np.sin(vphi),
                "P": interp_matrix(self.kctx.nodes, self.kctx.bary, vphi),
                "r0q": self.kctx.profile.r0(vphi),
                "dcos": np.cos(key) - np.cos(vphi),
            }
        return self._geom[key]


@dataclass(eq=False)
class Perturbation:
    """m-fold cosine perturbation: coeffs[k-1] holds f_k on the kernel grid."""

    m: int
    coeffs: np.ndarray
    kctx: KernelContext

    @classmethod
    def zero(cls, col: Collocation) -> "Perturbation":
        return cls(col.m, np.zeros((col.n_modes, col.kctx.n_nodes)), col.kctx)

    @classmethod
    def from_half(cls, col: Collocation, half_coeffs: np.ndarray) -> "Perturbation":
        full = np.concatenate([half_coeffs, half_coeffs[:, ::-1]], axis=1)
        return cls(col.m, full, col.kctx)

    def radius_at_nodes(self, theta) -> np.ndarray:
        """r(phi_i, theta) on the kernel grid for an array of theta."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        k = np.arange(1, self.coeffs.shape[0] + 1)
        modes = np.cos(k[:, None] * self.m * theta[None, :])
        return self.kctx.r0v[:, None] + np.einsum("kn,kt->nt", self.coeffs, modes)

    def validate(self, theta_samples: int = 64) -> dict:
        """Dirichlet extrapolants, equatorial defect and min radius."""
        x = self.kctx.nodes
        end = 0.0
        for row in self.coeffs:
            c0 = np.polyfit(x[:3], row[:3], 2)
            cpi = np.polyfit(x[-3:], row[-3:], 2)
            end = max(end, abs(np.polyval(c0, 0.0)), abs(np.polyval(cpi, np.pi)))
        sym = float(np.max(np.abs(self.coeffs - self.coeffs[:, ::-1])))
        theta = np.linspace(0.0, 2 * np.pi, theta_samples, endpoint=False)
        rmin = float(np.min(self.radius_at_nodes(theta)))
        return {"endpoint_defect": float(end), "equatorial_defect": sym, "r_min": rmin}


# --------------------------------------------------------------------------
# stream potential and the functional
# --------------------------------------------------------------------------


def _radial_closed_form(rup, c, q):
    """int_0^rup r dr / sqrt(r^2 - 2 c r + c^2 + q): antiderivative
    sqrt((r-c)^2 + q) + c ln(r - c + sqrt((r-c)^2 + q)), with the log
    argument computed cancellation-free on the r < c side."""
    s1 = np.sqrt((rup - c) ** 2 + q)
    z1 = np.where(rup >= c, (rup - c) + s1, q / np.maximum((c - rup) + s1, 1e-300))
    s0 = np.sqrt(c * c + q)
    z0 = np.where(c <= 0, -c + s0, q / np.maximum(c + s0, 1e-300))
    ratio = np.maximum(z1, 1e-300) / np.maximum(z0, 1e-300)
    return s1 - s0 + c * np.log(ratio)


def _angle_tables(col: Collocation, thetas: np.ndarray):
    """Tables over the flattened (theta target, +/- eta half-range) sides:
    side s = 2 j + bit holds the angle theta_j + eta (bit 0) or
    theta_j - eta (bit 1).  Returns cos(k m angle) and sin(k m angle),
    shape (n_modes, n_eta, n_sides), and exp(i angle), (n_eta, n_sides)."""
    signs = np.array([1.0, -1.0])
    angle = thetas[:, None, None] + signs[None, :, None] * col.eta_nodes[None, None, :]
    angle = angle.reshape(2 * len(thetas), len(col.eta_nodes)).T
    km = np.arange(1, col.n_modes + 1) * col.m
    return np.cos(km[:, None, None] * angle), np.sin(km[:, None, None] * angle), np.exp(1j * angle)


def _radii(col: Collocation, f: Perturbation, phis: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """r(phi_i, theta_j) with f_k interpolated barycentrically at phi_i
    (an exact one-hot row at a grid node), shape (len(phis), len(thetas))."""
    P = interp_matrix(col.kctx.nodes, col.kctx.bary, phis)
    k = np.arange(1, col.n_modes + 1)
    modes = np.cos(k[:, None] * col.m * thetas[None, :])
    return col.kctx.profile.r0(phis)[:, None] + np.einsum("kt,kj->tj", f.coeffs @ P.T, modes)


def _stream(col: Collocation, f: Perturbation, phis: np.ndarray, thetas: np.ndarray, R: np.ndarray) -> np.ndarray:
    """I(f) at the boundary targets (phis[i], thetas[j]) of radii R,
    shape (len(phis), len(thetas)).  Per phi target, blocks of at most
    n_theta theta targets and both eta half-ranges are batched into one
    tensor contraction, so no temporary outgrows the collocation grid's."""
    blocks = [slice(b, b + col.n_theta) for b in range(0, len(thetas), col.n_theta)]
    ang_cos = [_angle_tables(col, thetas[blk])[0] for blk in blocks]
    cos_e = np.cos(col.eta_nodes)
    sin_e = np.sin(col.eta_nodes)
    out = np.empty(R.shape)
    for i, phi in enumerate(phis):
        geom = col.geometry(phi)
        Fk = f.coeffs @ geom["P"].T
        wsin = geom["wsin"]
        for blk, tab in zip(blocks, ang_cos):
            rho = np.repeat(R[i, blk], 2)                          # (n_sides,)
            cs = rho[None, :] * cos_e[:, None]                     # (n_eta, n_sides)
            q = (rho[None, :] * sin_e[:, None]) ** 2 + geom["dcos"][:, None, None] ** 2
            rup = geom["r0q"][:, None, None] + np.einsum("kp,kes->pes", Fk, tab)
            K = _radial_closed_form(rup, cs[None, :, :], q)
            acc = np.einsum("p,e,pes->s", wsin, col.eta_w, K)
            out[i, blk] = -(acc[0::2] + acc[1::2]) / (4.0 * np.pi)
    return out


def stream_I(col: Collocation, f: Perturbation | None, phi: float, theta: float) -> float:
    """Volume potential of the deformed body at the boundary point
    (r(phi, theta) e^{i theta}, cos phi)."""
    if f is None:
        f = Perturbation.zero(col)
    rmin = float(np.min(f.radius_at_nodes(np.linspace(0, 2 * np.pi, 32, endpoint=False))))
    if rmin <= 0.0:
        raise GeometryError(f"stream_I: reconstructed radius is non-positive (min {rmin})")
    phis, thetas = np.array([float(phi)]), np.array([float(theta)])
    return float(_stream(col, f, phis, thetas, _radii(col, f, phis, thetas))[0, 0])


def _bracket(col: Collocation, omega: float, f: Perturbation, phis, thetas):
    """(r, I(f) - (Omega/2) r^2) at the boundary targets (phis[i],
    thetas[j]), each of shape (len(phis), len(thetas))."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    r = _radii(col, f, phis, thetas)
    if np.min(r) <= 0.0:
        raise GeometryError("reconstructed radius is non-positive at a target")
    return r, _stream(col, f, phis, thetas, r) - 0.5 * omega * r ** 2


def f_tilde(col: Collocation, omega: float, f: Perturbation | None) -> np.ndarray:
    """Ftilde(Omega, f) sampled on the collocation targets.

    The theta mean over the full period equals the mean over the cosine
    sample set (the sampling kills every retained nonzero mode exactly),
    so the output has exactly vanishing discrete theta average.
    """
    if f is None:
        f = Perturbation.zero(col)
    _, bracket = _bracket(col, omega, f, col.kctx.nodes[: col.half], col.theta)
    mean = bracket.mean(axis=1)
    return (bracket - mean[:, None]) / col.kctx.r0v[: col.half, None]


def f_tilde_modes(col: Collocation, omega: float, f: Perturbation | None) -> np.ndarray:
    """cos(k m theta) coefficients of Ftilde, k = 1..n_modes, shape
    (n_modes, half)."""
    samples = f_tilde(col, omega, f)
    return (2.0 / col.n_theta) * np.einsum("tj,kj->kt", samples, col.cos_ktheta)


def f_tilde_circle(col: Collocation, omega: float, f: Perturbation | None, phi_t: float, n_samples: int = 64) -> np.ndarray:
    """Ftilde(Omega, f)(phi_t, theta) sampled on a uniform full-circle
    theta grid (symmetry and mode-leakage diagnostics; the collocation
    path itself only ever touches one half m-period)."""
    if f is None:
        f = Perturbation.zero(col)
    vals = _bracket(col, omega, f, float(phi_t), periodic_trapezoid(n_samples).nodes)[1][0]
    return (vals - np.mean(vals)) / float(col.kctx.profile.r0(phi_t))


def mean_m(col: Collocation, omega: float, f: Perturbation | None, phi_t: float, full_period: bool = False) -> float:
    """Angular mean (1/2pi) int_0^{2pi} [ I(f) - (Omega/2) r^2 ] dtheta at
    colatitude phi_t.  By m-fold symmetry the mean over one period with
    the cosine sample set suffices; ``full_period`` instead samples the
    whole circle with a trapezoid rule (consistency check path)."""
    if f is None:
        f = Perturbation.zero(col)
    thetas = periodic_trapezoid(2 * col.m * col.n_theta).nodes if full_period else col.theta
    return float(np.mean(_bracket(col, omega, f, float(phi_t), thetas)[1][0]))


# --------------------------------------------------------------------------
# velocity-form diagnostics
# --------------------------------------------------------------------------


def _velocity_batch(col: Collocation, f: Perturbation, r_targets: np.ndarray) -> np.ndarray:
    """Horizontal boundary velocity (U1 + i U2) on the collocation
    targets via the surface integral
    (1/4pi) iint sin(vphi) (d_eta r + i r) e^{i eta} / dist."""
    km = (np.arange(1, col.n_modes + 1) * col.m).astype(float)
    ang_cos, ang_sin, exp_eta = _angle_tables(col, col.theta)
    cos_e = np.cos(col.eta_nodes)
    sin_e = np.sin(col.eta_nodes)
    out = np.empty((col.half, col.n_theta), dtype=complex)
    for t in range(col.half):
        geom = col.geometry(col.kctx.nodes[t])
        r0q, dcos = geom["r0q"], geom["dcos"]
        Fk = f.coeffs @ geom["P"].T
        wsin = geom["wsin"]
        rho = np.repeat(r_targets[t], 2)
        r = r0q[:, None, None] + np.einsum("kp,kes->pes", Fk, ang_cos)
        dr = -np.einsum("kp,k,kes->pes", Fk, km, ang_sin)
        d2 = (r - rho[None, None, :] * cos_e[None, :, None]) ** 2 \
            + (rho[None, None, :] * sin_e[None, :, None]) ** 2 + dcos[:, None, None] ** 2
        integrand = (dr + 1j * r) * exp_eta[None, :, :] / np.sqrt(d2)
        acc = np.einsum("p,e,pes->s", wsin, col.eta_w, integrand)
        out[t] = (acc[0::2] + acc[1::2]) / (4.0 * np.pi)
    return out


def velocity_residual(col: Collocation, omega: float, f: Perturbation | None) -> float:
    """Defect of the velocity-form/stream-form equivalence on the grid.

    The velocity form Re[(U_h - i Omega r e^{i theta})
    (i d_theta r + r) e^{-i theta}] equals minus the theta derivative of
    the stream bracket for any shape; the returned number is the max-norm
    of their sum, a pure quadrature-consistency measure.
    """
    if f is None:
        f = Perturbation.zero(col)
    R, bracket = _bracket(col, omega, f, col.kctx.nodes[: col.half], col.theta)
    k = np.arange(1, col.n_modes + 1)
    km = (k * col.m).astype(float)
    bmodes = (2.0 / col.n_theta) * np.einsum("tj,kj->kt", bracket, col.cos_ktheta)
    dbracket = -np.einsum("kt,k,kj->tj", bmodes, km, col.sin_ktheta)
    U = _velocity_batch(col, f, R)
    dth_r = -np.einsum("kt,k,kj->tj", f.coeffs[:, : col.half], km, col.sin_ktheta)
    phase = np.exp(1j * col.theta)[None, :]
    Fv = np.real((U - 1j * omega * R * phase) * (1j * dth_r + R) * np.conj(phase))
    return float(np.max(np.abs(Fv + dbracket)))


def _axis_velocity_grid(sinv, cosv, wphi, eta, weta, r_vals, dr_vals, z: float) -> complex:
    dist = np.sqrt(r_vals ** 2 + (z - cosv[:, None]) ** 2)
    i1 = np.einsum("p,e,pe->", wphi * sinv, weta, (dr_vals * np.cos(eta)[None, :] - r_vals * np.sin(eta)[None, :]) / dist)
    i2 = np.einsum("p,e,pe->", wphi * sinv, weta, (dr_vals * np.sin(eta)[None, :] + r_vals * np.cos(eta)[None, :]) / dist)
    return (i1 + 1j * i2) / (4.0 * np.pi)


def velocity_on_axis(col: Collocation, f: Perturbation | None, z_list) -> float:
    """max_z |U(0, 0, z)| for the reconstructed shape (vanishes for any
    m-fold symmetric surface with m >= 2)."""
    if f is None:
        f = Perturbation.zero(col)
    if f.m < 2:
        raise DomainError("velocity_on_axis: requires m-fold symmetry with m >= 2")
    ctx = col.kctx
    rule = periodic_trapezoid(256)
    eta, weta = rule.nodes, rule.weights
    k = np.arange(1, f.coeffs.shape[0] + 1)
    km = (k * f.m).astype(float)
    r_vals = f.radius_at_nodes(eta)
    dr_vals = -np.einsum("kn,k,ke->ne", f.coeffs, km, np.sin(km[:, None] * eta[None, :]))
    worst = 0.0
    for z in np.atleast_1d(z_list):
        U = _axis_velocity_grid(ctx.sinv, np.cos(ctx.nodes), ctx.weights, eta, weta, r_vals, dr_vals, float(z))
        worst = max(worst, abs(U))
    return worst


# --------------------------------------------------------------------------
# Newton corrector and branch continuation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchPoint:
    """One converged point of the bifurcated branch."""

    s: float
    omega: float
    f: Perturbation
    residual: float
    iterations: int


@dataclass(frozen=True)
class Branch:
    """Continuation output; ``failed_at`` marks a truncated run."""

    m: int
    omega_ref: float
    s_grid: np.ndarray
    points: list
    failed_at: int | None = None
    message: str = ""


def _pack(half_coeffs: np.ndarray, omega: float) -> np.ndarray:
    return np.concatenate([half_coeffs.ravel(), [omega]])


def _unpack(col: Collocation, u: np.ndarray):
    half = u[:-1].reshape(col.n_modes, col.half)
    return half, float(u[-1])


def _amplitude(col: Collocation, full_coeffs: np.ndarray, hstar: np.ndarray) -> float:
    w = col.kctx.weights
    return float(np.sum(full_coeffs[0] * hstar * w) / np.sum(hstar * hstar * w))


def _residual(col: Collocation, u: np.ndarray, s: float, hstar: np.ndarray) -> np.ndarray:
    half, omega = _unpack(col, u)
    f = Perturbation.from_half(col, half)
    modes = f_tilde_modes(col, omega, f)
    amp = _amplitude(col, f.coeffs, hstar) - s
    return np.concatenate([modes.ravel(), [amp]])


def _omega_column(col: Collocation, u: np.ndarray) -> np.ndarray:
    """Analytic d(residual)/d(Omega): the Omega dependence of Ftilde is
    -(r^2 - mean r^2) / (2 r0), no integrals involved."""
    half, _ = _unpack(col, u)
    f = Perturbation.from_half(col, half)
    R2 = f.radius_at_nodes(col.theta)[: col.half] ** 2
    dsample = -(R2 - R2.mean(axis=1)[:, None]) / (2.0 * col.kctx.r0v[: col.half, None])
    dmodes = (2.0 / col.n_theta) * np.einsum("tj,kj->kt", dsample, col.cos_ktheta)
    return np.concatenate([dmodes.ravel(), [0.0]])


def _jacobian(col: Collocation, u: np.ndarray, s: float, hstar: np.ndarray, base: np.ndarray) -> np.ndarray:
    n = len(u)
    J = np.empty((n, n))
    for c in range(n - 1):
        step = FD_STEP * (1.0 + abs(u[c]))
        up = u.copy()
        up[c] += step
        J[:, c] = (_residual(col, up, s, hstar) - base) / step
    J[:, -1] = _omega_column(col, u)
    return J


def newton_correct(
    col: Collocation,
    s: float,
    omega_init: float,
    f_init: Perturbation,
    hstar: np.ndarray,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAXIT,
    jac: np.ndarray | None = None,
):
    """Damped Newton solve of {Ftilde modes = 0, amplitude = s}.

    The Jacobian is finite-difference in the shape coefficients and
    analytic in Omega; it is reused across iterations (chord iteration)
    and rebuilt when convergence stalls.  Returns (BranchPoint, jacobian)
    so a continuation can carry the factorization forward.
    """
    u = _pack(f_init.coeffs[:, : col.half], omega_init)
    res = _residual(col, u, s, hstar)
    rnorm = float(np.max(np.abs(res)))
    it = 0
    rebuilt = jac is None
    while rnorm > tol:
        if it >= max_iter:
            raise SolverError(f"newton_correct: no convergence in {max_iter} iterations (residual {rnorm:.3e})")
        if jac is None:
            jac = _jacobian(col, u, s, hstar, res)
            rebuilt = True
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"newton_correct: singular Jacobian ({exc})") from exc
        scale = 1.0
        for _ in range(DAMP_MAX + 1):
            try:
                new_res = _residual(col, u + scale * delta, s, hstar)
            except GeometryError:
                scale *= 0.5
                continue
            if np.max(np.abs(new_res)) < rnorm:
                break
            scale *= 0.5
        else:
            if rebuilt:
                raise SolverError("newton_correct: line search failed with a fresh Jacobian")
            jac = None  # stale chord matrix: rebuild and retry
            continue
        u = u + scale * delta
        res = new_res
        rnorm = float(np.max(np.abs(res)))
        it += 1
        if rnorm > tol and it >= REFRESH_AFTER and not rebuilt:
            jac = None
    half, omega = _unpack(col, u)
    f = Perturbation.from_half(col, half)
    return BranchPoint(float(s), omega, f, rnorm, it), jac


def continue_branch(
    col: Collocation,
    s_max: float,
    steps: int,
    bp: BifurcationPoint | None = None,
) -> Branch:
    """Predictor-corrector continuation of the mode-m branch on the
    uniform amplitude grid s_k = k s_max / steps.

    The first predictor is the tangent s h*_m cos(m theta) at Omega_m;
    later predictors extrapolate the previous two points linearly.  A
    corrector failure truncates the branch and records the step.
    """
    if steps < 1:
        raise DomainError(f"continue_branch: steps must be >= 1, got {steps}")
    if bp is None:
        bp = find_bifurcation_point(col.kctx, col.m)
    hstar = np.asarray(bp.eigfun, dtype=float)
    s_grid = s_max * np.arange(1, steps + 1) / steps
    points: list[BranchPoint] = []
    jac = None
    for k, s in enumerate(s_grid):
        if len(points) >= 2:
            p1, p0 = points[-1], points[-2]
            w = (s - p0.s) / (p1.s - p0.s)
            coeffs = p0.f.coeffs + w * (p1.f.coeffs - p0.f.coeffs)
            omega0 = p0.omega + w * (p1.omega - p0.omega)
            f0 = Perturbation(col.m, coeffs, col.kctx)
        elif points:
            scale = s / points[-1].s
            f0 = Perturbation(col.m, scale * points[-1].f.coeffs, col.kctx)
            omega0 = points[-1].omega
        else:
            coeffs = np.zeros((col.n_modes, col.kctx.n_nodes))
            coeffs[0] = s * hstar
            f0 = Perturbation(col.m, coeffs, col.kctx)
            omega0 = bp.omega_m
        if points and points[-1].iterations > 5:
            jac = None  # previous point strained the chord matrix: rebuild here
        try:
            point, jac = newton_correct(col, s, omega0, f0, hstar, jac=jac)
        except (SolverError, GeometryError) as exc:
            return Branch(col.m, bp.omega_m, s_grid, points, failed_at=k, message=str(exc))
        points.append(point)
    return Branch(col.m, bp.omega_m, s_grid, points)
