"""Dispersion relation, bifurcation points and spectral verifications.

The dispersion relation is the map Omega -> lambda_n(Omega), the largest
eigenvalue of K_n^Omega = diag(1/nu) B_n.  It is strictly positive, simple
(positive kernel), strictly decreasing in n and strictly increasing in
Omega, so the mode-m bifurcation point Omega_m is the unique root of
lambda_m(Omega) = 1.  On B_m that root is an eigenvalue: B h =
(nu0 - Omega) h says lambda = 1 with eigenfunction h, so Omega_m is the
leftmost eigenvalue of diag(nu0) - B_m.  Both come from one solve of the
collocation matrix itself (``_eigenpair``), which product integration
makes accurate as it stands (Atkinson, *The Numerical Solution of
Integral Equations of the Second Kind*, CUP 1997).

On an equatorially mirrored context (``KernelContext.mirrored``) B_n is
centrosymmetric to round-off and maps even samples [x, x[::-1]] to even
ones; both solves want the positive, hence even, eigenvector, so both
run on the even block of size N/2, which ``KernelContext.fold`` gives and
``KernelContext.unfold`` maps back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SolverError
from .kernel import KernelContext, KernelMatrix, _hn_values, assemble_kernel_matrix, row_apply
from .quadrature import interp_matrix

__all__ = [
    "SpectralResult",
    "BifurcationPoint",
    "DispersionCurve",
    "BoundaryReport",
    "largest_eigenvalue",
    "eigen_bounds",
    "dispersion_scan",
    "find_bifurcation_point",
    "eigenfunction_boundary_report",
    "kernel_dimension_check",
    "transversality_check",
    "refine_eigenvalue",
]

KERNEL_DIM_MARGIN = 1e-4


@dataclass(frozen=True)
class SpectralResult:
    """Dominant eigenpair of one K_n^Omega matrix.  ``eigvec`` holds the
    eigenfunction samples h(phi_i), sign-fixed positive and unit-normed
    in the discrete mu_Omega inner product.  ``residual`` is
    |K h - lam h| for K = ``KernelMatrix.entries`` and h = ``eigvec``.
    ``iterations`` is always 0: the pair comes from one dense solve,
    and the field stays because the ``iterations`` column of
    ``dispersion.csv`` and ``perfbench/spans.py`` read it."""

    n: int
    omega: float
    lam: float
    eigvec: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class BifurcationPoint:
    """Root of lambda_m(Omega) = 1 with its kernel eigenfunction."""

    m: int
    omega_m: float
    eigfun: np.ndarray
    lam: float


@dataclass(frozen=True)
class DispersionCurve:
    """Tabulated lambda_n(Omega_k) with monotonicity-anomaly flags."""

    rows: list  # (n, omega, lam, iterations, residual)
    anomalies: list = field(default_factory=list)


@dataclass(frozen=True)
class BoundaryReport:
    """Extrapolated |h| at the poles versus the interior maximum."""

    value_0: float
    value_pi: float
    interior_max: float


def _eigenpair(A: np.ndarray, what: str, top: bool) -> tuple[float, np.ndarray]:
    """The largest (``top``) or the smallest real eigenvalue of A, from
    ``np.linalg.eigvals``, and its right eigenvector (max-norm 1, any sign)
    from two inverse-iteration solves with A - sigma I from ones, sigma =
    lam +/- 1e-13 max|A| just outside the spectrum.  A non-finite A (a
    profile whose radius is near 0 overflows H_n), an eigensolve that does
    not converge or a singular shifted solve is a SolverError naming ``what``.
    """
    if not np.all(np.isfinite(A)):
        raise SolverError(f"{what}: the matrix to solve is not finite (H_n overflows on this profile)")
    try:
        vals = np.linalg.eigvals(A).real
        lam = float(np.max(vals) if top else np.min(vals))
        shifted = A - (lam + (1e-13 if top else -1e-13) * np.max(np.abs(A))) * np.eye(len(A))
        x = np.ones(len(A))
        for _ in range(2):
            x = np.linalg.solve(shifted, x)
            x /= np.max(np.abs(x))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{what}: {exc}") from None
    return lam, x


def largest_eigenvalue(K: KernelMatrix) -> SpectralResult:
    """Top eigenpair of K.entries = diag(1/nu) B_n.

    The operator's kernel is positive, so its largest eigenvalue is
    simple with a positive eigenvector, which is even on a mirrored
    context: the solve runs on ``ctx.fold``(K.entries), and the vector is
    ``ctx.unfold``(x), mu-normalized positive.
    """
    ctx = K.ctx
    lam, x = _eigenpair(ctx.fold(K.entries), f"largest_eigenvalue: mode {K.n}", top=True)
    h = _mu_normalized(ctx.unfold(x), K.mu_w)
    resid = float(np.linalg.norm(K.entries @ h - lam * h))
    return SpectralResult(K.n, K.omega, lam, h, 0, resid)


def eigen_bounds(ctx: KernelContext, K: KernelMatrix, rho: np.ndarray) -> tuple[float, float]:
    """Two-sided bracket for lambda_n(Omega) from a unit test density.

    lower: the double integral of H_n weighted by
    rho(phi) rho(vphi) sqrt(sin phi) r0(phi) /
    (sqrt(nu nu') sqrt(sin vphi) r0(vphi)), for any rho with
    int rho^2 = 1; upper: the Hilbert-Schmidt norm
    (iint K_n^2 dmu dmu)^{1/2}.
    """
    rho = np.asarray(rho, dtype=float)
    nrm = float(np.sum(rho ** 2 * ctx.weights))
    if abs(nrm - 1.0) > 1e-8:
        rho = rho / np.sqrt(nrm)
    nu = K.nu
    g = rho / (np.sqrt(nu) * np.sqrt(ctx.sinv) * ctx.r0v)
    inner = row_apply(ctx, K.n, g)
    x = np.sqrt(ctx.sinv) * ctx.r0v * rho / np.sqrt(nu)
    lower = float(np.sum(ctx.weights * x * inner))
    # rows of int K_n(phi_i, .)^2 dmu = int H_n^2 / (nu_i^2 m(t) nu(t)) dt
    total = 0.0
    for i, pt in enumerate(ctx.nodes):
        t, w = ctx.row_rule(pt)
        H = _hn_values(ctx.profile, K.n, pt, t)
        L = interp_matrix(ctx.nodes, ctx.bary, t)
        m_t = np.sin(t) * ctx.profile.r0(t) ** 2
        nu_t = L @ nu
        row = np.sum(w * H ** 2 / (m_t * nu_t)) / nu[i] ** 2
        total += ctx.weights[i] * ctx.mv[i] * nu[i] * row
    upper = float(np.sqrt(total))
    return lower, upper


def dispersion_scan(ctx: KernelContext, n_list, omega_grid) -> DispersionCurve:
    """lambda_n(Omega) over a mode list and an Omega grid, with
    monotonicity anomalies (decreasing in n, increasing in Omega) flagged."""
    n_list = list(n_list)
    omega_grid = list(omega_grid)
    ctx.mode_b_matrices(n_list)
    for om in omega_grid:
        if not om < ctx.omega_limit:
            raise DomainError(f"dispersion_scan: omega={om} not below kappa - guard={ctx.omega_limit}")
    results = [largest_eigenvalue(assemble_kernel_matrix(ctx, n, om)) for n in n_list for om in omega_grid]
    rows = [(r.n, r.omega, r.lam, r.iterations, r.residual) for r in results]
    lam = {(r.n, r.omega): r.lam for r in results}
    ns, oms = sorted(set(n_list)), sorted(set(omega_grid))
    anomalies = []
    for om in omega_grid:
        for a, b in zip(ns[:-1], ns[1:]):
            if not lam[(b, om)] < lam[(a, om)]:
                anomalies.append(("n", a, b, om))
    for n in n_list:
        for oa, ob in zip(oms[:-1], oms[1:]):
            if not lam[(n, ob)] > lam[(n, oa)]:
                anomalies.append(("omega", n, oa, ob))
    return DispersionCurve(rows, anomalies)


def _mu_normalized(v: np.ndarray, mu_w: np.ndarray) -> np.ndarray:
    """v scaled to unit norm in the discrete mu inner product, sign-fixed
    so that its mu-mean is positive."""
    v = v / np.sqrt(np.sum(v * v * mu_w))
    return -v if float(np.sum(v * mu_w)) < 0.0 else v


def refine_eigenvalue(K: KernelMatrix, res: SpectralResult) -> tuple[float, np.ndarray]:
    """(eigenvalue, eigenvector) of ``largest_eigenvalue``(K), whose one
    solve is already at round-off; ``res`` is not read.  The name stays
    for its callers."""
    top = largest_eigenvalue(K)
    return top.lam, top.eigvec


def find_bifurcation_point(ctx: KernelContext, m: int) -> BifurcationPoint:
    """Omega_m as the leftmost eigenvalue of diag(nu0) - B_m.

    B_m h = (nu0 - Omega) h is lambda_m(Omega) = 1 on the
    product-integration operator, so one ``_eigenpair`` solve gives Omega_m
    and its kernel eigenfunction (mu-normalized, positive); ``lam`` is
    the Rayleigh quotient of diag(1/nu) B_m there.  An Omega_m at or
    beyond kappa - guard means the guard hides the root.

    On a mirrored context the leftmost eigenfunction is even (it is the
    positive one), so the solve runs on the even block diag(nu0[:h]) -
    ``ctx.fold``(B_m), h = ``ctx.n_solved`` = N/2, and the eigenfunction
    is ``ctx.unfold``(v) = [v, v[::-1]], exactly even.  Besides halving
    the solve, this keeps Omega_m accurate: on the sphere (N = 96,
    de_level 7, m = 2..6) the full eigensolve of the mirrored B_m is off
    the oracle 1/3 - 1/(2m+1) by up to 2.7e-15 (m = 6), the even block
    by 1.0e-15.
    """
    if m < 2:
        raise DomainError(f"find_bifurcation_point: m must be >= 2, got {m}")
    B = ctx.mode_b_matrices([m])[0]
    A = np.diag(ctx.nu0[: ctx.n_solved]) - ctx.fold(B)
    omega_m, x = _eigenpair(A, f"find_bifurcation_point: mode {m}", top=False)
    if not omega_m < ctx.omega_limit:
        raise SolverError(
            f"find_bifurcation_point: Omega_{m} = {omega_m} not below kappa - guard = {ctx.omega_limit}; "
            "refine the guard to expose the root"
        )
    nu = ctx.nu0 - omega_m
    mu_w = ctx.mv * ctx.weights * nu
    h = _mu_normalized(ctx.unfold(x), mu_w)
    lam = float(np.sum(h * mu_w * (B @ h) / nu))
    return BifurcationPoint(m, omega_m, h, lam)


def _pole_values(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """|q(0)| and |q(pi)| for the quadratics q through the samples (x, y)
    at the three end nodes on each side."""
    ends = ((slice(3), 0.0), (slice(-3, None), np.pi))
    return tuple(abs(float(np.polyval(np.polyfit(x[e], y[e], 2), pole))) for e, pole in ends)


def eigenfunction_boundary_report(ctx: KernelContext, h: np.ndarray) -> BoundaryReport:
    """Quadratic extrapolation of |h| to the poles from the three nearest
    nodes on each side, for eigenfunction samples h on the grid (boundary
    behavior diagnostic)."""
    h = np.abs(h)
    return BoundaryReport(*_pole_values(ctx.nodes, h), float(np.max(h)))


def kernel_dimension_check(ctx: KernelContext, m: int, n_max: int):
    """At Omega = Omega_m, verify lambda_n < 1 - KERNEL_DIM_MARGIN for
    n > m and lambda_n away from 1 for n < m.  Returns (per-n booleans, per-n
    lambda values, Omega_m)."""
    if m < 2:
        raise DomainError(f"kernel_dimension_check: m must be >= 2, got {m}")
    if n_max < m:
        raise DomainError(f"kernel_dimension_check: n_max must be >= m, got {n_max}")
    ctx.mode_b_matrices(range(1, n_max + 1))
    bp = find_bifurcation_point(ctx, m)
    ok: dict[int, bool] = {}
    lam: dict[int, float] = {}
    for n in range(1, n_max + 1):
        val = largest_eigenvalue(assemble_kernel_matrix(ctx, n, bp.omega_m)).lam
        lam[n] = val
        if n == m:
            ok[n] = abs(val - 1.0) <= KERNEL_DIM_MARGIN
        elif n > m:
            ok[n] = val < 1.0 - KERNEL_DIM_MARGIN
        else:
            ok[n] = abs(val - 1.0) > KERNEL_DIM_MARGIN
    return ok, lam, bp.omega_m


def transversality_check(ctx: KernelContext, bp: BifurcationPoint) -> float:
    """Discretized int_0^pi (h*_m)^2 sin(phi) r0^2(phi) dphi; the
    non-degeneracy quantity must be strictly positive."""
    h = np.asarray(bp.eigfun, dtype=float)
    if not np.any(h):
        raise DomainError("transversality_check: zero eigenfunction")
    val = float(np.sum(h ** 2 * ctx.mv * ctx.weights))
    if val <= 0.0:
        raise SolverError(f"transversality_check: non-positive value {val}")
    return val
