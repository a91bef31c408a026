"""Nonlinear rotating-patch functional and branch continuation.

A shape near the revolution profile is r(phi, theta) = r0(phi) + f with
an m-fold cosine perturbation f = sum_k f_k(phi) cos(k m theta).  The
stationarity functional in the rotating frame is

    Ftilde(Omega, f) = [ I(f) - (Omega/2) r^2 - mean_theta(...) ] / r0(phi),

where I(f) is the Newtonian volume potential of the deformed body
evaluated on its boundary.  The radial part of the triple integral is
integrated in closed form (antiderivative of r / sqrt(r^2 - 2cr + d^2)),
leaving a 2-d (vphi, eta) quadrature whose only singular point is the
evaluation target.  Each direction uses a rule graded toward it alone:
Gauss-Legendre graded from both sides of the target colatitude in vphi
(``graded_split``) and Kress's sigmoidal trapezoid rule on (0, pi] in
eta (``sigmoidal_trapezoid``), both smooth elsewhere.
One batched path, ``_stream``, evaluates I(f) for every caller: per phi
target it contracts a block of theta targets and both eta half-ranges
as one (vphi, eta, side) tensor, whether the targets are the collocation
grid (Ftilde, the Newton residual, the velocity-form check) or single
points and full circles (``stream_I``, ``mean_m``, ``f_tilde_circle``).
It walks that tensor in chunks of vphi rows of about 20k elements, on
which the radial closed form works in place, and the same chunks give
the boundary velocity U that the velocity-form check needs.

The branch of rotating solutions through the mode-m bifurcation point is
corrected by a damped Newton iteration on the bordered collocation
system {mode coefficients of Ftilde = 0, t . u = sigma} in the unknowns
u = (f-coefficients on the solved phi targets, Omega), for any linear
constraint row t: residual entry t . u - sigma, Jacobian row t.  Which
phi targets are solved, and how they unfold to the kernel grid, is
decided by the context's unfold matrix ``KernelContext.E`` alone.
Only ``continue_branch`` knows that its row is the amplitude
s = <f_1, h*_m>.  The rest of the Jacobian is exact: ``_stream``
differentiates the closed form in its upper limit (the source surface)
and in the target radius, chunk by chunk, and the chain rule through the
radii, the theta-mean subtraction and the mode projection is linear.
That partials pass gives an iterate its residual and Jacobian (its I is
bitwise the plain pass's); each line-search trial is one plain pass,
which also gives U.  A converged point takes its velocity-form check
from the plain pass of the trial that Newton accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, SolverError
from .kernel import KernelContext
from .quadrature import graded_split, interp_matrix, periodic_trapezoid, sigmoidal_trapezoid
from .spectral import BifurcationPoint, _pole_values, find_bifurcation_point

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
DAMP_MAX = 6

# grading orders of the stream quadrature's vphi and eta rules (see
# ``Collocation``)
_VPHI_GRADING = 4
_ETA_GRADING = 10


# --------------------------------------------------------------------------
# collocation setup
# --------------------------------------------------------------------------


@dataclass(eq=False)
class Collocation:
    """Collocation discretization of the nonlinear functional.

    phi targets are the first n_phi = ``kctx.n_solved`` nodes of the
    kernel grid, and the context's unfold matrix E = ``kctx.E``, shape
    (N, n_phi), maps values on them to the whole grid (on a mirrored
    context node N - 1 - n takes the value of node n).  theta targets are
    the n_theta first-kind cosine sample points of one half m-period,
    which diagonalize the retained cos(k m theta) modes, k = 1..n_modes,
    of wavenumbers ``km`` = k m.

    n_vphi and n_eta are the node counts of the stream integral's rules:
    ``graded_split`` with n_vphi Gauss points on each side of the target
    colatitude, graded at order _VPHI_GRADING, and
    ``sigmoidal_trapezoid`` with n_eta nodes on (0, pi], of order
    _ETA_GRADING.  The defaults are the smallest sizes that the measured
    table ``tests/test_nonlinear.py::TestQuadratureLevels`` supports: at
    32 and 64 a branch point agrees with the rotating ellipsoid, or with
    the solve at doubled counts on analytic non-ellipsoid profiles, to
    the Newton and mode truncation floor (5.2e-15 in Omega on the sphere
    at s = 0.03), where 24 Gauss points per side are off by up to 1.9e-12
    (the analytic bump) and 48 eta nodes by up to 1.1e-12 (spheroid:2).
    A stream pass costs in proportion to 2 n_vphi n_eta.
    """

    kctx: KernelContext
    m: int
    n_modes: int = 4
    n_theta: int = 8
    n_vphi: int = 32
    n_eta: int = 64

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"Collocation: m must be >= 2, got {self.m}")
        if self.n_modes < 1:
            raise DomainError(f"Collocation: n_modes must be >= 1, got {self.n_modes}")
        if self.n_modes >= self.n_theta:
            # cos(k m theta_j) vanishes at every sample for k = n_theta, and
            # modes k and 2 n_theta - k alias: the square system is singular
            raise DomainError(
                f"Collocation: n_modes must be < n_theta, got n_modes={self.n_modes}, n_theta={self.n_theta}"
            )
        self.E, self.n_phi = self.kctx.E, self.kctx.n_solved
        j = np.arange(self.n_theta)
        self.theta = (2 * j + 1) * np.pi / (2 * self.m * self.n_theta)
        rule = sigmoidal_trapezoid(self.n_eta, _ETA_GRADING)
        self.eta_nodes = rule.nodes
        self.eta_w = rule.weights
        self.km = (np.arange(1, self.n_modes + 1) * self.m).astype(float)
        self.cos_ktheta = np.cos(self.km[:, None] * self.theta[None, :])
        self.sin_ktheta = np.sin(self.km[:, None] * self.theta[None, :])
        self._geom = {}

    def geometry(self, phi_t: float):
        """The vphi rule graded toward the target phi_t with the profile
        and interpolation samples at its nodes, built once per target."""
        key = float(phi_t)
        if key not in self._geom:
            rule = graded_split(0.0, np.pi, key, self.n_vphi, _VPHI_GRADING)
            vphi = rule.nodes
            self._geom[key] = {
                "wsin": rule.weights * np.sin(vphi),
                "P": interp_matrix(self.kctx.nodes, self.kctx.bary, vphi),
                "r0q": self.kctx.profile.r0(vphi),
                "dcos": np.cos(key) - np.cos(vphi),
            }
        return self._geom[key]


# theta samples of one full period at which a shape's radius is judged on
# the kernel grid: by ``Perturbation.validate`` and on every nonlinear path
_SHAPE_THETA = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)


@dataclass(eq=False)
class Perturbation:
    """m-fold cosine perturbation of the collocation ``col``, whose m and
    kernel grid it uses: coeffs[k-1] holds f_k on that grid."""

    col: Collocation
    coeffs: np.ndarray

    @classmethod
    def zero(cls, col: Collocation) -> "Perturbation":
        return cls(col, np.zeros((col.n_modes, col.kctx.n_nodes)))

    @classmethod
    def unfold(cls, col: Collocation, coeffs: np.ndarray) -> "Perturbation":
        """The perturbation whose f_k on the solved phi targets are the
        rows of coeffs, shape (n_modes, n_phi), unfolded by ``col.E``."""
        return cls(col, coeffs @ col.E.T)

    def radius_at_nodes(self, theta) -> np.ndarray:
        """r(phi_i, theta) on the kernel grid for an array of theta."""
        return _radii(self.col, self, self.col.kctx.nodes, np.atleast_1d(np.asarray(theta, dtype=float)))

    def validate(self) -> dict:
        """Dirichlet extrapolants and min radius."""
        end = max([0.0, *(v for row in self.coeffs for v in _pole_values(self.col.kctx.nodes, row))])
        rmin = float(np.min(self.radius_at_nodes(_SHAPE_THETA)))
        return {"endpoint_defect": float(end), "r_min": rmin}


def _admit(col: Collocation, f: Perturbation | None) -> Perturbation:
    """The shape check of every nonlinear path: ``None`` is the zero
    perturbation, one of another collocation or of coefficient shape
    other than (n_modes, N) is a DomainError, and a radius non-positive
    on the kernel grid (where f is exact) at ``_SHAPE_THETA`` is a
    GeometryError, whatever the targets."""
    if f is None:
        return Perturbation.zero(col)
    shape = (col.n_modes, col.kctx.n_nodes)
    if f.col is not col:
        raise DomainError(f"perturbation of another collocation (m = {f.col.m}) than the one evaluated (m = {col.m})")
    if np.shape(f.coeffs) != shape:
        raise DomainError(f"perturbation coefficients {np.shape(f.coeffs)} do not fit the collocation's {shape}")
    rmin = float(np.min(f.radius_at_nodes(_SHAPE_THETA)))
    if rmin <= 0.0:
        raise GeometryError(f"reconstructed radius is non-positive on the kernel grid (min {rmin:.3e})")
    return f


# --------------------------------------------------------------------------
# stream potential and the functional
# --------------------------------------------------------------------------


def _radial_closed_form(rup, c, q, partials: bool = False):
    """int_0^rup r dr / sqrt(r^2 - 2 c r + c^2 + q): antiderivative
    sqrt((r-c)^2 + q) + c ln(r - c + sqrt((r-c)^2 + q)), with the log
    argument computed cancellation-free on the r < c side.

    Returns (K, 1/s1), s1 the source-target distance at r = rup.  With
    ``partials`` it returns (K, dK/drup, dK/dc, dK/dq) instead:
    dK/drup = rup / s1 (the integrand at the upper limit),
    dK/dc = ln(z1/z0) - rup / s1 and
    dK/dq = (1/s1 - 1/s0) / 2 + c (1/(s1 z1) - 1/(s0 z0)) / 2,
    where s1, z1 and s0, z0 are the root and the log argument at r = rup
    and r = 0: z1 = |d| + s1 where d = rup - c >= 0, else q / (|d| + s1),
    and z0 = |c| + s0 where c <= 0, else q / (|c| + s0), both floored
    at 1e-300.

    Computed in place: the plain pass allocates four arrays of the
    broadcast shape and the partials pass six, the outputs among them,
    each reused through ufunc ``out=`` once its value is dead, and one
    boolean mask.  numpy gives every ufunc call with a broadcast operand
    a 64 KiB iterator buffer, so ``_stream`` passes c at the full shape
    of the chunk.  Every
    element goes through the same floating-point operations in the same
    order as the out-of-place expressions that tests/test_nonlinear.py
    keeps as its reference, so the outputs are bitwise theirs.  The
    inputs are never written: ``_stream`` reads rup again after the
    call, and every chunk shares c."""
    d = np.empty(np.broadcast_shapes(np.shape(rup), np.shape(c), np.shape(q)))
    np.subtract(rup, c, out=d)
    swap = d >= 0
    np.logical_not(swap, out=swap)  # where(d >= 0, t1, q / t1), as a mask
    s1 = np.multiply(d, d)
    s1 += q
    np.sqrt(s1, out=s1)
    z1 = np.abs(d, out=d)
    z1 += s1
    np.divide(q, z1, out=z1, where=swap)
    np.maximum(z1, 1e-300, out=z1)
    s0 = np.multiply(c, c, out=np.empty_like(d))
    s0 += q
    np.sqrt(s0, out=s0)
    z0 = np.abs(c, out=np.empty_like(d))
    z0 += s0
    np.less_equal(c, 0, out=swap)
    np.logical_not(swap, out=swap)  # where(c <= 0, t0, q / t0), as a mask
    np.divide(q, z0, out=z0, where=swap)
    del swap
    np.maximum(z0, 1e-300, out=z0)
    if not partials:
        np.divide(z1, z0, out=z1)
        log_ratio = np.log(z1, out=z1)
        K = np.subtract(s1, s0, out=s0)
        K += np.multiply(c, log_ratio, out=log_ratio)
        return K, np.divide(1.0, s1, out=s1)
    log_ratio = np.divide(z1, z0)
    np.log(log_ratio, out=log_ratio)
    K = np.subtract(s1, s0)
    i1 = np.divide(1.0, s1, out=s1)
    i0 = np.divide(1.0, s0, out=s0)
    np.divide(i1, z1, out=z1)
    np.divide(i0, z0, out=z0)
    z1 -= z0
    z1 *= c
    d_q = np.subtract(i1, i0, out=i0)
    d_q += z1
    d_q *= 0.5
    d_rup = np.multiply(rup, i1, out=i1)
    K += np.multiply(c, log_ratio, out=z0)
    d_c = np.subtract(log_ratio, d_rup, out=log_ratio)
    return K, d_rup, d_c, d_q


# Elements in one chunk of a (vphi, eta, side) tensor: 16 vphi rows at
# 64 eta nodes x 16 sides, so that a float array of a chunk is 128 KiB.
# Above that size each chunk's fresh arrays page-fault anew (glibc's
# default mmap threshold): the benchmark branch solve made about 1000
# minor faults at 16 rows and 6000 at 20, and took 0.061 s against
# 0.072 s (medians of alternating in-process runs).  In place the closed
# form peaks at 4.1 chunk sizes (plain) and 6.0 (partials), within the
# bounds of tests/test_nonlinear.py::TestRadialClosedForm.
_CHUNK_ELEMS = 16_384


def _row_chunks(col: Collocation, n_rows: int) -> list:
    """Slices of vphi rows, as many per chunk (at least one) as fit
    _CHUNK_ELEMS at the largest side count of a theta block, 2 n_theta;
    the first chunk is the longest.  The chunks depend on the collocation
    alone, so a target is summed in the same order whatever other targets
    share its block."""
    step = max(1, _CHUNK_ELEMS // (len(col.eta_nodes) * 2 * col.n_theta))
    return [slice(a, min(a + step, n_rows)) for a in range(0, n_rows, step)]


def _angle_tables(col: Collocation, thetas: np.ndarray):
    """Tables over the flattened (theta target, +/- eta half-range) sides:
    side s = 2 j + bit holds the angle theta_j + eta (bit 0) or
    theta_j - eta (bit 1).  Returns cos(k m angle) and k m sin(k m angle),
    shape (n_modes, n_eta, n_sides), and exp(i angle), (n_eta, n_sides)."""
    signs = np.array([1.0, -1.0])
    angle = thetas[:, None, None] + signs[None, :, None] * col.eta_nodes[None, None, :]
    angle = angle.reshape(2 * len(thetas), len(col.eta_nodes)).T
    km = col.km[:, None, None]
    return np.cos(km * angle), km * np.sin(km * angle), np.exp(1j * angle)


def _radii(col: Collocation, f: Perturbation, phis: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """r(phi_i, theta_j) with f_k interpolated barycentrically at phi_i
    (an exact one-hot row at a grid node), shape (len(phis), len(thetas))."""
    P = interp_matrix(col.kctx.nodes, col.kctx.bary, phis)
    modes = np.cos(col.km[:, None] * thetas[None, :])
    return col.kctx.profile.r0(phis)[:, None] + np.einsum("kt,kj->tj", f.coeffs @ P.T, modes)


def _stream(col: Collocation, f: Perturbation, phis: np.ndarray, thetas: np.ndarray, R: np.ndarray, partials: bool = False):
    """(I(f), U) at the boundary targets (phis[i], thetas[j]) of radii R,
    each of shape (len(phis), len(thetas)).

    Per phi target, blocks of at most n_theta theta targets and both eta
    half-ranges form the sides of one (vphi, eta, side) tensor, which is
    walked in chunks of vphi rows (``_row_chunks``), which bounds every
    temporary by the chunk size.  The same chunks give the horizontal
    boundary velocity U = U1 + i U2 as the surface integral
    (1/4pi) iint sin(vphi) (d_eta r + i r) e^{i eta} / dist, with the
    1/dist of the closed form.  With ``partials`` the chunks give the two
    partials of I instead of U, returned after I:

    * source: dI/du[k, n], shape (len(phis), len(thetas), n_modes,
      n_phi), for the coefficients u on the solved phi targets that
      ``Perturbation.unfold`` spreads over the grid; dK/drup is contracted
      with the cos(k m angle) table and the unfolded interpolation rows
      P @ E;
    * target radius: dI/drho, shape (len(phis), len(thetas)), through
      c = rho cos(eta) and q = rho^2 sin^2(eta) + (cos phi - cos vphi)^2.
    """
    blocks = [slice(b, b + col.n_theta) for b in range(0, len(thetas), col.n_theta)]
    tables = [_angle_tables(col, thetas[blk]) for blk in blocks]
    cos_e = np.cos(col.eta_nodes)
    sin_e = np.sin(col.eta_nodes)
    out = np.empty(R.shape)
    if partials:
        d_src = np.empty(R.shape + (col.n_modes, col.n_phi))
        d_rho = np.empty(R.shape)
    else:
        U = np.empty(R.shape, dtype=complex)
    for i, phi in enumerate(phis):
        geom = col.geometry(phi)
        Fk = f.coeffs @ geom["P"].T
        r0q = geom["r0q"]
        dcos2 = geom["dcos"] ** 2
        W = geom["wsin"][:, None] * col.eta_w[None, :]            # (vphi, eta)
        if partials:
            WP = geom["wsin"][:, None] * (geom["P"] @ col.E)
            Wc = W * cos_e[None, :]
            Ws = W * sin_e[None, :] ** 2
        for blk, (tab, km_sin, exp_eta) in zip(blocks, tables):
            rho = np.repeat(R[i, blk], 2)                          # (n_sides,)
            cs = rho[None, :] * cos_e[:, None]                     # (n_eta, n_sides)
            rs2 = (rho[None, :] * sin_e[:, None]) ** 2
            n_sides = len(rho)
            acc = np.zeros(n_sides)
            if partials:
                # H[n, (eta, side)]: vphi sums of wsin (P @ E) dK/drup;
                # tc, tq: (vphi, eta) sums of W cos(eta) dK/dc, W sin^2(eta) dK/dq
                H = np.zeros((col.n_phi, cs.size))
                tc = np.zeros(n_sides)
                tq = np.zeros(n_sides)
            else:
                y_dr = np.zeros(cs.shape)
                y_r = np.zeros(cs.shape)
            chunks = _row_chunks(col, len(r0q))
            # c at the full chunk shape, as ``_radial_closed_form`` wants it
            cs_rows = np.broadcast_to(cs, (chunks[0].stop,) + cs.shape).copy()
            for sl in chunks:
                q = rs2[None, :, :] + dcos2[sl, None, None]
                rup = r0q[sl, None, None] + np.einsum("kp,kes->pes", Fk[:, sl], tab)
                c = cs_rows[: len(rup)]
                if not partials:
                    K, inv = _radial_closed_form(rup, c, q)
                    dr = -np.einsum("kp,kes->pes", Fk[:, sl], km_sin)
                    y_dr += np.einsum("pe,pes->es", W[sl], dr * inv)
                    y_r += np.einsum("pe,pes->es", W[sl], rup * inv)
                else:
                    K, d_rup, d_c, d_q = _radial_closed_form(rup, c, q, partials=True)
                    H += WP[sl].T @ d_rup.reshape(len(d_rup), -1)
                    tc += Wc[sl].ravel() @ d_c.reshape(-1, n_sides)
                    tq += Ws[sl].ravel() @ d_q.reshape(-1, n_sides)
                acc += np.einsum("pe,pes->s", W[sl], K)
            out[i, blk] = -(acc[0::2] + acc[1::2]) / (4.0 * np.pi)
            if not partials:
                acc_u = np.sum((y_dr + 1j * y_r) * exp_eta, axis=0)
                U[i, blk] = (acc_u[0::2] + acc_u[1::2]) / (4.0 * np.pi)
            else:
                G = np.einsum("e,kes,nes->skn", col.eta_w, tab, H.reshape(col.n_phi, *cs.shape))
                d_src[i, blk] = -(G[0::2] + G[1::2]) / (4.0 * np.pi)
                t = tc + 2.0 * rho * tq
                d_rho[i, blk] = -(t[0::2] + t[1::2]) / (4.0 * np.pi)
    if partials:
        return out, d_src, d_rho
    return out, U


def stream_I(col: Collocation, f: Perturbation | None, phi: float, theta: float) -> float:
    """Volume potential I(f) of the deformed body at the boundary point
    (r(phi, theta) e^{i theta}, cos phi): the bracket of ``_bracket`` at
    Omega = 0, with its checks of f and of the target radius."""
    return float(_bracket(col, 0.0, f, phi, theta)[1][0, 0])


def _bracket(col: Collocation, omega: float, f: Perturbation, phis, thetas, partials: bool = False):
    """(r, I(f) - (Omega/2) r^2, U) at the boundary targets (phis[i],
    thetas[j]), each of shape (len(phis), len(thetas)), U the boundary
    velocity of ``_stream``.  With ``partials`` the source and
    target-radius partials of I that ``_stream`` returns take U's place,
    from the same pass.  f goes through ``_admit``."""
    f = _admit(col, f)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    r = _radii(col, f, phis, thetas)
    if np.min(r) <= 0.0:
        raise GeometryError("reconstructed radius is non-positive at a target")
    I, *rest = _stream(col, f, phis, thetas, r, partials=partials)
    return (r, I - 0.5 * omega * r ** 2, *rest)


def _theta_modes(col: Collocation, samples: np.ndarray) -> np.ndarray:
    """cos(k m theta) coefficients, k = 1..n_modes, of samples on the
    collocation theta targets (axis 1), shape (n_modes, n_phi, ...)."""
    return (2.0 / col.n_theta) * np.einsum("tj...,kj->kt...", samples, col.cos_ktheta)


def _stationarity(col: Collocation, bracket: np.ndarray) -> np.ndarray:
    """Ftilde from the bracket on the collocation grid (axis 0 phi,
    axis 1 theta): the theta mean subtracted, divided by r0."""
    scale = col.kctx.r0v[: col.n_phi].reshape((-1,) + (1,) * (bracket.ndim - 1))
    return (bracket - bracket.mean(axis=1, keepdims=True)) / scale


def f_tilde(col: Collocation, omega: float, f: Perturbation | None) -> np.ndarray:
    """Ftilde(Omega, f) sampled on the collocation targets, shape
    (n_phi, n_theta).

    The theta mean over the full period equals the mean over the cosine
    sample set (the sampling kills every retained nonzero mode exactly),
    so the output has exactly vanishing discrete theta average.
    """
    return _stationarity(col, _bracket(col, omega, f, col.kctx.nodes[: col.n_phi], col.theta)[1])


def f_tilde_modes(col: Collocation, omega: float, f: Perturbation | None) -> np.ndarray:
    """cos(k m theta) coefficients of Ftilde, k = 1..n_modes, shape
    (n_modes, n_phi)."""
    return _theta_modes(col, f_tilde(col, omega, f))


def f_tilde_circle(col: Collocation, omega: float, f: Perturbation | None, phi_t: float, n_samples: int = 64) -> np.ndarray:
    """Ftilde(Omega, f)(phi_t, theta) sampled on a uniform full-circle
    theta grid (symmetry and mode-leakage diagnostics; the collocation
    path itself only ever touches one half m-period)."""
    vals = _bracket(col, omega, f, float(phi_t), periodic_trapezoid(n_samples).nodes)[1][0]
    return (vals - np.mean(vals)) / float(col.kctx.profile.r0(phi_t))


def mean_m(col: Collocation, omega: float, f: Perturbation | None, phi_t: float, full_period: bool = False) -> float:
    """Angular mean (1/2pi) int_0^{2pi} [ I(f) - (Omega/2) r^2 ] dtheta at
    colatitude phi_t.  By m-fold symmetry the mean over one period with
    the cosine sample set suffices; ``full_period`` instead samples the
    whole circle with a trapezoid rule (consistency check path)."""
    thetas = periodic_trapezoid(2 * col.m * col.n_theta).nodes if full_period else col.theta
    return float(np.mean(_bracket(col, omega, f, float(phi_t), thetas)[1][0]))


# --------------------------------------------------------------------------
# velocity-form diagnostics
# --------------------------------------------------------------------------


def _velocity_form(col: Collocation, omega: float, f: Perturbation, R, bracket, U) -> float:
    """Max-norm of the velocity form plus the theta derivative of the
    bracket, from the radii, bracket and boundary velocity of one plain
    ``_bracket`` pass on the collocation grid."""
    dbracket = -np.einsum("kt,k,kj->tj", _theta_modes(col, bracket), col.km, col.sin_ktheta)
    dth_r = -np.einsum("kt,k,kj->tj", f.coeffs[:, : col.n_phi], col.km, col.sin_ktheta)
    phase = np.exp(1j * col.theta)[None, :]
    Fv = np.real((U - 1j * omega * R * phase) * (1j * dth_r + R) * np.conj(phase))
    return float(np.max(np.abs(Fv + dbracket)))


def velocity_residual(col: Collocation, omega: float, f: Perturbation | None) -> float:
    """Defect of the velocity-form/stream-form equivalence on the grid.

    The velocity form Re[(U_h - i Omega r e^{i theta})
    (i d_theta r + r) e^{-i theta}] equals minus the theta derivative of
    the stream bracket for any shape; the returned number is the max-norm
    of their sum, a pure quadrature-consistency measure.  U_h and the
    bracket come from one plain ``_stream`` pass; ``newton_correct``
    applies the same algebra to the pass that accepted its point.
    """
    f = _admit(col, f)
    return _velocity_form(col, omega, f, *_bracket(col, omega, f, col.kctx.nodes[: col.n_phi], col.theta))


def _axis_velocity_grid(sinv, cosv, wphi, eta, weta, r_vals, dr_vals, z: float) -> complex:
    dist = np.sqrt(r_vals ** 2 + (z - cosv[:, None]) ** 2)
    i1 = np.einsum("p,e,pe->", wphi * sinv, weta, (dr_vals * np.cos(eta)[None, :] - r_vals * np.sin(eta)[None, :]) / dist)
    i2 = np.einsum("p,e,pe->", wphi * sinv, weta, (dr_vals * np.sin(eta)[None, :] + r_vals * np.cos(eta)[None, :]) / dist)
    return (i1 + 1j * i2) / (4.0 * np.pi)


def velocity_on_axis(col: Collocation, f: Perturbation | None, z_list) -> float:
    """max_z |U(0, 0, z)| for the reconstructed shape, f checked by
    ``_admit``.  It vanishes for any m-fold symmetric surface with
    m >= 2, the only m a ``Collocation`` accepts."""
    f = _admit(col, f)
    ctx = col.kctx
    rule = periodic_trapezoid(256)
    eta, weta = rule.nodes, rule.weights
    r_vals = f.radius_at_nodes(eta)
    dr_vals = -np.einsum("kn,k,ke->ne", f.coeffs, col.km, np.sin(col.km[:, None] * eta[None, :]))
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
    """One converged point of the bifurcated branch; ``s`` is the value
    sigma of its constraint row, the amplitude on ``continue_branch``."""

    s: float
    omega: float
    f: Perturbation
    residual: float
    iterations: int
    velocity_residual: float  # ``velocity_residual`` at (omega, f)


@dataclass(frozen=True)
class Branch:
    """Continuation output: ``bp`` is the bifurcation point (m, Omega_m,
    h*_m) of the collocation, from which the branch starts; ``failed_at``
    marks a truncated run."""

    bp: BifurcationPoint
    points: list
    failed_at: int | None = None
    message: str = ""


def _pack(coeffs: np.ndarray, omega: float) -> np.ndarray:
    return np.concatenate([coeffs.ravel(), [omega]])


def _unpack(col: Collocation, u: np.ndarray):
    return u[:-1].reshape(col.n_modes, col.n_phi), float(u[-1])


def _amplitude_row(col: Collocation, hstar: np.ndarray) -> np.ndarray:
    """The amplitude s = <f_1, h*>_w / <h*, h*>_w as a row t on the
    unknowns, t @ u = s: f_1 is unfolded from the solved phi targets by
    E, so t holds h* w @ E, and zero on the other modes and on Omega."""
    hw = hstar * col.kctx.weights
    t = np.zeros(col.n_modes * col.n_phi + 1)
    t[: col.n_phi] = hw @ col.E / np.sum(hstar * hw)
    return t


def _system(modes: np.ndarray, t: np.ndarray, u: np.ndarray, sigma: float) -> np.ndarray:
    """Residual of the square system: the Ftilde modes, then t @ u - sigma."""
    return np.concatenate([modes.ravel(), [t @ u - sigma]])


def _residual(col: Collocation, u: np.ndarray, t: np.ndarray, sigma: float):
    """(``_system`` at u, (R, bracket, U)): one plain ``_bracket`` pass,
    whose radii, bracket and boundary velocity follow the residual."""
    coeffs, omega = _unpack(col, u)
    plain = _bracket(col, omega, Perturbation.unfold(col, coeffs), col.kctx.nodes[: col.n_phi], col.theta)
    return _system(_theta_modes(col, _stationarity(col, plain[1])), t, u, sigma), plain


def _jacobian(col: Collocation, u: np.ndarray, t: np.ndarray, sigma: float):
    """(residual, J): ``_residual`` at u and its exact Jacobian,
    all from one ``_stream`` pass with partials (its I is bitwise the
    plain pass's).  The target radius R[i, j] = r0(phi_i) +
    sum_k f_k(phi_i) cos(k m theta_j) moves with the unknowns of its own
    node alone (a grid node's interpolation row is one-hot, and row
    i < n_phi of E is the unit row e_i), so d bracket = dI_src + (dI/drho
    - Omega R) cos(k m theta_j) on the diagonal n = i.  The Omega column is the
    modes of -R^2/2; the last row is the constraint row t."""
    coeffs, omega = _unpack(col, u)
    R, bracket, d_src, d_rho = _bracket(
        col, omega, Perturbation.unfold(col, coeffs), col.kctx.nodes[: col.n_phi], col.theta, partials=True
    )
    res = _system(_theta_modes(col, _stationarity(col, bracket)), t, u, sigma)
    diag = np.arange(col.n_phi)
    d_src[diag, :, :, diag] += (d_rho - omega * R)[:, :, None] * col.cos_ktheta.T[None, :, :]
    n = col.n_modes * col.n_phi
    J = np.zeros((n + 1, n + 1))
    J[:n, :n] = _theta_modes(col, _stationarity(col, d_src)).reshape(n, n)
    J[:n, n] = _theta_modes(col, _stationarity(col, -0.5 * R ** 2)).ravel()
    J[n] = t
    return res, J


def newton_correct(col: Collocation, t: np.ndarray, sigma: float, u: np.ndarray):
    """Damped Newton solve of the bordered system {Ftilde modes = 0,
    t @ u = sigma} for any constraint row t, from the initial guess u.

    u and t are in ``_pack``'s layout, of length n_modes * n_phi + 1: the
    f_k on the solved phi targets, k = 1..n_modes, row-major, then Omega.  One
    ``_stream`` pass with partials at the initial guess gives its
    residual and exact Jacobian (``_jacobian``); a non-finite residual
    there is a SolverError.  Each iteration halves the Newton step until
    the residual max-norm falls, at most DAMP_MAX times, each trial one
    plain pass.  Only an accepted step that leaves the residual above
    NEWTON_TOL is linearized again.  The point's ``velocity_residual``
    comes from the accepted trial's plain pass (one plain pass if the
    initial guess already meets NEWTON_TOL).  Returns (BranchPoint with
    s = sigma, the Jacobian of the last linearization).
    """
    size = col.n_modes * col.n_phi + 1
    if np.shape(t) != (size,) or np.shape(u) != (size,):
        raise DomainError(f"newton_correct: t and u must have length {size}, got {np.shape(t)} and {np.shape(u)}")
    res, jac = _jacobian(col, u, t, sigma)
    rnorm = float(np.max(np.abs(res)))
    if not np.isfinite(rnorm):
        # NaN fails every comparison: the loop below would accept it
        raise SolverError(f"newton_correct: non-finite residual ({rnorm}) at the initial guess")
    it = 0
    while rnorm > NEWTON_TOL:
        if it >= NEWTON_MAXIT:
            raise SolverError(f"newton_correct: no convergence in {NEWTON_MAXIT} iterations (residual {rnorm:.3e})")
        if it:
            jac = _jacobian(col, u, t, sigma)[1]
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"newton_correct: singular Jacobian ({exc})") from exc
        scale = 1.0
        for _ in range(DAMP_MAX + 1):
            try:
                new_res, new_plain = _residual(col, u + scale * delta, t, sigma)
            except GeometryError:
                scale *= 0.5
                continue
            if np.max(np.abs(new_res)) < rnorm:
                break
            scale *= 0.5
        else:
            raise SolverError(f"newton_correct: line search failed (residual {rnorm:.3e})")
        u = u + scale * delta
        res, plain = new_res, new_plain
        rnorm = float(np.max(np.abs(res)))
        it += 1
    coeffs, omega = _unpack(col, u)
    f = Perturbation.unfold(col, coeffs)
    if not it:
        plain = _bracket(col, omega, f, col.kctx.nodes[: col.n_phi], col.theta)
    return BranchPoint(float(sigma), omega, f, rnorm, it, _velocity_form(col, omega, f, *plain)), jac


def continue_branch(col: Collocation, s_max: float, steps: int) -> Branch:
    """Predictor-corrector continuation of the mode-m branch on the
    uniform amplitude grid s_k = k s_max / steps.

    The branch starts from the collocation's own bifurcation point
    (Omega_m, h*_m), ``find_bifurcation_point(col.kctx, col.m)``, which
    depends on the profile, the grid and m alone and is returned as
    ``Branch.bp``.  The corrector is ``newton_correct`` with the
    amplitude row t of ``_amplitude_row`` for h*_m and sigma = s_k.  The
    predictor works on packed vectors, and the tangent (h*_m in mode 1,
    Omega_m) is a seed point at s = 1.  With one previous point (the
    seed before the first step) it scales that point's f part by
    s / s_prev and keeps its Omega; with two it extrapolates them
    linearly.  A corrector failure truncates the branch and records the
    step; after an accepted point the message also gives that point's s,
    its ``Perturbation.validate`` r_min and the profile's max r0, so a
    pinching shape shows as such.  s_max must be finite and nonzero.
    """
    if steps < 1:
        raise DomainError(f"continue_branch: steps must be >= 1, got {steps}")
    if not np.isfinite(s_max) or s_max == 0:
        raise DomainError(f"continue_branch: s_max must be finite and nonzero, got {s_max}")
    bp = find_bifurcation_point(col.kctx, col.m)
    t = _amplitude_row(col, bp.eigfun)
    seed = np.zeros(len(t))
    seed[: col.n_phi] = bp.eigfun[: col.n_phi]
    seed[-1] = bp.omega_m
    trail = [(1.0, seed)]  # (s, packed u) of the seed and the points
    points: list[BranchPoint] = []
    for k, s in enumerate(s_max * np.arange(1, steps + 1) / steps):
        if len(points) >= 2:
            (s0, u0), (s1, u1) = trail[-2:]
            u = u0 + (s - s0) / (s1 - s0) * (u1 - u0)
        else:
            s1, u1 = trail[-1]
            u = np.append(s / s1 * u1[:-1], u1[-1])
        try:
            point, _ = newton_correct(col, t, s, u)
        except (SolverError, GeometryError) as exc:
            message = str(exc)
            if points:
                last = points[-1]
                message += (
                    f"; last accepted point s = {last.s:.6g} has r_min {last.f.validate()['r_min']:.3e}"
                    f" against max r0 {float(np.max(col.kctx.r0v)):.3e}"
                )
            return Branch(bp, points, failed_at=k, message=message)
        points.append(point)
        trail.append((point.s, _pack(point.f.coeffs[:, : col.n_phi], point.omega)))
    return Branch(bp, points)
