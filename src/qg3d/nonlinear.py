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
as one (vphi, eta, side) tensor, whether the targets are the collocation
grid (Ftilde, the Newton residual, the velocity-form check) or single
points and full circles (``stream_I``, ``mean_m``, ``f_tilde_circle``).
It walks that tensor in chunks of vphi rows of about 20k elements, so
every temporary stays in cache; ``_velocity_batch`` walks the same
chunks.

The branch of rotating solutions through the mode-m bifurcation point of
an equatorially symmetric profile is corrected by a damped Newton
iteration on the bordered collocation system {mode coefficients of
Ftilde = 0, t . u = s} in the unknowns u = (f-coefficients on the
equatorial half grid, Omega).  The amplitude s = <f_1, h*_m> is the one
linear constraint row t: residual entry t . u - s, Jacobian row t.  The
rest of the Jacobian is exact: ``_stream`` differentiates the closed
form in its upper limit (the source surface) and in the target radius,
chunk by chunk, and the chain rule through the radii, the theta-mean
subtraction and the mode projection is linear.  That partials pass gives
an iterate its residual, Jacobian and bracket I(f) - (Omega/2) r^2 (its
I is bitwise the plain pass's); each line-search trial is one plain
pass.  The velocity-form check reuses the accepted iterate's bracket.
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
DAMP_MAX = 6


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
        if self.n_modes >= self.n_theta:
            # cos(k m theta_j) vanishes at every sample for k = n_theta, and
            # modes k and 2 n_theta - k alias: the square system is singular
            raise DomainError(
                f"Collocation: n_modes must be < n_theta, got n_modes={self.n_modes}, n_theta={self.n_theta}"
            )
        if not self.kctx.mirrored:
            # only the northern phi targets are solved, the rest mirrored
            raise DomainError("Collocation: the profile is not symmetric about the equator")
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


def _radial_closed_form(rup, c, q, partials: bool = False):
    """int_0^rup r dr / sqrt(r^2 - 2 c r + c^2 + q): antiderivative
    sqrt((r-c)^2 + q) + c ln(r - c + sqrt((r-c)^2 + q)), with the log
    argument computed cancellation-free on the r < c side.

    With ``partials`` it returns (K, dK/drup, dK/dc, dK/dq):
    dK/drup = rup / s1 (the integrand at the upper limit),
    dK/dc = ln(z1/z0) - rup / s1 and
    dK/dq = (1/s1 - 1/s0) / 2 + c (1/(s1 z1) - 1/(s0 z0)) / 2,
    where s1, z1 and s0, z0 are the root and the log argument at r = rup
    and r = 0."""
    d = rup - c
    s1 = np.sqrt(d * d + q)
    t1 = np.abs(d) + s1
    z1 = np.maximum(np.where(d >= 0, t1, q / t1), 1e-300)
    s0 = np.sqrt(c * c + q)
    t0 = np.abs(c) + s0
    z0 = np.maximum(np.where(c <= 0, t0, q / t0), 1e-300)
    log_ratio = np.log(z1 / z0)
    K = s1 - s0 + c * log_ratio
    if not partials:
        return K
    i1 = 1.0 / s1
    i0 = 1.0 / s0
    d_rup = rup * i1
    return K, d_rup, log_ratio - d_rup, 0.5 * ((i1 - i0) + c * (i1 / z1 - i0 / z0))


# Elements in one chunk of a (vphi, eta, side) tensor.  About 20k doubles
# keep every temporary of a chunk in cache: 12 vphi rows at 109 eta nodes
# x 16 sides.
_CHUNK_ELEMS = 21_000


def _row_chunks(col: Collocation, n_rows: int) -> list:
    """Slices of vphi rows, as many per chunk (at least one) as fit
    _CHUNK_ELEMS at the largest side count of a theta block, 2 n_theta.
    The chunks depend on the collocation alone, so a target is summed in
    the same order whatever other targets share its block."""
    step = max(1, _CHUNK_ELEMS // (len(col.eta_nodes) * 2 * col.n_theta))
    return [slice(a, a + step) for a in range(0, n_rows, step)]


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


def _mirrored(col: Collocation, P: np.ndarray) -> np.ndarray:
    """Interpolation rows acting on the equatorial half coefficients:
    ``Perturbation.from_half`` mirrors them, so column n gathers the
    grid columns n and N - 1 - n."""
    return P[:, : col.half] + P[:, ::-1][:, : col.half]


def _radii(col: Collocation, f: Perturbation, phis: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """r(phi_i, theta_j) with f_k interpolated barycentrically at phi_i
    (an exact one-hot row at a grid node), shape (len(phis), len(thetas))."""
    P = interp_matrix(col.kctx.nodes, col.kctx.bary, phis)
    k = np.arange(1, col.n_modes + 1)
    modes = np.cos(k[:, None] * col.m * thetas[None, :])
    return col.kctx.profile.r0(phis)[:, None] + np.einsum("kt,kj->tj", f.coeffs @ P.T, modes)


def _stream(col: Collocation, f: Perturbation, phis: np.ndarray, thetas: np.ndarray, R: np.ndarray, partials: bool = False):
    """I(f) at the boundary targets (phis[i], thetas[j]) of radii R,
    shape (len(phis), len(thetas)).

    Per phi target, blocks of at most n_theta theta targets and both eta
    half-ranges form the sides of one (vphi, eta, side) tensor, which is
    walked in chunks of vphi rows (``_row_chunks``) so that every
    temporary stays cache-sized.  With ``partials`` the same chunks also
    give the two partials of I, returned after it:

    * source: dI/dhalf[k, n], shape (len(phis), len(thetas), n_modes,
      half), for the mirrored coefficients of ``Perturbation.from_half``;
      dK/drup is contracted with the cos(k m angle) table and the
      mirrored interpolation rows (``_mirrored``);
    * target radius: dI/drho, shape (len(phis), len(thetas)), through
      c = rho cos(eta) and q = rho^2 sin^2(eta) + (cos phi - cos vphi)^2.
    """
    blocks = [slice(b, b + col.n_theta) for b in range(0, len(thetas), col.n_theta)]
    ang_cos = [_angle_tables(col, thetas[blk])[0] for blk in blocks]
    cos_e = np.cos(col.eta_nodes)
    sin_e = np.sin(col.eta_nodes)
    out = np.empty(R.shape)
    if partials:
        d_src = np.empty(R.shape + (col.n_modes, col.half))
        d_rho = np.empty(R.shape)
    for i, phi in enumerate(phis):
        geom = col.geometry(phi)
        Fk = f.coeffs @ geom["P"].T
        r0q = geom["r0q"]
        dcos2 = geom["dcos"] ** 2
        W = geom["wsin"][:, None] * col.eta_w[None, :]            # (n_vphi, n_eta)
        if partials:
            WP = geom["wsin"][:, None] * _mirrored(col, geom["P"])
            Wc = W * cos_e[None, :]
            Ws = W * sin_e[None, :] ** 2
        for blk, tab in zip(blocks, ang_cos):
            rho = np.repeat(R[i, blk], 2)                          # (n_sides,)
            cs = rho[None, :] * cos_e[:, None]                     # (n_eta, n_sides)
            rs2 = (rho[None, :] * sin_e[:, None]) ** 2
            n_sides = len(rho)
            acc = np.zeros(n_sides)
            if partials:
                # H[n, (eta, side)]: vphi sums of wsin P_mirrored dK/drup;
                # tc, tq: (vphi, eta) sums of W cos(eta) dK/dc, W sin^2(eta) dK/dq
                H = np.zeros((col.half, cs.size))
                tc = np.zeros(n_sides)
                tq = np.zeros(n_sides)
            for sl in _row_chunks(col, len(r0q)):
                q = rs2[None, :, :] + dcos2[sl, None, None]
                rup = r0q[sl, None, None] + np.einsum("kp,kes->pes", Fk[:, sl], tab)
                if not partials:
                    K = _radial_closed_form(rup, cs[None, :, :], q)
                else:
                    K, d_rup, d_c, d_q = _radial_closed_form(rup, cs[None, :, :], q, partials=True)
                    H += WP[sl].T @ d_rup.reshape(len(d_rup), -1)
                    tc += Wc[sl].ravel() @ d_c.reshape(-1, n_sides)
                    tq += Ws[sl].ravel() @ d_q.reshape(-1, n_sides)
                acc += np.einsum("pe,pes->s", W[sl], K)
            out[i, blk] = -(acc[0::2] + acc[1::2]) / (4.0 * np.pi)
            if partials:
                G = np.einsum("e,kes,nes->skn", col.eta_w, tab, H.reshape(col.half, *cs.shape))
                d_src[i, blk] = -(G[0::2] + G[1::2]) / (4.0 * np.pi)
                t = tc + 2.0 * rho * tq
                d_rho[i, blk] = -(t[0::2] + t[1::2]) / (4.0 * np.pi)
    if partials:
        return out, d_src, d_rho
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


def _bracket(col: Collocation, omega: float, f: Perturbation, phis, thetas, partials: bool = False):
    """(r, I(f) - (Omega/2) r^2) at the boundary targets (phis[i],
    thetas[j]), each of shape (len(phis), len(thetas)).  With
    ``partials`` the source and target-radius partials of I that
    ``_stream`` returns follow, from the same pass."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    r = _radii(col, f, phis, thetas)
    if np.min(r) <= 0.0:
        raise GeometryError("reconstructed radius is non-positive at a target")
    if not partials:
        return r, _stream(col, f, phis, thetas, r) - 0.5 * omega * r ** 2
    I, d_src, d_rho = _stream(col, f, phis, thetas, r, partials=True)
    return r, I - 0.5 * omega * r ** 2, d_src, d_rho


def _theta_modes(col: Collocation, samples: np.ndarray) -> np.ndarray:
    """cos(k m theta) coefficients, k = 1..n_modes, of samples on the
    collocation theta targets (axis 1), shape (n_modes, half, ...)."""
    return (2.0 / col.n_theta) * np.einsum("tj...,kj->kt...", samples, col.cos_ktheta)


def _stationarity(col: Collocation, bracket: np.ndarray) -> np.ndarray:
    """Ftilde from the bracket on the collocation grid (axis 0 phi,
    axis 1 theta): the theta mean subtracted, divided by r0."""
    scale = col.kctx.r0v[: col.half].reshape((-1,) + (1,) * (bracket.ndim - 1))
    return (bracket - bracket.mean(axis=1, keepdims=True)) / scale


def f_tilde(col: Collocation, omega: float, f: Perturbation | None, with_bracket: bool = False):
    """Ftilde(Omega, f) sampled on the collocation targets.

    The theta mean over the full period equals the mean over the cosine
    sample set (the sampling kills every retained nonzero mode exactly),
    so the output has exactly vanishing discrete theta average.  With
    ``with_bracket`` it returns (samples, bracket), the stream bracket
    I(f) - (Omega/2) r^2 on the same targets that the samples come from.
    """
    if f is None:
        f = Perturbation.zero(col)
    _, bracket = _bracket(col, omega, f, col.kctx.nodes[: col.half], col.theta)
    samples = _stationarity(col, bracket)
    return (samples, bracket) if with_bracket else samples


def f_tilde_modes(col: Collocation, omega: float, f: Perturbation | None, with_bracket: bool = False):
    """cos(k m theta) coefficients of Ftilde, k = 1..n_modes, shape
    (n_modes, half); with ``with_bracket``, (modes, bracket) as in
    ``f_tilde``."""
    samples, bracket = f_tilde(col, omega, f, with_bracket=True)
    modes = _theta_modes(col, samples)
    return (modes, bracket) if with_bracket else modes


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
    (1/4pi) iint sin(vphi) (d_eta r + i r) e^{i eta} / dist, walked in
    the chunks of vphi rows that ``_stream`` uses."""
    ang_cos, ang_sin, exp_eta = _angle_tables(col, col.theta)
    km_sin = (np.arange(1, col.n_modes + 1) * col.m).astype(float)[:, None, None] * ang_sin
    cos_e = np.cos(col.eta_nodes)
    sin_e = np.sin(col.eta_nodes)
    out = np.empty((col.half, col.n_theta), dtype=complex)
    for t in range(col.half):
        geom = col.geometry(col.kctx.nodes[t])
        r0q = geom["r0q"]
        dcos2 = geom["dcos"] ** 2
        Fk = f.coeffs @ geom["P"].T
        W = geom["wsin"][:, None] * col.eta_w[None, :]
        rho = np.repeat(r_targets[t], 2)
        cs = rho[None, :] * cos_e[:, None]
        rs2 = (rho[None, :] * sin_e[:, None]) ** 2
        y_dr = np.zeros(cs.shape)
        y_r = np.zeros(cs.shape)
        for sl in _row_chunks(col, len(r0q)):
            r = r0q[sl, None, None] + np.einsum("kp,kes->pes", Fk[:, sl], ang_cos)
            dr = -np.einsum("kp,kes->pes", Fk[:, sl], km_sin)
            inv = 1.0 / np.sqrt((r - cs[None, :, :]) ** 2 + rs2[None, :, :] + dcos2[sl, None, None])
            y_dr += np.einsum("pe,pes->es", W[sl], dr * inv)
            y_r += np.einsum("pe,pes->es", W[sl], r * inv)
        acc = np.sum((y_dr + 1j * y_r) * exp_eta, axis=0)
        out[t] = (acc[0::2] + acc[1::2]) / (4.0 * np.pi)
    return out


def velocity_residual(col: Collocation, omega: float, f: Perturbation | None, bracket: np.ndarray | None = None) -> float:
    """Defect of the velocity-form/stream-form equivalence on the grid.

    The velocity form Re[(U_h - i Omega r e^{i theta})
    (i d_theta r + r) e^{-i theta}] equals minus the theta derivative of
    the stream bracket for any shape; the returned number is the max-norm
    of their sum, a pure quadrature-consistency measure.  A ``bracket``
    already evaluated for (Omega, f) on the collocation grid, such as
    ``BranchPoint.bracket``, is used as given instead of recomputed.
    """
    if f is None:
        f = Perturbation.zero(col)
    phis = col.kctx.nodes[: col.half]
    if bracket is None:
        R, bracket = _bracket(col, omega, f, phis, col.theta)
    else:
        R = _radii(col, f, phis, col.theta)
    k = np.arange(1, col.n_modes + 1)
    km = (k * col.m).astype(float)
    bmodes = _theta_modes(col, bracket)
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
    bracket: np.ndarray  # I(f) - (Omega/2) r^2 on the collocation grid


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


def _amplitude_row(col: Collocation, hstar: np.ndarray) -> np.ndarray:
    """The amplitude s = <f_1, h*>_w / <h*, h*>_w as a row t on the
    unknowns, t @ u = s: f_1 is mirrored from its half, so t holds h* w
    folded by ``_mirrored``, and zero on the other modes and on Omega."""
    hw = hstar * col.kctx.weights
    t = np.zeros(col.n_modes * col.half + 1)
    t[: col.half] = _mirrored(col, hw[None, :])[0] / np.sum(hstar * hw)
    return t


def _system(modes: np.ndarray, t: np.ndarray, u: np.ndarray, s: float) -> np.ndarray:
    """Residual of the square system: the Ftilde modes, then t @ u - s."""
    return np.concatenate([modes.ravel(), [t @ u - s]])


def _residual(col: Collocation, u: np.ndarray, s: float, hstar: np.ndarray):
    """(``_system`` at u, bracket): one plain pass through
    ``f_tilde_modes``, with the bracket as in ``f_tilde``."""
    half, omega = _unpack(col, u)
    modes, bracket = f_tilde_modes(col, omega, Perturbation.from_half(col, half), with_bracket=True)
    return _system(modes, _amplitude_row(col, hstar), u, s), bracket


def _jacobian(col: Collocation, u: np.ndarray, s: float, hstar: np.ndarray):
    """(residual, J, bracket): ``_residual`` at u and its exact Jacobian,
    all from one ``_stream`` pass with partials (its I is bitwise the
    plain pass's).  The target radius R[i, j] = r0(phi_i) +
    sum_k f_k(phi_i) cos(k m theta_j) moves with the half coefficients
    of its own node alone (the mirrored interpolation rows of the grid
    nodes are the identity), so d bracket = dI_src + (dI/drho - Omega R)
    cos(k m theta_j) on the diagonal n = i.  The Omega column is the
    modes of -R^2/2; the last row is the amplitude row t."""
    half, omega = _unpack(col, u)
    R, bracket, d_src, d_rho = _bracket(
        col, omega, Perturbation.from_half(col, half), col.kctx.nodes[: col.half], col.theta, partials=True
    )
    t = _amplitude_row(col, hstar)
    res = _system(_theta_modes(col, _stationarity(col, bracket)), t, u, s)
    diag = np.arange(col.half)
    d_src[diag, :, :, diag] += (d_rho - omega * R)[:, :, None] * col.cos_ktheta.T[None, :, :]
    n = col.n_modes * col.half
    J = np.zeros((n + 1, n + 1))
    J[:n, :n] = _theta_modes(col, _stationarity(col, d_src)).reshape(n, n)
    J[:n, n] = _theta_modes(col, _stationarity(col, -0.5 * R ** 2)).ravel()
    J[n] = t
    return res, J, bracket


def newton_correct(
    col: Collocation,
    s: float,
    omega_init: float,
    f_init: Perturbation,
    hstar: np.ndarray,
):
    """Damped Newton solve of {Ftilde modes = 0, t . u = s}, with the
    amplitude row t of ``_amplitude_row``.

    One ``_stream`` pass with partials at the initial guess gives its
    residual, bracket and exact Jacobian (``_jacobian``).  A non-finite
    residual there is a SolverError.  Each iteration takes the Newton
    step and halves it until the residual max-norm falls, at most
    DAMP_MAX times; each trial is one plain pass.  Only an accepted step
    that leaves the residual above NEWTON_TOL is linearized again, so an
    iteration that converges costs one partials pass and one plain pass.
    Returns (BranchPoint, jacobian): the point carries the bracket of its
    accepted iterate, and the Jacobian is that of the last
    linearization, at the initial guess if it already met NEWTON_TOL.
    """
    u = _pack(f_init.coeffs[:, : col.half], omega_init)
    res, jac, bracket = _jacobian(col, u, s, hstar)
    rnorm = float(np.max(np.abs(res)))
    if not np.isfinite(rnorm):
        # NaN fails every comparison: the loop below would accept it
        raise SolverError(f"newton_correct: non-finite residual ({rnorm}) at the initial guess")
    it = 0
    while rnorm > NEWTON_TOL:
        if it >= NEWTON_MAXIT:
            raise SolverError(f"newton_correct: no convergence in {NEWTON_MAXIT} iterations (residual {rnorm:.3e})")
        if it:
            jac = _jacobian(col, u, s, hstar)[1]
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"newton_correct: singular Jacobian ({exc})") from exc
        scale = 1.0
        for _ in range(DAMP_MAX + 1):
            try:
                new_res, new_bracket = _residual(col, u + scale * delta, s, hstar)
            except GeometryError:
                scale *= 0.5
                continue
            if np.max(np.abs(new_res)) < rnorm:
                break
            scale *= 0.5
        else:
            raise SolverError(f"newton_correct: line search failed (residual {rnorm:.3e})")
        u = u + scale * delta
        res, bracket = new_res, new_bracket
        rnorm = float(np.max(np.abs(res)))
        it += 1
    half, omega = _unpack(col, u)
    f = Perturbation.from_half(col, half)
    return BranchPoint(float(s), omega, f, rnorm, it, bracket), jac


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
    corrector failure truncates the branch and records the step.  s_max
    must be finite and nonzero.
    """
    if steps < 1:
        raise DomainError(f"continue_branch: steps must be >= 1, got {steps}")
    if not np.isfinite(s_max) or s_max == 0:
        raise DomainError(f"continue_branch: s_max must be finite and nonzero, got {s_max}")
    if bp is None:
        bp = find_bifurcation_point(col.kctx, col.m)
    hstar = np.asarray(bp.eigfun, dtype=float)
    s_grid = s_max * np.arange(1, steps + 1) / steps
    points: list[BranchPoint] = []
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
        try:
            point, _ = newton_correct(col, s, omega0, f0, hstar)
        except (SolverError, GeometryError) as exc:
            return Branch(col.m, bp.omega_m, s_grid, points, failed_at=k, message=str(exc))
        points.append(point)
    return Branch(col.m, bp.omega_m, s_grid, points)
