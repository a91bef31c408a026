"""Linearization of the patch functional at the trivial shape.

Two independent representations of the mode-n block are implemented and
cross-validated:

* ``apply_mode_hyper``: the kernel form
  (L_n h)(phi) = nu_Omega(phi) h(phi) - int_0^pi H_n(phi, .) h dvphi,
  a single singular-split quadrature per target;

* ``apply_mode_direct``: the raw double integral over (vphi, eta) of the
  deformed Green kernel, the form the nonlinear functional's Gateaux
  derivative produces before the angular integral is reduced.

The Gateaux check compares difference quotients of the nonlinear
functional against the kernel form and verifies first-order (O(eps))
convergence of the error.
"""

from __future__ import annotations

import numpy as np

from .errors import AccuracyError, DomainError
from .kernel import KernelContext, nu_omega, row_apply
from .nonlinear import Collocation, Perturbation, f_tilde
from .quadrature import double_exponential, interp_matrix, split_de

__all__ = [
    "apply_mode_hyper",
    "apply_mode_direct",
    "cross_validate",
    "gateaux_check",
]


def apply_mode_hyper(ctx: KernelContext, n: int, omega: float, h) -> np.ndarray:
    """(L_n h)(phi_i) = nu(phi_i) h_i - int H_n(phi_i, .) h via the
    kernel representation (split tanh-sinh rows, barycentric h)."""
    hv = np.asarray(h, dtype=float)
    return nu_omega(ctx, omega).values * hv - row_apply(ctx, n, hv)


def apply_mode_direct(ctx: KernelContext, n: int, omega: float, h) -> np.ndarray:
    """Mode-n block evaluated from the double-integral representation:

        (L_n h)(phi) = h(phi) [ S1(phi)/r0(phi) - Omega ] - S2(phi)/r0(phi),
        S1 = (1/4pi) iint sin(vphi) r0(vphi) cos(eta)   / sqrt(A),
        S2 = (1/4pi) iint sin(vphi) r0(vphi) h(vphi) cos(n eta) / sqrt(A),
        A  = (r0(phi)-r0(vphi))^2 + (cos phi - cos vphi)^2
             + 4 r0(phi) r0(vphi) sin^2(eta/2).

    eta uses a tanh-sinh rule on (0, pi) (even integrand, doubled), vphi
    splits at the target; the lone singular point is (vphi, eta) =
    (phi, 0).
    """
    hv = np.asarray(h, dtype=float)
    lvl = ctx.direct_level
    eta_rule = double_exponential(0.0, np.pi, lvl)
    eta, weta = eta_rule.nodes, eta_rule.weights
    cos_eta = np.cos(eta)
    cos_neta = np.cos(n * eta)
    sin_half_sq = np.sin(0.5 * eta) ** 2
    out = np.empty(ctx.n_nodes)
    for i, pt in enumerate(ctx.nodes):
        rule = split_de(0.0, np.pi, pt, lvl)
        vphi, wphi = rule.nodes, rule.weights
        r0q = ctx.profile.r0(vphi)
        hq = interp_matrix(ctx.nodes, ctx.bary, vphi) @ hv
        rp = ctx.r0v[i]
        A = (rp - r0q[:, None]) ** 2 + (np.cos(pt) - np.cos(vphi))[:, None] ** 2 + 4.0 * rp * r0q[:, None] * sin_half_sq[None, :]
        invroot = 1.0 / np.sqrt(np.maximum(A, 1e-300))
        base = wphi * np.sin(vphi) * r0q
        s1 = 2.0 * np.einsum("p,e,pe->", base, weta * cos_eta, invroot) / (4.0 * np.pi)
        s2 = 2.0 * np.einsum("p,e,pe->", base * hq, weta * cos_neta, invroot) / (4.0 * np.pi)
        out[i] = hv[i] * (s1 / rp - omega) - s2 / rp
    return out


def cross_validate(ctx: KernelContext, n: int, omega: float, h) -> float:
    """Max relative discrepancy between the two representations."""
    hyper = apply_mode_hyper(ctx, n, omega, h)
    direct = apply_mode_direct(ctx, n, omega, h)
    scale = float(np.max(np.abs(hyper)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(hyper - direct)) / scale)


def gateaux_check(col: Collocation, omega: float, h, eps_list) -> np.ndarray:
    """First-order consistency of the nonlinear functional with the
    linearization: e(eps) = || (Ftilde(Omega, eps h cos(m theta))
    - Ftilde(Omega, 0)) / eps - cos(m theta) L_m h ||_inf, which must
    vanish linearly in eps (halving ratio about 2)."""
    hv = np.asarray(h, dtype=float)
    if len(hv) != col.kctx.n_nodes:
        raise DomainError("gateaux_check: h must be sampled on the collocation kernel grid")
    lin = apply_mode_hyper(col.kctx, col.m, omega, hv)[: col.n_phi]
    target = lin[:, None] * np.cos(col.m * col.theta)[None, :]
    base = f_tilde(col, omega, None)
    errs = []
    for eps in eps_list:
        coeffs = np.zeros((col.n_modes, col.kctx.n_nodes))
        coeffs[0] = eps * hv
        pert = Perturbation(col, coeffs)
        val = f_tilde(col, omega, pert)
        errs.append(float(np.max(np.abs((val - base) / eps - target))))
    errs = np.array(errs)
    if len(errs) > 1 and np.all(np.diff(errs) > 0.0):
        raise AccuracyError(
            "gateaux_check: error grows as eps shrinks -- the nonlinear "
            "functional and the linearization are inconsistent"
        )
    return errs
