"""Independent numerical oracles used by the test suite only.

These deliberately avoid the code paths they check: adaptive quadrature
comes from scipy, the hypergeometric reference from scipy.special, and
the rotating-ellipsoid branch uses scipy's quadrature and root finder.  The
analytic (series) profiles are non-ellipsoid test beds whose errors are
the solver's own, with no interpolant in between.
"""

import warnings

import numpy as np
from scipy import integrate

import qg3d as q


def bump_profile() -> q.Profile:
    """r0 = sin(phi) (1 + 0.15 sin^2 phi): symmetric about the equator."""
    return q.make_profile("series", g=[1.15, 0.0, -0.15])


def asym_profile() -> q.Profile:
    """r0 = sin(phi) (1 + 0.1 cos phi): not symmetric about the equator."""
    return q.make_profile("series", g=[1.0, 0.1])


def euler_integral_2f1(a: float, b: float, c: float, x: float) -> float:
    """2F1 via the Euler integral (requires c > b > 0), adaptively."""
    from qg3d.specfun import gamma_fn

    pref = gamma_fn(c) / (gamma_fn(b) * gamma_fn(c - b))
    with warnings.catch_warnings():
        # the endpoint-singular integrand saturates quad's extrapolation
        # table at tolerances tighter than it can certify; the value is
        # still good to ~1e-12
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            lambda t: t ** (b - 1.0) * (1.0 - t) ** (c - b - 1.0) * (1.0 - x * t) ** (-a),
            0.0,
            1.0,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=200,
        )
    return pref * val


def ring_integral_quadrature(n: int, beta: float, A: float) -> float:
    """Direct adaptive quadrature of int_0^{2pi} cos(n t)/(A - cos t)^{beta/2}."""
    val, _ = integrate.quad(
        lambda t: np.cos(n * t) / (A - np.cos(t)) ** (beta / 2.0),
        0.0,
        2.0 * np.pi,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=200,
    )
    return val


def rotating_ellipsoid(s: float, phi: np.ndarray, hstar: np.ndarray, weights: np.ndarray, a0: float, n_coeffs: int):
    """(Omega, c) of the rotating uniform-PV ellipsoid on the m = 2 branch
    of the base r0 = a0 sin(phi), z = cos(phi), at amplitude s.

    The ellipsoid x^2/a^2 + y^2/b^2 + z^2 = 1 is r = sin(phi) g(theta),
    g = (cos^2(theta)/a^2 + sin^2(theta)/b^2)^(-1/2), so its shape
    coefficients are f_k = c_k sin(phi), c_k the cos(2 k theta)
    coefficients of g, k = 1..n_coeffs.  The branch fixes mean g = a0 and
    c_1 = s <h*, h*>_w / <sin(phi), h*>_w (the amplitude is <f_1, h*>_w /
    <h*, h*>_w).  Its interior potential is sum A_i x_i^2 + const with
    A_i = (abc/4) int_0^inf ds / ((a_i^2 + s) sqrt((a^2+s)(b^2+s)(c^2+s))),
    c = 1, and every horizontal section is a streamline in the frame
    rotating at Omega = 2 (A_1 a^2 - A_2 b^2) / (a^2 - b^2).  scipy's
    ``fsolve`` gives (a, b) and its ``quad`` the A_i.
    """
    from scipy.optimize import fsolve

    # g is smooth and pi-periodic: the trapezoid sums on 128 points are
    # its mean and cos(2 k theta) coefficients to round-off
    theta = np.pi * np.arange(128) / 128
    k = np.arange(1, n_coeffs + 1)

    def coeffs(ab):
        a, b = ab
        g = (np.cos(theta) ** 2 / a ** 2 + np.sin(theta) ** 2 / b ** 2) ** -0.5
        return np.mean(g), 2.0 * np.mean(g * np.cos(2 * k[:, None] * theta), axis=1)

    c1 = s * np.sum(hstar * hstar * weights) / np.sum(np.sin(phi) * hstar * weights)

    def defect(ab):
        mean, c = coeffs(ab)
        return [mean - a0, c[0] - c1]

    ab = fsolve(defect, [a0 + c1, a0 - c1], xtol=1e-12)
    if np.max(np.abs(defect(ab))) > 1e-14:
        raise RuntimeError(f"rotating_ellipsoid: fsolve left the defect {defect(ab)}")
    a, b = ab

    def A(ai):
        val, _ = integrate.quad(
            lambda t: 1.0 / ((ai * ai + t) * np.sqrt((a * a + t) * (b * b + t) * (1.0 + t))),
            0.0,
            np.inf,
            epsabs=0.0,
            epsrel=1e-13,
            limit=200,
        )
        return a * b / 4.0 * val

    omega = 2.0 * (A(a) * a * a - A(b) * b * b) / (a * a - b * b)
    return omega, coeffs(ab)[1]
