"""Gauss hypergeometric machinery and the closed-form ring integral.

Everything downstream of the kernel formulas rests on the family

    F_n(x) = 2F1(n + 1/2, n + 1/2; 2n + 1; x),   x in [0, 1),

which belongs to the logarithmic class c = a + b: it diverges like
-ln(1 - x) at the right endpoint.  ``f_n_many`` evaluates it in two
branches, split at u_switch = min(0.25, 14/(a*b)) in u = 1 - x (the
split moves toward x = 1 as a*b grows; at a fixed 0.75 the endpoint
expansion is badly conditioned once a = b >~ 8):

* u >= u_switch: the power series in x (all terms positive, no
  cancellation), in double precision;
* u < u_switch: the connection expansion in u whose coefficients carry
  digamma factors, pref * (sum e_k d_k u^k - ln u sum e_k u^k), with
  both sums in extended precision because their difference cancels by
  up to ~1e6 at n = 8.

Both branches are Horner sums of a fixed length.  The points of a call
are sorted into a few buckets by x (series) or u (endpoint), and each
bucket has a term count fixed once per n in ``_fn_tables`` from an
a-priori geometric bound on the truncated tail at the bucket's upper
edge: below 1e-16 for the series and 1e-24 for the endpoint sums,
relative to F_n >= 1.  A value therefore never depends on the other
points of the call.  The endpoint coefficients are exact rationals
rounded once to the working precision.

The gamma function is the standard library's ``math.gamma`` behind a
pole check; the digamma cores are implemented here (asymptotic series
plus recurrence) so the package has no runtime dependency beyond numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "gamma_fn",
    "digamma",
    "pochhammer",
    "gauss_2f1",
    "f_n",
    "f_n_many",
    "f_n_prime",
    "ring_integral",
]

_LD = np.longdouble
_EULER = _LD("0.5772156649015328606065120900824024310422")
# ln 2 and pi as integer ratios, exact to 47 and 49 decimals
_LN2 = (69314718055994530941723212145817656807550013436, 10 ** 47)
_PI = (31415926535897932384626433832795028841971693993751, 10 ** 49)

MAX_SERIES_TERMS = 500
_SERIES_EXIT = 1e-16


def _is_nonpositive_integer(x: float, tol: float = 1e-12) -> bool:
    return x <= tol and abs(x - round(x)) <= tol


def gamma_fn(x: float) -> float:
    """Gamma function for real x, x not a non-positive integer."""
    x = float(x)
    if _is_nonpositive_integer(x):
        raise DomainError(f"gamma_fn: pole at non-positive integer x={x}")
    return math.gamma(x)


def _rgamma(x: float) -> float:
    """1/Gamma(x), zero at the non-positive-integer poles."""
    if _is_nonpositive_integer(x):
        return 0.0
    return 1.0 / gamma_fn(x)


def _digamma_core(x: float, shift_to: float) -> float:
    """digamma via upward recurrence to x >= shift_to, then the
    asymptotic expansion in 1/x^2 (Bernoulli terms through x^-14)."""
    acc = 0.0
    while x < shift_to:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = inv2 * (
        1.0 / 12
        - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 * (1.0 / 240 - inv2 * (1.0 / 132 - inv2 * 691.0 / 32760))))
    )
    return acc + math.log(x) - 0.5 / x - tail


def digamma(x: float) -> float:
    """Digamma function for real x, x not a non-positive integer."""
    x = float(x)
    if _is_nonpositive_integer(x):
        raise DomainError(f"digamma: pole at non-positive integer x={x}")
    if x < 0.0:
        # psi(x) = psi(1 - x) - pi cot(pi x)
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    return _digamma_core(x, 16.0)


def _digamma_ld(x) -> np.longdouble:
    """Extended-precision digamma for positive x (connection coefficients)."""
    x = _LD(x)
    acc = _LD(0.0)
    while x < 32:
        acc -= 1 / x
        x += 1
    inv2 = 1 / (x * x)
    tail = inv2 * (
        _LD(1) / 12
        - inv2
        * (_LD(1) / 120 - inv2 * (_LD(1) / 252 - inv2 * (_LD(1) / 240 - inv2 * (_LD(1) / 132 - inv2 * _LD(691) / 32760))))
    )
    return acc + np.log(x) - 1 / (2 * x) - tail


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1."""
    if n < 0 or n != int(n):
        raise DomainError(f"pochhammer: n must be a non-negative integer, got {n}")
    out = 1.0
    x = float(x)
    for k in range(int(n)):
        out *= x + k
    return out


def _series_2f1(a: float, b: float, c: float, x: float, max_terms: int):
    """Plain power series; returns (value, converged)."""
    term = 1.0
    total = 1.0
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
        if abs(term) <= _SERIES_EXIT * abs(total) and k > 2:
            return total, True
    return total, False


def _log_connection(a: float, b: float, u, max_terms: int):
    """2F1(a, b; a+b; 1-u) for 0 < u < 1 via the endpoint expansion

        pref * sum_k e_k u^k (d_k - ln u),
        e_k = (a)_k (b)_k / (k!)^2,
        d_k = 2 psi(k+1) - psi(a+k) - psi(b+k),
        pref = Gamma(a+b) / (Gamma(a) Gamma(b)).

    The d-weighted and plain sums are accumulated separately in extended
    precision; each has fixed-sign terms, so the only cancellation left
    is the single final combination.  Vectorized over u.
    """
    u = np.atleast_1d(np.asarray(u, dtype=_LD))
    u = np.maximum(u, _LD(1e-300))
    lu = np.log(u)
    e = _LD(1.0)
    d = -2 * _EULER - _digamma_ld(a) - _digamma_ld(b)
    p = np.ones_like(u)
    sum_d = np.zeros_like(u)
    sum_p = np.zeros_like(u)
    converged = False
    for k in range(max_terms):
        sum_d += e * d * p
        sum_p += e * p
        e *= (a + k) * (b + k) / _LD((k + 1.0) ** 2)
        d += 2 / _LD(k + 1.0) - 1 / (_LD(a) + k) - 1 / (_LD(b) + k)
        p *= u
        if k > 4 and np.all(e * p * (np.abs(d) + np.abs(lu)) <= _LD(1e-24) * np.abs(sum_d - lu * sum_p)):
            converged = True
            break
    pref = _LD(gamma_fn(a + b)) / (_LD(gamma_fn(a)) * _LD(gamma_fn(b)))
    return (pref * (sum_d - lu * sum_p)).astype(float), converged


def _log_case_switch(a: float, b: float) -> float:
    """u below which the logarithmic connection expansion is used."""
    return min(0.25, 14.0 / max(a * b, 1.0))


def gauss_2f1(a: float, b: float, c: float, x: float, max_terms: int = MAX_SERIES_TERMS) -> float:
    """Gauss hypergeometric 2F1(a, b; c; x) for real parameters.

    Supported arguments: -1 < x < 1, plus x = 1 when c - a - b > 0
    (closed form Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))).
    Near x = 1 the logarithmic connection expansion is used when
    c = a + b, and the two-term connection formula when c - a - b is
    not an integer.
    """
    a, b, c, x = float(a), float(b), float(c), float(x)
    if _is_nonpositive_integer(c):
        raise DomainError(f"gauss_2f1: c={c} is a non-positive integer")
    if x > 1.0 or x <= -1.0:
        raise DomainError(f"gauss_2f1: argument x={x} outside (-1, 1]")
    s = c - a - b
    if x == 1.0:
        if s <= 0.0:
            raise DomainError("gauss_2f1: x=1 requires c - a - b > 0")
        return gamma_fn(c) * gamma_fn(s) / (gamma_fn(c - a) * gamma_fn(c - b))
    if a == 0.0 or b == 0.0:
        return 1.0
    log_case = abs(s) <= 1e-12
    if log_case:
        x_switch = 1.0 - _log_case_switch(a, b)
    else:
        x_switch = 0.75
    if x <= x_switch:
        val, ok = _series_2f1(a, b, c, x, max_terms)
        if not ok:
            raise AccuracyError(f"gauss_2f1: series not converged in {max_terms} terms at x={x}")
        return val
    u = 1.0 - x
    if log_case:
        val, ok = _log_connection(a, b, u, max_terms)
        if not ok:
            raise AccuracyError(f"gauss_2f1: connection series not converged at x={x}")
        return float(val[0])
    if abs(s - round(s)) > 1e-8:
        g1 = gamma_fn(c) * gamma_fn(s) * _rgamma(c - a) * _rgamma(c - b)
        g2 = gamma_fn(c) * gamma_fn(-s) * _rgamma(a) * _rgamma(b)
        f1 = f2 = 0.0
        if g1 != 0.0:
            f1, ok = _series_2f1(a, b, 1.0 - s, u, max_terms)
            if not ok:
                raise AccuracyError(f"gauss_2f1: connection series not converged at x={x}")
        if g2 != 0.0:
            f2, ok = _series_2f1(c - a, c - b, 1.0 + s, u, max_terms)
            if not ok:
                raise AccuracyError(f"gauss_2f1: connection series not converged at x={x}")
        return g1 * f1 + g2 * u ** s * f2
    # integer nonzero c-a-b: fall back to the series (slow convergence)
    val, ok = _series_2f1(a, b, c, x, max_terms)
    if not ok:
        raise AccuracyError(
            f"gauss_2f1: series not converged at x={x} (integer c-a-b={s}, no connection branch)"
        )
    return val


# --------------------------------------------------------------------------
# fast path for the kernel family F_n
# --------------------------------------------------------------------------

# Upper edges of the point buckets: x for the series branch, u = 1 - x for
# the endpoint branch.  Edges at or beyond the branch switch are dropped
# and the switch itself closes the last bucket.
_SERIES_X_EDGES = (0.01, 0.05, 0.25, 0.5)
_ENDPOINT_U_EDGES = (1e-12, 1e-6, 1e-3, 1e-2, 0.05)
# relative truncation error allowed in the extended-precision endpoint sum
_ENDPOINT_EXIT = 1e-24


@dataclass(frozen=True)
class _FnTable:
    """Per-n coefficients and a-priori term counts of the two branches."""

    ser: np.ndarray       # series coefficients (a)_k^2 / ((2a)_k k!), double
    dser: np.ndarray      # derivative series coefficients (k + 1) ser_{k+1}, double
    cc: np.ndarray        # connection coefficients e_k, extended
    cd: np.ndarray        # e_k d_k, extended
    pref: np.longdouble   # Gamma(2a) / Gamma(a)^2
    u_switch: float
    x_edges: np.ndarray   # series bucket upper edges in x
    x_terms: tuple        # series terms per bucket
    dx_terms: tuple       # derivative series terms per bucket
    u_edges: np.ndarray   # endpoint bucket upper edges in u
    u_terms: tuple        # endpoint terms per bucket


_FN_CACHE: dict[int, _FnTable] = {}


def _rounded(num: int, den: int):
    """The rational num / den (den > 0), rounded once to the working
    precision (64-bit significand, or 53 bits where _LD is double)."""
    if num == 0:
        return _LD(0)
    mag = abs(num)
    for shift in (64 - mag.bit_length() + den.bit_length(), 63 - mag.bit_length() + den.bit_length()):
        top, bot = (mag << shift, den) if shift >= 0 else (mag, den << -shift)
        m = (2 * top + bot) // (2 * bot)
        if m <= 1 << 64:
            break
    return np.ldexp(_LD(m if num > 0 else -m), -shift)


def _tail_within(term: float, rho: float, tol: float) -> bool:
    """Whether a tail whose first term is ``term`` and whose successive
    term ratios are all at most ``rho`` sums to at most ``tol`` (geometric
    bound term / (1 - rho))."""
    return rho < 1 and term <= tol * (1 - rho)


def _fn_tables(n: int) -> _FnTable:
    """Cached per-n tables: coefficients of both branches and, for every
    bucket, the number of terms that bounds the truncated tail.

    The endpoint coefficients are exact rationals (ln 2 and pi enter as
    47- and 49-digit ratios) rounded once to the working precision, so no
    recurrence round-off reaches the endpoint sum, whose final
    combination cancels by up to ~1e6 at n = 8.  With a = n + 1/2,
    e_k = ((a)_k / k!)^2 and d_k = 4 ln 2 + 2 H_k - 4 sum_{j <= n+k} 1/(2j-1).

    Tail bounds are taken at the bucket's upper edge, where every term is
    largest, and are absolute; F_n >= 1 turns them into relative ones.
    Series (double): successive terms ser_k x^k have ratio
    x (a+k)^2 / ((2a+k)(k+1)), at most x max(that factor, 1) from k on,
    and the tail is held below _SERIES_EXIT.  The derivative series
    sum_k (k+1) ser_{k+1} x^k has its own counts: its term ratios
    x (a+k+1)^2 / ((2a+k+1)(k+1)) exceed x and decrease in k, so its tail
    decays more slowly than F_n's; it is held below _SERIES_EXIT times
    the first term a/2, a lower bound of F_n'.  Endpoint (extended): terms
    e_k u^k (|d_k| + |ln u|) have ratio at most u ((a+k)/(k+1))^2, since
    |d_k| decreases and u^k |ln u| increases in u for u < 1/e; the tail
    is held below _ENDPOINT_EXIT / pref.
    """
    tab = _FN_CACHE.get(n)
    if tab is not None:
        return tab
    u_switch = _log_case_switch(n + 0.5, n + 0.5)
    x_edges = np.array([e for e in _SERIES_X_EDGES if e < 1.0 - u_switch] + [1.0 - u_switch])
    u_edges = np.array([e for e in _ENDPOINT_U_EDGES if e < u_switch] + [u_switch])

    # Coefficients are generated until the last bucket's tail is bounded;
    # a bucket's term count is the first K at which its own bound holds.
    a = _LD(n) + _LD(0.5)
    ser, x_terms, dx_terms = [_LD(1.0)], [0] * len(x_edges), [0] * len(x_edges)
    d_tol = _SERIES_EXIT * float(a) / 2
    k = 0
    while not (x_terms[-1] and dx_terms[-1]):
        fac = (a + k) ** 2 / ((2 * a + k) * (k + 1))
        ser.append(ser[k] * fac)
        d_fac = float((a + k + 1) ** 2 / ((2 * a + k + 1) * (k + 1)))
        for j, xe in enumerate(x_edges):
            if k > 0 and not x_terms[j] and _tail_within(float(ser[k]) * xe ** k, xe * max(float(fac), 1.0), _SERIES_EXIT):
                x_terms[j] = k
            if k > 0 and not dx_terms[j] and _tail_within(float((k + 1) * ser[k + 1]) * xe ** k, xe * d_fac, d_tol):
                dx_terms[j] = k
        k += 1
    dser = np.array([(j + 1) * ser[j + 1] for j in range(k)], dtype=float)
    ser = np.array(ser, dtype=float)

    # endpoint: e_k = (N_k / D_k)^2 and d_k = 4 ln 2 + P_k / Q_k exactly
    pi, pi_den = _PI
    pref = _rounded(16 ** n * math.factorial(n) ** 2 * pi_den, math.factorial(2 * n) * pi)
    tol = _ENDPOINT_EXIT / float(pref)
    ln2, ln2_den = _LN2
    odd = math.prod(range(1, 2 * n, 2))
    N, D = 1, 1
    P, Q = -4 * sum(odd // (2 * j - 1) for j in range(1, n + 1)), odd
    cc, cd, u_terms = [], [], [0] * len(u_edges)
    for k in range(MAX_SERIES_TERMS):
        d_num, d_den = 4 * ln2 * Q + P * ln2_den, Q * ln2_den
        cc.append(_rounded(N * N, D * D))
        cd.append(_rounded(N * N * d_num, D * D * d_den))
        d_k = abs(d_num / d_den)
        for j, ue in enumerate(u_edges):
            term = float(cc[k]) * ue ** k * (d_k - math.log(ue))
            if k > 0 and not u_terms[j] and _tail_within(term, ue * ((n + 0.5 + k) / (k + 1)) ** 2, tol):
                u_terms[j] = k
        if u_terms[-1]:
            break
        o = 2 * n + 1 + 2 * k                # 2 (a + k)
        N, D = N * o, D * 2 * (k + 1)
        P, Q = P * (k + 1) * o + (2 * o - 4 * (k + 1)) * Q, Q * (k + 1) * o
        g = math.gcd(P, Q)
        P, Q = P // g, Q // g
    else:
        raise AccuracyError(f"f_n_many: endpoint tail of F_{n} unbounded within {MAX_SERIES_TERMS} terms")
    cc, cd = np.array(cc, dtype=_LD), np.array(cd, dtype=_LD)
    tab = _FnTable(ser, dser, cc, cd, pref, u_switch, x_edges, tuple(x_terms), tuple(dx_terms), u_edges, tuple(u_terms))
    _FN_CACHE[n] = tab
    return tab


def _horner(coef: np.ndarray, terms: int, z: np.ndarray) -> np.ndarray:
    """sum_{k < terms} coef[k] z^k, evaluated by Horner's rule."""
    s = np.full_like(z, coef[terms - 1])
    for k in range(terms - 2, -1, -1):
        s *= z
        s += coef[k]
    return s


def _by_bucket(z: np.ndarray, edges: np.ndarray):
    """Yield (bucket, positions) for the points of z, bucket j holding
    edges[j-1] < z <= edges[j]; points beyond the last edge join it."""
    b = np.minimum(np.searchsorted(edges, z), len(edges) - 1)
    order = np.argsort(b, kind="stable")
    stops = np.cumsum(np.bincount(b, minlength=len(edges)))
    start = 0
    for j, stop in enumerate(stops):
        if stop > start:
            yield j, order[start:stop]
        start = stop


def f_n_many(n: int, x: np.ndarray, one_minus: np.ndarray | None = None) -> np.ndarray:
    """Vectorized F_n(x) = 2F1(n+1/2, n+1/2; 2n+1; x) on 0 <= x < 1.

    ``one_minus`` optionally supplies 1 - x computed without cancellation
    (the kernel assembles it from the chordal distance directly); it is
    what the endpoint expansion actually consumes.  Every point is summed
    with the term count of its bucket, so each value depends on that
    point alone, never on the other points of the call.
    """
    if n < 1:
        raise DomainError(f"f_n_many: n must be >= 1, got {n}")
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = np.ravel(x)
    if one_minus is None:
        u_all = 1.0 - x
    else:
        u_all = np.ravel(np.asarray(one_minus, dtype=float))
    tab = _fn_tables(n)
    out = np.empty_like(x)
    ser_at = np.flatnonzero(u_all >= tab.u_switch)
    xs = x[ser_at]
    for j, pos in _by_bucket(xs, tab.x_edges):
        out[ser_at[pos]] = _horner(tab.ser, tab.x_terms[j], xs[pos])
    end_at = np.flatnonzero(u_all < tab.u_switch)
    us = np.maximum(u_all[end_at].astype(_LD), _LD(1e-300))
    for j, pos in _by_bucket(us, tab.u_edges):
        u = us[pos]
        terms = tab.u_terms[j]
        val = _horner(tab.cd, terms, u) - np.log(u) * _horner(tab.cc, terms, u)
        out[end_at[pos]] = (tab.pref * val).astype(float)
    return out.reshape(shape)


def f_n(n: int, x: float) -> float:
    """F_n(x) = 2F1(n+1/2, n+1/2; 2n+1; x) for scalar x in [0, 1)."""
    if n < 1:
        raise DomainError(f"f_n: n must be >= 1, got {n}")
    x = float(x)
    if x < 0.0 or x >= 1.0:
        raise DomainError(f"f_n: argument x={x} outside [0, 1)")
    return float(f_n_many(n, np.array([x]))[0])


def f_n_prime(n: int, x: float) -> float:
    """Derivative F_n'(x) = ((n+1/2)^2/(2n+1)) 2F1(n+3/2, n+3/2; 2n+2; x).

    Below the switch point it is the termwise derivative of F_n's power
    series, a Horner sum to the derivative's own term count for x's
    bucket.  Above it the connection expansion of F_n is differentiated
    termwise instead (the shifted parameter set has c - a - b = -1, for
    which no clean connection formula is coded).
    """
    if n < 1:
        raise DomainError(f"f_n_prime: n must be >= 1, got {n}")
    x = float(x)
    if x < 0.0 or x >= 1.0:
        raise DomainError(f"f_n_prime: argument x={x} outside [0, 1)")
    tab = _fn_tables(n)
    if 1.0 - x >= tab.u_switch:
        xs = np.array([x])
        j, _ = next(_by_bucket(xs, tab.x_edges))
        return float(_horner(tab.dser, tab.dx_terms[j], xs)[0])
    # d/dx F_n(1-u) = pref * [B/u + ln(u) B' - A'],  A = sum e_k d_k u^k, B = sum e_k u^k,
    # each summed to the term count of u's bucket
    u = np.array([max(_LD(1.0) - _LD(x), _LD(1e-300))])
    j, _ = next(_by_bucket(u, tab.u_edges))
    terms = tab.u_terms[j]
    k = np.arange(1, terms)
    B = _horner(tab.cc, terms, u)
    Ap = _horner(k * tab.cd[1:terms], terms - 1, u)
    Bp = _horner(k * tab.cc[1:terms], terms - 1, u)
    return float((tab.pref * (B / u + np.log(u) * Bp - Ap))[0])


def ring_integral(n: int, beta: float, A: float) -> float:
    """Closed form of the ring integral

        int_0^{2pi} cos(n t) / (A - cos t)^{beta/2} dt
      = 2 pi / (1+A)^{beta/2+n} * (beta/2)_n 2^n (1/2)_n / (2n)!
        * 2F1(n + beta/2, n + 1/2; 2n + 1; 2/(1+A)),

    valid for integer n >= 0, beta >= 0 and A > 1.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"ring_integral: n must be a non-negative integer, got {n}")
    if beta < 0:
        raise DomainError(f"ring_integral: beta must be >= 0, got {beta}")
    if A <= 1.0:
        raise DomainError(f"ring_integral: A must be > 1, got {A}")
    n = int(n)
    coef = pochhammer(beta / 2.0, n) * 2.0 ** n * pochhammer(0.5, n) / gamma_fn(2 * n + 1.0)
    if coef == 0.0:
        return 0.0
    z = 2.0 / (1.0 + A)
    hyp = gauss_2f1(n + beta / 2.0, n + 0.5, 2.0 * n + 1.0, z)
    return 2.0 * math.pi / (1.0 + A) ** (beta / 2.0 + n) * coef * hyp
