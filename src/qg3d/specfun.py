"""Gauss hypergeometric machinery and the closed-form ring integral.

Everything downstream of the kernel formulas rests on the family

    F_n(x) = 2F1(n + 1/2, n + 1/2; 2n + 1; x),   x in [0, 1),

which belongs to the logarithmic class c = a + b: it diverges like
-ln(1 - x) at the right endpoint.  ``f_n_many`` evaluates it in double
precision in two branches, split at a per-n u_switch in u = 1 - x:

* u >= u_switch: Kummer's quadratic transformation (A&S 15.3.19),
  F_n(x) = (2/(1+s))^(2n+1) 2F1(n+1/2, 1/2; n+1; w) with s = sqrt(u) and
  w = (x/(1+s)^2)^2, a series with positive terms only;
* u < u_switch: the connection expansion in u whose coefficients carry
  digamma factors, pref * (sum e_k d_k u^k - ln u sum e_k u^k).  Its two
  sums cancel more as u and n grow, so u_switch is the largest bucket
  edge at which they cancel by at most a factor 10: 0.03 at n = 1, 2
  down to 1e-3 at n = 7, 8.

Both branches are Horner sums of a fixed length.  The points of a call
are sorted into a few buckets by w (Kummer) or u (endpoint), and each
bucket has a term count fixed once per n in ``_fn_tables`` from an
a-priori geometric bound on the truncated tail at the bucket's upper
edge, below 1e-16 relative to F_n.  A value therefore never depends on
the other points, or the other modes, of the call.  One call serves
several modes: the points are sorted by u once, Kummer's set-up is
shared, and per mode a single Horner loop runs over all buckets, each
bucket joining it when it reaches that bucket's term count.  All
coefficients are exact rationals rounded once to double.  Against mpmath,
F_n is good to about 2e-15 relative for n <= 8 on the whole of [0, 1).

Everything here runs in double precision, also the logarithmic case of
the general ``gauss_2f1``: its endpoint expansion is good to about 2e-15
relative against mpmath, and it hands the parameters of F_n itself to
``f_n``.

The gamma function is the standard library's ``math.gamma`` behind a
pole check; the digamma function is implemented here (asymptotic series
plus recurrence) so the package has no runtime dependency beyond numpy.
"""

from __future__ import annotations

import functools
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
    "ring_integral",
]

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


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1."""
    if n < 0 or n != int(n):
        raise DomainError(f"pochhammer: n must be a non-negative integer, got {n}")
    out = 1.0
    x = float(x)
    for k in range(int(n)):
        out *= x + k
    return out


def _series_2f1(a: float, b: float, c: float, x: float):
    """Plain power series; returns (value, converged)."""
    term = 1.0
    total = 1.0
    for k in range(MAX_SERIES_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
        if abs(term) <= _SERIES_EXIT * abs(total) and k > 2:
            return total, True
    return total, False


def _log_connection(a: float, b: float, u):
    """2F1(a, b; a+b; 1-u) for 0 < u < 1 via the endpoint expansion

        pref * sum_k e_k u^k (d_k - ln u),
        e_k = (a)_k (b)_k / (k!)^2,
        d_k = 2 psi(k+1) - psi(a+k) - psi(b+k),
        pref = Gamma(a+b) / (Gamma(a) Gamma(b)).

    The d-weighted and plain sums are accumulated separately; each has
    fixed-sign terms, so the only cancellation left is the single final
    combination.  The sums stop once the next term, with its ln u part,
    falls below _SERIES_EXIT of the combination.  Vectorized over u.
    """
    u = np.maximum(np.atleast_1d(np.asarray(u, dtype=float)), 1e-300)
    lu = np.log(u)
    e = 1.0
    d = 2.0 * digamma(1.0) - digamma(a) - digamma(b)
    p = np.ones_like(u)
    sum_d = np.zeros_like(u)
    sum_p = np.zeros_like(u)
    converged = False
    for k in range(MAX_SERIES_TERMS):
        sum_d += e * d * p
        sum_p += e * p
        e *= (a + k) * (b + k) / (k + 1.0) ** 2
        d += 2.0 / (k + 1.0) - 1.0 / (a + k) - 1.0 / (b + k)
        p *= u
        if k > 4 and np.all(e * p * (abs(d) + np.abs(lu)) <= _SERIES_EXIT * np.abs(sum_d - lu * sum_p)):
            converged = True
            break
    pref = gamma_fn(a + b) / (gamma_fn(a) * gamma_fn(b))
    return pref * (sum_d - lu * sum_p), converged


def _log_case_switch(a: float, b: float) -> float:
    """u below which the logarithmic connection expansion is used."""
    return min(0.25, 14.0 / max(a * b, 1.0))


def gauss_2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; x) for real parameters.

    Supported arguments: -1 < x < 1, plus x = 1 when c - a - b > 0
    (closed form Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))).
    Near x = 1 the logarithmic connection expansion is used when
    c = a + b, and the two-term connection formula when c - a - b is
    not an integer.  F_n's own parameters (n+1/2, n+1/2; 2n+1), integer
    n >= 1, with 0 <= x < 1 go to ``f_n``.
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
    n = a - 0.5
    if a == b and c == 2.0 * a and n >= 1.0 and n == int(n) and x >= 0.0:
        # F_n, which ``f_n_many`` evaluates in double precision
        return f_n(int(n), x)
    log_case = abs(s) <= 1e-12
    if log_case:
        x_switch = 1.0 - _log_case_switch(a, b)
    else:
        x_switch = 0.75
    if x <= x_switch:
        val, ok = _series_2f1(a, b, c, x)
        if not ok:
            raise AccuracyError(f"gauss_2f1: series not converged in {MAX_SERIES_TERMS} terms at x={x}")
        return val
    u = 1.0 - x
    if log_case:
        val, ok = _log_connection(a, b, u)
        if not ok:
            raise AccuracyError(f"gauss_2f1: connection series not converged at x={x}")
        return float(val[0])
    if abs(s - round(s)) > 1e-8:
        g1 = gamma_fn(c) * gamma_fn(s) * _rgamma(c - a) * _rgamma(c - b)
        g2 = gamma_fn(c) * gamma_fn(-s) * _rgamma(a) * _rgamma(b)
        f1 = f2 = 0.0
        if g1 != 0.0:
            f1, ok = _series_2f1(a, b, 1.0 - s, u)
            if not ok:
                raise AccuracyError(f"gauss_2f1: connection series not converged at x={x}")
        if g2 != 0.0:
            f2, ok = _series_2f1(c - a, c - b, 1.0 + s, u)
            if not ok:
                raise AccuracyError(f"gauss_2f1: connection series not converged at x={x}")
        return g1 * f1 + g2 * u ** s * f2
    # integer nonzero c-a-b: fall back to the series (slow convergence)
    val, ok = _series_2f1(a, b, c, x)
    if not ok:
        raise AccuracyError(
            f"gauss_2f1: series not converged at x={x} (integer c-a-b={s}, no connection branch)"
        )
    return val


# --------------------------------------------------------------------------
# fast path for the kernel family F_n
# --------------------------------------------------------------------------

# Upper edges of the point buckets: x for Kummer's form (its points are
# bucketed by the w of these edges), u = 1 - x for the endpoint expansion.
# The branch switch u_switch is one of the endpoint edges (see _fn_tables);
# Kummer edges at or beyond 1 - u_switch are dropped and 1 - u_switch
# closes the last Kummer bucket.
_KUMMER_X_EDGES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.97, 0.99, 0.997, 0.999)
_ENDPOINT_U_EDGES = (1e-12, 1e-6, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03)
# Largest cancellation factor allowed in the double endpoint sum: the
# absolute sum of its terms over the modulus of their sum.
_MAX_CANCEL = 10.0
# Guard on the Kummer term count.  It grows like 1 / sqrt(u_switch): n = 8
# needs 268 terms, n = 12 491 and n = 30 8609.
_MAX_KUMMER_TERMS = 20000


@dataclass(frozen=True)
class _FnTable:
    """Per-n coefficients and a-priori term counts of the two branches."""

    kum: np.ndarray       # Kummer coefficients g_k of 2F1(a, 1/2; a + 1/2; w)
    cc: np.ndarray        # endpoint coefficients e_k
    cd: np.ndarray        # e_k d_k
    pref: float           # Gamma(2a) / Gamma(a)^2
    u_switch: float       # endpoint expansion for u < u_switch, Kummer's form above
    x_edges: np.ndarray   # Kummer bucket upper edges in x
    w_edges: np.ndarray   # the same edges in w
    w_terms: tuple        # Kummer terms per bucket
    u_edges: np.ndarray   # endpoint bucket upper edges in u
    u_terms: tuple        # endpoint terms per bucket


def _tail_within(term: float, rho: float, tol: float) -> bool:
    """Whether a tail whose first term is ``term`` and whose successive
    term ratios are all at most ``rho`` sums to at most ``tol`` (geometric
    bound term / (1 - rho))."""
    return rho < 1 and term <= tol * (1 - rho)


def _kummer(x: np.ndarray, u: np.ndarray):
    """(s, hi, rel, q, w) of Kummer's quadratic transformation (A&S 15.3.19)

        F_n(x) = P G(w),   P = (2 / (1 + s))^(2n+1),   G = 2F1(a, 1/2; a + 1/2; w),

    with s = sqrt(u), q = x / (1 + s)^2 = (1 - s) / (1 + s) and w = q^2;
    none of them depends on n (P is :func:`_kummer_p`).  q is taken from
    x, so nothing cancels at small x.  Above w = 1/2, w is 1 - v with
    v = 1 - w = 4s / (1 + s)^2 instead: G' grows like 1 / (1 - w), so
    there 1 - w must be accurate, and q^2 would carry its ~2.5 ulp into
    it.  1 + s is carried as hi (1 + rel): TwoSum of 1 and s plus the
    root's correction (u - s^2) / (2s), where s^2 is exact by Dekker's
    split.  A rounded 1 + s would reach P amplified 2n + 1 times.
    """
    s = np.sqrt(u)
    c = 134217729.0 * s               # 2^27 + 1
    sh = c - (c - s)
    sl = s - sh
    ss = s * s
    ss_lo = ((sh * sh - ss) + 2.0 * sh * sl) + sl * sl
    ds = ((u - ss) - ss_lo) / (2.0 * s)
    hi = 1.0 + s
    rel = ((s - (hi - 1.0)) + ds) / hi
    corr = (1.0 - 2.0 * rel) / (hi * hi)
    q = x * corr
    v = 4.0 * (s + ds) * corr
    return s, hi, rel, q, np.where(v < 0.5, 1.0 - v, q * q)


def _kummer_p(n: int, hi: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """Kummer's prefactor P = (2 / (1 + s))^(2n+1) from :func:`_kummer`'s
    hi and rel."""
    p = 2 * n + 1
    return 2.0 ** p * hi ** -p * (1.0 - p * rel)


@functools.cache
def _fn_tables(n: int) -> _FnTable:
    """Cached per-n tables: coefficients of both branches and, for every
    bucket, the number of terms that bounds the truncated tail.

    Endpoint expansion, with a = n + 1/2:
    F_n = pref sum_k e_k u^k (d_k - ln u), e_k = ((a)_k / k!)^2 and
    d_k = 4 ln 2 + 2 H_k - 4 sum_{j <= n+k} 1/(2j-1).  e_k and e_k d_k are
    rounded once from exact rationals, with only 4 ln 2 - 4 sum_{j <= n}
    1/(2j-1) entering as a double.  The final combination cancels, by a
    factor that grows with u and n; u_switch is the largest endpoint edge
    up to which that factor, taken at every edge, stays within _MAX_CANCEL.

    Kummer's form: G has coefficients g_k = (a)_k (1/2)_k / ((a+1/2)_k k!),
    rounded once from exact rationals, whose ratio
    (a+k)(1/2+k) / ((a+1/2+k)(k+1)) is below 1, so all terms are positive
    and the tail after K terms is at most g_K w^K / (1 - w).

    Tail bounds are taken at the bucket's upper edge, where every term is
    largest.  F_n >= 1 and G >= 1 make them relative: below _SERIES_EXIT
    for both branches (endpoint terms e_k u^k (|d_k| + |ln u|) have ratio
    at most u ((a+k)/(k+1))^2, since |d_k| decreases and u^k |ln u|
    increases in u for u < 1/e; their tail is held below
    _SERIES_EXIT / pref).
    """
    a = n + 0.5
    pref = 16 ** n * math.factorial(n) ** 2 / math.factorial(2 * n) / math.pi
    tol = _SERIES_EXIT / pref

    # endpoint: e_k = (N / D)^2 and d_k = P / Q exactly, from the double d_0
    ln2_num, ln2_den = (4 * math.log(2)).as_integer_ratio()
    odd = math.prod(range(1, 2 * n, 2))
    S = 4 * sum(odd // (2 * j - 1) for j in range(1, n + 1))
    P, Q = ((ln2_num * odd - S * ln2_den) / (ln2_den * odd)).as_integer_ratio()
    edges = _ENDPOINT_U_EDGES
    N, D = 1, 1
    cc, cd, u_terms = [], [], [0] * len(edges)
    for k in range(MAX_SERIES_TERMS):
        cc.append(N * N / (D * D))
        cd.append(N * N * P / (D * D * Q))
        d_k = abs(P / Q)
        for j, ue in enumerate(edges):
            term = cc[k] * ue ** k * (d_k - math.log(ue))
            if k > 0 and not u_terms[j] and _tail_within(term, ue * ((a + k) / (k + 1)) ** 2, tol):
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
    cc, cd = np.array(cc), np.array(cd)
    n_ok = 0
    for ue, terms in zip(edges, u_terms):
        lu = math.log(ue)
        pw = ue ** np.arange(terms)
        if np.sum(pw * (np.abs(cd[:terms]) - lu * cc[:terms])) > _MAX_CANCEL * np.sum(pw * (cd[:terms] - lu * cc[:terms])):
            break
        n_ok += 1
    if n_ok == 0:
        raise AccuracyError(f"f_n_many: endpoint sum of F_{n} cancels beyond {_MAX_CANCEL} at u = {edges[0]}")
    u_switch = edges[n_ok - 1]
    u_edges, u_terms = np.array(edges[:n_ok]), tuple(u_terms[:n_ok])
    cc, cd = cc[: max(u_terms)], cd[: max(u_terms)]

    # Kummer: g_k = G_num / G_den, bounded at the w of each x edge
    x_list = [e for e in _KUMMER_X_EDGES if e < 1.0 - u_switch]
    x_edges = np.array(x_list + [1.0 - u_switch])
    w_edges = _kummer(x_edges, np.array([1.0 - e for e in x_list] + [u_switch]))[4]
    G_num, G_den = 1, 1
    kum, w_terms = [1.0], [0] * len(w_edges)
    k = 0
    while not w_terms[-1]:
        if k == _MAX_KUMMER_TERMS:
            raise AccuracyError(f"f_n_many: Kummer tail of F_{n} unbounded within {_MAX_KUMMER_TERMS} terms")
        G_num, G_den = G_num * (2 * n + 1 + 2 * k) * (2 * k + 1), G_den * (2 * n + 2 + 2 * k) * (2 * k + 2)
        kum.append(G_num / G_den)
        for j, we in enumerate(w_edges.tolist()):    # floats: numpy scalars made the tables 1.3x slower
            if k > 0 and not w_terms[j] and _tail_within(kum[k] * we ** k, we, _SERIES_EXIT):
                w_terms[j] = k
        k += 1
    return _FnTable(np.array(kum), cc, cd, pref, u_switch, x_edges, w_edges, tuple(w_terms), u_edges, u_terms)


def _bucket(z: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bucket of each point of z: bucket j holds edges[j-1] < z <= edges[j];
    points beyond the last edge join it."""
    return np.minimum(np.searchsorted(edges, z), len(edges) - 1)


def _horner(coef: np.ndarray, terms: tuple, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_{k < terms[b_i]} coef[k] z_i^k for points ordered by descending
    bucket b, with terms non-decreasing in the bucket.

    One Horner loop over k serves all buckets: the points that are still
    summing are a prefix of z, and a bucket's points join it when k
    reaches their own term count.  Each point then gets exactly the
    operations of a Horner sum of its own length, in max(terms) numpy
    steps instead of one loop per bucket.  The steps between two joins
    run on fixed views of the prefix, with the coefficients as floats.
    """
    # (k, stop) per join: at step k the points up to stop join the prefix
    joins, start = [], 0
    for t, stop in zip(terms[::-1], np.cumsum(np.bincount(b, minlength=len(terms))[::-1]).tolist()):
        if stop > start:
            joins.append((t - 1, stop))
            start = stop
    cs = coef.tolist()
    s = np.empty_like(z)
    sm, zm = s[:0], z[:0]
    top = joins[0][0] if joins else -1
    for k_join, stop in joins:
        for k in range(top, k_join - 1, -1):    # the prefix's steps down to this join's
            sm *= zm
            sm += cs[k]
        s[len(sm):stop] = cs[k_join]
        sm, zm = s[:stop], z[:stop]
        top = k_join - 1
    for k in range(top, -1, -1):
        sm *= zm
        sm += cs[k]
    return s


def f_n_many(n, x: np.ndarray, one_minus: np.ndarray | None = None) -> np.ndarray:
    """Vectorized F_n(x) = 2F1(n+1/2, n+1/2; 2n+1; x) on 0 <= x < 1.

    ``n`` is a mode, or a sequence of modes whose values are stacked
    along a new first axis.  ``one_minus`` optionally supplies 1 - x
    computed without cancellation (the kernel assembles it from the
    chordal distance directly); the endpoint expansion and Kummer's
    sqrt(1 - x) consume it.  The points are sorted by u = 1 - x once and
    Kummer's set-up is formed once for all modes; per mode only P and
    the Horner sums run, on contiguous slices of the sorted points.
    Every point is summed with the term count of its bucket, so each
    value depends on that point and mode alone, never on the other
    points or modes of the call.
    """
    ns = [n] if np.ndim(n) == 0 else list(n)
    for m in ns:
        if m < 1:
            raise DomainError(f"f_n_many: mode {m} is invalid, every mode must be >= 1")
    x = np.asarray(x, dtype=float)
    shape = x.shape if np.ndim(n) == 0 else (len(ns), *x.shape)
    x = np.ravel(x)
    u = 1.0 - x if one_minus is None else np.ravel(np.asarray(one_minus, dtype=float))
    order = np.argsort(u, kind="stable")
    u = u[order]
    tabs = [_fn_tables(m) for m in ns]
    # the points from splits[i] on take Kummer's form for mode ns[i], the others the endpoint sum
    splits = [int(np.searchsorted(u, tab.u_switch)) for tab in tabs]
    lo = min(splits, default=u.size)
    _, hi, rel, _, w_all = _kummer(x[order[lo:]], u[lo:])
    u_end = np.maximum(u[:max(splits, default=0)], 1e-300)
    log_u = np.log(u_end)
    out = np.empty((len(ns), x.size))
    for row, m, tab, k0 in zip(out, ns, tabs, splits):
        pos, w = order[k0:], w_all[k0 - lo:]
        P = _kummer_p(m, hi[k0 - lo:], rel[k0 - lo:])
        b = _bucket(w, tab.w_edges)
        if np.any(b[1:] > b[:-1]):    # w out of u's order: x is not 1 - u to round-off
            back = np.argsort(-b, kind="stable")
            pos, w, P, b = pos[back], w[back], P[back], b[back]
        G = _horner(tab.kum, tab.w_terms, b, w)
        G *= P    # in place: with a separate product the dispersion benchmark peaked 0.26 MB higher
        row[pos] = G
        # the endpoint points in descending u, so that their buckets descend too
        ue, lu = u_end[:k0][::-1], log_u[:k0][::-1]
        b = _bucket(ue, tab.u_edges)
        row[order[:k0][::-1]] = tab.pref * (
            _horner(tab.cd, tab.u_terms, b, ue) - lu * _horner(tab.cc, tab.u_terms, b, ue)
        )
    return out.reshape(shape)


def f_n(n: int, x: float) -> float:
    """F_n(x) = 2F1(n+1/2, n+1/2; 2n+1; x) for scalar x in [0, 1)."""
    if n < 1:
        raise DomainError(f"f_n: n must be >= 1, got {n}")
    x = float(x)
    if x < 0.0 or x >= 1.0:
        raise DomainError(f"f_n: argument x={x} outside [0, 1)")
    return float(f_n_many(n, np.array([x]))[0])


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
