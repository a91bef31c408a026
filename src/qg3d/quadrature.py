"""Quadrature rules and barycentric interpolation support.

Three rule families cover everything the kernel and the nonlinear
functional integrate:

* tanh-sinh (double-exponential) rules for integrands with endpoint
  algebraic/logarithmic singularities -- interior singularities are
  handled by splitting the interval at the singular abscissa
  (``split_de``, the kernel's row rules),
* one-sided graded rules for an integrand singular at one known point
  only, the two rules of the nonlinear stream quadrature:
  ``graded_split``, Gauss-Legendre panels (``gauss_panel``) graded
  toward an interior point from both sides, and ``sigmoidal_trapezoid``,
  Kress's sigmoidal transform of the trapezoid rule on (0, pi] for a
  periodic integrand singular at 0,
* the periodic trapezoid rule for smooth 2 pi-periodic integrands.

The phi grid itself is the Gauss-Legendre rule that ``KernelContext``
builds with ``numpy.polynomial.legendre.leggauss``.  ``integrate`` is
kept as a library helper; no solver path calls it.

Rules are immutable value objects; applying one to an integrand is a
plain weighted sum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "QuadratureRule",
    "gauss_panel",
    "double_exponential",
    "periodic_trapezoid",
    "split_de",
    "graded_split",
    "sigmoidal_trapezoid",
    "integrate",
    "barycentric_weights",
    "node_hits",
    "barycentric_terms",
    "interp_matrix",
]

# tanh-sinh truncation: keep nodes while exp(-2u) >= ~1e-26 so that even
# an x^(-1/2) endpoint singularity loses less than ~1e-12 to the cut tail.
_DE_UMAX = 30.0


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a one-dimensional rule."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise DomainError("QuadratureRule: nodes and weights must have equal length")


def gauss_panel(order: int, a: float, b: float, panels: int = 1) -> QuadratureRule:
    """Composite Gauss-Legendre rule, ``order`` points per panel."""
    if order < 2:
        raise DomainError(f"gauss_panel: order must be >= 2, got {order}")
    if panels < 1:
        raise DomainError(f"gauss_panel: panels must be >= 1, got {panels}")
    if not a < b:
        raise DomainError(f"gauss_panel: requires a < b, got a={a}, b={b}")
    x0, w0 = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * x0)
        weights.append(half * w0)
    return QuadratureRule(np.concatenate(nodes), np.concatenate(weights))


@functools.cache
def _de_reference(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tanh-sinh reference of step h = 2^-level: the distances
    1 - tanh(u_k) of the nodes to the endpoint and the weights, both for
    half-width 1 and k = 0..kmax.  The abscissae depend only on the step,
    so every rule of one level maps the same arrays."""
    h = 0.5 ** level
    kmax = int(np.floor(np.arcsinh(2.0 * _DE_UMAX / np.pi) / h))
    t = h * np.arange(0, kmax + 1)
    u = 0.5 * np.pi * np.sinh(t)
    # distance of tanh(u) to 1 without cancellation: 1 - tanh(u) = 2/(e^{2u}+1)
    dist = 2.0 / (np.exp(2.0 * u) + 1.0)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    dist.flags.writeable = False
    w.flags.writeable = False
    return dist, w


def double_exponential(a: float, b: float, level: int) -> QuadratureRule:
    """tanh-sinh rule on (a, b) with step h = 2^-level.

    Nodes are strictly interior; trailing nodes that would round onto an
    endpoint in floating point are dropped (their weights are below the
    truncation threshold anyway).
    """
    if not a < b:
        raise DomainError(f"double_exponential: requires a < b, got a={a}, b={b}")
    if level < 1:
        raise DomainError(f"double_exponential: level must be >= 1, got {level}")
    dist, w = _de_reference(level)
    half = 0.5 * (b - a)
    # nodes anchored at their nearest endpoint so that clustering scales
    # survive floating point whenever that endpoint is exactly representable
    left = a + half * dist[:0:-1]
    right = b - half * dist[1:]
    nodes = np.concatenate([left, [0.5 * (a + b)], right])
    weights = half * np.concatenate([w[:0:-1], w[:1], w[1:]])
    keep = (nodes > a) & (nodes < b)
    return QuadratureRule(nodes[keep], weights[keep])


def periodic_trapezoid(n_nodes: int) -> QuadratureRule:
    """Equispaced rule on [0, 2 pi): nodes 2 pi j / n, weights 2 pi / n."""
    if n_nodes < 2:
        raise DomainError(f"periodic_trapezoid: n_nodes must be >= 2, got {n_nodes}")
    nodes = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    weights = np.full(n_nodes, 2.0 * np.pi / n_nodes)
    return QuadratureRule(nodes, weights)


def split_de(a: float, b: float, singular_at: float, level: int) -> QuadratureRule:
    """Concatenated tanh-sinh rules on (a, s) and (s, b) for an integrand
    with a singularity at the interior point s."""
    if not a < singular_at < b:
        raise DomainError(
            f"split_de: singular point {singular_at} must lie strictly inside ({a}, {b})"
        )
    left = double_exponential(a, singular_at, level)
    right = double_exponential(singular_at, b, level)
    return QuadratureRule(
        np.concatenate([left.nodes, right.nodes]), np.concatenate([left.weights, right.weights])
    )


@functools.cache
def _graded_reference(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only graded reference on (0, 1): the nodes u^p and weights
    p u^(p-1) w of the n-point Gauss-Legendre rule (u, w) mapped by
    x = u^p, which clusters them toward x = 0."""
    g = gauss_panel(n, 0.0, 1.0)
    x = g.nodes ** p
    w = p * g.nodes ** (p - 1) * g.weights
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def graded_split(a: float, b: float, singular_at: float, n: int, p: int) -> QuadratureRule:
    """Rule on (a, b) graded toward the interior point s: n Gauss points
    per half, mapped by x = s -/+ L u^p with weight L p u^(p-1) w, L the
    length of that half.  The ends a and b get plain Gauss points, so the
    integrand should be smooth there.  Nodes increase."""
    if not a < singular_at < b:
        raise DomainError(
            f"graded_split: singular point {singular_at} must lie strictly inside ({a}, {b})"
        )
    if n < 2:
        raise DomainError(f"graded_split: n must be >= 2, got {n}")
    if p < 1:
        raise DomainError(f"graded_split: p must be >= 1, got {p}")
    x, w = _graded_reference(n, p)
    left, right = singular_at - a, b - singular_at
    return QuadratureRule(
        np.concatenate([singular_at - left * x[::-1], singular_at + right * x]),
        np.concatenate([left * w[::-1], right * w]),
    )


@functools.cache
def _sigmoidal_reference(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of ``sigmoidal_trapezoid``."""
    s = np.pi * np.arange(1, n + 1) / n

    def v(t):
        return (1.0 / p - 0.5) * ((np.pi - t) / np.pi) ** 3 + (t - np.pi) / (p * np.pi) + 0.5

    def dv(t):
        return -3.0 * (1.0 / p - 0.5) * (np.pi - t) ** 2 / np.pi ** 3 + 1.0 / (p * np.pi)

    A, B = v(s) ** p, v(2.0 * np.pi - s) ** p
    dA = p * v(s) ** (p - 1) * dv(s)
    dB = -p * v(2.0 * np.pi - s) ** (p - 1) * dv(2.0 * np.pi - s)
    eta = 2.0 * np.pi * A / (A + B)
    w = (np.pi / n) * 2.0 * np.pi * (dA * B - A * dB) / (A + B) ** 2
    w[-1] *= 0.5  # eta = pi is the node both halves of the period share
    eta.flags.writeable = False
    w.flags.writeable = False
    return eta, w


def sigmoidal_trapezoid(n: int, p: int) -> QuadratureRule:
    """Kress's order-p sigmoidal transform of the trapezoid rule, on the
    half period (0, pi] of a 2 pi-periodic integrand singular at 0 only
    (R. Kress, Numer. Math. 58 (1990) 145).  At s_k = pi k / n,
    k = 1..n, the nodes are eta = 2 pi v(s)^p / (v(s)^p + v(2 pi - s)^p)
    with v(s) = (1/p - 1/2)((pi - s)/pi)^3 + (s - pi)/(p pi) + 1/2, the
    weights (pi / n) d eta/ds, halved at eta = pi.  Doubled about pi it
    is the transformed trapezoid rule of the whole period.  p must be at
    least 2: v'(0) = (3/2 - 2/p) / pi, so at p = 1 the first nodes fall
    below 0."""
    if n < 2:
        raise DomainError(f"sigmoidal_trapezoid: n must be >= 2, got {n}")
    if p < 2:
        raise DomainError(f"sigmoidal_trapezoid: p must be >= 2, got {p}")
    eta, w = _sigmoidal_reference(n, p)
    return QuadratureRule(eta.copy(), w.copy())


def integrate(rule: QuadratureRule, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Apply a rule to a vectorized integrand."""
    return float(np.sum(rule.weights * f(rule.nodes)))


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric interpolation weights for arbitrary distinct nodes,
    rescaled by the interval capacity to avoid overflow."""
    nodes = np.asarray(nodes, dtype=float)
    cap = (nodes[-1] - nodes[0]) / 4.0
    d = (nodes[:, None] - nodes) / cap
    np.fill_diagonal(d, 1.0)
    return 1.0 / np.prod(d, axis=1)


def node_hits(nodes: np.ndarray, x: np.ndarray):
    """(hit, near): the indices of the points of x within 1e-14 of a node,
    and that node.  ``nodes`` must be strictly increasing with gaps above
    2e-14 (checked by :func:`interp_matrix`); a point can then be within
    1e-14 of one node at most, the nearer of its two neighbours, so only
    that node is tested."""
    right = np.clip(np.searchsorted(nodes, x), 1, len(nodes) - 1)
    near = right - (np.abs(x - nodes[right - 1]) <= np.abs(x - nodes[right]))
    hit = np.flatnonzero(np.abs(x - nodes[near]) < 1e-14)
    return hit, near[hit]


def barycentric_terms(nodes: np.ndarray, bary_w: np.ndarray, x: np.ndarray, hit, near) -> np.ndarray:
    """T[p, j] = bary_w[j] / (x_p - nodes[j]), the terms of the second-form
    barycentric formula, whose row sums normalize them, with the
    :func:`node_hits` ``hit`` and ``near`` of x: a hit row holds
    bary_w[near] in place of the division by zero, so every term is
    finite, and the caller gives that point the node's unit row."""
    T = x[:, None] - nodes
    T[hit, near] = 1.0
    np.divide(bary_w, T, out=T)
    return T


def interp_matrix(nodes: np.ndarray, bary_w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix L with L[p, j] = l_j(x_p), the Lagrange basis on ``nodes``
    evaluated at the points ``x`` (second-form barycentric formula): the
    :func:`barycentric_terms` over their row sums, and a point within
    1e-14 of a node takes that node's unit row.

    ``nodes`` must be strictly increasing with gaps above 2e-14, else
    DomainError.
    """
    nodes = np.asarray(nodes, dtype=float)
    if not np.all(np.diff(nodes) > 2e-14):
        raise DomainError("interp_matrix: nodes must be strictly increasing with gaps above 2e-14")
    x = np.asarray(x, dtype=float)
    hit, near = node_hits(nodes, x)
    L = barycentric_terms(nodes, bary_w, x, hit, near)
    L /= L.sum(axis=1)[:, None]
    L[hit] = 0.0
    L[hit, near] = 1.0
    return L
