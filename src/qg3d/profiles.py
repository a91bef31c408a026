"""Revolution-shape profiles r0(phi) and their validation.

A profile describes the generating curve of a surface of revolution:
the boundary point at colatitude parameter phi in [0, pi] sits at
(r0(phi) e^{i theta}, cos phi).  Two kinds:

* ``series(g)``    r0 = sin(phi) g(cos phi), g given by its power-series
                   coefficients; ``sphere`` is g = (1,) and ``spheroid(a)``,
                   the ellipsoid x1^2+x2^2 = a^2 (1-x3^2), is g = (a,);
* ``tabulated``    monotone cubic interpolant of (phi, r0) samples with
                   enforced endpoint zeros.

Validation reports the paper's hypotheses on the profile: endpoint
zeros with interior positivity (H1), two-sided comparability with
sin(phi) (H2), and equatorial symmetry (H3).  The solvers do not need
H3: without the mirror the kernel walks every row and the branch solves
every phi node (``KernelContext.mirrored``, which shares H3's :func:`mirror_defect`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, GeometryError
from .quadrature import double_exponential

__all__ = [
    "Profile",
    "ValidationReport",
    "EllipsoidConstants",
    "make_profile",
    "mirror_defect",
    "profile_from_csv",
    "validate_profile",
    "arc_chord_constants",
    "ellipsoid_alphas",
]


def _pchip_slopes(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson monotone cubic slopes."""
    h = np.diff(t)
    delta = np.diff(y) / h
    n = len(t)
    d = np.zeros(n)
    for i in range(1, n - 1):
        if delta[i - 1] * delta[i] <= 0.0:
            d[i] = 0.0
        else:
            w1 = 2.0 * h[i] + h[i - 1]
            w2 = h[i] + 2.0 * h[i - 1]
            d[i] = (w1 + w2) / (w1 / delta[i - 1] + w2 / delta[i])

    def _end(h0, h1, d0, d1):
        s = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
        if s * d0 <= 0.0:
            return 0.0
        if d0 * d1 < 0.0 and abs(s) > 3.0 * abs(d0):
            return 3.0 * d0
        return s

    d[0] = _end(h[0], h[1], delta[0], delta[1])
    d[-1] = _end(h[-1], h[-2], delta[-1], delta[-2])
    return d


@dataclass(eq=False)
class Profile:
    """Immutable revolution-shape profile: r0 = sin(phi) g(cos phi) when
    the power-series coefficients ``g`` are given, else the monotone cubic
    interpolant of the samples (``knots``, ``values``, ``slopes``)."""

    g: tuple[float, ...] | None = None
    knots: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)
    slopes: np.ndarray | None = field(default=None, repr=False)

    def r0(self, phi):
        phi = np.asarray(phi, dtype=float)
        if self.g is not None:
            with np.errstate(over="ignore", invalid="ignore"):    # g near 1e308: the checks refuse the profile
                return np.sin(phi) * np.polynomial.polynomial.polyval(np.cos(phi), self.g)
        idx = np.clip(np.searchsorted(self.knots, phi) - 1, 0, len(self.knots) - 2)
        h = self.knots[idx + 1] - self.knots[idx]
        s = (phi - self.knots[idx]) / h
        y0, y1 = self.values[idx], self.values[idx + 1]
        d0, d1 = self.slopes[idx], self.slopes[idx + 1]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * y0 + h * h10 * d0 + h01 * y1 + h * h11 * d1


def make_profile(kind: str, a: float = 1.0, phi=None, r0=None, g=None) -> Profile:
    """Construct a profile.

    ``kind`` is one of "series" (r0 = sin(phi) g(cos phi) for a non-empty
    sequence ``g`` of finite power-series coefficients), its cases
    "sphere" (g = (1,)) and "spheroid" (g = (a,), horizontal semi-axis
    ``a`` finite and > 0), or "tabulated" (finite sample arrays ``phi``,
    ``r0`` covering [0, pi] with zero endpoint values).
    """
    if kind == "sphere":
        return Profile(g=(1.0,))
    if kind == "spheroid":
        if not (np.isfinite(a) and a > 0):
            raise DomainError(f"make_profile: spheroid semi-axis must be finite and > 0, got {a}")
        return Profile(g=(float(a),))
    if kind == "series":
        g = np.asarray(g, dtype=float)
        if g.ndim != 1 or g.size == 0 or not np.all(np.isfinite(g)):
            raise DomainError(f"make_profile: series needs a non-empty sequence of finite coefficients g, got {g}")
        return Profile(g=tuple(g.tolist()))
    if kind == "tabulated":
        phi = np.asarray(phi, dtype=float)
        r0 = np.asarray(r0, dtype=float)
        if phi.ndim != 1 or phi.shape != r0.shape or len(phi) < 4:
            raise DomainError("make_profile: tabulated needs matching 1-d arrays with >= 4 samples")
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(r0))):
            raise DomainError("make_profile: tabulated samples must be finite")
        if np.any(np.diff(phi) <= 0):
            raise DomainError("make_profile: tabulated phi samples must be strictly increasing")
        if abs(phi[0]) > 1e-9 or abs(phi[-1] - np.pi) > 1e-9:
            raise DomainError("make_profile: tabulated samples must span [0, pi]")
        if abs(r0[0]) > 1e-9 or abs(r0[-1]) > 1e-9:
            raise GeometryError("make_profile: tabulated endpoint radii must vanish (H1)")
        r0 = r0.copy()
        r0[0] = 0.0
        r0[-1] = 0.0
        return Profile(knots=phi, values=r0, slopes=_pchip_slopes(phi, r0))
    raise DomainError(f"make_profile: unknown kind {kind!r}")


def profile_from_csv(path: str | Path) -> Profile:
    """Load a tabulated profile from a CSV file with exact header ``phi,r0``."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"profile CSV {path}: empty file") from None
        if [h.strip() for h in header] != ["phi", "r0"]:
            raise DomainError(f"profile CSV {path}: header must be exactly 'phi,r0', got {header}")
        phi, r0 = [], []
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DomainError(f"profile CSV {path}: line {ln}: expected 2 columns, got {len(row)}")
            try:
                phi.append(float(row[0]))
                r0.append(float(row[1]))
            except ValueError as exc:
                raise DomainError(f"profile CSV {path}: line {ln}: {exc}") from None
    return make_profile("tabulated", phi=np.array(phi), r0=np.array(r0))


@dataclass(frozen=True)
class ValidationReport:
    """Structural-hypothesis check results for a profile."""

    endpoint_values: tuple[float, float]
    interior_min: float
    h2_lo: float
    h2_hi: float
    sym_defect: float
    h1_ok: bool
    h2_ok: bool
    h3_ok: bool

    @property
    def passed(self) -> bool:
        return self.h1_ok and self.h2_ok and self.h3_ok


def mirror_defect(p: Profile, phi) -> float:
    """Equatorial-mirror defect max |r0(pi - phi) - r0(phi)| over ``phi``."""
    return float(np.max(np.abs(p.r0(np.pi - phi) - p.r0(phi))))


def validate_profile(p: Profile, grid_size: int = 256) -> ValidationReport:
    """Check endpoint zeros / interior positivity (H1), sin-comparability
    (H2) and equatorial symmetry (H3) on an interior grid."""
    if grid_size < 16:
        raise DomainError(f"validate_profile: grid_size must be >= 16, got {grid_size}")
    phi = np.linspace(0.0, np.pi, grid_size + 2)[1:-1]
    r = p.r0(phi)
    end0 = float(p.r0(0.0))
    end_pi = float(p.r0(np.pi))
    interior_min = float(np.min(r))
    ratio = r / np.sin(phi)
    h2_lo = float(np.min(ratio))
    h2_hi = float(np.max(ratio))
    sym_defect = mirror_defect(p, phi[phi < np.pi / 2])
    scale = max(h2_hi, 1e-300)
    h1_ok = abs(end0) <= 1e-9 and abs(end_pi) <= 1e-9 and interior_min > 0.0
    h2_ok = h2_lo > 0.0 and h2_hi / max(h2_lo, 1e-300) < 1e6
    h3_ok = sym_defect <= 1e-9 * scale
    return ValidationReport((end0, end_pi), interior_min, h2_lo, h2_hi, sym_defect, h1_ok, h2_ok, h3_ok)


def arc_chord_constants(p: Profile, grid_size: int = 192) -> tuple[float, float]:
    """Two-sided chord/parameter comparability constants: the inf and sup
    over off-diagonal grid pairs of

        ((r0(phi) - r0(vphi))^2 + (cos phi - cos vphi)^2) / (phi - vphi)^2.
    """
    phi = np.linspace(0.0, np.pi, grid_size)
    r = p.r0(phi)
    c = np.cos(phi)
    dc = c[:, None] - c[None, :]
    dp = phi[:, None] - phi[None, :]
    mask = ~np.eye(grid_size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):    # a radius near 1e200: refused below
        dr = r[:, None] - r[None, :]
        ratio = (dr[mask] ** 2 + dc[mask] ** 2) / dp[mask] ** 2
    c_lo = float(np.min(ratio))
    c_hi = float(np.max(ratio))
    if not np.isfinite(c_lo) or not np.isfinite(c_hi) or c_lo <= 0.0:
        raise GeometryError(f"arc_chord_constants: degenerate constants ({c_lo}, {c_hi})")
    return c_lo, c_hi


@dataclass(frozen=True)
class EllipsoidConstants:
    """Interior stream-function coefficients of the spheroid family
    x1^2 + x2^2 = a^2 (1 - x3^2): the potential inside is
    alpha1 (x1^2 + x2^2) + alpha2 x3^2 + alpha3."""

    a: float
    alpha1: float
    alpha2: float
    alpha3: float

    def __post_init__(self):
        if not (self.alpha1 > 0 and self.alpha2 > 0):
            raise DomainError("EllipsoidConstants: alpha1 and alpha2 must be positive")


def ellipsoid_alphas(a: float, level: int = 10) -> EllipsoidConstants:
    """Half-line coefficient integrals

        alpha1 =  (a^2/4) int_0^inf ds / ((a^2+s)^2 sqrt(1+s))
        alpha2 =  (a^2/4) int_0^inf ds / ((a^2+s) (1+s)^{3/2})
        alpha3 = -(a^2/4) int_0^inf ds / ((a^2+s) sqrt(1+s))

    mapped to (0, 1) by s = t/(1-t) and evaluated with a tanh-sinh rule
    (the map leaves an integrable endpoint singularity at t = 1 for the
    alpha3 integrand).  alpha3 is the constant term of the interior
    potential, normalized so that a = 1 gives (1/6)(|x|^2 - 3).
    """
    if a <= 0:
        raise DomainError(f"ellipsoid_alphas: a must be > 0, got {a}")
    # with s = t/(1-t) and v = 1-t the three integrands reduce to
    # v^{1/2}/(a^2 v + 1 - v)^2, v^{1/2}/(a^2 v + 1 - v), v^{-1/2}/(a^2 v + 1 - v);
    # integrating in v keeps the singular endpoint at an exact zero
    rule = double_exponential(0.0, 1.0, level)
    v = rule.nodes
    den = a * a * v + (1.0 - v)
    sq = np.sqrt(v)
    pref = a * a / 4.0
    alpha1 = pref * float(np.sum(rule.weights * sq / den ** 2))
    alpha2 = pref * float(np.sum(rule.weights * sq / den))
    alpha3 = -pref * float(np.sum(rule.weights / (sq * den)))
    return EllipsoidConstants(float(a), alpha1, alpha2, alpha3)
