"""Hypergeometric family, gamma/digamma cores, ring integral."""

import numpy as np
import pytest
from scipy import special as sps

from oracles import euler_integral_2f1, ring_integral_quadrature
from qg3d import specfun
from qg3d.errors import AccuracyError, DomainError
from qg3d.specfun import (
    digamma,
    f_n,
    f_n_many,
    gamma_fn,
    gauss_2f1,
    pochhammer,
    ring_integral,
)

# frozen high-precision reference values (mpmath, 40 digits)
SQRT_PI = 1.7724538509055160272981674833411
EULER_GAMMA = 0.57721566490153286060651209008240


class TestGamma:
    def test_integer_factorials(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_recurrence(self):
        for x in np.linspace(0.21, 12.3, 37):
            assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-13)

    def test_reflection_negative(self):
        x = -1.3
        assert gamma_fn(x) * gamma_fn(1 - x) == pytest.approx(np.pi / np.sin(np.pi * x), rel=1e-12)

    def test_pole(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-3.0)


class TestDigamma:
    def test_euler(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)

    def test_two(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)

    def test_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * np.log(2.0), abs=1e-13)

    def test_recurrence(self):
        for x in np.linspace(0.17, 9.4, 29):
            assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-12, abs=1e-13)

    def test_pole(self):
        with pytest.raises(DomainError):
            digamma(-2.0)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.0, 0) == 1.0

    def test_small(self):
        assert pochhammer(3.0, 2) == 12.0
        assert pochhammer(0.5, 3) == pytest.approx(1.875, rel=1e-15)

    def test_recurrence(self):
        for x in (-2.5, 0.3, 4.0):
            for n in range(6):
                assert pochhammer(x, n + 1) == pytest.approx((x + n) * pochhammer(x, n), rel=1e-13, abs=1e-13)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)


class TestGauss2F1:
    def test_unit_argument_closed_form(self):
        assert gauss_2f1(0.5, 0.5, 2.0, 1.0) == pytest.approx(4.0 / np.pi, abs=1e-12)

    def test_zero_argument(self):
        for a, b, c in ((0.5, 1.5, 2.0), (3.0, 0.25, 1.0)):
            assert gauss_2f1(a, b, c, 0.0) == 1.0

    def test_log_oracle(self):
        # 2F1(1,1;2;x) = -ln(1-x)/x
        for x in (0.1, 0.5, 0.9, 0.99):
            assert gauss_2f1(1.0, 1.0, 2.0, x) == pytest.approx(-np.log1p(-x) / x, rel=1e-11)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.5, 0.5), (2.25, 1.75), (0.3, 2.7)])
    def test_log_case_against_mpmath(self, a, b):
        # c = a + b near x = 1: the endpoint expansion summed in double
        # (measured worst 1.9e-15 relative, at (2.25, 1.75) and x = 0.8)
        import mpmath

        with mpmath.workdps(40):
            for x in (0.8, 0.9, 0.95, 0.99, 0.999, 0.9999, 0.99999):
                ref = mpmath.hyp2f1(a, b, a + b, mpmath.mpf(x))
                assert abs((gauss_2f1(a, b, a + b, x) - ref) / ref) <= 5e-15

    def test_series_vs_euler_integral(self):
        for a in (0.6, 1.7):
            for b in (0.8, 2.1):
                for extra in (0.9, 2.4):
                    c = b + extra
                    for x in (0.0, 0.35, 0.7, 0.95):
                        ref = euler_integral_2f1(a, b, c, x)
                        assert gauss_2f1(a, b, c, x) == pytest.approx(ref, rel=1e-9)

    def test_pfaff_identity(self):
        for a, b, c in ((0.7, 1.1, 2.4), (1.5, 0.6, 1.9), (2.5, 2.5, 6.0)):
            for x in (0.05, 0.2, 0.45):
                lhs = gauss_2f1(a, b, c, x)
                rhs = (1 - x) ** (-a) * gauss_2f1(a, c - b, c, x / (x - 1.0))
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, -1.0, 0.3)
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, 2.0, 1.2)
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 1.0, 2.0, 1.0)  # c - a - b = 0 at x = 1

    def test_scipy_cross_check(self):
        # non-integer c-a-b exercises both the series and connection branches
        rng = [(1.2, 0.4, 2.9), (2.5, 2.5, 5.0), (1.5, 1.5, 4.2), (0.7, 0.9, 1.9)]
        for a, b, c in rng:
            for x in (0.15, 0.6, 0.85, 0.97):
                assert gauss_2f1(a, b, c, x) == pytest.approx(float(sps.hyp2f1(a, b, c, x)), rel=5e-11)
        # integer nonzero c-a-b is served by the series only
        for x in (0.15, 0.6, 0.75):
            assert gauss_2f1(0.5, 0.5, 2.0, x) == pytest.approx(float(sps.hyp2f1(0.5, 0.5, 2.0, x)), rel=5e-11)

    def test_integer_gap_nonconvergence_raises(self):
        # c - a - b a nonzero integer has no coded connection branch; the
        # capped series must fail loudly near x = 1
        with pytest.raises(AccuracyError):
            gauss_2f1(0.5, 0.5, 2.0, 0.999)


class TestFn:
    def test_at_zero(self):
        assert f_n(1, 0.0) == 1.0

    def test_monotone_in_x(self):
        for n in (1, 3):
            vals = f_n_many(n, np.linspace(0.0, 0.999, 60))
            assert np.all(np.diff(vals) > 0)

    def test_scipy_cross_check(self):
        xs = np.array([0.0, 0.3, 0.74, 0.76, 0.9, 0.99, 0.99999])
        for n in (1, 2, 4, 6, 8, 12):
            ref = sps.hyp2f1(n + 0.5, n + 0.5, 2 * n + 1, xs)
            assert np.max(np.abs(f_n_many(n, xs) / ref - 1.0)) < 1e-11

    def test_log_endpoint_limit(self):
        # f_n(x)/(-ln(1-x)) -> Gamma(2n+1)/Gamma(n+1/2)^2, monotone approach
        for n in (1, 2):
            target = gamma_fn(2 * n + 1) / gamma_fn(n + 0.5) ** 2
            devs = []
            for k in range(3, 9):
                x = 1.0 - 10.0 ** (-k)
                devs.append(abs(f_n(n, x) / (-np.log1p(-x)) - target))
            assert all(d2 < d1 for d1, d2 in zip(devs[:-1], devs[1:]))
        assert gamma_fn(3.0) / gamma_fn(1.5) ** 2 == pytest.approx(8.0 / np.pi, rel=1e-13)

    def test_euler_integral_high_x(self):
        ref = euler_integral_2f1(2.5, 2.5, 5.0, 0.9)
        assert f_n(2, 0.9) == pytest.approx(ref, rel=1e-10)

    def test_bound_shape_constant_stable(self):
        # F(a,a;2a;x) <= C (1 + |ln(1-x)|); the fitted C is grid-stable
        def fit(n, pts):
            xs = np.linspace(0.0, 0.999, pts)
            vals = f_n_many(n, xs)
            return np.max(vals / (1.0 + np.abs(np.log1p(-xs))))

        for n in (1, 3):
            c1 = fit(n, 200)
            c2 = fit(n, 400)
            assert abs(c2 - c1) <= 0.02 * c1

    def test_domain(self):
        with pytest.raises(DomainError):
            f_n(0, 0.5)
        with pytest.raises(DomainError):
            f_n(1, 1.0)


def _fn_reference(n, x):
    """scipy's 2F1 through the quadratic transformation for c = 2b,
    F(a, a; 2a; x) = (1 - x/2)^(-a) F(a/2, a/2 + 1/2; a + 1/2; (x/(2-x))^2),
    which keeps ~1e-13 where the direct call loses digits (n = 12 near
    u = 0.09: 1.5e-10)."""
    a = n + 0.5
    return (1 - x / 2) ** (-a) * sps.hyp2f1(a / 2, a / 2 + 0.5, a + 0.5, (x / (2 - x)) ** 2)


def _near(edges):
    """Every edge and its neighbours 1 ulp either side."""
    return np.array([v for e in edges for v in (np.nextafter(e, 0), e, np.nextafter(e, 1))])


class TestFnBuckets:
    """The bucketed Horner sums of f_n_many: seams and batch independence."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    def test_bucket_edges_match_scipy(self, n):
        # every bucket edge and its neighbours 1 ulp either side; the last
        # Kummer edge is 1 - u_switch and the last endpoint edge u_switch
        tab = specfun._fn_tables(n)
        xs = _near(tab.x_edges)
        us = _near(tab.u_edges[tab.u_edges >= 1e-3])   # scipy loses digits below
        x = np.concatenate([xs, 1.0 - us])
        u = np.concatenate([1.0 - xs, us])
        assert np.max(np.abs(f_n_many(n, x, u) / _fn_reference(n, x) - 1.0)) <= 2e-13

    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_mpmath(self, n):
        # log-uniform u over (1e-14, 1) and every bucket edge of both
        # branches ±1 ulp, each point given by its x (Kummer edges and the
        # samples) or by its u (endpoint edges) and the other coordinate
        # rounded from the exact point; the long-double endpoint sums read
        # up to 1.7e-13 here
        import mpmath

        tab = specfun._fn_tables(n)
        rng = np.random.default_rng(100 + n)
        by_x = np.concatenate([1.0 - 10.0 ** rng.uniform(-14, 0, 300), _near(tab.x_edges)])
        with mpmath.workdps(80):
            pts = [mpmath.mpf(float(v)) for v in by_x] + [1 - mpmath.mpf(float(v)) for v in _near(tab.u_edges)]
            a = mpmath.mpf(2 * n + 1) / 2
            ref = np.array([float(mpmath.hyp2f1(a, a, 2 * n + 1, p)) for p in pts])
            x = np.array([float(p) for p in pts])
            u = np.array([float(1 - p) for p in pts])
        assert np.max(np.abs(f_n_many(n, x, u) / ref - 1.0)) <= 2e-15

    def test_batch_independent(self):
        rng = np.random.default_rng(3)
        u = np.concatenate([10.0 ** rng.uniform(-14, -0.3, 200), rng.uniform(0.3, 1.0, 100)])
        rng.shuffle(u)
        a, b = u[:170], u[170:]
        for n in (1, 8):
            whole = f_n_many(n, 1.0 - u, u)
            assert np.array_equal(whole, np.concatenate([f_n_many(n, 1.0 - a, a), f_n_many(n, 1.0 - b, b)]))
            assert np.array_equal(whole, [f_n_many(n, 1.0 - v, v)[0] for v in u[:, None]])

    def test_double_only_tables(self):
        # F_n runs in double alone: no table array is extended, and tables
        # built afresh give F_n bitwise
        u = np.concatenate([np.logspace(-14, 0, 200)[:-1], 1.0 - _near(specfun._fn_tables(8).x_edges)])
        before = {n: f_n_many(n, 1.0 - u, u) for n in range(1, 9)}
        specfun._fn_tables.cache_clear()
        for n in range(1, 9):
            tab = specfun._fn_tables(n)
            arrays = [v for v in vars(tab).values() if isinstance(v, np.ndarray)]
            assert arrays and all(v.dtype == np.float64 for v in arrays)
            assert np.array_equal(f_n_many(n, 1.0 - u, u), before[n])


class TestHorner:
    """``_horner``'s one loop over all buckets is bitwise a plain Horner
    sum per bucket, each of that bucket's own length."""

    @staticmethod
    def _plain(coef, terms, z):
        s = np.full_like(z, coef[terms - 1])
        for k in range(terms - 2, -1, -1):
            s = s * z + coef[k]
        return s

    @pytest.mark.parametrize("n", [1, 5, 8])
    @pytest.mark.parametrize("empty", [(), (0, 3), (-1,), (-2, -1)])
    def test_plain_sum_per_bucket(self, n, empty):
        tab = specfun._fn_tables(n)
        rng = np.random.default_rng(n)
        for coef, terms, edges in ((tab.kum, tab.w_terms, tab.w_edges), (tab.cd, tab.u_terms, tab.u_edges)):
            z = rng.uniform(0.0, edges[-1], 2000)
            b = specfun._bucket(z, edges)
            keep = ~np.isin(b, np.arange(len(terms))[list(empty)])
            z, b = z[keep], b[keep]
            order = np.argsort(-b, kind="stable")
            z, b = z[order], b[order]
            got = specfun._horner(coef, terms, b, z)
            for j, t in enumerate(terms):
                assert np.array_equal(got[b == j], self._plain(coef, t, z[b == j]))


_MODES = [*range(1, 9), 12]


def _assert_stacked_is_per_mode(x, u):
    stacked = f_n_many(_MODES, x, u)
    assert stacked.shape == (len(_MODES), *np.shape(x))
    for n, row in zip(_MODES, stacked):
        assert np.array_equal(row, f_n_many(n, x, u))


class TestFnManyModes:
    """One f_n_many call for several modes is bitwise the per-mode calls
    (on the kernel's row blocks: ``test_kernel.TestOneFnCallPerBlock``)."""

    def test_bucket_edges(self):
        # every edge of every listed mode's buckets, 1 ulp either side
        tabs = [specfun._fn_tables(n) for n in _MODES]
        xs = _near(np.concatenate([t.x_edges for t in tabs]))
        us = _near(np.concatenate([t.u_edges for t in tabs]))
        _assert_stacked_is_per_mode(np.concatenate([xs, 1.0 - us]), np.concatenate([1.0 - xs, us]))

    def test_points_independent(self):
        # x and u drawn apart, so that Kummer's w, taken from x below 1/2,
        # does not follow u's order (the kernel's x = 1 - u always does):
        # each value is still the one-point call's
        rng = np.random.default_rng(11)
        u = 10.0 ** rng.uniform(-14, 0, 400)
        x = rng.uniform(0.0, 1.0, u.size)
        whole = f_n_many(_MODES, x, u)
        for n, row in zip(_MODES, whole):
            assert np.array_equal(row, [f_n_many(n, x[i:i + 1], u[i:i + 1])[0] for i in range(u.size)])

    def test_shapes(self):
        x = np.linspace(0.0, 0.99, 6).reshape(2, 3)
        assert f_n_many(2, x).shape == (2, 3)
        assert f_n_many([2], x).shape == (1, 2, 3)
        assert f_n_many([], x).shape == (0, 2, 3)
        assert f_n_many([3, 1], x[0, 0]).shape == (2,)

    @pytest.mark.parametrize("ns,bad", [([1, 3, 0, 2], 0), ([2, -4], -4), (0, 0)])
    def test_bad_mode_named(self, ns, bad):
        with pytest.raises(DomainError, match=f"mode {bad} "):
            f_n_many(ns, np.array([0.5]))


class TestRingIntegral:
    def test_beta_zero_orthogonality(self):
        assert ring_integral(1, 0.0, 2.0) == 0.0
        assert ring_integral(4, 0.0, 1.5) == 0.0

    def test_n0_beta2_closed_form(self):
        # int dt/(A - cos t) = 2 pi / sqrt(A^2 - 1)
        for A in (1.2, 2.0, 5.0):
            assert ring_integral(0, 2.0, A) == pytest.approx(2 * np.pi / np.sqrt(A * A - 1.0), rel=1e-12)

    def test_quadrature_oracle(self):
        for (n, beta, A) in ((3, 1.0, 1.5), (2, 3.0, 1.2), (5, 2.0, 4.0), (0, 1.0, 2.0)):
            ref = ring_integral_quadrature(n, beta, A)
            assert ring_integral(n, beta, A) == pytest.approx(ref, rel=1e-10, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            ring_integral(1, 1.0, 1.0)
        with pytest.raises(DomainError):
            ring_integral(-1, 1.0, 2.0)

    def test_fn_case_without_long_double(self):
        # 2F1(n+1/2, n+1/2; 2n+1; z) is F_n, evaluated by ``f_n``: the
        # general logarithmic connection, whose sums cancel as n grows,
        # reads 7.6e-11 here
        import mpmath

        with mpmath.workdps(40):
            for n in range(1, 9):
                coef = mpmath.rf(0.5, n) ** 2 * 2 ** n / mpmath.factorial(2 * n)
                for A in (1.01, 1.05, 1.2, 1.5, 5.0):
                    z = 2.0 / (1.0 + A)
                    hyp = mpmath.hyp2f1(n + 0.5, n + 0.5, 2 * n + 1, mpmath.mpf(z))
                    assert abs(gauss_2f1(n + 0.5, n + 0.5, 2 * n + 1, z) - hyp) <= 1e-14 * hyp
                    ring = 2 * mpmath.pi / (1 + mpmath.mpf(A)) ** (n + 0.5) * coef * hyp
                    assert abs(ring_integral(n, 1.0, A) - ring) <= 5e-14 * ring
