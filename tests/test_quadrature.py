"""Quadrature rules: exactness, singular integrands, refinement behavior."""

import numpy as np
import pytest

import qg3d as q
from qg3d.errors import DomainError
from qg3d.quadrature import (
    DE_MAX_LEVEL,
    _de_reference,
    barycentric_weights,
    double_exponential,
    _graded_reference,
    _sigmoidal_reference,
    gauss_panel,
    graded_split,
    integrate,
    interp_matrix,
    periodic_trapezoid,
    sigmoidal_trapezoid,
    split_de,
)


class TestGaussPanel:
    def test_polynomial_exactness(self):
        rule = gauss_panel(4, 0.0, 1.0, 1)
        assert integrate(rule, lambda x: x ** 3) == pytest.approx(0.25, abs=1e-15)

    def test_sine(self):
        rule = gauss_panel(8, 0.0, np.pi, 4)
        assert integrate(rule, np.sin) == pytest.approx(2.0, abs=1e-12)

    def test_endpoint_log_slow_convergence(self):
        # int_0^1 ln(1/x) = 1; the Gauss error decays only algebraically,
        # which is what motivates the tanh-sinh rule
        errs = [abs(integrate(gauss_panel(8, 0.0, 1.0, 2 ** k), lambda x: np.log(1.0 / x)) - 1.0) for k in range(4)]
        assert all(e2 < e1 for e1, e2 in zip(errs[:-1], errs[1:]))
        assert errs[-1] > 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_panel(4, 1.0, 0.0)
        with pytest.raises(DomainError):
            gauss_panel(1, 0.0, 1.0)


class TestDoubleExponential:
    def test_log_singularity(self):
        rule = double_exponential(0.0, 1.0, 8)
        assert integrate(rule, lambda x: np.log(1.0 / x)) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_sqrt(self):
        rule = double_exponential(0.0, 1.0, 8)
        assert integrate(rule, lambda x: 1.0 / np.sqrt(x)) == pytest.approx(2.0, abs=1e-12)

    def test_interior_log_split(self):
        # int_0^pi ln|x - pi/2| dx = pi ln(pi/2) - pi
        rule = split_de(0.0, np.pi, np.pi / 2, 9)
        val = integrate(rule, lambda x: np.log(np.abs(x - np.pi / 2)))
        assert val == pytest.approx(np.pi * np.log(np.pi / 2) - np.pi, abs=1e-10)

    def test_nodes_interior_increasing(self):
        rule = double_exponential(0.0, 1.0, 5)
        assert rule.nodes[0] > 0.0 and rule.nodes[-1] < 1.0
        assert np.all(np.diff(rule.nodes) > 0)

    def test_weight_sum(self):
        for lvl in (4, 8):
            rule = double_exponential(0.0, 2.5, lvl)
            assert np.sum(rule.weights) == pytest.approx(2.5, abs=1e-12)

    def test_top_level_builds(self):
        rule = double_exponential(0.0, 1.0, DE_MAX_LEVEL)
        assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("level", [0, DE_MAX_LEVEL + 1, 40])
    def test_level_out_of_range(self, level):
        # refused before the reference is built: level 40 would ask for 29 TiB
        misses = _de_reference.cache_info().misses
        with pytest.raises(DomainError, match=f"got {level}"):
            double_exponential(0.0, 1.0, level)
        assert _de_reference.cache_info().misses == misses


class TestRuleCache:
    """Every rule of one level maps the same cached reference; the rule a
    caller receives is its own to modify."""

    @pytest.mark.parametrize("make", [
        lambda: double_exponential(0.0, 1.0, 6),
        lambda: split_de(0.0, np.pi, 1.0, 6),
    ], ids=["double_exponential", "split_de"])
    def test_in_place_edit_does_not_leak(self, make):
        first = make()
        nodes, weights = first.nodes.copy(), first.weights.copy()
        first.nodes[:] = 0.5
        first.weights[:] *= 2.0
        again = make()
        assert np.array_equal(again.nodes, nodes)
        assert np.array_equal(again.weights, weights)

    def test_reference_read_only(self):
        double_exponential(0.0, 1.0, 6)
        for arr in _de_reference(6):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestGradedRules:
    """The stream quadrature's rules: Gauss-Legendre graded toward an
    interior point, and Kress's sigmoidal trapezoid rule on (0, pi]."""

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5])
    def test_graded_split_weight_sum(self, s):
        rule = graded_split(0.0, np.pi, s, 32, 4)
        assert np.sum(rule.weights) == pytest.approx(np.pi, abs=1e-14)
        assert np.all(np.diff(rule.nodes) > 0) and rule.nodes[0] > 0.0 and rule.nodes[-1] < np.pi

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5])
    def test_graded_split_inverse_sqrt(self, s):
        # at p = 2 the mapped integrand |x - s|^(-1/2) L 2 u is constant in
        # u; only the rounding of the nodes next to s is left
        rule = graded_split(0.0, np.pi, s, 16, 2)
        exact = 2.0 * np.sqrt(s) + 2.0 * np.sqrt(np.pi - s)
        assert integrate(rule, lambda x: np.abs(x - s) ** -0.5) == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("n,p", [(48, 10), (64, 10), (128, 10), (64, 12)])
    def test_sigmoidal_weight_sum(self, n, p):
        # the weights are the trapezoid rule of d eta/ds, which vanishes
        # at s = 0 to order p - 1: exact to round-off at these orders
        rule = sigmoidal_trapezoid(n, p)
        assert np.sum(rule.weights) == pytest.approx(np.pi, abs=1e-14)
        assert rule.nodes[-1] == np.pi and np.all(np.diff(rule.nodes) > 0) and rule.nodes[0] > 0.0

    def test_sigmoidal_log_sine(self):
        # int_0^pi ln|2 sin(eta/2)| d eta = 0, singular at eta = 0 only
        rule = sigmoidal_trapezoid(64, 10)
        assert abs(integrate(rule, lambda e: np.log(np.abs(2.0 * np.sin(0.5 * e))))) <= 1e-14

    @pytest.mark.parametrize("make", [
        lambda: graded_split(0.0, 1.0, 0.0, 8, 4),
        lambda: graded_split(0.0, 1.0, 1.0, 8, 4),
        lambda: graded_split(0.0, 1.0, 1.5, 8, 4),
        lambda: graded_split(0.0, 1.0, 0.5, 1, 4),
        lambda: graded_split(0.0, 1.0, 0.5, 8, 0),
        lambda: sigmoidal_trapezoid(1, 10),
        lambda: sigmoidal_trapezoid(8, 1),
    ], ids=["s-at-a", "s-at-b", "s-outside", "graded-n1", "graded-p0", "sigmoidal-n1", "sigmoidal-p1"])
    def test_bad_input(self, make):
        with pytest.raises(DomainError):
            make()

    def test_reference_read_only(self):
        graded_split(0.0, 1.0, 0.5, 8, 4)
        sigmoidal_trapezoid(8, 10)
        for arr in (*_graded_reference(8, 4), *_sigmoidal_reference(8, 10)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("make", [
        lambda: graded_split(0.0, 1.0, 0.4, 8, 4),
        lambda: sigmoidal_trapezoid(8, 10),
    ], ids=["graded_split", "sigmoidal_trapezoid"])
    def test_in_place_edit_does_not_leak(self, make):
        first = make()
        nodes, weights = first.nodes.copy(), first.weights.copy()
        first.nodes[:] = 0.5
        first.weights[:] *= 2.0
        again = make()
        assert np.array_equal(again.nodes, nodes)
        assert np.array_equal(again.weights, weights)


class TestPeriodicTrapezoid:
    def test_pure_mode(self):
        rule = periodic_trapezoid(16)
        assert integrate(rule, lambda t: np.cos(3 * t)) == pytest.approx(0.0, abs=1e-14)

    def test_constant(self):
        rule = periodic_trapezoid(10)
        assert integrate(rule, lambda t: np.ones_like(t)) == pytest.approx(2 * np.pi, abs=1e-14)

    def test_poisson_kernel(self):
        # int_0^{2pi} dt/(2 - cos t) = 2 pi / sqrt(3)
        rule = periodic_trapezoid(64)
        val = integrate(rule, lambda t: 1.0 / (2.0 - np.cos(t)))
        assert val == pytest.approx(2 * np.pi / np.sqrt(3.0), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            periodic_trapezoid(1)


class TestRefinementAndPositivity:
    CASES = [
        (lambda x: np.log(1.0 / x), 1.0, "de"),
        (lambda x: 1.0 / np.sqrt(x), 2.0, "de"),
        (np.sin, 2.0, "gauss"),
    ]

    def test_doubling_never_degrades(self):
        for f, exact, kind in self.CASES:
            errs = []
            for lvl in (4, 5, 6, 7):
                if kind == "de":
                    rule = double_exponential(0.0, 1.0, lvl)
                else:
                    rule = gauss_panel(6, 0.0, np.pi, 2 ** (lvl - 3))
                errs.append(abs(integrate(rule, f) - exact) + 1e-11)  # clamp at the float floor
            assert all(e2 <= 1.01 * e1 for e1, e2 in zip(errs[:-1], errs[1:]))

    def test_all_weights_positive(self):
        for rule in (
            gauss_panel(10, 0.0, 1.0, 8),
            double_exponential(0.0, 1.0, 9),
            periodic_trapezoid(128),
        ):
            assert np.all(rule.weights > 0)


class TestBarycentric:
    @staticmethod
    def _loop_weights(nodes):
        # the per-node loop the vectorized product replaced
        cap = (nodes[-1] - nodes[0]) / 4.0
        w = np.empty(len(nodes))
        for j in range(len(nodes)):
            d = (nodes[j] - nodes) / cap
            d[j] = 1.0
            w[j] = 1.0 / np.prod(d)
        return w

    @pytest.mark.parametrize("n", [8, 16, 48, 96, 192, 384])
    def test_weights_bitwise_loop(self, n):
        gauss = q.KernelContext(q.make_profile("sphere"), n, 4, 3).nodes
        for nodes in (gauss, np.linspace(0.1, 3.0, n)):
            assert np.array_equal(barycentric_weights(nodes), self._loop_weights(nodes))

    def test_reproduces_nodes(self):
        nodes = 0.5 * np.pi * (1 + np.polynomial.legendre.leggauss(12)[0])
        bw = barycentric_weights(nodes)
        L = interp_matrix(nodes, bw, nodes)
        assert np.max(np.abs(L - np.eye(12))) < 1e-12

    def test_polynomial_exact(self):
        nodes = 0.5 * np.pi * (1 + np.polynomial.legendre.leggauss(12)[0])
        bw = barycentric_weights(nodes)
        x = np.linspace(0.05, np.pi - 0.05, 40)
        L = interp_matrix(nodes, bw, x)
        p = lambda t: 2.0 + t - 0.3 * t ** 5
        assert np.max(np.abs(L @ p(nodes) - p(x))) < 1e-11

    def test_smooth_function_spectral(self):
        nodes = 0.5 * np.pi * (1 + np.polynomial.legendre.leggauss(24)[0])
        bw = barycentric_weights(nodes)
        x = np.linspace(0.01, np.pi - 0.01, 101)
        L = interp_matrix(nodes, bw, x)
        assert np.max(np.abs(L @ np.sin(nodes) ** 2 - np.sin(x) ** 2)) < 1e-13

    @staticmethod
    def _full_mask(nodes, bary_w, x):
        # the formula with full (points x nodes) hit masks that the
        # nearest-node test replaced
        diff = x[:, None] - nodes[None, :]
        hit = np.abs(diff) < 1e-14
        diff[hit] = 1.0
        L = bary_w[None, :] / diff
        L /= L.sum(axis=1)[:, None]
        rows_hit = hit.any(axis=1)
        if rows_hit.any():
            L[rows_hit] = 0.0
            L[hit] = 1.0
        return L

    @pytest.fixture
    def ctx(self):
        return q.KernelContext(q.make_profile("sphere"), 16, 4, 3)

    def test_bitwise_full_mask_formula_on_row_rules(self, ctx):
        for pt in ctx.nodes:
            t, _ = ctx.row_rule(pt)
            ref = self._full_mask(ctx.nodes, ctx.bary, t)
            assert np.array_equal(interp_matrix(ctx.nodes, ctx.bary, t), ref)

    @pytest.mark.parametrize("offset", [0.0, 5e-15, -5e-15, 2e-14, -2e-14])
    def test_bitwise_full_mask_formula_near_nodes(self, ctx, offset):
        x = ctx.nodes + offset
        L = interp_matrix(ctx.nodes, ctx.bary, x)
        assert np.array_equal(L, self._full_mask(ctx.nodes, ctx.bary, x))
        if abs(offset) < 1e-14:
            assert np.array_equal(L, np.eye(16))

    def test_bitwise_full_mask_formula_outside(self, ctx):
        x = np.array([-1.0, 0.0, ctx.nodes[0] - 1e-3, ctx.nodes[-1] + 1e-3, np.pi, 4.0])
        assert np.array_equal(interp_matrix(ctx.nodes, ctx.bary, x), self._full_mask(ctx.nodes, ctx.bary, x))

    @pytest.mark.parametrize("gap", [0.0, 1.5e-14, -0.1])
    def test_rejects_nodes_not_increasing_by_more_than_2e_14(self, gap):
        nodes = np.array([0.1, 0.5, 0.5 + gap, 1.0, 2.0])
        with pytest.raises(DomainError):
            interp_matrix(nodes, np.ones(5), np.array([0.3]))
        interp_matrix(np.array([0.1, 0.5, 0.5 + 3e-14, 1.0, 2.0]), np.ones(5), np.array([0.3]))
