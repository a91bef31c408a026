"""Linearized-operator representations and their cross-validation."""

import numpy as np
import pytest

import qg3d as q
from qg3d.linop import apply_mode_direct, apply_mode_hyper, cross_validate, gateaux_check


class TestHyper:
    def test_zero(self, ctx_sphere_small):
        out = apply_mode_hyper(ctx_sphere_small, 2, 0.0, np.zeros(48))
        assert np.all(out == 0.0)

    def test_kernel_annihilation(self, ctx_sphere, bp2_sphere):
        out = apply_mode_hyper(ctx_sphere, 2, bp2_sphere.omega_m, bp2_sphere.eigfun)
        assert np.max(np.abs(out)) <= 1e-6

    def test_self_adjoint_pairing(self, ctx_sphere):
        # <L h1, h2/nu>_mu = <h1/nu, L h2>_mu for the discrete operator
        K = q.assemble_kernel_matrix(ctx_sphere, 2, 0.05)
        rng = np.random.default_rng(7)
        h1 = np.sin(ctx_sphere.nodes) + 0.1 * rng.standard_normal(96)
        h2 = np.sin(ctx_sphere.nodes) ** 2 + 0.1 * rng.standard_normal(96)
        mw = ctx_sphere.mv * ctx_sphere.weights
        L1 = K.nu * (h1 - K.entries @ h1)
        L2 = K.nu * (h2 - K.entries @ h2)
        lhs = np.sum(L1 * h2 * mw)
        rhs = np.sum(h1 * L2 * mw)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


class TestDirect:
    def test_zero(self, ctx_sphere_small):
        out = apply_mode_direct(ctx_sphere_small, 2, 0.1, np.zeros(48))
        assert np.max(np.abs(out)) == 0.0

    def test_omega_linearity_exact(self, ctx_sphere_small):
        h = np.sin(ctx_sphere_small.nodes) ** 2
        d1 = apply_mode_direct(ctx_sphere_small, 2, 0.1, h)
        d2 = apply_mode_direct(ctx_sphere_small, 2, 0.3, h)
        assert np.max(np.abs((d1 - d2) - 0.2 * h)) < 1e-14


class TestCrossValidate:
    @pytest.mark.parametrize("n", [2, 3])
    def test_sphere_defaults(self, ctx_sphere, n):
        h = np.sin(ctx_sphere.nodes) ** 2
        assert cross_validate(ctx_sphere, n, 0.0, h) <= 1e-5

    @pytest.mark.parametrize("n", [2, 3])
    def test_spheroid_defaults(self, ctx_spheroid2, n):
        h = np.sin(ctx_spheroid2.nodes) ** 2
        assert cross_validate(ctx_spheroid2, n, 0.0, h) <= 1e-5

    def test_n1_radius_mode(self, ctx_sphere):
        assert cross_validate(ctx_sphere, 1, 0.0, ctx_sphere.r0v) <= 1e-5

    def test_halving_under_refinement(self, sphere):
        ctx = q.KernelContext(sphere, 48, 8, 3)
        fine = ctx.refined()
        d_c = cross_validate(ctx, 2, 0.0, np.sin(ctx.nodes) ** 2)
        d_f = cross_validate(fine, 2, 0.0, np.sin(fine.nodes) ** 2)
        assert d_f <= 0.5 * d_c

    def test_zero_convention(self, ctx_sphere_small):
        assert cross_validate(ctx_sphere_small, 2, 0.0, np.zeros(48)) == 0.0


class TestGateaux:
    def test_halving_ratios(self, sphere):
        kctx = q.KernelContext(sphere, 24, 7, 3)
        col = q.Collocation(kctx, m=2, n_vphi=224, n_eta=224)
        bp = q.find_bifurcation_point(kctx, 2)
        errs = gateaux_check(col, bp.omega_m, bp.eigfun, [1e-2, 5e-3, 2.5e-3])
        ratios = errs[:-1] / errs[1:]
        assert np.all(ratios >= 1.7) and np.all(ratios <= 2.3)

    def test_zero_direction(self, col_sphere_m2):
        errs = gateaux_check(col_sphere_m2, 0.1, np.zeros(24), [1e-2, 5e-3])
        assert np.max(errs) < 1e-12

    def test_difference_quotient_is_pure(self, col_sphere_m2):
        # Ftilde(Omega, 0) vanishes identically in the discretization, so
        # the quotient reduces to Ftilde(Omega, eps h)/eps
        base = q.f_tilde(col_sphere_m2, 0.1, None)
        assert np.max(np.abs(base)) == 0.0


class TestModeStructure:
    def test_theta_leakage(self, col_sphere_m2):
        # mode-m cosine input must produce a pure cos(k m theta) response
        kctx = col_sphere_m2.kctx
        eps = 1e-3
        coeffs = np.zeros((4, kctx.n_nodes))
        coeffs[0] = eps * np.sin(kctx.nodes)
        f = q.Perturbation(col_sphere_m2, coeffs)
        vals = q.nonlinear.f_tilde_circle(col_sphere_m2, 0.1, f, float(kctx.nodes[8]), 64)
        spec = np.fft.rfft(vals) / len(vals)
        scale = np.max(np.abs(spec)) + 1e-30
        for kk in range(len(spec)):
            if kk % 2 != 0:  # any non-multiple of m = 2
                assert abs(spec[kk]) <= 1e-10 * scale
        assert np.max(np.abs(spec.imag)) <= 1e-10 * scale  # no sine content

    def test_zero_theta_mean(self, col_sphere_m2):
        kctx = col_sphere_m2.kctx
        coeffs = np.zeros((4, kctx.n_nodes))
        coeffs[0] = 0.01 * np.sin(kctx.nodes)
        f = q.Perturbation(col_sphere_m2, coeffs)
        vals = q.nonlinear.f_tilde_circle(col_sphere_m2, 0.1, f, float(kctx.nodes[6]), 64)
        assert abs(np.mean(vals)) <= 1e-10
