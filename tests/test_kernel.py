"""Kernels H_n, the coefficient function nu, kappa, and Nystrom assembly."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special as sps

import qg3d as q
from qg3d.errors import DomainError
from qg3d.kernel import _LAGRANGE_CHUNK, _cn, _hn_values, row_apply
from qg3d.quadrature import interp_matrix


@pytest.fixture(scope="module")
def bumped_ctx():
    """A symmetric non-ellipsoidal profile (nu genuinely varies)."""
    phi = np.linspace(0.0, np.pi, 401)
    prof = q.make_profile("tabulated", phi=phi, r0=np.sin(phi) * (1.0 + 0.1 * np.sin(phi) ** 2))
    return q.KernelContext(prof, 48, 8, 3)


class TestBigR:
    def test_sphere_equator(self, sphere):
        assert q.big_r(sphere, np.pi / 2, np.pi / 2) == pytest.approx(4.0, abs=1e-14)

    def test_sphere_poles(self, sphere):
        assert q.big_r(sphere, 0.0, np.pi) == pytest.approx(4.0, abs=1e-14)

    def test_spheroid_equator(self, spheroid2):
        assert q.big_r(spheroid2, np.pi / 2, np.pi / 2) == pytest.approx(16.0, abs=1e-13)

    def test_symmetry(self, spheroid2):
        a = q.big_r(spheroid2, 0.7, 2.1)
        b = q.big_r(spheroid2, 2.1, 0.7)
        assert a == b


class TestHn:
    def test_direct_composition_oracle(self, sphere):
        # independent re-evaluation from the definition with scipy's 2F1
        phi, vphi, n = np.pi / 2, np.pi / 4, 1
        rp, rq = np.sin(phi), np.sin(vphi)
        R = (rp + rq) ** 2 + (np.cos(phi) - np.cos(vphi)) ** 2
        x = 4 * rp * rq / R
        c1 = 2.0 ** (2 * n - 1) * (0.5) ** 2 / 2.0
        ref = c1 * np.sin(vphi) * rp ** (n - 1) * rq ** (n + 1) * R ** (-(n + 0.5)) * sps.hyp2f1(n + 0.5, n + 0.5, 2 * n + 1, x)
        assert float(q.h_n(sphere, 1, phi, vphi)) == pytest.approx(float(ref), rel=1e-12)

    def test_vanishes_at_poles(self, sphere):
        assert float(q.h_n(sphere, 1, 1.0, 0.0)) == 0.0
        assert float(q.h_n(sphere, 2, 1.0, np.pi)) == pytest.approx(0.0, abs=1e-30)

    def test_mode_monotone(self, sphere):
        h1 = float(q.h_n(sphere, 1, np.pi / 3, np.pi / 5))
        h2 = float(q.h_n(sphere, 2, np.pi / 3, np.pi / 5))
        assert h1 > h2 > 0

    def test_coincident_raises(self, sphere):
        with pytest.raises(DomainError):
            q.h_n(sphere, 1, 1.0, 1.0)

    def test_cn_exact(self):
        # c_n = 2^{2n-1} ((1/2)_n)^2 / (2n)! in exact rationals, rounded once
        for n in range(1, 13):
            poch = Fraction(1)
            for k in range(n):
                poch *= Fraction(1, 2) + k
            assert _cn(n) == float(2 ** (2 * n - 1) * poch ** 2 / math.factorial(2 * n))


class TestNuAndKappa:
    def test_sphere_constant_third(self, ctx_sphere):
        nu = q.nu_omega(ctx_sphere, 0.0)
        assert np.max(np.abs(nu.values - 1.0 / 3.0)) < 1e-6
        assert np.max(nu.values) - np.min(nu.values) < 1e-6

    def test_sphere_omega_shift(self, ctx_sphere):
        nu = q.nu_omega(ctx_sphere, 0.1)
        assert np.max(np.abs(nu.values - (1.0 / 3.0 - 0.1))) < 1e-6

    def test_spheroid_matches_alphas(self, ctx_spheroid2):
        al = q.ellipsoid_alphas(2.0)
        nu = q.nu_omega(ctx_spheroid2, 0.0)
        assert np.max(np.abs(nu.values - 2 * al.alpha1)) < 1e-6

    def test_kappa_sphere(self, ctx_sphere):
        assert abs(q.kappa(ctx_sphere) - 1.0 / 3.0) < 1e-5

    def test_kappa_spheroid(self, ctx_spheroid2):
        assert abs(q.kappa(ctx_spheroid2) - 2 * q.ellipsoid_alphas(2.0).alpha1) < 1e-5

    def test_kappa_positive_generic(self, bumped_ctx):
        assert q.kappa(bumped_ctx) > 0

    def test_positivity_invariant(self, bumped_ctx):
        k = q.kappa(bumped_ctx)
        for omega in (-2.0, 0.0, 0.5 * k, 0.9 * k):
            nu = q.nu_omega(bumped_ctx, omega)
            assert nu.positive
            assert np.min(nu.values) >= k - omega - 1e-6

    def test_flagged_nonpositive(self, bumped_ctx):
        nu = q.nu_omega(bumped_ctx, q.kappa(bumped_ctx) + 0.1)
        assert not nu.positive

    def test_pole_derivative_trend(self, sphere, spheroid2):
        # one-sided slope of nu at the nodes nearest the pole shrinks
        # under refinement (nu is flat at the poles)
        for prof in (sphere, spheroid2):
            slopes = []
            for N, lvl in ((48, 8), (96, 9)):
                ctx = q.KernelContext(prof, N, lvl, 3)
                nu = q.nu_omega(ctx, 0.0).values
                slopes.append(abs((nu[1] - nu[0]) / (ctx.nodes[1] - ctx.nodes[0])))
            assert slopes[-1] < 1e-6 or slopes[-1] <= slopes[0]


class TestAssembly:
    def test_symmetry_defect(self, sphere):
        ctx = q.KernelContext(sphere, 64, 9, 3)
        K = q.assemble_kernel_matrix(ctx, 2, 0.0)
        assert np.max(np.abs(K.sym_entries - K.sym_entries.T)) <= 1e-10

    def test_symmetry_defect_generic(self, bumped_ctx):
        K = q.assemble_kernel_matrix(bumped_ctx, 3, 0.0)
        assert np.max(np.abs(K.sym_entries - K.sym_entries.T)) <= 1e-10

    def test_offdiagonal_positive(self, ctx_sphere):
        x = ctx_sphere.nodes
        H = _hn_values(ctx_sphere.profile, 2, x[:, None], x[None, :])
        assert np.min(H[~np.eye(len(x), dtype=bool)]) > 0

    @pytest.mark.parametrize("omega", [0.0, 0.2])
    def test_symmetrized_bitwise(self, bumped_ctx, omega):
        K = q.assemble_kernel_matrix(bumped_ctx, 3, omega)
        assert np.array_equal(K.sym_entries, K.sym_entries.T)

    def test_row_integral_refinement(self, sphere):
        ctx = q.KernelContext(sphere, 48, 8, 3)
        fine = ctx.refined()
        h = np.sin
        coarse_vals = row_apply(ctx, 2, h(ctx.nodes))
        fine_vals = row_apply(fine, 2, h(fine.nodes))
        # compare at shared abscissae via the known smooth integrand result
        from qg3d.quadrature import barycentric_weights, interp_matrix

        L = interp_matrix(fine.nodes, barycentric_weights(fine.nodes), ctx.nodes)
        assert np.max(np.abs(L @ fine_vals - coarse_vals)) < 1e-5

    def test_measure_sign_error(self, ctx_sphere):
        with pytest.raises(DomainError):
            q.assemble_kernel_matrix(ctx_sphere, 2, q.kappa(ctx_sphere))

    def test_strip_nu_shift_identity(self, ctx_sphere):
        # constant-nu family: lambda_n(Omega) = beta_n / (kappa - Omega)
        Ks = q.assemble_kernel_matrix(ctx_sphere, 2, 0.0, strip_nu=True)
        beta = q.largest_eigenvalue(Ks).lam
        K = q.assemble_kernel_matrix(ctx_sphere, 2, 0.1)
        lam = q.largest_eigenvalue(K).lam
        assert lam == pytest.approx(beta / (1.0 / 3.0 - 0.1), rel=1e-8)

    def test_refinement_stability(self, sphere):
        ctx = q.KernelContext(sphere, 48, 8, 3)
        fine = ctx.refined()
        assert abs(q.kappa(ctx) - q.kappa(fine)) < 1e-5
        lam_c = q.largest_eigenvalue(q.assemble_kernel_matrix(ctx, 2, 0.0)).lam
        lam_f = q.largest_eigenvalue(q.assemble_kernel_matrix(fine, 2, 0.0)).lam
        assert abs(lam_c - lam_f) < 1e-5

    def test_bad_mode(self, ctx_sphere):
        with pytest.raises(DomainError):
            q.assemble_kernel_matrix(ctx_sphere, 0, 0.0)


class TestDecayScan:
    def test_strictly_decreasing(self, sphere):
        vals = q.hn_decay_scan(sphere, np.pi / 3, np.pi / 5, 12)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals[1:] / vals[:-1] < 1.0)

    def test_tail_slope_nonpositive(self, sphere):
        vals = q.hn_decay_scan(sphere, np.pi / 3, np.pi / 5, 12)
        n = np.arange(1, 13)
        slope = np.polyfit(np.log(n[5:]), np.log(vals[5:]), 1)[0]
        assert slope <= 0.0

    def test_coincident_rejected(self, sphere):
        with pytest.raises(DomainError):
            q.hn_decay_scan(sphere, 1.0, 1.0, 4)


def _walked(ctx):
    """The rows the B_n walk computes; a mirrored context fills the rest
    by the equatorial mirror."""
    return ctx.n_nodes // 2 if ctx.mirrored else ctx.n_nodes


class TestRowBlocks:
    """The blocked row loops equal the per-row loop they replaced: one
    row_rule and one H_n evaluation per target (clamped like the kernel,
    since the rules reach nodes where 1 - x rounds to 0)."""

    @pytest.fixture(params=["ctx_sphere_small", "bumped_ctx", "asym_ctx"])
    def ctx(self, request):
        return request.getfixturevalue(request.param)

    @staticmethod
    def _row(ctx, n, pt):
        t, w = ctx.row_rule(pt)
        return t, w * _hn_values(ctx.profile, n, pt, t)

    def test_mode_table_rows(self, ctx):
        rows = _walked(ctx)
        for n in (1, 3):
            ref = np.array([np.sum(self._row(ctx, n, pt)[1]) for pt in ctx.nodes[:rows]])
            assert np.max(np.abs(ctx.mode_tables(n)[1][:rows] / ref - 1.0)) <= 1e-14

    def test_mode_tables_share_b(self, ctx):
        for n in (1, 3):
            B, rowint = ctx.mode_tables(n)
            assert B is ctx.mode_b_matrix(n)
            assert np.array_equal(rowint, B.sum(axis=1))
        assert ctx.mode_tables(1)[1] is ctx.nu0 and not ctx.nu0.flags.writeable

    def test_b_matrix_rows(self, ctx):
        B = ctx.mode_b_matrix(2)
        for i, pt in enumerate(ctx.nodes[:_walked(ctx)]):
            t, wh = self._row(ctx, 2, pt)
            ref = wh @ interp_matrix(ctx.nodes, ctx.bary, t)
            assert np.max(np.abs(B[i] - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_b_matrix_mirror(self, ctx):
        for n in (1, 2, 3):
            B = ctx.mode_b_matrix(n)
            assert np.array_equal(B, B[::-1, ::-1]) is ctx.mirrored

    @staticmethod
    def _fresh(ctx):
        return q.KernelContext(ctx.profile, ctx.n_nodes, ctx.de_level, ctx.direct_level)

    def test_all_mode_walk_matches_per_mode_builds(self, ctx):
        Bs = self._fresh(ctx).mode_b_matrices([2, 5, 3, 5])
        assert len(Bs) == 4 and Bs[1] is Bs[3]
        for n, B in zip([2, 5, 3], Bs):
            assert np.array_equal(B, self._fresh(ctx).mode_b_matrix(n))

    def test_all_mode_walk_cached(self, ctx):
        fresh = self._fresh(ctx)
        first = fresh.mode_b_matrices([2, 5, 3, 5])
        again = fresh.mode_b_matrices([2, 5, 3, 5])
        assert all(a is b for a, b in zip(first, again))
        assert fresh.mode_b_matrix(3) is first[2]

    def test_all_mode_walk_rejects_bad_mode(self, ctx):
        with pytest.raises(DomainError):
            ctx.mode_b_matrices([2, 0])

    def test_kappa(self, ctx):
        fine = 0.5 * np.pi * (1.0 + np.polynomial.legendre.leggauss(2 * ctx.n_nodes)[0])
        rows = [np.sum(self._row(ctx, 1, pt)[1]) for pt in np.concatenate([ctx.nodes, fine])]
        assert q.kappa(ctx) == pytest.approx(min(rows), rel=1e-14)


class TestEquatorialMirror:
    """The half walk on profiles symmetric about the equator, and the full
    walk, unchanged, on the others."""

    @staticmethod
    def _profile(name):
        phi = np.linspace(0.0, np.pi, 401)
        if name == "bumped":
            return q.make_profile("tabulated", phi=phi, r0=np.sin(phi) * (1.0 + 0.1 * np.sin(phi) ** 2))
        if name == "asym":
            return q.make_profile("tabulated", phi=phi, r0=np.sin(phi) * (1.0 + 0.1 * np.cos(phi)))
        kind, _, a = name.partition(":")
        return q.make_profile(kind, a=float(a or 1.0))

    @pytest.mark.parametrize(
        "name,mirrored",
        [("sphere", True), ("spheroid:0.5", True), ("spheroid:2", True), ("bumped", True), ("asym", False)],
    )
    def test_gate(self, name, mirrored):
        assert q.KernelContext(self._profile(name), 16, 4, 3).mirrored is mirrored

    @pytest.mark.parametrize("name", ["sphere", "spheroid:0.5", "bumped"])
    def test_half_walk_matches_full_walk(self, name):
        # the split rules at pi - phi_i mirror those at phi_i only to
        # round-off; measured worst over B_1..B_8 at N = 96, de_level 7:
        # 3.8e-13 (sphere), 5.0e-13 (spheroid:0.5), 3.6e-13 (bumped),
        # relative to max|B_n|
        half = q.KernelContext(self._profile(name), 96, 7, 3)
        full = q.KernelContext(self._profile(name), 96, 7, 3)
        full.mirrored = False
        for Bh, Bf in zip(half.mode_b_matrices(range(1, 9)), full.mode_b_matrices(range(1, 9))):
            assert np.max(np.abs(Bh - Bf)) <= 1e-12 * np.max(np.abs(Bf))

    def test_asymmetric_bitwise_full_walk(self, asym_ctx):
        # the per-row loop with the walk's chunking and reductions: an
        # asymmetric profile must not be touched by the mirror at all
        def row(pt, n):
            t, w = asym_ctx.row_rule(pt)
            return t, w * _hn_values(asym_ctx.profile, n, pt, t)

        ref = np.zeros((asym_ctx.n_nodes, asym_ctx.n_nodes))
        for i, pt in enumerate(asym_ctx.nodes):
            t, wh = row(pt, 2)
            for c in range(0, len(t), _LAGRANGE_CHUNK):
                sl = slice(c, c + _LAGRANGE_CHUNK)
                ref[i] += wh[sl] @ interp_matrix(asym_ctx.nodes, asym_ctx.bary, t[sl])
        assert np.array_equal(asym_ctx.mode_b_matrix(2), ref)
        fine = 0.5 * np.pi * (1.0 + np.polynomial.legendre.leggauss(2 * asym_ctx.n_nodes)[0])
        rows = [np.add.reduceat(row(pt, 1)[1], [0])[0] for pt in fine]
        assert asym_ctx.kappa == min(np.min(asym_ctx.nu0), min(rows))


class TestOmegaGuard:
    """Omega must lie strictly below kappa (1 - guard_frac) on every path."""

    @pytest.mark.parametrize("kind,a", [("sphere", 1.0), ("spheroid", 2.0), ("spheroid", 0.5)])
    def test_limit_itself_rejected(self, kind, a):
        ctx = q.KernelContext(q.make_profile(kind, a=a), 16, 4, 3)
        limit = ctx.kappa * (1.0 - ctx.guard_frac)
        assert ctx.omega_limit == limit
        with pytest.raises(DomainError):
            q.assemble_kernel_matrix(ctx, 2, limit)
        with pytest.raises(DomainError):
            q.dispersion_scan(ctx, [2], [limit])
        q.assemble_kernel_matrix(ctx, 2, float(np.nextafter(limit, -np.inf)))
