"""Dispersion relation, bifurcation points, eigenfunction diagnostics."""

import numpy as np
import pytest

import qg3d as q
from oracles import jacobi_eigensolve
from qg3d.errors import DomainError, SolverError
from qg3d.spectral import SpectralResult


@pytest.fixture(scope="module")
def ctx_spheroid_half():
    return q.KernelContext(q.make_profile("spheroid", a=0.5), 48, 8, 3)


def _jacobi_top(K):
    """The top eigenvalue of ``K.sym_entries`` by the Jacobi oracle, and
    its vector mapped back through D^{-1/2}, mu-normalized and positive."""
    vals, vecs = jacobi_eigensolve(K.sym_entries)
    h = vecs[:, 0] / np.sqrt(K.mu_w)
    if np.sum(h * K.mu_w) < 0:
        h = -h
    return vals[0], h / np.sqrt(np.sum(h ** 2 * K.mu_w))


class TestLargestEigenvalue:
    def test_positive_for_modes(self, ctx_sphere):
        for n in range(1, 7):
            res = q.largest_eigenvalue(q.assemble_kernel_matrix(ctx_sphere, n, 0.0))
            assert res.lam > 0
            assert res.residual <= 1e-10 * max(1.0, res.lam)

    def test_constant_nu_scaling(self, ctx_sphere):
        # nu is constant on the sphere, so lambda_n scales as 1/(1/3 - Omega)
        for n in (2, 4):
            l0 = q.largest_eigenvalue(q.assemble_kernel_matrix(ctx_sphere, n, 0.0)).lam
            l6 = q.largest_eigenvalue(q.assemble_kernel_matrix(ctx_sphere, n, 1.0 / 6.0)).lam
            assert l0 / l6 == pytest.approx(0.5, abs=1e-8)

    def test_far_left_decay(self, ctx_sphere):
        res = q.largest_eigenvalue(q.assemble_kernel_matrix(ctx_sphere, 2, -50.0))
        assert res.lam < 0.01

    def test_eigvec_constant_sign(self, ctx_sphere):
        for n in (1, 3):
            res = q.largest_eigenvalue(q.assemble_kernel_matrix(ctx_sphere, n, 0.0))
            assert np.min(res.eigvec) >= -1e-12

    @pytest.mark.parametrize("name", ["ctx_sphere_small", "ctx_spheroid_half"])
    def test_even_block_matches_full_eigh(self, request, name):
        # a mirrored context solves only the N/2 even block; its lambda is
        # the top eigenvalue of the whole symmetrized matrix up to the
        # round-off of the two solves (at most 9 ulp measured), and its
        # vector is even
        ctx = request.getfixturevalue(name)
        assert ctx.mirrored
        for n in (1, 2, 4):
            for om in (-1.0, 0.0, 0.15):
                K = q.assemble_kernel_matrix(ctx, n, om)
                res = q.largest_eigenvalue(K)
                top = np.linalg.eigh(K.sym_entries)[0][-1]
                assert abs(res.lam - top) <= 4e-15 * top
                assert np.max(np.abs(res.eigvec - res.eigvec[::-1])) <= 1e-12 * np.max(res.eigvec)

    def test_unmirrored_matches_jacobi(self, asym_ctx):
        # the full solve of an unmirrored profile, held to criterion 9's bounds
        assert not asym_ctx.mirrored
        for n, omega in ((1, 0.0), (2, -0.5), (3, 0.1)):
            K = q.assemble_kernel_matrix(asym_ctx, n, omega)
            res = q.largest_eigenvalue(K)
            lam, h = _jacobi_top(K)
            assert abs(res.lam - lam) <= 1e-9
            assert np.max(np.abs(h - res.eigvec)) <= 1e-7

    def test_mu_norm(self, ctx_sphere):
        K = q.assemble_kernel_matrix(ctx_sphere, 2, 0.0)
        res = q.largest_eigenvalue(K)
        assert np.sum(res.eigvec ** 2 * K.mu_w) == pytest.approx(1.0, abs=1e-12)

    def test_sphere_single_layer_eigenstructure(self, ctx_sphere):
        # on the unit sphere the mode-n operator has the explicit
        # eigenfunction sin^{n-1}(phi) with eigenvalue 1/((2n+1) nu)
        for n in (1, 2, 3, 4):
            K = q.assemble_kernel_matrix(ctx_sphere, n, 0.0)
            v = np.sin(ctx_sphere.nodes) ** (n - 1)
            expect = 3.0 / (2 * n + 1)
            # node-wise apply error of the diagonal-corrected Nystrom
            # matrix; the constant eigenfunction (n = 1) is exact
            tol = 1e-12 if n == 1 else 2e-5
            assert np.max(np.abs(K.entries @ v - expect * v)) < tol


class TestEigenBounds:
    def test_bracket_holds(self, ctx_sphere):
        K = q.assemble_kernel_matrix(ctx_sphere, 2, 0.0)
        lam = q.largest_eigenvalue(K).lam
        rho = np.ones(ctx_sphere.n_nodes) / np.sqrt(np.pi)
        lo, hi = q.eigen_bounds(ctx_sphere, K, rho)
        assert lo <= lam <= hi
        assert lo > 0

    def test_upper_bound_decreases_with_n(self, ctx_sphere):
        rho = np.ones(ctx_sphere.n_nodes) / np.sqrt(np.pi)
        uppers = []
        for n in (1, 2, 3, 4):
            K = q.assemble_kernel_matrix(ctx_sphere, n, 0.0)
            uppers.append(q.eigen_bounds(ctx_sphere, K, rho)[1])
        assert all(b < a for a, b in zip(uppers[:-1], uppers[1:]))

    def test_concentrated_density(self, ctx_sphere):
        K = q.assemble_kernel_matrix(ctx_sphere, 2, 0.0)
        lam = q.largest_eigenvalue(K).lam
        rho = np.zeros(ctx_sphere.n_nodes)
        rho[48] = 1.0 / np.sqrt(ctx_sphere.weights[48])
        lo, _ = q.eigen_bounds(ctx_sphere, K, rho)
        assert lo <= lam


class TestDispersionScan:
    def test_monotonicities(self, ctx_sphere):
        curve = q.dispersion_scan(ctx_sphere, [1, 2, 3, 4, 5, 6], [-1.0, -0.5, 0.0, 0.2])
        assert curve.anomalies == []

    def test_halving_with_gap(self, ctx_sphere):
        curve = q.dispersion_scan(ctx_sphere, [3], [1.0 / 3.0 - 0.2, 1.0 / 3.0 - 0.1])
        lam = {row[1]: row[2] for row in curve.rows}
        assert lam[1.0 / 3.0 - 0.1] / lam[1.0 / 3.0 - 0.2] == pytest.approx(2.0, rel=1e-7)

    def test_sphere_oracle(self, sphere):
        # lambda_n(Omega) = 1/((2n+1)(1/3 - Omega)) on the sphere
        ctx = q.KernelContext(sphere, 96, 7, 3)
        omegas = [-2.0, -1.0, -0.5, 0.0, 0.15, 0.25]
        curve = q.dispersion_scan(ctx, range(1, 9), omegas)
        assert len(curve.rows) == 48
        for n, om, lam, _, _ in curve.rows:
            assert lam * (2 * n + 1) * (1.0 / 3.0 - om) == pytest.approx(1.0, rel=1e-11, abs=0)

    @pytest.mark.parametrize("modes", [[3, 2], [2, 2]])
    def test_unsorted_or_repeated_modes(self, ctx_sphere_small, modes):
        # monotonicity in n is checked between the sorted distinct modes
        assert q.dispersion_scan(ctx_sphere_small, modes, [0.0]).anomalies == []

    def test_unsorted_grid_checks_sorted_neighbours(self, ctx_sphere_small, monkeypatch):
        # a lambda flat in Omega is an anomaly between every two
        # neighbouring Omegas, in whatever order the grid lists them
        def flat(K):
            return SpectralResult(K.n, K.omega, 1.0 / K.n, np.ones(len(K.nu)), 0, 0.0)

        monkeypatch.setattr("qg3d.spectral.largest_eigenvalue", flat)
        curve = q.dispersion_scan(ctx_sphere_small, [2, 3], [0.0, -0.5, 0.2])
        assert curve.anomalies == [(kind, n, a, b) for n in (2, 3) for kind, a, b in (("omega", -0.5, 0.0), ("omega", 0.0, 0.2))]

    def test_single_point(self, ctx_sphere):
        curve = q.dispersion_scan(ctx_sphere, [2], [0.0])
        assert len(curve.rows) == 1

    def test_guard_rejected(self, ctx_sphere):
        with pytest.raises(DomainError):
            q.dispersion_scan(ctx_sphere, [2], [q.kappa(ctx_sphere)])


class TestBifurcationPoints:
    def test_sphere_window(self, bp2_sphere):
        assert 0.0 < bp2_sphere.omega_m < 1.0 / 3.0
        assert abs(bp2_sphere.lam - 1.0) <= 1e-9

    def test_sphere_analytic_oracle(self, ctx_sphere):
        # single-layer eigenstructure gives Omega_m = 1/3 - 1/(2m+1)
        for m in (2, 3, 4):
            bp = q.find_bifurcation_point(ctx_sphere, m)
            assert bp.omega_m == pytest.approx(1.0 / 3.0 - 1.0 / (2 * m + 1), abs=5e-6)

    def test_ordering_and_gap(self, ctx_sphere):
        oms = [q.find_bifurcation_point(ctx_sphere, m).omega_m for m in range(2, 7)]
        assert all(b > a for a, b in zip(oms[:-1], oms[1:]))
        gaps = [q.kappa(ctx_sphere) - om for om in oms]
        assert all(b < a for a, b in zip(gaps[:-1], gaps[1:]))
        assert all(0.0 < om < 1.0 / 3.0 for om in oms)

    def test_nu_stripped_crosscheck(self, ctx_sphere, bp2_sphere):
        Ks = q.assemble_kernel_matrix(ctx_sphere, 2, 0.0, strip_nu=True)
        beta = q.largest_eigenvalue(Ks).lam
        assert bp2_sphere.omega_m == pytest.approx(1.0 / 3.0 - beta, abs=1e-6)

    def test_unique_sign_change(self, ctx_sphere, bp2_sphere):
        oms = np.linspace(-0.5, q.kappa(ctx_sphere) * 0.995, 12)
        signs = []
        for om in oms:
            lam = q.largest_eigenvalue(q.assemble_kernel_matrix(ctx_sphere, 2, om)).lam
            signs.append(np.sign(lam - 1.0))
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1

    def test_m1_rejected(self, ctx_sphere):
        with pytest.raises(DomainError):
            q.find_bifurcation_point(ctx_sphere, 1)

    @pytest.mark.parametrize("m", [3, 4])
    def test_discrete_eigen_equation(self, ctx_spheroid_half, m):
        # (Omega_m, h*_m) must solve B_m h = (nu0 - Omega_m) h itself; a
        # root of lambda_m = 1 with a loosely converged eigenvector reads
        # lam - 1 ~ 1e-11 while this residual stays near 1e-5
        bp = q.find_bifurcation_point(ctx_spheroid_half, m)
        Bh = ctx_spheroid_half.mode_b_matrix(m) @ bp.eigfun
        resid = Bh - (ctx_spheroid_half.nu0 - bp.omega_m) * bp.eigfun
        assert np.linalg.norm(resid) / np.linalg.norm(Bh) <= 1e-10

    def test_non_finite_matrix_is_solver_error(self, sphere):
        # a B_m that overflowed reaches no eigensolve, and the error names the mode
        ctx = q.KernelContext(sphere, 16, 4, 3)
        ctx.mode_b_matrix(3)[0, 0] = np.nan
        with pytest.raises(SolverError, match="mode 3: .* not finite"):
            q.find_bifurcation_point(ctx, 3)
        with pytest.raises(SolverError, match="mode 3: .* not finite"):
            q.largest_eigenvalue(q.assemble_kernel_matrix(ctx, 3, 0.0))

    def test_guard_hiding_root_is_solver_error(self, sphere):
        # kappa - guard = 1/6 lies left of Omega_6 = 1/3 - 1/13, hiding the root
        ctx = q.KernelContext(sphere, 16, 4, 3, guard_frac=0.5)
        with pytest.raises(SolverError):
            q.find_bifurcation_point(ctx, 6)


class TestEvenBlock:
    """Omega_m from the even block of a centrosymmetric B_m, and from the
    full matrix when the profile is not mirrored."""

    @pytest.mark.parametrize("name", ["ctx_sphere_small", "ctx_spheroid_half"])
    def test_matches_full_eigensolve(self, request, name):
        ctx = request.getfixturevalue(name)
        assert ctx.mirrored
        for m in (2, 3, 4):
            bp = q.find_bifurcation_point(ctx, m)
            vals = np.linalg.eigvals(np.diag(ctx.nu0) - ctx.mode_b_matrix(m))
            full = float(np.min(vals.real))
            assert abs(bp.omega_m - full) <= 1e-14 * abs(full)
            assert np.array_equal(bp.eigfun, bp.eigfun[::-1])

    def test_asymmetric_full_eigensolve(self, asym_ctx):
        assert not asym_ctx.mirrored
        vals = np.linalg.eig(np.diag(asym_ctx.nu0) - asym_ctx.mode_b_matrix(2))[0]
        assert q.find_bifurcation_point(asym_ctx, 2).omega_m == float(np.min(vals.real))


class TestBoundaryReport:
    def test_dichotomy(self, sphere):
        ctx_c = q.KernelContext(sphere, 96, 9, 3)
        ctx_f = q.KernelContext(sphere, 192, 10, 3)
        for n, shrinks in ((1, False), (3, True)):
            reps = []
            for ctx in (ctx_c, ctx_f):
                res = q.largest_eigenvalue(q.assemble_kernel_matrix(ctx, n, 0.0))
                reps.append(q.eigenfunction_boundary_report(ctx, res.eigvec))
            if shrinks:
                assert reps[1].value_0 <= 0.7 * reps[0].value_0
            else:
                for rep in reps:
                    assert rep.value_0 >= 0.1 * rep.interior_max

    def test_equatorial_symmetry(self, ctx_sphere):
        res = q.largest_eigenvalue(q.assemble_kernel_matrix(ctx_sphere, 3, 0.0))
        h = res.eigvec
        assert np.max(np.abs(h - h[::-1])) < 1e-8


class TestKernelDimension:
    def test_sphere_m2(self, ctx_sphere):
        ok, lam, omega_m = q.kernel_dimension_check(ctx_sphere, 2, 8)
        assert all(ok.values())
        assert lam[2] == pytest.approx(1.0, abs=1e-9)
        for n in range(3, 9):
            assert lam[n] < 1.0 - 1e-4

    def test_domain(self, ctx_sphere):
        with pytest.raises(DomainError):
            q.kernel_dimension_check(ctx_sphere, 1, 4)


class TestTransversality:
    def test_positive_and_value(self, ctx_sphere, bp2_sphere):
        t = q.transversality_check(ctx_sphere, bp2_sphere)
        # constant-nu normalization makes the value (2m+1) exactly
        assert t == pytest.approx(5.0, abs=1e-4)

    def test_refinement_stability(self, sphere, bp2_sphere, ctx_sphere):
        ctx_f = q.KernelContext(sphere, 192, 10, 3)
        bp_f = q.find_bifurcation_point(ctx_f, 2)
        t_c = q.transversality_check(ctx_sphere, bp2_sphere)
        t_f = q.transversality_check(ctx_f, bp_f)
        assert abs(t_c - t_f) < 1e-5

    def test_sign_flip_invariant(self, ctx_sphere, bp2_sphere):
        from qg3d.spectral import BifurcationPoint

        flipped = BifurcationPoint(bp2_sphere.m, bp2_sphere.omega_m, -bp2_sphere.eigfun, bp2_sphere.lam)
        assert q.transversality_check(ctx_sphere, flipped) == pytest.approx(
            q.transversality_check(ctx_sphere, bp2_sphere), rel=1e-14
        )

    def test_zero_rejected(self, ctx_sphere, bp2_sphere):
        from qg3d.spectral import BifurcationPoint

        zero = BifurcationPoint(2, bp2_sphere.omega_m, np.zeros_like(bp2_sphere.eigfun), 1.0)
        with pytest.raises(DomainError):
            q.transversality_check(ctx_sphere, zero)


class TestPowerVsJacobi:
    def test_small_matrix_agreement(self, sphere):
        ctx = q.KernelContext(sphere, 32, 8, 3)
        for n, omega in ((1, 0.0), (2, -0.5), (3, 0.1)):
            K = q.assemble_kernel_matrix(ctx, n, omega)
            res = q.largest_eigenvalue(K)
            lam, h = _jacobi_top(K)
            assert res.lam == pytest.approx(lam, abs=1e-9)
            assert np.max(np.abs(h - res.eigvec)) < 1e-7
