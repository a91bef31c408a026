"""Nonlinear functional, symmetry structure, axis velocity, branch solver."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import qg3d as q
from qg3d.errors import DomainError, GeometryError, SolverError
from qg3d import cli, nonlinear
from qg3d.nonlinear import (
    Perturbation,
    _amplitude_row,
    _angle_tables,
    _axis_velocity_grid,
    _jacobian,
    _pack,
    _radial_closed_form,
    _radii,
    _residual,
    _stream,
    f_tilde_circle,
    newton_correct,
)
from qg3d.quadrature import periodic_trapezoid

from oracles import asym_profile, bump_profile, rotating_ellipsoid


def small_perturbation(col, eps=0.02, mode=0):
    coeffs = np.zeros((col.n_modes, col.kctx.n_nodes))
    coeffs[mode] = eps * np.sin(col.kctx.nodes) ** (mode + 1)
    return Perturbation(col, coeffs)


def random_perturbation(col, seed, eps=0.01):
    """Admissible random perturbation: symmetric, Dirichlet, small."""
    rng = np.random.default_rng(seed)
    x = col.kctx.nodes
    coeffs = np.zeros((col.n_modes, col.kctx.n_nodes))
    for k in range(col.n_modes):
        c = rng.standard_normal(3)
        base = c[0] * np.sin(x) + c[1] * np.sin(x) ** 2 + c[2] * np.sin(x) ** 3
        coeffs[k] = eps * base / max(1.0, np.max(np.abs(base)))
    return Perturbation(col, coeffs)


def correct_amplitude(col, s, omega, f0, hstar):
    """``newton_correct`` on the amplitude row of h* at s, from the guess
    (f0, omega)."""
    return newton_correct(col, _amplitude_row(col, hstar), s, _pack(f0.coeffs[:, : col.n_phi], omega))


def kernel_context(profile, n_nodes, de_level=7):
    """Kernel context on a named profile; "asym" is the tabulated
    r0 = sin(phi) (1 + 0.1 cos(phi)), not symmetric about the equator."""
    if profile == "asym":
        phi = np.linspace(0.0, np.pi, 401)
        prof = q.make_profile("tabulated", phi=phi, r0=np.sin(phi) * (1.0 + 0.1 * np.cos(phi)))
    else:
        name, _, a = profile.partition(":")
        prof = q.make_profile(name, a=float(a)) if a else q.make_profile(name)
    return q.KernelContext(prof, n_nodes, de_level, 3)


def collocation(profile, n_nodes, n_modes, de_level=7, n_theta=8):
    """m = 2 collocation on a named profile (see ``kernel_context``)."""
    return q.Collocation(kernel_context(profile, n_nodes, de_level), m=2, n_modes=n_modes, n_theta=n_theta)


# the stream quadrature's node counts at twice the defaults
DOUBLED = {"n_vphi": 2 * q.Collocation.n_vphi, "n_eta": 2 * q.Collocation.n_eta}


def first_point(kctx, s, n_modes, n_theta, **sizes):
    """The m = 2 branch point of one continuation step to amplitude s;
    ``sizes`` (n_vphi, n_eta) go to the collocation."""
    col = q.Collocation(kctx, m=2, n_modes=n_modes, n_theta=n_theta, **sizes)
    branch = q.continue_branch(col, s, 1)
    assert branch.failed_at is None
    return branch.points[0]


def ellipsoid_errors(kctx, pt, a0):
    """(Omega error, shape error) of an m = 2 branch point on the base
    r0 = a0 sin(phi) against the rotating ellipsoid."""
    bp = q.find_bifurcation_point(kctx, 2)
    n_modes = pt.f.coeffs.shape[0]
    omega, c = rotating_ellipsoid(pt.s, kctx.nodes, bp.eigfun, kctx.weights, a0, n_modes)
    return abs(pt.omega - omega), float(np.max(np.abs(pt.f.coeffs - c[:, None] * np.sin(kctx.nodes))))


class TestStreamPotential:
    def test_sphere_interior_potential(self, col_sphere_m2):
        for phi in (0.4, 1.0, np.pi / 2):
            val = q.stream_I(col_sphere_m2, None, phi, 0.7)
            exact = (np.sin(phi) ** 2 + np.cos(phi) ** 2) / 6.0 - 0.5
            assert val == pytest.approx(exact, abs=1e-6)

    def test_axisymmetric_theta_independence(self, col_sphere_m2):
        vals = [q.stream_I(col_sphere_m2, None, 0.9, th) for th in (0.0, 0.4, 2.2)]
        assert np.max(vals) - np.min(vals) <= 1e-10

    def test_linearization_consistency(self, col_sphere_m2):
        # I(eps h) - I(0) - eps dI[h] = O(eps^2)
        phi_t, th = 1.1, 0.2
        base = q.stream_I(col_sphere_m2, None, phi_t, th)
        defects = []
        for eps in (2e-2, 1e-2):
            f = small_perturbation(col_sphere_m2, eps)
            val = q.stream_I(col_sphere_m2, f, phi_t, th)
            defects.append(val - base)
        # first-order part halves, so the Richardson combination is O(eps^2)
        second = defects[0] - 2 * defects[1]
        assert abs(second) < 0.5 * abs(defects[0])

    def test_geometry_guard(self, col_sphere_m2):
        coeffs = np.zeros((4, 24))
        coeffs[0] = -2.0 * np.sin(col_sphere_m2.kctx.nodes)
        bad = Perturbation(col_sphere_m2, coeffs)
        with pytest.raises(GeometryError):
            q.stream_I(col_sphere_m2, bad, 1.0, 0.0)

    def test_perturbation_must_fit_the_collocation(self, col_sphere_m2):
        # the stream integral reads m, the mode count and the kernel grid
        # from the collocation: a perturbation of an m = 3 collocation must
        # not pass for an m = 2 one, nor a spheroid's for the sphere's
        col = col_sphere_m2
        coeffs = small_perturbation(col, 0.02).coeffs
        spheroid = q.KernelContext(q.make_profile("spheroid", a=2.0), 24, 7, 3)
        misfits = [
            Perturbation(q.Collocation(col.kctx, m=3, n_modes=4, n_theta=8), coeffs),
            Perturbation(q.Collocation(spheroid, m=2, n_modes=4, n_theta=8), coeffs),
            Perturbation(col, coeffs[:2]),
            Perturbation(col, coeffs[:, :-1]),
        ]
        for bad in misfits:
            with pytest.raises(DomainError, match="collocation"):
                q.f_tilde(col, 0.1, bad)
            with pytest.raises(DomainError, match="collocation"):
                q.stream_I(col, bad, 1.0, 0.2)

    def test_bracket_guard_on_every_path(self, col_sphere_m2):
        # r = sin(phi) (1 - 2 cos(2 theta)) is negative near theta = 0
        coeffs = np.zeros((4, 24))
        coeffs[0] = -2.0 * np.sin(col_sphere_m2.kctx.nodes)
        bad = Perturbation(col_sphere_m2, coeffs)
        with pytest.raises(GeometryError):
            q.velocity_residual(col_sphere_m2, 0.1, bad)
        with pytest.raises(GeometryError):
            q.mean_m(col_sphere_m2, 0.1, bad, 1.0)
        with pytest.raises(GeometryError):
            f_tilde_circle(col_sphere_m2, 0.1, bad, 1.0, 16)

    def test_grid_radius_guard_on_every_path(self, col_sphere_m2):
        # r = sin(phi) (1 - 1.2 cos(8 theta)) is -0.2 sin(phi) at theta = 0
        # but positive at every collocation target, where cos(8 theta) is
        # +-1/sqrt(2): the shape is judged on the kernel grid, the same way
        # on every path
        col = col_sphere_m2
        coeffs = np.zeros((col.n_modes, col.kctx.n_nodes))
        coeffs[3] = -1.2 * np.sin(col.kctx.nodes)
        bad = Perturbation(col, coeffs)
        assert np.min(bad.radius_at_nodes(0.0)) < 0.0
        assert np.min(_radii(col, bad, col.kctx.nodes[: col.n_phi], col.theta)) > 1e-3
        u = _pack(coeffs[:, : col.n_phi], 0.1)
        t = np.zeros(len(u))
        paths = [
            lambda: q.f_tilde(col, 0.1, bad),
            lambda: q.f_tilde_modes(col, 0.1, bad),
            lambda: q.velocity_residual(col, 0.1, bad),
            lambda: q.velocity_on_axis(col, bad, [0.0]),
            lambda: q.stream_I(col, bad, 1.0, float(col.theta[0])),
            lambda: _residual(col, u, t, 0.0),
            lambda: _jacobian(col, u, t, 0.0),
        ]
        for path in paths:
            with pytest.raises(GeometryError, match="kernel grid"):
                path()


class TestMean:
    def test_trivial_profile_value(self, col_sphere_m2):
        phi = 1.0
        omega = 0.2
        val = q.mean_m(col_sphere_m2, omega, None, phi)
        r0 = np.sin(phi)
        exact = (r0 ** 2 + np.cos(phi) ** 2) / 6.0 - 0.5 - 0.5 * omega * r0 ** 2
        assert val == pytest.approx(exact, abs=1e-6)

    def test_full_vs_reduced_period(self, col_sphere_m2):
        f = small_perturbation(col_sphere_m2, 0.03)
        phi = float(col_sphere_m2.kctx.nodes[7])
        a = q.mean_m(col_sphere_m2, 0.1, f, phi)
        b = q.mean_m(col_sphere_m2, 0.1, f, phi, full_period=True)
        assert a == pytest.approx(b, abs=1e-12)

    def test_omega_linearity(self, col_sphere_m2):
        f = small_perturbation(col_sphere_m2, 0.03)
        phi = float(col_sphere_m2.kctx.nodes[9])
        m1 = q.mean_m(col_sphere_m2, 0.3, f, phi)
        m0 = q.mean_m(col_sphere_m2, 0.0, f, phi)
        thetas = periodic_trapezoid(64).nodes
        idx = 9
        k = np.arange(1, 5)
        r = np.sin(phi) + np.sum(f.coeffs[:, idx, None] * np.cos(k[:, None] * 2 * thetas[None, :]), axis=0)
        assert m1 - m0 == pytest.approx(-0.15 * np.mean(r ** 2), abs=1e-12)


class TestFtilde:
    def test_trivial_shape_stationary(self, col_sphere_m2):
        for omega in (-1.0, 0.0, 0.2):
            assert np.max(np.abs(q.f_tilde(col_sphere_m2, omega, None))) <= 5e-6

    def test_zero_theta_mean(self, col_sphere_m2):
        f = small_perturbation(col_sphere_m2, 0.05)
        samples = q.f_tilde(col_sphere_m2, 0.1, f)
        assert np.max(np.abs(samples.mean(axis=1))) <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symmetries_random_perturbations(self, col_sphere_m2, seed):
        f = random_perturbation(col_sphere_m2, seed)
        phi_t = float(col_sphere_m2.kctx.nodes[6])
        phi_m = float(col_sphere_m2.kctx.nodes[-7])  # mirror node
        a = f_tilde_circle(col_sphere_m2, 0.1, f, phi_t, 64)
        b = f_tilde_circle(col_sphere_m2, 0.1, f, phi_m, 64)
        # equatorial symmetry
        assert np.max(np.abs(a - b)) <= 1e-10
        # m-fold symmetry: theta -> theta + 2 pi / m is a shift by half
        assert np.max(np.abs(a - np.roll(a, 64 // 2))) <= 1e-12
        # cosine structure: no sine leakage
        spec = np.fft.rfft(a) / len(a)
        assert np.max(np.abs(spec.imag)) <= 1e-10 * (np.max(np.abs(spec)) + 1e-30)

    def test_point_path_matches_grid_path(self, col_sphere_m2):
        # stream_I at each collocation target reproduces f_tilde's samples
        col = col_sphere_m2
        omega = 0.1
        f = random_perturbation(col, 3)
        R = f.radius_at_nodes(col.theta)
        grid = q.f_tilde(col, omega, f)
        for t in range(col.n_phi):
            phi = float(col.kctx.nodes[t])
            bracket = np.array([q.stream_I(col, f, phi, th) for th in col.theta]) - 0.5 * omega * R[t] ** 2
            point = (bracket - bracket.mean()) / col.kctx.r0v[t]
            assert np.max(np.abs(point - grid[t])) <= 1e-13

    def test_linearization_residual_at_bifurcation(self, col_sphere_m2):
        # || Ftilde(Omega_m, eps h* cos m theta) || = O(eps^2) at Omega_m
        bp = q.find_bifurcation_point(col_sphere_m2.kctx, 2)
        resids = []
        for eps in (2e-2, 1e-2):
            coeffs = np.zeros((4, 24))
            coeffs[0] = eps * bp.eigfun
            f = Perturbation(col_sphere_m2, coeffs)
            resids.append(np.max(np.abs(q.f_tilde(col_sphere_m2, bp.omega_m, f))))
        assert resids[0] / resids[1] == pytest.approx(4.0, rel=0.35)


class TestVelocityForm:
    def test_trivial_shape(self, col_sphere_m2):
        assert q.velocity_residual(col_sphere_m2, 0.1, None) <= 1e-6

    def test_perturbed_equivalence(self, col_sphere_m2):
        f = small_perturbation(col_sphere_m2, 0.05)
        assert q.velocity_residual(col_sphere_m2, 0.13, f) <= 1e-5

    def test_omega_term_cancels_exactly(self, col_sphere_m2):
        # the Omega contribution is identical in both forms, so the
        # equivalence defect cannot depend on Omega
        f = small_perturbation(col_sphere_m2, 0.04)
        r0 = q.velocity_residual(col_sphere_m2, 0.0, f)
        r1 = q.velocity_residual(col_sphere_m2, 0.25, f)
        assert abs(r0 - r1) <= 1e-12


class TestAxisVelocity:
    def test_trivial_shape(self, col_sphere_m2):
        assert q.velocity_on_axis(col_sphere_m2, None, [0.0, 0.4]) <= 1e-12

    def test_mfold_vanishing(self, col_sphere_m2):
        f = small_perturbation(col_sphere_m2, 0.05)
        assert q.velocity_on_axis(col_sphere_m2, f, [0.3]) <= 1e-8

    def test_m1_rejected(self, col_sphere_m2):
        # no m = 1 collocation, so no m = 1 perturbation, exists
        with pytest.raises(DomainError, match="m must be >= 2"):
            q.Collocation(col_sphere_m2.kctx, m=1)

    def test_perturbation_of_another_collocation_rejected(self, col_sphere_m2):
        other = q.Collocation(col_sphere_m2.kctx, m=3, n_modes=4, n_theta=8)
        with pytest.raises(DomainError, match="collocation"):
            q.velocity_on_axis(col_sphere_m2, small_perturbation(other, 0.05), [0.0])

    def test_m1_contamination_detected(self, col_sphere_m2):
        # a cos(theta) contamination produces a nonzero axis velocity
        ctx = col_sphere_m2.kctx
        rule = periodic_trapezoid(256)
        eta, weta = rule.nodes, rule.weights
        r = ctx.r0v[:, None] + 0.05 * np.sin(ctx.nodes)[:, None] * np.cos(eta)[None, :]
        dr = -0.05 * np.sin(ctx.nodes)[:, None] * np.sin(eta)[None, :]
        U = _axis_velocity_grid(ctx.sinv, np.cos(ctx.nodes), ctx.weights, eta, weta, r, dr, 0.3)
        assert abs(U) > 1e-4


class TestNewtonAndBranch:
    def test_zero_amplitude_echo(self, col_sphere_m2):
        bp = q.find_bifurcation_point(col_sphere_m2.kctx, 2)
        f0 = Perturbation.zero(col_sphere_m2)
        point, _ = correct_amplitude(col_sphere_m2, 0.0, bp.omega_m, f0, bp.eigfun)
        assert point.iterations == 0
        assert point.omega == bp.omega_m
        assert np.all(point.f.coeffs == 0.0)

    def test_branch_small(self, col_sphere_m2):
        branch = q.continue_branch(col_sphere_m2, 0.012, 4)
        bp = branch.bp
        assert branch.failed_at is None
        assert len(branch.points) == 4
        for pt in branch.points:
            assert pt.residual <= 1e-8
            assert pt.iterations <= 12
            # on a mirrored context E unfolds every f_k mirror-symmetric exactly
            assert np.array_equal(pt.f.coeffs, pt.f.coeffs[:, ::-1])
            rep = pt.f.validate()
            assert rep["endpoint_defect"] <= 1e-5
            assert rep["r_min"] > 0
            assert np.max(np.abs(pt.f.coeffs)) > 0
        omegas = np.array([pt.omega for pt in branch.points])
        assert np.all(np.abs(np.diff(np.abs(omegas - bp.omega_m))) >= 0)

    def test_endpoint_defect_matches_per_row_fits(self, col_sphere_m2):
        # bitwise the largest |quadratic| at the poles over the signed
        # rows, one fit per side and row written out
        col = col_sphere_m2
        f = Perturbation(col, 0.01 * np.random.default_rng(4).standard_normal((col.n_modes, col.kctx.n_nodes)))
        x, end = col.kctx.nodes, 0.0
        for row in f.coeffs:
            c0, cpi = np.polyfit(x[:3], row[:3], 2), np.polyfit(x[-3:], row[-3:], 2)
            end = max(end, abs(np.polyval(c0, 0.0)), abs(np.polyval(cpi, np.pi)))
        assert f.validate()["endpoint_defect"] == float(end) > 0.0

    def test_first_point_linear_prediction(self, col_sphere_m2):
        # || f(s) - s h* cos(m theta) || = O(s^2): the defect drops ~4x
        # when the first step is halved
        defects = []
        for s in (0.008, 0.004):
            branch = q.continue_branch(col_sphere_m2, s, 1)
            pt = branch.points[0]
            lin = np.zeros_like(pt.f.coeffs)
            lin[0] = s * branch.bp.eigfun
            defects.append(np.max(np.abs(pt.f.coeffs - lin)))
        assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.5)

    def test_corrector_failure_truncates(self, col_sphere_m2):
        # an absurd amplitude breaks the geometry at the first predictor
        branch = q.continue_branch(col_sphere_m2, 5.0, 1)
        assert branch.failed_at == 0
        assert branch.points == []
        assert branch.message

    def test_failure_after_a_point_names_the_shape(self, tmp_path, monkeypatch):
        # Newton fails at the second step: the message adds the last accepted
        # point's s and r_min against the profile's max r0, in branch.json too
        correct, cont = nonlinear.newton_correct, nonlinear.continue_branch
        calls, branches = [], []

        def second_step_fails(col, t, sigma, u):
            calls.append(sigma)
            if len(calls) == 2:
                raise SolverError("newton_correct: line search failed (residual 1.000e-03)")
            return correct(col, t, sigma, u)

        def recorded(*args, **kwargs):
            branches.append(cont(*args, **kwargs))
            return branches[-1]

        monkeypatch.setattr(nonlinear, "newton_correct", second_step_fails)
        monkeypatch.setattr(nonlinear, "continue_branch", recorded)
        code = cli.main([
            "branch", "--profile", "sphere", "--phi-nodes", "8", "--de-level", "7", "--modes", "2",
            "--s-max", "0.006", "--steps", "2", "--outdir", str(tmp_path / "out"),
        ])
        assert code == 3
        (branch,) = branches
        assert branch.failed_at == 1 and len(branch.points) == 1
        pt = branch.points[0]
        assert branch.message == (
            "newton_correct: line search failed (residual 1.000e-03); last accepted point s = 0.003"
            f" has r_min {pt.f.validate()['r_min']:.3e} against max r0 {np.max(pt.f.col.kctx.r0v):.3e}"
        )
        payload = json.loads((tmp_path / "out" / "branch.json").read_text())
        assert payload["failed_at"] == 1 and payload["message"] == branch.message

    def test_amplitude_pairing_exact(self, col_sphere_m2):
        branch = q.continue_branch(col_sphere_m2, 0.01, 2)
        bp = branch.bp
        w = col_sphere_m2.kctx.weights
        for pt in branch.points:
            pair = np.sum(pt.f.coeffs[0] * bp.eigfun * w) / np.sum(bp.eigfun ** 2 * w)
            assert pair == pytest.approx(pt.s, abs=2e-8)

    def test_nan_amplitude_raises(self, col_sphere_m2):
        # a NaN residual fails every comparison, so it must not pass for converged
        bp = q.find_bifurcation_point(col_sphere_m2.kctx, 2)
        with pytest.raises(SolverError, match="non-finite"):
            correct_amplitude(col_sphere_m2, float("nan"), bp.omega_m, Perturbation.zero(col_sphere_m2), bp.eigfun)

    def test_omega_row_corrects_to_the_branch_point(self, sphere):
        # any constraint row: fixing Omega at a branch point's value, Newton
        # returns from a perturbed guess to that point's shape
        col = q.Collocation(q.KernelContext(sphere, 8, 7, 3), m=2)
        pt = q.continue_branch(col, 0.03, 3).points[-1]
        t = np.zeros(col.n_modes * col.n_phi + 1)
        t[-1] = 1.0
        u = _pack(1.02 * pt.f.coeffs[:, : col.n_phi], pt.omega)
        point, _ = newton_correct(col, t, pt.omega, u)
        assert point.residual <= nonlinear.NEWTON_TOL
        assert 1 <= point.iterations <= 4
        assert point.omega == pt.omega
        assert point.s == pt.omega
        assert np.max(np.abs(point.f.coeffs - pt.f.coeffs)) <= 1e-7

    def test_newton_correct_rejects_wrong_lengths(self, col_sphere_m2):
        col = col_sphere_m2
        bp = q.find_bifurcation_point(col.kctx, 2)
        t = _amplitude_row(col, bp.eigfun)
        u = _pack(np.zeros((col.n_modes, col.n_phi)), bp.omega_m)
        for bad_t, bad_u in ((t[:-1], u), (t, u[:-1]), (t, np.append(u, 0.0))):
            with pytest.raises(DomainError, match="length"):
                newton_correct(col, bad_t, 0.0, bad_u)

    @pytest.mark.parametrize("profile,m", [("sphere", 2), ("spheroid:2", 3), ("asym", 2)])
    def test_branch_starts_from_its_own_point(self, profile, m):
        # the start (Omega_m, h*_m) depends on the profile, the grid and m
        # alone, all of them the collocation's
        kctx = kernel_context(profile, 8, de_level=6)
        col = q.Collocation(kctx, m=m, n_modes=2, n_theta=4)
        bp, own = q.continue_branch(col, 0.005, 1).bp, q.find_bifurcation_point(kctx, m)
        assert bp.m == own.m == m
        assert bp.omega_m == own.omega_m and bp.lam == own.lam
        assert np.array_equal(bp.eigfun, own.eigfun)

    @pytest.mark.parametrize("s_max", [0.0, float("nan"), float("inf"), float("-inf")])
    def test_degenerate_s_max_rejected(self, col_sphere_m2, s_max):
        with pytest.raises(DomainError, match="s_max"):
            q.continue_branch(col_sphere_m2, s_max, 2)

    def test_asymmetric_profile_solves_every_node(self):
        # no mirror: every node is a phi target.  s -> -s is the shift
        # theta -> theta + pi/m, so Omega is even in s and f_k picks up
        # (-1)^k; an m-fold surface has no velocity on the axis (measured
        # 4.7e-16 in Omega, 3.0e-14 in f_k, axis 5.8e-17)
        col = collocation("asym", 16, 2, de_level=6, n_theta=4)
        assert col.n_phi == col.kctx.n_nodes and np.array_equal(col.E, np.eye(col.n_phi))
        up, down = (q.continue_branch(col, s, 1).points[0] for s in (0.01, -0.01))
        assert abs(up.omega - down.omega) <= 1e-13
        assert np.max(np.abs(down.f.coeffs - [[-1.0], [1.0]] * up.f.coeffs)) <= 2e-13
        for pt in (up, down):
            assert pt.residual <= nonlinear.NEWTON_TOL
            assert q.velocity_on_axis(col, pt.f, [-0.5, 0.0, 0.3]) <= 1e-14

    def test_full_grid_matches_mirrored_solve(self):
        # the sphere forced onto every node solves the same branch, each
        # collocation from its own bifurcation point (measured 4.7e-16 in
        # Omega and 2.5e-14 in f_k)
        mirrored = collocation("sphere", 8, 4)
        kctx = q.KernelContext(mirrored.kctx.profile, 8, 7, 3)
        kctx.mirrored = False
        full = q.Collocation(kctx, m=2)
        assert (mirrored.n_phi, full.n_phi) == (4, 8)
        a, b = (q.continue_branch(col, 0.01, 2).points[-1] for col in (mirrored, full))
        assert abs(a.omega - b.omega) <= 1e-14
        assert np.max(np.abs(a.f.coeffs - b.f.coeffs)) <= 2e-13


def closed_form_reference(rup, c, q, partials=False):
    """The out-of-place expressions that ``_radial_closed_form`` computes
    in place; its outputs must equal these bitwise."""
    d = rup - c
    s1 = np.sqrt(d * d + q)
    t1 = np.abs(d) + s1
    z1 = np.maximum(np.where(d >= 0, t1, q / t1), 1e-300)
    s0 = np.sqrt(c * c + q)
    t0 = np.abs(c) + s0
    z0 = np.maximum(np.where(c <= 0, t0, q / t0), 1e-300)
    log_ratio = np.log(z1 / z0)
    K = s1 - s0 + c * log_ratio
    i1 = 1.0 / s1
    if not partials:
        return K, i1
    i0 = 1.0 / s0
    d_rup = rup * i1
    return K, d_rup, log_ratio - d_rup, 0.5 * ((i1 - i0) + c * (i1 / z1 - i0 / z0))


class TestRadialClosedForm:
    """The in-place radial closed form: bitwise the out-of-place
    expressions, inputs untouched, and a bounded allocation peak."""

    @staticmethod
    def chunk_inputs():
        """One chunk of the benchmark branch, 16 vphi rows x 64 eta nodes x
        16 sides, with c the same in every row, at the full shape, as
        ``_stream`` passes it."""
        rng = np.random.default_rng(3)
        rup = rng.uniform(0.05, 1.5, (16, 64, 16))
        c = rng.uniform(-1.0, 1.0, (1, 64, 16))
        c[0, :8, 8:] = 0.0
        c = np.repeat(c, len(rup), axis=0)
        q = rng.uniform(0.0, 1.0, rup.shape) ** 2
        q[0] = 1e-30  # tiny q: the log arguments q / t of the swapped sides are ~1e-30
        rup[1] = c[0]  # d == 0 exactly
        rup[2, 0, 0] = np.nan  # NaN outputs in the same places
        return rup, c, q

    @pytest.mark.parametrize("partials", [False, True])
    def test_bitwise_out_of_place_expressions(self, partials):
        rup, c, q = self.chunk_inputs()
        d = rup - c
        for region in (d < 0, d >= 0, np.broadcast_to(c <= 0, d.shape), np.broadcast_to(c > 0, d.shape)):
            assert np.count_nonzero(region & (q < 1e-20)) and np.count_nonzero(region & (q > 1e-3))
        saved = [rup.copy(), c.copy(), q.copy()]
        got = _radial_closed_form(rup, c, q, partials=partials)
        ref = closed_form_reference(rup, c, q, partials=partials)
        assert len(got) == len(ref) == (4 if partials else 2)
        for a, b in zip(got, ref):
            assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
        # _stream reads rup again after the call, and c is shared by every chunk
        for before, after in zip(saved, (rup, c, q)):
            assert np.array_equal(before, after, equal_nan=True)

    @pytest.mark.parametrize("partials,bound,parent", [(False, 4.5, 11.0), (True, 6.5, 17.0)])
    def test_allocation_peak(self, partials, bound, parent):
        # tracemalloc peak of one call in chunk sizes: the outputs and the
        # buffers they reuse (4 plain, 6 partials) plus a boolean mask;
        # measured 4.14 and 6.01 (4.64 and 6.51 with c broadcast from one
        # row, through numpy's iterator buffers).  The out-of-place
        # expressions peak at 11.0 and 17.0, which also shows that
        # tracemalloc sees numpy's allocations
        rup, c, q = self.chunk_inputs()
        peaks = []
        for fn in (_radial_closed_form, closed_form_reference):
            fn(rup, c, q, partials=partials)
            tracemalloc.start()
            try:
                fn(rup, c, q, partials=partials)
                peaks.append(tracemalloc.get_traced_memory()[1] / rup.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= bound
        assert peaks[1] >= parent - 0.1


class TestExactJacobian:
    """The analytic Newton Jacobian and the chunked (vphi, eta, side) walk."""

    @staticmethod
    def central_jacobian(col, u, t, step=1e-5):
        J = np.empty((len(u), len(u)))
        for c in range(len(u)):
            up, um = u.copy(), u.copy()
            up[c] += step
            um[c] -= step
            J[:, c] = (_residual(col, up, t, 0.0)[0] - _residual(col, um, t, 0.0)[0]) / (2.0 * step)
        return J

    @pytest.mark.parametrize("profile,n_nodes,n_modes", [("sphere", 8, 4), ("spheroid:0.7", 24, 2), ("asym", 8, 2)])
    def test_matches_central_differences(self, profile, n_nodes, n_modes):
        col = collocation(profile, n_nodes, n_modes)
        bp = q.find_bifurcation_point(col.kctx, 2)
        f = random_perturbation(col, 5)
        u = _pack(f.coeffs[:, : col.n_phi], bp.omega_m + 0.01)
        t = _amplitude_row(col, bp.eigfun)
        J = _jacobian(col, u, t, 0.0)[1]
        ref = self.central_jacobian(col, u, t)
        for c in range(len(u)):
            assert np.max(np.abs(J[:, c] - ref[:, c])) <= 1e-6 * np.max(np.abs(ref[:, c]))

    def test_bifurcation_kernel_and_mode_blocks(self, col_sphere_m2):
        # at f = 0 the linearization is diagonal in the modes, and at
        # Omega_m its k = 1 block annihilates h*_m: exact, not FD, oracles
        col = col_sphere_m2
        bp = q.find_bifurcation_point(col.kctx, 2)
        J = _jacobian(col, _pack(np.zeros((col.n_modes, col.n_phi)), bp.omega_m), _amplitude_row(col, bp.eigfun), 0.0)[1]
        blocks = J[:-1, :-1].reshape(col.n_modes, col.n_phi, col.n_modes, col.n_phi)
        J11 = blocks[0, :, 0, :]
        h = bp.eigfun[: col.n_phi]
        assert np.linalg.norm(J11 @ h) <= 1e-10 * np.linalg.norm(J11, 2) * np.linalg.norm(h)
        for row in range(col.n_modes):
            for column in range(col.n_modes):
                if row != column:
                    assert np.max(np.abs(blocks[row, :, column, :])) <= 1e-12 * np.max(np.abs(J))

    @staticmethod
    def exact_sides(geom, col, values):
        """sum over (vphi, eta) of the weighted values per side, summed
        exactly (math.fsum): a plain whole-tensor einsum sums
        sequentially and is itself off by ~1e-14 relative here."""
        prod = (geom["wsin"][:, None] * col.eta_w[None, :])[:, :, None] * values
        return np.array([math.fsum(prod[:, :, s].ravel()) for s in range(prod.shape[2])])

    @staticmethod
    def use_chunk_rows(col, monkeypatch, rows):
        # the rules have 224 vphi rows here (9 per default chunk): 12 rows
        # leave a remainder chunk of 8, and 150 one of 74 that carries real
        # weight (the last rows of a rule sit near vphi = pi, where
        # sin(vphi) and the weights vanish)
        monkeypatch.setattr(nonlinear, "_CHUNK_ELEMS", rows * len(col.eta_nodes) * 2 * col.n_theta)
        for phi in col.kctx.nodes[: col.n_phi]:
            assert len(col.geometry(phi)["wsin"]) % rows != 0

    @pytest.mark.parametrize("rows", [12, 150])
    def test_chunked_stream_matches_whole_tensor(self, col_sphere_m2, monkeypatch, rows):
        col = col_sphere_m2
        self.use_chunk_rows(col, monkeypatch, rows)
        f = random_perturbation(col, 7)
        phis = col.kctx.nodes[: col.n_phi]
        R = _radii(col, f, phis, col.theta)
        cos_tab = _angle_tables(col, col.theta)[0]
        ref = np.empty(R.shape)
        for i, phi in enumerate(phis):
            geom = col.geometry(phi)
            rho = np.repeat(R[i], 2)
            c = rho[None, :] * np.cos(col.eta_nodes)[:, None]
            qq = (rho[None, :] * np.sin(col.eta_nodes)[:, None]) ** 2 + geom["dcos"][:, None, None] ** 2
            rup = geom["r0q"][:, None, None] + np.einsum("kp,kes->pes", f.coeffs @ geom["P"].T, cos_tab)
            acc = self.exact_sides(geom, col, _radial_closed_form(rup, c[None], qq)[0])
            ref[i] = -(acc[0::2] + acc[1::2]) / (4.0 * np.pi)
        assert np.max(np.abs(_stream(col, f, phis, col.theta, R)[0] - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("rows", [12, 150])
    def test_chunked_velocity_matches_whole_tensor(self, col_sphere_m2, monkeypatch, rows):
        col = col_sphere_m2
        self.use_chunk_rows(col, monkeypatch, rows)
        f = random_perturbation(col, 8)
        phis = col.kctx.nodes[: col.n_phi]
        R = f.radius_at_nodes(col.theta)[: col.n_phi]
        # sides s = 2 j + bit at the angles theta_j + eta (bit 0), theta_j - eta (bit 1)
        angle = np.stack([col.theta[:, None] + col.eta_nodes, col.theta[:, None] - col.eta_nodes], axis=1)
        angle = angle.reshape(2 * col.n_theta, len(col.eta_nodes)).T
        km = np.arange(1, col.n_modes + 1)[:, None, None] * col.m
        cos_tab, km_sin, exp_eta = np.cos(km * angle), km * np.sin(km * angle), np.exp(1j * angle)
        ref = np.empty(R.shape, dtype=complex)
        for t in range(col.n_phi):
            geom = col.geometry(phis[t])
            Fk = f.coeffs @ geom["P"].T
            rho = np.repeat(R[t], 2)
            r = geom["r0q"][:, None, None] + np.einsum("kp,kes->pes", Fk, cos_tab)
            dr = -np.einsum("kp,kes->pes", Fk, km_sin)
            d2 = (r - rho * np.cos(col.eta_nodes)[:, None]) ** 2 + (rho * np.sin(col.eta_nodes)[:, None]) ** 2 \
                + geom["dcos"][:, None, None] ** 2
            integrand = (dr + 1j * r) * exp_eta / np.sqrt(d2)
            acc = self.exact_sides(geom, col, integrand.real) + 1j * self.exact_sides(geom, col, integrand.imag)
            ref[t] = (acc[0::2] + acc[1::2]) / (4.0 * np.pi)
        assert np.max(np.abs(_stream(col, f, phis, col.theta, R)[1] - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestOneStreamPass:
    """Newton takes its residual from the Jacobian's stream pass, and the
    velocity check from the plain pass of the accepted iterate."""

    @staticmethod
    def count_streams(monkeypatch):
        """Record the ``partials`` flag of every ``_stream`` call."""
        calls = []
        stream = nonlinear._stream

        def counted(*args, partials=False, **kwargs):
            calls.append(partials)
            return stream(*args, partials=partials, **kwargs)

        monkeypatch.setattr(nonlinear, "_stream", counted)
        return calls

    @staticmethod
    def tangent_point(col, s):
        bp = q.find_bifurcation_point(col.kctx, 2)
        coeffs = np.zeros((col.n_modes, col.kctx.n_nodes))
        coeffs[0] = s * bp.eigfun
        return bp, Perturbation(col, coeffs)

    @pytest.mark.parametrize("profile,n_nodes,n_modes", [("sphere", 8, 4), ("spheroid:0.7", 24, 2)])
    def test_jacobian_residual_is_bitwise_residual(self, profile, n_nodes, n_modes):
        col = collocation(profile, n_nodes, n_modes)
        bp = q.find_bifurcation_point(col.kctx, 2)
        f = random_perturbation(col, 5)
        u = _pack(f.coeffs[:, : col.n_phi], bp.omega_m + 0.01)
        t = _amplitude_row(col, bp.eigfun)
        res, _ = _jacobian(col, u, t, 0.003)
        assert np.array_equal(res, _residual(col, u, t, 0.003)[0])

    @pytest.mark.parametrize("profile,n_nodes,n_modes", [("sphere", 8, 4), ("spheroid:0.7", 24, 2)])
    def test_amplitude_is_one_constraint_row(self, profile, n_nodes, n_modes):
        col = collocation(profile, n_nodes, n_modes)
        bp = q.find_bifurcation_point(col.kctx, 2)
        f = random_perturbation(col, 5)
        u = _pack(f.coeffs[:, : col.n_phi], bp.omega_m + 0.01)
        t = _amplitude_row(col, bp.eigfun)
        res, J = _jacobian(col, u, t, 0.003)
        assert np.array_equal(J[-1], t)
        assert res[-1] == t @ u - 0.003
        w = col.kctx.weights
        pair = np.sum(f.coeffs[0] * bp.eigfun * w) / np.sum(bp.eigfun ** 2 * w)
        assert abs(t @ u - pair) <= 1e-15 * abs(pair)
        assert np.array_equal(res, _residual(col, u, t, 0.003)[0])

    @pytest.mark.parametrize("profile,n_nodes,n_modes", [("sphere", 8, 4), ("spheroid:0.7", 24, 2)])
    def test_velocity_residual_reuses_bracket_bitwise(self, profile, n_nodes, n_modes):
        # the point's check comes from the accepted line-search pass, or
        # from one plain pass when Newton needs no iteration (s = 0)
        col = collocation(profile, n_nodes, n_modes)
        for s, converged_at_start in ((0.003, False), (0.0, True)):
            bp, f0 = self.tangent_point(col, s)
            pt, _ = correct_amplitude(col, s, bp.omega_m, f0, bp.eigfun)
            assert (pt.iterations == 0) == converged_at_start
            assert pt.velocity_residual == q.velocity_residual(col, pt.omega, pt.f)
            assert pt.velocity_residual <= 1e-5

    def test_jacobian_geometry_guard(self, col_sphere_m2):
        # r = sin(phi) (1 - 2 cos(2 theta)) is negative near theta = 0
        col = col_sphere_m2
        bp = q.find_bifurcation_point(col.kctx, 2)
        coeffs = np.zeros((col.n_modes, col.n_phi))
        coeffs[0] = -2.0 * np.sin(col.kctx.nodes[: col.n_phi])
        with pytest.raises(GeometryError):
            _jacobian(col, _pack(coeffs, 0.1), _amplitude_row(col, bp.eigfun), 0.0)

    def test_one_iteration_one_pass_each(self, monkeypatch):
        col = collocation("sphere", 8, 4)
        bp, f0 = self.tangent_point(col, 0.003)
        calls = self.count_streams(monkeypatch)
        pt, _ = correct_amplitude(col, 0.003, bp.omega_m, f0, bp.eigfun)
        assert pt.iterations == 1
        assert sorted(calls) == [False, True]

    def test_zero_iterations_return_initial_jacobian(self, col_sphere_m2):
        col = col_sphere_m2
        bp = q.find_bifurcation_point(col.kctx, 2)
        u = _pack(np.zeros((col.n_modes, col.n_phi)), bp.omega_m)
        t = _amplitude_row(col, bp.eigfun)
        point, jac = newton_correct(col, t, 0.0, u)
        assert point.iterations == 0
        assert np.array_equal(jac, _jacobian(col, u, t, 0.0)[1])

    def test_standalone_velocity_residual_is_one_plain_pass(self, col_sphere_m2, monkeypatch):
        f = small_perturbation(col_sphere_m2, 0.02)
        calls = self.count_streams(monkeypatch)
        assert q.velocity_residual(col_sphere_m2, 0.13, f) <= 1e-5
        assert calls == [False]

    def test_cli_velocity_check_makes_no_stream_pass(self, tmp_path, monkeypatch):
        calls = self.count_streams(monkeypatch)
        code = cli.main([
            "branch", "--profile", "sphere", "--phi-nodes", "8", "--de-level", "7", "--modes", "2",
            "--s-max", "0.006", "--steps", "2", "--outdir", str(tmp_path / "out"),
        ])
        assert code == 0
        points = json.loads((tmp_path / "out" / "branch.json").read_text())["points"]
        assert len(points) == 2
        assert all(pt["velocity_form_residual"] <= 1e-5 for pt in points)
        iterations = sum(pt["iterations"] for pt in points)
        assert iterations >= 2
        # per iteration: the Jacobian's partials pass, then the accepted plain trial
        assert calls == [True, False] * iterations


class TestEllipsoidOracle:
    def test_criterion_12_branch_is_the_rotating_ellipsoid(self, sphere):
        # the m = 2 branch of the sphere is the family of rotating
        # ellipsoids, up to NEWTON_TOL and the mode truncation (measured
        # 1.9e-9 in Omega and 3.6e-8 in f_k)
        kctx = q.KernelContext(sphere, 24, 7, 3)
        col = q.Collocation(kctx, m=2, n_modes=4, n_theta=8)
        branch = q.continue_branch(col, 0.03, 10)
        assert branch.failed_at is None and len(branch.points) == 10
        for pt in branch.points:
            omega, c = rotating_ellipsoid(pt.s, kctx.nodes, branch.bp.eigfun, kctx.weights, 1.0, col.n_modes)
            assert abs(pt.omega - omega) <= 4e-9
            assert np.max(np.abs(pt.f.coeffs - c[:, None] * np.sin(kctx.nodes))) <= 8e-8

    @staticmethod
    def oracle_errors(monkeypatch, profile, a0, n_modes, n_theta):
        """(Omega error, shape error) against the ellipsoid of one step to
        s = 0.03, with Newton driven to round-off."""
        monkeypatch.setattr(nonlinear, "NEWTON_TOL", 1e-13)
        kctx = q.KernelContext(profile, 24, 7, 3)
        return ellipsoid_errors(kctx, first_point(kctx, 0.03, n_modes, n_theta), a0)

    def test_converges_in_n_modes(self, sphere, monkeypatch):
        # past Newton's tolerance the error is the mode truncation (measured
        # 1.2e-10 and 3.5e-8 with 4 modes, 3.5e-15 and 1.0e-10 with 6)
        om4, shape4 = self.oracle_errors(monkeypatch, sphere, 1.0, 4, 8)
        om6, shape6 = self.oracle_errors(monkeypatch, sphere, 1.0, 6, 12)
        assert om6 <= 2e-14 and shape6 <= 5e-10
        assert om6 <= 1e-2 * om4 and shape6 <= 1e-2 * shape4

    @pytest.mark.parametrize("a,omega_tol,shape_tol", [(2.0, 1e-14, 5e-13), (0.7, 5e-11, 5e-8)])
    def test_spheroid_bases(self, monkeypatch, a, omega_tol, shape_tol):
        # the base r0 = a sin(phi) gives the ellipsoids of mean g = a
        # (measured 1.7e-15 and 9.6e-14 at a = 2, 9.9e-12 and 1.5e-8 at 0.7)
        om, shape = self.oracle_errors(monkeypatch, q.make_profile("spheroid", a=a), a, 6, 12)
        assert om <= omega_tol and shape <= shape_tol


class TestQuadratureLevels:
    """The measured size table behind ``Collocation``'s default node
    counts of the stream quadrature, n_vphi = 32 Gauss points on each
    side of the target and n_eta = 64 (Newton driven to 1e-13).

    Each row solves one branch point at the default sizes and gates it
    on a bound that the default must pass.  The next smaller size in
    each direction, n_vphi = 24 or n_eta = 48 (``SMALLER``), must fail
    the same bound on the rows that ``FAILS`` names for it, and each
    fails at least one row, so the default is the smallest size the
    table supports.  The error is against the rotating ellipsoid on
    spheroid bases and against the solve at doubled counts (64, 128) on
    the analytic profiles of ``oracles``, never the velocity-form
    residual.  Each bound is 2 to 7 times the measured default error (the
    Omega errors of 2e-15 to 5e-15 are round-off); the measured |dOmega|
    / shape errors are quoted per row as default; n_vphi 24; n_eta 48.  At s = 0.2 the ellipsoid rows are
    left out: the sphere reads its mode truncation at every size (4.4e-4
    in shape), and spheroid:0.5 fails the line search before s = 0.1
    (its h* peaks at 4.0 against max r0 = 0.5, so the shape pinches).
    """

    SMALLER = {"vphi": {"n_vphi": 24}, "eta": {"n_eta": 48}}
    FAILS = {
        "sphere": ("eta",),
        "spheroid:2": ("vphi", "eta"),
        "bump-0.03": ("vphi", "eta"),
        "bump-0.2": ("vphi", "eta"),
        "asym-0.03": ("vphi", "eta"),
    }

    @staticmethod
    def gate(errors, omega_tol, shape_tol):
        return errors[0] <= omega_tol and errors[1] <= shape_tol

    def check_row(self, row, errors_at, omega_tol, shape_tol):
        """errors_at(sizes) is the (Omega, shape) error of the point
        solved with the collocation sizes ``sizes``."""
        assert self.gate(errors_at({}), omega_tol, shape_tol)
        for direction in self.FAILS[row]:
            assert not self.gate(errors_at(self.SMALLER[direction]), omega_tol, shape_tol)

    def test_each_smaller_size_fails_a_row(self):
        assert set().union(*self.FAILS.values()) == set(self.SMALLER)

    @pytest.mark.parametrize(
        "profile,a0,omega_tol,shape_tol",
        [
            # 5.2e-15 / 1.01e-10; 1.9e-15 / 1.01e-10; 8.1e-14 / 1.01e-10
            ("sphere", 1.0, 1e-14, 3e-10),
            # 3.2e-15 / 1.8e-13; 3.2e-13 / 9.3e-11; 1.1e-12 / 9.1e-13
            ("spheroid:2", 2.0, 2e-14, 5e-13),
        ],
    )
    def test_ellipsoid_rows(self, monkeypatch, profile, a0, omega_tol, shape_tol):
        monkeypatch.setattr(nonlinear, "NEWTON_TOL", 1e-13)
        kctx = kernel_context(profile, 24)
        self.check_row(
            profile, lambda sizes: ellipsoid_errors(kctx, first_point(kctx, 0.03, 6, 12, **sizes), a0), omega_tol, shape_tol
        )

    def test_flat_spheroid_is_level_independent(self, monkeypatch):
        # spheroid:0.5 reads 2.8e-8 / 1.8e-6 against the ellipsoid at the
        # default, at doubled counts and at either smaller size: N and the
        # mode count set the error, so this row checks only that the
        # default and doubled counts agree (measured 2.6e-15 / 8.3e-14)
        monkeypatch.setattr(nonlinear, "NEWTON_TOL", 1e-13)
        kctx = kernel_context("spheroid:0.5", 24)
        pt, fine = (first_point(kctx, 0.03, 6, 12, **sizes) for sizes in ({}, DOUBLED))
        assert abs(pt.omega - fine.omega) <= 5e-15
        assert np.max(np.abs(pt.f.coeffs - fine.f.coeffs)) <= 2e-13

    @pytest.mark.parametrize(
        "profile,s,n_nodes,n_modes,omega_tol,shape_tol",
        [
            # 1.8e-15 / 1.1e-13; 1.9e-12 / 7.7e-11; 2.0e-13 / 2.3e-13
            pytest.param(bump_profile, 0.03, 24, 6, 1e-14, 6e-13, id="bump-0.03"),
            # 1.0e-14 / 1.4e-12; 1.4e-11 / 8.6e-10; 7.6e-13 / 2.0e-11
            pytest.param(bump_profile, 0.2, 16, 4, 5e-14, 7e-12, id="bump-0.2"),
            # every node solved; 3.3e-15 / 1.5e-13; 2.8e-15 / 1.5e-12; 3.3e-14 / 2.0e-13
            pytest.param(asym_profile, 0.03, 16, 4, 2e-14, 3e-13, id="asym-0.03"),
        ],
    )
    def test_self_convergence_rows(self, request, monkeypatch, profile, s, n_nodes, n_modes, omega_tol, shape_tol):
        monkeypatch.setattr(nonlinear, "NEWTON_TOL", 1e-13)
        kctx = q.KernelContext(profile(), n_nodes, 7, 3)
        ref = first_point(kctx, s, n_modes, 2 * n_modes, **DOUBLED)

        def errors_at(sizes):
            pt = first_point(kctx, s, n_modes, 2 * n_modes, **sizes)
            return abs(pt.omega - ref.omega), np.max(np.abs(pt.f.coeffs - ref.f.coeffs))

        self.check_row(request.node.callspec.id, errors_at, omega_tol, shape_tol)
