"""Acceptance suite: the twelve release criteria, each with its pinned
tolerance (and runtime bound where one is stated).  One PASS line prints
per criterion; any assertion failure marks the criterion red."""

import time

import numpy as np
import pytest

import qg3d as q
from oracles import euler_integral_2f1, ring_integral_quadrature
from qg3d.linop import cross_validate, gateaux_check
from qg3d.nonlinear import Perturbation, f_tilde_circle


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


@pytest.fixture(scope="module")
def ctx96(sphere):
    return q.KernelContext(sphere, 96, 9, 3)


@pytest.fixture(scope="module")
def ctx192(sphere):
    return q.KernelContext(sphere, 192, 10, 4)


def test_criterion_01_hypergeometric_closed_form():
    t0 = time.perf_counter()
    assert abs(q.gauss_2f1(0.5, 0.5, 2.0, 1.0) - 4.0 / np.pi) <= 1e-10
    worst = 0.0
    count = 0
    for a in (0.5, 0.9, 1.4, 2.2, 3.1):
        for b in (0.6, 1.1, 1.9, 2.7):
            for extra in (0.7, 1.8):
                c = b + extra
                for x in (0.0, 0.3, 0.6, 0.85, 0.95):
                    ref = euler_integral_2f1(a, b, c, x)
                    worst = max(worst, abs(q.gauss_2f1(a, b, c, x) - ref) / max(abs(ref), 1e-300))
                    count += 1
    elapsed = time.perf_counter() - t0
    assert count == 200
    assert worst <= 1e-9
    assert elapsed < 1.0
    _report(1, f"2F1(1/2,1/2;2;1) = 4/pi to 1e-10; series-vs-Euler {worst:.2e} over {count} points ({elapsed:.2f} s)")


def test_criterion_02_ring_integral_identity():
    t0 = time.perf_counter()
    worst = 0.0
    triples = [(n, beta, A) for n in (0, 1, 2, 4, 6) for beta in (1.0, 2.0, 3.0) for A in (1.2, 5.0)]
    assert len(triples) == 30
    for n, beta, A in triples:
        ref = ring_integral_quadrature(n, beta, A)
        worst = max(worst, abs(q.ring_integral(n, beta, A) - ref) / max(abs(ref), 1e-300))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 5.0
    _report(2, f"ring-integral vs adaptive quadrature {worst:.2e} over 30 triples ({elapsed:.2f} s)")


def test_criterion_03_sphere_interior_potential(sphere):
    t0 = time.perf_counter()
    ctx = q.KernelContext(sphere, 96, 9, 3)
    dev = float(np.max(np.abs(ctx.nu0 - 1.0 / 3.0)))
    kdev = abs(ctx.kappa - 1.0 / 3.0)
    elapsed = time.perf_counter() - t0
    assert dev <= 1e-6
    assert kdev <= 1e-5
    assert elapsed < 10.0
    _report(3, f"sphere stream coefficient 1/3 to {dev:.2e}, kappa to {kdev:.2e} ({elapsed:.2f} s)")


def test_criterion_04_ellipsoid_constants(ctx_spheroid2):
    al1 = q.ellipsoid_alphas(1.0)
    assert abs(al1.alpha1 - 1.0 / 6.0) <= 1e-10
    assert abs(al1.alpha2 - 1.0 / 6.0) <= 1e-10
    al2 = q.ellipsoid_alphas(2.0)
    nu = q.nu_omega(ctx_spheroid2, 0.0).values
    constancy = float(np.max(nu) - np.min(nu))
    kdev = abs(q.kappa(ctx_spheroid2) - 2 * al2.alpha1)
    assert constancy <= 1e-6
    assert kdev <= 1e-5
    _report(4, f"alpha(1)=1/6 exact; spheroid(2) nu constancy {constancy:.2e}, kappa-2alpha1 {kdev:.2e}")


def test_criterion_05_spectral_monotonicity(sphere):
    n_list = list(range(1, 9))
    omegas = [-2.0, -1.0, -0.5, 0.0, 0.15, 0.25]
    t0 = time.perf_counter()
    ctx = q.KernelContext(sphere, 96, 9, 3)
    curve = q.dispersion_scan(ctx, n_list, omegas)
    elapsed = time.perf_counter() - t0
    assert curve.anomalies == []
    lam = {(r[0], r[1]): r[2] for r in curve.rows}
    # discretization estimate from N-vs-2N probes at the tightest corner
    ctx2 = q.KernelContext(sphere, 192, 10, 3)
    probes = [(8, 0.25), (7, 0.25), (8, 0.0)]
    est = max(
        abs(lam[p] - q.largest_eigenvalue(q.assemble_kernel_matrix(ctx2, p[0], p[1])).lam) for p in probes
    )
    margin_n = min(lam[(n, om)] - lam[(n + 1, om)] for n in n_list[:-1] for om in omegas)
    margin_o = min(lam[(n, o2)] - lam[(n, o1)] for n in n_list for o1, o2 in zip(omegas[:-1], omegas[1:]))
    assert margin_n > est
    assert margin_o > est
    assert elapsed < 60.0
    _report(5, f"lambda monotone in n and Omega; margins ({margin_n:.2e}, {margin_o:.2e}) > drift {est:.2e} ({elapsed:.1f} s)")


def test_criterion_06_bifurcation_points(ctx96, ctx192):
    oms = {}
    for m in range(2, 7):
        oms[m] = q.find_bifurcation_point(ctx96, m).omega_m
    vals = [oms[m] for m in range(2, 7)]
    assert all(0.0 < om < 1.0 / 3.0 for om in vals)
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
    gaps = [q.kappa(ctx96) - om for om in vals]
    assert all(b < a for a, b in zip(gaps[:-1], gaps[1:]))
    worst_cross = 0.0
    for m in range(2, 7):
        Ks = q.assemble_kernel_matrix(ctx96, m, 0.0, strip_nu=True)
        beta, _ = q.refine_eigenvalue(Ks, q.largest_eigenvalue(Ks))
        worst_cross = max(worst_cross, abs(oms[m] - (1.0 / 3.0 - beta)))
    assert worst_cross <= 1e-6
    worst_drift = 0.0
    for m in range(2, 7):
        om_fine = q.find_bifurcation_point(ctx192, m).omega_m
        worst_drift = max(worst_drift, abs(om_fine - oms[m]))
    assert worst_drift <= 1e-6
    _report(6, f"Omega_2..6 ordered in (0, 1/3); nu-stripped crosscheck {worst_cross:.2e}; N96-vs-N192 drift {worst_drift:.2e}")


def test_criterion_07_representation_equivalence(ctx96, ctx_spheroid2, sphere, spheroid2):
    worst = 0.0
    for ctx in (ctx96, ctx_spheroid2):
        h = np.sin(ctx.nodes) ** 2
        for n in (2, 3):
            worst = max(worst, cross_validate(ctx, n, 0.0, h))
    assert worst <= 1e-5
    ratios = []
    for prof in (sphere, spheroid2):
        base = q.KernelContext(prof, 96, 9, 3)
        fine = base.refined()
        d0 = cross_validate(base, 2, 0.0, np.sin(base.nodes) ** 2)
        d1 = cross_validate(fine, 2, 0.0, np.sin(fine.nodes) ** 2)
        ratios.append(d1 / d0)
    assert all(r <= 0.5 for r in ratios)
    _report(7, f"hyper/direct discrepancy {worst:.2e} at defaults; doubling ratios {[f'{r:.2e}' for r in ratios]}")


def test_criterion_08_boundary_dichotomy(ctx96, ctx192):
    shrink = {}
    for n in (2, 3):
        vals = []
        for ctx in (ctx96, ctx192):
            res = q.largest_eigenvalue(q.assemble_kernel_matrix(ctx, n, 0.0))
            rep = q.eigenfunction_boundary_report(ctx, res.eigvec)
            vals.append(max(rep.value_0, rep.value_pi))
        assert vals[1] * 1.4 <= vals[0]
        shrink[n] = vals[0] / vals[1]
    for ctx in (ctx96, ctx192):
        res = q.largest_eigenvalue(q.assemble_kernel_matrix(ctx, 1, 0.0))
        rep = q.eigenfunction_boundary_report(ctx, res.eigvec)
        assert min(rep.value_0, rep.value_pi) >= 0.1 * rep.interior_max
    _report(8, f"n>=2 boundary values shrink {shrink[2]:.1f}x/{shrink[3]:.1f}x per doubling; n=1 stays above 0.1 interior max")


def test_criterion_09_power_vs_jacobi(sphere):
    # the sphere's exact top pair of mode n: 1/((2n+1)(1/3 - Omega)) and sin^(n-1)(phi)
    ctx = q.KernelContext(sphere, 32, 8, 3)
    pairs = [(n, om) for n in (1, 2, 3, 4) for om in (-1.0, 0.0, 0.15)]
    assert len(pairs) == 12
    worst_val = worst_vec = 0.0
    for n, om in pairs:
        K = q.assemble_kernel_matrix(ctx, n, om)
        res = q.largest_eigenvalue(K)
        worst_val = max(worst_val, abs(res.lam - 1.0 / ((2 * n + 1) * (1.0 / 3.0 - om))))
        h = np.sin(ctx.nodes) ** (n - 1)
        h /= np.sqrt(np.sum(h ** 2 * K.mu_w))
        worst_vec = max(worst_vec, float(np.max(np.abs(h - res.eigvec))))
    assert worst_val <= 1e-9
    assert worst_vec <= 1e-7
    _report(9, f"dense eigensolve vs the sphere's exact pair over 12 pairs: value {worst_val:.2e}, vector {worst_vec:.2e}")


def test_criterion_10_stationarity_and_symmetry(col_sphere_m2):
    worst0 = 0.0
    for omega in (-1.0, 0.0, 0.2):
        worst0 = max(worst0, float(np.max(np.abs(q.f_tilde(col_sphere_m2, omega, None)))))
    assert worst0 <= 5e-6
    # the exact mean subtraction makes the trivial residual collapse; the
    # quadrature itself is held to the same bar by the analytic potential
    dev = abs(q.stream_I(col_sphere_m2, None, 1.0, 0.0) + 1.0 / 3.0)
    assert dev <= 1e-6
    rng = np.random.default_rng(42)
    worst_sym = 0.0
    kctx = col_sphere_m2.kctx
    for _ in range(3):
        coeffs = np.zeros((4, kctx.n_nodes))
        for k in range(4):
            c = rng.standard_normal(3)
            base = c[0] * np.sin(kctx.nodes) + c[1] * np.sin(kctx.nodes) ** 2 + c[2] * np.sin(kctx.nodes) ** 3
            coeffs[k] = 0.01 * base / max(1.0, np.max(np.abs(base)))
        f = Perturbation(col_sphere_m2, coeffs)
        a = f_tilde_circle(col_sphere_m2, 0.1, f, float(kctx.nodes[6]), 64)
        b = f_tilde_circle(col_sphere_m2, 0.1, f, float(kctx.nodes[-7]), 64)
        worst_sym = max(worst_sym, float(np.max(np.abs(a - b))))              # equatorial
        worst_sym = max(worst_sym, float(np.max(np.abs(a - np.roll(a, 32))))) # m-fold
        spec = np.fft.rfft(a) / len(a)
        worst_sym = max(worst_sym, float(np.max(np.abs(spec.imag))))          # sine leakage
    assert worst_sym <= 1e-10
    _report(10, f"max|Ftilde(Omega,0)| = {worst0:.2e}; potential identity {dev:.2e}; symmetry defects {worst_sym:.2e}")


def test_criterion_11_gateaux_ratios(sphere):
    kctx = q.KernelContext(sphere, 24, 7, 3)
    col = q.Collocation(kctx, m=2, n_vphi=224, n_eta=224)
    bp = q.find_bifurcation_point(kctx, 2)
    errs = gateaux_check(col, bp.omega_m, bp.eigfun, [1e-2, 5e-3, 2.5e-3])
    ratios = errs[:-1] / errs[1:]
    assert np.all(ratios >= 1.7) and np.all(ratios <= 2.3)
    _report(11, f"Gateaux halving ratios {np.round(ratios, 3)} within [1.7, 2.3]")


def test_criterion_12_branch_continuation(sphere, ctx96):
    t0 = time.perf_counter()
    kctx = q.KernelContext(sphere, 24, 7, 3)
    col = q.Collocation(kctx, m=2)
    branch = q.continue_branch(col, 0.03, 10)
    bp = branch.bp
    assert branch.failed_at is None and len(branch.points) == 10
    worst_axis = worst_vres = 0.0
    for pt in branch.points:
        assert pt.residual <= 1e-8
        assert pt.iterations <= 12
        worst_axis = max(worst_axis, q.velocity_on_axis(col, pt.f, [-0.5, 0.0, 0.3]))
        worst_vres = max(worst_vres, q.velocity_residual(col, pt.omega, pt.f))
    assert worst_axis <= 1e-8
    assert worst_vres <= 1e-5
    # |Omega(s) - Omega_2| -> 0 linearly: monotone in s, linear bound at s_1
    gaps = np.array([abs(pt.omega - bp.omega_m) for pt in branch.points])
    assert np.all(np.diff(gaps) >= -1e-9)
    assert gaps[0] <= 0.1 * branch.points[0].s
    # the branch grid's own bifurcation point stays coupled to the
    # production-grid value
    bp96 = q.find_bifurcation_point(ctx96, 2)
    assert abs(bp.omega_m - bp96.omega_m) <= 2e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(
        12,
        f"10 branch points to s=0.03: residuals <= 1e-8, axis {worst_axis:.1e}, "
        f"velocity-form {worst_vres:.1e}, |Omega(s)-Omega_2| monotone ({elapsed:.0f} s)",
    )
