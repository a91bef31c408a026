"""Kernels H_n, the coefficient function nu, kappa, and Nystrom assembly."""

import math
import os
import select
import signal
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import special as sps

import qg3d as q
from qg3d.errors import DomainError
from qg3d import kernel
from qg3d.kernel import _LAGRANGE_CHUNK, _POLE_CUT, _ROW_BLOCK, _chordal, _cn, _hn_values, row_apply
from qg3d.quadrature import barycentric_terms, interp_matrix, node_hits, split_de
from qg3d.specfun import f_n_many


@pytest.fixture(scope="module")
def bumped_ctx():
    """A symmetric non-ellipsoidal profile (nu genuinely varies)."""
    return q.KernelContext(_profile("bumped"), 48, 8, 3)


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
        with pytest.raises(DomainError, match=r"x = 1"):
            q.h_n(sphere, 1, 1.0, 1.0)
        with pytest.raises(DomainError, match=r"x = 1"):
            q.h_n(sphere, 2, np.array([0.5, 1.0]), 1.0)

    def test_coincident_poles_raise(self, sphere):
        # r0(0) = 0, so R = 0 at (0, 0) (at pi, sin(pi) leaves R = 6e-32 and x = 1)
        with pytest.raises(DomainError, match=r"R = 0"):
            q.h_n(sphere, 1, 0.0, 0.0)
        with pytest.raises(DomainError, match=r"R = 0"):
            q.h_n(sphere, 3, np.array([1.0, 0.0]), 0.0)

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
    def test_offdiagonal_positive(self, ctx_sphere):
        x = ctx_sphere.nodes
        H = _hn_values(ctx_sphere.profile, 2, x[:, None], x[None, :])
        assert np.min(H[~np.eye(len(x), dtype=bool)]) > 0

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
    row_rule and one H_n evaluation per target (unchecked like the kernel,
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

    def test_hits_in_one_chunk_accumulate(self, ctx):
        # three row nodes on one grid node, in one chunk, each with a weight
        # of its own: B gets their sum, as the Lagrange rows of
        # interp_matrix give it (a plain fancy += would keep one of them)
        fresh = self._fresh(ctx)
        j = ctx.n_nodes - 3    # a node no walked row targets
        rule = fresh.row_rule

        def with_hits(pt):
            t, w = rule(pt)
            return np.insert(t, 10, np.full(3, ctx.nodes[j])), np.insert(w, 10, [0.1, 0.2, 0.3])

        fresh.row_rule = with_hits
        B = fresh.mode_b_matrix(2)
        for i, pt in enumerate(ctx.nodes[:_walked(ctx)]):
            t, w = with_hits(pt)
            _, near = node_hits(ctx.nodes, t[:_LAGRANGE_CHUNK])
            assert np.count_nonzero(near == j) == 3
            ref = (w * _hn_values(ctx.profile, 2, pt, t)) @ interp_matrix(ctx.nodes, ctx.bary, t)
            assert np.max(np.abs(B[i] - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_cached_b_is_read_only(self, ctx, monkeypatch):
        # every solve shares the cached B_n: a serial walk caches it read-only
        monkeypatch.setattr(kernel, "_may_fork", lambda rows: False)
        fresh = self._fresh(ctx)
        for B in [fresh.mode_b_matrix(2), *fresh.mode_b_matrices([1, 3])]:
            with pytest.raises(ValueError, match="read-only"):
                B[0, 0] = 0.0
        with pytest.raises(ValueError):
            fresh.mode_b_matrix(2).flags.writeable = True

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

    def test_b1_joins_the_first_walk(self, ctx, monkeypatch):
        # nu0's B_1 comes with any walk until it is cached, and a mode's rows
        # do not depend on the other modes of its walk
        monkeypatch.setattr(kernel, "_may_fork", lambda rows: False)
        fresh, walks = self._fresh(ctx), []
        walk = fresh._walk_rows
        fresh._walk_rows = lambda ns, *args: walks.append(list(ns)) or walk(ns, *args)
        B3 = fresh.mode_b_matrices([3])[0]
        assert walks == [[1, 3]]
        assert fresh.kappa > 0 and fresh.mode_b_matrices([3, 1])[0] is B3
        assert walks == [[1, 3]]
        fresh.mode_b_matrices([2])
        assert walks == [[1, 3], [2]]
        rows = _walked(ctx)
        alone = np.zeros((1, ctx.n_nodes, ctx.n_nodes))
        walk([3], 0, rows, alone)
        assert np.array_equal(B3[:rows], alone[0, :rows])

    def test_all_mode_walk_rejects_bad_mode(self, ctx):
        with pytest.raises(DomainError):
            ctx.mode_b_matrices([2, 0])

    def test_kappa(self, ctx):
        rows = [np.sum(self._row(ctx, 1, pt)[1]) for pt in np.concatenate([ctx.nodes, _kappa_midpoints(ctx)])]
        assert q.kappa(ctx) == pytest.approx(min(rows), rel=1e-14)

    def test_kappa_two_rows(self, ctx, monkeypatch):
        # once B_1 exists, kappa costs the split rules of its two midpoint rows
        fresh = self._fresh(ctx)
        fresh.nu0
        calls = []
        monkeypatch.setattr(kernel, "split_de", lambda *a: calls.append(a) or split_de(*a))
        fresh.kappa
        assert len(calls) == 2


def _kappa_midpoints(ctx):
    """Midpoints of the two grid intervals beside argmin nu0, the poles
    closing the end intervals."""
    i = int(np.argmin(ctx.nu0))
    edges = np.concatenate([[0.0], ctx.nodes, [np.pi]])
    return 0.5 * (edges[i:i + 2] + edges[i + 1:i + 3])


def _profile(name):
    phi = np.linspace(0.0, np.pi, 401)
    if name == "bumped":
        return q.make_profile("tabulated", phi=phi, r0=np.sin(phi) * (1.0 + 0.1 * np.sin(phi) ** 2))
    if name == "asym":
        return q.make_profile("tabulated", phi=phi, r0=np.sin(phi) * (1.0 + 0.1 * np.cos(phi)))
    if name == "sin2":
        return q.make_profile("tabulated", phi=phi, r0=np.sin(phi) ** 2)
    kind, _, a = name.partition(":")
    return q.make_profile(kind, a=float(a or 1.0))


class TestPoleCut:
    """The measured size table behind ``_POLE_CUT``: the row rules drop
    the split tanh-sinh nodes within _POLE_CUT times the length of their
    half of a pole.  H_n carries sin(vphi) r0(vphi)^(n+1), at least the
    cube of the distance to the pole, and the dropped weights are
    proportional to that distance, so the tail shrinks like the cut's
    fourth power.

    Each row measures the dropped tail itself, the largest
    |sum over dropped nodes of w H_n(phi_i, t) l_j(t)| over the rows i
    and columns j of B_1..B_8, relative to max|B_n| (de_level 7).  The
    default cut must keep it within 2e-15, and a cut 30x larger must
    exceed that on the rows ``FAILS`` names.  (Two whole walks with and
    without the cut differ by 9.8e-16 to 1.5e-15 on the five profiles at
    N = 32 and 96: the rounding of chunk boundaries that move with the
    dropped nodes, not the cut.)
    Measured tails are quoted per row as default; 30x.
    """

    BOUND = 2e-15
    LARGER = 30
    FAILS = {("sphere", 32), ("spheroid:0.5", 32), ("spheroid:2", 32), ("asym", 32), ("sphere", 96), ("spheroid:2", 96)}

    @staticmethod
    def tails(ctx, cuts):
        """The dropped tail of each cut in ``cuts``, relative to max|B_n|."""
        modes = range(1, 9)
        scale = [np.max(np.abs(B)) for B in ctx.mode_b_matrices(modes)]
        worst = np.zeros(len(cuts))
        for pt in ctx.nodes:
            rule = split_de(0.0, np.pi, pt, ctx.de_level)
            for c, cut in enumerate(cuts):
                drop = (rule.nodes <= cut * pt) | (np.pi - rule.nodes <= cut * (np.pi - pt))
                t, w = rule.nodes[drop], rule.weights[drop]
                L = interp_matrix(ctx.nodes, ctx.bary, t)
                for n, sc in zip(modes, scale):
                    worst[c] = max(worst[c], np.max(np.abs((w * _hn_values(ctx.profile, n, pt, t)) @ L)) / sc)
        return worst

    def test_cut_is_the_row_rule(self, ctx_sphere_small):
        for pt in ctx_sphere_small.nodes[[0, 7, 30]]:
            rule = split_de(0.0, np.pi, pt, ctx_sphere_small.de_level)
            keep = (rule.nodes > _POLE_CUT * pt) & (np.pi - rule.nodes > _POLE_CUT * (np.pi - pt))
            t, w = ctx_sphere_small.row_rule(pt)
            assert 0 < len(t) < len(rule.nodes)
            assert np.array_equal(t, rule.nodes[keep]) and np.array_equal(w, rule.weights[keep])

    def test_larger_cut_fails_a_row(self):
        assert self.FAILS

    @pytest.mark.parametrize(
        "name,N",
        [
            ("sphere", 32),          # 1.2e-19; 1.1e-13
            ("spheroid:0.5", 32),    # 1.9e-20; 1.6e-14
            ("spheroid:2", 32),      # 8.4e-19; 7.2e-13
            ("asym", 32),            # 1.5e-19; 1.3e-13
            ("sin2", 32),            # 7.5e-29; 4.1e-20
            ("sphere", 96),          # 2.8e-19; 1.3e-13
            ("spheroid:2", 96),      # 2.0e-18; 8.8e-13
        ],
    )
    def test_size_table(self, name, N):
        default, larger = self.tails(q.KernelContext(_profile(name), N, 7, 3), [_POLE_CUT, self.LARGER * _POLE_CUT])
        assert default <= self.BOUND
        assert bool(larger > self.BOUND) is ((name, N) in self.FAILS)


class TestOneFnCallPerBlock:
    """One f_n_many call for modes 1..8 and 12 on a row block of the walk
    is bitwise the per-mode calls (every block of the full walk, N = 96,
    de_level 7)."""

    @pytest.mark.parametrize("name", ["sphere", "spheroid:0.5", "spheroid:2", "bumped", "asym"])
    def test_walk_blocks(self, name):
        ctx = q.KernelContext(_profile(name), 96, 7, 3)
        modes = [*range(1, 9), 12]
        for first in range(0, ctx.n_nodes, _ROW_BLOCK):
            block = ctx.nodes[first:first + _ROW_BLOCK]
            rules = [ctx.row_rule(pt)[0] for pt in block]
            u = _chordal(ctx.profile, block, np.concatenate(rules), [len(t) for t in rules])[3]
            for n, row in zip(modes, f_n_many(modes, 1.0 - u, u)):
                assert np.array_equal(row, f_n_many(n, 1.0 - u, u))


class TestKappaMidpoints:
    """kappa from two midpoint rows against the sample it replaced: the
    grid nodes and 2N Gauss-Legendre nodes (their northern half on a
    mirrored context), at de_level 8."""

    @staticmethod
    def _gauss_sample_kappa(ctx):
        fine = 0.5 * np.pi * (1.0 + np.polynomial.legendre.leggauss(2 * ctx.n_nodes)[0])
        if ctx.mirrored:
            fine = fine[:ctx.n_nodes]
        rows = []
        for pt in fine:
            t, w = ctx.row_rule(pt)
            rows.append(np.sum(w * _hn_values(ctx.profile, 1, pt, t)))
        return min(np.min(ctx.nu0), min(rows))

    @pytest.mark.parametrize("name", ["sphere", "spheroid:0.5", "spheroid:2"])
    @pytest.mark.parametrize("N", [16, 48, 96])
    def test_constant_nu_agrees(self, name, N):
        # nu0 is constant: measured at most 6.9e-15 relative
        ctx = q.KernelContext(_profile(name), N, 8, 3)
        assert ctx.kappa == pytest.approx(self._gauss_sample_kappa(ctx), rel=1.4e-14)

    @pytest.mark.parametrize(
        "name,N,shift",
        [
            # the bumped profile's minimum is the equator, which is the
            # midpoint beside argmin nu0 and no node of the 2N sample
            ("bumped", 96, -7.9e-6), ("bumped", 48, -3.2e-5), ("bumped", 16, -2.9e-4),
            # the asymmetric one's lies at the pole, and the 2N sample's
            # first node is nearer to it than the midpoint of (0, phi_0)
            ("asym", 96, 1.9e-9), ("asym", 48, 2.3e-8), ("asym", 16, 1.1e-6),
        ],
    )
    def test_measured_shift(self, name, N, shift):
        ctx = q.KernelContext(_profile(name), N, 8, 3)
        old = self._gauss_sample_kappa(ctx)
        assert (ctx.kappa - old) / old == pytest.approx(shift, rel=0.05)


class TestEquatorialMirror:
    """The half walk on profiles symmetric about the equator, and the full
    walk, unchanged, on the others."""

    @pytest.mark.parametrize(
        "name,mirrored",
        [("sphere", True), ("spheroid:0.5", True), ("spheroid:2", True), ("bumped", True), ("asym", False)],
    )
    def test_gate(self, name, mirrored):
        assert q.KernelContext(_profile(name), 16, 4, 3).mirrored is mirrored

    @pytest.mark.parametrize("case", ["mirrored", "asym", "forced full"])
    def test_fold_and_unfold(self, request, case):
        # the solves' mirror reduction, bitwise the slicing and
        # concatenation of the even block, [x, x[::-1]] and the unfold
        # matrix; the identity wherever the context is not mirrored, also
        # when the flag is cleared after construction
        if case == "asym":
            ctx = request.getfixturevalue("asym_ctx")
        else:
            ctx = q.KernelContext(_profile("sphere"), 16, 4, 3)
            ctx.mirrored = case == "mirrored"
        N, half = ctx.n_nodes, ctx.n_nodes // 2
        A = np.random.default_rng(5).standard_normal((N, N))
        x, X = A[:, 0], A[:, :3]
        if case == "mirrored":
            eye = np.eye(N)
            assert ctx.n_solved == half
            assert np.array_equal(ctx.fold(A), A[:half, :half] + A[:half, ::-1][:, :half])
            for v in (x[:half], X[:half]):
                assert np.array_equal(ctx.unfold(v), np.concatenate([v, v[::-1]]))
            assert np.array_equal(ctx.E, eye[:, :half] + eye[::-1, :half])
        else:
            assert ctx.n_solved == N and ctx.fold(A) is A and ctx.unfold(x) is x and ctx.unfold(X) is X
            assert np.array_equal(ctx.E, np.eye(N))
        assert np.array_equal(ctx.E @ X[:ctx.n_solved], ctx.unfold(X[:ctx.n_solved]))

    @pytest.mark.parametrize("name", ["sphere", "spheroid:0.5", "bumped"])
    def test_half_walk_matches_full_walk(self, name):
        # the split rules at pi - phi_i mirror those at phi_i only to
        # round-off; measured worst over B_1..B_8 at N = 96, de_level 7:
        # 3.8e-13 (sphere), 5.0e-13 (spheroid:0.5), 3.6e-13 (bumped),
        # relative to max|B_n|
        half = q.KernelContext(_profile(name), 96, 7, 3)
        full = q.KernelContext(_profile(name), 96, 7, 3)
        full.mirrored = False
        for Bh, Bf in zip(half.mode_b_matrices(range(1, 9)), full.mode_b_matrices(range(1, 9))):
            assert np.max(np.abs(Bh - Bf)) <= 1e-12 * np.max(np.abs(Bf))

    def test_asymmetric_bitwise_full_walk(self, asym_ctx):
        # the per-row loop with the walk's chunking and arithmetic (weights
        # over the sums of their barycentric terms, hits added to their
        # node's column): an asymmetric profile must not be touched by the
        # mirror at all
        def row(pt, n):
            t, w = asym_ctx.row_rule(pt)
            return t, w * _hn_values(asym_ctx.profile, n, pt, t)

        ref = np.zeros((asym_ctx.n_nodes, asym_ctx.n_nodes))
        for i, pt in enumerate(asym_ctx.nodes):
            t, wh = row(pt, 2)
            for c in range(0, len(t), _LAGRANGE_CHUNK):
                sl = slice(c, c + _LAGRANGE_CHUNK)
                hit, near = node_hits(asym_ctx.nodes, t[sl])
                T = barycentric_terms(asym_ctx.nodes, asym_ctx.bary, t[sl], hit, near)
                scaled = wh[sl] / T.sum(axis=1)
                scaled[hit] = 0.0
                ref[i] += scaled @ T
                np.add.at(ref[i], near, wh[sl][hit])
        assert np.array_equal(asym_ctx.mode_b_matrix(2), ref)
        rows = [np.add.reduceat(row(pt, 1)[1], [0])[0] for pt in _kappa_midpoints(asym_ctx)]
        assert asym_ctx.kappa == min(np.min(asym_ctx.nu0), min(rows))


class TestForkedWalk:
    """The B_n walk in two processes is bitwise the serial walk, shares the
    row blocks by the CPU time each process gets, leaves no child behind,
    survives a failed child and forks only where it may."""

    MODES = range(1, 9)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # a machine with one CPU would take the serial path everywhere
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.fixture
    def forks(self, monkeypatch):
        calls, real = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(os.getpid()) or real())
        return calls

    @staticmethod
    def _serial(p, N=96, de_level=7, modes=MODES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "_FORK_ROWS", 10 ** 9)
            return q.KernelContext(p, N, de_level, 3).mode_b_matrices(modes)

    @staticmethod
    def _no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("g", [(1.0,), (0.5,), (1.0, 0.1)], ids=["sphere", "spheroid:0.5", "series:1,0.1"])
    def test_bitwise_serial(self, g, forks):
        p = q.make_profile("series", g=g)
        ctx = q.KernelContext(p, 96, 7, 3)
        Bs = ctx.mode_b_matrices(self.MODES)
        assert forks == [os.getpid()]
        assert ctx.mirrored is (len(g) == 1)
        self._no_child_left()
        for B, ref in zip(Bs, self._serial(p)):
            assert np.array_equal(B, ref)

    @pytest.mark.parametrize("held", ["child", "parent"])
    @pytest.mark.parametrize("N", [32, 36, 96])
    def test_blocks_follow_the_cpu_time(self, N, held, forks, monkeypatch):
        # one process is held in its first block until the other has
        # emptied the queue (the child: until this process waits for it;
        # this process: until the child leaves), so the other walks every
        # further block; this process walks whole blocks from block
        # boundaries, and the copied rows are bitwise the serial walk's
        p, parent = q.make_profile("sphere"), os.getpid()
        ref = self._serial(p, N, 4, [2])
        real_walk, real_waitpid, real_exit = kernel.KernelContext._walk_rows, os.waitpid, os._exit
        calls, (wait, go) = [], os.pipe()

        def walk_rows(self, ns, start, stop, out):
            if os.getpid() == parent:
                calls.append((start, stop))
            if (os.getpid() == parent) is (held == "parent"):
                os.read(wait, 1)
            return real_walk(self, ns, start, stop, out)

        def waitpid(pid, options):
            if held == "child" and options == 0:    # the walk's wait for its child
                os.write(go, b"1")
            return real_waitpid(pid, options)

        def leave(code):
            if held == "parent":
                os.write(go, b"1")
            real_exit(code)

        monkeypatch.setattr(kernel.KernelContext, "_walk_rows", walk_rows)
        monkeypatch.setattr(os, "waitpid", waitpid)
        monkeypatch.setattr(os, "_exit", leave)
        try:
            B = q.KernelContext(p, N, 4, 3).mode_b_matrix(2)
        finally:
            os.close(wait)
            os.close(go)
        assert forks == [parent]
        self._no_child_left()
        rows = N // 2
        blocks = len(range(0, rows, _ROW_BLOCK))
        assert all(start % _ROW_BLOCK == 0 and stop == min(start + _ROW_BLOCK, rows) for start, stop in calls)
        assert len(set(calls)) == len(calls)
        assert len(calls) >= blocks - 1 if held == "child" else len(calls) <= 1
        assert np.array_equal(B, ref[0])

    @pytest.mark.parametrize("how", ["raises", "killed"])
    def test_failed_child(self, how, forks, monkeypatch):
        parent, real = os.getpid(), kernel.barycentric_terms

        def failing_in_child(*a):
            if os.getpid() != parent:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("child fails")
            return real(*a)

        monkeypatch.setattr(kernel, "barycentric_terms", failing_in_child)
        Bs = q.KernelContext(q.make_profile("sphere"), 96, 7, 3).mode_b_matrices(self.MODES)
        assert forks == [parent]
        self._no_child_left()
        for B, ref in zip(Bs, self._serial(q.make_profile("sphere"))):
            assert np.array_equal(B, ref)

    def test_failed_fork(self, monkeypatch):
        def no_process():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_process)
        Bs = q.KernelContext(q.make_profile("sphere"), 96, 7, 3).mode_b_matrices(self.MODES)
        for B, ref in zip(Bs, self._serial(q.make_profile("sphere"))):
            assert np.array_equal(B, ref)

    def test_parent_error_propagates_after_reaping(self, forks, monkeypatch):
        parent, real = os.getpid(), kernel.barycentric_terms

        def failing_in_parent(*a):
            if os.getpid() == parent:
                raise RuntimeError("parent fails")
            return real(*a)

        monkeypatch.setattr(kernel, "barycentric_terms", failing_in_parent)
        with pytest.raises(RuntimeError, match="parent fails"):
            q.KernelContext(q.make_profile("sphere"), 96, 7, 3).mode_b_matrix(2)
        assert forks == [parent]
        self._no_child_left()

    def test_queue_fits_one_pipe_write(self):
        # the block queue is written whole before the fork, in one write
        # that a pipe takes without blocking
        most = _ROW_BLOCK * (select.PIPE_BUF // 4)
        assert kernel._may_fork(kernel._FORK_ROWS) and kernel._may_fork(most)
        assert not kernel._may_fork(most + 1)

    @pytest.mark.parametrize("case", ["one CPU", "second thread", "few rows"])
    def test_serial_where_it_may_not_fork(self, case, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        N = 8 if case == "few rows" else 96
        if case == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        if case == "second thread":
            worker.start()
        try:
            B = q.KernelContext(q.make_profile("sphere"), N, 7, 3).mode_b_matrix(2)
        finally:
            stop.set()
            if case == "second thread":
                worker.join(10)
        assert not worker.is_alive()
        assert np.all(np.isfinite(B))

    def test_forked_walk_caches_read_only(self, forks):
        ctx = q.KernelContext(q.make_profile("sphere"), 96, 7, 3)
        Bs = ctx.mode_b_matrices(self.MODES)
        assert forks == [os.getpid()]
        self._no_child_left()
        for B in [*Bs, ctx.mode_b_matrix(2)]:
            with pytest.raises(ValueError, match="read-only"):
                B[-1, -1] = 0.0

    def test_no_warning(self, forks):
        # recorded rather than raised: Python 3.12 discards os.fork's
        # warning when a filter makes it an error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            q.KernelContext(q.make_profile("sphere"), 96, 7, 3).mode_b_matrices(self.MODES)
        assert caught == [] and forks == [os.getpid()]
        self._no_child_left()


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
