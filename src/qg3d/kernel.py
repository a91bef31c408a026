"""Geometric kernels, the coefficient function nu, and product-integration
assembly.

For a profile r0 the mode-n kernel is

    H_n(phi, vphi) = c_n sin(vphi) r0^{n-1}(phi) r0^{n+1}(vphi)
                     / R^{n+1/2}(phi, vphi) * F_n(x),
    R(phi, vphi)   = (r0(phi) + r0(vphi))^2 + (cos phi - cos vphi)^2,
    x              = 4 r0(phi) r0(vphi) / R(phi, vphi),
    c_n            = 2^{2n-1} ((1/2)_n)^2 / (2n)!,

with F_n the logarithmic-class hypergeometric family from
:mod:`qg3d.specfun`.  The coefficient function and its infimum are

    nu_Omega(phi) = int_0^pi H_1(phi, .) dvphi - Omega,
    kappa         = inf_phi int_0^pi H_1(phi, .) dvphi,

and for Omega < kappa the weighted measure
d mu(vphi) = sin(vphi) r0^2(vphi) nu_Omega(vphi) dvphi is positive, making

    (K_n h)(phi) = (1 / nu_Omega(phi)) int_0^pi H_n(phi, vphi) h(vphi) dvphi

a self-adjoint compact operator on L^2(d mu).  Numerical notes:

* 1 - x is always computed from the chordal-distance identity
  1 - x = ((r0(phi)-r0(vphi))^2 + (cos phi - cos vphi)^2) / R, which is
  what the endpoint expansion of F_n consumes; the subtraction 1 - x
  itself would lose all digits near the diagonal.
* Row integrals split the vphi range at the target node and use
  tanh-sinh rules on each side (the diagonal is a log singularity that
  plain Gauss weights cannot see).  The pole tails of the two rules are
  cut (``KernelContext.row_rule``): a node closer to a pole than
  _POLE_CUT times the length of its half is dropped.  H_n carries
  sin(vphi) r0(vphi)^(n+1), which vanishes at least like the cube of the
  distance to the pole (H1), and the tanh-sinh weights are proportional
  to that distance, so the cut tail is O(_POLE_CUT^4) of the row: at most
  2.0e-18 of max|B_n| at the default (the size table in the tests).
  The diagonal ends of the rules are kept whole.
* The product-integration matrix B_n (split tanh-sinh rows against the
  barycentric Lagrange basis) is the one discretization of every mode:
  K_n^Omega is diag(1/nu) B_n, nu0 is the row sums of B_1 (the basis
  sums to one) and the only row-sum table a context caches, and the B_n
  are cached read-only, as every later solve shares them.  The B_n of
  several modes are built in one walk over the rows
  (``KernelContext.mode_b_matrices``): each row's split rule, its
  n-independent geometry and its barycentric terms
  bary_j / (t_p - phi_j) are formed once and serve every mode.  A row
  node's weight is divided by the sum of its own terms, the sum that
  ``interp_matrix`` normalizes by, and one vector-matrix product per
  mode adds a chunk of nodes to the row; a node within 1e-14 of a grid
  node (``quadrature.node_hits``, the rule ``interp_matrix`` uses too)
  adds its weight to that node's column instead, and several such nodes
  accumulate.  The walk forms no Lagrange matrix and does not call
  ``interp_matrix``.
* Two processes.  A walk of at least _FORK_ROWS rows, on Linux with two
  CPUs to run on and no Python thread besides the main one, is shared
  with a child made by ``os.fork`` (``KernelContext._walk_forked``): both
  take row blocks from one queue until it is empty, the child writing its
  rows into an anonymous shared mapping and leaving by ``os._exit``, so
  the split follows the CPU time each process gets.  A row runs the same
  code in either process, so B_n is bitwise the serial walk's; the child
  does not share the parent's GIL, which a thread pool over the rows did.
* Equatorial mirror.  When r0(pi - phi) = r0(phi) to round-off (checked
  once per context on _MIRROR_PROBE interior points at _MIRROR_TOL
  relative, ``KernelContext.mirrored``), H_n(pi - phi, pi - vphi) =
  H_n(phi, vphi), and on the mirror-symmetric grid B_n is centrosymmetric:
  B_n[N-1-i, N-1-j] = B_n[i, j].  The walk then builds the northern rows
  i < N/2 only and fills the rest by that identity, so the result is
  bitwise centrosymmetric; it differs from a full walk by at most 5.0e-13
  relative to max|B_n| (N = 96, de_level 7, modes 1..8, sphere,
  spheroid:0.5 and the bumped tabulated profile), because the split rules
  at pi - phi_i mirror those at phi_i only to round-off.  A profile that
  fails the check takes the full walk.  The solves are halved the same
  way: ``KernelContext.fold`` gives the even block of a centrosymmetric
  matrix, ``unfold`` maps its solution back, and ``E`` is that unfold.
* kappa is the least of nu0 and two extra H_1 rows, at the midpoints of
  the grid intervals on either side of argmin nu0: the Gauss nodes leave
  the equator and the poles uncovered, and a minimum there (the equator
  of the bumped test profile, the pole of an asymmetric one) lies
  between nodes.
"""

from __future__ import annotations

import math
import mmap
import os
import select
import sys
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, DomainError, GeometryError
from .profiles import Profile, mirror_defect
from .quadrature import barycentric_terms, barycentric_weights, node_hits, split_de
from .specfun import f_n_many

__all__ = [
    "KernelContext",
    "NuTable",
    "KernelMatrix",
    "big_r",
    "h_n",
    "nu_omega",
    "kappa",
    "assemble_kernel_matrix",
    "hn_decay_scan",
    "row_apply",
]

# Targets per H_n evaluation in the row-integral loops.  A block shares
# one f_n_many call; the bound keeps its temporaries small: one call for
# all 96 rows of the default grid raised peak memory by 22 MB.  Blocks of
# 8 make the B_1..B_6 walk about 1.15x faster in process (fewer Horner
# loops), but the dispersion benchmark then peaks at 35.9 MB against
# 34.3 MB with 4.
_ROW_BLOCK = 4
# Row nodes per chunk of barycentric terms in the B_n walk (about 1330
# per row at de_level 7 after the pole cut).  The dispersion benchmark
# peaks at 34.3-34.6 MB with 512, 34.9 MB with 768 and 35.0 MB with 1024,
# whose chunks are about 1.2x faster per node in isolation.
_LAGRANGE_CHUNK = 512
# Pole cut of the row rules (``KernelContext.row_rule``), relative to the
# length of each half of the split rule: it drops 21 % of the nodes of
# the mirrored walk (N = 96, de_level 7).
_POLE_CUT = 1e-5
# Equatorial-mirror check of a profile: interior probe points and the
# tolerance on ``profiles.mirror_defect`` relative to max r0.  Round-off
# passes it (sphere, spheroids, series with g even, tabulated profiles
# sampled from a symmetric function on a uniform grid); r0 = sin(phi) (1 + 0.1 cos(phi))
# misses it by 13 orders of magnitude (defect 0.0995).
_MIRROR_PROBE = 256
_MIRROR_TOL = 1e-14
# Walked rows from which ``KernelContext.mode_b_matrices`` shares its row
# blocks with a forked child (``_walk_forked``).  The walk of B_1..B_6 on
# the sphere, de_level 7, serial against the two processes' block queue:
# the range of the medians of 5 batches of 15 alternating runs on a shared
# 2-CPU VM, and of the serial/queued ratio per batch: 8 rows (N = 16)
# 9.4-16.2 against 13.4-16.0 ms (0.69-1.17), 12 rows 14.7-25.3 against
# 15.5-24.7 ms (0.95-1.34), 16 rows 18.4-34.1 against 15.6-25.4 ms
# (0.91-1.42, the queue ahead in 4 batches), 24 rows 29.6-51.4 against
# 25.8-36.6 ms (0.95-1.44), 48 rows (N = 96) 77-117 against 56-77 ms
# (1.29-2.00).
_FORK_ROWS = 16


def _cn(n: int) -> float:
    # 2^{2n-1} ((1/2)_n)^2 / (2n)! = binom(2n, n) / 2^{2n+1}, rounded once
    return math.comb(2 * n, n) / 2 ** (2 * n + 1)


def _chordal(p: Profile, phi, vphi, repeats=None):
    """(r0(phi), r0(vphi), R, 1 - x) on broadcastable arguments, with
    1 - x from the chordal identity and R floored at 1e-300 in its
    denominator.  With ``repeats``, r0 and cos are evaluated once per
    entry of phi and then repeated, as phi = np.repeat(phi, repeats)."""
    rp, cp = p.r0(phi), np.cos(phi)
    if repeats is not None:
        rp, cp = np.repeat(rp, repeats), np.repeat(cp, repeats)
    rq = p.r0(vphi)
    dc = cp - np.cos(vphi)
    with np.errstate(over="ignore", invalid="ignore"):    # a radius near 1e200: kappa and the solves refuse it
        R = (rp + rq) ** 2 + dc ** 2
        return rp, rq, R, ((rp - rq) ** 2 + dc ** 2) / np.maximum(R, 1e-300)


def big_r(p: Profile, phi, vphi):
    """R(phi, vphi) = (r0(phi) + r0(vphi))^2 + (cos phi - cos vphi)^2."""
    return _chordal(p, phi, vphi)[2]


def _hn_values(p: Profile, n: int, phi, vphi):
    """H_n on broadcastable argument arrays, unchecked: quadrature nodes
    hugging the target stay usable (:func:`h_n` checks its arguments)."""
    rp, rq, R, one_minus = _chordal(p, phi, vphi)
    return _hn_chordal(n, np.sin(vphi), rp, rq, R, f_n_many(n, 1.0 - one_minus, one_minus))


def _hn_chordal(n: int, sin_v, rp, rq, R, F):
    """H_n from sin(vphi), the :func:`_chordal` values (which do not depend
    on n) and F = F_n(x), formed in F's storage."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):    # radius near 0: solves, kappa refuse it
        F *= _cn(n) * sin_v * rp ** (n - 1) * rq ** (n + 1) * R ** (-(n + 0.5))
    return F


def _may_fork(rows: int) -> bool:
    """Whether a walk of ``rows`` rows is shared with a forked child: on
    Linux, with at least _FORK_ROWS rows and a queue of block first rows
    that fits one atomic pipe write, two CPUs to run on and no Python
    thread besides this one (a fork copies the calling thread alone)."""
    return (
        sys.platform == "linux"
        and _FORK_ROWS <= rows <= _ROW_BLOCK * (select.PIPE_BUF // 4)
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def h_n(p: Profile, n: int, phi, vphi):
    """Mode-n kernel H_n(phi, vphi) on broadcastable arguments; a
    DomainError on n < 1 and on coincident arguments: R = 0 (one pole
    twice) or x = 1 (one interior point twice)."""
    if n < 1:
        raise DomainError(f"h_n: n must be >= 1, got {n}")
    _, _, R, one_minus = _chordal(p, phi, vphi)
    if np.any(R == 0.0):
        raise DomainError("h_n: coincident pole arguments degenerate (R = 0)")
    if np.any(one_minus <= 0.0):
        raise DomainError("h_n: coincident interior arguments (x = 1) are singular")
    return _hn_values(p, n, phi, vphi)


@dataclass(eq=False)
class KernelContext:
    """Grid and quadrature configuration shared by the spectral pipeline.

    ``n_nodes`` Gauss-Legendre nodes on (0, pi) (strictly interior, so the
    poles where r0 vanishes are never touched), a tanh-sinh level for the
    singular row integrals, and a level for the 2-d quadratures of the
    double-integral operator representation.  A profile with r0 <= 0 at a
    grid node is a GeometryError: that is the part of H1 the grid can see.
    ``refined()`` doubles the grid and bumps both levels by one.
    ``mirrored`` records whether the profile is symmetric about the equator
    to round-off, which halves the row walks (see the module notes) and the
    solves: ``n_solved``, ``fold``, ``unfold`` and ``E`` follow it when used.
    """

    profile: Profile
    n_nodes: int = 96
    de_level: int = 9
    direct_level: int = 3
    guard_frac: float = 1e-3

    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_nodes < 8 or self.n_nodes % 2:
            raise DomainError("KernelContext: n_nodes must be even and >= 8")
        x, w = np.polynomial.legendre.leggauss(self.n_nodes)
        nodes = 0.5 * np.pi * (1.0 + x)
        weights = 0.5 * np.pi * w
        # enforce exact equatorial mirror symmetry of the grid
        self.nodes = 0.5 * (nodes + (np.pi - nodes[::-1]))
        self.weights = 0.5 * (weights + weights[::-1])
        self.r0v = self.profile.r0(self.nodes)
        bad = np.flatnonzero(~(self.r0v > 0.0))
        if bad.size:
            i = bad[0]
            raise GeometryError(
                f"KernelContext: r0 = {self.r0v[i]:.6g} is not positive at the grid node phi = {self.nodes[i]:.6g}; "
                "the kernel needs r0 > 0 inside (0, pi) (H1)"
            )
        self.sinv = np.sin(self.nodes)
        with np.errstate(over="ignore"):    # a radius near 1e200: kappa and the solves refuse it
            self.mv = self.sinv * self.r0v ** 2
        self.bary = barycentric_weights(self.nodes)
        probe = np.linspace(0.0, np.pi, _MIRROR_PROBE + 2)[1:-1]
        self.mirrored = bool(mirror_defect(self.profile, probe) <= _MIRROR_TOL * np.max(np.abs(self.profile.r0(probe))))
        self._cache: dict = {}

    @property
    def n_solved(self) -> int:
        """The rows a solve keeps: N/2 on a mirrored context, N otherwise."""
        return self.n_nodes // 2 if self.mirrored else self.n_nodes

    def fold(self, A: np.ndarray) -> np.ndarray:
        """The action A[:h, :h] + A[:h, ::-1][:, :h], h = N/2, of a centrosymmetric
        A on even samples [x, x[::-1]] if mirrored, else A itself."""
        h = self.n_solved
        return A[:h, :h] + A[:h, ::-1][:, :h] if self.mirrored else A

    def unfold(self, x: np.ndarray) -> np.ndarray:
        """Grid samples of solved values: [x, x[::-1]] if mirrored, else x."""
        return np.concatenate([x, x[::-1]]) if self.mirrored else x

    @property
    def E(self) -> np.ndarray:
        """The unfold matrix, shape (N, n_solved): E x = unfold(x)."""
        return self.unfold(np.eye(self.n_solved))

    def refined(self) -> "KernelContext":
        return KernelContext(
            self.profile, 2 * self.n_nodes, self.de_level + 1, self.direct_level + 1, self.guard_frac
        )

    def row_rule(self, phi_t: float):
        """Split tanh-sinh rule on (0, pi) with the singular point at phi_t,
        without the pole tails: the nodes within _POLE_CUT times the length
        of their half of a pole, t <= _POLE_CUT phi_t on the left and
        pi - t <= _POLE_CUT (pi - phi_t) on the right, are dropped."""
        rule = split_de(0.0, np.pi, phi_t, self.de_level)
        t = rule.nodes
        keep = (t > _POLE_CUT * phi_t) & (np.pi - t > _POLE_CUT * (np.pi - phi_t))
        return t[keep], rule.weights[keep]

    def _row_blocks(self, ns, targets: np.ndarray, first: int = 0):
        """Yield (first, bounds, t, whs) for consecutive blocks of at most
        _ROW_BLOCK targets from ``first`` on: t concatenates the split
        tanh-sinh nodes of the block's targets, whs[k] holds the rule
        weights times H_{ns[k]}(target, t), formed in place in the rows of
        one F_n call for all modes on geometry shared by all modes, and
        the row of target first + r is t[bounds[r]:bounds[r + 1]]."""
        for first in range(first, len(targets), _ROW_BLOCK):
            block = targets[first:first + _ROW_BLOCK]
            rules = [self.row_rule(pt) for pt in block]
            sizes = [len(t) for t, _ in rules]
            t = np.concatenate([t for t, _ in rules])
            w = np.concatenate([w for _, w in rules])
            rp, rq, R, one_minus = _chordal(self.profile, block, t, sizes)
            sin_t = np.sin(t)
            whs = f_n_many(ns, 1.0 - one_minus, one_minus)
            for n, wh in zip(ns, whs):
                _hn_chordal(n, sin_t, rp, rq, R, wh)
                wh *= w
            del rp, rq, R, one_minus, sin_t  # freed before the next block's are built: peak memory
            yield first, np.cumsum([0, *sizes]), t, whs

    def _walk_rows(self, ns, start: int, stop: int, out: np.ndarray):
        """Add the rows start <= i < stop of B_n, n in ``ns``, to
        out[:, i - start]; start is a multiple of _ROW_BLOCK, so the
        blocks are those of a walk from row 0."""
        for first, bounds, t, whs in self._row_blocks(ns, self.nodes[:stop], start):
            hits, nears = node_hits(self.nodes, t)
            for i, lo, hi in zip(range(first, stop), bounds[:-1], bounds[1:]):
                row = out[:, i - start]
                for c in range(lo, hi, _LAGRANGE_CHUNK):
                    sl = slice(c, min(c + _LAGRANGE_CHUNK, hi))
                    h0, h1 = np.searchsorted(hits, [sl.start, sl.stop])    # the block's hits in this chunk
                    hit, near = hits[h0:h1] - c, nears[h0:h1]
                    T = barycentric_terms(self.nodes, self.bary, t[sl], hit, near)
                    scaled = whs[:, sl] / T.sum(axis=1)    # the same sums interp_matrix divides by
                    scaled[:, hit] = 0.0
                    # a vector-matrix product per mode (a GEMM over the modes would
                    # let BLAS round each B_n differently with the number of modes)
                    row += np.matmul(scaled[:, None, :], T)[:, 0]
                    if hit.size:    # several nodes can round onto one grid node, so hits accumulate
                        np.add.at(row, (slice(None), near), whs[:, sl][:, hit])
                    del T  # freed before the next chunk's is built: peak memory

    def _walk_forked(self, ns, rows: int, Bs: np.ndarray):
        """The rows i < ``rows`` of :meth:`_walk_rows` in two processes
        that share out the row blocks as they go: each takes its next
        block from one queue (a pipe of first rows), this process walking
        into Bs and a forked child into an anonymous shared mapping, so a
        process that other load slows walks fewer blocks.  This process
        then reaps the child and copies the blocks it did not walk.  Each
        row runs the same arithmetic in either process, so Bs is bitwise
        the serial walk's.  When the fork fails, this process empties the
        queue alone; when the child fails or is killed, it walks the
        child's blocks; an error in this process's own blocks propagates
        once the child is reaped."""
        firsts = range(0, rows, _ROW_BLOCK)
        shared = np.frombuffer(mmap.mmap(-1, Bs[:, :rows].nbytes), dtype=float).reshape(len(ns), rows, -1)
        queue, feed = os.pipe()
        os.write(feed, np.array(firsts, dtype="<u4").tobytes())    # one write the pipe takes whole (_may_fork)
        os.close(feed)

        def walk(out):
            # the blocks taken from the queue until it is empty, walked into
            # out; their first rows
            taken = []
            while item := os.read(queue, 4):
                first = int.from_bytes(item, "little")
                taken.append(first)
                self._walk_rows(ns, first, min(first + _ROW_BLOCK, rows), out[:, first:])
            return taken

        with warnings.catch_warnings():
            # Python 3.12 and later warn when other OS threads exist, and
            # OpenBLAS's workers count: its own atfork handler joins them
            # before the fork, and the child runs numpy alone and leaves by
            # os._exit without flushing stdio
            warnings.filterwarnings(
                "ignore", message=r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                category=DeprecationWarning,
            )
            try:
                pid = os.fork()
            except OSError:    # no process to be had (a process or memory limit)
                pid = None
        if pid == 0:
            # the child never returns into its caller: it leaves by os._exit,
            # with 1 on any error, interrupts included
            try:
                walk(shared)
            except BaseException:
                os._exit(1)
            os._exit(0)
        try:
            taken = walk(Bs)
        finally:
            os.close(queue)
            ok = pid is not None and os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        for first in sorted(set(firsts) - set(taken)):
            stop = min(first + _ROW_BLOCK, rows)
            if ok:
                Bs[:, first:stop] = shared[:, first:stop]
            else:
                self._walk_rows(ns, first, stop, Bs[:, first:])

    def mode_tables(self, n: int):
        """Cached (B_n, row integrals int_0^pi H_n(phi_i, .)) for mode n;
        the row integrals are the row sums of B_n, because the Lagrange
        basis sums to one, and are read-only.  Only :attr:`nu0` (n = 1)
        caches them; the solves read :meth:`mode_b_matrix`."""
        key = ("mode", n)
        if key not in self._cache:
            B = self.mode_b_matrix(n)
            rowint = B.sum(axis=1)
            rowint.flags.writeable = False
            self._cache[key] = (B, rowint)
        return self._cache[key]

    def mode_b_matrices(self, ns) -> list[np.ndarray]:
        """Cached read-only product-integration matrices B_n, one per entry
        of ``ns``, with (B_n h)_i ~= int H_n(phi_i, vphi) h(vphi) dvphi for node
        samples h (split tanh-sinh rows against the barycentric Lagrange
        basis).  The missing ones are built in one walk over the rows: each
        row's rule and barycentric terms serve every mode, the latter built
        _LAGRANGE_CHUNK row nodes at a time.  A chunk's row nodes carry
        their weights over the row sums of their terms into one product
        per mode, and a node within 1e-14 of a grid node adds its weight
        to that node's column instead.  On a mirrored context the walk
        covers the rows i < N/2 and the others are their mirror images; a
        walk of at least _FORK_ROWS rows may run in two processes (see
        :meth:`_walk_forked`).  B_1, whose row sums are nu0, joins every
        walk until it is cached; a mode's rows do not depend on the other
        modes of its walk, so this changes no B_n by a bit."""
        ns = list(ns)
        for n in ns:
            if n < 1:
                raise DomainError(f"mode_b_matrices: mode {n} is invalid, every mode must be >= 1")
        todo = [n for n in dict.fromkeys([1, *ns]) if ("B", n) not in self._cache]
        if todo:
            N, rows = self.n_nodes, self.n_solved
            Bs = np.zeros((len(todo), N, N))
            if _may_fork(rows):
                self._walk_forked(todo, rows, Bs)
            else:
                self._walk_rows(todo, 0, rows, Bs)
            Bs[:, rows:] = Bs[:, :N - rows][:, ::-1, ::-1]    # the mirror images; none unmirrored
            Bs.flags.writeable = False    # every solve shares the cached views
            self._cache.update({("B", n): B for n, B in zip(todo, Bs)})
        return [self._cache[("B", n)] for n in ns]

    def mode_b_matrix(self, n: int) -> np.ndarray:
        """Cached product-integration matrix B_n (see :meth:`mode_b_matrices`)."""
        return self.mode_b_matrices([n])[0]

    @property
    def nu0(self) -> np.ndarray:
        """Row integrals int_0^pi H_1(phi_i, .) at the grid nodes (read-only)."""
        return self.mode_tables(1)[1]

    @property
    def kappa(self) -> float:
        """Infimum of int H_1(phi, .) over the grid nodes and the midpoints
        of the two grid intervals beside the node where nu0 is least (at
        an end node one of them reaches the pole); the two midpoint rows
        are summed directly from their split rules."""
        if "kappa" not in self._cache:
            i = int(np.argmin(self.nu0))
            edges = np.concatenate([[0.0], self.nodes, [np.pi]])
            mids = 0.5 * (edges[i:i + 2] + edges[i + 1:i + 3])
            _, bounds, _, (wh,) = next(self._row_blocks([1], mids))
            k = float(min(self.nu0[i], np.min(np.add.reduceat(wh, bounds[:-1]))))
            if not k > 0.0:    # NaN too: B_1 overflows on a profile of radius near 0
                raise AccuracyError(f"kappa: computed infimum {k} is not positive")
            self._cache["kappa"] = k
        return self._cache["kappa"]

    @property
    def omega_limit(self) -> float:
        """kappa (1 - guard_frac): every Omega must lie strictly below it."""
        return self.kappa * (1.0 - self.guard_frac)


@dataclass(frozen=True)
class NuTable:
    """nu_Omega at the grid nodes, with the threshold kappa."""

    omega: float
    values: np.ndarray
    kappa: float
    positive: bool


def nu_omega(ctx: KernelContext, omega: float) -> NuTable:
    """Tabulate nu_Omega(phi_i) = int H_1(phi_i, .) - Omega on the grid."""
    vals = ctx.nu0 - omega
    return NuTable(float(omega), vals, ctx.kappa, bool(omega < ctx.kappa))


def kappa(ctx: KernelContext) -> float:
    """Threshold kappa = inf_phi int_0^pi H_1(phi, .) dvphi."""
    return ctx.kappa


@dataclass(eq=False)
class KernelMatrix:
    """Product-integration discretization of K_n^Omega on the context grid.

    ``entries`` = diag(1/nu) B_n maps node samples of h to node samples
    of K_n h; its own eigenpairs are the spectrum that the solves take.
    ``mu_w`` = w m nu is the discrete measure the eigenfunctions are
    normalized in.  ``ctx`` is the context it was assembled on, whose
    ``fold`` and ``unfold`` reduce a solve by the equatorial mirror: on a
    mirrored context the matrix is centrosymmetric to round-off.
    """

    n: int
    omega: float
    entries: np.ndarray
    nu: np.ndarray
    mu_w: np.ndarray
    ctx: KernelContext = field(repr=False)


def assemble_kernel_matrix(
    ctx: KernelContext, n: int, omega: float, strip_nu: bool = False
) -> KernelMatrix:
    """Assemble the mode-n matrix at angular velocity omega.

    ``strip_nu`` assembles the Omega-independent variant with nu replaced
    by 1 in both the kernel and the measure (its dominant eigenvalue is
    the quantity the constant-nu families shift by kappa).
    """
    if n < 1:
        raise DomainError(f"assemble_kernel_matrix: n must be >= 1, got {n}")
    B = ctx.mode_b_matrix(n)
    if strip_nu:
        nu_vals = np.ones(ctx.n_nodes)
    else:
        if not omega < ctx.omega_limit:
            raise DomainError(
                f"assemble_kernel_matrix: omega={omega} not below kappa - guard "
                f"= {ctx.omega_limit} (measure would lose positivity)"
            )
        nu_vals = ctx.nu0 - omega
    M = B / nu_vals[:, None]
    mu_w = ctx.mv * ctx.weights * nu_vals
    return KernelMatrix(n=n, omega=float(omega), entries=M, nu=nu_vals, mu_w=mu_w, ctx=ctx)


def row_apply(ctx: KernelContext, n: int, h: np.ndarray) -> np.ndarray:
    """Accurate row integrals int H_n(phi_i, vphi) h(vphi) dvphi with h
    interpolated barycentrically between the grid nodes (product
    integration; used by the operator applies and the bound estimates)."""
    return ctx.mode_b_matrix(n) @ np.asarray(h, dtype=float)


def hn_decay_scan(p: Profile, phi: float, vphi: float, n_max: int) -> np.ndarray:
    """H_n(phi, vphi) for n = 1..n_max at fixed off-diagonal arguments."""
    if n_max < 1:
        raise DomainError(f"hn_decay_scan: n_max must be >= 1, got {n_max}")
    if abs(phi - vphi) < 1e-14:
        raise DomainError("hn_decay_scan: arguments must be distinct")
    return np.array([float(h_n(p, n, phi, vphi)) for n in range(1, n_max + 1)])
