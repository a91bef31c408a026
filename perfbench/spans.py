"""Span recorder that wraps qg3d's public functions from outside the package.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter``), the index of the enclosing span and a work count
(``F_n`` evaluations, power iterations, Newton iterations or 1 for a table
that was built rather than served from cache).  Spans stay in memory and
are written out once, at the end of the traced child.

Wrapping works by rebinding: every ``qg3d`` module attribute that holds the
original function is pointed at the wrapper, so callers that imported the
name (``from .specfun import f_n_many``) see the wrapper too.  Methods and
properties are replaced on their class.  The workloads are single-threaded,
so spans nest strictly and one stack suffices.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, work]
        self._stack: list[int] = []
        self._built: dict[str, dict[int, object]] = {}

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` wrapped in a span; ``work(args, result)`` gives the count."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                rec[4] = work(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def built(self, name: str):
        """Work function for cached table getters: 1 when the returned
        object is new (a build), 0 when it was seen before (a cache hit).
        Returned objects are kept alive so their ids stay unique."""
        seen = self._built.setdefault(name, {})

        def count(args, out):
            if id(out) in seen:
                return 0
            seen[id(out)] = out
            return 1

        return count

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _rebind(orig, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "qg3d" or mod_name.startswith("qg3d."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every qg3d layer."""
    from qg3d import cli, kernel, nonlinear, profiles, quadrature, spectral, specfun

    def fn(module, attr, name, work=None):
        orig = getattr(module, attr)
        _rebind(orig, tracer.wrap(name, orig, work))

    def method(cls, attr, name, work=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), work))

    fn(specfun, "f_n_many", "specfun.f_n_many", lambda a, out: int(np.size(out)))
    for attr in ("split_de", "interp_matrix", "double_exponential", "periodic_trapezoid", "barycentric_weights"):
        fn(quadrature, attr, f"quadrature.{attr}")
    method(profiles.Profile, "r0", "profiles.r0")
    K = kernel.KernelContext
    method(K, "mode_tables", "kernel.mode_tables", tracer.built("kernel.mode_tables"))
    method(K, "mode_b_matrix", "kernel.mode_b_matrix", tracer.built("kernel.mode_b_matrix"))
    K.kappa = property(tracer.wrap("kernel.kappa", K.kappa.fget))
    fn(kernel, "assemble_kernel_matrix", "kernel.assemble_kernel_matrix")
    fn(kernel, "row_apply", "kernel.row_apply")
    fn(spectral, "largest_eigenvalue", "spectral.largest_eigenvalue", lambda a, out: out.iterations)
    for attr in ("refine_eigenvalue", "find_bifurcation_point", "dispersion_scan"):
        fn(spectral, attr, f"spectral.{attr}")
    method(nonlinear.Collocation, "__init__", "nonlinear.Collocation.init")
    for attr in ("f_tilde_modes", "f_tilde", "continue_branch", "velocity_residual", "velocity_on_axis"):
        fn(nonlinear, attr, f"nonlinear.{attr}")
    fn(nonlinear, "newton_correct", "nonlinear.newton_correct", lambda a, out: out[0].iterations)
    cli.main = tracer.wrap("cli.main", cli.main)


def specfun_probe(size: int = 20000, reps: int = 5) -> dict:
    """F_n evaluations per second on arrays lying wholly on the series
    branch (x = 0.5) and wholly on the endpoint branch (1 - x = 1e-3),
    through the public ``f_n_many``; median of ``reps`` timings."""
    from qg3d import specfun

    f_n_many = getattr(specfun.f_n_many, "__wrapped__", specfun.f_n_many)
    out = {}
    for branch, x, u in (("series", 0.5, 0.5), ("endpoint", 1.0 - 1e-3, 1e-3)):
        xs = np.full(size, x)
        us = np.full(size, u)
        for n in (2, 8):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                f_n_many(n, xs, us)
                times.append(time.perf_counter() - t0)
            out[f"specfun.fn_{branch}_evals_per_s.n{n}"] = size / sorted(times)[reps // 2]
    return out
