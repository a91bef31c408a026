"""qg3d benchmark: closed-loop CLI invocations checked against sphere oracles.

    python3 perfbench/run.py --workload dispersion|bifpoints|branch
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout.  One invocation is one call of
``qg3d.cli.main(argv)`` in a fresh interpreter (``child.py``), so every
invocation pays the import and the kernel tables that a user of the CLI
pays.  Invocations run one at a time, each after the previous one ended;
this process imports no numpy, so the only compute threads are the
child's (its BLAS pool is capped at the CPUs this process may use).

After each invocation the written CSV/JSON outputs are checked against
the exact sphere oracles (``workloads.py``) and hashed.  An invocation
whose outputs differ from the first one of the same seed, or that exits
non-zero, fails all of its operations.  Invocations repeat until the next
one would end after ``--seconds`` (at least two run).

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``time_to_solution_s``
(the ``cli.main`` call), ``peak_rss_mb`` and ``accuracy_digits`` (-log10 of
the worst oracle error).  ``setup_s`` is the time from process start until
``qg3d`` is imported, in import-only processes, scaled to a fixed machine
speed: each sample is multiplied by REF_IMPORT_S over the start-up time of
a process that imports numpy alone, measured just before it.  The speed of
a shared machine drifts by tens of percent within minutes; the two
start-up times follow that drift together, so their ratio holds still,
while extra work done when qg3d is imported still raises it.  The median
over SETUP_PROBES pairs is reported.  ``--trace 1`` alternates untraced
and traced invocations and prints the per-layer metrics of the traced
ones (``spans.py``), with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give each metric with its sample count and the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 8
REF_IMPORT_S = 0.2         # nominal start-up time of Python plus numpy alone
MIN_INVOCATIONS = 2
HARD_LIMIT_S = 170.0       # a run, whatever --seconds says, ends within this
ERROR_RANGE = (1e-16, 1e16)  # accuracy_digits stays within [-16, 16]

END_TO_END = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}

# name -> (unit, better); the per-layer metrics a --trace 1 run prints
PER_LAYER = {
    "specfun.f_n_many.evals": ("count", "lower"),
    "specfun.f_n_many.self_s": ("s", "lower"),
    "specfun.f_n_many.evals_per_s": ("1/s", "higher"),
    "specfun.fn_series_evals_per_s.n2": ("1/s", "higher"),
    "specfun.fn_series_evals_per_s.n8": ("1/s", "higher"),
    "specfun.fn_endpoint_evals_per_s.n2": ("1/s", "higher"),
    "specfun.fn_endpoint_evals_per_s.n8": ("1/s", "higher"),
    "specfun.share": ("ratio", "lower"),
    "quadrature.split_de.calls": ("count", "lower"),
    "quadrature.split_de.self_s": ("s", "lower"),
    "quadrature.interp_matrix.calls": ("count", "lower"),
    "quadrature.interp_matrix.self_s": ("s", "lower"),
    "quadrature.share": ("ratio", "lower"),
    "profiles.r0.calls": ("count", "lower"),
    "profiles.r0.self_s": ("s", "lower"),
    "profiles.share": ("ratio", "lower"),
    "kernel.kappa.self_s": ("s", "lower"),
    "kernel.kappa.total_s": ("s", "lower"),
    "kernel.mode_tables.builds": ("count", "lower"),
    "kernel.mode_tables.self_s": ("s", "lower"),
    "kernel.mode_tables.total_s": ("s", "lower"),
    "kernel.mode_b_matrix.builds": ("count", "lower"),
    "kernel.mode_b_matrix.self_s": ("s", "lower"),
    "kernel.mode_b_matrix.total_s": ("s", "lower"),
    "kernel.assemble_kernel_matrix.calls": ("count", "lower"),
    "kernel.assemble_kernel_matrix.self_s": ("s", "lower"),
    "kernel.table_reuse": ("ratio", "higher"),
    "kernel.share": ("ratio", "lower"),
    "spectral.largest_eigenvalue.calls": ("count", "lower"),
    "spectral.largest_eigenvalue.self_s": ("s", "lower"),
    "spectral.largest_eigenvalue.iterations": ("count", "lower"),
    "spectral.refine_eigenvalue.calls": ("count", "lower"),
    "spectral.refine_eigenvalue.self_s": ("s", "lower"),
    "spectral.find_bifurcation_point.lambda_evals": ("count", "lower"),
    "spectral.share": ("ratio", "lower"),
    "nonlinear.Collocation.init_s": ("s", "lower"),
    "nonlinear.f_tilde_modes.calls": ("count", "lower"),
    "nonlinear.f_tilde_modes.share": ("ratio", "lower"),
    "nonlinear.f_tilde.self_s": ("s", "lower"),
    "nonlinear.newton_correct.calls": ("count", "lower"),
    "nonlinear.newton.iterations": ("count", "lower"),
    "nonlinear.residuals_per_iteration": ("ratio", "lower"),
    "nonlinear.velocity_residual.self_s": ("s", "lower"),
    "nonlinear.velocity_on_axis.self_s": ("s", "lower"),
    "nonlinear.share": ("ratio", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Harness:
    """Launches invocations of one workload and keeps their samples."""

    def __init__(self, wl: workloads.Workload, workdir: Path):
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.wl = wl
        self.workdir = workdir
        self.outdir = workdir / "out"
        self.reference_digest = None
        self.env = None
        nproc = str(len(os.sched_getaffinity(0)))
        self.child_env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.child_env.setdefault(var, nproc)

    def _launch(self, extra: list, argv: list) -> tuple[dict | None, float, float]:
        """Run child.py; return its result (None if it crashed), its start
        instant and its wall time."""
        result_path = self.workdir / "result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--result", str(result_path), *extra, "--", *argv]
        with open(self.workdir / "child.log", "ab") as log:
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.child_env,
                                      cwd=ROOT, timeout=max(self.deadline - time.monotonic(), 1.0))
                ok = proc.returncode == 0
            except subprocess.TimeoutExpired:  # the child has been killed and reaped
                ok = False
            wall = time.clock_gettime(time.CLOCK_MONOTONIC) - start
        if not ok or not result_path.exists():
            return None, start, wall
        return json.loads(result_path.read_text()), start, wall

    def _probe(self, what: str) -> float:
        res, start, _ = self._launch(["--probe", what], [])
        if res is None:
            raise RuntimeError(f"{what} start-up probe failed; see {self.workdir / 'child.log'}")
        return res["ready"] - start

    def setup_probe(self) -> float:
        """One set-up sample, scaled by the reference start-up before it."""
        reference = self._probe("numpy")
        return self._probe("qg3d") * REF_IMPORT_S / reference

    def invoke(self, traced: bool) -> dict:
        """One CLI invocation, checked and hashed."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        # relative to the child's working directory, so that the config echo
        # (and so the outputs) do not depend on where the checkout lives
        argv = self.wl.argv + ["--outdir", str(self.outdir.relative_to(ROOT))]
        spans_path = self.workdir / "spans.json"
        extra = ["--spans", str(spans_path)] if traced else []
        if self.env is None:
            extra.append("--env")
        res, start, wall = self._launch(extra, argv)
        sample = {"traced": traced, "wall_s": wall, "attempted": self.wl.operations, "failed": self.wl.operations}
        if res is None or res["rc"] != 0:
            sample["error"] = "child crashed" if res is None else f"exit code {res['rc']}"
            return sample
        self.env = self.env or res.get("env")
        sample.update(setup_s=res["ready"] - start, main_s=res["main_s"], peak_rss_mb=res["maxrss_mb"])
        try:
            attempted, failed, worst = self.wl.check(self.outdir, self.wl.argv)
        except (OSError, KeyError, ValueError) as exc:
            sample["error"] = f"outputs unreadable: {exc!r}"
            return sample
        digest, nbytes = hash_outputs(self.outdir)
        if self.reference_digest is None:
            self.reference_digest = digest
        if digest != self.reference_digest:
            sample["error"] = "outputs differ from the first invocation of this seed"
            return sample
        sample.update(attempted=attempted, failed=failed, worst_error=worst, output_bytes=nbytes)
        if traced:
            spans = json.loads(spans_path.read_text())
            sample["layers"] = layer_metrics(spans, nbytes)
            sample["layers"].update(res["probe"])
        return sample


def hash_outputs(outdir: Path) -> tuple[str, int]:
    """sha256 over (name, content) of every output file, and their size."""
    h = hashlib.sha256()
    nbytes = 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        nbytes += len(data)
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), nbytes


def layer_metrics(spans: list, output_bytes: int) -> dict:
    """Per-layer metrics of one traced invocation.

    ``spans`` rows are [name, start, end, parent, work].  Self time is a
    span's duration minus its direct children's (spans nest strictly).
    A layer's share is the time covered by its outermost spans over the
    time of ``cli.main``.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    work = defaultdict(int)
    covered = defaultdict(float)
    above: list[frozenset] = []      # layers of each span's ancestors
    under_bif = [False] * len(spans)  # has a find_bifurcation_point ancestor
    for i, (name, start, end, parent, w) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur - child_time[i]
        work[name] += w
        layer = name.split(".")[0]
        anc = frozenset() if parent < 0 else above[parent] | {spans[parent][0].split(".")[0]}
        above.append(anc)
        if layer not in anc:
            covered[layer] += dur
        if parent >= 0:
            under_bif[i] = under_bif[parent] or spans[parent][0] == "spectral.find_bifurcation_point"
    main_s = total["cli.main"]
    top_level = sum(e - s for _, s, e, p, _ in spans if p >= 0 and spans[p][0] == "cli.main")
    evals = work["specfun.f_n_many"]
    tables = work["kernel.mode_tables"]
    eig_calls = calls["spectral.largest_eigenvalue"]
    newton_its = work["nonlinear.newton_correct"]
    out = {
        "specfun.f_n_many.evals": evals,
        "specfun.f_n_many.self_s": self_s["specfun.f_n_many"],
        "specfun.f_n_many.evals_per_s": evals / self_s["specfun.f_n_many"] if evals else 0.0,
        "quadrature.split_de.calls": calls["quadrature.split_de"],
        "quadrature.split_de.self_s": self_s["quadrature.split_de"],
        "quadrature.interp_matrix.calls": calls["quadrature.interp_matrix"],
        "quadrature.interp_matrix.self_s": self_s["quadrature.interp_matrix"],
        "profiles.r0.calls": calls["profiles.r0"],
        "profiles.r0.self_s": self_s["profiles.r0"],
        "kernel.kappa.self_s": self_s["kernel.kappa"],
        "kernel.kappa.total_s": total["kernel.kappa"],
        "kernel.mode_tables.builds": tables,
        "kernel.mode_tables.self_s": self_s["kernel.mode_tables"],
        "kernel.mode_tables.total_s": total["kernel.mode_tables"],
        "kernel.mode_b_matrix.builds": work["kernel.mode_b_matrix"],
        "kernel.mode_b_matrix.self_s": self_s["kernel.mode_b_matrix"],
        "kernel.mode_b_matrix.total_s": total["kernel.mode_b_matrix"],
        "kernel.assemble_kernel_matrix.calls": calls["kernel.assemble_kernel_matrix"],
        "kernel.assemble_kernel_matrix.self_s": self_s["kernel.assemble_kernel_matrix"],
        "kernel.table_reuse": calls["kernel.assemble_kernel_matrix"] / tables if tables else 0.0,
        "spectral.largest_eigenvalue.calls": eig_calls,
        "spectral.largest_eigenvalue.self_s": self_s["spectral.largest_eigenvalue"],
        "spectral.largest_eigenvalue.iterations": work["spectral.largest_eigenvalue"] / eig_calls if eig_calls else 0.0,
        "spectral.refine_eigenvalue.calls": calls["spectral.refine_eigenvalue"],
        "spectral.refine_eigenvalue.self_s": self_s["spectral.refine_eigenvalue"],
        "spectral.find_bifurcation_point.lambda_evals": sum(
            1 for i, sp in enumerate(spans) if under_bif[i] and sp[0] == "spectral.largest_eigenvalue"
        ),
        "nonlinear.Collocation.init_s": total["nonlinear.Collocation.init"],
        "nonlinear.f_tilde_modes.calls": calls["nonlinear.f_tilde_modes"],
        "nonlinear.f_tilde_modes.share": total["nonlinear.f_tilde_modes"] / main_s,
        "nonlinear.f_tilde.self_s": self_s["nonlinear.f_tilde"],
        "nonlinear.newton_correct.calls": calls["nonlinear.newton_correct"],
        "nonlinear.newton.iterations": newton_its,
        "nonlinear.residuals_per_iteration": calls["nonlinear.f_tilde_modes"] / newton_its if newton_its else 0.0,
        "nonlinear.velocity_residual.self_s": self_s["nonlinear.velocity_residual"],
        "nonlinear.velocity_on_axis.self_s": self_s["nonlinear.velocity_on_axis"],
        "cli.output_bytes": output_bytes,
        "cli.overhead_s": main_s - top_level,
    }
    for layer in ("specfun", "quadrature", "profiles", "kernel", "spectral", "nonlinear"):
        out[f"{layer}.share"] = covered[layer] / main_s
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def measure(wl: workloads.Workload, seconds: float, trace: bool, workdir: Path):
    """Run invocations for ``seconds``; return (samples, scaled set-up samples, env)."""
    h = Harness(wl, workdir)
    begin = time.monotonic()
    setups = [] if trace else [h.setup_probe() for _ in range(SETUP_PROBES)]
    samples = []
    while True:
        samples.append(h.invoke(traced=trace and len(samples) % 2 == 1))
        elapsed = time.monotonic() - begin
        next_s = median([s["wall_s"] for s in samples])
        if time.monotonic() + next_s > h.deadline or (len(samples) >= MIN_INVOCATIONS and elapsed + next_s > seconds):
            break
    return samples, setups, h.env


def end_to_end(samples: list, setups: list) -> tuple[dict, dict]:
    """(metric values, sample counts) over untraced invocations."""
    plain = [s for s in samples if not s["traced"] and "main_s" in s]
    errors = [s["worst_error"] for s in samples if "worst_error" in s]
    digits = -math.log10(min(max(max(errors), ERROR_RANGE[0]), ERROR_RANGE[1])) if errors else 0.0
    values = {
        "setup_s": median(setups),
        "time_to_solution_s": median([s["main_s"] for s in plain]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in plain]),
        "accuracy_digits": digits,
    }
    counts = {"setup_s": len(setups), "time_to_solution_s": len(plain), "peak_rss_mb": len(plain),
              "accuracy_digits": len(errors)}
    return values, counts


def per_layer(samples: list) -> tuple[dict, dict]:
    """(metric values, sample counts): medians over traced invocations."""
    traced = [s["layers"] for s in samples if "layers" in s]
    plain = [s["main_s"] for s in samples if not s["traced"] and "main_s" in s]
    traced_main = [s["main_s"] for s in samples if s["traced"] and "main_s" in s]
    values, counts = {}, {}
    for name in PER_LAYER:
        vals = [t[name] for t in traced if name in t]
        values[name] = median(vals)
        counts[name] = len(vals)
    if plain and traced_main:
        values["trace.overhead_frac"] = median(traced_main) / median(plain) - 1.0
        counts["trace.overhead_frac"] = len(plain) + len(traced_main)
    return values, counts


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qg3d").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run(args) -> int:
    wl = workloads.make(args.workload, args.seed)
    workdir = WORK / args.workload  # a fixed path: the config echo written by qg3d records it
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        samples, setups, env = measure(wl, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if args.trace:
        values, counts = per_layer(samples)
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        values, counts = end_to_end(samples, setups)
        units = END_TO_END
    env = dict(env or {}, git_commit=git_commit(), source_sha256=source_digest())
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(samples)} invocations, "
          f"{attempted} operations attempted, {failed} failed")
    print(f"why: {wl.why}")
    print(f"argv: {' '.join(wl.argv)}")
    for s in samples:
        if "error" in s:
            print(f"  invocation failed: {s['error']}")
    for name, value in values.items():
        print(f"  {name:46s} {value:14.6g} {units[name]:8s} n={counts[name]}")
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "argv": wl.argv, "environment": env,
              "samples": [{k: v for k, v in s.items() if k != "layers"} for s in samples]}
    WORK.mkdir(exist_ok=True)
    (WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(env, sort_keys=True))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def self_test() -> int:
    """Tiny-grid pass of every workload through the whole harness, with
    injected wrong answers that must be counted as failed operations."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from the metrics run.py prints")
    if {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from the metrics run.py prints")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for name in workloads.NAMES:
        wl = workloads.make(name, seed=1, tiny=True)
        workdir = WORK / f"selftest-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            h = Harness(wl, workdir)
            plain, traced = h.invoke(traced=False), h.invoke(traced=True)
            for s in (plain, traced):
                if s.get("error") or s["failed"] or s["attempted"] != wl.operations:
                    problems.append(f"{name}: tiny pass gave {s['failed']}/{s['attempted']} failed ({s.get('error')})")
            missing = set(PER_LAYER) - set(traced.get("layers", {})) - {"trace.overhead_frac"}
            if missing:
                problems.append(f"{name}: traced invocation lacks {sorted(missing)}")
            _, failed, _ = wl.check(h.outdir, wl.argv)
            _inject_wrong_answer(name, h.outdir)
            _, failed_after, _ = wl.check(h.outdir, wl.argv)
            if failed_after != failed + 1:
                problems.append(f"{name}: injected wrong answer counted {failed_after - failed} failures, not 1")
            h.reference_digest = "0" * 64  # as if the first invocation had written other bytes
            s = h.invoke(traced=False)
            if s["failed"] != wl.operations or "differ" not in s.get("error", ""):
                problems.append(f"{name}: outputs differing from the first invocation were not counted as failed")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"self-test {name}: {' '.join(wl.argv)}")
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def _inject_wrong_answer(name: str, outdir: Path) -> None:
    """Perturb one answer in the written outputs by far more than its tolerance."""
    if name == "bifpoints":
        path, col, delta = outdir / "bifpoints.csv", "omega_m", 1e-3
    elif name == "dispersion":
        path, col, delta = outdir / "dispersion.csv", "lambda", 1e-2
    else:
        data = json.loads((outdir / "branch.json").read_text())
        data["points"][0]["velocity_form_residual"] = 1e-3
        (outdir / "branch.json").write_text(json.dumps(data))
        return
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    i = header.index(col)
    row[i] = repr(float(row[i]) + delta)
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (SRC / "qg3d" / "cli.py").is_file():
        print(f"perfbench: no qg3d sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
