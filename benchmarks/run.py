"""Benchmark of the gatgmm library: four closed-loop workloads.

    python3 benchmarks/run.py --workload iso-gda --seed 1 --seconds 20 --trace 0

Run from the root of a gatgmm checkout; the library is imported from its
``src/``.  After set-up the run repeats passes of its workload for
``--seconds`` seconds and prints, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Times are scaled by the speed of the host, which a fixed reference chunk
of numpy work measures before and after every timed unit (see README.md).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans around the calls into each library module and
writes the spans to ``.bench_out/``.  The line before the result stamps the
machine, the library versions and the workload seed.  The exit code is 0
when every output check passed, 1 when one failed and 2 when there is no
library to run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from spans import OpFailed, Ops, SpanIndex, median_or_zero

WORKLOAD_NAMES = ("iso-gda", "rot-gda", "kmix-gda", "oracles")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 1   # one thread: a second BLAS thread waits on the other tenants
SETUP_REPS = 5         # imports + input builds per untraced run (3 builds when traced)
REF_PART_SECONDS = 0.015  # a reference part's time on the nominal host (see Run.scaled)
PASS_SHARE = 0.75      # traced GDA runs: share of --seconds spent on passes
MIN_PROBES = 20        # traced GDA runs: least number of replayed rounds

IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
               "import gatgmm, gatgmm.cli; print(time.perf_counter() - t)")

# per-layer metrics read off the spans: (metric, unit, span names, unit kind,
# reduction, scale).  "unit" sums the spans of each set-up, pass or replayed
# round and takes the median over those; "call" takes the median single call.
SPAN_METRICS = [
    ("gausscore.latent_draw_us", "us", ("model.draw_latents",), "probe", "call", 1e6),
    ("gausscore.random_orthogonal_ms", "ms", ("gausscore.random_orthogonal",), "probe", "call", 1e3),
    ("datagen.make_ms", "ms", ("datagen.make_isotropic", "datagen.make_rotated",
                               "datagen.make_k_mixture"), "setup", "unit", 1e3),
    ("datagen.save_csv_ms", "ms", ("datagen.save_csv",), "setup", "unit", 1e3),
    ("datagen.load_csv_ms", "ms", ("datagen.load_csv",), "setup", "unit", 1e3),
    ("model.gen_apply_us", "us", ("model.gen_apply",), "probe", "call", 1e6),
    ("model.disc_grad_x_batch_us", "us", ("model.disc_grad_x_batch",), "probe", "call", 1e6),
    ("objective.disc_block_us", "us", ("objective.disc_block_value_and_grads",), "probe", "call", 1e6),
    ("objective.gen_block_us", "us", ("objective.gen_block_grads",), "probe", "call", 1e6),
    ("bench.replay_round_us", "us", ("bench.replay_round",), "probe", "call", 1e6),
    ("objective.inner_max_ms", "ms", ("objective.inner_max_solve",), "pass", "unit", 1e3),
    ("objective.inner_max_pop_ms", "ms", ("objective.inner_max_solve_population",), "pass", "unit", 1e3),
    ("objective.c_transform_ms", "ms", ("objective.c_transform_batch",), "pass", "unit", 1e3),
    ("objective.gh_expect_us", "us", ("objective.gh_expect",), "pass", "call", 1e6),
    ("optimizer.stationarity_ms", "ms", ("optimizer.stationarity_grad_norm",), "pass", "unit", 1e3),
    ("em.fit_ms", "ms", ("em.em_fit",), "pass", "unit", 1e3),
    ("em.loglik_ms", "ms", ("em.gmm_loglik",), "probe", "call", 1e3),
    ("transport.duality_1d_ms", "ms", ("transport.duality_gap_1d",), "pass", "unit", 1e3),
    ("transport.assignment_ms", "ms", ("transport.w2_assignment_exact",), "pass", "unit", 1e3),
    ("transport.bayes_error_ms", "ms", ("transport.bayes_error",), "pass", "unit", 1e3),
    ("metrics.gmm_objective_ms", "ms", ("metrics.gmm_objective",), "pass", "unit", 1e3),
    ("metrics.bures_w2_ms", "ms", ("metrics.bures_w2",), "pass", "unit", 1e3),
    ("metrics.principal_direction_ms", "ms", ("metrics.principal_direction",), "setup", "unit", 1e3),
    ("cli.verify_ms", "ms", ("cli.verify",), "pass", "unit", 1e3),
]
# layers whose self time per traced pass is reported
PASS_LAYERS = ("optimizer", "em", "metrics", "objective", "transport", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def openblas_threads() -> dict:
    """Thread count in effect of each loaded OpenBLAS, asked from the library."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and ".so" in line})
    except OSError:
        return out
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def stamp(args, nproc: int, threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_requested": threads, "blas_threads_in_effect": openblas_threads(),
    }


def import_seconds(root: Path, src: Path) -> float:
    """Library import time in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(src)], cwd=root, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def reference_chunk(parts: tuple[str, ...]) -> float:
    """Wall time of a fixed piece of numpy work of the kind a workload's
    pass does.  Part "rounds" is like a GDA round on small arrays: Philox
    draws, small products, tanh, a Gram matrix and a d=100 product.  Part
    "grid" streams large temporaries through memory, as the grid c-transform
    of ``duality_gap_1d`` does.  Neither uses gatgmm code, so a change to the
    library does not move them."""
    import numpy as np  # after main() has set the BLAS thread count

    rng = np.random.Generator(np.random.Philox(7))
    a = rng.standard_normal((20, 20))
    b = rng.standard_normal((100, 100))
    grid = np.linspace(-8.0, 8.0, 4001)
    values = np.sin(grid)
    t = time.perf_counter()
    acc = 0.0
    if "rounds" in parts:
        for i in range(40):
            z = rng.standard_normal((640, 20))
            g = z @ a
            acc += float(np.tanh(g @ a[:, 0]).sum()) + float((g.T @ g)[0, 0])
            if i % 8 == 0:
                acc += float((rng.standard_normal((640, 100)) @ b)[0, 0])
    if "grid" in parts:
        for start in range(0, 1024, 256):
            rows = grid[start:start + 256, None]
            acc += float(np.max(values[None, :] - 0.5 * (rows - grid[None, :]) ** 2))
    elapsed = time.perf_counter() - t
    if not np.isfinite(acc):
        raise RuntimeError("reference chunk gave a non-finite sum")
    return elapsed


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class Run:
    """Set-up, passes and (traced runs) replayed rounds of one workload."""

    def __init__(self, wl, ops, seconds: float):
        self.wl, self.ops, self.seconds = wl, ops, seconds
        self.setups: list[tuple[float, float]] = []   # windows (start, end)
        self.setup_scaled: list[float] = []             # import + build, scaled
        self.passes: list[tuple[float, float, bool, float]] = []  # (start, end, traced, scaled)
        self.probes: list[tuple[float, float]] = []
        self.results: list[dict] = []
        self.refs: list[float] = []

    def scaled(self, seconds: float) -> float:
        """``seconds`` of a unit just timed, as it would take on a host where
        each part of a reference chunk takes REF_PART_SECONDS.

        The speed of a shared host swings by a third within a second and
        stays low for minutes at a time, with the other tenants' load; a
        reference chunk run just before and just after the unit slows down
        with it, so the ratio moves with the work the unit does.  The chunk
        has the parts of the work the workload does (``wl.reference``).
        """
        parts = self.wl.reference
        before = self.refs[-1]
        self.refs.append(reference_chunk(parts))
        nominal = REF_PART_SECONDS * len(parts)
        return seconds * nominal / (0.5 * (before + self.refs[-1]))

    def setup(self, reps: int, import_time=None) -> None:
        """``reps`` input builds, each after a library import in a fresh
        interpreter when ``import_time`` is given."""
        reference_chunk(self.wl.reference)  # warm-up
        self.refs.append(reference_chunk(self.wl.reference))
        for _ in range(reps):
            imported = import_time() if import_time else 0.0
            t = time.perf_counter()
            self.wl.setup(self.ops)
            self.setups.append((t, time.perf_counter()))
            self.setup_scaled.append(self.scaled(imported + self.setups[-1][1] - t))

    def one_pass(self, traced: bool) -> None:
        self.ops.trace = traced
        t = time.perf_counter()
        try:
            self.results.append(self.wl.run_pass(self.ops))
        except OpFailed:
            return
        end = time.perf_counter()
        self.passes.append((t, end, traced, self.scaled(end - t)))

    def measure(self, traced: bool) -> None:
        """Passes until the time is up; a traced run alternates untraced and
        traced passes, then replays rounds."""
        start = time.perf_counter()
        has_probe = traced and self.wl.probe is not None
        pass_end = start + self.seconds * (PASS_SHARE if has_probe else 1.0)
        i = 0
        while i < (2 if traced else 1) or time.perf_counter() < pass_end:
            self.one_pass(traced and i % 2 == 1)
            i += 1
        if not has_probe or not self.results:
            return
        self.ops.trace = True
        end = start + self.seconds
        while len(self.probes) < MIN_PROBES or time.perf_counter() < end:
            t = time.perf_counter()
            try:
                self.wl.probe(self.ops)
            except OpFailed:
                break
            self.probes.append((t, time.perf_counter()))

    def durations(self, traced: bool, scaled: bool = True) -> list[float]:
        return [sc if scaled else e - s for s, e, tr, sc in self.passes if tr == traced]


def end_to_end(run: Run, ops) -> dict:
    return {
        "setup_s": metric(median_or_zero(run.setup_scaled), "s"),
        "run_s": metric(median_or_zero(run.durations(False)), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": metric(1.0 - ops.failed / max(ops.attempted, 1), "ratio"),
    }


def per_layer(run: Run, ops) -> dict:
    idx = SpanIndex(ops.spans)
    traced = [(s, e) for s, e, tr, _ in run.passes if tr]
    kinds = {"setup": run.setups, "pass": traced, "probe": run.probes}
    out = {}
    for name, unit, span_names, kind, how, scale in SPAN_METRICS:
        windows = kinds[kind]
        if how == "call":
            vals = [d for sn in span_names for d in idx.calls(windows, sn)]
        else:
            vals = []
            for w in windows:
                parts = [idx.total(w, sn) for sn in span_names]
                parts = [p for p in parts if p is not None]
                vals.append(sum(parts) if parts else None)
        out[name] = metric(scale * median_or_zero(vals), unit)

    wl, results = run.wl, run.results
    gda = "rounds" in results[0]
    train = [idx.total(w, "optimizer.train_gda") for w in traced] if gda else []
    round_us = median_or_zero([1e6 * t / results[0]["rounds"] for t in train if t])
    out["optimizer.round_us"] = metric(round_us, "us")
    out["gda_rounds_per_s"] = metric(1e6 / round_us if round_us else 0.0, "1/s")
    out["optimizer.eval_points"] = metric(results[0]["eval_points"] if gda else 0, "count")
    out["em.iters"] = metric(results[0]["em_iters"] if gda else 0, "count")
    flops, nbytes = wl.round_cost() if gda else (0, 0)
    out["objective.round_flops"] = metric(flops, "computed_flop")
    out["objective.round_bytes"] = metric(nbytes, "computed_byte")
    out["objective.cap_hits"] = metric(ops.cap_hits, "count")
    out["datagen.csv_bytes"] = metric(getattr(wl, "csv_bytes", 0), "byte")
    out["gat_score"] = metric(results[0]["gat_score"] if gda else 0.0, "w2")
    out["em_score"] = metric(results[0]["em_score"] if gda else 0.0, "w2")
    out["fail_ratio"] = metric(ops.failed / max(ops.attempted, 1), "ratio")

    selfs = [idx.layer_self(w) for w in traced]
    for layer in PASS_LAYERS:
        out[f"{layer}.self_ms"] = metric(1e3 * median_or_zero([s.get(layer, 0.0) for s in selfs]),
                                         "ms")
    out["bench.replay_self_us"] = metric(
        1e6 * median_or_zero([idx.layer_self(w).get("bench", 0.0) for w in run.probes]), "us")
    traced_s = median_or_zero(run.durations(True))
    out["trace.run_s"] = metric(traced_s, "s")
    out["trace.overhead_ms"] = metric(1e3 * (traced_s - median_or_zero(run.durations(False))),
                                      "ms")
    out["trace.uncovered_ms"] = metric(
        1e3 * median_or_zero([(w[1] - w[0]) - idx.top_level(w) for w in traced]), "ms")
    out["trace.spans"] = metric(len(ops.spans), "count")
    out["bench.passes"] = metric(len(run.passes), "count")
    out["bench.pass_median_s"] = metric(median_or_zero(run.durations(False, scaled=False)), "s")
    out["bench.ref_ms"] = metric(1e3 * median_or_zero(run.refs), "ms")
    return out


def write_trace(path: Path, info: dict, run: Run, ops, metrics: dict, origin: float) -> None:
    def rel(window):
        return [round(t - origin, 9) for t in window[:2]]

    doc = {
        "stamp": info,
        "units": {"setup": [rel(w) for w in run.setups],
                  "pass": [rel(w) + list(w[2:]) for w in run.passes],
                  "probe": [rel(w) for w in run.probes]},
        "spans": [[s[0], round(s[1] - origin, 9), round(s[2] - origin, 9), s[3]]
                  for s in ops.spans],
        "metrics": metrics,
    }
    path.write_text(json.dumps(doc))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "gatgmm" / "__init__.py").is_file():
        print(f"run.py: no library at {src / 'gatgmm'}; run from a gatgmm checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(MAX_BLAS_THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    origin = time.perf_counter()
    sys.path.insert(0, str(src))
    import gatgmm
    from gatgmm.errors import GatgmmError
    from workloads import WORKLOADS

    if Path(gatgmm.__file__).resolve().parent != (src / "gatgmm").resolve():
        print(f"run.py: imported gatgmm from {gatgmm.__file__}, not {src}", file=sys.stderr)
        return 2

    info = stamp(args, nproc, threads)
    out_dir = root / ".bench_out"
    scratch = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ops = Ops((GatgmmError,))
    run = Run(WORKLOADS[args.workload](args.seed, scratch), ops, args.seconds)
    traced = bool(args.trace)
    ops.trace = traced
    try:
        if traced:
            run.setup(3)
        else:
            run.setup(SETUP_REPS, lambda: import_seconds(root, src))
        run.measure(traced)
    except OpFailed:
        pass  # a set-up call failed; it is counted and reported below
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if run.results:
        run.wl.check(ops, run.results)
    else:
        ops.check(False, "no pass completed")
    correct = not ops.problems and ops.failed == 0
    if not run.results:
        metrics = {}
    elif traced:
        metrics = per_layer(run, ops)
        write_trace(out_dir / f"trace-{args.workload}-seed{args.seed}.json", info, run, ops,
                    metrics, origin)
    else:
        metrics = end_to_end(run, ops)
    for problem in dict.fromkeys(ops.problems):
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": info}))
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
