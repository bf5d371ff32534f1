"""Benchmark command for mpsprep.

    python3 perfbench/run.py --workload dense-verified --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Runs whole rounds of one workload's operations (see workloads.py) for at
least ``--seconds`` seconds, checks every output against oracle.py and
prints one line per metric, then the result as one JSON object on the
last line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps mpsprep's layer functions (tracing.py), reports per-layer metrics
and writes the spans to perfbench/out/. mpsprep is imported from
``src/`` next to this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (metric, layer, statistic, unit). Inclusive time per operation unless
# the statistic is self_ms (span time minus child spans).
PER_LAYER = [
    ("functions.assemble.ms", "functions.assemble", "ms", "ms/op"),
    ("functions.assemble.max_bond", None, "max_bond", "count"),
    ("mps.compress_als.ms", "mps.compress_als", "ms", "ms/op"),
    ("mps.tt_round.ms", "mps.tt_round", "ms", "ms/op"),
    ("functions.fit_piecewise.ms", "functions.fit_piecewise", "ms", "ms/op"),
    ("functions.poly_mps.calls", "functions.poly_mps", "calls", "calls/op"),
    ("mps.to_statevector.ms", "mps.to_statevector", "ms", "ms/op"),
    ("simulate.run.ms", "simulate.run", "ms", "ms/op"),
    ("functions.target_amplitudes.ms", "functions.target_amplitudes", "ms", "ms/op"),
    ("simulate.error_decomposition.ms", "simulate.error_decomposition", "self_ms", "ms/op"),
    ("simulate.dense_bytes", None, "dense_bytes", "B/op"),
    ("linalg.truncated_svd.calls", "linalg.truncated_svd", "calls", "calls/op"),
    ("linalg.truncated_svd.ms", "linalg.truncated_svd", "ms", "ms/op"),
    ("linalg.null_space_completion.calls", "linalg.null_space_completion", "calls", "calls/op"),
    ("linalg.null_space_completion.ms", "linalg.null_space_completion", "ms", "ms/op"),
    ("linalg.polyfit_least_squares.calls", "linalg.polyfit_least_squares", "calls", "calls/op"),
    ("circuits.extract_circuit.ms", "circuits.extract_circuit", "ms", "ms/op"),
    ("mps.unfolding_spectra.ms", "mps.unfolding_spectra", "ms", "ms/op"),
    ("analysis.fit_decay.ms", "analysis.fit_decay", "ms", "ms/op"),
    ("mps.to_mps_exact.ms", "mps.to_mps_exact", "ms", "ms/op"),
    ("circuits.circuit_to_mps.ms", "circuits.circuit_to_mps", "ms", "ms/op"),
    ("mps.overlap.ms", "mps.overlap", "ms", "ms/op"),
    ("pipeline.serialize_circuit.ms", "pipeline.serialize_circuit", "ms", "ms/op"),
    ("pipeline.deserialize_circuit.ms", "pipeline.deserialize_circuit", "ms", "ms/op"),
    ("pipeline.encode.ms", "pipeline.encode", "self_ms", "ms/op"),
    ("traced.ops_per_s", None, "ops_per_s", "1/s"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="dense-verified, large-n, campaign or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS/OpenMP threads, pinned before numpy loads (at most the CPU count)")
    args = p.parse_args(argv)
    if not 1 <= args.blas_threads <= (os.cpu_count() or 1):
        p.error(f"--blas-threads must be between 1 and {os.cpu_count()}")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_mpsprep():
    if not (SRC / "mpsprep" / "__init__.py").is_file():
        sys.exit(f"no mpsprep sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mpsprep

    if not pathlib.Path(mpsprep.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported mpsprep from {mpsprep.__file__}, not from {SRC}")
    return mpsprep


def measure_setup() -> float:
    """Median over fresh interpreters of import plus one warm-up encode."""
    runs = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"setup probe failed: {done.stderr.strip()}")
        runs.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(runs)


def run_rounds(ops, seconds: float, tracer):
    """Repeat the round until `seconds` have passed; only the calls are timed."""
    from oracle import CheckFailed

    times_ns, infid, problems = [], [], []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        rounds += 1
        for op in ops:
            tracer.op = attempted
            tracer.enabled = tracer.installed
            error = ""
            t0 = time.perf_counter_ns()
            try:
                out = op.call()
            except Exception as exc:  # a raising operation is a failed one
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter_ns() - t0
            tracer.enabled = False
            times_ns.append(dt)
            attempted += 1
            if not error:
                try:
                    infid.extend(op.check(out))
                except CheckFailed as exc:
                    error = str(exc)
            if error:
                failed += 1
                problems.append((op, error))
    return times_ns, infid, attempted, failed, rounds, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(args.blas_threads)
    os.environ.pop("MPSPREP_DENSE_LIMIT", None)  # the program's default dense limit applies
    if args.workload == "all":
        return run_all(args)

    mpsprep = import_mpsprep()
    import numpy as np
    import scipy

    from tracing import Tracer
    from workloads import WORKLOADS, warmups

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    setup_s = measure_setup()
    tracer = Tracer()
    if args.trace:
        tracer.install(mpsprep)
    OUT.mkdir(exist_ok=True)
    ops = WORKLOADS[args.workload](mpsprep, np.random.default_rng(args.seed), OUT)
    for warm in warmups(mpsprep):
        warm()

    times_ns, infid, attempted, failed, rounds, problems = run_rounds(ops, args.seconds, tracer)
    unexpected = [(op, err) for op, err in problems if not op.expected_fault]
    timed_s = sum(times_ns) / 1e9
    ops_per_s = (attempted - failed) / timed_s

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={args.blas_threads} cpus={os.cpu_count()} "
          f"python={platform.python_version()} numpy={np.__version__} scipy={scipy.__version__}")
    print(f"  rounds={rounds} ops/round={len(ops)} attempted={attempted} failed={failed} "
          f"(expected faults {len(problems) - len(unexpected)})")
    for op, err in _first_per_label(problems):
        kind = f"expected fault ({op.expected_fault})" if op.expected_fault else "UNEXPECTED"
        print(f"  failed: {op.label}: {err} [{kind}]")

    if args.trace:
        metrics = layer_metrics(tracer, attempted, ops_per_s)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans, {"workload": args.workload, "seed": args.seed, "ops": attempted})
        print(f"  spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
        notes = {}
    else:
        # 1 - F at or below round-off reads as 1e-16; with no passing
        # operation at all the accuracy is the worst possible, 1.
        logs = [math.log(max(x, 1e-16)) for x in infid]
        infid_gmean = math.exp(statistics.fmean(logs)) if logs else 1.0
        metrics = {
            "setup_s": (setup_s, "s"),
            # The high median: with an even count it is the upper middle
            # sample, not the mean of two values from different N.
            "op_ms_p50": (statistics.median_high(times_ns) / 1e6, "ms"),
            "ops_per_s": (ops_per_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "infidelity_gmean": (infid_gmean, "1"),
        }
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh processes",
            "op_ms_p50": f"n={len(times_ns)}" + (
                f", p90 {statistics.quantiles(times_ns, n=10)[-1] / 1e6:.4g} ms"
                if len(times_ns) >= 100 else ""),
            "ops_per_s": f"{attempted - failed} ops in {timed_s:.3f} s of calls",
            "infidelity_gmean": f"over {len(infid)} fidelities",
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {unit:<8} {notes.get(name, '')}")

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _first_per_label(problems):
    seen = {}
    for op, err in problems:
        seen.setdefault(op.label, (op, err))
    return list(seen.values())


def layer_metrics(tracer, ops: int, ops_per_s: float) -> dict:
    layers = tracer.layers()
    extra = {"max_bond": tracer.assemble_max_bond, "dense_bytes": tracer.dense_bytes / ops,
             "ops_per_s": ops_per_s}
    out = {}
    for name, layer, stat, unit in PER_LAYER:
        if layer is None:
            value = extra[stat]
        else:
            value = layers.get(layer, {}).get(stat, 0) / ops
        out[name] = (value, unit)
    return out


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--blas-threads", str(args.blas_threads)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
