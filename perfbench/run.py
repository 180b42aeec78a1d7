#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer timings of three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_step --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracer.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record of the run (environment, tail
percentiles, set-up samples, failures) goes to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json`` and a traced run's
spans to ``.perfbench_out/<workload>-seed<seed>-spans.jsonl``.

The exit code is 0 for a correct run, 1 when an operation failed its check
and 2 when the checkout holds no ``src/repro`` package to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

#: BLAS threads, pinned before numpy loads.  One thread is as fast as two for
#: these GEMM shapes on a 2-core host and is steadier when the host is shared.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics: name -> unit (BENCHMARK.json holds bounds and meaning).
END_TO_END = {
    "setup_s": "s",
    "write_ms_p50": "ms",
    "read_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

WORKLOADS = ("paper_step", "fig3a_fast", "fleet_n1000")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size",
        default="full",
        choices=("full", "smoke"),
        help="'smoke' shrinks every workload for the benchmark's self-test",
    )
    return parser.parse_args(argv)


def tail(samples):
    """Highest percentile with TAIL_BEYOND samples beyond it, or None."""
    ordered = sorted(samples)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return {"value_ms": None, "percentile": None, "samples": count}
    rank = count - TAIL_BEYOND
    return {
        "value_ms": ordered[rank - 1],
        "percentile": 100.0 * rank / count,
        "samples": count,
    }


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def end_to_end_metrics(session) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(session.setup_s),
        "write_ms_p50": statistics.median(session.samples["write"]),
        "read_ms_p50": statistics.median(session.samples["read"]),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(session, tracing) -> dict:
    tracer = session.tracer
    summary = tracer.summary()
    metrics = {}
    for name, has_children in tracing.span_metric_names():
        entry = summary.get(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.self_ms"] = (entry["self_ms"], "ms")
        if has_children:
            metrics[f"{name}.total_ms"] = (entry["total_ms"], "ms")
    metrics.update(tracing.count_metrics(tracer))
    results = session.results
    metrics["fleet.medium_occupancy"] = (results.get("medium_occupancy", 0.0), "ratio")
    metrics["split.sim_train_s"] = (results["sim_train_s"], "sim_s")
    metrics["split.val_rmse_db"] = (results["val_rmse_db"], "dB")
    for kind in ("write", "read"):
        overhead = statistics.median(session.traced_samples[kind]) - statistics.median(
            session.samples[kind]
        )
        metrics[f"trace.{kind}_overhead_ms"] = (overhead, "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    for variable in BLAS_ENV:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

    import tracer as tracing
    import workloads

    session = workloads.Session(
        seconds=args.seconds,
        tracer=tracing.Tracer(tracing.COUNT_HOOKS) if args.trace else None,
    )
    runners = {
        "paper_step": lambda: workloads.paper_step(session, args.seed, args.size),
        "fig3a_fast": lambda: workloads.fig3a_fast(
            session, args.seed, args.size, WORK_DIR
        ),
        "fleet_n1000": lambda: workloads.fleet_n1000(session, args.seed, args.size),
    }
    WORK_DIR.mkdir(exist_ok=True)
    started = time.perf_counter()
    try:
        runners[args.workload]()
    except workloads.OperationFailed:
        pass
    finally:
        session.set_traced(False)
    left_behind = tracing.installed_wrappers()
    if left_behind:
        session.failures.append(f"tracer wrappers left installed: {left_behind}")

    correct = not session.failures
    metrics = {}
    if correct:
        metrics = (
            per_layer_metrics(session, tracing)
            if args.trace
            else end_to_end_metrics(session)
        )
    stem = f"{args.workload}-seed{args.seed}"
    record = {
        "environment": environment(args),
        "wall_s": time.perf_counter() - started,
        "setup_s": session.setup_s,
        "samples_ms": session.samples,
        "traced_samples_ms": session.traced_samples,
        "tails_ms": {kind: tail(values) for kind, values in session.samples.items()},
        "results": session.results,
        "metrics": metrics,
        "failures": session.failures,
    }
    if session.tracer is not None:
        record["spans_file"] = str(
            session.tracer.write(OUT_DIR / f"{stem}-spans.jsonl").relative_to(ROOT)
        )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for failure in session.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"], "tails_ms": record["tails_ms"]}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": session.attempted,
                "failed": len(session.failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
