"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 12 \\
        --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and every end-to-end metric; with
``--trace 1`` it carries the per-layer metrics instead, recorded from spans
around each layer call, and the spans are written to
``perfbench/out/``. The line before it is the run's provenance. The exit
code is 0 only when every operation completed with a correct answer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

DEFAULT_SEED = 1
"""Seed used while the benchmark was written."""

ALTERNATE_SEED = 7919
"""Seed kept aside, to check a claim on inputs not used while its change
was written."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def git_commit() -> str | None:
    """HEAD's commit, read from ``.git`` without running git; None outside a
    repository."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, run) -> dict:
    import numpy

    from workloads import DATA_SEED, SCALE

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scale": SCALE,
        "data_seed": DATA_SEED,
        **run.config,
    }


def end_to_end(run, scaled: bool = True) -> dict:
    """End-to-end metrics; with *scaled*, each time is expressed at
    reference speed (see speed.py)."""
    speed = run.speed

    def ms(*kinds):
        return [s * (speed.factor_at(t) if scaled else 1.0) * 1000.0
                for kind in kinds for t, s in run.timings.get(kind, ())]

    reads = ms("read")
    writes = ms("insert", "update", "delete")
    if run.window:
        start, end, paused = run.window
        completed = len(reads)
        seconds = (end - start - paused) * (
            speed.factor_between(start, end) if scaled else 1.0)
    else:
        completed = len(run.timings["loop"])
        seconds = sum(ms("loop")) / 1000.0
    return {
        "setup_s": (median(ms("setup")) / 1000.0, "s"),
        "read_p50_ms": (median(reads), "ms"),
        "read_p95_ms": (percentile(reads, 0.95), "ms"),
        "throughput_ops": (completed / seconds, "ops/s"),
        "read_sim_ms": (statistics.fmean(run.read_sim_ms), "ms"),
        "write_p50_ms": (median(writes), "ms"),
        "write_p95_ms": (percentile(writes, 0.95), "ms"),
        "merge_ms": (median(ms("merge")), "ms"),
        "space_ratio": (run.space_ratio, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def regret(run) -> float:
    """Median over instances run under ``auto`` of sim(auto) / the best
    forced strategy's sim."""
    ratios = []
    for by_strategy in run.regret.values():
        forced = [median(v) for s, v in by_strategy.items() if s != "auto"]
        if "auto" in by_strategy and forced:
            ratios.append(median(by_strategy["auto"]) / min(forced))
    return median(ratios)


def tracing_overhead_pct(run) -> float:
    """Traced over untraced latency of the same operations, as a
    percentage above 1: per operation key the two medians, weighted by the
    samples both halves hold."""
    by_key: dict = {}
    for ms, traced, key in run.reads:
        by_key.setdefault(key, ([], []))[traced].append(ms)
    traced = untraced = 0.0
    for u, t in by_key.values():
        weight = min(len(u), len(t))
        if weight:
            traced += weight * median(t)
            untraced += weight * median(u)
    return (traced / untraced - 1.0) * 100.0 if untraced else 0.0


def per_layer(run) -> dict:
    """Per-layer metrics; a layer the workload does not pass through reads
    0 (see perfbench/README.md)."""
    counts = run.counts
    tracer = run.tracer

    def layer(name: str) -> float:
        return median(run.layer.get(name, ()))

    def ratio(hits: str, misses: str) -> float:
        total = counts.get(hits, 0) + counts.get(misses, 0)
        return counts.get(hits, 0) / total if total else 0.0

    def us(span: str) -> float:
        return median(tracer.durations_ms(span)) * 1000.0

    after = layer("delta.pending_after_ms")
    metrics = {
        "serving.overhead_ms": (layer("serving.overhead_ms"), "ms"),
        "serving.queue_wait_ms": (layer("serving.queue_wait_ms"), "ms"),
        "sql.parse_bind_us": (us("sql.parse_bind"), "us"),
        "planner.resolve_us": (us("planner.resolve"), "us"),
        "planner.choose_us": (us("planner.choose"), "us"),
        "planner.regret": (regret(run), "ratio"),
        "model.err_ratio": (layer("model.err_ratio"), "ratio"),
        "engine.dispatch_ms": (layer("engine.dispatch_ms"), "ms"),
        "exec.wall_ms": (layer("exec.wall_ms"), "ms"),
    }
    for name in ("values_scanned", "tuples_constructed",
                 "positions_intersected", "tuple_iterations",
                 "compressed_scans", "morphs"):
        metrics[f"exec.{name}"] = (counts.get(name, 0), "count")
    metrics.update({
        "buffer.pool_hit_ratio": (ratio("buffer_hits", "block_reads"),
                                  "ratio"),
        "buffer.decode_hit_ratio": (ratio("decode_hits", "decode_misses"),
                                    "ratio"),
    })
    for name in ("block_reads", "disk_seeks", "blocks_skipped"):
        metrics[f"buffer.{name}"] = (counts.get(name, 0), "count")
    metrics.update({
        "result.rows_ms": (layer("result.rows_ms"), "ms"),
        "delta.insert_ms": (median(tracer.durations_ms("delta.insert")),
                            "ms"),
        "delta.update_ms": (median(tracer.durations_ms("delta.update")),
                            "ms"),
        "delta.delete_ms": (median(tracer.durations_ms("delta.delete")),
                            "ms"),
        "delta.pending_read_ratio": (
            layer("delta.pending_before_ms") / after if after else 0.0,
            "ratio"),
        "delta.wal_bytes_per_write": (
            run.wal_bytes / run.wal_writes if run.wal_writes else 0.0,
            "bytes"),
        "storage.merge_bytes_written": (median(run.merge_bytes), "bytes"),
        "qlog.bytes_per_query": (
            run.qlog[0] / run.qlog[1] if run.qlog[1] else 0.0, "bytes"),
        "trace.overhead_pct": (tracing_overhead_pct(run), "%"),
    })
    return metrics


def scaled_layers(metrics: dict, factor: float) -> dict:
    """Per-layer times scaled by the run's median speed factor."""
    return {
        name: (value * factor if unit in ("ms", "us") else value, unit)
        for name, (value, unit) in metrics.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-sweep", "served-mix", "write-mix"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'} "
              "not found); run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from spans import Tracer
    from workloads import WORKLOADS, Run

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
              work=work, tracer=Tracer(bool(args.trace)))
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run.speed.measure()
    header = dict(provenance(args, run), speed_factor=run.speed.factor,
                  calibrations=len(run.speed.samples))
    if args.trace:
        raw = per_layer(run)
        metrics = scaled_layers(raw, run.speed.factor)
    else:
        raw = end_to_end(run, scaled=False)
        metrics = end_to_end(run)
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.parent.mkdir(exist_ok=True)
    if args.trace:
        run.tracer.write(out.with_suffix(".spans.json"), header)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out.with_suffix(".json").write_text(
        json.dumps(dict(result, provenance=header,
                        raw={n: v for n, (v, _) in raw.items()}),
                   indent=2) + "\n",
        encoding="utf-8")
    for message in run.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print("provenance " + json.dumps(header, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
