"""Exact-count self-check.

Runs paper-sweep and write-mix twice on one seed, untraced and traced, and
compares every metric the benchmark treats as an exact count::

    python3 perfbench/selfcheck.py [--seed 1] [--seconds 20]

Each metric prints as ``exact`` or ``DIFFERS``. A metric that differs
between two runs of the same code and seed is not a count: read it as a
timing, with its spread. The exit code is 1 when a metric listed in
``EXACT`` differs, so a change that breaks determinism shows.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED  # noqa: E402

#: Metrics that repeat exactly on one seed, by the ``--trace`` mode that
#: prints them. Each is summed or taken over a fixed window of operations.
EXACT = {
    0: ("read_sim_ms",),
    1: (
        "exec.values_scanned", "exec.tuples_constructed",
        "exec.positions_intersected", "exec.tuple_iterations",
        "exec.compressed_scans", "exec.morphs",
        "buffer.pool_hit_ratio", "buffer.decode_hit_ratio",
        "buffer.block_reads", "buffer.disk_seeks", "buffer.blocks_skipped",
        "delta.wal_bytes_per_write", "storage.merge_bytes_written",
    ),
}
#: Byte counts that carry timings in their records, so they vary in the
#: last digits; reported with their spread, not as counts.
NOT_EXACT = ("qlog.bytes_per_query",)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} trace={trace} failed")
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    broken = 0
    for workload in ("paper-sweep", "write-mix"):
        for trace, names in EXACT.items():
            names = names + (NOT_EXACT if trace else ())
            first, second = (run_once(workload, args.seed, args.seconds,
                                      trace) for _ in range(2))
            for name in names:
                same = first[name] == second[name]
                if not same and name not in NOT_EXACT:
                    broken += 1
                print(f"{workload:12s} {name:30s} "
                      f"{'exact' if same else 'DIFFERS':8s} "
                      f"{first[name]!r} {second[name]!r}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
