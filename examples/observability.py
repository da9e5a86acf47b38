"""Observability: explain, describe, and trace one query end to end.

Run with::

    python examples/observability.py

Shows the lenses the engine offers on a single query:

1. ``explain`` — the analytical model's predicted cost per strategy (what
   the optimizer sees *before* running anything);
2. ``describe`` — the chosen strategy's physical operator tree;
3. ``trace`` — what actually happened, operator by operator, with observed
   cardinalities, next to the executed query's counter-level statistics;
4. ``explain --analyze`` — the span tree: per-operator wall-clock and
   model-replay attribution (exclusive times sum exactly to the query's
   ``simulated_ms``), plus I/O and decode-cache counters;
5. the process-wide metrics registry — counters, latency histograms and the
   slow-query log accumulated across everything the example ran.
"""

from __future__ import annotations

import tempfile

from repro import REGISTRY, Database, Predicate, SelectQuery, load_tpch


def main() -> None:
    db = Database(tempfile.mkdtemp(prefix="repro_obs_"))
    load_tpch(db.catalog, scale=0.01)
    query = SelectQuery(
        projection="lineitem",
        select=("shipdate", "linenum"),
        predicates=(
            Predicate("shipdate", "<", 8700),
            Predicate("linenum", "<", 4),
        ),
    )

    print("1) explain — model predictions per strategy")
    plan = db.explain(query)
    for name, ms in sorted(plan["predictions"].items(), key=lambda kv: kv[1]):
        marker = "   <- chosen" if name == plan["chosen"] else ""
        print(f"   {name:>13}: {ms:7.2f} ms predicted{marker}")

    print("\n2) describe — the chosen strategy's physical plan")
    for line in db.describe(query, plan["chosen"]).splitlines():
        print("   " + line)

    print("\n3) trace — observed execution, operator by operator")
    result = db.query(query, strategy=plan["chosen"], cold=True, trace=True)
    for op, detail in result.spans.events():
        pretty = ", ".join(f"{k}={v}" for k, v in detail.items())
        print(f"   {op:<11} {pretty}")

    stats = result.stats
    print(
        f"\n   -> {result.n_rows} rows in {result.wall_ms:.1f} ms wall / "
        f"{result.simulated_ms:.1f} ms model-replay"
    )
    print(
        f"   counters: {stats.block_reads} block reads, "
        f"{stats.disk_seeks} seeks, {stats.blocks_skipped} blocks skipped, "
        f"{stats.buffer_hits} pool hits, "
        f"{stats.tuples_constructed} tuples constructed"
    )

    print("\nSame query, forced through the other extreme:")
    other = (
        "em-parallel" if plan["chosen"].startswith("lm") else "lm-parallel"
    )
    forced = db.query(query, strategy=other, cold=True, trace=True)
    print(
        f"   {other}: {forced.simulated_ms:.1f} ms replay, "
        f"{forced.stats.tuples_constructed} tuples constructed "
        f"(vs {stats.tuples_constructed})"
    )

    print("\n4) explain analyze — the span tree, with per-operator timing")
    report = db.explain(query, analyze=True, strategy=plan["chosen"])
    for line in report["text"].splitlines():
        print("   " + line)
    self_total = sum(
        s.self_simulated_ms(db.constants) for s in report["root"].walk()
    )
    print(
        f"   -> per-span self times sum to {self_total:.3f} ms "
        f"== query simulated_ms {report['simulated_ms']:.3f} ms"
    )

    print("\n5) metrics registry — accumulated across everything above")
    snap = REGISTRY.snapshot()
    for name, value in sorted(snap["counters"].items()):
        print(f"   {name} = {value}")
    pool = snap.get("buffer_pool", {})
    print(
        f"   buffer pool: {pool.get('hits', 0)} hits, "
        f"{pool.get('misses', 0)} misses, "
        f"{pool.get('resident_blocks', 0)} resident blocks"
    )


if __name__ == "__main__":
    main()
