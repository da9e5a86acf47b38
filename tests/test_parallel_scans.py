"""Concurrent scan leaves must be observationally identical to serial runs."""

import pytest

from repro import Database, Predicate, SelectQuery
from repro.buffer import BufferPool
from repro.metrics import QueryStats
from repro.operators.base import ExecutionContext
from repro.operators.scheduler import ScanScheduler
from repro.tpch.generator import SHIPDATE_MAX, SHIPDATE_MIN

ENCODINGS = ("uncompressed", "rle", "bitvector")
STRATEGIES = ("em-parallel", "lm-parallel")


def _selection(encoding: str, selectivity: float = 0.1) -> SelectQuery:
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "linenum"),
        predicates=(
            Predicate(
                "shipdate",
                "<",
                int(SHIPDATE_MIN + selectivity * (SHIPDATE_MAX + 1 - SHIPDATE_MIN)),
            ),
            Predicate("linenum", "<", 7),
        ),
        encodings=(("linenum", encoding),),
    )


class TestSchedulerUnit:
    def test_results_in_task_order(self):
        import time

        ctx = ExecutionContext(pool=BufferPool(), stats=QueryStats())
        scheduler = ScanScheduler(max_workers=4)
        try:

            def make(i):
                def task(leaf_ctx):
                    time.sleep(0.01 * (4 - i))  # later tasks finish first
                    leaf_ctx.stats.function_calls += i
                    return i

                return task

            results = scheduler.run(ctx, [make(i) for i in range(4)])
            assert results == [0, 1, 2, 3]
            assert ctx.stats.function_calls == 0 + 1 + 2 + 3
        finally:
            scheduler.close()

    def test_first_error_propagates_after_barrier(self):
        ctx = ExecutionContext(pool=BufferPool(), stats=QueryStats())
        scheduler = ScanScheduler(max_workers=2)
        try:

            def ok(leaf_ctx):
                leaf_ctx.stats.function_calls += 1
                return "ok"

            def boom(leaf_ctx):
                leaf_ctx.stats.function_calls += 1
                raise RuntimeError("leaf failed")

            with pytest.raises(RuntimeError, match="leaf failed"):
                scheduler.run(ctx, [ok, boom, ok])
            # Every leaf still ran and merged before the raise.
            assert ctx.stats.function_calls == 3
        finally:
            scheduler.close()

    def test_close_is_idempotent(self):
        scheduler = ScanScheduler(max_workers=1)
        scheduler.close()
        scheduler.close()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ScanScheduler(max_workers=0)

    def test_map_leaves_serial_without_scheduler(self):
        ctx = ExecutionContext(pool=BufferPool(), stats=QueryStats())
        results = ctx.map_leaves([lambda c: 1, lambda c: 2])
        assert results == [1, 2]


class TestParallelIdentity:
    """Parallel-scan runs produce the same rows, stats, and simulated cost."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_matches_serial(self, tpch_db, encoding, strategy):
        root = tpch_db.catalog.root
        query = _selection(encoding)
        serial = Database(root, parallel_scans=0)
        with Database(root, parallel_scans=4) as parallel:
            runs = {}
            for name, db in (("serial", serial), ("parallel", parallel)):
                cold = db.query(query, strategy=strategy, cold=True)
                warm = db.query(query, strategy=strategy)
                runs[name] = (cold, warm)
            for cold_or_warm in (0, 1):
                a = runs["serial"][cold_or_warm]
                b = runs["parallel"][cold_or_warm]
                assert b.rows() == a.rows()
                assert b.simulated_ms == a.simulated_ms
                assert b.stats.as_dict() == a.stats.as_dict()

    def test_parallel_aggregation_matches_serial(self, tpch_db):
        from repro import AggSpec

        query = SelectQuery(
            projection="lineitem",
            select=("shipdate", "sum(linenum)"),
            predicates=(
                Predicate("shipdate", "<", SHIPDATE_MIN + 2000),
                Predicate("linenum", "<", 7),
            ),
            group_by="shipdate",
            aggregates=(AggSpec("sum", "linenum"),),
            encodings=(("linenum", "rle"),),
        )
        root = tpch_db.catalog.root
        serial = Database(root, parallel_scans=0)
        with Database(root, parallel_scans=4) as parallel:
            for strategy in STRATEGIES:
                a = serial.query(query, strategy=strategy, cold=True)
                b = parallel.query(query, strategy=strategy, cold=True)
                assert b.rows() == a.rows()
                assert b.simulated_ms == a.simulated_ms
                assert b.stats.as_dict() == a.stats.as_dict()

    def test_traces_cover_same_events(self, tpch_db):
        """Trace merge is per-leaf (task order), so event multisets match."""
        root = tpch_db.catalog.root
        query = _selection("rle")
        serial = Database(root, parallel_scans=0)
        with Database(root, parallel_scans=4) as parallel:
            a = serial.query(query, strategy="lm-parallel", trace=True)
            b = parallel.query(query, strategy="lm-parallel", trace=True)
            assert sorted(map(repr, a.spans.events())) == sorted(
                map(repr, b.spans.events())
            )

    def test_repeated_parallel_runs_are_stable(self, tpch_db):
        """No flaky interleaving effects: N parallel runs, one answer."""
        query = _selection("uncompressed", selectivity=0.5)
        with Database(tpch_db.catalog.root, parallel_scans=4) as db:
            baseline = db.query(query, strategy="em-parallel", cold=True)
            for _ in range(5):
                again = db.query(query, strategy="em-parallel", cold=True)
                assert again.rows() == baseline.rows()
                assert again.stats.as_dict() == baseline.stats.as_dict()
