"""One per-query record: every consumer of a finished query agrees.

``Database.query`` builds ``QueryResult.summary`` once; ``report()``,
``explain(analyze=True)``, the served response, the query-log record, the
slow-query entry and the ``partitions_*_total`` counters all render from
it. These tests run queries over a 2-partition projection whose second
partition is corrupt (so results are degraded) with a queue wait, and check
each consumer against the query-log record field for field. A committed
record in the log's earlier on-disk format must still summarize and
replay.
"""

from __future__ import annotations

import asyncio
import re
from pathlib import Path

import pytest

from repro import Database, MetricsRegistry, Predicate, SelectQuery
from repro.faults import FaultInjector, FaultRule
from repro.qlog import read_query_log
from repro.serving import AsyncQueryClient, ServerThread
from repro.workload import replay_log, summarize_log

from .test_faults import make_projection, scan_query

FIXTURE = Path(__file__).parent / "fixtures" / "qlog_earlier_format.jsonl"
TIMINGS = ("wall_ms", "simulated_ms", "queue_wait_ms")


def _degraded_db(root) -> Database:
    """2 partitions, ``part0001`` always fails checksum; every query is slow."""
    db = Database(
        root,
        fault_injector=FaultInjector(
            [FaultRule(kind="corrupt", path_glob="*part0001*")], seed=0
        ),
        on_error="degrade",
        metrics=MetricsRegistry(slow_query_threshold_ms=0.0),
    )
    make_projection(db, n=20_000, partitions=2)
    return db


def _records(db) -> list[dict]:
    db.qlog.flush()
    return read_query_log(db.catalog.root / "_qlog")


def _report_fields(text: str) -> dict:
    """The per-query facts printed by ``QueryResult.report()``."""
    line = {row[:15].strip(): row[15:] for row in text.splitlines()}
    wait, total = re.fullmatch(
        r"(\S+) ms \(end-to-end (\S+) ms\)", line["queue wait"]
    ).groups()
    scanned, parts, pruned = re.fullmatch(
        r"(\d+)/(\d+) scanned, (\d+) pruned", line["partitions"]
    ).groups()
    return {
        "strategy": line["strategy"],
        "rows": int(line["rows"]),
        "wall_ms": line["wall time"].removesuffix(" ms"),
        "simulated_ms": line["model replay"].removesuffix(" ms"),
        "queue_wait_ms": wait,
        "total_ms": total,
        "partitions": {
            "total": int(parts), "scanned": int(scanned), "pruned": int(pruned),
        },
        "skipped_partitions": line["DEGRADED"].split(": ", 1)[1].split(", "),
    }


def _assert_slow_entry_agrees(entry: dict, record: dict) -> None:
    for key in ("strategy", "rows", *TIMINGS):
        assert entry[key] == record[key], key
    assert entry["degraded"] is (record["outcome"] == "degraded")


class TestEmbeddedConsumersAgree:
    def test_report_explain_qlog_slow_log_and_counters(self, tmp_path):
        db = _degraded_db(tmp_path / "db")
        registry = db.metrics
        result = db.query(scan_query(), strategy="em-parallel",
                          queue_wait_ms=4.25)
        explain = db.explain(scan_query(), analyze=True,
                             strategy="lm-parallel", queue_wait_ms=1.5)
        queried, explained = _records(db)
        slow_queried, slow_explained = registry.slow_queries.entries()

        # The query log writes the record verbatim.
        assert {k: queried[k] for k in result.summary} == result.summary
        assert queried["outcome"] == "degraded"
        assert queried["queue_wait_ms"] == 4.25
        assert queried["partitions"] == {"total": 2, "scanned": 2, "pruned": 0}
        assert queried["skipped_partitions"] == ["part0001"]

        # report() prints the same facts.
        printed = _report_fields(result.report())
        assert printed["strategy"] == queried["strategy"]
        assert printed["rows"] == queried["rows"]
        for key in TIMINGS:
            assert printed[key] == f"{queried[key]:.2f}", key
        assert printed["total_ms"] == (
            f"{queried['queue_wait_ms'] + queried['wall_ms']:.2f}"
        )
        assert printed["partitions"] == queried["partitions"]
        assert printed["skipped_partitions"] == queried["skipped_partitions"]

        # EXPLAIN ANALYZE is its own execution: part0001 is now quarantined
        # up front, so it is skipped without being scanned.
        for key in ("strategy", "rows", *TIMINGS):
            assert explain[key] == explained[key], key
        assert explained["queue_wait_ms"] == 1.5
        assert explain["total_ms"] == pytest.approx(
            explained["queue_wait_ms"] + explained["wall_ms"]
        )
        assert explain["partitions"] == explained["partitions"] == {
            "total": 2, "scanned": 1, "pruned": 0,
        }
        assert explain["degraded"] is True
        assert explain["skipped_partitions"] == explained["skipped_partitions"]

        _assert_slow_entry_agrees(slow_queried, queried)
        _assert_slow_entry_agrees(slow_explained, explained)

        # The counters sum the records, and count each newly quarantined
        # partition once (typed QueryStats fields are the ground truth).
        both = (queried, explained)
        stats = (result.stats, explain["root"].stats)
        counter = lambda name: registry.counter(name).value  # noqa: E731
        assert counter("partitions_scanned_total") == sum(
            r["partitions"]["scanned"] for r in both
        ) == sum(s.partitions_scanned for s in stats)
        assert counter("partitions_pruned_total") == sum(
            r["partitions"]["pruned"] for r in both
        ) == sum(s.partitions_pruned for s in stats)
        assert counter("partitions_quarantined_total") == sum(
            s.partitions_quarantined for s in stats
        ) == 1
        assert counter("degraded_queries_total") == 2
        db.close()


class TestServedResponseAgrees:
    def test_response_qlog_slow_log_and_history(self, tmp_path):
        db = _degraded_db(tmp_path / "db")
        with ServerThread(db, workers=1) as server:

            async def go():
                client = await AsyncQueryClient.connect(
                    server.host, server.port
                )
                response = await client.query(
                    scan_query(), strategy="em-parallel"
                )
                session = (await client.session())["session"]
                await client.close()
                return response, session

            response, session = asyncio.run(go())
        (record,) = _records(db)
        (slow,) = db.metrics.slow_queries.entries()

        assert response["ok"] and record["origin"] == "served"
        assert response["queue_wait_ms"] > 0.0  # a real admission queue
        assert response["n_rows"] == record["rows"] == len(response["rows"])
        for key in ("strategy", *TIMINGS):
            assert response[key] == record[key], key
        assert response["degraded"] is True
        assert response["skipped_partitions"] == record["skipped_partitions"]
        assert record["partitions"] == {"total": 2, "scanned": 2, "pruned": 0}
        # total_ms leaves out no worker-side work: wait + execute + result.
        assert response["total_ms"] == pytest.approx(
            response["queue_wait_ms"]
            + response["wall_ms"]
            + response["result_ms"]
        )
        assert session["history"][-1]["wall_ms"] == pytest.approx(
            response["total_ms"], abs=1e-3
        )
        _assert_slow_entry_agrees(slow, record)
        assert db.metrics.counter("partitions_scanned_total").value == (
            record["partitions"]["scanned"]
        )
        db.close()


class TestEarlierRecordFormat:
    """A record written before the one-record refactor still reads."""

    def test_summarize_and_replay(self, tmp_path):
        records = read_query_log(FIXTURE)
        assert len(records) == 1
        (record,) = records
        summary = summarize_log(records)
        assert summary.total == 1
        assert summary.partitions_scanned == record["partitions"]["scanned"]
        assert summary.partitions_pruned == record["partitions"]["pruned"]
        assert summary.counters == record["counters"]
        assert summary.queue_wait_ms_total == record["queue_wait_ms"]

        db = Database(tmp_path / "db", metrics=MetricsRegistry(),
                      query_log=False)
        make_projection(db, n=20_000, partitions=2)
        report = replay_log(db, records, check=True)
        assert report.replayed == report.matched == 1
        assert report.ok
        # The replayed query is the one the record describes.
        again = db.query(
            SelectQuery(
                projection="t",
                select=("a", "b"),
                predicates=(Predicate("a", "<", 300), Predicate("b", "<", 500)),
            ),
            strategy=record["strategy"],
            cold=True,
        )
        assert again.summary["rows"] == record["rows"]
        assert again.summary["counters"] == record["counters"]
        assert again.summary["partitions"] == record["partitions"]
        db.close()
