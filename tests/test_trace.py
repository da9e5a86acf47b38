"""Tests for execution tracing."""

import pytest

from repro import JoinQuery, Predicate, SelectQuery, Strategy


@pytest.fixture()
def query():
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "linenum"),
        predicates=(
            Predicate("shipdate", "<", 8800),
            Predicate("linenum", "<", 7),
        ),
    )


def ops(trace):
    return [op for op, _detail in trace]


class TestTrace:
    def test_disabled_by_default(self, tpch_db, query):
        assert tpch_db.query(query).spans is None

    def test_lm_parallel_shape(self, tpch_db, query):
        r = tpch_db.query(query, strategy=Strategy.LM_PARALLEL, trace=True)
        assert ops(r.spans.events()) == [
            "DS1", "DS1", "AND", "DS3", "DS3", "MERGE", "OUTPUT"
        ]
        and_event = dict(r.spans.events())[("AND")]
        assert and_event["positions"] == r.n_rows
        # Both extractions served from pinned mini-columns.
        assert all(
            d["pinned"] for op, d in r.spans.events() if op == "DS3"
        )

    def test_lm_pipelined_shape(self, tpch_db, query):
        r = tpch_db.query(query, strategy=Strategy.LM_PIPELINED, trace=True)
        names = ops(r.spans.events())
        assert names[0] == "DS1"
        assert "DS3+filter" in names
        assert names[-2:] == ["MERGE", "OUTPUT"]
        assert "AND" not in names  # pipelining obviates the AND

    def test_em_pipelined_shape(self, tpch_db, query):
        r = tpch_db.query(query, strategy=Strategy.EM_PIPELINED, trace=True)
        names = ops(r.spans.events())
        assert names[0] == "DS2"
        assert "DS4" in names
        ds4 = [d for op, d in r.spans.events() if op == "DS4"][0]
        assert ds4["tuples_out"] <= ds4["tuples_in"]

    def test_em_parallel_shape(self, tpch_db, query):
        r = tpch_db.query(query, strategy=Strategy.EM_PARALLEL, trace=True)
        names = ops(r.spans.events())
        assert names == ["SPC", "OUTPUT"]
        spc = r.spans.events()[0][1]
        assert spc["tuples"] == r.n_rows

    def test_index_path_traced(self, tpch_db):
        q = SelectQuery(
            projection="lineitem",
            select=("returnflag",),
            predicates=(Predicate("returnflag", "=", 1),),
        )
        r = tpch_db.query(q, strategy=Strategy.LM_PARALLEL, trace=True)
        ds1 = [d for op, d in r.spans.events() if op == "DS1"][0]
        assert ds1["via"] == "index"

    def test_counts_consistent_with_result(self, tpch_db, query):
        r = tpch_db.query(query, strategy=Strategy.LM_PARALLEL, trace=True)
        merge = [d for op, d in r.spans.events() if op == "MERGE"][0]
        assert merge["tuples"] == r.n_rows

    def test_join_traced(self, tpch_db):
        jq = JoinQuery(
            left="orders",
            right="customer",
            left_key="custkey",
            right_key="custkey",
            left_select=("shipdate",),
            right_select=("nationcode",),
            left_predicates=(Predicate("custkey", "<", 50),),
        )
        r = tpch_db.query(jq, strategy="materialized", trace=True)
        names = ops(r.spans.events())
        assert names[0] == "DS1"
        assert "SPC" in names
        assert "JOIN" in names
        assert "MERGE" in names
        assert names[-1] == "OUTPUT"
