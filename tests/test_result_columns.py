"""Columnar result building: ``columns()``, ``rows()``, ``decoded_rows()``.

The vectorized builders must equal the per-value reference builders in
``tests/reference.py`` on arbitrary results, and a result served over the
wire (column-major ``data`` frame, rebuilt into rows by the client) must
equal the embedded one — raw values exactly, decoded dates as ISO-8601.
"""

from __future__ import annotations

import asyncio
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, Predicate, SelectQuery
from repro.dtypes import DATE, INT32, INT64, UINT8, ColumnSchema
from repro.engine import QueryResult
from repro.metrics import QueryStats
from repro.operators import TupleSet
from repro.serving import AsyncQueryClient, ServerThread

from .reference import reference_columns, reference_decoded_rows, reference_rows

_EPOCH = date(1970, 1, 1)
_DAYS = ((date.min - _EPOCH).days, (date.max - _EPOCH).days)
_INT64 = (-(2**63), 2**63 - 1)


@st.composite
def results(draw):
    """A QueryResult over 0..4 columns of plain ints (negatives included),
    dictionary codes and day numbers, with 0..30 rows."""
    n_rows = draw(st.integers(0, 30))
    n_cols = draw(st.integers(0, 4))
    names, columns, schemas = [], [], {}
    for i in range(n_cols):
        name = f"c{i}"
        kind = draw(st.sampled_from(["plain", "dictionary", "date"]))
        if kind == "dictionary":
            words = tuple(draw(st.lists(st.text(max_size=4), min_size=1,
                                        max_size=5, unique=True)))
            schemas[name] = ColumnSchema(name, UINT8, dictionary=words)
            bounds = (0, len(words) - 1)
        elif kind == "date":
            schemas[name] = ColumnSchema(name, DATE)
            bounds = _DAYS
        else:
            bounds = _INT64
        names.append(name)
        columns.append(draw(st.lists(st.integers(*bounds), min_size=n_rows,
                                     max_size=n_rows)))
    data = np.array(columns, dtype=np.int64).T.reshape(n_rows, n_cols)
    return QueryResult(
        tuples=TupleSet(columns=tuple(names), data=np.ascontiguousarray(data)),
        strategy="lm-parallel",
        stats=QueryStats(),
        wall_ms=0.0,
        simulated_ms=0.0,
        schemas=schemas,
    )


class TestBuildersMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(results())
    def test_vectorized_builders_equal_per_value_oracle(self, result):
        assert result.rows() == reference_rows(result)
        assert result.decoded_rows() == reference_decoded_rows(result)
        assert result.columns() == reference_columns(result)
        assert result.columns(decoded=True) == reference_columns(
            result, decoded=True
        )

    def test_zero_columns_give_empty_tuples(self):
        result = QueryResult(
            tuples=TupleSet(columns=(), data=np.empty((3, 0), np.int64)),
            strategy="em-parallel",
            stats=QueryStats(),
            wall_ms=0.0,
            simulated_ms=0.0,
        )
        assert result.rows() == [()] * 3
        assert result.decoded_rows() == [()] * 3
        assert result.columns() == []

    def test_values_are_python_scalars(self, tpch_db):
        result = tpch_db.sql(
            "SELECT returnflag, shipdate, linenum FROM lineitem "
            "WHERE linenum < 3"
        )
        flag, shipdate, linenum = result.decoded_rows()[0]
        assert type(flag) is str and type(shipdate) is date
        assert type(linenum) is int
        assert all(type(v) is int for v in result.rows()[0])


N_WIDE = 120_000


@pytest.fixture(scope="module")
def wide_db(tmp_path_factory):
    """One projection of N_WIDE rows: a dictionary column, a date column and
    plain ints with negatives."""
    db = Database(tmp_path_factory.mktemp("wide") / "db")
    rng = np.random.default_rng(11)
    data = {
        "k": np.arange(N_WIDE, dtype=np.int64) - N_WIDE // 2,
        "flag": rng.integers(0, 3, N_WIDE).astype(np.uint8),
        "day": rng.integers(8000, 10000, N_WIDE).astype(np.int32),
        "v": rng.integers(-1000, 1000, N_WIDE).astype(np.int32),
    }
    db.catalog.create_projection(
        "wide",
        data,
        schemas={
            "k": ColumnSchema("k", INT64),
            "flag": ColumnSchema("flag", UINT8, dictionary=("A", "N", "R")),
            "day": ColumnSchema("day", DATE),
            "v": ColumnSchema("v", INT32),
        },
        sort_keys=["k"],
        encodings={
            "k": ["uncompressed"],
            "flag": ["dictionary"],
            "day": ["uncompressed"],
            "v": ["uncompressed"],
        },
        presorted=True,
    )
    with ServerThread(db, workers=1) as server:
        yield db, server
    db.close()


def _iso(rows):
    return [
        tuple(v.isoformat() if isinstance(v, date) else v for v in row)
        for row in rows
    ]


class TestWireRoundTrip:
    @pytest.mark.parametrize(
        "predicates, expected_rows",
        [((), N_WIDE), ((Predicate("v", ">", 5000),), 0)],
        ids=["all-rows", "empty"],
    )
    def test_served_rows_equal_embedded(self, wide_db, predicates,
                                        expected_rows):
        db, server = wide_db
        query = SelectQuery(
            projection="wide",
            select=("flag", "k", "day", "v"),
            predicates=predicates,
        )

        async def go():
            client = await AsyncQueryClient.connect(server.host, server.port)
            raw = await client.query(query, strategy="lm-parallel")
            decoded = await client.query(
                query, strategy="lm-parallel", decoded=True
            )
            await client.close()
            return raw, decoded

        raw, decoded = asyncio.run(go())
        direct = db.query(query, strategy="lm-parallel")
        assert direct.n_rows == expected_rows
        assert raw["ok"] and decoded["ok"]
        assert "data" not in raw and raw["n_rows"] == expected_rows
        assert raw["columns"] == ["flag", "k", "day", "v"]
        assert raw["rows"] == direct.rows()
        assert decoded["rows"] == _iso(direct.decoded_rows())
        assert raw["result_ms"] >= 0.0
