"""Failure injection for range-partitioned projections.

A damaged partition must never yield a partial answer: block corruption
mid-partition aborts the query with a truncated-but-valid span tree, and a
missing or mangled partition file surfaces as a :class:`CatalogError` that
names the offending partition.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, Predicate, SelectQuery
from repro.dtypes import INT32, ColumnSchema
from repro.errors import CatalogError, CorruptBlockError
from repro.storage import ColumnFile
from repro.storage.projection import Projection

from .test_failure_injection import corrupt_byte

N_ROWS = 40_000
N_PARTITIONS = 4


def _make_db(root, parallel_scans=0) -> Database:
    db = Database(root, parallel_scans=parallel_scans)
    rng = np.random.default_rng(17)
    a = np.sort(rng.integers(0, 1000, size=N_ROWS)).astype(np.int32)
    b = rng.integers(0, 1000, size=N_ROWS).astype(np.int32)
    db.catalog.create_projection(
        "t",
        {"a": a, "b": b},
        schemas={"a": ColumnSchema("a", INT32), "b": ColumnSchema("b", INT32)},
        sort_keys=["a"],
        encodings={"a": ["uncompressed"], "b": ["uncompressed"]},
        presorted=True,
        partitions=N_PARTITIONS,
    )
    return db


def _partition_dir(db_root, index: int):
    parent = Database(db_root).projection("t")
    return parent.partitions[index].directory


def _full_scan_query() -> SelectQuery:
    # ``!=`` predicates overlap every zone map, so no partition is pruned
    # and the damaged one is guaranteed to be visited.
    return SelectQuery(
        projection="t",
        select=("a", "b"),
        predicates=(Predicate("a", "!=", -1), Predicate("b", "!=", -1)),
    )


class TestCorruptBlockMidPartition:
    """A flipped byte inside one partition's column file."""

    def _corrupt_partition_block(self, root, index=2):
        db = _make_db(root)
        child = Projection.open(_partition_dir(root, index))
        path = child.column("b").files["uncompressed"]
        cf = ColumnFile.open(path)
        target = cf.descriptors[len(cf.descriptors) // 2]
        corrupt_byte(path, target.offset + 5)

    def _assert_truncated_tree(self, excinfo):
        root = getattr(excinfo.value, "spans", None)
        assert root is not None, "error carried no span tree"
        assert root.open_spans() == [], "dangling open spans after failure"
        assert root.status == "error"
        assert root.detail["error"] == "CorruptBlockError"

    @pytest.mark.parametrize(
        "strategy", ["em-parallel", "lm-parallel", "em-pipelined"]
    )
    def test_serial_partition_failure_truncates_spans(self, tmp_path, strategy):
        self._corrupt_partition_block(tmp_path)
        db = Database(tmp_path)
        with pytest.raises(CorruptBlockError) as excinfo:
            db.query(_full_scan_query(), strategy=strategy, cold=True, trace=True)
        self._assert_truncated_tree(excinfo)

    @pytest.mark.parametrize("strategy", ["em-parallel", "lm-parallel"])
    def test_parallel_partition_failure_truncates_spans(
        self, tmp_path, strategy
    ):
        self._corrupt_partition_block(tmp_path)
        with Database(tmp_path, parallel_scans=2) as db:
            with pytest.raises(CorruptBlockError) as excinfo:
                db.query(
                    _full_scan_query(), strategy=strategy, cold=True, trace=True
                )
            self._assert_truncated_tree(excinfo)

    def test_healthy_partitions_still_queryable_when_pruned(self, tmp_path):
        # Zone-map pruning that skips the damaged partition means the query
        # never touches it and succeeds.
        self._corrupt_partition_block(tmp_path, index=N_PARTITIONS - 1)
        db = Database(tmp_path)
        proj = db.projection("t")
        bad_zone = proj.partitions[-1].zone_maps["a"]
        query = SelectQuery(
            projection="t",
            select=("a", "b"),
            predicates=(Predicate("a", "<", bad_zone.min_value),),
        )
        result = db.query(query, cold=True, trace=True)
        assert result.stats.partitions_pruned >= 1
        assert all(row[0] < bad_zone.min_value for row in result.rows())


class TestMissingPartitionFiles:
    """Lost partition data is a catalog failure naming the partition."""

    def test_deleted_column_file_names_partition(self, tmp_path):
        _make_db(tmp_path)
        child = Projection.open(_partition_dir(tmp_path, 1))
        child.column("b").files["uncompressed"].unlink()
        db = Database(tmp_path)
        with pytest.raises(CatalogError, match="part0001"):
            db.query(_full_scan_query(), cold=True)

    def test_deleted_partition_metadata_names_partition(self, tmp_path):
        _make_db(tmp_path)
        (_partition_dir(tmp_path, 3) / "projection.json").unlink()
        db = Database(tmp_path)
        with pytest.raises(CatalogError, match="part0003"):
            db.query(_full_scan_query(), cold=True)

    def test_corrupt_partition_metadata_names_partition(self, tmp_path):
        _make_db(tmp_path)
        meta = _partition_dir(tmp_path, 0) / "projection.json"
        meta.write_text("{ this is not json")
        db = Database(tmp_path)
        with pytest.raises(CatalogError, match="part0000"):
            db.query(_full_scan_query(), cold=True)

    def test_failure_is_all_or_nothing(self, tmp_path):
        # Even though three partitions are intact, no partial row set leaks
        # out: the query raises and returns nothing.
        _make_db(tmp_path)
        child = Projection.open(_partition_dir(tmp_path, 2))
        child.column("a").files["uncompressed"].unlink()
        db = Database(tmp_path)
        with pytest.raises(CatalogError, match="part0002"):
            db.query(_full_scan_query(), cold=True, trace=True)
