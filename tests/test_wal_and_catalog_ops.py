"""Tests for WAL durability, drop_projection, and storage reports."""

import json
from datetime import date

import numpy as np
import pytest

from repro import Database, load_tpch
from repro.errors import CatalogError, ExecutionError


def order_row(custkey=1):
    return {"shipdate": date(1999, 1, 1), "custkey": custkey}


@pytest.fixture()
def db_root(tmp_path):
    root = tmp_path / "db"
    db = Database(root)
    load_tpch(db.catalog, scale=0.001, seed=2)
    return root, db


class TestWALDurability:
    def test_pending_rows_survive_restart(self, db_root):
        root, db = db_root
        db.insert("orders", [order_row(1), order_row(2)])
        assert db.pending("orders") == 2

        reopened = Database(root)
        assert reopened.pending("orders") == 2
        # And the recovered rows are queryable (merge-on-read).
        r = reopened.sql(
            "SELECT custkey FROM orders WHERE shipdate > '1998-12-31'"
        )
        assert sorted(r.rows()) == [(1,), (2,)]

    def test_merge_truncates_wal(self, db_root):
        root, db = db_root
        db.insert("orders", [order_row(3)])
        db.merge("orders")
        assert not (root / "_wal" / "orders.wal").exists()
        reopened = Database(root)
        assert reopened.pending("orders") == 0

    def test_wal_accumulates_across_inserts(self, db_root):
        root, db = db_root
        db.insert("orders", [order_row(1)])
        db.insert("orders", [order_row(2)])
        wal = (root / "_wal" / "orders.wal").read_text().strip().splitlines()
        assert len(wal) == 2

    def test_values_already_encoded_in_wal(self, db_root):
        root, db = db_root
        db.insert("orders", [order_row(5)])
        line = (root / "_wal" / "orders.wal").read_text()
        # The date was encoded to an int before hitting the log.
        assert '"shipdate": 10' in line

    def test_torn_final_line_recovers_complete_rows(self, db_root):
        """Crash simulation: a partial final append must not poison recovery.

        A crash mid-append leaves the last WAL line incomplete. That insert
        never returned, so the row was never acknowledged — recovery must
        keep every complete row, drop the torn tail, and leave the log in a
        state later appends can extend safely.
        """
        root, db = db_root
        db.insert("orders", [order_row(1), order_row(2)])
        wal = root / "_wal" / "orders.wal"
        complete = wal.read_text()
        # The crash: a third insert torn off mid-JSON, no trailing newline.
        wal.write_text(complete + '{"shipdate": 10, "cust')

        reopened = Database(root)
        assert reopened.pending("orders") == 2
        r = reopened.sql(
            "SELECT custkey FROM orders WHERE shipdate > '1998-12-31'"
        )
        assert sorted(r.rows()) == [(1,), (2,)]
        # The torn bytes were dropped from disk, so post-recovery appends
        # cannot land after a malformed line...
        assert wal.read_text() == complete
        reopened.insert("orders", [order_row(3)])
        # ...and the *next* recovery sees a fully well-formed log.
        assert Database(root).pending("orders") == 3

    def test_torn_tail_alone_recovers_nothing(self, db_root):
        root, _db = db_root
        wal = root / "_wal" / "orders.wal"
        wal.write_text('{"shipdate": 10, "cust')  # only a torn line
        reopened = Database(root)
        assert reopened.pending("orders") == 0

    def test_mid_file_corruption_still_raises(self, db_root):
        """Only the *final* line may be torn; earlier damage is real."""
        root, db = db_root
        db.insert("orders", [order_row(1), order_row(2)])
        wal = root / "_wal" / "orders.wal"
        lines = wal.read_text().splitlines()
        lines[0] = lines[0][:-5]  # truncate the FIRST line, keep the rest
        wal.write_text("\n".join(lines) + "\n")
        with pytest.raises(CatalogError, match="corrupt WAL line 1 of 2"):
            Database(root)

    def test_separate_tables_separate_logs(self, db_root):
        root, db = db_root
        db.insert("orders", [order_row(1)])
        db.insert(
            "lineitem",
            [
                {
                    "shipdate": date(1999, 1, 1),
                    "linenum": 1,
                    "quantity": 2,
                    "returnflag": "A",
                }
            ],
        )
        assert (root / "_wal" / "orders.wal").exists()
        assert (root / "_wal" / "lineitem.wal").exists()
        db.merge("orders")
        assert not (root / "_wal" / "orders.wal").exists()
        assert (root / "_wal" / "lineitem.wal").exists()


class TestOutOfSyncDeletes:
    """A pending delete naming a row the read store does not hold."""

    @pytest.mark.parametrize(
        "ghosts",
        [
            [{"shipdate": 99999, "custkey": -7}],
            # A held row named once more than the store holds it.
            [{"shipdate": 8038, "custkey": 99}] * 2,
        ],
        ids=["absent", "over-counted"],
    )
    def test_query_and_merge_both_raise(self, db_root, ghosts):
        root, db = db_root
        held = db.sql(
            "SELECT shipdate, custkey FROM orders WHERE custkey = 99"
        ).rows()
        assert held.count((8038, 99)) == 1
        wal = root / "_wal" / "orders.wal"
        record = {"_op": "delete", "stored": ghosts, "pending": []}
        wal.write_text(json.dumps(record) + "\n")
        reopened = Database(root)
        assert reopened.pending("orders") == len(ghosts)
        with pytest.raises(ExecutionError, match="out of sync"):
            reopened.sql("SELECT shipdate, custkey FROM orders")
        manifest = (root / "manifest.json").read_bytes()
        listing = sorted(p.name for p in root.iterdir())
        with pytest.raises(ExecutionError, match="out of sync"):
            reopened.merge("orders")
        # Nothing was staged or committed, and the WAL is untouched.
        assert (root / "manifest.json").read_bytes() == manifest
        assert sorted(p.name for p in root.iterdir()) == listing
        assert wal.read_text() == json.dumps(record) + "\n"
        assert Database(root).pending("orders") == len(ghosts)


class TestDropProjection:
    def test_drop_removes_files_and_catalog_entry(self, db_root):
        _root, db = db_root
        directory = db.projection("orders").directory
        db.drop_projection("orders")
        assert not directory.exists()
        with pytest.raises(CatalogError):
            db.projection("orders")

    def test_drop_unknown(self, db_root):
        _root, db = db_root
        with pytest.raises(CatalogError):
            db.drop_projection("ghost")

    def test_drop_survives_reopen(self, db_root):
        root, db = db_root
        db.drop_projection("customer")
        reopened = Database(root)
        assert "customer" not in reopened.catalog.names()


class TestStorageReport:
    def test_report_structure(self, db_root):
        _root, db = db_root
        report = db.projection("lineitem").storage_report()
        assert set(report) == {"returnflag", "shipdate", "linenum", "quantity"}
        linenum = report["linenum"]
        assert set(linenum) == {"uncompressed", "rle", "bitvector"}
        for enc_stats in linenum.values():
            assert enc_stats["bytes"] > 0
            assert enc_stats["blocks"] >= 1

    def test_rle_compresses_sorted_prefix(self, db_root):
        _root, db = db_root
        report = db.projection("lineitem").storage_report()
        assert report["returnflag"]["rle"]["compression_ratio"] < 0.15
        assert report["returnflag"]["rle"]["avg_run_length"] > 100

    def test_bitvector_ratio_matches_paper(self, db_root):
        _root, db = db_root
        report = db.projection("lineitem").storage_report()
        # 7 distinct LINENUM values over int32: a bit under 25% (paper §4.1).
        assert report["linenum"]["bitvector"]["compression_ratio"] < 0.35
