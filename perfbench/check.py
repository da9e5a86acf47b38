"""Output checks: order-insensitive row digests and the write-mix table model.

Every check runs outside the timed interval of the operation it checks.
"""

from __future__ import annotations

import numpy as np

from repro.tpch.generator import RETURNFLAG_DICTIONARY

_MASK = (1 << 64) - 1
_COLUMN_SALT = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
     0xD6E8FEB86659FD93, 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53],
    dtype=np.uint64,
)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def int_digest(data: np.ndarray) -> tuple[int, int]:
    """``(rows, hash)`` of an integer row matrix, independent of row order.

    Each row hashes to one 64-bit word; the words are summed modulo 2**64,
    so the digest is a multiset hash.
    """
    data = np.asarray(data, dtype=np.int64)
    n = data.shape[0]
    if n == 0:
        return 0, 0
    h = np.zeros(n, dtype=np.uint64)
    for j in range(data.shape[1]):
        h = _mix(h ^ (data[:, j].astype(np.uint64) + _COLUMN_SALT[j]))
    return n, int(h.sum(dtype=np.uint64))


def rows_digest(rows, n_columns: int) -> tuple[int, int]:
    """:func:`int_digest` of JSON rows of stored (integer) values."""
    return int_digest(np.asarray(rows, dtype=np.int64).reshape(-1, n_columns))


def decoded_digest(rows) -> tuple[int, int]:
    """``(rows, hash)`` of decoded rows (strings and ints), order-insensitive.

    Uses Python's hash, so a digest is comparable only within one process.
    """
    return len(rows), sum(map(hash, map(tuple, rows))) & _MASK


class TableModel:
    """The benchmark's own copy of ``lineitem``, kept in step with writes.

    Columns are stored values (dictionary codes, day numbers). Reads are
    checked against it by row count, and the full contents by digest.
    """

    COLUMNS = ("returnflag", "shipdate", "linenum", "quantity")

    def __init__(self, columns: dict):
        self.cols = {c: np.asarray(columns[c], dtype=np.int64)
                     for c in self.COLUMNS}

    @property
    def n_rows(self) -> int:
        return len(self.cols["shipdate"])

    def _mask(self, predicates) -> np.ndarray:
        mask = np.ones(self.n_rows, dtype=bool)
        for pred in predicates:
            mask &= pred.mask(self.cols[pred.column])
        return mask

    def insert(self, rows: list[dict]) -> int:
        encoded = {
            "returnflag": [RETURNFLAG_DICTIONARY.index(r["returnflag"])
                           for r in rows],
            "shipdate": [r["shipdate"] for r in rows],
            "linenum": [r["linenum"] for r in rows],
            "quantity": [r["quantity"] for r in rows],
        }
        for c in self.COLUMNS:
            self.cols[c] = np.concatenate(
                (self.cols[c], np.asarray(encoded[c], dtype=np.int64))
            )
        return len(rows)

    def delete(self, predicates) -> int:
        mask = self._mask(predicates)
        for c in self.COLUMNS:
            self.cols[c] = self.cols[c][~mask]
        return int(mask.sum())

    def update(self, predicates, assignments: dict) -> int:
        mask = self._mask(predicates)
        for c, value in assignments.items():
            self.cols[c] = self.cols[c].copy()
            self.cols[c][mask] = value
        return int(mask.sum())

    def expected_rows(self, read) -> int:
        """Rows the read must return: matches, or distinct groups for an
        aggregation."""
        query = read.query
        mask = self._mask(query.predicates)
        if read.template == "agg":
            return len(np.unique(self.cols["shipdate"][mask]))
        return int(mask.sum())

    def digest(self) -> tuple[int, int]:
        return int_digest(np.column_stack([self.cols[c]
                                           for c in self.COLUMNS]))
