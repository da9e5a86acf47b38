"""A naive row-store reference executor for integration checks.

Computes expected query answers with plain numpy over fully decoded columns,
independent of strategies, operators, position sets, or the buffer pool.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.predicates import Predicate
from repro.storage.projection import Projection


def full_column(projection: Projection, name: str, encoding: str | None = None):
    """Decode an entire stored column to a value array (bypasses the pool)."""
    cf = projection.column(name).file(encoding)
    parts = [
        cf.encoding.decode(cf.read_payload(d.index), d, cf.dtype)
        for d in cf.descriptors
    ]
    if not parts:
        return np.empty(0, dtype=cf.dtype)
    return np.concatenate(parts)


def selection_mask(
    projection: Projection, predicates: list[Predicate]
) -> np.ndarray:
    mask = np.ones(projection.n_rows, dtype=bool)
    for pred in predicates:
        mask &= pred.mask(full_column(projection, pred.column))
    return mask


def reference_select(
    projection: Projection,
    select: list[str],
    predicates: list[Predicate],
) -> np.ndarray:
    """Expected (n, k) int64 result of a plain selection."""
    mask = selection_mask(projection, predicates)
    cols = [full_column(projection, c)[mask].astype(np.int64) for c in select]
    if not cols:
        return np.empty((0, 0), dtype=np.int64)
    return np.stack(cols, axis=1)


def reference_group_sum(
    projection: Projection,
    group: str,
    value: str,
    predicates: list[Predicate],
) -> np.ndarray:
    """Expected (groups, 2) result of SELECT group, SUM(value) ... GROUP BY."""
    mask = selection_mask(projection, predicates)
    g = full_column(projection, group)[mask]
    v = full_column(projection, value)[mask]
    uniques, inverse = np.unique(g, return_inverse=True)
    sums = np.bincount(inverse, weights=v).astype(np.int64)
    return np.stack([uniques.astype(np.int64), sums], axis=1)


def reference_fkpk_join(
    left: Projection,
    right: Projection,
    left_key: str,
    right_key: str,
    left_select: list[str],
    right_select: list[str],
    left_predicates: list[Predicate],
) -> np.ndarray:
    """Expected join result, rows in left-table order."""
    mask = selection_mask(left, left_predicates)
    keys = full_column(left, left_key)[mask]
    right_keys = full_column(right, right_key)
    order = np.argsort(right_keys, kind="stable")
    slots = order[np.searchsorted(right_keys[order], keys)]
    cols = [full_column(left, c)[mask].astype(np.int64) for c in left_select]
    cols += [
        full_column(right, c)[slots].astype(np.int64) for c in right_select
    ]
    return np.stack(cols, axis=1)


def canonical(rows: np.ndarray) -> np.ndarray:
    """Sort rows lexicographically for order-insensitive comparison."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return rows
    return rows[np.lexsort(tuple(rows[:, i] for i in range(rows.shape[1] - 1, -1, -1)))]


def reference_rows(result) -> list[tuple]:
    """Result rows built one value at a time: the oracle for the
    vectorized :meth:`~repro.engine.QueryResult.rows`."""
    return [tuple(int(v) for v in row) for row in result.tuples.data]


def reference_decoded_rows(result) -> list[tuple]:
    """Per-value decode of :func:`reference_rows` through
    :meth:`~repro.dtypes.ColumnSchema.decode_value`."""
    names = result.tuples.columns
    return [
        tuple(
            result.schemas[name].decode_value(value)
            if name in result.schemas else value
            for name, value in zip(names, row)
        )
        for row in reference_rows(result)
    ]


def reference_columns(result, decoded: bool = False) -> list[list]:
    """Column-major transpose of the per-value reference rows."""
    rows = reference_decoded_rows(result) if decoded else reference_rows(result)
    return [[row[i] for row in rows] for i in range(len(result.tuples.columns))]


def reference_keep_mask(stored: dict, deleted: dict, columns: list) -> np.ndarray:
    """Delete-multiset subtraction one row at a time through a ``Counter``:
    the oracle for :func:`~repro.delta.multiset_keep_mask`. Stored rows are
    walked in position order; each consumes one matching ghost if any is
    left."""
    cols = list(columns)
    ghosts = Counter(zip(*(deleted[c].tolist() for c in cols)))
    keep = np.ones(len(stored[cols[0]]), dtype=bool)
    for i, row in enumerate(zip(*(stored[c].tolist() for c in cols))):
        if ghosts[row]:
            ghosts[row] -= 1
            keep[i] = False
    return keep
