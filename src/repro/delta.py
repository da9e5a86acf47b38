"""The writable store: inserts, updates, deletes, and the tuple mover.

C-Store pairs its read-optimized store (RS — the sorted, compressed
projections everything else in this library implements) with a small
writable store (WS) holding recent changes, plus a "tuple mover" that
periodically folds WS into RS. This module reproduces that architecture at
the scale this library needs:

* :class:`DeltaStore` — an in-memory WS keyed by logical table: pending
  *inserted* rows buffered column-wise, plus a multiset of *deleted* stored
  rows (the delete-bitmap analogue for a store whose projections are
  rebuilt, not patched, by the mover). Updates are delete+insert in one
  atomic WAL record.
* query-time merge — `Database.query` transparently folds pending changes
  into selection and aggregation results (see :func:`delta_select` /
  :func:`merge_aggregates`); joins require a merge first, as C-Store's
  early releases did.
* :meth:`Database.merge` — the tuple mover: rebuilds every projection of a
  table from (stored − deleted) + pending rows (re-sorting, re-encoding,
  re-indexing), publishes all the rebuilds in one atomic manifest commit,
  and only then truncates the WAL.

WAL format: one JSON line per record. A plain object is a single inserted
row (already schema-encoded), unchanged since the WAL was introduced;
``{"_op": "delete", ...}`` / ``{"_op": "update", ...}`` records carry the
full matched rows so recovery can replay them without consulting the read
store. Recovery tolerates a torn final line (that record was never
acknowledged) and honours the catalog's ``wal_applied`` marker: records a
committed merge already folded into the read store are discarded, which is
what makes a crash between manifest commit and WAL truncation harmless.

Durability: with ``durability="fsync"`` (the default) every append is
fsynced — one fsync per accepted batch, charged to the simulated disk
clock; ``"flush"`` restores the old buffered behaviour for callers that
prefer speed over crash-durability of the last few writes.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import CatalogError, ExecutionError
from .operators.aggregate import AggSpec, factorize_groups
from .operators.tuples import TupleSet
from .planner.logical import SelectQuery
from .storage.atomic import fsync_dir

#: Accepted values of the ``Database(durability=...)`` knob.
DURABILITY_MODES = ("fsync", "flush")


class DeltaStore:
    """Writable store: pending changes per logical table, with a WAL.

    When constructed with a directory, every accepted change is appended to
    a per-table write-ahead log before it becomes visible, and pending
    changes are recovered from the logs on startup. The tuple mover
    truncates a table's log only after the catalog has committed the merged
    projections (see :meth:`mark_applied`).
    """

    def __init__(self, wal_directory=None, catalog=None, disk=None,
                 durability: str = "fsync", crash=None):
        if durability not in DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {DURABILITY_MODES}, "
                f"got {durability!r}"
            )
        self._rows: dict[str, list[dict]] = {}
        #: Multiset of stored rows deleted ahead of the next merge, as full
        #: encoded row dicts (captured at delete time so every projection —
        #: whatever column subset it carries — can subtract them).
        self._deleted: dict[str, list[dict]] = {}
        #: WAL record-line count per table (the merge marker's unit).
        self._records: dict[str, int] = {}
        self._catalog = catalog
        self._disk = disk
        self._durability = durability
        self._crash = crash
        self._wal_dir = Path(wal_directory) if wal_directory else None
        if self._wal_dir is not None:
            self._wal_dir.mkdir(parents=True, exist_ok=True)
            self._recover()

    def _wal_path(self, table: str):
        return self._wal_dir / f"{table}.wal" if self._wal_dir else None

    # ------------------------------------------------------------- recovery

    def _recover(self) -> None:
        """Replay per-table logs, tolerating a torn final line.

        A crash mid-append can leave the last JSON line incomplete; that
        tail is skipped with a warning (the change never returned, so it
        was never acknowledged) and every complete record is recovered. A
        malformed line anywhere *before* the tail is real corruption and
        still raises.

        If the catalog carries a ``wal_applied`` marker for a table, a
        committed merge already folded that many records into the read
        store but crashed before truncating the log: the applied prefix is
        discarded, the log rewritten to the remainder, and the marker
        cleared — after which a re-merge is a no-op instead of a
        double-apply.
        """
        markers = dict(self._catalog.wal_applied) if self._catalog else {}
        for path in sorted(self._wal_dir.glob("*.wal")):
            table = path.stem
            lines = []
            with open(path, encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if line:
                        lines.append(line)
            records = []
            torn = False
            for i, line in enumerate(lines):
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    if i == len(lines) - 1:
                        torn = True
                        logging.getLogger(__name__).warning(
                            "%s: skipping torn final WAL line "
                            "(%d complete records recovered): %s",
                            path, len(records), exc,
                        )
                        break
                    raise CatalogError(
                        f"{path}: corrupt WAL line {i + 1} of {len(lines)} "
                        f"(not the torn-tail case): {exc}"
                    ) from exc
            applied = min(markers.pop(table, 0), len(records))
            live = records[applied:]
            if (torn or applied) and not live:
                # Nothing survives: the log is exactly the state a
                # completed merge would have left, so finish its unlink.
                path.unlink()
            elif torn or applied:
                # Drop the torn bytes (so later appends cannot land after
                # a malformed line) and the already-merged prefix, keeping
                # the surviving lines byte-identical.
                with open(path, "w", encoding="utf-8") as f:
                    for line in lines[applied:len(records)]:
                        f.write(line + "\n")
                    f.flush()
            if applied and self._catalog is not None:
                self._catalog.set_wal_applied(table, 0)
            for record in live:
                try:
                    self._apply_record(table, record)
                except CatalogError:
                    raise
                except (KeyError, TypeError, ValueError) as exc:
                    raise CatalogError(
                        f"{path}: malformed WAL record: {exc}"
                    ) from exc
            if live:
                self._records[table] = len(live)
        # A marker for a table whose WAL is already gone means the crash
        # hit between the log unlink and the marker-clearing commit.
        if self._catalog is not None:
            for table in markers:
                self._catalog.set_wal_applied(table, 0)

    def _apply_record(self, table: str, record: dict) -> None:
        op = record.get("_op") if isinstance(record, dict) else None
        if op is None:
            # Legacy/plain record: one inserted row.
            self._rows.setdefault(table, []).append(record)
        elif op == "insert":
            self._rows.setdefault(table, []).extend(record["rows"])
        elif op in ("delete", "update"):
            self._remove_pending(table, record.get("pending", []))
            stored = record.get("stored", [])
            if stored:
                self._deleted.setdefault(table, []).extend(stored)
            if op == "update":
                self._rows.setdefault(table, []).extend(record["rows"])
        else:
            raise CatalogError(f"unknown WAL record op {op!r}")

    def _remove_pending(self, table: str, targets: list[dict]) -> None:
        rows = self._rows.get(table, [])
        for target in targets:
            try:
                rows.remove(target)
            except ValueError:
                # The pending row is already gone (idempotent replay).
                pass

    # ---------------------------------------------------------------- write

    def _append_records(self, table: str, records: list[dict]) -> None:
        path = self._wal_path(table)
        if path is not None:
            payload = "".join(json.dumps(r) + "\n" for r in records)
            if self._crash is not None:
                self._crash.hook("wal.append", path)
            with open(path, "a", encoding="utf-8") as f:
                if self._crash is not None and self._crash.check(
                    "wal.torn", str(path)
                ):
                    # The crash landed mid-append: an arbitrary prefix of
                    # the payload reaches disk, its final line torn. The
                    # change was never acknowledged; recovery drops the
                    # torn tail.
                    f.write(payload[: max(1, len(payload) // 2)])
                    f.flush()
                    os.fsync(f.fileno())
                    raise self._crash.crash("wal.torn", str(path))
                f.write(payload)
                f.flush()
                if self._durability == "fsync":
                    if self._crash is not None:
                        self._crash.hook("wal.fsync", path)
                    os.fsync(f.fileno())
                    if self._disk is not None:
                        self._disk.charge_fsync()
        self._records[table] = self._records.get(table, 0) + len(records)

    def insert(self, table: str, rows: list[dict], schemas: dict) -> int:
        """Validate and buffer *rows* (each a column->value dict).

        Args:
            table: logical table (anchor) name.
            rows: one dict per row; every table column must be present.
            schemas: column name -> :class:`~repro.dtypes.ColumnSchema`;
                values are encoded through the schema (dates, dictionary
                strings) exactly as the loader encodes bulk data.
        """
        expected = set(schemas)
        encoded_rows = []
        for row in rows:
            if set(row) != expected:
                missing = expected - set(row)
                extra = set(row) - expected
                raise CatalogError(
                    f"insert into {table!r} must provide exactly columns "
                    f"{sorted(expected)} (missing {sorted(missing)}, "
                    f"unexpected {sorted(extra)})"
                )
            encoded_rows.append(
                {col: schemas[col].encode_value(row[col]) for col in row}
            )
        self._append_records(table, encoded_rows)
        self._rows.setdefault(table, []).extend(encoded_rows)
        return len(encoded_rows)

    def delete(self, table: str, stored_rows: list[dict],
               pending_rows: list[dict]) -> int:
        """Log and apply one delete: *stored_rows* (full encoded rows
        matched in the read store, subtracted at query time and dropped at
        merge time) plus *pending_rows* (matches in this store, removed
        immediately). One WAL record, so the delete is atomic."""
        record = {
            "_op": "delete", "stored": stored_rows, "pending": pending_rows,
        }
        self._append_records(table, [record])
        self._apply_record(table, record)
        return len(stored_rows) + len(pending_rows)

    def update(self, table: str, stored_rows: list[dict],
               pending_rows: list[dict], new_rows: list[dict]) -> int:
        """Log and apply one update as delete+insert in a single record."""
        record = {
            "_op": "update",
            "stored": stored_rows,
            "pending": pending_rows,
            "rows": new_rows,
        }
        self._append_records(table, [record])
        self._apply_record(table, record)
        return len(stored_rows) + len(pending_rows)

    # ----------------------------------------------------------------- read

    def count(self, table: str) -> int:
        return len(self._rows.get(table, []))

    def deleted_count(self, table: str) -> int:
        """How many stored rows are pending deletion for *table*."""
        return len(self._deleted.get(table, []))

    def dirty(self, table: str) -> bool:
        """True when *table* has any pending change (inserts or deletes)."""
        return bool(self._rows.get(table)) or bool(self._deleted.get(table))

    def rows(self, table: str) -> list[dict]:
        """The pending inserted rows (copies; encoded values)."""
        return [dict(r) for r in self._rows.get(table, [])]

    def wal_records(self, table: str) -> int:
        """WAL record lines currently logged for *table* (the merge
        marker's unit — see :meth:`Catalog.set_wal_applied`)."""
        return self._records.get(table, 0)

    def columns(self, table: str, schemas: dict) -> dict[str, np.ndarray]:
        """Pending inserted rows as column arrays (typed per schema)."""
        rows = self._rows.get(table, [])
        return {
            col: np.array(
                [r[col] for r in rows], dtype=schema.ctype.numpy_dtype
            )
            for col, schema in schemas.items()
        }

    def deleted_columns(
        self, table: str, schemas: dict
    ) -> dict[str, np.ndarray]:
        """Pending deleted rows as column arrays (typed per schema)."""
        rows = self._deleted.get(table, [])
        return {
            col: np.array(
                [r[col] for r in rows], dtype=schema.ctype.numpy_dtype
            )
            for col, schema in schemas.items()
        }

    # ------------------------------------------------------------ lifecycle

    def mark_applied(self, table: str) -> None:
        """Truncate *table*'s WAL after the catalog committed its merge.

        Called strictly after :meth:`Catalog.commit_merge`: the manifest
        already both publishes the merged projections and records how many
        WAL records they absorbed, so whether the crash hits before the
        unlink, between unlink and marker clear, or never, recovery
        converges on the same state.
        """
        path = self._wal_path(table)
        if path is not None and path.exists():
            if self._crash is not None:
                self._crash.hook("wal.truncate", path)
            path.unlink()
            fsync_dir(self._wal_dir, crash=self._crash, disk=self._disk)
        self._rows.pop(table, None)
        self._deleted.pop(table, None)
        self._records.pop(table, None)
        if self._catalog is not None:
            self._catalog.set_wal_applied(table, 0)

    def clear(self, table: str) -> None:
        """Discard *table*'s pending changes and WAL (compat alias)."""
        self.mark_applied(table)

    def tables(self) -> list[str]:
        return sorted(
            set(t for t, rows in self._rows.items() if rows)
            | set(t for t, rows in self._deleted.items() if rows)
        )


def multiset_keep_mask(
    stored: dict[str, np.ndarray],
    deleted: dict[str, np.ndarray],
    columns: list[str],
) -> np.ndarray:
    """Which stored rows survive subtracting *deleted* as a multiset.

    Both sides are column arrays; only *columns* are compared (a projection
    may carry a subset of the table's columns). Each deleted row cancels at
    most one stored row with equal values on those columns: among equal
    rows, the first ``count(deleted)`` stored occurrences in position order
    are dropped.

    A stored row can only be cancelled if each of its values occurs in that
    column of the deleted side, so one ``np.isin`` per column narrows the
    stored side to a few candidates and the rest stays a column scan. One
    stable ``np.lexsort`` over the candidates followed by the deleted rows
    then groups equal rows, each group listing its stored candidates first
    and in position order, and the first ``count(deleted)`` of them drop.
    """
    cols = list(columns)
    n = len(stored[cols[0]]) if cols else 0
    keep = np.ones(n, dtype=bool)
    if n == 0 or len(deleted[cols[0]]) == 0:
        return keep
    candidates = np.arange(n)
    for c in cols:
        candidates = candidates[np.isin(stored[c][candidates], deleted[c])]
    k = len(candidates)
    if k == 0:
        return keep
    rows = np.concatenate((
        np.stack([stored[c][candidates].astype(np.int64) for c in cols], 1),
        np.stack([deleted[c].astype(np.int64) for c in cols], 1),
    ))
    order = np.lexsort(rows.T)
    ordered = rows[order]
    boundary = np.ones(len(order), dtype=bool)
    boundary[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.cumsum(boundary) - 1
    starts = np.flatnonzero(boundary)
    del_counts = np.bincount(group[order >= k], minlength=len(starts))
    is_stored = order < k
    occurrence = np.arange(len(order)) - starts[group]
    keep[candidates[order[is_stored]]] = (
        occurrence[is_stored] >= del_counts[group[is_stored]]
    )
    return keep


def expand_avg(specs: tuple[AggSpec, ...]) -> tuple[list[AggSpec], dict]:
    """Rewrite AVG into mergeable partials (SUM + COUNT).

    Returns the internal spec list (deduplicated) and a mapping from each
    original output name to how it is reconstructed after merging.
    """
    internal: list[AggSpec] = []
    plan: dict[str, tuple] = {}

    def ensure(spec: AggSpec) -> str:
        for existing in internal:
            if existing == spec:
                return existing.output_name
        internal.append(spec)
        return spec.output_name

    for spec in specs:
        if spec.func == "avg":
            s = ensure(AggSpec("sum", spec.column))
            c = ensure(AggSpec("count", spec.column))
            plan[spec.output_name] = ("avg", s, c)
        else:
            name = ensure(spec)
            plan[spec.output_name] = ("direct", name)
    return internal, plan


def delta_select(
    query: SelectQuery, columns: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Evaluate the query's predicates over pending rows; return survivors."""
    if not columns:
        return {}
    n = len(next(iter(columns.values())))
    if query.disjuncts:
        mask = np.zeros(n, dtype=bool)
        for group in query.disjuncts:
            group_mask = np.ones(n, dtype=bool)
            for pred in group:
                group_mask &= pred.mask(columns[pred.column])
            mask |= group_mask
    else:
        mask = np.ones(n, dtype=bool)
        for pred in query.predicates:
            mask &= pred.mask(columns[pred.column])
    return {col: values[mask] for col, values in columns.items()}


def delta_aggregate(
    internal_specs: list[AggSpec],
    group_columns: list[str],
    survivors: dict[str, np.ndarray],
) -> TupleSet:
    """Aggregate pending survivors into the same shape as a stored result."""
    from .operators.aggregate import _grouped_reduce

    group_arrays = [survivors[c].astype(np.int64) for c in group_columns]
    value_columns = {
        spec.column: survivors[spec.column].astype(np.int64)
        for spec in internal_specs
        if spec.func != "count"
    }
    reduced = _grouped_reduce(
        group_arrays, group_columns, value_columns, internal_specs
    )
    return TupleSet.stitch(reduced)


def merge_aggregates(
    stored: TupleSet,
    pending: TupleSet,
    group_columns: list[str],
    internal_specs: list[AggSpec],
    plan: dict,
    select: list[str],
) -> TupleSet:
    """Combine stored-side and delta-side partial aggregates by group."""
    both = TupleSet.concat([stored, pending])
    keys, inverse = factorize_groups(
        [both.column(c) for c in group_columns]
    )
    k = len(keys[0]) if keys else 0
    merged: dict[str, np.ndarray] = dict(zip(group_columns, keys))
    for spec in internal_specs:
        partial = both.column(spec.output_name)
        if spec.func in ("sum", "count"):
            merged[spec.output_name] = np.bincount(
                inverse, weights=partial, minlength=k
            ).astype(np.int64)
        elif spec.func in ("min", "max"):
            fill = (
                np.iinfo(np.int64).max
                if spec.func == "min"
                else np.iinfo(np.int64).min
            )
            acc = np.full(k, fill, dtype=np.int64)
            ufunc = np.minimum if spec.func == "min" else np.maximum
            ufunc.at(acc, inverse, partial)
            merged[spec.output_name] = acc
        else:  # pragma: no cover - internal specs never contain avg
            raise ExecutionError(f"unmergeable partial {spec.func}")
    out: dict[str, np.ndarray] = dict(zip(group_columns, keys))
    for output, how in plan.items():
        if how[0] == "avg":
            sums = merged[how[1]]
            counts = merged[how[2]]
            out[output] = sums // np.maximum(counts, 1)
        else:
            out[output] = merged[how[1]]
    result = TupleSet.stitch(out)
    return result.select(select)


def internal_query(query: SelectQuery) -> tuple[SelectQuery, dict]:
    """The stored-side query to run when pending rows must be merged in.

    Strips ORDER BY / LIMIT (applied after the merge) and rewrites AVG into
    mergeable partials. Returns the rewritten query plus the reconstruction
    plan (empty for plain selections).
    """
    if not query.aggregates:
        return replace(query, order_by=(), limit=None), {}
    internal_specs, plan = expand_avg(query.aggregates)
    select = tuple(query.group_columns) + tuple(
        s.output_name for s in internal_specs
    )
    rewritten = replace(
        query,
        select=select,
        aggregates=tuple(internal_specs),
        order_by=(),
        limit=None,
        having=(),  # applied after the merge, over final aggregates
    )
    return rewritten, plan
