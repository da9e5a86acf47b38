"""The three workloads: set-up, the closed loop, and their probes.

Each ``run_*`` function fills a :class:`Run` with raw samples; ``run.py``
turns them into metrics. Layers are measured from outside, by timing calls
into their public functions.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import shutil
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro import Database, SelectQuery, load_tpch
from repro.metrics import MetricsRegistry
from repro.planner import choose_strategy, resolve_projection
from repro.serving.client import AsyncQueryClient
from repro.serving.server import ServerThread
from repro.sql import bind, parse
from repro.tpch.loader import lineitem_rows_for_scale

from check import TableModel, decoded_digest, int_digest, rows_digest
from inputs import (
    CYCLE_READS,
    CYCLE_WRITES_EACH,
    Read,
    paper_sweep_cycle,
    pending_probe_reads,
    served_corpus,
    served_schedule,
    write_mix_cycle,
    write_mix_reads,
)
from spans import Tracer
from speed import Speed

SCALE = 0.05
DATA_SEED = 42
N_CUSTOMER = lineitem_rows_for_scale(SCALE) // 4 // 10

#: paper-sweep cache budgets: well under the ~3.9 MB lineitem working set,
#: so the pool and the decoded-block cache evict on nearly every scan.
SMALL_POOL_BYTES = 512 * 1024
SMALL_DECODED_BYTES = 512 * 1024
SERVER_WORKERS = 2
CLIENT_CONNECTIONS = 2
SETUP_REPS = 3
#: write-mix: cycles whose counts form the exact window, and the minimum
#: cycles per run (70 reads and 30 writes each, so >= 200 of each).
WINDOW_CYCLES = 2
MIN_CYCLES = 7
#: read-only workloads: write-only cycles run after the timed loop, with
#: 3 x 33 writes each (about 300 writes per run).
PROBE_CYCLES = 3
PROBE_WRITES_EACH = 33
#: served-mix: minimum schedule cycles per run (a cycle takes ~20 s).
MIN_SERVED_CYCLES = 2
#: served-mix: rows of unchecked responses held before both connections
#: pause for the answer checks (about two of the widest results), and the
#: calibrations taken in each pause.
BACKLOG_ROWS = 300_000
PAUSE_CALIBRATIONS = 3

#: QueryStats fields summed over the exact window.
COUNTED = (
    "values_scanned", "tuples_constructed", "positions_intersected",
    "tuple_iterations", "compressed_scans", "morphs", "block_reads",
    "disk_seeks", "blocks_skipped", "buffer_hits", "decode_hits",
    "decode_misses",
)


@dataclass
class Run:
    """Raw samples of one benchmark run."""

    seed: int
    seconds: float
    trace: bool
    work: Path
    tracer: Tracer
    speed: Speed = field(default_factory=Speed)
    config: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: kind -> [(midpoint, seconds)]; kinds are setup, read, insert,
    #: update, delete, merge, and loop (the operations throughput counts).
    timings: dict = field(default_factory=dict)
    #: served-mix: (start, end, seconds paused) of the concurrent loop.
    window: tuple | None = None
    reads: list = field(default_factory=list)       # (ms, traced, key)
    read_sim_ms: list = field(default_factory=list)
    space_ratio: float = 0.0
    layer: dict = field(default_factory=dict)       # name -> [value]
    counts: dict = field(default_factory=dict)      # QueryStats sums
    regret: dict = field(default_factory=dict)      # key -> {strategy: [sim]}
    wal_bytes: int = 0
    wal_writes: int = 0
    merge_bytes: list = field(default_factory=list)
    qlog: tuple = (0, 0)                            # (bytes, records)

    def record(self, kind: str, start: float, end: float,
               in_loop: bool = True) -> float:
        """Keep one timed call; returns its milliseconds."""
        sample = ((start + end) / 2, end - start)
        self.timings.setdefault(kind, []).append(sample)
        if in_loop:
            self.timings.setdefault("loop", []).append(sample)
        return (end - start) * 1000.0

    def sample(self, name: str, value: float) -> None:
        self.layer.setdefault(name, []).append(value)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def traced(self, index: int, period: int = 1) -> bool:
        """A traced run traces every other *period* operations; the same
        operations run untraced in the other half, which gives the tracing
        overhead."""
        return self.trace and (index // period) % 2 == 1


def dir_bytes(path: Path, skip=()) -> int:
    total = 0
    for entry in os.scandir(path):
        if entry.name in skip:
            continue
        if entry.is_dir(follow_symlinks=False):
            total += dir_bytes(Path(entry.path))
        else:
            total += entry.stat(follow_symlinks=False).st_size
    return total


def timed_setup(run: Run, make):
    """Set up SETUP_REPS times, each in a fresh directory; keep the last.

    *make(root, stack)* loads and opens everything and registers cleanup on
    *stack*; its wall time is one ``setup_s`` sample.
    """
    for rep in range(SETUP_REPS):
        root = run.work / f"db{rep}"
        stack = ExitStack()
        for _ in range(3):
            run.speed.measure()
        start = time.perf_counter()
        state = make(root, stack)
        run.record("setup", start, time.perf_counter(), in_loop=False)
        if rep < SETUP_REPS - 1:
            stack.close()
            shutil.rmtree(root)
    for _ in range(3):
        run.speed.measure()
    return root, stack, state


def open_db(run: Run, root: Path, stack: ExitStack, **knobs) -> Database:
    db = Database(root, metrics=MetricsRegistry(), **knobs)
    stack.callback(db.close)
    # Drain the query log's writer thread before each calibration.
    run.speed.idle = db.qlog.flush
    stack.callback(setattr, run.speed, "idle", None)
    return db


def load(run: Run, root: Path, stack: ExitStack, **knobs) -> Database:
    db = open_db(run, root, stack, **knobs)
    load_tpch(db.catalog, scale=SCALE, seed=DATA_SEED)
    return db


def record_config(run: Run, db: Database, connections: int = 0,
                  server_workers: int = 0) -> None:
    """Provenance: the budgets and durability the database really runs
    with, and the serving set-up."""
    run.config.update(
        pool_capacity_bytes=db.pool.capacity_bytes,
        decoded_cache_bytes=db.decoded.capacity_bytes if db.decoded else 0,
        durability=db.durability,
        connections=connections,
        server_workers=server_workers,
    )


def reference_strategy(query) -> str:
    return "em-parallel" if isinstance(query, SelectQuery) else "materialized"


def logical_bytes(db: Database, lineitem_rows: int) -> int:
    """Bytes of the live rows at their column widths."""
    total = 0
    for name in ("lineitem", "orders", "customer"):
        proj = db.projection(name)
        width = sum(proj.schema(c).ctype.itemsize for c in proj.column_names)
        rows = lineitem_rows if name == "lineitem" else proj.n_rows
        total += width * rows
    return total


def space_ratio(db: Database, root: Path, lineitem_rows: int) -> float:
    """Projections, ``_wal/`` and the manifest over logical live bytes."""
    return dir_bytes(root, skip=("_qlog",)) / logical_bytes(db, lineitem_rows)


def qlog_size(db: Database) -> tuple[int, int]:
    """Bytes and records (lines) in the query log, after a flush."""
    db.qlog.flush()
    data = b"".join(f.read_bytes() for f in db.qlog.directory.iterdir())
    return len(data), data.count(b"\n")


def qlog_growth(db: Database, before: tuple) -> tuple[int, int]:
    after = qlog_size(db)
    return after[0] - before[0], after[1] - before[1]


# -------------------------------------------------------------- embedded reads

def layer_probes(run: Run, db: Database, read: Read):
    """Time the planner and model calls for *read*; return the model's
    predictions for an ``auto`` read (else None).

    Predictions use the buffer-pool residency the engine's own strategy
    choice sees: the share of the first column's file that is resident.
    """
    query, span = read.query, run.tracer.span
    resident = 0.0
    if isinstance(query, SelectQuery):
        with span("planner.resolve"):
            projection = resolve_projection(db.catalog, query,
                                            constants=db.constants)
        first = query.all_columns[0]
        resident = db.pool.resident_fraction(
            projection.physical_column(first).file(
                query.encoding_map.get(first)))
        if read.strategy == "auto":
            with span("planner.choose"):
                choose_strategy(projection, query, constants=db.constants,
                                resident=resident)
    if read.strategy != "auto":
        return None
    with span("model.explain"):
        return db.explain(query, resident=resident)["predictions"]


def embedded_read(run: Run, db: Database, read: Read, traced: bool,
                  in_window: bool):
    """Run one read under the timer; record its samples. Returns the result,
    or None when the call raised."""
    span = run.tracer.span if traced else _no_span
    predictions = None
    run.attempted += 1
    try:
        with span("op", rid=run.attempted):
            if traced:
                predictions = layer_probes(run, db, read)
            with span("engine.query"):
                start = time.perf_counter()
                result = db.query(read.query, strategy=read.strategy)
                end = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
        run.fail(f"read {read.key} {read.strategy}: {exc!r}")
        return None
    ms = run.record("read", start, end)
    run.reads.append((ms, traced, (read.key, read.strategy)))
    run.sample("engine.dispatch_ms", ms - result.wall_ms)
    run.sample("exec.wall_ms", result.wall_ms)
    if predictions is not None:
        predicted = predictions[result.strategy]
        run.sample("model.err_ratio",
                   abs(predicted - result.simulated_ms) / result.simulated_ms)
    if in_window:
        run.read_sim_ms.append(result.simulated_ms)
        for name in COUNTED:
            run.counts[name] = run.counts.get(name, 0) + getattr(
                result.stats, name)
        run.regret.setdefault(read.key, {}).setdefault(
            read.strategy, []).append(result.simulated_ms)
    return result


def _no_span(name, rid=None):
    return nullcontext()


def references(db: Database, reads) -> dict:
    """Row digest per read instance, computed embedded with one fixed
    strategy before the loop."""
    refs = {}
    for read in reads:
        if read.key not in refs:
            result = db.query(read.query,
                              strategy=reference_strategy(read.query))
            refs[read.key] = int_digest(result.tuples.data)
    return refs


# ---------------------------------------------------------------- paper-sweep

def run_paper_sweep(run: Run) -> None:
    cycle = paper_sweep_cycle(run.seed, N_CUSTOMER)
    warm = list({r.key: r for r in cycle}.values())

    def make(root, stack):
        db = load(run, root, stack, pool_capacity_bytes=SMALL_POOL_BYTES,
                  decoded_cache_bytes=SMALL_DECODED_BYTES)
        for read in warm:
            db.query(read.query)
        return db

    root, stack, db = timed_setup(run, make)
    record_config(run, db)
    with stack:
        refs = references(db, warm)
        qlog_before = qlog_size(db)
        deadline = time.perf_counter() + run.seconds
        # Whole cycles only, so every run holds the same mix; a traced run
        # needs a second cycle, the traced half.
        min_ops = len(cycle) * (2 if run.trace else 1)
        for index in itertools.count():
            if index == len(cycle):
                run.qlog = qlog_growth(db, qlog_before)
            if index >= min_ops and index % len(cycle) == 0 \
                    and time.perf_counter() >= deadline:
                break
            read = cycle[index % len(cycle)]
            run.speed.tick()
            result = embedded_read(run, db, read,
                                   run.traced(index, len(cycle)),
                                   in_window=index < len(cycle))
            if result is not None and int_digest(result.tuples.data) \
                    != refs[read.key]:
                run.fail(f"wrong answer: {read.key} {read.strategy}")
    # The write probe measures the write path, not the small read caches:
    # it runs on a handle with the default budgets, as in served-mix.
    with ExitStack() as stack:
        write_probe(run, open_db(run, root, stack), root)


# ------------------------------------------------------------------ write path

def read_model(db: Database) -> TableModel:
    proj = db.projection("lineitem")
    return TableModel({c: proj.read_column_values(c)
                       for c in TableModel.COLUMNS})


def write_call(run: Run, db: Database, model: TableModel, op: tuple,
               root: Path, in_window: bool, in_loop: bool) -> None:
    kind, *args = op
    run.attempted += 1
    wal_before = dir_bytes(root / "_wal") if run.trace and in_window else 0
    try:
        with run.tracer.span(f"delta.{kind}"):
            start = time.perf_counter()
            changed = getattr(db, kind)("lineitem", *args)
            end = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
        run.fail(f"{kind}: {exc!r}")
        return
    run.record(kind, start, end, in_loop)
    if run.trace and in_window:
        run.wal_bytes += dir_bytes(root / "_wal") - wal_before
        run.wal_writes += 1
    expected = getattr(model, kind)(*args)
    if changed != expected:
        run.fail(f"{kind} changed {changed} rows, model says {expected}")


def pending_probe(run: Run, db: Database, name: str) -> None:
    """Time fixed reads; sampled as ``delta.pending_<name>_ms``."""
    for read in pending_probe_reads():
        with run.tracer.span(f"delta.probe_{name}"):
            start = time.perf_counter()
            db.query(read.query, strategy=read.strategy)
            run.sample(f"delta.pending_{name}_ms",
                       (time.perf_counter() - start) * 1000.0)


def merge_and_check(run: Run, db: Database, model: TableModel, root: Path,
                    in_window: bool, in_loop: bool) -> None:
    if run.trace:
        pending_probe(run, db, "before")
        dirs_before = set(os.listdir(root))
    run.attempted += 1
    try:
        with run.tracer.span("storage.merge"):
            start = time.perf_counter()
            db.merge("lineitem")
            end = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
        run.fail(f"merge: {exc!r}")
        return
    run.record("merge", start, end, in_loop)
    run.speed.measure()
    if run.trace:
        if in_window:
            written = [e for e in os.listdir(root) if e not in dirs_before]
            run.merge_bytes.append(
                sum(dir_bytes(root / e) for e in written)
                + (root / "manifest.json").stat().st_size)
        pending_probe(run, db, "after")
    full = db.query(SelectQuery(projection="lineitem",
                                select=TableModel.COLUMNS),
                    strategy="em-parallel")
    if int_digest(full.tuples.data) != model.digest():
        run.fail("table contents differ from the model after merge")


def write_cycles(run: Run, db: Database, root: Path, model: TableModel,
                 reads: list, writes_each: int, min_cycles: int,
                 deadline: float) -> None:
    """Closed loop of cycles (reads and writes, then a merge) until the
    deadline has passed and *min_cycles* are done. ``space_ratio`` is taken
    before the last merge, with a full cycle of writes pending. With no
    *reads* these are write-only cycles outside the workload's loop.

    The exact window is the first WINDOW_CYCLES cycles for writes and
    merges, and the first pass over the read pool (each read once) for
    reads."""
    n_reads = CYCLE_READS if reads else 0
    rng = random.Random(run.seed * 31 + 1)
    start = 0
    qlog_before = qlog_size(db)
    n_read = 0
    for cycle in itertools.count():
        in_window = cycle < WINDOW_CYCLES
        ops, start = write_mix_cycle(rng, reads, start, n_reads,
                                     writes_each)
        for op in ops:
            run.speed.tick()
            if op[0] != "read":
                write_call(run, db, model, op, root, in_window,
                           in_loop=bool(n_reads))
                continue
            read = op[1]
            result = embedded_read(run, db, read, run.traced(cycle),
                                   n_read < len(reads))
            n_read += 1
            if n_read == len(reads):
                run.qlog = qlog_growth(db, qlog_before)
            if result is not None and result.n_rows != \
                    model.expected_rows(read):
                run.fail(f"wrong row count: {read.key} {read.strategy}")
        last = cycle + 1 >= min_cycles and time.perf_counter() >= deadline
        if last:
            run.space_ratio = space_ratio(db, root, model.n_rows)
        run.speed.measure()
        merge_and_check(run, db, model, root, in_window,
                        in_loop=bool(n_reads))
        if last:
            return


def write_probe(run: Run, db: Database, root: Path) -> None:
    """Write-only cycles after a read-only workload's timed loop, so every
    workload reports the write, merge and space metrics."""
    write_cycles(run, db, root, read_model(db), [], PROBE_WRITES_EACH,
                 PROBE_CYCLES, 0.0)


def run_write_mix(run: Run) -> None:
    reads = write_mix_reads(run.seed)
    warm = list({r.key: r for r in reads}.values())

    def make(root, stack):
        db = load(run, root, stack, durability="fsync")
        for read in warm:
            db.query(read.query)
        return db

    root, stack, db = timed_setup(run, make)
    record_config(run, db)
    with stack:
        model = read_model(db)
        write_cycles(run, db, root, model, reads, CYCLE_WRITES_EACH,
                     MIN_CYCLES, time.perf_counter() + run.seconds)


# ------------------------------------------------------------------ served-mix

def served_reference(db: Database, entry, form: str) -> tuple:
    """Digest of *entry* in *form*, run embedded with a fixed strategy."""
    if form == "sql":
        query = bind(parse(entry.sql), db.catalog)
        result = db.query(query, strategy=reference_strategy(query))
        return decoded_digest(result.decoded_rows())
    result = db.query(entry.query, strategy=reference_strategy(entry.query))
    return int_digest(result.tuples.data)


async def _warm(port: int, corpus) -> None:
    client = await AsyncQueryClient.connect("127.0.0.1", port)
    try:
        for entry in corpus:
            for form in entry.forms:
                await client.request(entry.payload(form))
    finally:
        await client.close()


class _Pause:
    """Stops the connections between requests, so that the benchmark's own
    work (answer checks, query-log flush, calibration) runs with nothing in
    flight and the server idle.

    A pause is *pending* once requested. Each connection calls
    :meth:`point` between requests and waits there while a pause is
    pending; the last to arrive, or a connection that finds the cycle done
    (:meth:`leave`), runs *work* and releases the others. A pause lasts
    from the first connection's arrival (or departure) to the release, and
    is left out of the throughput window.
    """

    def __init__(self, parties: int, work):
        self.parties = parties
        self.work = work
        self.pending = False
        self.waiting = 0
        self.since = None
        self.paused_s = 0.0
        self.event = asyncio.Event()

    async def point(self) -> None:
        if not self.pending:
            return
        self._arrive()
        if self.waiting >= self.parties:
            self._release()
        else:
            await self.event.wait()

    def leave(self) -> None:
        self._arrive()
        self.waiting -= 1
        self.parties -= 1
        if self.parties == 0 or (self.waiting
                                 and self.waiting >= self.parties):
            self._release()

    def _arrive(self) -> None:
        if self.since is None:
            self.since = time.perf_counter()
        self.waiting += 1

    def _release(self) -> None:
        self.work()
        self.paused_s += time.perf_counter() - self.since
        self.since = None
        self.pending = False
        self.waiting = 0
        self.event.set()
        self.event = asyncio.Event()


def check_backlog(run: Run, backlog: list, refs: dict) -> None:
    """Check and drop the held responses."""
    for key, form, response in backlog:
        rows = response["rows"]
        digest = (decoded_digest(rows) if form == "sql"
                  else rows_digest(rows, len(response["columns"])))
        if digest != refs[key, form]:
            run.fail(f"wrong answer: {key} as {form}")
    backlog.clear()


async def _served_loop(run: Run, port: int, corpus, schedule, refs,
                       deadline: float) -> None:
    """Whole schedule cycles over CLIENT_CONNECTIONS connections until the
    deadline has passed and MIN_SERVED_CYCLES are done. Responses are held,
    unchecked, until BACKLOG_ROWS rows are held or the cycle ends; then
    both connections pause."""
    clients = [await AsyncQueryClient.connect("127.0.0.1", port)
               for _ in range(CLIENT_CONNECTIONS)]
    backlog = []
    held = 0

    def quiet() -> None:
        nonlocal held
        check_backlog(run, backlog, refs)
        held = 0
        for _ in range(PAUSE_CALIBRATIONS):
            run.speed.measure()

    async def connection(client, requests, pause: _Pause) -> None:
        nonlocal held
        for index, (slot, form) in requests:
            await pause.point()
            entry = corpus[slot]
            run.attempted += 1
            start = time.perf_counter()
            try:
                response = await client.request(entry.payload(form))
            except (ConnectionError, ValueError) as exc:
                run.fail(f"{entry.key}: {exc!r}")
                continue
            end = time.perf_counter()
            if not response.get("ok"):
                run.fail(f"{entry.key}: {response.get('error')}")
                continue
            ms = run.record("read", start, end)
            traced = run.traced(index)
            run.reads.append((ms, traced, (entry.key, form)))
            if traced:
                run.tracer.add("serving.request", start, end, rid=index,
                               key=entry.key, form=form,
                               total_ms=response["total_ms"],
                               queue_wait_ms=response["queue_wait_ms"])
            run.read_sim_ms.append(response["simulated_ms"])
            run.sample("serving.overhead_ms", ms - response["total_ms"])
            run.sample("serving.queue_wait_ms", response["queue_wait_ms"])
            run.sample("exec.wall_ms", response["wall_ms"])
            backlog.append((entry.key, form, response))
            held += len(response["rows"])
            if held >= BACKLOG_ROWS:
                pause.pending = True
        pause.leave()

    quiet()
    start = time.perf_counter()
    paused = 0.0
    try:
        for cycle in itertools.count():
            pause = _Pause(len(clients), quiet)
            requests = enumerate(schedule, cycle * len(schedule))
            await asyncio.gather(*(connection(c, requests, pause)
                                   for c in clients))
            paused += pause.paused_s
            if cycle + 1 >= MIN_SERVED_CYCLES \
                    and time.perf_counter() >= deadline:
                break
    finally:
        run.window = (start, time.perf_counter(), paused)
        for client in clients:
            await client.close()


def served_probe(run: Run, db: Database, corpus) -> None:
    """Embedded pass over the served corpus, timing each layer's call.

    The first pass also gives the exec/buffer sums: the served traffic runs
    on worker threads, where the benchmark cannot see QueryStats."""
    span = run.tracer.span
    for rep in range(3):
        for entry, form in [(e, f) for e in corpus for f in e.forms]:
            with span("op", rid=f"probe{rep}:{entry.key}:{form}"):
                query = entry.query
                if form == "sql":
                    with span("sql.parse_bind"):
                        with span("sql.parse"):
                            statement = parse(entry.sql)
                        with span("sql.bind"):
                            query = bind(statement, db.catalog)
                read = Read(entry.key, query, "auto", "served")
                predictions = layer_probes(run, db, read)
                with span("engine.query"):
                    start = time.perf_counter()
                    result = db.query(query)
                    ms = (time.perf_counter() - start) * 1000.0
                run.sample("engine.dispatch_ms", ms - result.wall_ms)
                run.sample("model.err_ratio",
                           abs(predictions[result.strategy]
                               - result.simulated_ms) / result.simulated_ms)
                with span("result.rows"):
                    start = time.perf_counter()
                    if form == "sql":
                        result.decoded_rows()
                    else:
                        result.rows()
                    run.sample("result.rows_ms",
                               (time.perf_counter() - start) * 1000.0)
                if rep == 0:
                    for name in COUNTED:
                        run.counts[name] = run.counts.get(name, 0) + getattr(
                            result.stats, name)


def run_served_mix(run: Run) -> None:
    corpus = served_corpus(run.seed, N_CUSTOMER)
    schedule = served_schedule(run.seed, corpus)

    def make(root, stack):
        db = load(run, root, stack)
        server_stack = ExitStack()
        stack.callback(server_stack.close)
        server = server_stack.enter_context(
            ServerThread(db, workers=SERVER_WORKERS))
        asyncio.run(_warm(server.port, corpus))
        return db, server, server_stack

    root, stack, (db, server, server_stack) = timed_setup(run, make)
    record_config(run, db, connections=CLIENT_CONNECTIONS,
                  server_workers=SERVER_WORKERS)
    with stack:
        refs = {(e.key, f): served_reference(db, e, f)
                for e in corpus for f in e.forms}
        qlog_before = qlog_size(db)
        asyncio.run(_served_loop(run, server.port, corpus, schedule, refs,
                                 time.perf_counter() + run.seconds))
        run.qlog = qlog_growth(db, qlog_before)
        if run.trace:
            served_probe(run, db, corpus)
        # Merges are DDL and must not run while the server is up.
        server_stack.close()
        write_probe(run, db, root)


WORKLOADS = {
    "paper-sweep": run_paper_sweep,
    "served-mix": run_served_mix,
    "write-mix": run_write_mix,
}
