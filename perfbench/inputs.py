"""Seeded inputs for the three workloads.

Every generator takes the seed as an argument, so the program under test
only ever receives generated queries and writes. The *composition* of each
workload is fixed: which templates run, how often, and which Zipf rank each
served query holds. The seed jitters the predicate constants and shuffles
the order. Runs on different seeds therefore measure the same mix, which is
what lets their spread be compared against a bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import AggSpec, JoinQuery, Predicate, SelectQuery
from repro.dtypes import int_to_date
from repro.serving.loadgen import zipfian_cdf
from repro.tpch.generator import (
    RETURNFLAG_DICTIONARY,
    SHIPDATE_MAX,
    SHIPDATE_MIN,
)

ENCODINGS = ("uncompressed", "rle", "bitvector")
SELECT_STRATEGIES = (
    "auto", "em-pipelined", "em-parallel", "lm-parallel", "lm-pipelined",
)
JOIN_STRATEGIES = ("auto", "materialized", "multi-column", "single-column")

#: The paper's selectivity sweep (Section 4, Figures 11 and 12).
PAPER_SWEEP = (0.02, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.98)
#: Figure 13: fraction of customers the orders-side predicate keeps.
JOIN_SWEEP = (0.05, 0.25, 0.5)
#: Selective reads for write-mix. Under pending deletes every read takes
#: the row-at-a-time merge-on-read path, whose cost grows with the rows the
#: stored side returns; wide reads would leave too few reads per run.
WRITE_SWEEP = (0.004, 0.01, 0.02, 0.03)

#: write-mix cycle: reads and writes per cycle; a merge ends every cycle.
CYCLE_READS = 70
CYCLE_WRITES_EACH = 10          # inserts, updates and deletes per cycle
INSERT_BATCH = 20               # rows per insert call
DELETE_MAX_QUANTITY = 8         # 8 of 50 quantities: ~19 rows a write

#: served-mix: requests per schedule cycle, the Zipf skew and the seed of
#: the rank order. Skew and seed are the defaults of the repository's own
#: load generator (``repro.serving.loadgen.run_loadgen``); the rank order
#: is a seeded shuffle, not an order by cost, and it is the same on every
#: run seed.
SERVED_CYCLE = 204            # rounds to 204 requests: >= 200 reads a cycle
SERVED_THETA = 1.1
RANK_SEED = 7


@dataclass(frozen=True)
class Read:
    """One read: an instance key (for the reference), its query, a strategy."""

    key: str
    query: object
    strategy: str
    template: str                 # "select" | "agg" | "join"


def shipdate_constant(selectivity: float) -> int:
    """The shipdate constant X such that ``shipdate < X`` keeps *selectivity*."""
    span = SHIPDATE_MAX + 1 - SHIPDATE_MIN
    return int(SHIPDATE_MIN + selectivity * span)


#: Relative jitter the seed applies to each selectivity point.
JITTER = 0.05


def _jitter(rng: random.Random, value: float) -> float:
    return min(value * (1.0 + rng.uniform(-JITTER, JITTER)), 0.99)


def selection(selectivity: float, encoding: str) -> SelectQuery:
    """Section 4.1: ``SELECT shipdate, linenum ... WHERE shipdate < X AND
    linenum < 7``."""
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "linenum"),
        predicates=(
            Predicate("shipdate", "<", shipdate_constant(selectivity)),
            Predicate("linenum", "<", 7),
        ),
        encodings=(("linenum", encoding),),
    )


def aggregation(selectivity: float, encoding: str) -> SelectQuery:
    """Section 4.2: the selection grouped by shipdate with ``sum(linenum)``."""
    return SelectQuery(
        projection="lineitem",
        select=("shipdate", "sum(linenum)"),
        predicates=(
            Predicate("shipdate", "<", shipdate_constant(selectivity)),
            Predicate("linenum", "<", 7),
        ),
        group_by="shipdate",
        aggregates=(AggSpec("sum", "linenum"),),
        encodings=(("linenum", encoding),),
    )


def join(fraction: float, n_customer: int) -> JoinQuery:
    """Figure 13: orders joined to customer on custkey, ``custkey < X``."""
    return JoinQuery(
        left="orders",
        right="customer",
        left_key="custkey",
        right_key="custkey",
        left_select=("shipdate",),
        right_select=("nationcode",),
        left_predicates=(
            Predicate("custkey", "<", max(int(fraction * n_customer), 1) + 1),
        ),
    )


def _template_reads(rng: random.Random, sweep) -> list[Read]:
    """Selection and aggregation instances x every applicable strategy."""
    reads = []
    for point in sweep:
        sel = _jitter(rng, point)
        for encoding in ENCODINGS:
            strategies = [
                s for s in SELECT_STRATEGIES
                # LM-pipelined cannot position-filter bit-vector data.
                if not (s == "lm-pipelined" and encoding == "bitvector")
            ]
            for template, build in (("select", selection),
                                    ("agg", aggregation)):
                key = f"{template}:{point}:{encoding}"
                query = build(sel, encoding)
                reads += [Read(key, query, s, template) for s in strategies]
    return reads


def paper_sweep_cycle(seed: int, n_customer: int) -> list[Read]:
    """One shuffled cycle of every (paper instance, strategy) pair."""
    rng = random.Random(seed)
    reads = _template_reads(rng, PAPER_SWEEP)
    for point in JOIN_SWEEP:
        query = join(_jitter(rng, point), n_customer)
        reads += [
            Read(f"join:{point}", query, s, "join") for s in JOIN_STRATEGIES
        ]
    rng.shuffle(reads)
    return reads


def write_mix_reads(seed: int) -> list[Read]:
    """The write-mix read pool: paper templates at selective points."""
    rng = random.Random(seed)
    reads = _template_reads(rng, WRITE_SWEEP)
    rng.shuffle(reads)
    return reads


def pending_probe_reads() -> list[Read]:
    """Fixed reads timed just before and just after each merge."""
    return [
        Read(f"{t}:{p}:uncompressed", build(p, "uncompressed"), "auto", t)
        for p in WRITE_SWEEP
        for t, build in (("select", selection), ("agg", aggregation))
    ]


def write_ops(rng: random.Random, each: int = CYCLE_WRITES_EACH) -> list[tuple]:
    """One cycle's writes, shuffled: inserts, updates and deletes on
    lineitem.

    Each delete removes ``shipdate = d AND quantity <= 8``: about 19 rows of
    the 300 K-row table, close to the 20 rows each insert adds, so the table
    size stays level. Each update rewrites ``quantity`` where ``shipdate =
    d AND quantity > 42``, also about 19 rows, so every update and delete
    does about the same work whatever the seed.
    """
    ops = []
    for _ in range(each):
        rows = [
            {
                "returnflag": rng.choice(RETURNFLAG_DICTIONARY),
                "shipdate": rng.randint(SHIPDATE_MIN, SHIPDATE_MAX),
                "linenum": rng.randint(1, 7),
                "quantity": rng.randint(1, 50),
            }
            for _ in range(INSERT_BATCH)
        ]
        ops.append(("insert", rows))
        ops.append((
            "update",
            (
                Predicate("shipdate", "=", rng.randint(SHIPDATE_MIN,
                                                       SHIPDATE_MAX)),
                Predicate("quantity", ">", 50 - DELETE_MAX_QUANTITY),
            ),
            {"quantity": rng.randint(1, 50)},
        ))
        ops.append((
            "delete",
            (
                Predicate("shipdate", "=", rng.randint(SHIPDATE_MIN,
                                                       SHIPDATE_MAX)),
                Predicate("quantity", "<=", DELETE_MAX_QUANTITY),
            ),
        ))
    rng.shuffle(ops)
    return ops


def write_mix_cycle(rng: random.Random, reads: list[Read], start: int,
                    n_reads: int = CYCLE_READS,
                    writes_each: int = CYCLE_WRITES_EACH):
    """One cycle: *n_reads* reads from the pool (continuing at *start*)
    interleaved with the cycle's writes. Returns ``(ops, next_start)``."""
    ops = [("read", reads[(start + i) % len(reads)])
           for i in range(n_reads)]
    ops += write_ops(rng, writes_each)
    rng.shuffle(ops)
    return ops, start + n_reads


# ----------------------------------------------------------------- served-mix

@dataclass(frozen=True)
class Served:
    """One served-corpus entry, as SQL text, a logical query, or both.

    SQL goes out with ``decoded=True``; the logical query as a structured
    ``query`` op returning stored values. An entry with both forms
    alternates between them.
    """

    key: str
    sql: str | None = None
    query: object = None

    @property
    def forms(self) -> tuple[str, ...]:
        return tuple(f for f, v in (("sql", self.sql), ("query", self.query))
                     if v is not None)

    def payload(self, form: str) -> dict:
        from repro.serving.protocol import query_to_dict

        if form == "sql":
            return {"op": "sql", "sql": self.sql, "decoded": True}
        return {"op": "query", "query": query_to_dict(self.query)}


def _date(selectivity: float) -> str:
    return int_to_date(shipdate_constant(selectivity)).isoformat()


def _flag(name: str) -> int:
    return RETURNFLAG_DICTIONARY.index(name)


def served_corpus(seed: int, n_customer: int) -> list[Served]:
    """The served corpus; :func:`served_schedule` gives it its Zipf ranks.

    SQL selects no DATE column: the server cannot JSON-encode decoded dates
    (it drops the connection), so dates appear in SQL predicates only and
    the paper-query instances, which select ``shipdate``, go structured.
    Results run from 1 row to ~145 K rows, with no limit cap.
    """
    rng = random.Random(seed)
    quantities = [rng.randint(1, 50) for _ in range(4)]
    sel = {p: _jitter(rng, p) for p in (0.02, 0.05, 0.1, 0.25, 0.5, 0.6,
                                          0.98)}

    def lineitem(select, predicates, group=None, agg=None) -> SelectQuery:
        return SelectQuery(
            projection="lineitem", select=select, predicates=predicates,
            group_by=group, aggregates=(agg,) if agg else (),
        )

    q0, q1, q2, q3 = quantities
    return [
        Served(
            "agg-1row",
            sql=("SELECT returnflag, SUM(quantity) FROM lineitem WHERE "
                 f"returnflag = 'N' AND quantity = {q0} GROUP BY returnflag"),
            query=lineitem(
                ("returnflag", "sum(quantity)"),
                (Predicate("returnflag", "=", _flag("N")),
                 Predicate("quantity", "=", q0)),
                "returnflag", AggSpec("sum", "quantity")),
        ),
        Served(
            "eq-3col",
            sql=("SELECT linenum, quantity FROM lineitem WHERE "
                 f"quantity = {q1} AND returnflag = 'R' AND linenum = 2"),
            query=lineitem(
                ("linenum", "quantity"),
                (Predicate("quantity", "=", q1),
                 Predicate("returnflag", "=", _flag("R")),
                 Predicate("linenum", "=", 2))),
        ),
        Served(
            "agg-linenum",
            sql=("SELECT linenum, COUNT(quantity) FROM lineitem "
                 f"WHERE quantity = {q2} GROUP BY linenum"),
            query=lineitem(
                ("linenum", "count(quantity)"),
                (Predicate("quantity", "=", q2),),
                "linenum", AggSpec("count", "quantity")),
        ),
        Served("eq-flag-qty", query=lineitem(
            ("returnflag", "shipdate", "quantity"),
            (Predicate("quantity", "=", q3),
             Predicate("returnflag", "=", _flag("A"))))),
        Served("select-0.02", query=selection(sel[0.02], "uncompressed")),
        Served(
            "eq-qty",
            sql=("SELECT returnflag, linenum FROM lineitem "
                 f"WHERE quantity = {q3}"),
            query=lineitem(("returnflag", "linenum"),
                           (Predicate("quantity", "=", q3),)),
        ),
        Served("join-0.05", query=join(sel[0.05], n_customer)),
        Served("agg-0.1-rle", query=aggregation(sel[0.1], "rle")),
        Served(
            "agg-linenum-0.6",
            sql=("SELECT linenum, SUM(quantity) FROM lineitem "
                 f"WHERE shipdate < '{_date(sel[0.6])}' GROUP BY linenum"),
            query=lineitem(
                ("linenum", "sum(quantity)"),
                (Predicate("shipdate", "<", shipdate_constant(sel[0.6])),),
                "linenum", AggSpec("sum", "quantity")),
        ),
        Served(
            "flag-qty-0.05",
            sql=("SELECT returnflag, quantity FROM lineitem WHERE "
                 f"shipdate < '{_date(sel[0.05])}' AND linenum < 7"),
            query=lineitem(
                ("returnflag", "quantity"),
                (Predicate("shipdate", "<", shipdate_constant(sel[0.05])),
                 Predicate("linenum", "<", 7))),
        ),
        Served("agg-0.98-bitvector",
               query=aggregation(sel[0.98], "bitvector")),
        Served(
            "flag-qty-0.1",
            sql=("SELECT returnflag, quantity FROM lineitem WHERE "
                 f"shipdate < '{_date(sel[0.1])}' AND linenum < 7"),
            query=lineitem(
                ("returnflag", "quantity"),
                (Predicate("shipdate", "<", shipdate_constant(sel[0.1])),
                 Predicate("linenum", "<", 7))),
        ),
        Served("select-0.25", query=selection(sel[0.25], "rle")),
        Served("select-0.5", query=selection(sel[0.5], "uncompressed")),
    ]


def served_schedule(seed: int, corpus: list[Served],
                    length: int = SERVED_CYCLE) -> list[tuple[int, str]]:
    """A shuffled cycle of ``(corpus index, form)``.

    Half the cycle goes as SQL, drawn over the entries that have an SQL
    form, and half structured, drawn over every entry. In each half the
    counts follow Zipf(SERVED_THETA) over ranks that a shuffle with
    RANK_SEED gives the entries; the run's *seed* only orders the cycle.
    Stratified rather than sampled: every cycle holds exactly the Zipf
    counts (at least one request per rank), so runs on different seeds
    measure the same mix.
    """
    rank_rng = random.Random(RANK_SEED)
    schedule = []
    for form in ("sql", "query"):
        ranked = [i for i, e in enumerate(corpus) if form in e.forms]
        rank_rng.shuffle(ranked)
        cdf = zipfian_cdf(len(ranked), SERVED_THETA)
        for index, lo, hi in zip(ranked, [0.0] + cdf, cdf):
            count = max(1, round(length / 2 * (hi - lo)))
            schedule += [(index, form)] * count
    random.Random(seed).shuffle(schedule)
    return schedule
