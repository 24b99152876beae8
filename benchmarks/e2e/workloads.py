"""Workloads of the end-to-end benchmark and the child process that runs one.

``run.py`` starts this file as a fresh process for every sample::

    python benchmarks/e2e/workloads.py --workload adapt-scan --seed 1 \\
        --seconds 12 --mode measure --spawned-at <time.time()>

``--mode setup`` only sets the workload up and reports how long that
took; ``measure`` also runs whole units of work until ``--seconds`` have
elapsed, checks the answers and prints the end-to-end metrics;
``trace`` runs one unit untraced, then traced units (see ``layers.py``)
and prints the per-layer metrics.  The last line of standard output is
one JSON object.

Every input is generated here from ``--seed``: the TPC-H and join-micro
data, the plans (this file keeps its own copy of the Q1-style plan
builder), the tenant mixes and the SQL statement stream.  Editing
``repro.bench.wallclock`` or the loadgen presets therefore cannot change
what the benchmark measures.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import itertools
import json
import resource
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import AdaptiveParallelizer, ConvergenceParams  # noqa: E402
from repro.engine import execute  # noqa: E402
from repro.operators import (  # noqa: E402
    Calc,
    Fetch,
    GroupAggregate,
    RangePredicate,
    Scan,
    Select,
)
from repro.plan import Plan  # noqa: E402
from repro.serve.engine import render_outputs  # noqa: E402
from repro.serve.loadgen import LoadgenSpec, TenantMix, build_service  # noqa: E402
from repro.sql import plan_sql  # noqa: E402
from repro.storage import date_value  # noqa: E402
from repro.workloads import JoinMicroWorkload, TpchDataset  # noqa: E402

import layers  # noqa: E402

WORKLOADS = ("adapt-scan", "adapt-join", "serve-sim", "serve-sql")

#: Seeds of the simulated machine (its noise model) and of the simulated
#: clients.  They are the same for every --seed, which generates the data
#: and the SQL literals: runs with different seeds then do equally much
#: simulated work, and their host times differ by the data alone.
SIM_SEED = 20160315


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``QUICK`` only serves the benchmark's self-test."""

    scan_sf: int
    max_runs: int
    join_outer_mb: int
    sim_clients: tuple[int, int, int]
    sim_horizon: float
    sql_sf: int
    sql_warmup: int
    sql_round: int


FULL = Sizes(scan_sf=120, max_runs=500, join_outer_mb=3200,
             sim_clients=(160, 140, 100), sim_horizon=8.0,
             sql_sf=100, sql_warmup=70, sql_round=140)
QUICK = Sizes(scan_sf=2, max_runs=40, join_outer_mb=160,
              sim_clients=(8, 6, 4), sim_horizon=1.0,
              sql_sf=1, sql_warmup=14, sql_round=28)


@dataclass
class Unit:
    """One measured unit of work and the requests it was made of."""

    seconds: float
    #: Host seconds of every request in the unit.
    latencies: list[float]
    #: Work items completed (adaptive runs, simulated queries, statements).
    work: int
    payload: object = None


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


# ----------------------------------------------------------------------
# input digests
# ----------------------------------------------------------------------
def catalog_digest(catalog):
    """blake2b over every generated column (names, dtypes, values)."""
    h = hashlib.blake2b(digest_size=16)
    for table in sorted(catalog.tables(), key=lambda t: t.name):
        for column in table.columns():
            h.update(f"{table.name}.{column.name}:{column.dtype.name}".encode())
            h.update(np.ascontiguousarray(column.values).tobytes())
            if column.dictionary is not None:
                h.update("\x00".join(column.dictionary).encode())
    return h


# ----------------------------------------------------------------------
# adapt-scan / adapt-join: AdaptiveParallelizer.optimize instances
# ----------------------------------------------------------------------
def q1_style_plan(catalog) -> tuple[Plan, float]:
    """TPC-H Q1-style aggregation over lineitem, and its date cutoff.

    Date-range select, three fetches, a calc and two grouped aggregates
    over a low-cardinality key (``l_tax``; the generated lineitem has no
    returnflag/linestatus).  The cutoff sits at the 70th percentile of
    ``l_shipdate``.
    """
    shipdate = catalog.column("lineitem", "l_shipdate")
    cutoff = float(np.percentile(shipdate.values, 70))
    plan = Plan()

    def scan(column: str):
        return plan.add(Scan(catalog.column("lineitem", column)), label=f"lineitem.{column}")

    cands = plan.add(
        Select(RangePredicate(hi=cutoff, hi_inclusive=False)), [scan("l_shipdate")]
    )
    keys = plan.add(Fetch(), [cands, scan("l_tax")])
    price = plan.add(Fetch(), [cands, scan("l_extendedprice")])
    disc = plan.add(Fetch(), [cands, scan("l_discount")])
    volume = plan.add(Calc("*"), [price, disc])
    sums = plan.add(GroupAggregate("sum"), [keys, volume])
    counts = plan.add(GroupAggregate("count"), [keys])
    plan.set_outputs([sums, counts])
    return plan, cutoff


def check_scan_answer(catalog, cutoff: float, outputs) -> str | None:
    """Numpy group sums and counts for the Q1-style query; None if right."""
    col = lambda name: catalog.column("lineitem", name).values  # noqa: E731
    mask = col("l_shipdate") < cutoff
    keys = col("l_tax")[mask]
    volume = col("l_extendedprice")[mask] * col("l_discount")[mask]
    groups = np.unique(keys)
    sums = np.array([volume[keys == g].sum() for g in groups], dtype=np.int64)
    counts = np.array([(keys == g).sum() for g in groups], dtype=np.int64)
    if len(outputs) != 2:
        return f"expected 2 outputs, got {len(outputs)}"
    for label, out, expected in (("sum", outputs[0], sums), ("count", outputs[1], counts)):
        if not np.array_equal(out.head, groups):
            return f"{label}: group keys {out.head.tolist()} != {groups.tolist()}"
        if not np.array_equal(np.asarray(out.tail), expected):
            return f"{label}: values differ from numpy"
    return None


def check_join_answer(outer_rows: int, outputs) -> str | None:
    """Every outer key matches exactly one inner key: count == outer rows."""
    if len(outputs) != 1 or outputs[0].value != outer_rows:
        got = [getattr(o, "value", o) for o in outputs]
        return f"join count {got} != outer rows {outer_rows}"
    return None


class AdaptWorkload:
    """``AdaptiveParallelizer(cfg).optimize(plan)`` instances; a unit is one
    instance and a request is one adaptive run (the mutation before it
    plus its execution)."""

    def __init__(self, name: str, seed: int, sizes: Sizes) -> None:
        self.name = name
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        if self.name == "adapt-scan":
            dataset = TpchDataset(scale_factor=self.sizes.scan_sf, seed=self.seed)
            self.catalog = dataset.catalog
            self.plan, self.cutoff = q1_style_plan(self.catalog)
            self.config = dataset.sim_config(seed=SIM_SEED)
            self.workers = None
        else:
            micro = JoinMicroWorkload(
                outer_mb=self.sizes.join_outer_mb, inner_mb=16, seed=self.seed
            )
            self.catalog = micro.catalog
            self.plan = micro.plan()
            self.config = micro.sim_config(seed=SIM_SEED)
            # The only workload that fans kernels out to the thread pool.
            self.workers = 2
        self.convergence = ConvergenceParams(
            number_of_cores=self.config.effective_threads,
            max_runs=self.sizes.max_runs,
        )

    def digest(self) -> str:
        return catalog_digest(self.catalog).hexdigest()

    def unit(self, index: int, tracer: layers.Tracer | None = None) -> Unit:
        parallelizer = AdaptiveParallelizer(
            self.config,
            convergence=self.convergence,
            workers=self.workers,
            backend="thread" if self.workers else None,
        )
        run_ends: list[float] = []
        runner = parallelizer.runner

        def timed_runner(plan, run):
            result = runner(plan, run)
            run_ends.append(perf_counter())
            if tracer is not None:
                tracer.request = run + 1
            return result

        parallelizer.runner = timed_runner
        if tracer is not None:
            tracer.request = 0
        start = perf_counter()
        try:
            result = parallelizer.optimize(self.plan)
            seconds = perf_counter() - start
            memo = parallelizer.memo.stats()
        finally:
            parallelizer.close()
        if tracer is not None:
            tracer.counts["core.mutations"] += len(result.mutations)
            tracer.counts["core.rejections"] += len(result.rejections)
            tracer.counts["core.runs"] += result.total_runs
        summary = {
            "trace": [r.exec_time for r in result.history],
            "gme_run": result.gme_run,
            "total_runs": result.total_runs,
            "runs_to_gme": result.runs_to_gme,
            "gme_speedup": result.speedup,
            "best_plan": [out.fingerprint().hex() for out in result.best_plan.outputs],
            "memo_hits": memo.hits,
            "memo_misses": memo.misses,
            "memo_evictions": memo.evictions,
        }
        if index == 0:
            self.best_plan = result.best_plan
        latencies = np.diff([start, *run_ends]).tolist()
        return Unit(seconds, latencies, result.total_runs, summary)

    def check(self, units: list[Unit]) -> list[Check]:
        first = units[0].payload
        same = all(u.payload == first for u in units)
        checks = [Check("instances identical", same,
                        "" if same else "simulated traces differ between instances")]
        outputs = execute(self.best_plan, self.config).outputs
        if self.name == "adapt-scan":
            error = check_scan_answer(self.catalog, self.cutoff, outputs)
        else:
            outer = len(self.catalog.table("outer"))
            error = check_join_answer(outer, outputs)
        checks.append(Check("GME plan answer", error is None, error or ""))
        return checks

    def details(self, units: list[Unit]) -> dict:
        first = units[0].payload
        lookups = first["memo_hits"] + first["memo_misses"]
        return {
            "gme_speedup": first["gme_speedup"],
            "runs_to_gme": first["runs_to_gme"],
            "total_runs": first["total_runs"],
            "gme_run": first["gme_run"],
            "memo_evictions": first["memo_evictions"],
            "memo_hit_rate": first["memo_hits"] / lookups if lookups else 0.0,
        }


# ----------------------------------------------------------------------
# serve-sim: TenantLoadService.run on the simulated clock
# ----------------------------------------------------------------------
#: Statement mixes per SLO tier (copies, so editing the loadgen presets
#: does not change this workload).
GOLD_SQL = (
    "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
    "WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' "
    "AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24",
    "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_acctbal > 500000",
)
SILVER_SQL = (
    "SELECT c_nationkey, COUNT(*) FROM orders, customer "
    "WHERE o_custkey = c_custkey AND o_orderpriority <> '1-URGENT' "
    "GROUP BY c_nationkey ORDER BY c_nationkey",
    "SELECT SUM(l_extendedprice) / 7 FROM lineitem, part "
    "WHERE l_partkey = p_partkey AND p_brand = 'Brand#23' "
    "AND p_container = 'MED BOX' AND l_quantity < 9",
)
BRONZE_SQL = (
    "SELECT n_name, SUM(l_extendedprice * (100 - l_discount)) "
    "FROM lineitem, part, supplier, nation "
    "WHERE l_partkey = p_partkey AND l_suppkey = s_suppkey "
    "AND s_nationkey = n_nationkey AND p_type LIKE '%BRASS%' "
    "GROUP BY n_name ORDER BY n_name",
    "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_acctbal > 500000 "
    "AND c_custkey NOT IN (SELECT o_custkey FROM orders)",
)


def check_sim_reports(reports: list[str]) -> list[Check]:
    """Every query is accounted for, and repeated runs are byte-identical."""
    doc = json.loads(reports[0])
    leaks = [
        name for name, t in doc["tenants"].items()
        if t["issued"] != t["completed"] + t["rejected"] + t["abandoned"]
    ]
    identical = all(r == reports[0] for r in reports)
    return [
        Check("issued = completed + rejected + abandoned", not leaks,
              f"unbalanced tenants {leaks}" if leaks else ""),
        Check("reports byte-identical", identical,
              "" if identical else "reports differ between repetitions"),
    ]


class SimWorkload:
    """``TenantLoadService.run`` near saturation; a unit and a request are
    one load run."""

    name = "serve-sim"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        gold, silver, bronze = self.sizes.sim_clients
        mixes = (
            TenantMix("gold", gold, GOLD_SQL, think_mean=0.15),
            TenantMix("silver", silver, SILVER_SQL, think_mean=0.25),
            TenantMix("bronze", bronze, BRONZE_SQL, think_mean=0.4),
        )
        spec = LoadgenSpec("e2e-serve-sim", mixes, seed=SIM_SEED,
                           horizon=self.sizes.sim_horizon)
        dataset = TpchDataset(scale_factor=1, seed=self.seed)
        self.catalog = dataset.catalog
        config = dataset.sim_config().with_seed(SIM_SEED)
        self.service = build_service(spec, config=config, catalog=self.catalog)

    def digest(self) -> str:
        h = catalog_digest(self.catalog)
        h.update(repr((self.sizes.sim_clients, GOLD_SQL, SILVER_SQL, BRONZE_SQL)).encode())
        return h.hexdigest()

    def unit(self, index: int, tracer: layers.Tracer | None = None) -> Unit:
        if tracer is not None:
            tracer.request = index
        start = perf_counter()
        report = self.service.run(seed=SIM_SEED)
        seconds = perf_counter() - start
        doc = report.as_dict()
        return Unit(seconds, [seconds], doc["totals"]["completed"],
                    json.dumps(doc, sort_keys=True))

    def check(self, units: list[Unit]) -> list[Check]:
        return check_sim_reports([u.payload for u in units])

    def details(self, units: list[Unit]) -> dict:
        totals = json.loads(units[0].payload)["totals"]
        refused = totals["rejected"] + totals["abandoned"]
        return {
            "sim_qps": totals["throughput_qps"],
            "sim_p99_ms": totals["p99_ms"],
            "sim_failed_ratio": refused / totals["issued"],
            "issued": totals["issued"],
            "completed": totals["completed"],
        }


# ----------------------------------------------------------------------
# serve-sql: `repro serve` over one NDJSON connection
# ----------------------------------------------------------------------
#: Rows requested per response: enough for every group of every template.
ROW_LIMIT = 32
#: Every ORACLE_EVERY-th statement of the non-numpy templates is
#: re-executed in process, without the memo, after the measured phase.
ORACLE_EVERY = 10

_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
_BRANDS = tuple(f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6))
_CONTAINERS = tuple(f"{size} {kind}" for size in ("SM", "MED", "LG", "JUMBO", "WRAP")
                    for kind in ("CASE", "BOX", "BAG", "PKG", "PACK"))
_TYPE_WORDS = ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER",
               "ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")

TEMPLATES = (
    # 0: Q6-like scan (numpy oracle)
    "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
    "WHERE l_shipdate >= DATE '{start}' AND l_shipdate < DATE '{end}' "
    "AND l_discount BETWEEN {disc} AND {disc_hi} AND l_quantity < {qty}",
    # 1: customer balance (numpy oracle)
    "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_acctbal > {bal}",
    # 2: orders join customer, grouped (numpy oracle)
    "SELECT c_nationkey, COUNT(*) FROM orders, customer "
    "WHERE o_custkey = c_custkey AND o_orderpriority <> '{prio}' "
    "AND o_orderdate >= DATE '{date}' GROUP BY c_nationkey ORDER BY c_nationkey",
    # 3: lineitem join part on brand and container
    "SELECT SUM(l_extendedprice) / 7 FROM lineitem, part "
    "WHERE l_partkey = p_partkey AND p_brand = '{brand}' "
    "AND p_container = '{container}' AND l_quantity < {qty}",
    # 4: 4-way join with LIKE
    "SELECT n_name, SUM(l_extendedprice * (100 - l_discount)) "
    "FROM lineitem, part, supplier, nation "
    "WHERE l_partkey = p_partkey AND l_suppkey = s_suppkey "
    "AND s_nationkey = n_nationkey AND p_type LIKE '%{word}%' "
    "AND p_size < {size} AND l_quantity < {qty} GROUP BY n_name ORDER BY n_name",
    # 5: NOT IN subquery
    "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_acctbal > {bal} "
    "AND c_custkey NOT IN (SELECT o_custkey FROM orders)",
)
NUMPY_TEMPLATES = (0, 1, 2)
#: Template order of the stream.  Template 3 comes twice per cycle: with
#: three cheaper and two dearer templates, the median statement then
#: falls inside template 3's latencies instead of on a gap between two
#: templates, where the median would jump with small shifts.
CYCLE = (0, 1, 2, 3, 4, 5, 3)
_FIRST_DAY = datetime.date(1992, 1, 1)


@dataclass(frozen=True)
class Statement:
    index: int
    template: int
    params: dict
    sql: str


def _day(rng, years: int) -> datetime.date:
    return _FIRST_DAY + datetime.timedelta(days=int(rng.integers(0, 365 * years)))


def statement_stream(seed: int):
    """The seeded statement stream.

    Every seed runs the same template cycle.  The literals are drawn from
    domains large enough that texts rarely repeat, so almost every
    statement misses the plan cache and runs its literal-dependent
    kernels cold: a repeated text would hit the memo and cost a fraction
    of a cold one, and how often that happens would move the median.
    """
    rng = np.random.default_rng([seed, 6])
    for index in itertools.count():
        template = CYCLE[index % len(CYCLE)]
        if template == 0:
            start = _day(rng, 6)
            disc = int(rng.integers(0, 9))
            params = {"start": start.isoformat(),
                      "end": (start + datetime.timedelta(days=365)).isoformat(),
                      "disc": disc, "disc_hi": disc + 2,
                      "qty": int(rng.integers(10, 50))}
        elif template in (1, 5):
            params = {"bal": int(rng.integers(0, 1_000_000))}
        elif template == 2:
            params = {"prio": _PRIORITIES[int(rng.integers(5))],
                      "date": _day(rng, 7).isoformat()}
        elif template == 3:
            params = {"brand": _BRANDS[int(rng.integers(len(_BRANDS)))],
                      "container": _CONTAINERS[int(rng.integers(len(_CONTAINERS)))],
                      "qty": int(rng.integers(2, 51))}
        else:
            params = {"word": _TYPE_WORDS[int(rng.integers(len(_TYPE_WORDS)))],
                      "size": int(rng.integers(2, 51)),
                      "qty": int(rng.integers(2, 51))}
        yield Statement(index, template, params, TEMPLATES[template].format(**params))


def numpy_rows(catalog, st: Statement) -> list[dict]:
    """Independent numpy answer of a template-0/1/2 statement, rendered."""
    col = lambda table, name: catalog.column(table, name).values  # noqa: E731
    p = st.params
    if st.template == 0:
        ship = col("lineitem", "l_shipdate")
        disc = col("lineitem", "l_discount")
        mask = ((ship >= date_value(p["start"])) & (ship < date_value(p["end"]))
                & (disc >= p["disc"]) & (disc <= p["disc_hi"])
                & (col("lineitem", "l_quantity") < p["qty"]))
        total = int((col("lineitem", "l_extendedprice")[mask] * disc[mask]).sum())
        return [{"kind": "scalar", "value": total}]
    if st.template == 1:
        bal = col("customer", "c_acctbal")
        chosen = bal[bal > p["bal"]]
        return [{"kind": "scalar", "value": int(len(chosen))},
                {"kind": "scalar", "value": int(chosen.sum())}]
    prio_column = catalog.column("orders", "o_orderpriority")
    prio_code = prio_column.dictionary.index(p["prio"])
    mask = ((prio_column.values != prio_code)
            & (col("orders", "o_orderdate") >= date_value(p["date"])))
    # c_custkey is the dense row number of customer.
    nations = col("customer", "c_nationkey")[col("orders", "o_custkey")[mask]]
    counts = np.bincount(nations)
    pairs = [[int(k), int(c)] for k, c in enumerate(counts) if c]
    return [{"kind": "bat", "n": len(pairs), "pairs": pairs[:ROW_LIMIT]}]


def rows_match(expected, got) -> bool:
    """Structural equality; floats within a relative 1e-9."""
    if isinstance(expected, dict) and isinstance(got, dict):
        return expected.keys() == got.keys() and all(
            rows_match(expected[k], got[k]) for k in expected
        )
    if isinstance(expected, list) and isinstance(got, list):
        return len(expected) == len(got) and all(
            rows_match(a, b) for a, b in zip(expected, got)
        )
    if isinstance(expected, float) or isinstance(got, float):
        return abs(expected - got) <= 1e-9 * max(1.0, abs(expected))
    return expected == got


def check_sql_answers(catalog, config, statements, responses) -> list[Check]:
    """Numpy answers for templates 0-2; every ORACLE_EVERY-th statement of
    the others re-executed in process without the memo."""
    wrong: list[int] = []
    checked = 0
    seen_other = 0
    for st, response in zip(statements, responses):
        if response.get("type") != "result":
            continue
        if st.template in NUMPY_TEMPLATES:
            expected = numpy_rows(catalog, st)
        else:
            seen_other += 1
            if seen_other % ORACLE_EVERY:
                continue
            outputs = execute(plan_sql(st.sql, catalog), config).outputs
            expected = json.loads(json.dumps(render_outputs(outputs, limit=ROW_LIMIT)))
        checked += 1
        if not rows_match(expected, response["rows"]):
            wrong.append(st.index)
    return [Check(f"answers ({checked} checked)", not wrong,
                  f"wrong answers for statements {wrong[:10]}" if wrong else "")]


class ServerProcess:
    """``repro serve`` started through ``serve_child.py``."""

    def __init__(self, seed: int, sf: int, trace_out: Path | None = None) -> None:
        cmd = [sys.executable, "-u", str(HERE / "serve_child.py"),
               "--data-seed", str(seed)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--", "--sf", str(sf), "--seed", str(SIM_SEED)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split()[2].rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Graceful SIGINT drain; waits until the process has ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class Client:
    """One blocking NDJSON connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, doc: dict) -> dict:
        self.sock.sendall(json.dumps(doc).encode() + b"\n")
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def query(self, st: Statement, request_id: int) -> dict:
        return self.call({"op": "query", "id": request_id, "sql": st.sql,
                          "limit": ROW_LIMIT})

    def close(self) -> None:
        try:
            self.call({"op": "goodbye"})
        finally:
            self.reader.close()
            self.sock.close()


@dataclass
class Session:
    """What one server lifetime produced."""

    setup_s: float = 0.0
    units: list[Unit] = field(default_factory=list)
    statements: list[Statement] = field(default_factory=list)
    responses: list[dict] = field(default_factory=list)


class SqlWorkload:
    """Statements from six templates over one connection to a live server;
    a unit is a round of statements and a request is one statement."""

    name = "serve-sql"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def session(self, spawned_at: float, *, seconds: float | None,
                max_rounds: int | None = None, trace_out: Path | None = None,
                tracer: layers.Tracer | None = None) -> Session:
        """Start a server, warm it up, run rounds, stop it.

        ``seconds=None`` stops after the warm-up (a set-up sample).
        """
        out = Session()
        stream = statement_stream(self.seed)
        server = ServerProcess(self.seed, self.sizes.sql_sf, trace_out)
        try:
            client = Client(server.port)
            hello = client.call({"op": "hello", "tenant": "silver"})
            if not hello.get("ok"):
                raise RuntimeError(f"hello refused: {hello}")
            for _ in range(self.sizes.sql_warmup):
                st = next(stream)
                out.statements.append(st)
                out.responses.append(client.query(st, -(st.index + 1)))
            out.setup_s = time.time() - spawned_at
            start = perf_counter()
            while seconds is not None and (
                not out.units or perf_counter() - start < seconds
            ) and (max_rounds is None or len(out.units) < max_rounds):
                out.units.append(self._round(client, stream, out, tracer))
            client.close()
        finally:
            server.stop()
        return out

    def _round(self, client: Client, stream, out: Session, tracer) -> Unit:
        latencies = []
        round_start = perf_counter()
        for _ in range(self.sizes.sql_round):
            st = next(stream)
            t0 = perf_counter()
            response = client.query(st, st.index)
            t1 = perf_counter()
            latencies.append(t1 - t0)
            if tracer is not None:
                tracer.record("bench.request", t0, t1, st.index)
            out.statements.append(st)
            out.responses.append(response)
        return Unit(perf_counter() - round_start, latencies, len(latencies))

    def check(self, session: Session) -> tuple[list[Check], int, int]:
        """Oracle checks plus (attempted, failed) over measured statements."""
        dataset = TpchDataset(scale_factor=self.sizes.sql_sf, seed=self.seed)
        self.catalog = dataset.catalog
        config = dataset.sim_config().with_seed(SIM_SEED)
        measured = session.responses[self.sizes.sql_warmup:]
        failed = sum(1 for r in measured if r.get("type") != "result")
        checks = [Check("every statement answered", failed == 0,
                        f"{failed} non-result responses" if failed else "")]
        checks += check_sql_answers(self.catalog, config, session.statements,
                                    session.responses)
        return checks, len(measured), failed

    def digest(self, session: Session) -> str:
        """Data plus the warm-up and first round, which identify the
        seeded stream whatever the run's length."""
        h = catalog_digest(self.catalog)
        for st in session.statements[:self.sizes.sql_warmup + self.sizes.sql_round]:
            h.update(st.sql.encode())
        return h.hexdigest()

    def details(self, session: Session) -> dict:
        """Simulated outcomes of the warm-up and first round, which every
        run executes whatever its length."""
        first = self.sizes.sql_warmup + self.sizes.sql_round
        responses = session.responses[:first]
        return {
            "repeat_share": repeat_share(session.statements[:first], self.sizes.sql_round),
            "sim_ms_total": sum(r.get("simulated_ms", 0.0) for r in responses),
            "failed_ratio": sum(
                1 for r in responses if r.get("type") != "result"
            ) / len(responses),
        }


def repeat_share(statements: list[Statement], last: int) -> float:
    """Share of the last ``last`` statement texts already seen in the run."""
    seen: set[str] = set()
    repeats = 0
    first_measured = len(statements) - last
    for i, st in enumerate(statements):
        if st.sql in seen and i >= first_measured:
            repeats += 1
        seen.add(st.sql)
    return repeats / last if last else 0.0


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def request_metrics(units: list[Unit]) -> dict:
    """p50/p90 host latency over every request, median unit throughput."""
    latencies = [x for u in units for x in u.latencies]
    p50 = statistics.median(latencies)
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[-1]
           if len(latencies) > 1 else latencies[0])
    return {
        "p50_ms": p50 * 1e3,
        "p90_ms": p90 * 1e3,
        "throughput": statistics.median(u.work / u.seconds for u in units),
        "requests": len(latencies),
        "units": len(units),
    }


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set in MiB (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_units(workload, seconds: float, tracer: layers.Tracer | None = None,
              first_index: int = 0) -> list[Unit]:
    """Whole units until ``seconds`` have elapsed (at least one)."""
    units: list[Unit] = []
    root = tracer.name_id("bench.unit") if tracer is not None else None
    start = perf_counter()
    while not units or perf_counter() - start < seconds:
        index = first_index + len(units)
        if tracer is None:
            units.append(workload.unit(index))
        else:
            units.append(tracer.call(root, workload.unit, (index, tracer), {}))
            tracer.harvest()
        # A finished instance's 256 MiB memo can sit in a reference
        # cycle; free it before the next unit so peak RSS is one unit's.
        gc.collect()
    return units


def make_workload(name: str, seed: int, sizes: Sizes):
    if name in ("adapt-scan", "adapt-join"):
        return AdaptWorkload(name, seed, sizes)
    if name == "serve-sim":
        return SimWorkload(seed, sizes)
    return SqlWorkload(seed, sizes)


def _result(checks: list[Check], **fields) -> dict:
    return {"correct": all(c.ok for c in checks),
            "checks": [asdict(c) for c in checks], **fields}


def run_child(args) -> dict:
    sizes = QUICK if args.quick else FULL
    workload = make_workload(args.workload, args.seed, sizes)
    if args.workload == "serve-sql":
        return _run_sql(workload, args)
    tracer = None
    if args.mode == "trace":
        tracer = layers.Tracer()
        layers.install(tracer, ("workloads",))
    workload.setup()
    setup_s = time.time() - args.spawned_at
    if args.mode == "setup":
        return {"setup_s": setup_s}
    if args.mode == "measure":
        units = run_units(workload, args.seconds)
        rss = peak_rss_mb()
        # An adaptive run or load run either completes or aborts the run.
        return _result(
            workload.check(units), setup_s=setup_s, peak_rss_mb=rss,
            digest=workload.digest(), attempted=sum(len(u.latencies) for u in units),
            failed=0,
            details=workload.details(units), **request_metrics(units),
        )
    # trace: one untraced unit as the overhead baseline, then traced units
    start = perf_counter()
    baseline = workload.unit(0)
    layers.install(tracer, [layer for layer in layers.LAYERS if layer != "workloads"])
    units = run_units(workload, args.seconds - (perf_counter() - start), tracer,
                      first_index=1)
    overhead = statistics.median(u.seconds for u in units) / baseline.seconds - 1.0
    checks = workload.check([baseline, *units])
    return _trace_result(args, tracer.spans(), tracer.counts, len(units), overhead,
                         checks, attempted=sum(len(u.latencies) for u in units),
                         digest=workload.digest(), details=workload.details(units))


def _run_sql(workload: SqlWorkload, args) -> dict:
    if args.mode == "setup":
        return {"setup_s": workload.session(args.spawned_at, seconds=None).setup_s}
    if args.mode == "measure":
        session = workload.session(args.spawned_at, seconds=args.seconds)
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        checks, attempted, failed = workload.check(session)
        return _result(
            checks, setup_s=session.setup_s, peak_rss_mb=rss,
            digest=workload.digest(session), attempted=attempted, failed=failed,
            details=workload.details(session), **request_metrics(session.units),
        )
    # trace: an untraced server for one round, then a traced server
    baseline = workload.session(args.spawned_at, seconds=0.0, max_rounds=1)
    args.trace_dir.mkdir(parents=True, exist_ok=True)
    server_spans = args.trace_dir / f"{args.workload}.server.jsonl"
    server_stats = server_spans.with_suffix(".stats.json")
    tracer = layers.Tracer()
    session = workload.session(time.time(), seconds=args.seconds - baseline.units[0].seconds,
                               trace_out=server_spans, tracer=tracer)
    overhead = session.units[0].seconds / baseline.units[0].seconds - 1.0
    spans = tracer.spans() + layers.read_spans(server_spans)
    counts = json.loads(server_stats.read_text())
    server_spans.unlink()
    server_stats.unlink()
    spans = layers.link_requests(spans)
    counts["serve.stack_p50_ms"] = statistics.median(layers.request_self_ms(spans))
    counts["sql.repeat_share"] = workload.details(session)["repeat_share"]
    checks, attempted, _failed = workload.check(session)
    return _trace_result(args, spans, counts, len(session.units), overhead, checks,
                         attempted=attempted, digest=workload.digest(session),
                         details=workload.details(session))


def _trace_result(args, spans, counts, units, overhead, checks, **fields) -> dict:
    """Write the spans and the layer table; return the per-layer metrics."""
    args.trace_dir.mkdir(parents=True, exist_ok=True)
    # One set of files per workload: a later traced run replaces them.
    stem = args.trace_dir / args.workload
    layers.write_spans(spans, stem.with_suffix(".spans.jsonl"))
    seconds, calls, root_seconds = layers.self_times_by_name(spans)
    table = layers.layer_table(seconds, calls, root_seconds)
    stem.with_suffix(".layers.txt").write_text(table + "\n")
    counts["workloads.generate_s"] = sum(
        s.duration for s in spans if s.name == "workloads.generate"
    )
    metrics = layers.layer_metrics(seconds, calls, counts, units=units,
                                   overhead_ratio=overhead)
    balance = sum(seconds.values()) / root_seconds if root_seconds else 0.0
    checks.append(Check("layer self times sum to traced time",
                        abs(balance - 1.0) <= 0.01, f"sum/total = {balance:.6f}"))
    return _result(checks, layers=metrics, table=table, failed=0,
                   spans=str(stem.with_suffix(".spans.jsonl")), **fields)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() just before this process was started")
    parser.add_argument("--trace-dir", type=Path, default=HERE / "results" / "trace")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_child(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
