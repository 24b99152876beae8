"""The batching execution engine behind the live server."""

from __future__ import annotations

import threading

import pytest

from repro.engine import Simulator
from repro.errors import ServeError, SqlPlanError
from repro.serve import ServeEngine, render_outputs
from repro.serve.engine import _Job
from repro.storage import BAT, LNG, STR, Candidates, Catalog, Scalar, Table
import numpy as np

from tests.serve.conftest import COUNT_SQL, GROUP_SQL, SUM_SQL


@pytest.fixture()
def engine(serve_config, small_catalog):
    eng = ServeEngine(serve_config, small_catalog).start()
    yield eng
    eng.close()


class TestExecution:
    def test_submit_and_result(self, engine, serve_config, small_catalog):
        payload = engine.submit_sql(COUNT_SQL).result(timeout=30)
        assert payload["rows"] == [{"kind": "scalar", "value": 2000}]
        assert payload["simulated_ms"] > 0
        assert payload["batch"] >= 1
        assert "host_batch_ms" in payload

    def test_micro_batching_shares_one_machine(self, engine):
        futures = [engine.submit_sql(SUM_SQL) for _ in range(8)]
        payloads = [f.result(timeout=30) for f in futures]
        values = {p["rows"][0]["value"] for p in payloads}
        assert len(values) == 1  # same statement, same answer
        # At least some of the 8 were co-scheduled on one simulator.
        assert max(p["batch"] for p in payloads) >= 2 or engine.stats.batches >= 1

    def test_group_limit_truncates(self, engine):
        payload = engine.submit_sql(GROUP_SQL, limit=3).result(timeout=30)
        (out,) = payload["rows"]
        assert out["kind"] == "bat"
        assert out["n"] == 100 and len(out["pairs"]) == 3

    def test_sql_error_resolves_future(self, engine):
        future = engine.submit_sql("SELECT nope FROM facts")
        with pytest.raises(SqlPlanError):
            future.result(timeout=30)
        assert engine.stats.failures >= 1

    def test_payload_complete_before_future_resolves(self, engine, monkeypatch):
        # Hold the batch in planning until a done-callback is registered:
        # callbacks run inside set_result, so the payload they see is the
        # one the server would start encoding.
        gate = threading.Event()
        template = engine.plans.template

        def held(sql):
            gate.wait(timeout=30)
            return template(sql)

        monkeypatch.setattr(engine.plans, "template", held)
        future = engine.submit_sql(COUNT_SQL)
        seen = []
        future.add_done_callback(lambda f: seen.append(sorted(f.result())))
        gate.set()
        future.result(timeout=30)
        assert seen == [["batch", "host_batch_ms", "rows", "simulated_ms"]]

    def test_plan_cache_reused(self, engine):
        for _ in range(3):
            engine.submit_sql(COUNT_SQL).result(timeout=30)
        assert engine.plans.hits >= 2

    def test_plan_cache_keeps_string_literals_verbatim(self, serve_config):
        catalog = Catalog()
        values = ["MED BOX"] * 10 + ["LG CASE"] * 5
        catalog.add(Table.from_arrays("part", {"p_container": (STR, values)}))
        eng = ServeEngine(serve_config, catalog).start()
        try:

            def count(sql):
                payload = eng.submit_sql(sql).result(timeout=30)
                return payload["rows"][0]["value"]

            sql = "SELECT COUNT(*) FROM part WHERE p_container = '{}'"
            assert count(sql.format("MED BOX")) == 10
            assert count(sql.format("MED  BOX")) == 0
            assert count(sql.format("med box")) == 0
            # Whitespace between tokens and keyword case still share.
            spaced = "select count(*)\n FROM part\n WHERE p_container = 'MED BOX'"
            assert count(spaced) == 10
            assert eng.plans.hits == 1
        finally:
            eng.close()


class TestCanonical:
    def test_canonical_bytes_returned(self, engine):
        payload = engine.submit_sql(COUNT_SQL, canonical=True).result(timeout=30)
        assert payload["canonical"].startswith("{")
        assert payload["batch"] == 1

    def test_canonical_invariant_to_memo_history(
        self, serve_config, small_catalog
    ):
        # A cold engine and one that already ran the statement must
        # produce identical canonical bytes.
        cold = ServeEngine(serve_config, small_catalog).start()
        try:
            a = cold.submit_sql(SUM_SQL, canonical=True).result(timeout=30)
        finally:
            cold.close()
        warm = ServeEngine(serve_config, small_catalog).start()
        try:
            warm.submit_sql(SUM_SQL).result(timeout=30)
            warm.submit_sql(SUM_SQL).result(timeout=30)
            b = warm.submit_sql(SUM_SQL, canonical=True).result(timeout=30)
        finally:
            warm.close()
        assert a["canonical"] == b["canonical"]

    def test_plain_answers_do_not_wait_for_canonical_runs(
        self, serve_config, small_catalog, monkeypatch
    ):
        engine = ServeEngine(serve_config, small_catalog)
        canonical = _Job(SUM_SQL, 8, True, None, "c")
        plain = _Job(COUNT_SQL, 8, False, None, "c")
        run_canonical = engine._execute_canonical
        plain_done = []

        def observed(job):
            plain_done.append(plain.future.done())
            run_canonical(job)

        monkeypatch.setattr(engine, "_execute_canonical", observed)
        engine._execute_batch([canonical, plain])
        assert plain_done == [True]
        assert "host_batch_ms" in plain.future.result(timeout=1)
        assert "host_batch_ms" in canonical.future.result(timeout=1)
        engine.close()


class TestLifecycle:
    def test_submit_before_start_refused(self, serve_config, small_catalog):
        engine = ServeEngine(serve_config, small_catalog)
        with pytest.raises(ServeError, match="not started"):
            engine.submit_sql(COUNT_SQL)
        engine.close()

    def test_start_idempotent(self, serve_config, small_catalog):
        engine = ServeEngine(serve_config, small_catalog)
        assert engine.start() is engine.start()
        assert engine.running
        engine.close()

    def test_close_drains_accepted_work(self, serve_config, small_catalog):
        engine = ServeEngine(serve_config, small_catalog).start()
        futures = [engine.submit_sql(COUNT_SQL) for _ in range(10)]
        engine.close()
        for future in futures:
            assert future.result(timeout=1)["rows"][0]["value"] == 2000
        assert not engine.running

    def test_close_idempotent_and_refuses_after(
        self, serve_config, small_catalog
    ):
        engine = ServeEngine(serve_config, small_catalog).start()
        engine.close()
        engine.close()
        with pytest.raises(ServeError, match="closed"):
            engine.submit_sql(COUNT_SQL)

    def test_thread_pool_closed_with_engine(self, serve_config, small_catalog):
        engine = ServeEngine(
            serve_config, small_catalog, workers=2, backend="thread"
        ).start()
        engine.submit_sql(COUNT_SQL).result(timeout=30)
        pool = engine._pool
        assert pool is not None
        engine.close()
        assert pool._closed

    def test_engine_thread_survives_bad_sql(self, engine):
        with pytest.raises(SqlPlanError):
            engine.submit_sql("SELECT broken FROM facts").result(timeout=30)
        assert engine.running
        assert engine.submit_sql(COUNT_SQL).result(timeout=30)["rows"]

    def test_untyped_planning_error_is_internal(self, engine, monkeypatch):
        template = engine.plans.template

        def hostile(sql):
            if sql == SUM_SQL:
                raise RuntimeError("planner bug")
            return template(sql)

        monkeypatch.setattr(engine.plans, "template", hostile)
        with pytest.raises(ServeError, match="internal error") as info:
            engine.submit_sql(SUM_SQL).result(timeout=10)
        assert isinstance(info.value.__cause__, RuntimeError)
        assert engine.submit_sql(COUNT_SQL).result(timeout=10)["rows"]
        assert engine.running

    def test_untyped_engine_error_is_internal(self, engine, monkeypatch):
        def broken(self):
            raise RuntimeError("scheduler bug")

        monkeypatch.setattr(Simulator, "run", broken)
        with pytest.raises(ServeError, match="internal error") as info:
            engine.submit_sql(COUNT_SQL).result(timeout=10)
        assert isinstance(info.value.__cause__, RuntimeError)
        monkeypatch.undo()
        assert engine.submit_sql(COUNT_SQL).result(timeout=10)["rows"]
        assert engine.running


    def test_cancelled_job_is_dropped(self, engine, monkeypatch):
        # Hold the first batch in planning so the rest queue behind it.
        entered = threading.Event()
        gate = threading.Event()
        template = engine.plans.template

        def held(sql):
            entered.set()
            gate.wait(timeout=30)
            return template(sql)

        monkeypatch.setattr(engine.plans, "template", held)
        first = engine.submit_sql(COUNT_SQL)
        assert entered.wait(timeout=30)
        queued = [engine.submit_sql(SUM_SQL) for _ in range(5)]
        assert queued[2].cancel()
        gate.set()
        for future in [first, *queued[:2], *queued[3:]]:
            assert future.result(timeout=10)["rows"]
        assert queued[2].cancelled()
        assert engine.submit_sql(COUNT_SQL).result(timeout=10)["rows"]
        assert engine.running

    def test_ended_thread_answers_every_job(
        self, serve_config, small_catalog, monkeypatch
    ):
        ended = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: ended.append(args.exc_type)
        )
        engine = ServeEngine(serve_config, small_catalog).start()
        entered = threading.Event()
        release = threading.Event()

        def dies(batch):
            entered.set()
            release.wait(timeout=30)
            raise EngineThreadKilled

        engine._execute_batch = dies
        held = engine.submit_sql(COUNT_SQL)
        assert entered.wait(timeout=30)
        queued = [engine.submit_sql(SUM_SQL) for _ in range(3)]
        assert queued[1].cancel()
        release.set()
        for future in [held, queued[0], queued[2]]:
            with pytest.raises(ServeError, match="engine thread has stopped"):
                future.result(timeout=10)
        assert queued[1].cancelled()
        engine._thread.join(timeout=10)
        assert not engine.running
        assert ended == [EngineThreadKilled]
        with pytest.raises(ServeError, match="engine thread has stopped"):
            engine.submit_sql(COUNT_SQL)
        engine.close()


class EngineThreadKilled(BaseException):
    """Ends the engine thread: no ``except Exception`` catches it."""


class TestRenderOutputs:
    def test_scalar_bat_candidates(self):
        head = np.arange(5, dtype=np.int64)
        bat = BAT(head, head * 2, LNG)
        cands = Candidates(np.array([1, 5, 9], dtype=np.int64))
        rendered = render_outputs([Scalar(7, LNG), bat, cands], limit=2)
        assert rendered[0] == {"kind": "scalar", "value": 7}
        assert rendered[1] == {"kind": "bat", "n": 5, "pairs": [[0, 0], [1, 2]]}
        assert rendered[2] == {"kind": "candidates", "n": 3, "oids": [1, 5]}

    def test_values_are_json_native(self):
        rendered = render_outputs([Scalar(np.int64(3), LNG)])
        assert type(rendered[0]["value"]) is int


def test_concurrent_submitters(serve_config, small_catalog):
    """Many host threads submitting at once: every future settles."""
    engine = ServeEngine(serve_config, small_catalog).start()
    results = []
    errors = []

    def hammer():
        try:
            results.append(engine.submit_sql(COUNT_SQL).result(timeout=30))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    engine.close()
    assert not errors
    assert len(results) == 16
    assert all(r["rows"][0]["value"] == 2000 for r in results)
