"""The simulated-time multi-tenant service core.

These tests drive :class:`TenantLoadService` over the small unit
catalog -- full service discipline (fair admission, SLO timeouts,
retries, chaos) at sub-second host cost -- and pin the determinism
contract the loadgen goldens rely on.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import CHAOS_HEAVY, CHAOS_LIGHT
from repro.errors import ServeError
from repro.observe import MetricsRegistry
from repro.plan import Plan
from repro.serve import (
    TenantDirectory,
    TenantLoad,
    TenantLoadService,
    TenantSpec,
    default_tenants,
)
from repro.serve.tenants import BATCH, INTERACTIVE, SloClass


def _loads(serve_plans, clients=(6, 4, 3)) -> list[TenantLoad]:
    gold, silver, bronze = clients
    return [
        TenantLoad("gold", gold, (serve_plans["count"], serve_plans["sum"])),
        TenantLoad("silver", silver, (serve_plans["group"],)),
        TenantLoad("bronze", bronze, (serve_plans["sum"],), think_mean=0.4),
    ]


def _run(serve_config, serve_plans, **kw):
    service = TenantLoadService(
        serve_config, default_tenants(), _loads(serve_plans),
        horizon=1.0, **kw,
    )
    return service.run()


def _report_bytes(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, serve_config, serve_plans):
        a = _report_bytes(_run(serve_config, serve_plans))
        b = _report_bytes(_run(serve_config, serve_plans))
        assert a == b

    def test_worker_count_and_backend_invariant(self, serve_config, serve_plans):
        base = _report_bytes(_run(serve_config, serve_plans))
        threaded = _report_bytes(
            _run(serve_config, serve_plans, workers=3, backend="thread")
        )
        assert base == threaded

    def test_chaos_run_byte_identical(self, serve_config, serve_plans):
        a = _report_bytes(_run(serve_config, serve_plans, faults=CHAOS_LIGHT))
        b = _report_bytes(_run(serve_config, serve_plans, faults=CHAOS_LIGHT))
        assert a == b

    def test_submissions_share_the_templates(
        self, serve_config, serve_plans, monkeypatch
    ):
        def refuse(_plan):
            raise AssertionError("a plan template was copied per submission")

        monkeypatch.setattr(Plan, "copy", refuse)
        report = _run(serve_config, serve_plans, faults=CHAOS_LIGHT)
        assert sum(t.completed for t in report.tenants.values()) > 0

    def test_seed_changes_the_run(self, serve_config, serve_plans):
        service = TenantLoadService(
            serve_config, default_tenants(), _loads(serve_plans), horizon=1.0
        )
        a = service.run(seed=1)
        b = service.run(seed=2)
        assert a.seed == 1 and b.seed == 2
        assert _report_bytes(a) != _report_bytes(b)

    def test_same_service_reusable(self, serve_config, serve_plans):
        service = TenantLoadService(
            serve_config, default_tenants(), _loads(serve_plans), horizon=1.0
        )
        assert _report_bytes(service.run(seed=7)) == _report_bytes(
            service.run(seed=7)
        )


class TestServiceDiscipline:
    def test_all_tenants_served(self, serve_config, serve_plans):
        report = _run(serve_config, serve_plans)
        for name in ("gold", "silver", "bronze"):
            outcome = report.outcome(name)
            assert outcome.completed > 0
            assert outcome.issued >= outcome.completed
            assert len(outcome.response_times) == outcome.completed
        assert report.last_completion > 0
        assert report.throughput() > 0

    def test_admission_rejects_when_queue_tiny(self, serve_config, serve_plans):
        directory = TenantDirectory(
            (
                TenantSpec("gold", slo=INTERACTIVE, max_in_flight=1,
                           queue_limit=1),
                TenantSpec("silver"),
                TenantSpec("bronze", slo=BATCH),
            )
        )
        loads = [
            TenantLoad("gold", 40, (serve_plans["group"],), think_mean=0.001),
            TenantLoad("silver", 1, (serve_plans["count"],)),
            TenantLoad("bronze", 1, (serve_plans["count"],)),
        ]
        service = TenantLoadService(
            serve_config, directory, loads, horizon=1.0, max_in_flight=2,
        )
        report = service.run()
        gold = report.outcome("gold")
        assert gold.rejected > 0
        assert gold.admitted == gold.issued - gold.rejected

    def test_chaos_triggers_retries_and_faults(self, serve_config, serve_plans):
        report = _run(serve_config, serve_plans, faults=CHAOS_HEAVY)
        assert report.faults_injected > 0
        assert len(report.fault_schedule) == report.faults_injected
        totals = report.as_dict()["totals"]
        assert totals["retries"] > 0 or totals["timeouts"] > 0

    def test_timeouts_respect_slo_class(self, serve_config, serve_plans):
        # A 1ms-timeout class against real latencies: every attempt
        # times out, burns its retry budget, and is abandoned.
        twitchy = SloClass("twitchy", p50_target=0.001, p99_target=0.001,
                           timeout=0.001, max_retries=1)
        directory = TenantDirectory((TenantSpec("gold", slo=twitchy),))
        service = TenantLoadService(
            serve_config, directory,
            [TenantLoad("gold", 4, (serve_plans["group"],))],
            horizon=0.5,
        )
        report = service.run()
        outcome = report.outcome("gold")
        assert outcome.timeouts > 0
        assert outcome.abandoned > 0
        assert outcome.completed == 0  # verdicts arrived after the timeout

    def test_live_metrics_populated(self, serve_config, serve_plans):
        registry = MetricsRegistry()
        service = TenantLoadService(
            serve_config, default_tenants(), _loads(serve_plans),
            horizon=1.0, metrics=registry,
        )
        service.run()
        text = registry.to_prometheus()
        assert 'repro_serve_queries_total{tenant="gold"}' in text
        assert "repro_serve_completed_total" in text
        assert "repro_serve_latency_seconds_bucket" in text

    def test_metrics_do_not_change_report(self, serve_config, serve_plans):
        plain = _report_bytes(_run(serve_config, serve_plans))
        observed = _report_bytes(
            _run(serve_config, serve_plans, metrics=MetricsRegistry())
        )
        assert plain == observed


class TestValidation:
    def test_bad_horizon_and_loads(self, serve_config, serve_plans):
        directory = default_tenants()
        with pytest.raises(ServeError, match="horizon"):
            TenantLoadService(serve_config, directory,
                              _loads(serve_plans), horizon=0.0)
        with pytest.raises(ServeError, match="at least one"):
            TenantLoadService(serve_config, directory, [], horizon=1.0)
        with pytest.raises(ServeError, match="unknown tenant"):
            TenantLoadService(
                serve_config, directory,
                [TenantLoad("nope", 1, (serve_plans["count"],))],
                horizon=1.0,
            )
        with pytest.raises(ServeError, match="duplicate"):
            TenantLoadService(
                serve_config, directory,
                [
                    TenantLoad("gold", 1, (serve_plans["count"],)),
                    TenantLoad("gold", 1, (serve_plans["count"],)),
                ],
                horizon=1.0,
            )

    def test_bad_load_fields(self, serve_plans):
        with pytest.raises(ServeError, match="client"):
            TenantLoad("t", 0, (serve_plans["count"],))
        with pytest.raises(ServeError, match="plan"):
            TenantLoad("t", 1, ())
        with pytest.raises(ServeError, match="think_mean"):
            TenantLoad("t", 1, (serve_plans["count"],), think_mean=-1.0)
