"""Property-based fairness and accounting invariants.

The hand-built sequences in ``test_scheduler.py`` pin exact behaviour;
here hypothesis searches the weight/backlog space for violations of the
three disciplines the scheduler promises:

* **weighted share** -- under full backlog, each tenant's admission
  count stays within one round of its weight-proportional share;
* **no starvation** -- a backlogged tenant is never passed over more
  than ``ceil(W_total / w_i)`` consecutive admissions;
* **conservation** -- offered = admitted-so-far + queued + rejected at
  every step, and the end-to-end :class:`ServeReport` reconciles.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import (
    FairScheduler,
    TenantDirectory,
    TenantLoad,
    TenantLoadService,
    TenantSpec,
    default_tenants,
)

weights = st.lists(
    st.integers(min_value=1, max_value=16), min_size=2, max_size=5
)


def _scheduler(ws: list[int]) -> tuple[FairScheduler, list[str]]:
    names = [f"t{i}" for i in range(len(ws))]
    directory = TenantDirectory(
        tuple(
            TenantSpec(name, weight=w, queue_limit=10_000)
            for name, w in zip(names, ws)
        )
    )
    return FairScheduler(directory, max_in_flight=100_000), names


@given(ws=weights, rounds=st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_weighted_share_within_one_round(ws, rounds):
    """Backlogged tenants receive admissions proportional to weight.

    After N admissions from a permanently-backlogged set, tenant i with
    weight w_i must hold n_i with |n_i - N * w_i / W| bounded by one
    full scheduling round (the worst instantaneous deviation start-time
    WFQ allows).
    """
    sched, names = _scheduler(ws)
    total_weight = sum(ws)
    n = rounds * total_weight
    for name in names:
        for i in range(n):
            assert sched.offer(name, i)
    counts = dict.fromkeys(names, 0)
    for _ in range(n):
        spec, _ = sched.next_ready()
        counts[spec.name] += 1
        sched.release(spec.name)
    for name, w in zip(names, ws):
        share = n * w / total_weight
        assert abs(counts[name] - share) <= w + 1, (
            f"{name}: got {counts[name]}, fair share {share:.1f}"
        )


@given(ws=weights)
@settings(max_examples=60, deadline=None)
def test_no_starvation_gap_bound(ws):
    """Max admissions between a tenant's consecutive turns is bounded.

    With every tenant backlogged, tenant i's k-th admission carries
    virtual start time k / w_i.  Between two of its turns, tenant j can
    slot at most ``floor(w_j / w_i) + 1`` admissions (its vtimes inside
    the interval, plus one boundary tie), so the total gap is bounded
    by the sum of those terms -- no tenant starves.
    """
    sched, names = _scheduler(ws)
    total_weight = sum(ws)
    n = 30 * total_weight
    for name in names:
        for i in range(n):
            assert sched.offer(name, i)
    bounds = {
        name: sum(wj // w + 1 for j, wj in enumerate(ws) if names[j] != name)
        + 1
        for name, w in zip(names, ws)
    }
    last_seen = dict.fromkeys(names, 0)
    for step in range(1, n + 1):
        spec, _ = sched.next_ready()
        sched.release(spec.name)
        last_seen[spec.name] = step
        for name, w in zip(names, ws):
            gap = step - last_seen[name]
            assert gap <= bounds[name], (
                f"{name} (weight {w}) starved for {gap} admissions "
                f"(bound {bounds[name]})"
            )


@given(
    ws=weights,
    offers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # tenant index (mod)
            st.booleans(),                          # admit something after?
        ),
        min_size=1,
        max_size=200,
    ),
)
@settings(max_examples=60, deadline=None)
def test_counters_conserve(ws, offers):
    """offered == admitted + queued + rejected, at every interleaving."""
    names = [f"t{i}" for i in range(len(ws))]
    directory = TenantDirectory(
        tuple(
            TenantSpec(name, weight=w, queue_limit=3, max_in_flight=2)
            for name, w in zip(names, ws)
        )
    )
    sched = FairScheduler(directory, max_in_flight=4)
    in_flight: list[str] = []
    item = 0
    for idx, then_admit in offers:
        name = names[idx % len(names)]
        sched.offer(name, item)
        item += 1
        if then_admit:
            ready = sched.next_ready()
            if ready is not None:
                in_flight.append(ready[0].name)
            elif in_flight:
                sched.release(in_flight.pop())
    queued = {name: 0 for name in names}
    for spec, _ in sched.drain():
        queued[spec.name] = queued.get(spec.name, 0) + 1
    flying = {name: in_flight.count(name) for name in names}
    for name in names:
        stats = sched.stats(name)
        assert stats.offered == (
            stats.admitted + queued[name] + stats.rejected
        )
        assert stats.admitted - stats.completed >= flying[name]


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        # serve_config is frozen and read-only; sharing it across
        # generated examples is safe.
        HealthCheck.function_scoped_fixture,
    ],
)
@given(
    clients=st.tuples(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    ),
    seed=st.integers(min_value=1, max_value=2**31),
)
def test_report_reconciles_end_to_end(
    serve_config, serve_plans, clients, seed
):
    """The report's totals match the sums of its per-tenant counters."""
    gold, silver, bronze = clients
    service = TenantLoadService(
        serve_config,
        default_tenants(),
        [
            TenantLoad("gold", gold, (serve_plans["count"],)),
            TenantLoad("silver", silver, (serve_plans["sum"],)),
            TenantLoad("bronze", bronze, (serve_plans["group"],),
                       think_mean=0.4),
        ],
        horizon=0.5,
    )
    report = service.run(seed=seed)
    doc = report.as_dict()
    totals = doc["totals"]
    for key in ("issued", "admitted", "rejected", "completed", "retries",
                "timeouts"):
        assert totals[key] == sum(
            o[key] for o in doc["tenants"].values()
        ), key
    for name, outcome in doc["tenants"].items():
        assert outcome["admitted"] == outcome["issued"] - outcome["rejected"]
        assert outcome["completed"] <= outcome["admitted"]
        assert len(report.outcome(name).response_times) == outcome["completed"]
