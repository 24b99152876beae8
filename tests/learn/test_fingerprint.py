"""Template signatures: portable keys for the experience store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig, laptop_machine, two_socket_machine
from repro.learn import config_signature, machine_signature, plan_signature
from repro.operators import RangePredicate
from repro.plan import PlanBuilder
from repro.storage import Catalog, LNG, Table
from repro.workloads import TpchDataset


def make_catalog(n=2_000, name="t"):
    rng = np.random.default_rng(7)
    cat = Catalog()
    cat.add(
        Table.from_arrays(
            name,
            {
                "a": (LNG, rng.integers(0, 1_000, n)),
                "b": (LNG, rng.integers(0, 100, n)),
            },
        )
    )
    return cat


def make_plan(catalog, hi=500, table="t"):
    b = PlanBuilder(catalog)
    sel = b.select(b.scan(table, "a"), RangePredicate(hi=hi))
    proj = b.fetch(sel, b.scan(table, "b"))
    return b.build(b.aggregate("sum", proj))


class TestPlanSignature:
    def test_identical_structure_same_signature(self):
        # Two distinct catalogs with identical column names/dtypes/sizes
        # must hash identically -- the whole point of template params
        # over process-local column uids.
        sig_a = plan_signature(make_plan(make_catalog()))
        sig_b = plan_signature(make_plan(make_catalog()))
        assert sig_a == sig_b

    def test_plan_copy_same_signature(self):
        plan = make_plan(make_catalog())
        assert plan_signature(plan) == plan_signature(plan.copy())

    def test_different_predicate_differs(self):
        cat = make_catalog()
        assert plan_signature(make_plan(cat, hi=500)) != plan_signature(
            make_plan(cat, hi=501)
        )

    def test_different_column_length_differs(self):
        assert plan_signature(make_plan(make_catalog(2_000))) != plan_signature(
            make_plan(make_catalog(2_001))
        )

    def test_engine_fingerprints_not_portable(self):
        """The contrast that motivates the template signature."""
        plan_a = make_plan(make_catalog())
        plan_b = make_plan(make_catalog())
        fps_a = [out.fingerprint() for out in plan_a.outputs]
        fps_b = [out.fingerprint() for out in plan_b.outputs]
        assert fps_a != fps_b  # column uids differ
        assert plan_signature(plan_a) == plan_signature(plan_b)

    def test_hex_and_stable_width(self):
        sig = plan_signature(make_plan(make_catalog()))
        assert len(sig) == 32
        int(sig, 16)  # pure hex


#: The template signature of each named TPC-H plan at sf=1.  Experience
#: store files on disk are keyed by these values, so a change to the
#: signature walk or its key must not move them.
TPCH_SIGNATURES = {
    "q4": "9a877d42021b9de1a02e56622e5754bd",
    "q6": "4418ab2345e9bc619812161a3455ea85",
    "q8": "4a0d51b38056732354952e4c36a19059",
    "q9": "dcb0adbf7a88914fd2cc22c0ca6289c4",
    "q13": "e708ff76b9175d3c867810b7c6a8c71a",
    "q14": "9ffaa655864a09854f1949922b379f5f",
    "q17": "db6c9676efc6a4e3150a99b35ba386f3",
    "q19": "9eff3c69e0a74b90a0931c76f93aac8a",
    "q22": "62151d29452355a3be6c694067b84f7c",
}


@pytest.fixture(scope="module")
def tpch():
    return TpchDataset(scale_factor=1)


@pytest.mark.parametrize("query", sorted(TPCH_SIGNATURES))
def test_tpch_plan_signatures_are_pinned(tpch, query):
    assert plan_signature(tpch.plan(query)) == TPCH_SIGNATURES[query]


class TestMachineSignature:
    def test_topology_format(self):
        assert machine_signature(two_socket_machine()) == "2s8c2t"

    def test_thread_cap_suffix(self):
        assert machine_signature(two_socket_machine(), 16) == "2s8c2t-cap16"

    def test_config_signature_uses_machine_and_cap(self):
        config = SimulationConfig(machine=laptop_machine(8))
        sig = config_signature(config)
        assert sig.startswith(
            f"{config.machine.sockets}s{config.machine.cores_per_socket}c"
        )

    def test_different_topologies_differ(self):
        assert machine_signature(two_socket_machine()) != machine_signature(
            laptop_machine(8)
        )
