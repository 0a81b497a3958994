"""Run the broker-contract conformance suite against every shipped store.

``tests/broker_contract.py`` holds the suite; this module enrolls
:class:`~repro.bench.transport.ObjectStoreBroker` over the in-memory and the
filesystem object store, so every contract clause is asserted identically
across stores.  Store-specific behaviour (CAS races, on-disk corruption)
lives in ``tests/test_transport.py`` instead.

:class:`TestBrokerContractChaos` enrolls the same two stores *again* under
a seeded hostile :class:`~repro.bench.faults.FaultSchedule` (transient
error bursts on every store operation): bounded retry is supposed to make
that weather invisible, so every clause must hold verbatim — same
assertions, zero accommodations.  Its one extra test checks that the storm
strikes every verb of a drain, so those clauses are not passed vacuously.
"""

from collections import Counter

import pytest

from broker_contract import (
    ALL_BROKER_KINDS,
    CHAOS_BROKER_KINDS,
    BrokerContractSuite,
    make_chaos_broker,
    run_manifest,
    small_plan,
)


class TestBrokerContract(BrokerContractSuite):
    """All contract clauses × all shipped object stores."""

    @pytest.fixture(params=ALL_BROKER_KINDS)
    def broker_kind(self, request) -> str:
        return request.param


class TestBrokerContractChaos(BrokerContractSuite):
    """All contract clauses × all stores × a hostile fault schedule."""

    @pytest.fixture(params=CHAOS_BROKER_KINDS)
    def broker_kind(self, request) -> str:
        return request.param

    @pytest.mark.parametrize("store_kind", ALL_BROKER_KINDS)
    def test_the_storm_reaches_every_verb(self, store_kind, tmp_path):
        """The suite's storm is not vacuous for the drain: submitting,
        draining and collecting two six-shard plans under it absorbs
        injected faults in every verb, not just in the reads ``collect``
        makes."""
        broker = make_chaos_broker(store_kind, tmp_path)
        faults = Counter()

        def call(verb, *args):
            before = broker.store.injected.snapshot()["errors"]
            value = getattr(broker, verb)(*args)
            faults[verb] += broker.store.injected.snapshot()["errors"] - before
            return value

        for name in ("a", "b"):
            call("submit", small_plan(shards=6), name)
        while True:
            lease = call("lease", "worker-a")
            if lease is None:
                break
            lease = call("renew", lease)
            assert call("post", lease, run_manifest(lease.manifest))
        for name in ("a", "b"):
            assert len(call("collect", name)) == 6
        assert all(faults[verb] > 0 for verb in (
            "submit", "lease", "renew", "post", "collect")), faults
