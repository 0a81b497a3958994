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
assertions, zero accommodations.
"""

import pytest

from broker_contract import (
    ALL_BROKER_KINDS,
    CHAOS_BROKER_KINDS,
    BrokerContractSuite,
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
