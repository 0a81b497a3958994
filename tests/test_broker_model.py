"""A stateful model of the broker queue, run against every shipped store.

hypothesis drives random sequences of the broker's verbs through
:class:`~repro.bench.transport.ObjectStoreBroker` handles sharing one
object store: submit (one to three named plans), lease from one of two
worker handles, renew, post, crash a worker (its lease stays behind in the
store), advance the injected clock, and collect.  A plain-Python model
tracks what the queue must hold, and every step checks the broker against
it.  No step sleeps: lease expiry is the injected clock moving.

Invariants:

* a live lease has one holder: a grant never lands on a shard another
  worker still holds a live lease on, and a renewal succeeds exactly for
  the newest grant of a shard with no result;
* a posted result never changes: the first post wins, later posts of the
  shard return ``False``, and collect returns the first post's bytes;
* every shard is collected exactly once, in shard-index order;
* fair share: a lease returns ``None`` only when no plan has leasable
  work, and otherwise comes from a plan the handle has served least among
  the plans with leasable work (higher priority first on a tie), so a
  handle passes over a plan with leasable work only in favour of one it
  owes a lease;
* a complete plan's merged collect equals the serial run;
* ``status`` counts exactly the model's queued, leased and done shards.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from broker_contract import (
    FakeClock,
    make_store,
    run_manifest,
    serial_reference,
    small_plan,
)
from repro.bench.shard import ShardError, merge_shard_results
from repro.bench.transport import (
    DEFAULT_PLAN,
    BrokerStatus,
    ObjectStoreBroker,
    PlanStatus,
)

TTL = 60.0
NAMES = ("alpha", "beta", DEFAULT_PLAN)
WORKERS = 2

plan_args = dict(name=st.sampled_from(NAMES), shards=st.integers(1, 3),
                 trials=st.sampled_from((1, 2)),
                 priority=st.integers(0, 1))


class BrokerModel(RuleBasedStateMachine):
    """The queue as the broker must present it, step by step."""

    store_kind = "store-memory"

    def __init__(self) -> None:
        super().__init__()
        self.scratch = Path(tempfile.mkdtemp(prefix="broker-model-"))
        self.clock = FakeClock()
        store = make_store(self.store_kind, self.scratch)
        self.coordinator = ObjectStoreBroker(store, lease_ttl=TTL,
                                             clock=self.clock)
        self.workers = [ObjectStoreBroker(store, lease_ttl=TTL,
                                          clock=self.clock)
                        for _ in range(WORKERS)]
        #: name -> (plan, priority, trials)
        self.plans = {}
        #: (name, shard) -> the first posted ShardResults, as a dict
        self.results = {}
        #: (name, shard) -> (token, deadline) of the shard's newest grant
        self.grants = {}
        #: (worker, ShardLease) pairs a running worker holds
        self.held = []
        self.served = [Counter() for _ in range(WORKERS)]

    def teardown(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    # ------------------------------------------------------------------
    # the model's view
    # ------------------------------------------------------------------
    def _live(self, key) -> bool:
        grant = self.grants.get(key)
        return grant is not None and self.clock() < grant[1]

    def _leasable(self):
        """Plan name -> shards a lease may hand out now."""
        work = {}
        for name, (plan, _priority, _trials) in self.plans.items():
            shards = {index for index in range(plan.shard_count)
                      if (name, index) not in self.results
                      and not self._live((name, index))}
            if shards:
                work[name] = shards
        return work

    def _pick(self, pick: int):
        return self.held[pick % len(self.held)]

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    def _submit(self, name, shards, trials, priority) -> None:
        plan = small_plan(shards=shards, trials=trials)
        if name in self.plans:
            with pytest.raises(ShardError, match="already holds a plan"):
                self.coordinator.submit(plan, name=name, priority=priority)
            return
        self.coordinator.submit(plan, name=name, priority=priority)
        self.plans[name] = (plan, priority, trials)

    @initialize(**plan_args)
    def first_submit(self, name, shards, trials, priority):
        self._submit(name, shards, trials, priority)

    @precondition(lambda self: len(self.plans) < len(NAMES))
    @rule(**plan_args)
    def submit(self, name, shards, trials, priority):
        self._submit(name, shards, trials, priority)

    @rule(worker=st.integers(0, WORKERS - 1))
    def lease(self, worker):
        work = self._leasable()
        lease = self.workers[worker].lease(f"worker-{worker}")
        if not work:
            assert lease is None
            return
        assert lease is not None, f"leasable work {work} was passed over"
        key = (lease.plan, lease.manifest.shard_index)
        assert key[1] in work[lease.plan]
        plan, _priority, _trials = self.plans[lease.plan]
        assert lease.manifest == plan.manifests[key[1]]

        def rank(name):
            return (self.served[worker][name], -self.plans[name][1])

        assert rank(lease.plan) == min(rank(name) for name in work), \
            f"served {dict(self.served[worker])}, leasable {sorted(work)}"
        for _holder, held in self.held:
            if (held.plan, held.manifest.shard_index) == key:
                assert held.deadline <= self.clock(), "two live holders"
                assert held.token != lease.token
        self.served[worker][lease.plan] += 1
        self.grants[key] = (lease.token, lease.deadline)
        self.held.append((worker, lease))

    @precondition(lambda self: self.held)
    @rule(pick=st.integers(0, 63))
    def renew(self, pick):
        worker, lease = self._pick(pick)
        key = (lease.plan, lease.manifest.shard_index)
        expected = (key not in self.results
                    and self.grants[key][0] == lease.token)
        renewed = self.workers[worker].renew(lease)
        assert (renewed is not None) == expected
        self.held.remove((worker, lease))
        if renewed is not None:  # a lost lease is abandoned
            assert renewed.deadline == self.clock() + TTL
            self.grants[key] = (renewed.token, renewed.deadline)
            self.held.append((worker, renewed))

    @precondition(lambda self: self.held)
    @rule(pick=st.integers(0, 63))
    def post(self, pick):
        worker, lease = self._pick(pick)
        self.held.remove((worker, lease))
        key = (lease.plan, lease.manifest.shard_index)
        results = run_manifest(lease.manifest)
        first = self.workers[worker].post(lease, results)
        assert first == (key not in self.results)
        self.results.setdefault(key, results.as_dict())

    @precondition(lambda self: self.held)
    @rule(pick=st.integers(0, 63))
    def crash(self, pick):
        self.held.remove(self._pick(pick))

    #: Steps that land just before, on and just after a fresh deadline.
    @rule(seconds=st.one_of(st.sampled_from((1, 59, 60, 61)),
                            st.integers(1, int(2 * TTL))))
    def advance_clock(self, seconds):
        self.clock.advance(float(seconds))

    @rule(pick=st.integers(0, len(NAMES) - 1))
    def collect(self, pick):
        name = sorted(self.plans)[pick % len(self.plans)]
        collected = self.coordinator.collect(name)
        posted = sorted(index for plan, index in self.results
                        if plan == name)
        assert [shard.manifest.shard_index for shard in collected] == posted
        for shard in collected:
            assert shard.as_dict() \
                == self.results[(name, shard.manifest.shard_index)]
        plan, _priority, trials = self.plans[name]
        if len(collected) == plan.shard_count:
            merged = merge_shard_results(collected)
            reference = serial_reference(trials=trials)
            for setting in reference:
                assert [r.as_dict() for r in merged[setting].results] \
                    == [r.as_dict() for r in reference[setting].results]

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def status_matches_the_model(self):
        rows = []
        for name in sorted(self.plans):
            plan, priority, _trials = self.plans[name]
            done = sum(1 for key in self.results if key[0] == name)
            leased = sum(1 for index in range(plan.shard_count)
                         if (name, index) not in self.results
                         and self._live((name, index)))
            rows.append(PlanStatus(
                name=name, priority=priority,
                queued=plan.shard_count - done - leased, leased=leased,
                done=done, shard_count=plan.shard_count))
        assert self.coordinator.status() == BrokerStatus(plans=tuple(rows))

    @invariant()
    def one_live_holder_per_shard(self):
        live = Counter((lease.plan, lease.manifest.shard_index)
                       for _worker, lease in self.held
                       if lease.deadline > self.clock())
        assert all(count == 1 for count in live.values()), live


MODEL_SETTINGS = settings(max_examples=40, stateful_step_count=30,
                          deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


class FileSystemBrokerModel(BrokerModel):
    store_kind = "store-fs"


TestBrokerModelInMemory = BrokerModel.TestCase
TestBrokerModelInMemory.settings = MODEL_SETTINGS
TestBrokerModelFileSystem = FileSystemBrokerModel.TestCase
TestBrokerModelFileSystem.settings = MODEL_SETTINGS
