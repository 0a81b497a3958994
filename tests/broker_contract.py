"""The broker-contract conformance suite: executable queue semantics.

The :class:`~repro.bench.transport.ObjectStoreBroker` contract — submit /
lease / renew / post / collect, lease expiry + reclaim, first-write-wins
idempotent posts, :class:`~repro.bench.transport.BrokerStatus` accounting —
is what keeps a distributed run bit-identical to serial, so it must hold
over *every* object store, present and future.  This module turns the
contract from prose into a reusable test suite: :class:`BrokerContractSuite`
holds one test per clause, and a concrete test class runs the whole suite
against each store by inheriting it next to a ``broker_kind`` fixture (see
``tests/test_broker_contract.py``, which covers the broker over both the
in-memory and the filesystem object store, each with chaos off and on).

To keep the suite cheap across N stores, manifest executions are memoized
on the (frozen, hashable) manifest: identical manifests produce identical
results — that is the determinism the whole transport layer is built on —
so each distinct manifest is executed once per test session no matter how
many stores the suite runs against.

Adding an object store?  Extend :func:`make_store` here and every existing
conformance clause runs over it, calm and under chaos.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Tuple

import pytest

from repro.bench.faults import (
    STORE_OPS,
    FaultSchedule,
    FaultSpec,
    FaultyObjectStore,
)

from repro.bench.runner import (
    BenchmarkConfig,
    BenchmarkRunner,
    DEFAULT_SEED,
    setting_by_key,
)
from repro.bench.shard import (
    ManifestExecutor,
    ShardError,
    ShardManifest,
    ShardResults,
    merge_shard_results,
    plan_shards,
)
from repro.bench.tasks import task_by_id
from repro.bench.store import (
    FileSystemObjectStore,
    InMemoryObjectStore,
    ObjectStore,
    RetryPolicy,
)
from repro.bench.telemetry import AggregatingSink, use_sink
from repro.bench.transport import (
    DEFAULT_PLAN,
    BrokerStatus,
    ObjectStoreBroker,
    PlanStatus,
    ShardWorker,
)

#: A small two-app grid that still exercises both interface stacks.
#: Two hand-written tasks plus one generated one: every contract clause
#: exercises a grid whose worker-side resolution goes through both the
#: static registry and the ``syn:`` token-regeneration path.
TASKS = ("ppt-01-blue-background", "word-02-landscape",
         "syn:s3-t2-g1-c2-y3-m2-d2-cy1-x1-n4:0002")
SETTINGS = ("gui-gpt5-medium", "dmi-gpt5-medium")

#: The broker over every shipped object store; the conformance suite runs
#: against each of these.
ALL_BROKER_KINDS = ("store-memory", "store-fs")

#: The same stores under a seeded hostile
#: :class:`~repro.bench.faults.FaultSchedule`: every clause of the suite
#: must hold verbatim while transient faults rain on every store operation,
#: because the broker's bounded retry is supposed to make injected weather
#: invisible.
CHAOS_BROKER_KINDS = tuple(f"chaos-{kind}" for kind in ALL_BROKER_KINDS)

#: The storm definition the chaos kinds run under: transient errors (in
#: bursts of two, so single-retry consumers would still fail) on every
#: store op.  Latency and CAS-loss/truncation injection are exercised by
#: dedicated clauses/tests — they change *visible* timing or return values,
#: which the exact clause assertions intentionally pin.
HOSTILE_ERROR_SPEC = FaultSpec(error_rate=0.15, error_burst=2)

#: Deterministic adversary: same seed, same weather, every run.
CHAOS_SEED = 8


def hostile_schedule(seed: int = CHAOS_SEED) -> FaultSchedule:
    return FaultSchedule(seed=seed, ops={
        op: HOSTILE_ERROR_SPEC for op in STORE_OPS})


def chaos_retry_policy() -> RetryPolicy:
    """The armour the chaos kinds wear: a deep budget (bursts of two eat
    attempts fast) with no real sleeping, so the suite stays quick."""
    return RetryPolicy(attempts=32, backoff_base_s=0.0,
                       sleep=lambda _delay: None)


def make_store(kind: str, tmp_path) -> ObjectStore:
    """A fresh object store of the given kind under ``tmp_path``."""
    if kind == "store-memory":
        return InMemoryObjectStore()
    if kind == "store-fs":
        return FileSystemObjectStore(tmp_path / "store")
    raise ValueError(f"unknown broker kind {kind!r}")


def make_chaos_broker(kind: str, tmp_path,
                      schedule: FaultSchedule = None,
                      **kwargs) -> ObjectStoreBroker:
    """A broker over a *base*-kind store wrapped in fault injection; the
    broker's own bounded retries must absorb the weather."""
    if schedule is None:
        schedule = hostile_schedule()
    store = FaultyObjectStore(make_store(kind, tmp_path), schedule,
                              sleep=lambda _delay: None)
    return ObjectStoreBroker(store, retry=chaos_retry_policy(), **kwargs)


class FakeClock:
    """A controllable clock so lease expiry needs no real sleeping."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def small_plan(shards=2, seed=DEFAULT_SEED, trials=1):
    return plan_shards(shards, seed=seed, trials=trials,
                       setting_keys=SETTINGS, task_ids=TASKS)


def default_status(**counts) -> BrokerStatus:
    """The expected status of a broker holding one default-namespace plan."""
    return BrokerStatus(plans=(
        PlanStatus(name=DEFAULT_PLAN, priority=0, **counts),))


def drain(broker: ObjectStoreBroker, worker_id: str = "worker-a") -> list:
    """Lease+post until nothing is leasable; the posted leases, in order."""
    posted = []
    while True:
        lease = broker.lease(worker_id)
        if lease is None:
            return posted
        broker.post(lease, run_manifest(lease.manifest))
        posted.append(lease)


class MemoizedExecutor(ManifestExecutor):
    """A :class:`ManifestExecutor` answering from :func:`run_manifest`, so
    worker-loop clauses cost no extra manifest executions."""

    def run(self, manifest, progress=None):
        return run_manifest(manifest)


def make_broker(kind: str, tmp_path, **kwargs) -> ObjectStoreBroker:
    """One broker of the given kind, backed by fresh state under tmp_path.

    ``chaos-*`` kinds are the same stores wrapped in a seeded hostile
    :class:`FaultSchedule` (see :func:`make_chaos_broker`); ``kwargs``
    always reach the broker, so clauses can keep steering
    ``lease_ttl``/``clock``.
    """
    if kind.startswith("chaos-"):
        return make_chaos_broker(kind[len("chaos-"):], tmp_path, **kwargs)
    return ObjectStoreBroker(make_store(kind, tmp_path), **kwargs)


# ----------------------------------------------------------------------
# memoized execution (manifests are frozen and deterministic)
# ----------------------------------------------------------------------
_MANIFEST_RESULTS: Dict[ShardManifest, ShardResults] = {}
_SERIAL_REFERENCE: Dict[Tuple[int, int], Dict[str, object]] = {}


def run_manifest(manifest: ShardManifest) -> ShardResults:
    """Execute ``manifest`` (once per session; results are deterministic)."""
    if manifest not in _MANIFEST_RESULTS:
        _MANIFEST_RESULTS[manifest] = ManifestExecutor().run(manifest)
    return _MANIFEST_RESULTS[manifest]


def serial_reference(seed=DEFAULT_SEED, trials=1):
    """The single-machine serial outcomes every broker path must match."""
    key = (seed, trials)
    if key not in _SERIAL_REFERENCE:
        runner = BenchmarkRunner(BenchmarkConfig(
            trials=trials, seed=seed,
            tasks=[task_by_id(task_id) for task_id in TASKS]))
        _SERIAL_REFERENCE[key] = runner.run_settings(
            [setting_by_key(setting_key) for setting_key in SETTINGS])
    return _SERIAL_REFERENCE[key]


class BrokerContractSuite:
    """One test per contract clause; backend-agnostic by construction.

    Concrete classes provide a ``broker_kind`` fixture naming one of
    :data:`ALL_BROKER_KINDS` (typically via ``@pytest.fixture(params=…)``).
    """

    @pytest.fixture
    def fresh_broker(self, broker_kind, tmp_path):
        def factory(**kwargs) -> ObjectStoreBroker:
            return make_broker(broker_kind, tmp_path, **kwargs)

        return factory

    # ------------------------------------------------------------------
    # submit / lease / post / collect
    # ------------------------------------------------------------------
    def test_submit_lease_post_collect_round_trip(self, fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=2))
        assert broker.status() == default_status(queued=2, leased=0, done=0,
                                                 shard_count=2)
        seen = []
        while True:
            lease = broker.lease("worker-a")
            if lease is None:
                break
            seen.append(lease.manifest.shard_index)
            assert lease.worker_id == "worker-a"
            assert broker.post(lease, run_manifest(lease.manifest)) is True
        assert sorted(seen) == [0, 1]
        status = broker.status()
        assert status == default_status(queued=0, leased=0, done=2,
                                        shard_count=2)
        assert status.complete and status.drained
        merged = merge_shard_results(broker.collect())
        reference = serial_reference()
        for key in reference:
            assert [r.as_dict() for r in reference[key].results] \
                == [r.as_dict() for r in merged[key].results]

    def test_collect_returns_shard_index_order(self, fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=3, trials=2))
        leases = [broker.lease("worker-a") for _ in range(3)]
        for lease in reversed(leases):  # post out of order on purpose
            broker.post(lease, run_manifest(lease.manifest))
        indexes = [shard.manifest.shard_index for shard in broker.collect()]
        assert indexes == [0, 1, 2]

    def test_lease_moves_work_in_flight(self, fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=2))
        lease = broker.lease("worker-a")
        assert lease is not None
        assert lease.plan == DEFAULT_PLAN
        assert broker.status() == default_status(queued=1, leased=1, done=0,
                                                 shard_count=2)
        # The leased manifest is not offered to a second worker.
        other = broker.lease("worker-b")
        assert other is not None and other.manifest.shard_index \
            != lease.manifest.shard_index
        assert broker.lease("worker-c") is None

    def test_refuses_second_plan_and_unsubmitted_use(self, fresh_broker):
        broker = fresh_broker()
        # An empty broker is benign for workers (daemons start before the
        # first submit): nothing to lease, an empty status.
        assert broker.lease("worker-a") is None
        assert broker.status() == BrokerStatus(plans=())
        # But collecting a name nobody submitted is a caller error.
        with pytest.raises(ShardError, match="no plan has been submitted"):
            broker.collect()
        broker.submit(small_plan(shards=2))
        with pytest.raises(ShardError, match="no plan has been submitted"):
            broker.collect("never-submitted")
        with pytest.raises(ShardError, match="already holds a plan"):
            broker.submit(small_plan(shards=2))
        broker.submit(small_plan(shards=2), name="other")  # new name is fine
        with pytest.raises(ShardError, match="already holds a plan"):
            broker.submit(small_plan(shards=2), name="other")

    def test_rejects_invalid_plan_names(self, fresh_broker):
        broker = fresh_broker()
        for bad in ("", ".", "..", "a/b", "a..b", "plan name", "a\\b"):
            with pytest.raises(ShardError, match="invalid plan name"):
                broker.submit(small_plan(shards=1), name=bad)
        with pytest.raises(ShardError, match="invalid plan name"):
            broker.collect("a/b")
        assert broker.status() == BrokerStatus(plans=())  # nothing landed

    def test_rejects_empty_manifests_at_submit(self, fresh_broker):
        """Empty plans/shards never enter the queue on any backend.

        ``plan_shards`` already refuses ``shards > len(specs)``, but
        manifests are plain data — an over-sharded hand-built plan must be
        stopped at the submit boundary, not discovered at merge time as a
        shard that executed nothing.
        """
        broker = fresh_broker()
        plan = small_plan(shards=2)
        hollow = dataclasses.replace(plan.manifests[1], specs=())
        crafted = dataclasses.replace(
            plan, manifests=(plan.manifests[0], hollow))
        with pytest.raises(ShardError, match="no trial specs"):
            broker.submit(crafted)
        with pytest.raises(ShardError, match="empty plan"):
            broker.submit(dataclasses.replace(plan, manifests=()))
        assert broker.status() == BrokerStatus(plans=())  # nothing landed
        # A rejected submit must not burn the namespace: the intact plan
        # still submits and round-trips.
        broker.submit(plan)
        drain(broker)
        merged = merge_shard_results(broker.collect())
        assert all(outcome.results for outcome in merged.values())

    def test_single_worker_leases_shards_in_index_order(self, fresh_broker):
        broker = fresh_broker()
        plan = small_plan(shards=4)
        broker.submit(plan)
        leases = [broker.lease("worker-a") for _ in range(4)]
        assert [lease.manifest for lease in leases] == list(plan.manifests)
        assert len({lease.token for lease in leases}) == 4
        assert broker.lease("worker-a") is None

    def test_refused_duplicate_submit_leaves_the_first_plan_intact(
            self, fresh_broker):
        """The header is written first and exactly once, so a refused
        resubmission (even of a differently shaped plan) adds no shards."""
        broker = fresh_broker()
        broker.submit(small_plan(shards=2))
        with pytest.raises(ShardError, match="already holds a plan"):
            broker.submit(small_plan(shards=3, trials=2))
        assert broker.status() == default_status(queued=2, leased=0, done=0,
                                                 shard_count=2)
        drain(broker)
        assert [shard.manifest.shard_count for shard in broker.collect()] \
            == [2, 2]

    def test_submit_rejects_non_integer_priorities(self, fresh_broker):
        broker = fresh_broker()
        for bad in (1.5, "3", True, None):
            with pytest.raises(ShardError, match="priority must be an "
                                                 "integer"):
                broker.submit(small_plan(shards=1), name="bad", priority=bad)
        assert broker.status() == BrokerStatus(plans=())  # nothing landed
        broker.submit(small_plan(shards=1), name="bad", priority=-3)
        assert broker.status().plan("bad").priority == -3

    def test_collect_before_completion_returns_only_posted_shards(
            self, fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=3))
        leases = [broker.lease("worker-a") for _ in range(3)]
        broker.post(leases[1], run_manifest(leases[1].manifest))
        partial = broker.collect()
        assert [shard.manifest.shard_index for shard in partial] == [1]
        with pytest.raises(ShardError):
            merge_shard_results(partial)  # merge refuses a short plan

    def test_collected_results_equal_the_posted_results(self, fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=3, trials=2))
        posted = {}
        for lease in drain(broker):
            posted[lease.manifest.shard_index] = run_manifest(lease.manifest)
        collected = broker.collect()
        assert [shard.as_dict() for shard in collected] \
            == [posted[index].as_dict() for index in sorted(posted)]

    def test_shard_worker_drains_the_queue_to_a_serial_identical_merge(
            self, fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=3))
        worker = ShardWorker(broker, MemoizedExecutor(), worker_id="worker-a",
                             poll=0, heartbeat=0)
        posted = worker.run()
        assert sorted(shard.manifest.shard_index for shard in posted) \
            == [0, 1, 2]
        assert list(worker.results_by_plan) == [DEFAULT_PLAN]
        assert broker.status().complete
        merged = merge_shard_results(broker.collect())
        reference = serial_reference()
        for key in reference:
            assert [r.as_dict() for r in reference[key].results] \
                == [r.as_dict() for r in merged[key].results]

    def test_broker_handles_over_one_store_share_the_queue(self,
                                                           fresh_broker):
        """All queue state lives in the store: a second handle over the
        same store sees, leases and posts the first handle's plan."""
        broker = fresh_broker()
        peer = ObjectStoreBroker(broker.store, retry=broker.retry)
        broker.submit(small_plan(shards=2))
        with pytest.raises(ShardError, match="already holds a plan"):
            peer.submit(small_plan(shards=2))
        lease = peer.lease("worker-peer")
        assert lease is not None
        assert broker.status() == default_status(queued=1, leased=1, done=0,
                                                 shard_count=2)
        assert broker.post(lease, run_manifest(lease.manifest)) is True
        drain(peer)
        assert peer.status() == broker.status()
        assert [shard.as_dict() for shard in peer.collect()] \
            == [shard.as_dict() for shard in broker.collect()]

    # ------------------------------------------------------------------
    # multi-plan namespaces
    # ------------------------------------------------------------------
    def test_namespace_isolation_and_per_plan_collect(self, fresh_broker):
        """Results never cross namespaces, and each plan's collect merges
        byte-identical to its own serial run."""
        broker = fresh_broker()
        broker.submit(small_plan(shards=2), name="alpha")
        broker.submit(small_plan(shards=3, trials=2), name="beta")
        posted = drain(broker)
        assert len(posted) == 5
        alpha = broker.collect("alpha")
        beta = broker.collect("beta")
        assert [s.manifest.shard_count for s in alpha] == [2, 2]
        assert [s.manifest.shard_count for s in beta] == [3, 3, 3]
        for shards, trials in ((alpha, 1), (beta, 2)):
            merged = merge_shard_results(shards)
            reference = serial_reference(trials=trials)
            for key in reference:
                assert [r.as_dict() for r in reference[key].results] \
                    == [r.as_dict() for r in merged[key].results]

    def test_fair_share_interleaves_two_plans(self, fresh_broker):
        """Round-robin across live plans: equal-priority plans alternate
        leases, so neither waits out the other."""
        broker = fresh_broker()
        broker.submit(small_plan(shards=3), name="plan-a")
        broker.submit(small_plan(shards=3, trials=2), name="plan-b")
        sequence = []
        while True:
            lease = broker.lease("worker-a")
            if lease is None:
                break
            sequence.append(lease.plan)
        assert len(sequence) == 6
        assert sorted(sequence) == ["plan-a"] * 3 + ["plan-b"] * 3
        assert all(sequence[i] != sequence[i + 1]
                   for i in range(len(sequence) - 1))

    def test_priority_breaks_lease_order_ties(self, fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=2), name="low", priority=0)
        broker.submit(small_plan(shards=2), name="high", priority=5)
        first = broker.lease("worker-a")
        assert first is not None and first.plan == "high"

    def test_drain_of_one_plan_leaves_the_other_leasable(self, fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=1), name="small")
        broker.submit(small_plan(shards=2, trials=2), name="big")
        # Drain "small" completely, posting nothing to "big" yet ("big"
        # leases picked up along the way are held in flight).
        held_big = []
        while not broker.status().plan("small").complete:
            lease = broker.lease("worker-a")
            assert lease is not None
            if lease.plan == "small":
                broker.post(lease, run_manifest(lease.manifest))
            else:
                held_big.append(lease)
        small_status = broker.status().plan("small")
        assert small_status.complete and small_status.drained
        # "big" is still fully workable after its neighbour drained.
        for lease in held_big:
            broker.post(lease, run_manifest(lease.manifest))
        drain(broker)
        assert broker.status().plan("big").complete
        assert len(broker.collect("big")) == 2
        assert len(broker.collect("small")) == 1

    def test_plan_lifecycle_events_are_emitted(self, fresh_broker):
        broker = fresh_broker()
        with use_sink(AggregatingSink()) as sink:
            broker.submit(small_plan(shards=1), name="watched")
            broker.submit(small_plan(shards=2, trials=2), name="other")
            assert sink.snapshot()["counters"]["plan_submitted"] == 2
            assert len(drain(broker)) == 3
        assert sink.snapshot()["counters"]["plan_drained"] == 2

    def test_plan_names_are_sorted_and_status_rows_follow(self,
                                                          fresh_broker):
        broker = fresh_broker()
        for name in ("beta", DEFAULT_PLAN, "alpha"):
            broker.submit(small_plan(shards=1), name=name)
        assert broker.plan_names() == ("alpha", "beta", DEFAULT_PLAN)
        status = broker.status()
        assert [row.name for row in status.plans] \
            == ["alpha", "beta", DEFAULT_PLAN]
        assert status.plan("missing") is None
        assert (status.queued, status.shard_count) == (3, 3)

    def test_lease_skips_a_plan_whose_shards_are_all_in_flight(
            self, fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=1), name="busy", priority=9)
        broker.submit(small_plan(shards=2), name="idle")
        assert broker.lease("worker-a").plan == "busy"
        # "busy" outranks "idle" but has nothing leasable left.
        assert [broker.lease("worker-a").plan for _ in range(2)] \
            == ["idle", "idle"]
        assert broker.lease("worker-a") is None

    def test_plan_drained_is_emitted_once_after_the_last_shard(
            self, fresh_broker):
        broker = fresh_broker()
        with use_sink(AggregatingSink()) as sink:
            broker.submit(small_plan(shards=3))
            leases = [broker.lease("worker-a") for _ in range(3)]
            for lease in leases[:2]:
                broker.post(lease, run_manifest(lease.manifest))
            assert "plan_drained" not in sink.snapshot()["counters"]
            broker.post(leases[2], run_manifest(leases[2].manifest))
            assert sink.snapshot()["counters"]["plan_drained"] == 1
            # A duplicate post of the last shard is a no-op, not a
            # re-drain.
            assert broker.post(leases[2],
                               run_manifest(leases[2].manifest)) is False
        assert sink.snapshot()["counters"]["plan_drained"] == 1

    def test_post_rejects_results_with_a_foreign_trial_count(self,
                                                             fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=1))
        lease = broker.lease("worker-a")
        alien = small_plan(shards=1, trials=2)
        with pytest.raises(ShardError, match="'trials'"):
            broker.post(lease, run_manifest(alien.manifests[0]))
        assert broker.status().done == 0

    def test_post_rejects_results_from_a_foreign_plan(self, fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=1))
        lease = broker.lease("worker-a")
        alien = small_plan(shards=1, seed=DEFAULT_SEED + 1)
        with pytest.raises(ShardError, match="'seed'"):
            broker.post(lease, run_manifest(alien.manifests[0]))

    def test_post_rejects_out_of_range_shard_index(self, fresh_broker):
        """Same plan identity but an impossible shard index: every backend
        must refuse, or status() could report complete with a shard
        missing."""
        broker = fresh_broker()
        broker.submit(small_plan(shards=1))
        lease = broker.lease("worker-a")
        shard = run_manifest(lease.manifest)
        rogue = ShardResults(
            manifest=dataclasses.replace(shard.manifest, shard_index=5),
            results=shard.results)
        with pytest.raises(ShardError, match="out of range"):
            broker.post(lease, rogue)
        assert broker.status().done == 0

    # ------------------------------------------------------------------
    # lease expiry + reclaim
    # ------------------------------------------------------------------
    def test_crashed_worker_lease_expires_and_is_reclaimed(self,
                                                           fresh_broker):
        clock = FakeClock()
        broker = fresh_broker(lease_ttl=60.0, clock=clock)
        broker.submit(small_plan(shards=1))
        # worker-a leases the only manifest and "crashes" (never posts).
        crashed = broker.lease("worker-a")
        assert crashed is not None
        assert broker.lease("worker-b") is None  # still leased, nothing free
        assert broker.status().leased == 1
        clock.advance(59.9)
        assert broker.lease("worker-b") is None  # not expired yet
        clock.advance(0.2)
        reclaimed = broker.lease("worker-b")  # expired: reclaimed + re-leased
        assert reclaimed is not None
        assert reclaimed.manifest == crashed.manifest
        assert reclaimed.worker_id == "worker-b"
        broker.post(reclaimed, run_manifest(reclaimed.manifest))
        assert broker.status().complete
        assert list(merge_shard_results(broker.collect()))  # merges cleanly

    def test_straggler_post_after_reclaim_is_harmless(self, fresh_broker):
        """The crashed worker was only slow: it posts after its lease was
        reclaimed and re-run.  First write wins; the queue still drains."""
        clock = FakeClock()
        broker = fresh_broker(lease_ttl=60.0, clock=clock)
        broker.submit(small_plan(shards=1))
        slow = broker.lease("worker-slow")
        slow_results = run_manifest(slow.manifest)
        clock.advance(61.0)
        fast = broker.lease("worker-fast")
        assert fast is not None
        assert broker.post(slow, slow_results) is True  # straggler lands 1st
        assert broker.post(fast, run_manifest(fast.manifest)) is False
        status = broker.status()
        assert status == default_status(queued=0, leased=0, done=1,
                                        shard_count=1)
        assert list(merge_shard_results(broker.collect()))

    def test_status_counts_an_expired_lease_as_queued(self, fresh_broker):
        clock = FakeClock()
        broker = fresh_broker(lease_ttl=60.0, clock=clock)
        broker.submit(small_plan(shards=2))
        broker.lease("worker-a")
        clock.advance(61.0)
        # Nobody reclaimed it yet, but it is leasable again: queued.
        assert broker.status() == default_status(queued=2, leased=0, done=0,
                                                 shard_count=2)
        assert broker.lease("worker-b") is not None
        assert broker.status().leased == 1

    def test_holder_may_post_after_its_lease_expired_unreclaimed(
            self, fresh_broker):
        clock = FakeClock()
        broker = fresh_broker(lease_ttl=60.0, clock=clock)
        broker.submit(small_plan(shards=1))
        lease = broker.lease("worker-a")
        clock.advance(600.0)
        assert broker.post(lease, run_manifest(lease.manifest)) is True
        assert broker.status().complete
        assert broker.lease("worker-b") is None

    def test_done_shards_are_never_released_again(self, fresh_broker):
        clock = FakeClock()
        broker = fresh_broker(lease_ttl=60.0, clock=clock)
        broker.submit(small_plan(shards=2))
        assert len(drain(broker)) == 2
        for _ in range(3):
            clock.advance(10_000.0)  # far past every deadline ever issued
            assert broker.lease("worker-b") is None
        assert broker.status() == default_status(queued=0, leased=0, done=2,
                                                 shard_count=2)

    def test_skew_allowance_delays_reclaim_by_the_grace(self, fresh_broker):
        clock = FakeClock()
        broker = fresh_broker(lease_ttl=60.0, clock=clock,
                              skew_allowance=30.0)
        broker.submit(small_plan(shards=1))
        held = broker.lease("worker-a")
        clock.advance(61.0)  # past the deadline, inside the grace
        assert broker.lease("worker-b") is None
        assert broker.status().leased == 1
        clock.advance(30.0)  # past deadline + grace: reclaimable
        assert broker.status().queued == 1
        taken = broker.lease("worker-b")
        assert taken is not None and taken.manifest == held.manifest

    def test_reclaim_issues_a_fresh_token_for_the_same_manifest(
            self, fresh_broker):
        clock = FakeClock()
        broker = fresh_broker(lease_ttl=60.0, clock=clock)
        broker.submit(small_plan(shards=1))
        stale = broker.lease("worker-a")
        clock.advance(61.0)
        taken = broker.lease("worker-b")
        assert taken.manifest == stale.manifest
        assert taken.token != stale.token
        assert taken.deadline == clock() + 60.0

    def test_duplicate_result_post_is_idempotent(self, fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=2))
        lease = broker.lease("worker-a")
        results = run_manifest(lease.manifest)
        assert broker.post(lease, results) is True
        assert broker.post(lease, results) is False  # duplicate: no-op
        assert broker.status().done == 1
        lease = broker.lease("worker-a")
        broker.post(lease, run_manifest(lease.manifest))
        merged = merge_shard_results(broker.collect())
        for outcome in merged.values():
            assert len(outcome.results) == len(TASKS)  # no double-counting

    # ------------------------------------------------------------------
    # renew (the heartbeat primitive)
    # ------------------------------------------------------------------
    def test_renew_extends_a_live_lease_past_its_ttl(self, fresh_broker):
        clock = FakeClock()
        broker = fresh_broker(lease_ttl=60.0, clock=clock)
        broker.submit(small_plan(shards=1))
        lease = broker.lease("worker-a")
        for _ in range(3):  # keep renewing while the manifest "runs"
            clock.advance(40.0)  # would have expired without the renewals
            lease = broker.renew(lease)
            assert lease is not None
            assert lease.deadline == clock() + 60.0
            assert broker.lease("worker-b") is None  # never reclaimable
        assert broker.status().leased == 1
        assert broker.post(lease, run_manifest(lease.manifest)) is True
        assert broker.status().complete

    def test_renew_after_reclaim_reports_the_lease_lost(self, fresh_broker):
        clock = FakeClock()
        broker = fresh_broker(lease_ttl=60.0, clock=clock)
        broker.submit(small_plan(shards=1))
        stale = broker.lease("worker-a")
        clock.advance(61.0)  # worker-a's lease expires...
        taken = broker.lease("worker-b")  # ...and worker-b reclaims it
        assert taken is not None
        assert broker.renew(stale) is None  # the original holder lost it
        renewed = broker.renew(taken)  # the new holder renews fine
        assert renewed is not None and renewed.worker_id == "worker-b"
        broker.post(renewed, run_manifest(renewed.manifest))
        assert broker.status().complete

    def test_renew_after_post_reports_the_lease_gone(self, fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=1))
        lease = broker.lease("worker-a")
        broker.post(lease, run_manifest(lease.manifest))
        assert broker.renew(lease) is None

    def test_renew_keeps_the_token_manifest_and_holder(self, fresh_broker):
        clock = FakeClock()
        broker = fresh_broker(lease_ttl=60.0, clock=clock)
        broker.submit(small_plan(shards=2))
        lease = broker.lease("worker-a")
        clock.advance(10.0)
        renewed = broker.renew(lease)
        assert (renewed.token, renewed.manifest, renewed.worker_id,
                renewed.plan) == (lease.token, lease.manifest,
                                  lease.worker_id, lease.plan)
        assert renewed.deadline == lease.deadline + 10.0
        # The superseded handle is still the same grant: it renews too.
        assert broker.renew(lease) is not None

    def test_expired_but_unreclaimed_lease_can_still_be_revived(self,
                                                                fresh_broker):
        """A late heartbeat that beats every reclaimer keeps the lease: the
        manifest was never taken by anyone else, so the work is not lost."""
        clock = FakeClock()
        broker = fresh_broker(lease_ttl=60.0, clock=clock)
        broker.submit(small_plan(shards=1))
        lease = broker.lease("worker-a")
        clock.advance(61.0)  # expired, but nobody has reclaimed it yet
        revived = broker.renew(lease)
        assert revived is not None
        assert broker.lease("worker-b") is None  # fresh deadline holds again
        broker.post(revived, run_manifest(revived.manifest))
        assert broker.status().complete

    # ------------------------------------------------------------------
    # status counters
    # ------------------------------------------------------------------
    def test_status_counters_track_the_full_lifecycle(self, fresh_broker):
        broker = fresh_broker()
        broker.submit(small_plan(shards=3, trials=2))
        counts = [broker.status()]
        leases = []
        for _ in range(2):
            leases.append(broker.lease("worker-a"))
            counts.append(broker.status())
        broker.post(leases[0], run_manifest(leases[0].manifest))
        counts.append(broker.status())
        assert [(s.queued, s.leased, s.done) for s in counts] == [
            (3, 0, 0), (2, 1, 0), (1, 2, 0), (1, 1, 1)]
        assert all(s.shard_count == 3 for s in counts)
        assert not counts[-1].complete and not counts[-1].drained

    def test_broker_rejects_nonpositive_lease_ttl(self, fresh_broker):
        for ttl in (0, -5):
            with pytest.raises(ShardError, match="lease_ttl"):
                fresh_broker(lease_ttl=ttl)

    # ------------------------------------------------------------------
    # chaos clauses: the contract under adversarial weather
    # ------------------------------------------------------------------
    def test_cas_storm_exactly_one_lease_wins(self, fresh_broker):
        """≥100 workers race one queued shard from a start barrier: the
        lease CAS hands it to exactly one of them, the rest read an honest
        ``None`` — no duplicate grant, no error, no lost shard."""
        broker = fresh_broker()
        broker.submit(small_plan(shards=1))
        racers = 120
        barrier = threading.Barrier(racers)
        wins, errors = [], []
        lock = threading.Lock()

        def race(index: int) -> None:
            barrier.wait()
            try:
                lease = broker.lease(f"storm-{index:03d}")
            except Exception as error:  # noqa: BLE001 — recorded, asserted
                with lock:
                    errors.append(error)
                return
            if lease is not None:
                with lock:
                    wins.append(lease)

        threads = [threading.Thread(target=race, args=(index,))
                   for index in range(racers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(wins) == 1, f"{len(wins)} workers won the same shard"
        broker.post(wins[0], run_manifest(wins[0].manifest))
        assert broker.status().complete
        assert list(merge_shard_results(broker.collect()))

    def test_partial_list_reads_never_drop_a_queued_shard(self, broker_kind,
                                                          tmp_path):
        """Truncated ``list_prefix`` pages may delay progress but never
        lose work: the queue still drains to a complete, mergeable plan."""
        # Half of every listing call returns only a prefix of the truth —
        # the eventually-consistent page a cloud store serves.
        schedule = FaultSchedule(seed=88, ops={
            "list_prefix": FaultSpec(truncate_rate=0.5)})
        broker = make_chaos_broker(broker_kind.removeprefix("chaos-"),
                                   tmp_path, schedule=schedule)
        broker.submit(small_plan(shards=4))
        for _ in range(600):
            row = broker.status().plan(DEFAULT_PLAN)
            # done counts only shrink under truncation (results are listed,
            # never fabricated), so a complete row is trustworthy; a
            # missing/short row just means this poll caught a short page.
            if row is not None and row.complete:
                break
            lease = broker.lease("worker-a")
            if lease is not None:
                broker.post(lease, run_manifest(lease.manifest))
        else:
            pytest.fail("queue did not drain under truncated listings")
        for _ in range(200):
            collected = broker.collect()
            if len(collected) == 4:
                break
        merged = merge_shard_results(collected)  # re-validates completeness
        assert all(len(outcome.results) == len(TASKS)
                   for outcome in merged.values())
