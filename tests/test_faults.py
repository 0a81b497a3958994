"""The fault-injection layer and the retry paths it exists to drive.

Three layers under test, bottom-up:

* the adversary itself — :class:`~repro.bench.faults.FaultSchedule` must be
  deterministic (same seed → same weather), replayable (:meth:`reset`),
  and round-trip through its JSON file format with labeled errors on every
  malformed input, or a CI chaos run could not be reproduced from its
  artifact;
* the wrapper — :class:`~repro.bench.faults.FaultyObjectStore` injects
  strictly *before* the inner call (a fault never half-applies an
  operation) and lies only in the ways real storage lies: retryable
  errors, lost CAS races, truncated listings, latency;
* the armour — :func:`~repro.bench.store.call_with_retries` absorbs
  transients up to a :class:`~repro.bench.store.RetryPolicy` budget
  (emitting ``store_retry`` telemetry per absorbed attempt), then gives up
  with a :class:`~repro.bench.store.RetryBudgetExceeded` naming the op,
  key, and attempt count; every :class:`ObjectStoreBroker` verb and the
  :class:`ShardWorker` loop surface that labeled give-up, and a worker
  whose lease renewals lose a CAS storm mid-manifest abandons cleanly (no
  orphan result, ``abandoned`` increments).

The wall-clock satellite rides here too: in-process deadlines are
monotonic, persisted lease deadlines stay wall-clock with an explicit
``skew_allowance`` grace.
"""

import threading
import time

import pytest

from broker_contract import (
    FakeClock,
    chaos_retry_policy,
    hostile_schedule,
    run_manifest,
    small_plan,
)
from repro.bench.faults import (
    STORE_OPS,
    FaultSchedule,
    FaultSpec,
    FaultyObjectStore,
)
from repro.bench.shard import ManifestExecutor, ShardError, merge_shard_results
from repro.bench.store import (
    FileSystemObjectStore,
    InMemoryObjectStore,
    RetryBudgetExceeded,
    RetryPolicy,
    TransientStoreError,
    call_with_retries,
)
from repro.bench.telemetry import AggregatingSink, use_sink
from repro.bench.transport import ObjectStoreBroker, ShardWorker


def no_sleep(_delay: float) -> None:
    pass


def always_fail(*ops: str) -> FaultSchedule:
    return FaultSchedule(seed=1, ops={
        op: FaultSpec(error_rate=1.0) for op in ops})


# ----------------------------------------------------------------------
# FaultSchedule: deterministic, replayable, serializable
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_same_seed_same_weather(self):
        spec = FaultSpec(error_rate=0.3, error_burst=2, latency_s=0.1,
                         cas_lost_rate=0.2, truncate_rate=0.2)

        def trace(schedule):
            return [(d.error, d.cas_lost, d.truncate, round(d.delay_s, 9))
                    for d in (schedule.decide("get") for _ in range(200))]

        first = trace(FaultSchedule(seed=42, ops={"get": spec}))
        second = trace(FaultSchedule(seed=42, ops={"get": spec}))
        assert first == second
        assert trace(FaultSchedule(seed=43, ops={"get": spec})) != first

    def test_reset_replays_the_identical_storm(self):
        schedule = hostile_schedule()
        first = [schedule.decide("get").error for _ in range(100)]
        schedule.reset()
        assert [schedule.decide("get").error for _ in range(100)] == first

    def test_op_streams_are_independent_of_interleaving(self):
        """Each op's decisions depend only on (seed, op), not on how calls
        to *other* ops interleave — the property that keeps chaos runs
        reproducible across thread schedules."""
        spec = FaultSpec(error_rate=0.5)
        alone = FaultSchedule(seed=7, ops={"get": spec, "delete": spec})
        solo = [alone.decide("get").error for _ in range(50)]
        mixed = FaultSchedule(seed=7, ops={"get": spec, "delete": spec})
        interleaved = []
        for _ in range(50):
            mixed.decide("delete")  # noise on a different stream
            interleaved.append(mixed.decide("get").error)
        assert interleaved == solo

    def test_bursts_fail_consecutively(self):
        schedule = FaultSchedule(seed=3, ops={
            "get": FaultSpec(error_rate=0.2, error_burst=3)})
        flags = [schedule.decide("get").error for _ in range(300)]
        runs, streak = [], 0
        for flag in flags:
            if flag:
                streak += 1
            elif streak:
                runs.append(streak)
                streak = 0
        assert runs and all(length % 3 == 0 for length in runs)

    def test_json_round_trip(self, tmp_path):
        schedule = hostile_schedule(seed=99)
        path = schedule.save(tmp_path / "storm.json")
        loaded = FaultSchedule.load(path)
        assert loaded.as_dict() == schedule.as_dict()
        assert [loaded.decide("get").error for _ in range(50)] \
            == [schedule.decide("get").error for _ in range(50)]

    @pytest.mark.parametrize("payload, match", [
        ({"kind": "nope"}, "field 'kind'"),
        ({"kind": "repro-fault-schedule", "format_version": 9},
         "format_version"),
        ({"kind": "repro-fault-schedule", "format_version": 1,
          "ops": {"teleport": {}}}, "unknown op 'teleport'"),
        ({"kind": "repro-fault-schedule", "format_version": 1,
          "ops": {"get": {"error_rate": 2.0}}}, "probability"),
        ({"kind": "repro-fault-schedule", "format_version": 1,
          "ops": {"get": {"error_burst": 0}}}, "error_burst"),
        ({"kind": "repro-fault-schedule", "format_version": 1,
          "ops": {"get": {"typo_rate": 0.5}}}, "unknown field"),
        ({"kind": "repro-fault-schedule", "format_version": 1,
          "seed": "abc"}, "seed"),
    ])
    def test_malformed_payloads_are_labeled(self, payload, match):
        with pytest.raises(ShardError, match=match):
            FaultSchedule.from_dict(payload)

    def test_unreadable_files_are_labeled(self, tmp_path):
        with pytest.raises(ShardError, match="cannot read"):
            FaultSchedule.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ShardError, match="not valid JSON"):
            FaultSchedule.load(bad)


# ----------------------------------------------------------------------
# FaultyObjectStore: lies like real storage, never corrupts
# ----------------------------------------------------------------------
class TestFaultyObjectStore:
    def test_injected_error_leaves_the_store_untouched(self):
        inner = InMemoryObjectStore()
        store = FaultyObjectStore(inner, always_fail("put_if_absent"),
                                  sleep=no_sleep)
        with pytest.raises(TransientStoreError, match="put_if_absent"):
            store.put_if_absent("k", b"v")
        assert inner.get("k") is None  # the fault fired before the write
        assert store.injected.snapshot()["errors"] == 1

    def test_cas_lost_skips_the_swap_and_emits_cas_retry(self):
        inner = InMemoryObjectStore()
        inner.put_if_absent("k", b"old")
        _, etag = inner.get("k")
        store = FaultyObjectStore(
            inner, FaultSchedule(seed=1, ops={
                "put_if_match": FaultSpec(cas_lost_rate=1.0)}),
            sleep=no_sleep)
        with use_sink(AggregatingSink()) as sink:
            assert store.put_if_match("k", b"new", etag) is False
        assert inner.get("k")[0] == b"old"  # the swap never happened
        assert sink.snapshot()["counters"]["cas_retry"] == 1
        assert store.injected.snapshot()["cas_lost"] == 1

    def test_truncation_returns_a_prefix_of_the_truth(self):
        inner = InMemoryObjectStore()
        for index in range(20):
            inner.put_if_absent(f"p/{index:02d}", b"x")
        store = FaultyObjectStore(
            inner, FaultSchedule(seed=5, ops={
                "list_prefix": FaultSpec(truncate_rate=1.0)}),
            sleep=no_sleep)
        full = inner.list_prefix("p/")
        shortened = [store.list_prefix("p/") for _ in range(10)]
        assert any(len(page) < len(full) for page in shortened)
        for page in shortened:
            assert page == full[:len(page)]  # partial truth, never invention

    def test_latency_injection_sleeps(self):
        slept = []
        store = FaultyObjectStore(
            InMemoryObjectStore(),
            FaultSchedule(seed=2, ops={"get": FaultSpec(latency_s=0.25)}),
            sleep=slept.append)
        store.get("k")
        assert len(slept) == 1 and 0.0 < slept[0] <= 0.25
        assert store.injected.snapshot()["delays"] == 1

    def test_disabled_wrapper_is_transparent(self):
        store = FaultyObjectStore(InMemoryObjectStore(),
                                  always_fail(*STORE_OPS), sleep=no_sleep)
        store.enabled = False
        assert store.put_if_absent("k", b"v") is True
        assert store.get("k")[0] == b"v"
        assert store.list_prefix("") == ["k"]
        assert store.delete("k") is True
        assert store.injected.snapshot()["errors"] == 0
        assert store.describe().startswith("faulty(")


# ----------------------------------------------------------------------
# call_with_retries / RetryPolicy: the armour
# ----------------------------------------------------------------------
class TestCallWithRetries:
    def test_absorbs_transients_and_counts_each_attempt(self):
        calls = []

        def flaky():
            calls.append(None)
            if len(calls) < 3:
                raise TransientStoreError("blip")
            return "ok"

        policy = RetryPolicy(attempts=5, sleep=no_sleep)
        with use_sink(AggregatingSink()) as sink:
            assert call_with_retries(flaky, op="get", key="k",
                                     policy=policy) == "ok"
        assert len(calls) == 3
        assert sink.snapshot()["counters"]["store_retry"] == 2

    def test_give_up_is_labeled_with_op_key_and_attempts(self):
        def doomed():
            raise TransientStoreError("still down")

        with pytest.raises(RetryBudgetExceeded,
                           match=r"get on 'k' still failing after 4 "
                                 r"attempt\(s\)") as caught:
            call_with_retries(doomed, op="get", key="k",
                              policy=RetryPolicy(attempts=4, sleep=no_sleep))
        assert isinstance(caught.value.__cause__, TransientStoreError)

    def test_semantic_errors_are_never_retried(self):
        calls = []

        def wrong():
            calls.append(None)
            raise ShardError("malformed payload")

        with pytest.raises(ShardError, match="malformed payload"):
            call_with_retries(wrong, op="get", key="k",
                              policy=RetryPolicy(attempts=8, sleep=no_sleep))
        assert len(calls) == 1

    def test_backoff_doubles_with_jitter_up_to_the_cap(self):
        policy = RetryPolicy(attempts=10, backoff_base_s=0.1,
                             backoff_cap_s=0.4, sleep=no_sleep)
        for attempt in range(1, 10):
            nominal = min(0.4, 0.1 * 2.0 ** (attempt - 1))
            delay = policy.backoff_s(attempt)
            assert 0.5 * nominal <= delay <= nominal

    @pytest.mark.parametrize("kwargs, match", [
        ({"attempts": 0}, "attempts"),
        ({"attempts": True}, "attempts"),
        ({"backoff_base_s": -1}, "backoff"),
        ({"backoff_cap_s": float("nan")}, "backoff"),
    ])
    def test_policy_rejects_bad_budgets(self, kwargs, match):
        with pytest.raises(ShardError, match=match):
            RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# give-up paths: every ObjectStoreBroker verb, plus the worker loop
# ----------------------------------------------------------------------
class TestGiveUpPaths:
    @pytest.fixture
    def armed(self):
        """A store broker whose storage will fail every call (3-attempt
        budget), but with ``enabled=False`` so tests can stage real state
        first and flip the storm on at the interesting moment."""
        store = FaultyObjectStore(InMemoryObjectStore(),
                                  always_fail(*STORE_OPS), sleep=no_sleep)
        store.enabled = False
        broker = ObjectStoreBroker(
            store, retry=RetryPolicy(attempts=3, sleep=no_sleep))
        with use_sink(AggregatingSink()) as sink:
            yield store, broker, sink

    def expect_give_up(self, store, sink, match, fn):
        store.enabled = True
        with pytest.raises(RetryBudgetExceeded, match=match):
            fn()
        store.enabled = False
        assert sink.snapshot()["counters"]["store_retry"] >= 3

    def test_submit(self, armed):
        store, broker, sink = armed
        self.expect_give_up(
            store, sink, r"put_if_absent on 'plans/default'.*3 attempt",
            lambda: broker.submit(small_plan(shards=1)))

    def test_lease(self, armed):
        store, broker, sink = armed
        broker.submit(small_plan(shards=1))
        self.expect_give_up(store, sink, r"list_prefix on 'plans/'",
                            lambda: broker.lease("worker-a"))

    def test_renew(self, armed):
        store, broker, sink = armed
        broker.submit(small_plan(shards=1))
        lease = broker.lease("worker-a")
        self.expect_give_up(store, sink, r"get on 'lease/default/",
                            lambda: broker.renew(lease))

    def test_post(self, armed):
        store, broker, sink = armed
        broker.submit(small_plan(shards=1))
        lease = broker.lease("worker-a")
        results = run_manifest(lease.manifest)
        self.expect_give_up(store, sink, r"get on 'plans/default'",
                            lambda: broker.post(lease, results))
        # The storm passed without the result landing; the retry was safe.
        assert broker.post(lease, results) is True

    def test_collect(self, armed):
        store, broker, sink = armed
        broker.submit(small_plan(shards=1))
        self.expect_give_up(store, sink, r"get on 'plans/default'",
                            broker.collect)

    def test_status(self, armed):
        store, broker, sink = armed
        broker.submit(small_plan(shards=1))
        self.expect_give_up(store, sink, r"list_prefix on 'plans/'",
                            broker.status)

    def test_worker_surfaces_a_labeled_lease_give_up(self):
        store = FaultyObjectStore(InMemoryObjectStore(),
                                  always_fail("list_prefix"), sleep=no_sleep)
        broker = ObjectStoreBroker(
            store, retry=RetryPolicy(attempts=2, sleep=no_sleep))
        worker = ShardWorker(broker, worker_id="doomed", poll=0)
        with pytest.raises(RetryBudgetExceeded,
                           match=r"list_prefix on 'plans/'.*2 attempt"):
            worker.run()


class _SlowExecutor(ManifestExecutor):
    """Holds each manifest long enough for heartbeats to fire; ``before``
    runs first (how a test starts a storm once the lease is held)."""

    def __init__(self, hold_s: float, before=None) -> None:
        super().__init__()
        self.hold_s = hold_s
        self.before = before

    def run(self, manifest, progress=None):
        if self.before is not None:
            self.before()
        time.sleep(self.hold_s)
        return run_manifest(manifest)


def cas_storm_broker(tmp_path, lease_ttl: float):
    """A filesystem-store broker whose every ``put_if_match`` reports the
    race lost once ``store.enabled`` is flipped on: a lease renewal storm."""
    store = FaultyObjectStore(
        FileSystemObjectStore(tmp_path / "store"),
        FaultSchedule(seed=4, ops={
            "put_if_match": FaultSpec(cas_lost_rate=1.0)}),
        sleep=no_sleep)
    store.enabled = False
    return store, ObjectStoreBroker(store, lease_ttl=lease_ttl)


class TestWorkerUnderStorm:
    def test_lease_lost_mid_storm_abandons_cleanly(self, tmp_path):
        """A renew storm (every heartbeat CAS reports the race lost) must
        make the worker abandon: ``abandoned`` increments, nothing is
        posted, no orphan result exists — and once the storm passes, the
        expired lease is reclaimed and the plan still drains to a clean
        merge."""
        store, broker = cas_storm_broker(tmp_path, lease_ttl=0.5)
        broker.submit(small_plan(shards=1))

        def storm() -> None:
            store.enabled = True

        worker = ShardWorker(broker, executor=_SlowExecutor(0.4, storm),
                             worker_id="stormed", poll=0, max_manifests=1,
                             heartbeat=0.1)
        posted = worker.run()
        store.enabled = False
        assert store.injected.snapshot()["cas_lost"] > 0
        assert worker.abandoned == 1
        assert posted == [] and worker.results_by_plan == {}
        assert broker.status().done == 0  # no orphan result landed
        # Storm over: the abandoned lease expires and a healthy worker
        # reclaims and finishes the plan.
        deadline = time.monotonic() + 10.0
        reclaimed = broker.lease("rescuer")
        while reclaimed is None and time.monotonic() < deadline:
            time.sleep(0.05)
            reclaimed = broker.lease("rescuer")
        assert reclaimed is not None, "abandoned lease never expired"
        broker.post(reclaimed, run_manifest(reclaimed.manifest))
        assert broker.status().complete
        assert list(merge_shard_results(broker.collect()))

    def test_storm_then_recovery_drains_to_a_clean_merge(self, tmp_path):
        store, broker = cas_storm_broker(tmp_path, lease_ttl=0.3)
        broker.submit(small_plan(shards=1))

        def storm() -> None:
            store.enabled = True

        stormed = ShardWorker(broker, executor=_SlowExecutor(0.35, storm),
                              worker_id="stormed", poll=0, max_manifests=1,
                              heartbeat=0.1)
        stormed.run()
        assert stormed.abandoned == 1
        store.enabled = False
        time.sleep(0.35)  # let the abandoned lease expire for reclaim
        rescuer = ShardWorker(broker, worker_id="rescuer", poll=0.05)
        rescued = rescuer.run()
        assert len(rescued) == 1 and rescuer.abandoned == 0
        assert list(merge_shard_results(broker.collect()))

    def test_broker_retry_keeps_a_worker_alive_in_a_hostile_store(self):
        """A full hostile schedule on every store op: the broker's bounded
        retries keep the worker loop alive and the plan drains."""
        store = FaultyObjectStore(InMemoryObjectStore(), hostile_schedule(),
                                  sleep=no_sleep)
        broker = ObjectStoreBroker(store, retry=chaos_retry_policy())
        store.enabled = False
        broker.submit(small_plan(shards=2))  # the storm is for the worker
        store.enabled = True
        worker = ShardWorker(broker, worker_id="tough", poll=0, heartbeat=0)
        posted = worker.run()
        assert len(posted) == 2 and worker.abandoned == 0
        assert store.injected.snapshot()["errors"] > 0  # weather happened
        store.enabled = False
        assert list(merge_shard_results(broker.collect()))


# ----------------------------------------------------------------------
# clocks: monotonic in-process, wall-clock + skew allowance persisted
# ----------------------------------------------------------------------
class TestClockDiscipline:
    def test_in_process_deadlines_default_to_monotonic(self):
        broker = ObjectStoreBroker(InMemoryObjectStore())
        assert ShardWorker(broker)._clock is time.monotonic

    def test_persisted_deadlines_stay_wall_clock(self):
        # Cross-process deadlines must be comparable between machines, so
        # the broker intentionally stays on time.time — with skew_allowance
        # as the documented grace (below), not a clock change.
        assert ObjectStoreBroker(InMemoryObjectStore())._clock is time.time

    def test_skew_allowance_grants_extra_life_to_leases(self):
        clock = FakeClock()
        broker = ObjectStoreBroker(InMemoryObjectStore(), lease_ttl=60.0,
                                   skew_allowance=5.0, clock=clock)
        broker.submit(small_plan(shards=1))
        held = broker.lease("worker-a")
        assert held is not None
        clock.advance(61.0)  # past the ttl, inside the skew grace
        assert broker.lease("worker-b") is None
        assert broker.status().leased == 1  # status honours the grace too
        clock.advance(4.5)  # now past ttl + allowance
        reclaimed = broker.lease("worker-b")
        assert reclaimed is not None and reclaimed.worker_id == "worker-b"

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_skew_allowance_must_be_finite_nonnegative(self, bad):
        with pytest.raises(ShardError, match="skew_allowance"):
            ObjectStoreBroker(InMemoryObjectStore(), skew_allowance=bad)
