"""Transport tests: everything the conformance suite isn't.

The cross-store queue contract (submit/lease/renew/post/collect, expiry +
reclaim, first-write-wins, status counters) lives in
``tests/broker_contract.py`` and runs against every store via
``tests/test_broker_contract.py``.  This module covers what is specific to
one component: the worker pull loop and its heartbeat thread, lease-loss
abandonment, CAS races on the broker's lease objects, corrupt objects in
the filesystem store, and the ArtifactCache accounting of the worker loop.
"""

import json
import threading
import time

import pytest

from broker_contract import (
    DEFAULT_SEED,
    FakeClock,
    SETTINGS,
    TASKS,
    run_manifest,
    serial_reference,
    small_plan,
)
from repro.bench.shard import (
    ManifestExecutor,
    ShardError,
    merge_shard_results,
    plan_shards,
    shard_file_name,
)
from repro.bench.store import FileSystemObjectStore, InMemoryObjectStore
from repro.bench.telemetry import AggregatingSink, EventSink, use_sink
from repro.bench.transport import (
    DEFAULT_LEASE_TTL,
    IDLE_BACKOFF_BASE,
    LeaseHeartbeat,
    ObjectStoreBroker,
    ShardWorker,
)


class StubExecutor(ManifestExecutor):
    """Returns memoized results instantly; ``before`` hooks run first.

    The hook is how tests orchestrate "mid-run" events deterministically:
    advance a fake clock, steal a lease, or wait for a heartbeat tick while
    the manifest is "executing".
    """

    def __init__(self, before=None) -> None:
        super().__init__()
        self._before = before

    def run(self, manifest, progress=None):
        if self._before is not None:
            self._before(manifest)
        return run_manifest(manifest)


def fs_broker(root, **kwargs):
    return ObjectStoreBroker(FileSystemObjectStore(root), **kwargs)


def memory_broker(**kwargs):
    return ObjectStoreBroker(InMemoryObjectStore(), **kwargs)


def wait_until(condition, timeout=5.0):
    deadline = time.time() + timeout
    while not condition() and time.time() < deadline:
        time.sleep(0.005)
    assert condition(), "timed out waiting for a background event"


# ----------------------------------------------------------------------
# worker heartbeats: long manifests outlive lease_ttl
# ----------------------------------------------------------------------
def test_heartbeat_keeps_a_long_manifest_alive(tmp_path):
    """Acceptance: a manifest that runs far past lease_ttl finishes and
    posts without being reclaimed when heartbeats are on."""
    clock = FakeClock()
    broker = fs_broker(tmp_path / "queue", lease_ttl=60.0, clock=clock)
    broker.submit(small_plan(shards=1))
    renewals = []

    def long_run(_manifest):
        clock.advance(100.0)  # the manifest "runs" far past the 60s ttl
        wait_until(lambda: len(renewals) >= 2)  # heartbeats fire meanwhile
        assert broker.lease("rival") is None  # renewed: nothing to reclaim

    worker = ShardWorker(broker, StubExecutor(before=long_run),
                         worker_id="slow-but-alive", poll=0, heartbeat=0.02,
                         on_renew=lambda lease, ok: renewals.append(ok))
    completed = worker.run()
    assert len(completed) == 1 and worker.abandoned == 0
    assert renewals and all(renewals)
    assert broker.status().complete
    assert list(merge_shard_results(broker.collect()))


def test_one_heartbeat_thread_renews_every_lease_of_a_drain(tmp_path, monkeypatch):
    """A worker starts one heartbeat thread for its whole run and points it
    at each lease in turn: every shard of a 6-shard drain is renewed, and
    the thread is gone once the run returns."""
    broker = fs_broker(tmp_path / "queue", lease_ttl=60.0)
    broker.submit(small_plan(shards=6))
    started = []
    start = threading.Thread.start

    def counting(thread):
        if thread.name == "lease-heartbeat":
            started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    renewed = {}

    def note_renewal(lease, ok):
        renewed.setdefault(lease.manifest.shard_index, []).append(ok)

    def wait_for_renewal(manifest):
        wait_until(lambda: renewed.get(manifest.shard_index))

    worker = ShardWorker(broker, StubExecutor(before=wait_for_renewal),
                         worker_id="one-beat", poll=0, heartbeat=0.02,
                         on_renew=note_renewal)
    assert len(worker.run()) == 6
    assert len(started) == 1 and not started[0].is_alive()
    assert sorted(renewed) == list(range(6))
    assert all(all(oks) for oks in renewed.values())
    assert broker.status().complete


def test_without_heartbeats_a_long_manifest_is_reclaimed_mid_run(tmp_path):
    """The control for the test above: same long manifest, heartbeats off —
    a rival reclaims the expired lease mid-run (the pre-heartbeat PR 3
    behaviour, still safe because posting is first-write-wins)."""
    clock = FakeClock()
    broker = fs_broker(tmp_path / "queue", lease_ttl=60.0, clock=clock)
    broker.submit(small_plan(shards=1))
    rival = {}

    def long_run(_manifest):
        clock.advance(100.0)
        rival["lease"] = broker.lease("rival")

    worker = ShardWorker(broker, StubExecutor(before=long_run),
                         worker_id="slow-and-stale", poll=0, heartbeat=0)
    completed = worker.run()
    assert rival["lease"] is not None  # the expired lease was reclaimed
    assert len(completed) == 1  # the straggler still posted first
    assert broker.post(rival["lease"],
                       run_manifest(rival["lease"].manifest)) is False


def test_worker_abandons_manifest_when_heartbeat_loses_the_lease(tmp_path):
    """Fault injection: the lease is reclaimed while the manifest runs; the
    heartbeat detects the loss and the worker abandons the manifest —
    nothing posted, the thief owns the shard."""
    clock = FakeClock()
    broker = fs_broker(tmp_path / "queue", lease_ttl=60.0, clock=clock)
    broker.submit(small_plan(shards=1))
    renewals, thief = [], {}

    def stolen_mid_run(_manifest):
        clock.advance(61.0)  # victim's lease expires mid-run...
        thief["lease"] = broker.lease("thief")  # ...and a thief reclaims it
        assert thief["lease"] is not None
        wait_until(lambda: renewals)  # heartbeat discovers the loss

    worker = ShardWorker(broker, StubExecutor(before=stolen_mid_run),
                         worker_id="victim", poll=0, heartbeat=0.02,
                         on_renew=lambda lease, ok: renewals.append(ok))
    completed = worker.run()
    assert completed == [] and worker.abandoned == 1
    assert renewals[0] is False
    assert broker.status().done == 0  # the victim posted nothing
    broker.post(thief["lease"], run_manifest(thief["lease"].manifest))
    assert broker.status().complete
    assert list(merge_shard_results(broker.collect()))


def test_crash_mid_heartbeat_is_recovered_by_reclaim(tmp_path):
    """Acceptance: a worker that dies *between* heartbeats stops renewing;
    its lease expires one ttl after the last renewal and reclaim recovers
    the manifest, bit-identical to serial."""
    clock = FakeClock()
    broker = fs_broker(tmp_path / "queue", lease_ttl=60.0, clock=clock)
    broker.submit(small_plan(shards=1))
    renewals = []
    doomed = broker.lease("doomed")
    beat = LeaseHeartbeat(broker, doomed, interval=0.02,
                          on_renew=lambda lease, ok: renewals.append(ok))
    beat.start()
    wait_until(lambda: len(renewals) >= 2)  # heartbeats were flowing...
    beat.stop()  # ...then the worker process dies mid-heartbeat
    assert all(renewals) and not beat.lost
    clock.advance(59.9)
    assert broker.lease("healthy") is None  # last renewal still protects it
    clock.advance(0.2)
    healthy = ShardWorker(broker, StubExecutor(), worker_id="healthy", poll=0)
    assert len(healthy.run()) == 1
    merged = merge_shard_results(broker.collect())
    reference = serial_reference()
    for key in reference:
        assert [r.as_dict() for r in reference[key].results] \
            == [r.as_dict() for r in merged[key].results]


def test_worker_heartbeat_configuration_is_validated(tmp_path):
    broker = fs_broker(tmp_path / "broker", lease_ttl=60.0)
    with pytest.raises(ShardError, match="heartbeat .*shorter than"):
        ShardWorker(broker, heartbeat=60.0)  # >= lease_ttl
    with pytest.raises(ShardError, match="heartbeat"):
        ShardWorker(broker, heartbeat=-1)
    with pytest.raises(ShardError, match="heartbeat"):
        ShardWorker(broker, heartbeat=float("nan"))
    assert ShardWorker(broker).heartbeat == 20.0  # defaults to lease_ttl/3
    assert ShardWorker(broker, heartbeat=0).heartbeat == 0  # disabled
    with pytest.raises(ShardError, match="heartbeat interval"):
        LeaseHeartbeat(broker, None, interval=0)


# ----------------------------------------------------------------------
# CAS races and shared-store handles
# ----------------------------------------------------------------------
def store_broker(tmp_path, **kwargs):
    store = FileSystemObjectStore(tmp_path / "store")
    return store, ObjectStoreBroker(store, **kwargs)


def test_two_workers_racing_a_stale_cas_lease_exactly_one_wins(tmp_path):
    """Fault injection: two workers observe the same expired lease object
    and race to reclaim it from the same etag — the CAS lets exactly one
    win."""
    clock = FakeClock()
    store, broker = store_broker(tmp_path, lease_ttl=60.0, clock=clock)
    broker.submit(small_plan(shards=1))
    assert broker.lease("crasher") is not None
    clock.advance(61.0)  # the crasher's lease object is now stale
    key = "lease/default/" + shard_file_name(0, 1)
    data, etag = store.get(key)
    stale = json.loads(data)
    assert stale["state"] == "leased" and stale["worker"] == "crasher"
    outcomes = []
    for racer in ("racer-a", "racer-b"):  # both hold the same observed etag
        claim = dict(stale, worker=racer, grant=stale["grant"] + 1,
                     deadline_ms=int((clock() + 60.0) * 1000))
        outcomes.append(store.put_if_match(
            key, json.dumps(claim).encode("utf-8"), etag))
    assert sorted(outcomes) == [False, True]
    winner = json.loads(store.get(key)[0])
    assert winner["worker"] == "racer-a"  # first CAS won, second bounced


def test_broker_level_reclaim_race_hands_the_lease_to_one_worker(tmp_path):
    clock = FakeClock()
    store, coordinator = store_broker(tmp_path, lease_ttl=60.0, clock=clock)
    coordinator.submit(small_plan(shards=1))
    # Three machines = three broker handles over one shared store.
    handles = [ObjectStoreBroker(store, lease_ttl=60.0, clock=clock)
               for _ in range(3)]
    assert handles[0].lease("crasher") is not None
    clock.advance(61.0)
    leases = [handle.lease(f"worker-{index}")
              for index, handle in enumerate(handles)]
    taken = [lease for lease in leases if lease is not None]
    assert len(taken) == 1  # exactly one handle reclaimed the stale lease
    assert taken[0].worker_id == "worker-0"  # the first caller won
    handles[1].post(taken[0], run_manifest(taken[0].manifest))
    assert coordinator.status().complete  # visible through every handle
    assert list(merge_shard_results(coordinator.collect()))


def test_store_broker_does_not_release_a_done_shard(tmp_path):
    """After a straggler posts, the shard's results exist even though its
    lease object may still read queued/leased — lease() must skip it."""
    clock = FakeClock()
    store, broker = store_broker(tmp_path, lease_ttl=60.0, clock=clock)
    broker.submit(small_plan(shards=1))
    slow = broker.lease("slow")
    clock.advance(61.0)
    # The straggler posts after expiry; the lease object goes back to a
    # stale "leased" state from the reclaim's perspective.
    assert broker.post(slow, run_manifest(slow.manifest)) is True
    assert broker.lease("eager") is None  # done: nothing to re-run
    status = broker.status()
    assert status.done == 1 and status.queued == 0 and status.complete


def test_a_handle_keeps_no_manifests_of_a_complete_plan():
    """A long-lived handle memoizes plans, but once it has seen a plan
    complete it keeps only the header: a straggler's post, status and
    collect still work from it."""
    broker = ObjectStoreBroker(InMemoryObjectStore())
    broker.submit(small_plan(shards=2), name="a")
    broker.submit(small_plan(shards=1), name="b")
    straggler = broker.lease("slow")
    leases = [straggler, broker.lease("w"), broker.lease("w")]
    for lease in leases:
        assert broker.post(lease, run_manifest(lease.manifest))
    assert broker.lease("w") is None
    observer = ObjectStoreBroker(broker.store)
    for handle in (broker, observer):
        status = handle.status()
        assert status.complete and status.shard_count == 3
        assert all(plan.manifests == () for plan in handle._plans.values())
    assert broker.post(straggler,
                       run_manifest(straggler.manifest)) is False
    assert len(broker.collect("a")) == 2 and len(observer.collect("b")) == 1


# ----------------------------------------------------------------------
# fault injection: corrupt objects in the store
# ----------------------------------------------------------------------
def corrupt_object(store: FileSystemObjectStore, key: str, text: str) -> None:
    """Replace the payload of ``key``'s value file on disk, keeping its
    version header and bypassing the store API — what a torn upload or bit
    rot in the payload would leave behind."""
    value = store._key_dir(key) / "value"
    header = value.read_bytes().split(b"\n", 1)[0]
    value.write_bytes(header + b"\n" + text.encode("utf-8"))


def test_corrupt_plan_object_raises_clean_shard_error(tmp_path):
    store, broker = store_broker(tmp_path)
    broker.submit(small_plan(shards=1))
    corrupt_object(store, "plans/default", "{truncated")
    with pytest.raises(ShardError, match="not valid JSON") as excinfo:
        broker.status()
    assert "'plans/default'" in str(excinfo.value)  # names the offending key


def test_corrupt_manifest_object_raises_clean_shard_error(tmp_path):
    store, broker = store_broker(tmp_path)
    broker.submit(small_plan(shards=1))
    key = "plans/default"
    payload = json.loads(store.get(key)[0])
    payload["manifests"][0] = {"kind": "wrong-kind"}
    corrupt_object(store, key, json.dumps(payload))
    with pytest.raises(ShardError, match="field 'kind'") as excinfo:
        broker.lease("worker-a")
    assert repr(key) in str(excinfo.value)
    assert "manifests[0]" in str(excinfo.value)


def test_truncated_result_object_raises_clean_shard_error(tmp_path):
    store, broker = store_broker(tmp_path)
    broker.submit(small_plan(shards=1))
    lease = broker.lease("worker-a")
    broker.post(lease, run_manifest(lease.manifest))
    key = "result/default/" + shard_file_name(0, 1)
    payload = json.loads(store.get(key)[0])
    payload["results"] = payload["results"][:-1]  # drop one trial's result
    corrupt_object(store, key, json.dumps(payload))
    with pytest.raises(ShardError, match="specs but") as excinfo:
        broker.collect()
    assert repr(key) in str(excinfo.value)


def test_lease_object_missing_state_field_raises_clean_shard_error(tmp_path):
    store, broker = store_broker(tmp_path)
    broker.submit(small_plan(shards=1))
    assert broker.lease("worker-a") is not None  # the claim creates it
    key = "lease/default/" + shard_file_name(0, 1)
    corrupt_object(store, key, "{}")
    with pytest.raises(ShardError,
                       match="missing required field 'state'") as excinfo:
        broker.status()
    assert repr(key) in str(excinfo.value)
    corrupt_object(store, key, json.dumps({"state": "limbo"}))
    with pytest.raises(ShardError, match="expected one of"):
        broker.lease("worker-a")


def test_corrupt_plan_header_raises_clean_shard_error(tmp_path):
    store, broker = store_broker(tmp_path)
    broker.submit(small_plan(shards=1))
    valid = json.loads(store.get("plans/default")[0])
    corrupt_object(store, "plans/default", "not json at all")
    with pytest.raises(ShardError, match="not valid JSON"):
        broker.status()
    header = {"kind": "repro-broker-plan", "format_version": 1, "seed": 11}
    corrupt_object(store, "plans/default", json.dumps(header))
    with pytest.raises(ShardError, match="missing required field "
                                         "'shard_count'") as excinfo:
        broker.status()
    assert "'plans/default'" in str(excinfo.value)
    del valid["priority"]
    corrupt_object(store, "plans/default", json.dumps(valid))
    with pytest.raises(ShardError, match="missing required field "
                                         "'priority'") as excinfo:
        broker.status()
    assert "'plans/default'" in str(excinfo.value)


def test_worker_crash_between_two_real_workers_still_bit_identical(tmp_path):
    """End-to-end reclaim over the filesystem store: a worker leases shard 0
    and dies; after expiry a healthy worker drains everything; the collected
    merge is still bit-identical to serial."""
    clock = FakeClock()
    broker = fs_broker(tmp_path / "broker", lease_ttl=30.0, clock=clock)
    broker.submit(small_plan(shards=2))
    assert broker.lease("doomed") is not None  # crashes here
    clock.advance(31.0)
    worker = ShardWorker(broker, ManifestExecutor(), worker_id="healthy",
                         poll=0)
    completed = worker.run()
    assert len(completed) == 2
    merged = merge_shard_results(broker.collect())
    reference = serial_reference()
    for key in reference:
        assert [r.as_dict() for r in reference[key].results] \
            == [r.as_dict() for r in merged[key].results]


# ----------------------------------------------------------------------
# the worker pull loop
# ----------------------------------------------------------------------
def test_worker_drains_queue_and_respects_max_manifests(tmp_path):
    broker = fs_broker(tmp_path / "broker")
    broker.submit(small_plan(shards=3, trials=2))
    first = ShardWorker(broker, ManifestExecutor(), worker_id="w0", poll=0,
                        max_manifests=1)
    assert len(first.run()) == 1
    assert broker.status().done == 1
    rest = ShardWorker(broker, ManifestExecutor(), worker_id="w1", poll=0)
    completed = rest.run()
    assert len(completed) == 2
    assert broker.status().complete
    assert {shard.manifest.shard_index for shard in completed} == {1, 2}


def test_worker_polls_while_a_peer_holds_a_lease(tmp_path):
    """queued=0 but leased>0: a polling worker waits (the peer may crash and
    its lease becomes reclaimable) instead of exiting early.  Idle sleeps
    back off exponentially with --poll as the ceiling."""
    clock = FakeClock()
    broker = fs_broker(tmp_path / "broker", lease_ttl=10.0, clock=clock)
    broker.submit(small_plan(shards=1))
    assert broker.lease("peer") is not None  # peer holds the only manifest
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        clock.advance(6.0)  # two sleeps push past the 10s ttl

    worker = ShardWorker(broker, ManifestExecutor(), worker_id="patient",
                         poll=2.5, heartbeat=0, sleep=fake_sleep)
    completed = worker.run()
    assert len(completed) == 1  # reclaimed the peer's manifest and ran it
    assert sleeps and all(0 < s <= 2.5 for s in sleeps)
    # The first idle sleep starts at the backoff base, not at --poll.
    assert sleeps[0] <= IDLE_BACKOFF_BASE
    assert broker.status().complete


def test_idle_polling_backs_off_exponentially_up_to_poll(tmp_path):
    """Satellite acceptance: idle sleeps grow from IDLE_BACKOFF_BASE toward
    --poll (never past it), carry jitter, and emit one WorkerIdle event per
    sleep.  Hundreds of idle workers must not hammer the store in
    lock-step at a fixed --poll cadence."""
    clock = FakeClock()
    broker = fs_broker(tmp_path / "broker", lease_ttl=3600.0,
                            clock=clock)
    broker.submit(small_plan(shards=1))
    peer_lease = broker.lease("peer")
    assert peer_lease is not None
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        if len(sleeps) == 12:  # the peer finally posts; the queue drains
            broker.post(peer_lease, run_manifest(peer_lease.manifest))

    worker = ShardWorker(broker, ManifestExecutor(), worker_id="idler",
                         poll=1.0, heartbeat=0, sleep=fake_sleep)
    with use_sink(AggregatingSink()) as sink:
        assert worker.run() == []  # the peer posted; nothing left to execute
    assert len(sleeps) == 12
    # Jittered exponential growth: while the nominal delay (base * 2^n) is
    # still below the --poll cap it doubles each round, and jitter within
    # [0.5, 1.0) cannot undo a doubling — so that prefix is nondecreasing.
    below_cap = [s for n, s in enumerate(sleeps)
                 if IDLE_BACKOFF_BASE * (2.0 ** n) < 1.0]
    assert len(below_cap) >= 4
    for earlier, later in zip(below_cap, below_cap[1:]):
        assert later >= earlier
    # Starts at the base, never exceeds min(poll, IDLE_BACKOFF_CAP), and
    # actually grows an order of magnitude before settling at the cap.
    assert sleeps[0] <= IDLE_BACKOFF_BASE
    assert all(s <= 1.0 for s in sleeps)
    assert max(sleeps) > 10 * sleeps[0]
    # Distinct workers jitter differently (decorrelated fleets).
    other = ShardWorker(broker, ManifestExecutor(), worker_id="other",
                        poll=1.0, heartbeat=0)
    assert worker._backoff_rng.random() != other._backoff_rng.random()
    # One WorkerIdle telemetry event per backoff sleep, with the durations.
    assert sink.count("worker_idle") == 12
    idle = sink.timer("idle_sleep_s")
    assert idle is not None and idle.count == 12
    assert idle.total == pytest.approx(sum(sleeps))


def test_worker_loop_emits_lease_lifecycle_telemetry(tmp_path):
    """LeaseAcquired / LeaseRenewed / ShardPosted flow from a live worker;
    a stolen lease adds LeaseLost + ManifestAbandoned."""
    broker = fs_broker(tmp_path / "queue", lease_ttl=60.0)
    broker.submit(small_plan(shards=2))
    renewed_by_shard = {}

    def note_renewal(lease, ok):
        renewed_by_shard.setdefault(lease.manifest.shard_index,
                                    []).append(ok)

    def wait_for_renewal(manifest):
        # Wait for a renewal of *this* manifest's lease, so every shard is
        # guaranteed at least one heartbeat even when execution is instant.
        wait_until(lambda: renewed_by_shard.get(manifest.shard_index))

    sink = AggregatingSink()
    with use_sink(sink):
        worker = ShardWorker(broker, StubExecutor(before=wait_for_renewal),
                             worker_id="steady-counted", poll=0,
                             heartbeat=0.02, on_renew=note_renewal)
        completed = worker.run()
    assert len(completed) == 2
    assert sink.count("lease_acquired") == 2
    assert sink.count("shard_posted") == 2
    assert sink.count("lease_renewed") >= 2  # one wait per manifest
    assert sink.count("lease_lost") == 0
    assert sink.count("manifest_abandoned") == 0
    assert sink.count("shard_collected") == 0  # nobody collected yet
    broker.collect()
    assert sink.count("shard_collected") == 0  # broker has its own sink...
    with use_sink(sink):
        broker.collect()
    assert sink.count("shard_collected") == 2  # ...resolved at collect time


def test_lost_lease_emits_lease_lost_and_manifest_abandoned(tmp_path):
    clock = FakeClock()
    broker = fs_broker(tmp_path / "queue", lease_ttl=60.0, clock=clock)
    broker.submit(small_plan(shards=1))
    lost = []

    def steal(_manifest):
        clock.advance(100.0)  # the lease expires mid-run
        assert broker.lease("thief") is not None
        wait_until(lambda: len(lost) >= 1)  # heartbeat notices the theft

    worker = ShardWorker(broker, StubExecutor(before=steal),
                         worker_id="victim-counted", poll=0, heartbeat=0.02,
                         on_renew=lambda lease, ok: lost.append(ok)
                         if not ok else None)
    with use_sink(AggregatingSink()) as sink:
        completed = worker.run()
    assert completed == [] and worker.abandoned == 1
    assert sink.count("lease_acquired") == 1
    assert sink.count("lease_lost") == 1
    assert sink.count("manifest_abandoned") == 1
    assert sink.count("shard_posted") == 0


def test_worker_with_zero_poll_exits_when_nothing_is_leasable(tmp_path):
    broker = fs_broker(tmp_path / "broker")
    broker.submit(small_plan(shards=1))
    assert broker.lease("peer") is not None
    worker = ShardWorker(broker, ManifestExecutor(), worker_id="w", poll=0)
    assert worker.run() == []


def test_worker_and_broker_validate_construction(tmp_path):
    broker = fs_broker(tmp_path / "broker")
    with pytest.raises(ShardError, match="poll"):
        ShardWorker(broker, poll=-1)
    with pytest.raises(ShardError, match="poll"):
        ShardWorker(broker, poll=float("nan"))  # NaN passes every < check
    with pytest.raises(ShardError, match="poll"):
        ShardWorker(broker, poll=float("inf"))
    with pytest.raises(ShardError, match="max_manifests"):
        ShardWorker(broker, max_manifests=0)
    with pytest.raises(ShardError, match="lease_ttl"):
        fs_broker(tmp_path / "b2", lease_ttl=0)
    with pytest.raises(ShardError, match="lease_ttl"):
        memory_broker(lease_ttl=-5)


def test_default_lease_ttl_is_generous():
    assert DEFAULT_LEASE_TTL >= 300.0


# ----------------------------------------------------------------------
# ArtifactCache accounting under the worker loop
# ----------------------------------------------------------------------
def test_second_worker_sharing_a_cache_dir_reports_zero_misses(tmp_path):
    """Two sequential workers (two queues, one --cache-dir): the first pays
    every rip, the second loads everything from the shared cache."""
    cache_dir = tmp_path / "cache"
    first_broker = fs_broker(tmp_path / "queue-1")
    first_broker.submit(small_plan(shards=2))
    first_executor = ManifestExecutor(cache_dir=cache_dir)
    ShardWorker(first_broker, first_executor, worker_id="w1", poll=0).run()
    first_stats = first_executor.cache_stats()
    # The grid spans two apps; the first worker rips each exactly once.
    assert first_stats["misses"] == len(TASKS)

    second_broker = fs_broker(tmp_path / "queue-2")
    second_broker.submit(small_plan(shards=2))
    second_executor = ManifestExecutor(cache_dir=cache_dir)
    ShardWorker(second_broker, second_executor, worker_id="w2", poll=0).run()
    second_stats = second_executor.cache_stats()
    assert second_stats["misses"] == 0
    assert second_stats["hits"] > 0
    # And the cached run produced the same bytes as the cold one.
    for ours, theirs in zip(first_broker.collect(), second_broker.collect()):
        assert [r.as_dict() for r in ours.results] \
            == [r.as_dict() for r in theirs.results]


def test_cache_counters_aggregate_across_manifests_of_one_worker(tmp_path):
    broker = fs_broker(tmp_path / "queue")
    # trials=2 makes the round-robin deal give every shard all three apps
    # (two hand-written plus the generated one).
    broker.submit(small_plan(shards=2, trials=2))
    executor = ManifestExecutor(cache_dir=tmp_path / "cache")
    ShardWorker(broker, executor, worker_id="w", poll=0).run()
    stats = executor.cache_stats()
    # 2 shards × 3 apps, but one runner serves both manifests: each app is
    # built once and the second shard reuses the in-memory model.
    assert stats["misses"] == 3
    assert stats["hits"] == 0


def test_one_executor_rips_each_app_once_across_manifests():
    plan = small_plan(shards=2, trials=2)
    assert all({spec.task_id for spec in manifest.specs} == set(TASKS)
               for manifest in plan.manifests)
    ripped = []

    class Capture(EventSink):
        def emit(self, event):
            if event.name == "rip_full":
                ripped.append(event.app)

    executor = ManifestExecutor()
    with use_sink(Capture()):
        for manifest in plan.manifests:
            executor.run(manifest)
    assert len(ripped) == len(TASKS) == len(set(ripped))


def test_executor_without_cache_dir_reports_no_stats():
    assert ManifestExecutor().cache_stats() is None


class FlakyRenewBroker:
    """Delegates to a real broker, but renew() raises for a while first."""

    def __init__(self, inner, failures):
        self._inner = inner
        self._failures = failures

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def renew(self, lease):
        if self._failures > 0:
            self._failures -= 1
            raise ShardError("transient storage blip")
        return self._inner.renew(lease)


def test_heartbeat_survives_transient_renew_errors(tmp_path):
    """Regression: a storage blip during one renewal must not abandon the
    manifest — the lease has ttl/3 slack, so the heartbeat retries."""
    clock = FakeClock()
    inner = fs_broker(tmp_path / "queue", lease_ttl=60.0, clock=clock)
    inner.submit(small_plan(shards=1))
    broker = FlakyRenewBroker(inner, failures=2)
    renewals = []

    def long_run(_manifest):
        clock.advance(100.0)
        wait_until(lambda: renewals)  # a renewal after the blips

    worker = ShardWorker(broker, StubExecutor(before=long_run),
                         worker_id="steady", poll=0, heartbeat=0.02,
                         on_renew=lambda lease, ok: renewals.append(ok))
    completed = worker.run()
    assert len(completed) == 1 and worker.abandoned == 0
    assert renewals and all(renewals)  # the blips never surfaced as losses
    assert inner.status().complete


def test_abandoned_manifests_count_toward_max_manifests(tmp_path):
    """Regression: --max-manifests bounds *executions*; an abandoned
    manifest must consume the budget, not extend it."""
    clock = FakeClock()
    broker = fs_broker(tmp_path / "queue", lease_ttl=60.0, clock=clock)
    broker.submit(small_plan(shards=2))
    renewals, thief = [], {}

    def stolen_mid_run(manifest):
        # A handle claims unclaimed shards before it reclaims expired ones:
        # the thief takes shard 1, then steals shard 0 once it expired.
        first = broker.lease("thief")
        clock.advance(61.0)
        thief.setdefault("leases", [first, broker.lease("thief")])
        wait_until(lambda: renewals)
        clock.advance(61.0)  # the thief's leases lapse too: work waits

    worker = ShardWorker(broker, StubExecutor(before=stolen_mid_run),
                         worker_id="capped", poll=0, heartbeat=0.02,
                         max_manifests=1,
                         on_renew=lambda lease, ok: renewals.append(ok))
    completed = worker.run()
    assert [lease.manifest.shard_index for lease in thief["leases"]] == [1, 0]
    # One execution happened (and was abandoned); the cap stops the worker
    # from taking the waiting shards even though it posted nothing.
    assert completed == [] and worker.abandoned == 1
    status = broker.status()
    assert status.done == 0 and status.queued == 2


# ----------------------------------------------------------------------
# persistent daemon workers and fair-share leasing
# ----------------------------------------------------------------------
def test_daemon_worker_survives_drain_and_serves_two_plans(tmp_path):
    """Acceptance: one --daemon worker, started before any plan exists,
    drains two sequentially submitted named plans without a restart; each
    per-plan collect is bit-identical to the serial run."""
    broker = fs_broker(tmp_path / "broker")
    worker = ShardWorker(broker, ManifestExecutor(), worker_id="resident",
                         poll=0.01, heartbeat=0, daemon=True)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()  # idles against an empty broker, no plan yet

    def plan_done(name):
        plan_stat = broker.status().plan(name)
        return plan_stat is not None and plan_stat.complete

    broker.submit(small_plan(shards=2, trials=1), name="alpha")
    wait_until(lambda: plan_done("alpha"), timeout=30.0)
    assert not worker.stopping  # drained alpha, still serving
    broker.submit(small_plan(shards=3, trials=2), name="beta")
    wait_until(lambda: plan_done("beta"), timeout=30.0)
    worker.stop()
    thread.join(timeout=10.0)
    assert not thread.is_alive() and worker.stopping
    assert set(worker.results_by_plan) == {"alpha", "beta"}
    assert len(worker.results_by_plan["alpha"]) == 2
    assert len(worker.results_by_plan["beta"]) == 3
    for name, trials in (("alpha", 1), ("beta", 2)):
        merged = merge_shard_results(broker.collect(name))
        reference = serial_reference(trials=trials)
        assert set(merged) == set(reference)
        for key in reference:
            assert [r.as_dict() for r in reference[key].results] \
                == [r.as_dict() for r in merged[key].results]


def test_daemon_worker_exits_after_max_idle_s():
    """A daemon with --max-idle-s shuts itself down after that much
    continuous idle time — and a drain resets the idle clock."""
    clock = FakeClock()
    broker = memory_broker(clock=clock)
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        clock.advance(seconds)
        if len(sleeps) == 3:  # work arrives mid-idle: the clock resets
            broker.submit(small_plan(shards=1), name="late")
        if len(sleeps) > 200:
            raise AssertionError("daemon never honoured max_idle_s")

    worker = ShardWorker(broker, StubExecutor(), worker_id="transient",
                         poll=0.5, heartbeat=0, daemon=True,
                         max_idle_s=30.0, clock=clock, sleep=fake_sleep)
    completed = worker.run()  # returns on its own: idle timeout, not stop()
    assert len(completed) == 1  # the late plan was picked up and drained
    assert broker.status().plan("late").complete
    assert not worker.stopping  # self-exit, nobody called stop()
    # It idled well past max_idle_s in total, but only left once the
    # *continuous* idle span after the drain exceeded 30s.
    assert sum(sleeps[3:]) >= 30.0


def test_daemon_requires_positive_poll(tmp_path):
    broker = fs_broker(tmp_path / "broker")
    with pytest.raises(ShardError, match="daemon worker requires poll > 0"):
        ShardWorker(broker, daemon=True, poll=0)
    with pytest.raises(ShardError, match="max_idle_s"):
        ShardWorker(broker, daemon=True, poll=1.0, max_idle_s=0)
    with pytest.raises(ShardError, match="max_idle_s"):
        ShardWorker(broker, daemon=True, poll=1.0,
                    max_idle_s=float("inf"))


def test_fair_share_prevents_starvation_by_a_huge_plan():
    """Satellite acceptance: a 1000-shard plan next to a 3-shard plan on
    one broker — fair-share interleaving leases the small plan's last
    shard within the first ``2 × plans`` lease rounds instead of queueing
    it behind a thousand big-plan shards."""
    broker = memory_broker()
    broker.submit(plan_shards(1000, seed=DEFAULT_SEED, trials=250,
                              setting_keys=SETTINGS, task_ids=TASKS),
                  name="big")
    broker.submit(small_plan(shards=3, trials=1), name="small")
    calls_until_small_fully_leased = None
    for call in range(1, 13):  # 2 plans x 3 small shards x safety margin
        lease = broker.lease(f"w{call % 4}")
        assert lease is not None
        if broker.status().plan("small").leased == 3:
            calls_until_small_fully_leased = call
            break
    assert calls_until_small_fully_leased is not None
    # Strict alternation means the small plan is fully leased by call 6;
    # the assertion leaves headroom but still forbids big-plan starvation.
    assert calls_until_small_fully_leased <= 12
    big_stat = broker.status().plan("big")
    assert big_stat.leased >= 3  # the big plan kept making progress too
