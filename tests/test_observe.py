"""Tests for trace correlation and the cost of telemetry on the broker.

Trial trace ids are byte-identical across execution paths, a chaos run
yields one complete reconstructable trace per trial (retry spans
included), a store retry inside ``collect`` lands in every trial's
trace, and a live sink makes no store call the NullSink does not.
"""

import json
from collections import Counter

import pytest

from broker_contract import (
    ALL_BROKER_KINDS,
    DEFAULT_SEED,
    SETTINGS,
    TASKS,
    MemoizedExecutor,
    make_chaos_broker,
    make_store,
    run_manifest,
    small_plan,
)
from repro.bench.engine import TrialSpec, trial_seed
from repro.bench.observe.trace import (
    build_trace,
    current,
    manifest_trace_id,
    plan_context,
    plan_trace_id,
    render_trace,
    span_id_for,
    trial_trace_id,
)
from repro.bench.runner import (
    BenchmarkConfig,
    BenchmarkRunner,
    setting_by_key,
)
from repro.bench.shard import ManifestExecutor, plan_shards
from repro.bench.tasks import task_by_id
from repro.bench.telemetry import (
    NULL_SINK,
    AggregatingSink,
    JsonlSink,
    read_jsonl_events,
    use_sink,
)
from repro.bench.store import (
    FileSystemObjectStore,
    InMemoryObjectStore,
    ObjectStore,
    RetryBudgetExceeded,
    RetryPolicy,
    TransientStoreError,
)
from repro.bench.transport import DEFAULT_PLAN, ObjectStoreBroker, ShardWorker
from repro.cli import main

#: A deliberately small grid: trace identity is about *which* trial, not
#: how many, so two tasks under one setting keep these runs quick.
GRID_TASKS = TASKS[:2]
GRID_SETTINGS = SETTINGS[:1]


def grid_specs(seed=DEFAULT_SEED, trials=1):
    return [TrialSpec(task_id=task_id, setting_key=setting_key, trial=trial,
                      seed=trial_seed(seed, task_id, setting_key, trial))
            for task_id in GRID_TASKS
            for setting_key in GRID_SETTINGS
            for trial in range(trials)]


def grid_plan(shards=2, seed=DEFAULT_SEED, trials=1):
    return plan_shards(shards, seed=seed, trials=trials,
                       setting_keys=GRID_SETTINGS, task_ids=GRID_TASKS)


def run_serial(path, seed=DEFAULT_SEED):
    runner = BenchmarkRunner(BenchmarkConfig(
        trials=1, seed=seed,
        tasks=[task_by_id(task_id) for task_id in GRID_TASKS]))
    sink = JsonlSink(path)
    try:
        with use_sink(sink):
            runner.run_settings([setting_by_key(key)
                                 for key in GRID_SETTINGS])
    finally:
        sink.close()
    return read_jsonl_events(path)


def trial_events(events, name="trial_finished"):
    return [event for event in events if event.get("event") == name]


# ----------------------------------------------------------------------
# trace id derivation
# ----------------------------------------------------------------------
def test_trace_ids_are_deterministic_and_derived_from_identity():
    spec = grid_specs()[0]
    tid = trial_trace_id(spec)
    assert len(tid) == 16 and int(tid, 16) >= 0
    assert trial_trace_id(spec) == tid
    other = TrialSpec(task_id=spec.task_id, setting_key=spec.setting_key,
                      trial=spec.trial + 1,
                      seed=trial_seed(DEFAULT_SEED, spec.task_id,
                                      spec.setting_key, spec.trial + 1))
    assert trial_trace_id(other) != tid
    assert spec.trace_id == tid  # TrialSpec exposes it as a property

    plan = grid_plan(shards=2)
    first, second = plan.manifests[0], plan.manifests[1]
    assert manifest_trace_id(first) != manifest_trace_id(second)
    assert first.trace_id == manifest_trace_id(first)
    # Plan ids fold the broker-side *name* in, so two tenants submitting
    # the same grid under different names stay distinguishable.
    identity = first.plan_identity()
    assert plan_trace_id("nightly", identity) \
        != plan_trace_id("canary", identity)
    # ...but every manifest of one plan derives the same plan id.
    assert plan_trace_id("nightly", identity) \
        == plan_trace_id("nightly", second.plan_identity())
    assert span_id_for(tid, "trial") == span_id_for(tid, "trial")
    assert span_id_for(tid, "trial") != span_id_for(tid, "lease")


def test_serial_and_broker_paths_agree_on_trial_trace_ids(tmp_path):
    """Tentpole acceptance: the same trial carries the same trace id
    whether it ran serially in-process or off a broker in a worker."""
    serial = trial_events(run_serial(tmp_path / "serial.jsonl"))
    broker = ObjectStoreBroker(FileSystemObjectStore(tmp_path / "queue"))
    worker_log = tmp_path / "worker.jsonl"
    sink = JsonlSink(worker_log)
    try:
        with use_sink(sink):
            broker.submit(grid_plan(shards=2))
            ShardWorker(broker, ManifestExecutor(),
                        worker_id="trace-parity", poll=0,
                        heartbeat=0).run()
            broker.collect()
    finally:
        sink.close()
    distributed = trial_events(read_jsonl_events(worker_log))

    expected = {spec.trace_id for spec in grid_specs()}
    assert {event["trace_id"] for event in serial} == expected
    assert {event["trace_id"] for event in distributed} == expected
    # Span ids agree too: the trial root span is derived, not random.
    by_trace = {event["trace_id"]: event["span_id"] for event in serial}
    for event in distributed:
        assert event["span_id"] == by_trace[event["trace_id"]]
    # The broker-path trial is parented to its worker's lease span; the
    # serial trial has no ambient parent.  Same trace, different journey.
    assert all(event["parent_span_id"] for event in distributed)
    assert not any(event.get("parent_span_id") for event in serial)


# ----------------------------------------------------------------------
# chaos completeness: one full trace per trial, retries included
# ----------------------------------------------------------------------
def test_chaos_run_yields_one_complete_trace_per_trial(tmp_path):
    """Acceptance: under a seeded hostile fault schedule, every trial's
    journey — submit, lease, execute, post, collect, retries — comes back
    out of the merged JSONL as one linked trace."""
    log = tmp_path / "chaos.jsonl"
    sink = JsonlSink(log)
    try:
        with use_sink(sink):
            broker = make_chaos_broker("store-fs", tmp_path)
            broker.submit(grid_plan(shards=2))
            ShardWorker(broker, ManifestExecutor(), worker_id="chaos-w",
                        poll=0, heartbeat=0).run()
            broker.collect()
    finally:
        sink.close()
    events = read_jsonl_events(log)
    # The storm actually rained: bounded retries fired and were traced.
    retries = [event for event in events
               if event.get("event") == "store_retry"]
    assert retries, "hostile schedule produced no store retries"
    assert any(event.get("trace_id") for event in retries)

    specs = grid_specs()
    for spec in specs:
        trace = build_trace(events, spec.trace_id)
        names = trace.event_names()
        assert {"plan_submitted", "lease_acquired", "trial_started",
                "trial_finished", "shard_posted",
                "shard_collected"} <= names, \
            f"incomplete trace for {spec.task_id}: {sorted(names)}"
        # The closure spans three traces: trial, its shard, its plan.
        assert len(trace.trace_ids) == 3
        # Sibling trials link *into* shared shard/plan traces but are not
        # linked *from* them: the other trial stays out of this timeline.
        finished = trial_events(trace.events)
        assert {event["task_id"] for event in finished} == {spec.task_id}
        rendered = render_trace(trace)
        assert f"trace {spec.trace_id}" in rendered
        assert "trial_finished" in rendered


# ----------------------------------------------------------------------
# store-call accounting: collect's retries traced, a live sink costs no I/O
# ----------------------------------------------------------------------
class ForwardingStore(ObjectStore):
    """Forwards every call to ``inner``, calling :meth:`before` first."""

    def __init__(self, inner):
        self.inner = inner

    def before(self, op, key):
        pass

    def put_if_absent(self, key, data):
        self.before("put_if_absent", key)
        return self.inner.put_if_absent(key, data)

    def put_if_match(self, key, data, etag):
        self.before("put_if_match", key)
        return self.inner.put_if_match(key, data, etag)

    def get(self, key):
        self.before("get", key)
        return self.inner.get(key)

    def list_prefix(self, prefix):
        self.before("list_prefix", prefix)
        return self.inner.list_prefix(prefix)

    def delete(self, key):
        self.before("delete", key)
        return self.inner.delete(key)

    def describe(self):
        return self.inner.describe()


class CountingStore(ForwardingStore):
    """Counts the calls made to the store, per op."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = Counter()

    def before(self, op, key):
        self.calls[op] += 1


class FlakyResultReads(ForwardingStore):
    """Once armed, fails the first ``get`` of every result object."""

    def __init__(self, inner):
        super().__init__(inner)
        self.armed = False
        self.failed = set()

    def before(self, op, key):
        if self.armed and op == "get" \
                and key.startswith(ObjectStoreBroker.RESULT_PREFIX) \
                and key not in self.failed:
            self.failed.add(key)
            raise TransientStoreError(f"injected fault on {key!r}")


def test_a_retried_result_read_in_collect_joins_every_trial_trace(
        tmp_path):
    """collect reads under a ``collect`` span of the plan trace, so a
    retry it absorbs shows in each trial's reconstructed timeline."""
    store = FlakyResultReads(InMemoryObjectStore())
    broker = ObjectStoreBroker(store, retry=RetryPolicy(
        backoff_base_s=0.0, sleep=lambda _delay: None))
    plan = grid_plan(shards=2)
    log = tmp_path / "events.jsonl"
    sink = JsonlSink(log)
    try:
        with use_sink(sink):
            broker.submit(plan)
            ShardWorker(broker, ManifestExecutor(), worker_id="w", poll=0,
                        heartbeat=0).run()
            store.armed = True
            assert len(broker.collect()) == 2
    finally:
        sink.close()
    events = read_jsonl_events(log)
    retries = [event for event in events
               if event.get("event") == "store_retry"]
    assert [event["op"] for event in retries] == ["get", "get"]
    collect = plan_context(DEFAULT_PLAN,
                           plan.manifests[0].plan_identity()).child("collect")
    assert {(event.get("trace_id"), event.get("parent_span_id"))
            for event in retries} == {(collect.trace_id, collect.span_id)}
    for spec in grid_specs():
        trace = build_trace(events, spec.trace_id)
        assert [event["event"] for event in trace.events
                if event["event"] == "store_retry"] == ["store_retry"] * 2


def test_a_failed_collect_leaves_no_span_pushed():
    """A result read that exhausts its retry budget propagates out of
    collect without leaving the ``collect`` span on the thread's stack."""
    store = FlakyResultReads(InMemoryObjectStore())
    broker = ObjectStoreBroker(store, retry=RetryPolicy(
        attempts=1, backoff_base_s=0.0, sleep=lambda _delay: None))
    with use_sink(AggregatingSink()) as sink:
        broker.submit(grid_plan(shards=2))
        ShardWorker(broker, ManifestExecutor(), worker_id="w", poll=0,
                    heartbeat=0).run()
        store.armed = True
        # Each result object fails its first read: one failed collect each.
        for _ in range(2):
            with pytest.raises(RetryBudgetExceeded):
                broker.collect()
            assert current() is None
        assert len(broker.collect()) == 2
        assert current() is None
    assert sink.count("shard_collected") == 2


#: The store ops that write.
WRITE_OPS = ("put_if_absent", "put_if_match", "delete")


@pytest.mark.parametrize("kind", ALL_BROKER_KINDS)
def test_a_drain_writes_a_claim_and_a_result_per_shard(kind, tmp_path):
    """Submit is one write; a one-worker drain makes at most two writes
    and four store calls per shard; collect lists the results once and
    reads each."""
    shards = 6
    store = CountingStore(make_store(kind, tmp_path))
    broker = ObjectStoreBroker(store)

    def calls(verb):
        before = Counter(store.calls)
        verb()
        return Counter(store.calls) - before

    assert calls(lambda: broker.submit(small_plan(shards=shards))) \
        == Counter(put_if_absent=1)
    drain = calls(ShardWorker(broker, MemoizedExecutor(), worker_id="w",
                              poll=0, heartbeat=0).run)
    assert sum(drain[op] for op in WRITE_OPS) <= 2 * shards, drain
    assert sum(drain.values()) <= 4 * shards, drain
    assert calls(broker.collect) == Counter(list_prefix=1, get=shards)


@pytest.mark.parametrize("workers", (2, 4))
@pytest.mark.parametrize("kind", ALL_BROKER_KINDS)
def test_racing_workers_lose_at_most_one_claim_per_lease(kind, workers,
                                                         tmp_path):
    """Handles that lease in lockstep, each behind the claims of all its
    peers, still write a claim and a result per shard plus at most one
    lost claim per lease (and one more per handle as the plan runs out)."""
    shards = 6
    store = CountingStore(make_store(kind, tmp_path))
    ObjectStoreBroker(store).submit(small_plan(shards=shards))
    store.calls.clear()
    brokers = [ObjectStoreBroker(store) for _ in range(workers)]
    posted = 0
    while True:
        held = [(broker, broker.lease(f"w{index}"))
                for index, broker in enumerate(brokers)]
        held = [(broker, lease) for broker, lease in held
                if lease is not None]
        if not held:
            break
        for broker, lease in held:
            assert broker.post(lease, run_manifest(lease.manifest))
            posted += 1
    assert posted == shards
    assert set(store.calls) <= {"put_if_absent", "list_prefix", "get"}
    assert store.calls["put_if_absent"] <= 3 * shards + workers, store.calls


@pytest.mark.parametrize("kind", ALL_BROKER_KINDS)
def test_a_live_sink_adds_no_store_calls(kind, tmp_path):
    """Draining and collecting a plan makes the same store calls, op by
    op, whether telemetry is off or a sink is listening."""
    calls = {}
    for label, sink in (("off", NULL_SINK), ("on", AggregatingSink())):
        store = CountingStore(make_store(kind, tmp_path / label))
        broker = ObjectStoreBroker(store)
        with use_sink(sink):
            broker.submit(small_plan(shards=6))
            ShardWorker(broker, MemoizedExecutor(), worker_id="w", poll=0,
                        heartbeat=0).run()
            assert len(broker.collect()) == 6
        calls[label] = dict(store.calls)
    assert calls["on"] == calls["off"]


@pytest.mark.parametrize("kind", ALL_BROKER_KINDS)
def test_a_live_sink_adds_no_store_calls_to_an_idle_daemon(kind, tmp_path):
    """A daemon that drains a plan and then idles to its ``max_idle_s``
    makes the same store calls, op by op, with telemetry off or on."""
    calls = {}
    for label, sink in (("off", NULL_SINK), ("on", AggregatingSink())):
        store = CountingStore(make_store(kind, tmp_path / label))
        broker = ObjectStoreBroker(store)
        now = [0.0]

        def sleep(delay):
            now[0] += delay

        with use_sink(sink):
            broker.submit(small_plan(shards=2))
            ShardWorker(broker, MemoizedExecutor(), worker_id="d", poll=1.0,
                        heartbeat=0, daemon=True, max_idle_s=2.0,
                        sleep=sleep, clock=lambda: now[0]).run()
        calls[label] = dict(store.calls)
        if sink:
            assert sink.count("worker_idle") > 0
    assert calls["on"] == calls["off"]


# ----------------------------------------------------------------------
# CLI: trace
# ----------------------------------------------------------------------
def test_trace_cli_id_show_and_export(tmp_path, capsys):
    spec = grid_specs()[0]
    assert main(["trace", "id", "--task", spec.task_id,
                 "--setting", spec.setting_key]) == 0
    assert capsys.readouterr().out.strip() == spec.trace_id

    log = tmp_path / "serial.jsonl"
    run_serial(log)
    assert main(["trace", "show", spec.trace_id,
                 "--events", str(log)]) == 0
    shown = capsys.readouterr().out
    assert f"trace {spec.trace_id}" in shown
    assert "trial_started" in shown and "trial_finished" in shown

    out = tmp_path / "trace.json"
    assert main(["trace", "export", spec.trace_id, "--events", str(log),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    exported = json.loads(out.read_text(encoding="utf-8"))
    assert exported["trace_id"] == spec.trace_id
    assert {event["event"] for event in exported["events"]} \
        == {"trial_started", "trial_finished"}

    # An id nothing emitted: rendered as empty, exit code 1.
    assert main(["trace", "show", "f" * 16, "--events", str(log)]) == 1
    assert "no events found" in capsys.readouterr().out
