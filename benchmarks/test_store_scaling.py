"""Broker micro-benchmark: submit → worker drain → collect vs serial.

Companion to ``test_shard_scaling.py`` for the broker queue: the same fixed
grid is executed once by the SerialExecutor directly and once through the
full pipeline — :meth:`~repro.bench.transport.ObjectStoreBroker.submit`
over a :class:`~repro.bench.store.FileSystemObjectStore`, one
:class:`~repro.bench.transport.ShardWorker` pull loop (with its default
heartbeat thread renewing leases in the background) over a warm artifact
cache, then ``collect`` + :func:`~repro.bench.shard.merge_shard_results`.

Only correctness is asserted (the collected merge is bit-identical to
serial); the recorded ``store_overhead_seconds`` is the price of CAS
bookkeeping — plan/manifest/lease objects, compare-and-swap leases and
renewals, results puts and re-reads — on *one* machine, i.e. the fixed
cost a real deployment pays to buy crash-tolerant N-machine scale-out.
"""

from __future__ import annotations

import time

from repro.bench.metrics import aggregate
from repro.bench.runner import BenchmarkConfig, BenchmarkRunner, setting_by_key
from repro.bench.shard import ManifestExecutor, merge_shard_results
from repro.bench.store import FileSystemObjectStore
from repro.bench.tasks import tasks_for_app
from repro.bench.transport import ObjectStoreBroker, ShardWorker

SHARDS = 3
TRIALS = 2
SETTING_KEYS = ("gui-gpt5-medium", "dmi-gpt5-medium")


def test_object_store_pipeline_overhead_vs_serial(benchmark, tmp_path_factory):
    tasks = tasks_for_app("powerpoint")
    settings = [setting_by_key(key) for key in SETTING_KEYS]
    cache_dir = tmp_path_factory.mktemp("store-cache")

    serial = BenchmarkRunner(BenchmarkConfig(trials=TRIALS, tasks=tasks,
                                             cache_dir=cache_dir))
    # Untimed warm-up so both paths start from a warm cache.
    serial.offline_artifacts("powerpoint")

    started = time.perf_counter()
    out_serial = serial.run_settings(settings)
    serial_seconds = time.perf_counter() - started

    plan = serial.shard_plan(settings, SHARDS)

    def run_pipeline():
        store = FileSystemObjectStore(tmp_path_factory.mktemp("objstore"))
        broker = ObjectStoreBroker(store)
        broker.submit(plan)
        worker = ShardWorker(broker, ManifestExecutor(cache_dir=cache_dir),
                             worker_id="bench-worker", poll=0)
        worker.run()
        return merge_shard_results(broker.collect())

    merged = benchmark.pedantic(run_pipeline, rounds=1, iterations=1)
    store_seconds = benchmark.stats.stats.mean

    benchmark.extra_info.update({
        "trials_in_grid": len(tasks) * len(settings) * TRIALS,
        "shards": SHARDS,
        "serial_seconds": round(serial_seconds, 3),
        "store_seconds": round(store_seconds, 3),
        "store_overhead_seconds": round(store_seconds - serial_seconds, 3),
    })

    for key in out_serial:
        assert ([r.as_dict() for r in out_serial[key].results]
                == [r.as_dict() for r in merged[key].results])
        assert (aggregate(out_serial[key].results).as_dict()
                == aggregate(merged[key].results).as_dict())
