"""The three benchmark workloads.

Each workload is what a user of the DMI reproduction waits for:

* ``cold-model``   — the offline phase on an empty model cache: rip, decycle,
  externalize, build forest and core, persist, for the three hand-written
  apps plus one generated app.
* ``warm-grid``    — a warm ``repro run`` of the default grid (3 settings x
  27 tasks), models loaded from the artifact cache, trials run serially.
* ``broker-drain`` — one 81-shard plan submitted to a filesystem object
  store, drained by one worker, collected and merged.  The worker posts
  precomputed results, so only the queue and the store are measured.

A pass is one such operation, on the same inputs every time.  ``prepare``
builds what every pass needs (untimed); ``run_pass`` is the timed operation
and calls ``mark`` between the steps it is made of (model builds, trials,
shards), so the harness's ``StepClock`` can time each step against the
workload's reference ``kernel``; ``check_pass`` verifies the output
(untimed); ``setup_probe`` runs in a fresh interpreter and brings the
program to the point where the workload's first pass could start.

There is no process-pool workload: on the two shared vCPUs this benchmark
gets, two pool workers plus the parent measure the host's scheduler, and a
reference kernel in the parent cannot stand in for the workers' speed.
"""

from __future__ import annotations

import functools
import shutil
from pathlib import Path
from typing import Callable, Dict, List

from repro.apps import APP_FACTORIES, app_factory
from repro.apps.synthetic import SyntheticSpec
from repro.bench.runner import (
    CORE_SETTING_KEYS,
    BenchmarkConfig,
    BenchmarkRunner,
    setting_by_key,
)
from repro.bench.shard import ShardResults, merge_shard_results
from repro.bench.store import FileSystemObjectStore
from repro.bench.tasks import all_tasks
from repro.bench.transport import ObjectStoreBroker, ShardWorker
from repro.dmi.cache import ArtifactCache
from repro.dmi.interface import DMIConfig
from repro.ripping.ripper import GuiRipper
from repro.topology.persistence import ung_digest

from reference import FilesystemKernel, StepClock, cpu_kernel

HAND_APPS = tuple(APP_FACTORIES)
#: One trial per cell of the default grid: 3 settings x 27 tasks.
TRIALS = 1
#: One shard per trial.
BROKER_SHARDS = 81


def synthetic_app(seed: int) -> str:
    """A generated app of the default shape; only its names and layout vary."""
    return SyntheticSpec(seed=seed % 1_000_000).app_name


def _settings():
    return [setting_by_key(key) for key in CORE_SETTING_KEYS]


def _dump(outcomes) -> Dict[str, List[Dict[str, object]]]:
    return {key: [result.as_dict() for result in outcome.results]
            for key, outcome in outcomes.items()}


def _grid_errors(outcomes, reference) -> List[str]:
    """A grid pass must reproduce the in-memory serial run exactly."""
    if sorted(outcomes) != sorted(reference):
        return [f"settings {sorted(outcomes)} != {sorted(reference)}"]
    return [f"{key}: results differ from the in-memory serial run"
            for key, results in _dump(outcomes).items()
            if results != reference[key]]


def _serial_reference(seed: int):
    """Rip the hand-written apps in memory and run the grid serially."""
    runner = BenchmarkRunner(BenchmarkConfig(trials=TRIALS, seed=seed))
    outcomes = runner.run_settings(_settings())
    return runner, outcomes


class Workload:
    name = ""
    #: Operations in one pass (apps built, trials run, shards drained).
    items = 1

    def __init__(self, seed: int, work: Path, clock: StepClock) -> None:
        self.seed = seed
        self.work = work
        self.state = work / "state"
        self.state.mkdir(parents=True, exist_ok=True)
        #: Times the steps of the current pass.
        self.clock = clock

    def mark(self, *_event) -> None:
        self.clock.mark()

    @staticmethod
    def kernel(work: Path) -> Callable[[], object]:
        """The reference kernel the workload's steps are timed against."""
        return cpu_kernel

    def prepare(self) -> None:
        """Untimed: build the inputs every pass shares."""

    def run_pass(self, index: int):
        raise NotImplementedError

    def check_pass(self, index: int, output) -> List[str]:
        raise NotImplementedError

    @staticmethod
    def setup_probe(seed: int, state: Path) -> None:
        raise NotImplementedError


class ColdModel(Workload):
    name = "cold-model"
    items = len(HAND_APPS) + 1

    def __init__(self, seed: int, work: Path, clock: StepClock) -> None:
        super().__init__(seed, work, clock)
        self.apps = HAND_APPS + (synthetic_app(seed),)
        self.digests: Dict[str, str] = {}

    def prepare(self) -> None:
        # A build is one step of about a second: too long for the clock's
        # reference kernel to follow the host's speed.  GUI clicks end
        # steps too, at most every TICK_S.
        activate = getattr(GuiRipper, "_activate_and_diff", None)
        if activate is None:
            return
        tick = self.clock.tick

        @functools.wraps(activate)
        def ticking(ripper, *args, **kwargs):
            result = activate(ripper, *args, **kwargs)
            tick()
            return result

        GuiRipper._activate_and_diff = ticking

    @staticmethod
    def setup_probe(seed: int, state: Path) -> None:
        for name in HAND_APPS + (synthetic_app(seed),):
            app_factory(name)()

    def run_pass(self, index: int):
        cache = ArtifactCache(self.work / "models", DMIConfig())
        built = {}
        for name in self.apps:
            built[name] = cache.load_or_build(name)
            self.mark()
        return cache, built

    def check_pass(self, index: int, output) -> List[str]:
        cache, built = output
        errors = []
        if (cache.hits, cache.misses) != (0, len(self.apps)):
            errors.append(f"expected {len(self.apps)} cold builds, cache "
                          f"reports {cache.hits} hits / {cache.misses} misses")
        reloaded = ArtifactCache(cache.cache_dir, DMIConfig())
        for name, artifacts in built.items():
            digest = ung_digest(artifacts.ung)
            if self.digests.setdefault(name, digest) != digest:
                errors.append(f"{name}: model differs from the first pass's")
            if artifacts.forest.node_count() == 0 or not artifacts.core.visible_ids:
                errors.append(f"{name}: empty navigation forest or core")
            if index == 0:
                again = reloaded.get(name)
                if again is None or ung_digest(again.ung) != digest \
                        or again.core.serialize() != artifacts.core.serialize():
                    errors.append(f"{name}: cached model does not reload "
                                  "to the built one")
        shutil.rmtree(cache.cache_dir, ignore_errors=True)
        return errors


class WarmGrid(Workload):
    name = "warm-grid"
    items = len(CORE_SETTING_KEYS) * len(all_tasks()) * TRIALS

    def prepare(self) -> None:
        # Passes load the models back from the cache, so comparing them
        # with the in-memory run also checks the cache round trip.
        builder, outcomes = _serial_reference(self.seed)
        self.reference = _dump(outcomes)
        cache = ArtifactCache(self.state / "models", DMIConfig())
        for name, artifacts in builder.all_offline_artifacts().items():
            cache.store(name, artifacts)

    @staticmethod
    def setup_probe(seed: int, state: Path) -> None:
        runner = BenchmarkRunner(BenchmarkConfig(
            trials=TRIALS, seed=seed, cache_dir=state / "models"))
        runner.all_offline_artifacts()

    def run_pass(self, index: int):
        runner = BenchmarkRunner(BenchmarkConfig(
            trials=TRIALS, seed=self.seed, cache_dir=self.state / "models"))
        return runner, runner.run_settings(_settings(), progress=self.mark)

    def check_pass(self, index: int, output) -> List[str]:
        runner, outcomes = output
        errors = _grid_errors(outcomes, self.reference)
        if (runner.cache.hits, runner.cache.misses) != (len(HAND_APPS), 0):
            errors.append(f"expected {len(HAND_APPS)} warm model loads, cache "
                          f"reports {runner.cache.hits} hits / "
                          f"{runner.cache.misses} misses")
        return errors


class _PostPrecomputed:
    """A worker executor that returns each shard's already-known results."""

    def __init__(self, results: Dict[int, ShardResults], mark) -> None:
        self.results = results
        self.mark = mark

    def cache_stats(self):
        return None

    def run(self, manifest, progress=None) -> ShardResults:
        self.mark()
        return self.results[manifest.shard_index]


class BrokerDrain(Workload):
    name = "broker-drain"
    items = BROKER_SHARDS

    @staticmethod
    def kernel(work: Path) -> Callable[[], object]:
        return FilesystemKernel(work / "reference")

    def prepare(self) -> None:
        runner, outcomes = _serial_reference(self.seed)
        self.reference = _dump(outcomes)
        by_spec = {}
        for key in CORE_SETTING_KEYS:
            specs = runner.trial_specs([setting_by_key(key)])
            by_spec.update(zip(specs, outcomes[key].results))
        self.plan = runner.shard_plan(_settings(), BROKER_SHARDS)
        self.executor = _PostPrecomputed({
            manifest.shard_index: ShardResults(
                manifest=manifest,
                results=[by_spec[spec] for spec in manifest.specs])
            for manifest in self.plan.manifests}, self.mark)

    @staticmethod
    def setup_probe(seed: int, state: Path) -> None:
        runner = BenchmarkRunner(BenchmarkConfig(trials=TRIALS, seed=seed))
        runner.shard_plan(_settings(), BROKER_SHARDS)
        ObjectStoreBroker(FileSystemObjectStore(state / "probe-store"))
        shutil.rmtree(state / "probe-store", ignore_errors=True)

    def run_pass(self, index: int):
        # The same path every pass: a fresh name each pass made later passes
        # slower, by up to a fifth after thirty passes.
        store_dir = self.work / "store"
        broker = ObjectStoreBroker(FileSystemObjectStore(store_dir))
        broker.submit(self.plan)
        worker = ShardWorker(broker, self.executor,
                             worker_id="dmibench-worker", poll=0)
        posted = worker.run()
        self.mark()
        merged = merge_shard_results(broker.collect())
        return store_dir, broker, posted, merged

    def check_pass(self, index: int, output) -> List[str]:
        store_dir, broker, posted, merged = output
        errors = _grid_errors(merged, self.reference)
        status = broker.status()
        if len(posted) != BROKER_SHARDS or not status.complete:
            errors.append(f"worker posted {len(posted)} of {BROKER_SHARDS} "
                          f"shards; broker reports {status.render_line()}")
        shutil.rmtree(store_dir, ignore_errors=True)
        return errors


WORKLOADS = {cls.name: cls for cls in (ColdModel, WarmGrid, BrokerDrain)}
