"""The benchmark runner.

Executes the task suite under the (interface × model × knowledge)
configurations of the paper's Table 3, with the paper's protocol: each task
is capped at 30 steps and run three times, results are averaged, and the
offline navigation model is built once per application and reused across
trials (it is version-specific but machine-independent).

Execution is delegated to the engine (:mod:`repro.bench.engine`): the runner
expands the evaluation grid into deterministic :class:`~repro.bench.engine.TrialSpec`
work units and hands them to a :class:`~repro.bench.engine.SerialExecutor`
(``jobs = 1``) or a process-pool :class:`~repro.bench.engine.ParallelExecutor`
(``jobs > 1``); both yield identical aggregate results for a fixed seed.
With ``cache_dir`` set, offline models are loaded from the content-addressed
:class:`~repro.dmi.cache.ArtifactCache` instead of re-ripping the GUI.

Applications are reused across trials the same way: a runner builds each app
once, snapshots it as built (:meth:`~repro.apps.base.Application.snapshot`)
and restores that snapshot in place at the start of every trial, so every
trial starts from a fresh build's state, even after a trial that raised.
The serial, ``--jobs``, shard and broker paths all run trials through
:meth:`BenchmarkRunner.run_spec`, so each worker process builds each app
once too.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.agent.host_agent import HostAgent
from repro.agent.session import InterfaceSetting, SessionResult
from repro.apps import APP_FACTORIES, Application, app_factory
from repro.apps.snapshot import AppSnapshot
from repro.bench.engine import (
    Executor,
    ParallelExecutor,
    ProgressCallback,
    SerialExecutor,
    TrialSpec,
    expand_trial_specs,
    trial_seed,
)
from repro.bench import telemetry
from repro.bench.observe import trace as tracectx
from repro.bench.tasks import all_tasks, task_by_id
from repro.bench.telemetry import TrialFinished, TrialStarted, phases_from_result
from repro.dmi.cache import ArtifactCache
from repro.dmi.interface import DMI, DMIConfig, OfflineArtifacts, build_offline_artifacts
from repro.llm.profiles import GPT5_MEDIUM, GPT5_MINI, GPT5_MINIMAL, ModelProfile
from repro.spec import TaskSpec

#: The canonical benchmark seed.  The paper's protocol fixes one seed for the
#: whole evaluation; 11 is used everywhere (library default, CLI default and
#: the benchmark harness, which historically disagreed: the library defaulted
#: to 7 while the CLI and harness used 11) so that numbers quoted from any
#: entry point agree.  All reported figures were generated under seed 11.
DEFAULT_SEED = 11


@dataclass(frozen=True)
class EvaluationSetting:
    """One row of the paper's Table 3."""

    key: str
    interface: InterfaceSetting
    profile: ModelProfile
    #: "/" (none) or "Nav.forest", mirroring the paper's Knowledge column.
    knowledge: str = "/"

    @property
    def label(self) -> str:
        return (f"{self.interface.value} | {self.knowledge} | "
                f"{self.profile.name} ({self.profile.reasoning})")


#: The eight configurations reported in Table 3.
TABLE3_SETTINGS: List[EvaluationSetting] = [
    EvaluationSetting("gui-gpt5-medium", InterfaceSetting.GUI_ONLY, GPT5_MEDIUM, "/"),
    EvaluationSetting("forest-gpt5-medium", InterfaceSetting.GUI_PLUS_FOREST, GPT5_MEDIUM,
                      "Nav.forest"),
    EvaluationSetting("dmi-gpt5-medium", InterfaceSetting.GUI_PLUS_DMI, GPT5_MEDIUM,
                      "Nav.forest"),
    EvaluationSetting("gui-gpt5-minimal", InterfaceSetting.GUI_ONLY, GPT5_MINIMAL, "/"),
    EvaluationSetting("dmi-gpt5-minimal", InterfaceSetting.GUI_PLUS_DMI, GPT5_MINIMAL,
                      "Nav.forest"),
    EvaluationSetting("gui-gpt5-mini", InterfaceSetting.GUI_ONLY, GPT5_MINI, "/"),
    EvaluationSetting("forest-gpt5-mini", InterfaceSetting.GUI_PLUS_FOREST, GPT5_MINI,
                      "Nav.forest"),
    EvaluationSetting("dmi-gpt5-mini", InterfaceSetting.GUI_PLUS_DMI, GPT5_MINI, "Nav.forest"),
]

#: The three core-comparison settings used by Figures 5 and 6.
CORE_SETTING_KEYS = ("gui-gpt5-medium", "forest-gpt5-medium", "dmi-gpt5-medium")


@dataclass
class BenchmarkConfig:
    """Runner configuration (defaults follow the paper's protocol)."""

    trials: int = 3
    seed: int = DEFAULT_SEED
    dmi: DMIConfig = field(default_factory=DMIConfig)
    #: Restrict to a subset of tasks (None = the full 27-task suite).
    tasks: Optional[Sequence[TaskSpec]] = None
    #: Worker processes; > 1 selects the process-pool executor.
    jobs: int = 1
    #: Directory for the offline-model cache (None = rip in-process).
    cache_dir: Optional[Union[str, Path]] = None
    #: LRU bound on the cache directory (None = unbounded); see
    #: :class:`~repro.dmi.cache.ArtifactCache`.
    cache_max_entries: Optional[int] = None


@dataclass
class RunOutcome:
    """All trial results for one evaluation setting."""

    setting: EvaluationSetting
    results: List[SessionResult] = field(default_factory=list)

    def by_task(self) -> Dict[str, List[SessionResult]]:
        grouped: Dict[str, List[SessionResult]] = {}
        for result in self.results:
            grouped.setdefault(result.task_id, []).append(result)
        return grouped

    def solved_task_ids(self) -> set:
        """Tasks solved at least once under this setting."""
        return {task_id for task_id, runs in self.by_task().items()
                if any(r.success for r in runs)}


class BenchmarkRunner:
    """Runs tasks under evaluation settings, reusing offline artefacts and
    one restored instance of each application."""

    def __init__(self, config: Optional[BenchmarkConfig] = None) -> None:
        self.config = config or BenchmarkConfig()
        self._artifacts: Dict[str, OfflineArtifacts] = {}
        self._apps: Dict[str, Tuple[Application, AppSnapshot]] = {}
        self._settings: Dict[str, EvaluationSetting] = {}
        self._tasks: Dict[str, TaskSpec] = {}
        self.cache: Optional[ArtifactCache] = (
            ArtifactCache(self.config.cache_dir, self.config.dmi,
                          max_entries=self.config.cache_max_entries)
            if self.config.cache_dir is not None else None)

    # ------------------------------------------------------------------
    # offline phase (shared across settings and trials)
    # ------------------------------------------------------------------
    def offline_artifacts(self, app_name: str) -> OfflineArtifacts:
        """Build (or load from cache) the offline model for one application.

        A build rips a scratch instance, born in an epoch no snapshot owns,
        so its writes save nothing (:mod:`repro.uia.writes`)."""
        if app_name not in self._artifacts:
            if self.cache is not None:
                self._artifacts[app_name] = self.cache.load_or_build(app_name)
            else:
                scratch = app_factory(app_name)()
                self._artifacts[app_name] = build_offline_artifacts(
                    scratch, self.config.dmi)
        return self._artifacts[app_name]

    def _restored_app(self, app_name: str) -> Application:
        """This runner's one instance of ``app_name``, in its as-built state.

        The first call builds the application and snapshots it; every call
        restores that snapshot in place, so a trial starts from the state a
        fresh build would have even if the previous trial raised midway.
        """
        entry = self._apps.get(app_name)
        if entry is None:
            app = app_factory(app_name)()
            entry = self._apps[app_name] = (app, app.snapshot())
        app, as_built = entry
        app.restore(as_built)
        return app

    def all_offline_artifacts(self) -> Dict[str, OfflineArtifacts]:
        """Models for the hand-written apps (generated apps build on demand)."""
        return {name: self.offline_artifacts(name) for name in APP_FACTORIES}

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def tasks(self) -> List[TaskSpec]:
        return list(self.config.tasks) if self.config.tasks is not None else all_tasks()

    def trial_specs(self, settings: Sequence[EvaluationSetting],
                    tasks: Optional[Sequence[TaskSpec]] = None) -> List[TrialSpec]:
        """Expand settings × tasks × trials into deterministic work units."""
        self._register_settings(settings)
        task_list = list(tasks) if tasks is not None else self.tasks()
        self._register_tasks(task_list)
        return expand_trial_specs(self.config.seed, self.config.trials,
                                  [setting.key for setting in settings],
                                  [task.task_id for task in task_list])

    def executor(self) -> Executor:
        """The executor selected by ``config.jobs``."""
        if self.config.jobs > 1:
            return ParallelExecutor(self.config.jobs)
        return SerialExecutor()

    # ------------------------------------------------------------------
    # online phase
    # ------------------------------------------------------------------
    def run_spec(self, spec: TrialSpec) -> SessionResult:
        """Run the single work unit described by ``spec``.

        The trial gets this runner's instance of its app, restored to the
        as-built state (see :meth:`_restored_app`).

        Instrumented: emits :class:`~repro.bench.telemetry.TrialStarted` /
        :class:`~repro.bench.telemetry.TrialFinished` (with the measured
        rip/build and simulated plan/act phase breakdown: ``rip`` loads or
        builds the offline model, ``build`` restores the app and sets up
        the agents) to the process-wide sink.  With the default
        :class:`~repro.bench.telemetry.NullSink` even the ``perf_counter``
        reads are skipped, so the hot path pays only the truthiness checks.
        """
        sink = telemetry.default_sink()
        measuring = bool(sink)
        ctx = None
        if measuring:
            # The trial's root span: deterministic trace id, parented to
            # the ambient span (a worker's lease span in broker runs, or
            # nothing in plain serial runs).  The context stays pushed for
            # the duration of the trial so nested cache/store events
            # attach as its children.
            ctx = tracectx.trial_context(spec, tracectx.current())
            tracectx.push(ctx)
            sink.emit(ctx.attach(TrialStarted(task_id=spec.task_id,
                                              setting_key=spec.setting_key,
                                              trial=spec.trial)))
            started = time.perf_counter()
        try:
            task = self._resolve_task(spec.task_id)
            setting = self._resolve_setting(spec.setting_key)
            rng = random.Random(spec.seed)
            rip_started = time.perf_counter() if measuring else 0.0
            artifacts = self.offline_artifacts(task.app)
            build_started = time.perf_counter() if measuring else 0.0
            app = self._restored_app(task.app)
            profile = setting.profile
            if setting.knowledge == "Nav.forest" and not setting.interface.uses_dmi:
                # The ablation provides the forest as prose knowledge only.
                profile = profile.with_knowledge(True)
            host = HostAgent(profile, setting.interface, rng=rng)
            dmi = DMI(app, artifacts, self.config.dmi) if setting.interface.uses_dmi else None
            act_started = time.perf_counter() if measuring else 0.0
            result = host.run_task(task, app, artifacts.forest, core=artifacts.core, dmi=dmi)
            if measuring:
                finished = time.perf_counter()
                sink.emit(ctx.attach(TrialFinished(
                    task_id=spec.task_id, setting_key=spec.setting_key,
                    trial=spec.trial, success=result.success,
                    seconds=finished - started, wall_s=result.wall_time_s,
                    phases=phases_from_result(
                        result, rip_s=build_started - rip_started,
                        build_s=act_started - build_started)),
                    duration_s=finished - started))
        finally:
            if ctx is not None:
                tracectx.pop(ctx)
        return result

    def run_trial(self, task: TaskSpec, setting: EvaluationSetting, trial: int) -> SessionResult:
        """Run one trial of one task under one setting."""
        self._register_settings([setting])
        self._register_tasks([task])
        return self.run_spec(TrialSpec(
            task_id=task.task_id, setting_key=setting.key, trial=trial,
            seed=self._trial_seed(task, setting, trial)))

    def run_setting(self, setting: EvaluationSetting,
                    tasks: Optional[Sequence[TaskSpec]] = None,
                    progress: Optional[ProgressCallback] = None) -> RunOutcome:
        """Run every task x trial combination for one setting."""
        return self.run_settings([setting], tasks, progress=progress)[setting.key]

    def run_settings(self, settings: Sequence[EvaluationSetting],
                     tasks: Optional[Sequence[TaskSpec]] = None,
                     executor: Optional[Executor] = None,
                     progress: Optional[ProgressCallback] = None) -> Dict[str, RunOutcome]:
        """Run the full grid for ``settings`` on the configured executor."""
        # Dedupe by key (keeping the last entry, matching the historical
        # dict-overwrite semantics) so repeated keys don't double-run trials
        # or double-append results into one outcome.
        settings = list({setting.key: setting for setting in settings}.values())
        specs = self.trial_specs(settings, tasks)
        executor = executor if executor is not None else self.executor()
        results = executor.run(self, specs, progress=progress)
        outcomes = {setting.key: RunOutcome(setting=setting) for setting in settings}
        for spec, result in zip(specs, results):
            outcomes[spec.setting_key].results.append(result)
        return outcomes

    def run_table3(self, tasks: Optional[Sequence[TaskSpec]] = None,
                   progress: Optional[ProgressCallback] = None) -> Dict[str, RunOutcome]:
        """Run all eight Table 3 configurations."""
        return self.run_settings(TABLE3_SETTINGS, tasks, progress=progress)

    def shard_plan(self, settings: Sequence[EvaluationSetting], shards: int,
                   tasks: Optional[Sequence[TaskSpec]] = None):
        """Partition this runner's grid into ``shards`` exportable manifests.

        The manifests embed the runner's seed, trial count and DMI config
        fingerprint; run them anywhere with
        :class:`repro.bench.shard.ManifestExecutor` and recombine with
        :func:`repro.bench.shard.merge_shard_results` — the merged outcome
        is bit-identical to :meth:`run_settings` on this runner.
        """
        from repro.bench.shard import plan_shards

        settings = list({setting.key: setting for setting in settings}.values())
        task_list = list(tasks) if tasks is not None else self.tasks()
        return plan_shards(shards, seed=self.config.seed,
                           trials=self.config.trials,
                           setting_keys=[setting.key for setting in settings],
                           task_ids=[task.task_id for task in task_list],
                           dmi_config=self.config.dmi)

    # ------------------------------------------------------------------
    def _register_settings(self, settings: Sequence[EvaluationSetting]) -> None:
        for setting in settings:
            self._settings[setting.key] = setting

    def _register_tasks(self, tasks: Sequence[TaskSpec]) -> None:
        for task in tasks:
            self._tasks[task.task_id] = task

    def _resolve_setting(self, key: str) -> EvaluationSetting:
        if key in self._settings:
            return self._settings[key]
        return setting_by_key(key)

    def _resolve_task(self, task_id: str) -> TaskSpec:
        """Caller-supplied task objects win over the global registry."""
        if task_id in self._tasks:
            return self._tasks[task_id]
        for task in (self.config.tasks or ()):
            if task.task_id == task_id:
                return task
        return task_by_id(task_id)

    def _trial_seed(self, task: TaskSpec, setting: EvaluationSetting, trial: int) -> int:
        return trial_seed(self.config.seed, task.task_id, setting.key, trial)


def setting_by_key(key: str) -> EvaluationSetting:
    for setting in TABLE3_SETTINGS:
        if setting.key == key:
            return setting
    raise KeyError(f"unknown evaluation setting {key!r}")
