"""The persistent run registry: one :class:`RunRecord` per measured run.

Telemetry (:mod:`repro.bench.telemetry`) answers "where did the time go in
*this* process"; the registry answers "how does this run compare to every
run before it".  A :class:`RunRecord` is the durable summary of one
benchmark execution — which grid, which execution path, how long, and the
aggregate counters/timers/metrics — written atomically as one JSON file in
a :class:`RunRegistry` directory.  ``repro run``, ``repro shard run`` and
``repro shard work``/``collect`` all populate it when ``--registry DIR``
(or the ``REPRO_REGISTRY`` environment variable) is set, and the
``repro runs`` CLI (list / show / diff / export) reads it back.

A record's :attr:`~RunRecord.config_key` fingerprints the *grid identity*
(seed, trials, setting keys, task ids, DMI config fingerprint) and
deliberately excludes the execution path, so two records are comparable
("same work, different machinery") exactly when their config keys match —
the registry-level analogue of the shard plan-identity check.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.bench.telemetry import AggregatingSink

#: Version of the RunRecord JSON layout; mismatching files are rejected.
RUN_RECORD_FORMAT_VERSION = 1

_RECORD_KIND = "repro-run-record"

#: The execution paths a record may claim: the four equivalence paths
#: (``store-broker`` is the broker), the ``cache-gc`` maintenance path
#: recorded by ``repro cache gc``, plus ``dir-broker`` and
#: ``incremental-rip``, which only records of older builds carry (committed
#: BENCH files still hold them).
EXECUTOR_PATHS = ("serial", "parallel", "file-shard", "dir-broker",
                  "store-broker", "cache-gc", "incremental-rip")

#: Environment variable consulted when no ``--registry`` flag is given.
REGISTRY_ENV_VAR = "REPRO_REGISTRY"


class RegistryError(ValueError):
    """A run record is missing, unreadable, or structurally invalid."""


def _executor_base(executor: str) -> str:
    """The path component of an executor label.

    Broker runs against a *named* plan label themselves
    ``store-broker:planA`` so ``runs list``/``diff``
    can tell concurrent tenants apart; the part before the first ``:`` must
    still be one of :data:`EXECUTOR_PATHS`.  Default-namespace runs keep
    the bare label, so pre-PR-7 records and tooling are unaffected.
    """
    return executor.split(":", 1)[0]


def _require(payload: Mapping[str, object], key: str, source: str) -> object:
    if key not in payload:
        raise RegistryError(f"{source}: missing required field {key!r}")
    return payload[key]


def _require_int(payload: Mapping[str, object], key: str, source: str) -> int:
    value = _require(payload, key, source)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RegistryError(f"{source}: field {key!r} must be an integer, "
                            f"got {value!r}")
    return value


def _require_number(payload: Mapping[str, object], key: str,
                    source: str) -> float:
    value = _require(payload, key, source)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RegistryError(f"{source}: field {key!r} must be a number, "
                            f"got {value!r}")
    return float(value)


def _require_str(payload: Mapping[str, object], key: str, source: str) -> str:
    value = _require(payload, key, source)
    if not isinstance(value, str):
        raise RegistryError(f"{source}: field {key!r} must be a string, "
                            f"got {value!r}")
    return value


def _require_str_tuple(payload: Mapping[str, object], key: str,
                       source: str) -> Tuple[str, ...]:
    value = _require(payload, key, source)
    if not isinstance(value, (list, tuple)) \
            or not all(isinstance(item, str) for item in value):
        raise RegistryError(f"{source}: field {key!r} must be a list of "
                            f"strings, got {value!r}")
    return tuple(value)


def _require_dict(payload: Mapping[str, object], key: str,
                  source: str) -> Dict[str, object]:
    value = _require(payload, key, source)
    if not isinstance(value, dict):
        raise RegistryError(f"{source}: field {key!r} must be a JSON object, "
                            f"got {type(value).__name__}")
    return value


def config_key(seed: int, trials: int, setting_keys: Sequence[str],
               task_ids: Sequence[str], fingerprint: str,
               subset: Optional[str] = None) -> str:
    """Hex digest of the grid identity (execution path excluded).

    ``subset`` marks a record that covers only a slice of the grid (one
    shard of a plan, or whichever manifests one worker won): the slice is
    folded into the digest so a partial record never reads as comparable
    to a full run of the same grid — only to the *same* slice of it.
    """
    payload: Dict[str, object] = {
        "seed": seed, "trials": trials,
        "setting_keys": list(setting_keys),
        "task_ids": list(task_ids), "fingerprint": fingerprint}
    if subset is not None:
        payload["subset"] = subset
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


@dataclass(frozen=True)
class RunRecord:
    """The durable summary of one measured benchmark execution."""

    run_id: str
    created_at: str                    # ISO-8601 UTC
    executor: str                      # one of EXECUTOR_PATHS
    seed: int
    trials: int
    jobs: int
    setting_keys: Tuple[str, ...]
    task_ids: Tuple[str, ...]
    fingerprint: str                   # DMI config fingerprint
    config_key: str                    # grid identity digest (see module doc)
    trial_count: int
    wall_clock_s: float
    #: Event counters from the run's AggregatingSink (may be empty).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Timer snapshots from the AggregatingSink (name -> TimerStats dict).
    timers: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Per-setting aggregate metrics (MetricSummary.as_dict per key).
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Free-form execution context (broker location, shard index, ...).
    context: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": _RECORD_KIND,
            "format_version": RUN_RECORD_FORMAT_VERSION,
            "run_id": self.run_id,
            "created_at": self.created_at,
            "executor": self.executor,
            "seed": self.seed,
            "trials": self.trials,
            "jobs": self.jobs,
            "setting_keys": list(self.setting_keys),
            "task_ids": list(self.task_ids),
            "fingerprint": self.fingerprint,
            "config_key": self.config_key,
            "trial_count": self.trial_count,
            "wall_clock_s": self.wall_clock_s,
            "counters": dict(self.counters),
            "timers": {name: dict(stats)
                       for name, stats in self.timers.items()},
            "metrics": {key: dict(summary)
                        for key, summary in self.metrics.items()},
            "context": dict(self.context),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object],
                  source: str = "run record") -> "RunRecord":
        kind = payload.get("kind")
        if kind != _RECORD_KIND:
            raise RegistryError(f"{source}: field 'kind' is {kind!r}; "
                                f"expected a {_RECORD_KIND!r} file")
        version = payload.get("format_version")
        if version != RUN_RECORD_FORMAT_VERSION:
            raise RegistryError(
                f"{source}: field 'format_version' is {version!r}; this "
                f"build reads format version {RUN_RECORD_FORMAT_VERSION}")
        executor = _require_str(payload, "executor", source)
        if _executor_base(executor) not in EXECUTOR_PATHS:
            raise RegistryError(
                f"{source}: field 'executor' is {executor!r}; expected one "
                f"of {', '.join(map(repr, EXECUTOR_PATHS))} (optionally "
                "suffixed ':<plan>' for a named broker plan)")
        counters = _require_dict(payload, "counters", source)
        for name, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise RegistryError(f"{source}: field 'counters.{name}' "
                                    f"must be an integer, got {value!r}")
        return cls(
            run_id=_require_str(payload, "run_id", source),
            created_at=_require_str(payload, "created_at", source),
            executor=executor,
            seed=_require_int(payload, "seed", source),
            trials=_require_int(payload, "trials", source),
            jobs=_require_int(payload, "jobs", source),
            setting_keys=_require_str_tuple(payload, "setting_keys", source),
            task_ids=_require_str_tuple(payload, "task_ids", source),
            fingerprint=_require_str(payload, "fingerprint", source),
            config_key=_require_str(payload, "config_key", source),
            trial_count=_require_int(payload, "trial_count", source),
            wall_clock_s=_require_number(payload, "wall_clock_s", source),
            counters=dict(counters),
            timers=dict(_require_dict(payload, "timers", source)),
            metrics=dict(_require_dict(payload, "metrics", source)),
            context=dict(payload.get("context", {})
                         if isinstance(payload.get("context", {}), dict)
                         else {}),
        )


def build_run_record(run_id: str, *, executor: str, seed: int, trials: int,
                     jobs: int, setting_keys: Sequence[str],
                     task_ids: Sequence[str], fingerprint: str,
                     results_by_setting: Mapping[str, Sequence],
                     wall_clock_s: float,
                     sink: Optional[AggregatingSink] = None,
                     context: Optional[Mapping[str, object]] = None,
                     created_at: Optional[str] = None,
                     subset: Optional[str] = None) -> RunRecord:
    """Assemble a :class:`RunRecord` from a finished run's pieces.

    ``results_by_setting`` maps setting key to that setting's
    :class:`~repro.agent.session.SessionResult` list (a ``RunOutcome``'s
    ``results``); aggregate metrics are computed here so every entry point
    records the same Table 3 summary shape.  Pass ``subset`` when the run
    covered only part of the grid (see :func:`config_key`); it is also
    recorded in the context for human readers.
    """
    from repro.bench.metrics import aggregate

    if _executor_base(executor) not in EXECUTOR_PATHS:
        raise RegistryError(f"executor must be one of "
                            f"{', '.join(EXECUTOR_PATHS)} (optionally "
                            f"suffixed ':<plan>' for a named broker plan), "
                            f"got {executor!r}")
    snapshot = sink.snapshot() if sink is not None else \
        {"counters": {}, "timers": {}}
    context = dict(context or {})
    if subset is not None:
        context.setdefault("subset", subset)
    return RunRecord(
        run_id=run_id,
        created_at=created_at or time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                               time.gmtime()),
        executor=executor,
        seed=seed,
        trials=trials,
        jobs=jobs,
        setting_keys=tuple(setting_keys),
        task_ids=tuple(task_ids),
        fingerprint=fingerprint,
        config_key=config_key(seed, trials, setting_keys, task_ids,
                              fingerprint, subset=subset),
        trial_count=sum(len(results)
                        for results in results_by_setting.values()),
        wall_clock_s=wall_clock_s,
        counters=dict(snapshot["counters"]),
        timers=dict(snapshot["timers"]),
        metrics={key: aggregate(results).as_dict()
                 for key, results in results_by_setting.items()},
        context=context,
    )


class RunRegistry:
    """A directory of run records, one ``<run_id>.json`` file per run.

    Records are written atomically (temp file + rename), so a reader never
    observes a half-written record; run ids sort chronologically because
    they start with a UTC timestamp.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    @classmethod
    def from_env(cls, explicit: Optional[Union[str, Path]] = None
                 ) -> Optional["RunRegistry"]:
        """The registry selected by ``--registry`` or ``REPRO_REGISTRY``
        (flag wins), or ``None`` when neither is set."""
        location = explicit or os.environ.get(REGISTRY_ENV_VAR) or None
        return cls(location) if location else None

    # Process-wide floor for id timestamps: ``new_run_id`` never reuses or
    # goes below the last stamped microsecond, even when the wall clock
    # stalls (coarse clocks, VMs) or steps backwards (NTP), so ids created
    # by one process always sort in creation order.  The random suffix
    # remains purely a cross-process tie-break.
    _id_lock = threading.Lock()
    _last_micros = 0

    def new_run_id(self) -> str:
        """Timestamp to the microsecond (monotonically bumped) + random
        suffix.  Sorting the ids of one process reproduces creation order
        exactly; across processes the suffix keeps simultaneous ids
        distinct (ordering between them is arbitrary but stable)."""
        with RunRegistry._id_lock:
            micros = int(time.time() * 1_000_000)
            if micros <= RunRegistry._last_micros:
                micros = RunRegistry._last_micros + 1
            RunRegistry._last_micros = micros
        seconds, fraction = divmod(micros, 1_000_000)
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime(seconds))
        return f"{stamp}.{fraction:06d}-{os.urandom(3).hex()}"

    def path_for(self, run_id: str) -> Path:
        return self.root / f"{run_id}.json"

    # ------------------------------------------------------------------
    # write
    # ------------------------------------------------------------------
    def record(self, record: RunRecord) -> Path:
        """Persist ``record`` atomically; refuses to overwrite a run id."""
        self.root.mkdir(parents=True, exist_ok=True)
        target = self.path_for(record.run_id)
        if target.exists():
            raise RegistryError(f"{target}: run {record.run_id!r} is already "
                                "recorded in this registry")
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record.as_dict(), indent=1,
                                  ensure_ascii=False), encoding="utf-8")
        tmp.replace(target)
        return target

    # ------------------------------------------------------------------
    # read
    # ------------------------------------------------------------------
    def run_ids(self) -> List[str]:
        """All recorded run ids, chronological (timestamp-prefixed sort)."""
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json")
                      if not path.name.startswith("."))

    def load(self, run_id: str) -> RunRecord:
        path = self.path_for(run_id)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as error:
            raise RegistryError(f"{path}: cannot read run record: {error}") \
                from error
        except json.JSONDecodeError as error:
            raise RegistryError(f"{path}: not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise RegistryError(f"{path}: does not contain a JSON object")
        record = RunRecord.from_dict(payload, source=str(path))
        if record.run_id != run_id:
            raise RegistryError(f"{path}: field 'run_id' is "
                                f"{record.run_id!r}, which does not match "
                                f"the file name")
        return record

    def resolve(self, run_id_or_prefix: str) -> RunRecord:
        """Load by exact id, or by unique prefix (CLI convenience)."""
        ids = self.run_ids()
        if run_id_or_prefix in ids:
            return self.load(run_id_or_prefix)
        matches = [run_id for run_id in ids
                   if run_id.startswith(run_id_or_prefix)]
        if not matches:
            raise RegistryError(
                f"{self.root}: no run {run_id_or_prefix!r} in the registry "
                f"({len(ids)} run(s) recorded; see 'repro runs list')")
        if len(matches) > 1:
            raise RegistryError(
                f"{self.root}: run id prefix {run_id_or_prefix!r} is "
                f"ambiguous: {', '.join(matches)}")
        return self.load(matches[0])

    def load_all(self) -> List[RunRecord]:
        return [self.load(run_id) for run_id in self.run_ids()]

    def load_all_tolerant(self) -> Tuple[List[RunRecord], List[str]]:
        """Every readable record, plus one message per skipped file.

        A registry accumulates files over many PRs; one torn, stray, or
        newer-format record must not make the whole registry unlistable —
        browsing commands skip it (loudly) instead of dying on it.
        """
        records: List[RunRecord] = []
        problems: List[str] = []
        for run_id in self.run_ids():
            try:
                records.append(self.load(run_id))
            except RegistryError as error:
                problems.append(str(error))
        return records, problems

    def latest(self) -> Optional[RunRecord]:
        ids = self.run_ids()
        return self.load(ids[-1]) if ids else None
