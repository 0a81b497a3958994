"""Command-line interface for the reproduction.

The subcommands cover the common workflows without writing any code:

``model``
    Run the offline phase for one application and print the modeling
    statistics (UNG size, forest, core topology, token estimate).
    ``--save PATH`` persists the navigation model (UNG + rip report) to
    JSON; ``--load PATH`` rebuilds the artefacts from such a file instead
    of re-ripping — the paper's "model once, reuse on any machine" path.
``run``
    Execute the benchmark for one or more Table 3 configurations and print
    the aggregate metrics (optionally restricted to a subset of tasks).
``report``
    Run the three core-setting configurations and print the paper's Table 3,
    Figure 5a/5b, Figure 6 and one-shot sections in text form.
``shard``
    Distribute a run across machines as manifest shards:
    ``shard plan --shards N --out DIR`` partitions the grid into N
    self-contained JSON manifests; ``shard run MANIFEST --results FILE``
    executes one manifest anywhere (reusing ``--jobs``/``--cache-dir``);
    ``shard merge RESULTS...`` validates that all shards came from the same
    plan, reassembles them in canonical spec order and prints (or exports)
    the same output a single-machine ``run`` would have produced.

    Instead of hand-carrying manifest and results files, the same grid can
    flow through a broker work queue: ``shard submit … --shards N`` plans
    the grid and enqueues the manifests (``--plan NAME`` picks the
    namespace — one broker holds any number of named plans, leased
    fair-share so a huge grid cannot starve a small one, with
    ``--priority`` as tiebreak); ``shard work …`` (run on any number of
    machines) leases manifests from every live plan, executes them with
    the ordinary engine stack and posts results until the queue drains
    (``--poll SECS`` waits on in-flight peers whose lease might expire;
    ``--max-manifests N`` caps one worker's share; ``--daemon`` makes the
    worker persistent: it survives drain and picks up newly submitted
    plans until SIGTERM or ``--max-idle-s``); ``shard collect … --plan
    NAME`` merges one plan's posted results with the same plan-identity
    validation as ``shard merge`` — the collected output is bit-identical
    to a single-machine serial run for the same seed.  ``shard status``
    prints the per-plan queue table without collecting.

    Every queue command takes ``--broker DIR``: a shared/NFS directory
    holding an object-store broker over a store that emulates S3-style
    conditional writes (compare-and-swap lease objects — the deployable
    layout for any store with ``If-None-Match``/``If-Match`` semantics);
    ``--fault-schedule FILE`` wraps that store in seeded chaos.  Leases
    expire after ``--lease-ttl SECS`` (default 900) so crashed workers are
    reclaimed; live workers renew their lease in the background every
    ``--heartbeat SECS`` (default ``lease_ttl/3``; ``0`` disables), so
    manifests may run arbitrarily long without an oversized TTL.
``trace``
    Reconstruct one trial's timeline from the ``--events`` JSONL files of
    every process that touched it: ``trace show TRACE_ID --events FILE
    ...`` prints it, ``trace export`` emits it as JSON and ``trace id``
    prints a trial's deterministic trace id.
``runs``
    Inspect the persistent run registry.  ``run``, ``shard run`` and
    ``shard work``/``collect`` all append a :class:`RunRecord` (grid
    identity, execution path, wall clock, telemetry counters and the
    Table 3 aggregates) when ``--registry DIR`` (or ``$REPRO_REGISTRY``)
    is set; ``runs list`` / ``runs show ID`` browse them,
    and ``runs diff A B`` prints the per-metric delta table and exits
    nonzero when a ``--fail-if wall_clock>+10%`` style regression threshold
    trips.  The perf trajectory (``BENCH_<n>.json``) is written from
    dmibench by ``benchmarks/trajectory_point.py``, not from the registry.
``cache``
    Maintain an offline-model cache directory.  ``cache stats --cache-dir
    DIR`` lists the entries with sizes and last-load ages (from the
    nanosecond-resolution recency index); ``cache gc --cache-dir DIR
    --max-age-s SECS --max-bytes N`` evicts entries older than the age
    bound and then the oldest entries until the directory fits the byte
    budget.  ``gc`` emits a ``cache_gc`` telemetry event and, with
    ``--registry``, records a ``cache-gc`` run so sweeps show up in
    ``repro runs list``/``show`` next to the benchmark runs they pruned
    for.
``tasks``
    List the benchmark task suite.
``generate``
    Describe a synthetic scenario spec (the value ``--synthetic`` takes):
    its canonical token, topology digest and task count.

Execution-engine flags (``run``, ``report`` and ``shard run``):

``--jobs N``
    Fan trials out over N worker processes.  Trials are deterministically
    seeded work units, so results are identical to a serial run for the
    same ``--seed``.
``--cache-dir PATH``
    Content-addressed cache of offline navigation models.  The first run
    rips each application once and persists the UNG; later runs (and every
    parallel worker) load instead of re-ripping.  ``--cache-max-entries N``
    bounds the directory (LRU by last-load time; evictions are counted).
``--registry DIR`` / ``--events FILE``
    Telemetry: record a RunRecord for ``repro runs`` in DIR (default:
    ``$REPRO_REGISTRY``), and/or stream every telemetry event to FILE as
    JSON lines.  With neither flag the default NullSink keeps the
    instrumented hot paths at zero overhead.
``--export FILE``
    Write all per-trial results and aggregate summaries to a JSON file
    (``run``, ``report`` and ``shard merge``).
``--progress``
    Stream one ``[completed/total] task setting trial`` line per finished
    trial to stderr while the run executes.

The default seed is 11 everywhere (``repro.bench.runner.DEFAULT_SEED``): the
library, this CLI and the benchmark harness share one constant so quoted
numbers agree across entry points.

Examples::

    python -m repro model powerpoint --save models/ppt.json
    python -m repro model powerpoint --load models/ppt.json
    python -m repro run --settings dmi-gpt5-medium gui-gpt5-medium --trials 1
    python -m repro run --jobs 4 --cache-dir .dmi-cache --export results.json
    python -m repro run --progress --trials 1 --tasks word-02-landscape
    python -m repro report --trials 1 --tasks ppt-01-blue-background word-02-landscape
    python -m repro shard plan --shards 3 --out shards/
    python -m repro shard run shards/shard-000-of-003.json \\
        --results results-0.json --jobs 4 --cache-dir .dmi-cache --progress
    python -m repro shard merge results-*.json --report --export merged.json
    python -m repro shard submit --broker /mnt/queue --shards 8
    python -m repro shard work --broker /mnt/queue --jobs 4 \\
        --cache-dir .dmi-cache          # on every worker machine
    python -m repro shard collect --broker /mnt/queue --poll 5 --progress \\
        --report --export merged.json
    python -m repro shard work --broker /mnt/queue --lease-ttl 120 \\
        --heartbeat 30 --jobs 4         # short leases + heartbeats
    python -m repro shard submit --broker /mnt/queue --shards 8 \\
        --plan nightly --priority 1     # a named tenant on a shared broker
    python -m repro shard work --broker /mnt/queue --daemon \\
        --max-idle-s 600                # persistent fleet worker
    python -m repro shard status --broker /mnt/queue --json
    python -m repro shard collect --broker /mnt/queue --plan nightly
    python -m repro run --registry runs/ --events run.jsonl --trials 1
    python -m repro runs list --registry runs/
    python -m repro runs diff 20260726-1 20260726-2 --registry runs/ \\
        --fail-if 'wall_clock>+10%' --fail-if 'cache_miss>+0'
    python -m repro cache stats --cache-dir .dmi-cache
    python -m repro cache gc --cache-dir .dmi-cache --max-age-s 604800 \\
        --max-bytes 10000000 --registry runs/
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO

from repro.apps import APP_FACTORIES
from repro.bench import reporting
from repro.bench.engine import ProgressCallback, ProgressEvent
from repro.bench.metrics import aggregate
from repro.bench.registry import (
    RegistryError,
    RunRegistry,
    build_run_record,
)
from repro.bench.observe.trace import build_trace, render_trace
from repro.bench.telemetry import (
    AggregatingSink,
    EventSink,
    JsonlSink,
    TeeSink,
    TelemetryError,
    read_jsonl_events,
    set_default_sink,
)
from repro.bench.trajectory import (
    FailIf,
    check_fail_ifs,
    diff_runs,
    render_diff,
)
from repro.bench.shard import (
    ManifestExecutor,
    ShardError,
    ShardManifest,
    ShardResults,
    merge_shard_results,
)
from repro.bench.faults import (
    FaultSchedule,
    FaultyObjectStore,
)
from repro.bench.store import FileSystemObjectStore
from repro.bench.transport import (
    DEFAULT_LEASE_TTL,
    DEFAULT_PLAN,
    BrokerStatus,
    ObjectStoreBroker,
    ShardLease,
    ShardWorker,
    validate_plan_name,
)
from repro.bench.runner import (
    BenchmarkConfig,
    BenchmarkRunner,
    CORE_SETTING_KEYS,
    DEFAULT_SEED,
    RunOutcome,
    TABLE3_SETTINGS,
    setting_by_key,
)
from repro.bench.tasks import all_tasks, task_by_id
from repro.dmi.cache import ArtifactCache, config_fingerprint
from repro.dmi.interface import (
    DMIConfig,
    build_offline_artifacts,
    rebuild_offline_artifacts,
)
from repro.topology.persistence import load_model, save_ung


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the DMI (Declarative Model Interface) system "
                    "from 'From Imperative to Declarative' (EuroSys 2026).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    model = subparsers.add_parser("model", help="run the offline modeling phase for one app")
    model.add_argument("app", choices=sorted(APP_FACTORIES), help="application to model")
    model.add_argument("--save", metavar="PATH", default=None,
                       help="persist the navigation model (UNG + rip report) to JSON")
    model.add_argument("--load", metavar="PATH", default=None,
                       help="rebuild artefacts from a saved model instead of ripping")

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    def nonnegative_float(text: str) -> float:
        value = float(text)
        # math.isfinite also rejects NaN, which passes every `< 0` check
        # but blows up time.sleep later.
        if not math.isfinite(value) or value < 0:
            raise argparse.ArgumentTypeError(f"must be a finite number >= 0, "
                                             f"got {value}")
        return value

    def positive_float(text: str) -> float:
        value = float(text)
        if not math.isfinite(value) or value <= 0:
            raise argparse.ArgumentTypeError(f"must be a finite number > 0, "
                                             f"got {value}")
        return value

    def add_progress_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--progress", action="store_true",
                         help="stream '[completed/total] task setting trial' "
                              "lines to stderr as trials finish")

    def add_cache_bound_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--cache-max-entries", type=positive_int,
                         default=None, metavar="N",
                         help="bound the cache directory to N entries "
                              "(LRU by last-load time; default: unbounded)")

    def add_telemetry_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--registry", metavar="DIR", default=None,
                         help="run-registry directory: append a RunRecord "
                              "for 'repro runs' (default: $REPRO_REGISTRY)")
        sub.add_argument("--events", metavar="FILE", default=None,
                         help="append every telemetry event to FILE as "
                              "JSON lines")

    def add_engine_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--jobs", type=positive_int, default=1,
                         help="worker processes (1 = serial; >1 = process pool)")
        sub.add_argument("--cache-dir", metavar="PATH", default=None,
                         help="on-disk cache for offline navigation models")
        add_cache_bound_flag(sub)
        sub.add_argument("--export", metavar="FILE", default=None,
                         help="write per-trial results and summaries to a JSON file")
        add_telemetry_flags(sub)
        add_progress_flag(sub)

    def add_grid_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--tasks", nargs="*", default=None,
                         help="task ids to run (default: the full 27-task suite)")
        sub.add_argument("--synthetic", metavar="SPEC", default=None,
                         help="add a generated task suite (spec token or "
                              "key=value pairs; see 'repro generate')")
        sub.add_argument("--trials", type=positive_int, default=3,
                         help="trials per task (paper: 3)")
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                         help="benchmark seed")

    run = subparsers.add_parser("run", help="run benchmark configurations")
    run.add_argument("--settings", nargs="+", default=list(CORE_SETTING_KEYS),
                     choices=[s.key for s in TABLE3_SETTINGS],
                     help="Table 3 configuration keys to run")
    add_grid_flags(run)
    add_engine_flags(run)

    report = subparsers.add_parser("report", help="print the core-setting tables and figures")
    add_grid_flags(report)
    add_engine_flags(report)

    shard = subparsers.add_parser(
        "shard", help="distribute a run across machines as manifest shards")
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    shard_plan = shard_sub.add_parser(
        "plan", help="partition the evaluation grid into N shard manifests")
    shard_plan.add_argument("--shards", type=positive_int, required=True,
                            help="number of manifests to produce")
    shard_plan.add_argument("--out", metavar="DIR", required=True,
                            help="directory for the manifest JSON files")
    shard_plan.add_argument("--settings", nargs="+", default=list(CORE_SETTING_KEYS),
                            choices=[s.key for s in TABLE3_SETTINGS],
                            help="Table 3 configuration keys to shard")
    add_grid_flags(shard_plan)

    shard_run = shard_sub.add_parser(
        "run", help="execute one shard manifest on this machine")
    shard_run.add_argument("manifest", help="manifest JSON written by 'shard plan'")
    shard_run.add_argument("--results", metavar="FILE", required=True,
                           help="where to write this shard's results JSON")
    shard_run.add_argument("--jobs", type=positive_int, default=1,
                           help="worker processes (1 = serial; >1 = process pool)")
    shard_run.add_argument("--cache-dir", metavar="PATH", default=None,
                           help="on-disk cache for offline navigation models")
    add_cache_bound_flag(shard_run)
    add_telemetry_flags(shard_run)
    add_progress_flag(shard_run)

    shard_merge = shard_sub.add_parser(
        "merge", help="validate and merge shard results into one report")
    shard_merge.add_argument("results", nargs="+",
                             help="results JSON files written by 'shard run'")
    shard_merge.add_argument("--report", action="store_true",
                             help="also print the figure/one-shot sections")
    shard_merge.add_argument("--export", metavar="FILE", default=None,
                             help="write merged results and summaries to a JSON file")

    def plan_name(text: str) -> str:
        try:
            return validate_plan_name(text)
        except ShardError as error:
            raise argparse.ArgumentTypeError(str(error))

    def add_queue_flags(sub: argparse.ArgumentParser) -> None:
        """The broker flags shared by every queue command."""
        sub.add_argument("--broker", metavar="DIR", required=True,
                         help="broker queue directory (shared/NFS; an "
                              "object store with S3-style conditional-"
                              "write semantics, compare-and-swap leases)")
        sub.add_argument("--lease-ttl", type=positive_float,
                         default=DEFAULT_LEASE_TTL, metavar="SECS",
                         help="seconds before an unrenewed lease may be "
                              "reclaimed (default: %(default)s)")
        sub.add_argument("--fault-schedule", metavar="FILE", default=None,
                         help="chaos-conformance test rig: inject the "
                              "deterministic fault schedule (seeded JSON, "
                              "see repro.bench.faults) into every store "
                              "operation; bounded retries must "
                              "absorb the weather")

    shard_submit = shard_sub.add_parser(
        "submit", help="plan the grid and enqueue its manifests on a broker")
    add_queue_flags(shard_submit)
    shard_submit.add_argument("--shards", type=positive_int, required=True,
                              help="number of manifests to enqueue")
    shard_submit.add_argument("--plan", type=plan_name, default=DEFAULT_PLAN,
                              metavar="NAME",
                              help="plan namespace to enqueue under; one "
                                   "broker holds any number of named plans "
                                   "(default: %(default)r)")
    shard_submit.add_argument("--priority", type=int, default=0,
                              help="fair-share tiebreak: higher-priority "
                                   "plans win lease-order ties "
                                   "(default: %(default)s)")
    shard_submit.add_argument("--settings", nargs="+",
                              default=list(CORE_SETTING_KEYS),
                              choices=[s.key for s in TABLE3_SETTINGS],
                              help="Table 3 configuration keys to shard")
    add_grid_flags(shard_submit)
    add_telemetry_flags(shard_submit)

    shard_work = shard_sub.add_parser(
        "work", help="lease and execute broker manifests until the queue drains")
    add_queue_flags(shard_work)
    shard_work.add_argument("--heartbeat", type=nonnegative_float,
                            default=None, metavar="SECS",
                            help="seconds between background lease renewals "
                                 "while a manifest runs (default: "
                                 "lease_ttl/3; 0 disables heartbeats)")
    shard_work.add_argument("--poll", type=positive_float, default=1.0,
                            help="seconds between queue checks while peers "
                                 "hold leases or (with --daemon) the queue "
                                 "is empty")
    shard_work.add_argument("--daemon", action="store_true",
                            help="persistent worker: survive queue drain, "
                                 "keep polling for newly submitted plans "
                                 "until SIGTERM/--max-idle-s")
    shard_work.add_argument("--max-idle-s", type=positive_float, default=None,
                            metavar="SECS",
                            help="with --daemon: exit cleanly after being "
                                 "continuously idle this long")
    shard_work.add_argument("--max-manifests", type=positive_int, default=None,
                            help="stop after executing this many manifests")
    shard_work.add_argument("--worker-id", metavar="NAME", default=None,
                            help="worker name recorded on leases "
                                 "(default: hostname-pid)")
    shard_work.add_argument("--jobs", type=positive_int, default=1,
                            help="worker processes (1 = serial; >1 = process pool)")
    shard_work.add_argument("--cache-dir", metavar="PATH", default=None,
                            help="on-disk cache for offline navigation models")
    add_cache_bound_flag(shard_work)
    add_telemetry_flags(shard_work)
    add_progress_flag(shard_work)

    shard_collect = shard_sub.add_parser(
        "collect", help="merge a broker's posted results into one report")
    add_queue_flags(shard_collect)
    shard_collect.add_argument("--plan", type=plan_name, default=DEFAULT_PLAN,
                               metavar="NAME",
                               help="named plan to collect "
                                    "(default: %(default)r)")
    shard_collect.add_argument("--poll", type=nonnegative_float, default=0.0,
                               help="wait for the plan to complete, checking "
                                    "every SECS seconds (0 = fail if "
                                    "incomplete)")
    shard_collect.add_argument("--report", action="store_true",
                               help="also print the figure/one-shot sections")
    shard_collect.add_argument("--export", metavar="FILE", default=None,
                               help="write merged results and summaries to a "
                                    "JSON file")
    add_telemetry_flags(shard_collect)
    add_progress_flag(shard_collect)

    shard_status = shard_sub.add_parser(
        "status", help="print the broker's per-plan queue counters")
    add_queue_flags(shard_status)
    shard_status.add_argument("--json", action="store_true",
                              help="emit the counters as JSON instead of "
                                   "the table")

    trace = subparsers.add_parser(
        "trace", help="reconstruct one trace's timeline from JSONL events")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def add_trace_event_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("trace_id", help="trace id (from 'repro trace id' "
                                          "or any event's trace_id field)")
        sub.add_argument("--events", metavar="FILE", action="append",
                         required=True,
                         help="JSONL event file to search; repeatable — "
                              "pass every worker's and the submitter's "
                              "files to merge one fleet-wide timeline")

    trace_show = trace_sub.add_parser(
        "show", help="print a human-readable span timeline")
    add_trace_event_flags(trace_show)

    trace_export = trace_sub.add_parser(
        "export", help="emit the reconstructed trace as JSON")
    add_trace_event_flags(trace_export)
    trace_export.add_argument("--out", metavar="FILE", default=None,
                              help="write the JSON to FILE instead of "
                                   "stdout")

    trace_id_cmd = trace_sub.add_parser(
        "id", help="compute a trial's deterministic trace id")
    trace_id_cmd.add_argument("--task", required=True, metavar="TASK_ID",
                              help="task id of the trial")
    trace_id_cmd.add_argument("--setting", required=True, metavar="KEY",
                              help="evaluation setting key of the trial")
    trace_id_cmd.add_argument("--trial", type=int, default=0,
                              metavar="N", help="trial index "
                                                "(default: %(default)s)")
    trace_id_cmd.add_argument("--seed", type=int, default=DEFAULT_SEED,
                              help="benchmark base seed "
                                   "(default: %(default)s)")

    runs = subparsers.add_parser(
        "runs", help="inspect and compare runs recorded with --registry")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def add_registry_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--registry", metavar="DIR", default=None,
                         help="run-registry directory "
                              "(default: $REPRO_REGISTRY)")

    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    add_registry_flag(runs_list)
    runs_list.add_argument("--ids", action="store_true",
                           help="print bare run ids only (for scripting)")

    runs_show = runs_sub.add_parser("show", help="print one run record")
    add_registry_flag(runs_show)
    runs_show.add_argument("run_id", help="run id (or unique prefix)")

    runs_diff = runs_sub.add_parser(
        "diff", help="per-metric delta table between two recorded runs")
    add_registry_flag(runs_diff)
    runs_diff.add_argument("before", help="baseline run id (or prefix)")
    runs_diff.add_argument("after", help="candidate run id (or prefix)")
    runs_diff.add_argument("--fail-if", action="append", default=[],
                           metavar="SPEC",
                           help="exit nonzero when a metric regresses past "
                                "SPEC, e.g. 'wall_clock>+10%%' or "
                                "'cache_hit<-2' (repeatable)")

    def nonnegative_int(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    cache = subparsers.add_parser(
        "cache", help="inspect and garbage-collect an offline-model cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    cache_stats = cache_sub.add_parser(
        "stats", help="list cache entries with sizes and last-load ages")
    cache_stats.add_argument("--cache-dir", metavar="PATH", required=True,
                             help="cache directory to inspect")

    cache_gc = cache_sub.add_parser(
        "gc", help="evict cache entries past an age or total-size bound")
    cache_gc.add_argument("--cache-dir", metavar="PATH", required=True,
                          help="cache directory to sweep")
    cache_gc.add_argument("--max-age-s", type=nonnegative_float, default=None,
                          metavar="SECS",
                          help="evict entries whose last load is older than "
                               "SECS seconds")
    cache_gc.add_argument("--max-bytes", type=nonnegative_int, default=None,
                          metavar="N",
                          help="evict oldest entries until the directory "
                               "holds at most N bytes")
    add_telemetry_flags(cache_gc)

    tasks = subparsers.add_parser("tasks", help="list the benchmark tasks")
    tasks.add_argument("--app", choices=sorted(APP_FACTORIES), default=None)

    generate = subparsers.add_parser(
        "generate",
        help="describe a synthetic scenario spec (see --synthetic)")
    generate.add_argument(
        "spec",
        help="spec token (s7-t3-g2-c3-y6-m3-d2-cy1-x1-n30) or key=value "
             "pairs (seed=7,tasks=100); fields: seed, tabs, groups, "
             "controls, gallery, menu, dialogs, cycle, contexts, tasks")
    generate.add_argument("--ids", action="store_true",
                          help="print the generated task ids, one per line")
    generate.add_argument("--json", action="store_true", dest="as_json",
                          help="print the summary as JSON")
    return parser


def _resolve_tasks(task_ids: Optional[Sequence[str]],
                   synthetic: Optional[str] = None):
    if task_ids is None and synthetic is None:
        return None
    tasks = []
    if task_ids is not None:
        if not task_ids:
            # nargs="*" lets `--tasks` appear with zero arguments; running
            # the full 27-task suite in that case would silently ignore the
            # flag.
            raise SystemExit("repro: --tasks requires at least one task id "
                             "(omit the flag to run the full 27-task suite)")
        seen = set()
        for task_id in task_ids:
            if task_id in seen:
                # A repeated id would double-expand the settings × tasks ×
                # trials grid (and trip the shard planner's duplicate
                # check); repetition belongs to --trials.
                raise SystemExit(
                    f"repro: duplicate task id {task_id!r} in --tasks (each "
                    "task may appear once; use --trials for repetition)")
            seen.add(task_id)
        try:
            tasks.extend(task_by_id(task_id) for task_id in task_ids)
        except KeyError as error:
            raise SystemExit(f"repro: {error.args[0]}; see 'repro tasks' for "
                             "the suite")
    if synthetic is not None:
        from repro.apps.synthetic import SyntheticSpec, synthetic_suite

        try:
            generated = synthetic_suite(SyntheticSpec.parse(synthetic))
        except ValueError as error:
            raise SystemExit(f"repro: {error}")
        explicit = {task.task_id for task in tasks}
        duplicated = sorted(explicit.intersection(
            task.task_id for task in generated))
        if duplicated:
            raise SystemExit(f"repro: task id {duplicated[0]!r} appears in "
                             "both --tasks and the --synthetic suite")
        tasks.extend(generated)
    return tasks


def _check_cache_dir(cache_dir: Optional[str]) -> None:
    if cache_dir is not None and Path(cache_dir).exists() \
            and not Path(cache_dir).is_dir():
        raise SystemExit(f"repro: --cache-dir {cache_dir!r} exists and "
                         "is not a directory")


def _runner(args) -> BenchmarkRunner:
    _check_cache_dir(args.cache_dir)
    return BenchmarkRunner(BenchmarkConfig(
        trials=args.trials, seed=args.seed, tasks=_resolve_tasks(args.tasks, getattr(args, 'synthetic', None)),
        jobs=args.jobs, cache_dir=args.cache_dir,
        cache_max_entries=getattr(args, "cache_max_entries", None)))


class _RunTelemetry:
    """Telemetry/registry plumbing for one CLI command.

    When ``--registry`` (or ``$REPRO_REGISTRY``) or ``--events`` is in
    play, installs an :class:`AggregatingSink` (plus a :class:`JsonlSink`)
    as the process-default sink for the ``with`` block, measures wall
    clock, and :meth:`record` appends the finished run to the registry.
    With neither flag this is a no-op and the default NullSink keeps the
    instrumented hot paths at zero overhead.
    """

    def __init__(self, args) -> None:
        self.registry = RunRegistry.from_env(getattr(args, "registry", None))
        events = getattr(args, "events", None)
        self.aggregating: Optional[AggregatingSink] = None
        self._jsonl: Optional[JsonlSink] = None
        self._sink: Optional[EventSink] = None
        self._installed = False
        self._previous: Optional[EventSink] = None
        if self.registry is not None or events is not None:
            self.aggregating = AggregatingSink()
            sinks: List[EventSink] = [self.aggregating]
            if events is not None:
                try:
                    self._jsonl = JsonlSink(events)
                except OSError as error:
                    raise SystemExit(f"repro: cannot open events file "
                                     f"{events!r}: {error}")
                sinks.append(self._jsonl)
            self._sink = TeeSink(sinks)
        self._started = time.perf_counter()

    def __enter__(self) -> "_RunTelemetry":
        if self._sink is not None:
            self._previous = set_default_sink(self._sink)
            self._installed = True
        return self

    def __exit__(self, *exc_info) -> None:
        if self._installed:
            set_default_sink(self._previous)
        if self._jsonl is not None:
            self._jsonl.close()

    def record(self, *, executor: str, seed: int, trials: int, jobs: int,
               setting_keys: Sequence[str], task_ids: Sequence[str],
               results_by_setting: Dict[str, list], fingerprint: str,
               context: Optional[Dict[str, object]] = None,
               subset: Optional[str] = None) -> None:
        if self.registry is None:
            return
        record = build_run_record(
            self.registry.new_run_id(), executor=executor, seed=seed,
            trials=trials, jobs=jobs, setting_keys=setting_keys,
            task_ids=task_ids, fingerprint=fingerprint,
            results_by_setting=results_by_setting,
            wall_clock_s=time.perf_counter() - self._started,
            sink=self.aggregating, context=context, subset=subset)
        try:
            self.registry.record(record)
        except (RegistryError, OSError) as error:
            raise SystemExit(f"repro: cannot record run in registry "
                             f"{self.registry.root}: {error}")
        print(f"recorded run {record.run_id} "
              f"({record.trial_count} trials, {record.executor}) "
              f"in registry {self.registry.root}")


def _record_grid_run(tele: _RunTelemetry, args, runner: BenchmarkRunner,
                     outcomes: Dict[str, RunOutcome]) -> None:
    """The shared `run`/`report` record epilogue."""
    tele.record(
        executor="parallel" if args.jobs > 1 else "serial",
        seed=args.seed, trials=args.trials, jobs=args.jobs,
        setting_keys=list(outcomes),
        task_ids=[task.task_id for task in runner.tasks()],
        results_by_setting={key: outcome.results
                            for key, outcome in outcomes.items()},
        fingerprint=config_fingerprint(runner.config.dmi))


def _results_by_setting(shards: Sequence[ShardResults]) -> Dict[str, list]:
    """Group shard results by setting key (spec order within each shard)."""
    grouped: Dict[str, list] = {}
    for shard in shards:
        for spec, result in zip(shard.manifest.specs, shard.results):
            grouped.setdefault(spec.setting_key, []).append(result)
    return grouped


def _shard_subset(indices: Sequence[int], shard_count: int) -> str:
    """The canonical grid-subset marker for shard-level run records.

    One format for every entry point, so the same slice of a plan gets the
    same config_key whether it ran via `shard run` or a broker worker.
    """
    return (f"shards-{','.join(map(str, sorted(indices)))}"
            f"-of-{shard_count}")


def _progress_printer(stream: Optional[TextIO] = None) -> ProgressCallback:
    """The --progress live display: one line per completed trial."""
    out = stream if stream is not None else sys.stderr

    def emit(event: ProgressEvent) -> None:
        spec = event.spec
        print(f"[{event.completed}/{event.total}] {spec.task_id} "
              f"{spec.setting_key} trial {spec.trial}", file=out, flush=True)

    return emit


def _progress(args) -> Optional[ProgressCallback]:
    return _progress_printer() if getattr(args, "progress", False) else None


def export_settings_payload(outcomes: Dict[str, RunOutcome]) -> Dict[str, object]:
    """The ``--export`` file's ``settings`` section: label + aggregate
    summary + every per-trial result, per setting key.  Shared with the
    equivalence harness (``tests/equivalence.py``) so the bit-identical
    guarantee is asserted on the *real* export payload."""
    return {
        key: {
            "label": outcome.setting.label,
            "summary": aggregate(outcome.results).as_dict(),
            "results": [result.as_dict() for result in outcome.results],
        }
        for key, outcome in outcomes.items()
    }


def _export_outcomes(path: str, config: Dict[str, object],
                     outcomes: Dict[str, RunOutcome]) -> None:
    payload = {
        "config": config,
        "settings": export_settings_payload(outcomes),
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=1, ensure_ascii=False),
                      encoding="utf-8")


def _runner_config_payload(runner: BenchmarkRunner) -> Dict[str, object]:
    return {
        "trials": runner.config.trials,
        "seed": runner.config.seed,
        "jobs": runner.config.jobs,
        "cache_dir": str(runner.config.cache_dir) if runner.config.cache_dir else None,
    }


def command_model(args) -> int:
    if args.load:
        try:
            ung, report = load_model(args.load)
        except OSError as error:
            raise SystemExit(f"repro: cannot load model {args.load!r}: {error}")
        except (ValueError, KeyError) as error:
            raise SystemExit(f"repro: invalid model file {args.load!r}: {error}")
        if ung.app_name and ung.app_name.lower() != args.app:
            raise SystemExit(f"repro: {args.load!r} is a model of "
                             f"{ung.app_name!r}, not of {args.app!r}")
        artifacts = rebuild_offline_artifacts(ung, rip_report=report)
    else:
        app = APP_FACTORIES[args.app]()
        artifacts = build_offline_artifacts(app)
    if args.save:
        try:
            save_ung(artifacts.ung, args.save, report=artifacts.rip_report)
        except OSError as error:
            raise SystemExit(f"repro: cannot save model {args.save!r}: {error}")
    print(reporting.render_offline_modeling({args.app: artifacts}))
    return 0


def _print_run_summary(outcomes: Dict[str, RunOutcome]) -> None:
    print(reporting.render_table3(outcomes))
    print()
    for key, outcome in outcomes.items():
        summary = aggregate(outcome.results)
        print(f"{key}: one-shot {summary.one_shot_rate * 100:.0f}%, "
              f"avg total tokens {summary.avg_total_tokens:.0f}")


def command_run(args) -> int:
    runner = _runner(args)
    with _RunTelemetry(args) as tele:
        outcomes = runner.run_settings([setting_by_key(key) for key in args.settings],
                                       progress=_progress(args))
        _print_run_summary(outcomes)
        if args.export:
            _export_outcomes(args.export, _runner_config_payload(runner), outcomes)
        _record_grid_run(tele, args, runner, outcomes)
    return 0


def command_report(args) -> int:
    runner = _runner(args)
    with _RunTelemetry(args) as tele:
        outcomes = runner.run_settings([setting_by_key(key) for key in CORE_SETTING_KEYS],
                                       progress=_progress(args))
        print(reporting.render_table3(outcomes))
        print()
        print(reporting.render_figure5a(outcomes))
        print()
        print(reporting.render_figure5b(outcomes, groups=[list(CORE_SETTING_KEYS)]))
        print()
        print(reporting.render_figure6(outcomes["dmi-gpt5-medium"].results,
                                       outcomes["gui-gpt5-medium"].results))
        print()
        print(reporting.render_one_shot(outcomes, "dmi-gpt5-medium"))
        if args.export:
            _export_outcomes(args.export, _runner_config_payload(runner), outcomes)
        _record_grid_run(tele, args, runner, outcomes)
    return 0


# ----------------------------------------------------------------------
# shard plan / run / merge
# ----------------------------------------------------------------------
def command_shard_plan(args) -> int:
    runner = BenchmarkRunner(BenchmarkConfig(trials=args.trials, seed=args.seed,
                                             tasks=_resolve_tasks(args.tasks, getattr(args, 'synthetic', None))))
    try:
        plan = runner.shard_plan([setting_by_key(key) for key in args.settings],
                                 args.shards)
        paths = plan.write(args.out)
    except ShardError as error:
        raise SystemExit(f"repro: {error}")
    except OSError as error:
        raise SystemExit(f"repro: cannot write manifests to {args.out!r}: {error}")
    for manifest, path in zip(plan.manifests, paths):
        print(f"wrote {path} ({len(manifest.specs)} trial specs)")
    print(f"{len(paths)} shards, {sum(len(m.specs) for m in plan.manifests)} "
          f"trial specs total (seed {args.seed}, {args.trials} trial(s)/task).")
    print("Run each with 'repro shard run MANIFEST --results FILE', then "
          "combine with 'repro shard merge RESULTS...'.")
    return 0


def command_shard_run(args) -> int:
    _check_cache_dir(args.cache_dir)
    with _RunTelemetry(args) as tele:
        try:
            manifest = ShardManifest.load(args.manifest)
            executor = ManifestExecutor(jobs=args.jobs,
                                        cache_dir=args.cache_dir,
                                        cache_max_entries=args.cache_max_entries)
            shard = executor.run(manifest, progress=_progress(args))
            path = shard.save(args.results)
        except ShardError as error:
            raise SystemExit(f"repro: {error}")
        except OSError as error:
            raise SystemExit(f"repro: cannot write results {args.results!r}: {error}")
        print(f"shard {manifest.shard_index + 1}/{manifest.shard_count}: "
              f"{len(shard.results)} results -> {path}")
        tele.record(
            executor="file-shard", seed=manifest.seed,
            trials=manifest.trials, jobs=args.jobs,
            setting_keys=manifest.setting_keys, task_ids=manifest.task_ids,
            results_by_setting=_results_by_setting([shard]),
            fingerprint=manifest.fingerprint,
            # One shard is a slice of the grid: the subset marker keeps its
            # config_key from matching (and diffing silently against) a
            # full run of the same plan.
            subset=_shard_subset([manifest.shard_index],
                                 manifest.shard_count),
            context={"manifest": str(args.manifest),
                     "shard_index": manifest.shard_index,
                     "shard_count": manifest.shard_count})
    return 0


def _emit_merged(shards: List[ShardResults], outcomes: Dict[str, RunOutcome],
                 *, report: bool, export: Optional[str],
                 extra_config: Optional[Dict[str, object]] = None) -> None:
    """Shared output path of ``shard merge`` and ``shard collect``."""
    _print_run_summary(outcomes)
    if report:
        # Figure 5b compares interfaces *within* one model configuration;
        # group the merged settings by model profile so an 8-setting merge
        # never cross-normalizes gpt5-medium against gpt5-mini bars.
        groups: Dict[str, List[str]] = {}
        for key in outcomes:
            groups.setdefault(setting_by_key(key).profile.name, []).append(key)
        print()
        print(reporting.render_figure5a(outcomes))
        print()
        print(reporting.render_figure5b(outcomes, groups=list(groups.values())))
        if "dmi-gpt5-medium" in outcomes and "gui-gpt5-medium" in outcomes:
            print()
            print(reporting.render_figure6(outcomes["dmi-gpt5-medium"].results,
                                           outcomes["gui-gpt5-medium"].results))
        if "dmi-gpt5-medium" in outcomes:
            print()
            print(reporting.render_one_shot(outcomes, "dmi-gpt5-medium"))
    if export:
        reference = shards[0].manifest
        config: Dict[str, object] = {
            "trials": reference.trials,
            "seed": reference.seed,
            "shards": reference.shard_count,
            "fingerprint": reference.fingerprint,
        }
        config.update(extra_config or {})
        try:
            _export_outcomes(export, config, outcomes)
        except OSError as error:
            raise SystemExit(f"repro: cannot write export {export!r}: {error}")


def command_shard_merge(args) -> int:
    try:
        shards = [ShardResults.load(path) for path in args.results]
        outcomes = merge_shard_results(shards)
    except ShardError as error:
        raise SystemExit(f"repro: {error}")
    _emit_merged(shards, outcomes, report=args.report, export=args.export)
    return 0


# ----------------------------------------------------------------------
# shard submit / work / collect (the broker queue)
# ----------------------------------------------------------------------
def _cli_broker(args) -> ObjectStoreBroker:
    """The broker over the --broker directory.

    With ``--fault-schedule FILE`` (the chaos-conformance test rig) the
    store is wrapped in the seeded fault injector from
    :mod:`repro.bench.faults`; the broker's own bounded retries must
    absorb the weather, and a drained queue under chaos is the proof the
    flag exists to produce."""
    store = FileSystemObjectStore(args.broker)
    if args.fault_schedule is not None:
        store = FaultyObjectStore(store,
                                  FaultSchedule.load(args.fault_schedule))
    return ObjectStoreBroker(store, lease_ttl=args.lease_ttl)


def _broker_executor(plan: str) -> str:
    """The registry executor label of a broker run of ``plan``."""
    return "store-broker" if plan == DEFAULT_PLAN else f"store-broker:{plan}"


def _check_heartbeat(args) -> None:
    # Cross-flag validation argparse cannot express: a heartbeat interval
    # at or above the TTL cannot keep a lease alive.
    if getattr(args, "heartbeat", None) is not None \
            and args.heartbeat != 0 and args.heartbeat >= args.lease_ttl:
        raise SystemExit(
            f"repro: --heartbeat ({args.heartbeat}) must be shorter than "
            f"--lease-ttl ({args.lease_ttl}); use a fraction of the TTL "
            "(default: lease_ttl/3) or 0 to disable heartbeats")


def command_shard_submit(args) -> int:
    runner = BenchmarkRunner(BenchmarkConfig(trials=args.trials, seed=args.seed,
                                             tasks=_resolve_tasks(args.tasks, getattr(args, 'synthetic', None))))
    # The telemetry context installs the --events/--registry sinks as the
    # process default, so the broker's PlanSubmitted (the plan trace's
    # root span — the anchor every reconstructed trial timeline links up
    # to) lands in the submitter's JSONL.
    with _RunTelemetry(args):
        try:
            plan = runner.shard_plan(
                [setting_by_key(key) for key in args.settings], args.shards)
            broker = _cli_broker(args)
            broker.submit(plan, name=args.plan, priority=args.priority)
        except ShardError as error:
            raise SystemExit(f"repro: {error}")
        except OSError as error:
            raise SystemExit(f"repro: cannot write to broker "
                             f"{args.broker!r}: {error}")
    total = sum(len(manifest.specs) for manifest in plan.manifests)
    print(f"submitted {plan.shard_count} shard manifest(s), {total} trial "
          f"specs total (seed {args.seed}, {args.trials} trial(s)/task) "
          f"as plan {args.plan!r} to broker {args.broker}")
    print(f"Run 'repro shard work --broker DIR' on any number of machines, "
          f"then 'repro shard collect --broker DIR --plan {args.plan}'.")
    return 0


def command_shard_work(args) -> int:
    _check_cache_dir(args.cache_dir)
    _check_heartbeat(args)
    if args.max_idle_s is not None and not args.daemon:
        raise SystemExit("repro: --max-idle-s only applies to --daemon "
                         "workers (a non-daemon worker already exits when "
                         "the queue drains)")

    def on_manifest(lease: ShardLease, shard: ShardResults,
                    status: BrokerStatus) -> None:
        manifest = lease.manifest
        print(f"{worker.worker_id}: posted shard "
              f"{manifest.shard_index + 1}/{manifest.shard_count} "
              f"of plan {lease.plan!r} "
              f"({len(shard.results)} results; {status.render_line()})",
              flush=True)

    def on_renew(lease: ShardLease, renewed: bool) -> None:
        # Runs on the heartbeat thread; stderr like the trial progress.
        if not args.progress:
            return
        manifest = lease.manifest
        what = ("renewed lease on" if renewed
                else "lost lease on (abandoning)")
        print(f"{worker.worker_id}: {what} shard "
              f"{manifest.shard_index + 1}/{manifest.shard_count}",
              file=sys.stderr, flush=True)

    with _RunTelemetry(args) as tele:
        try:
            broker = _cli_broker(args)
            executor = ManifestExecutor(jobs=args.jobs,
                                        cache_dir=args.cache_dir,
                                        cache_max_entries=args.cache_max_entries)
            worker = ShardWorker(broker, executor, worker_id=args.worker_id,
                                 poll=args.poll, max_manifests=args.max_manifests,
                                 heartbeat=args.heartbeat, on_renew=on_renew,
                                 daemon=args.daemon, max_idle_s=args.max_idle_s)
            # SIGTERM/SIGINT ask the loop to stop: the in-flight manifest
            # finishes and posts, then run() returns — a clean drain-out
            # instead of a mid-manifest kill.
            previous_handlers = {}
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    previous_handlers[signum] = signal.signal(
                        signum, lambda *_: worker.stop())
                except ValueError:
                    pass  # not the main thread (in-process tests)
            try:
                completed = worker.run(progress=_progress(args),
                                       on_manifest=on_manifest)
            finally:
                for signum, handler in previous_handlers.items():
                    signal.signal(signum, handler)
        except ShardError as error:
            raise SystemExit(f"repro: {error}")
        except OSError as error:
            raise SystemExit(f"repro: broker {args.broker!r} I/O "
                             f"failed: {error}")
        summary = f"{worker.worker_id}: {len(completed)} manifest(s) executed"
        if worker.stopping:
            summary += " (stopped)"
        if worker.abandoned:
            summary += f", {worker.abandoned} abandoned (lease lost)"
        stats = executor.cache_stats()
        if stats is not None:
            summary += (f"; cache {stats['hits']} hit(s), "
                        f"{stats['misses']} miss(es)")
            if stats["evictions"]:
                summary += f", {stats['evictions']} evicted"
        print(summary)
        if len(worker.results_by_plan) > 1:
            for plan_label in sorted(worker.results_by_plan):
                line = (f"  plan {plan_label!r}: "
                        f"{len(worker.results_by_plan[plan_label])} "
                        "manifest(s)")
                delta = worker.cache_stats_by_plan.get(plan_label)
                if delta is not None:
                    line += (f"; cache {delta['hits']} hit(s), "
                             f"{delta['misses']} miss(es)")
                print(line)
        if completed:
            # One record per plan this worker touched: concurrent tenants
            # stay distinguishable in `runs list`/`diff`, and each record's
            # grid identity is that plan's (plans may differ in every
            # identity field).
            for plan_label in sorted(worker.results_by_plan):
                plan_shards = worker.results_by_plan[plan_label]
                reference = plan_shards[0].manifest
                indices = sorted(shard.manifest.shard_index
                                 for shard in plan_shards)
                subset = None
                if len(indices) < reference.shard_count:
                    # This worker executed a (race-dependent) slice of the
                    # plan; mark which shards so the record only compares
                    # against the identical slice, never a full run.
                    subset = _shard_subset(indices, reference.shard_count)
                context: Dict[str, object] = {
                    "broker": args.broker,
                    "worker_id": worker.worker_id,
                    "plan": plan_label,
                    "manifests": len(plan_shards),
                    "abandoned": worker.abandoned}
                delta = worker.cache_stats_by_plan.get(plan_label)
                if delta is not None:
                    context["cache"] = dict(delta)
                tele.record(
                    executor=_broker_executor(plan_label),
                    seed=reference.seed, trials=reference.trials,
                    jobs=args.jobs,
                    setting_keys=reference.setting_keys,
                    task_ids=reference.task_ids,
                    results_by_setting=_results_by_setting(plan_shards),
                    fingerprint=reference.fingerprint,
                    subset=subset,
                    context=context)
        elif tele.registry is not None:
            print("no manifests executed; nothing recorded in the registry")
    return 0


def command_shard_collect(args) -> int:
    name = args.plan
    with _RunTelemetry(args) as tele:
        try:
            broker = _cli_broker(args)
            plan_stat = broker.status().plan(name)
            while args.poll > 0 and (plan_stat is None
                                     or not plan_stat.complete):
                if args.progress:
                    waiting = (plan_stat.render_line() if plan_stat is not None
                               else "not yet submitted")
                    done = plan_stat.done if plan_stat is not None else 0
                    total = (plan_stat.shard_count
                             if plan_stat is not None else 0)
                    print(f"[{done}/{total}] waiting for plan {name!r}: "
                          f"{waiting}", file=sys.stderr, flush=True)
                time.sleep(args.poll)
                plan_stat = broker.status().plan(name)
            if plan_stat is not None and not plan_stat.complete:
                raise SystemExit(f"repro: plan {name!r} on broker "
                                 f"{args.broker!r} is "
                                 f"not complete: {plan_stat.render_line()}; "
                                 "run more workers or wait with --poll")
            # plan_stat is None (never submitted): fall through to
            # collect(), whose ShardError names the broker and the known
            # plan names.
            shards = broker.collect(name)
            outcomes = merge_shard_results(shards)
        except ShardError as error:
            raise SystemExit(f"repro: {error}")
        except OSError as error:
            raise SystemExit(f"repro: broker {args.broker!r} I/O "
                             f"failed: {error}")
        _emit_merged(shards, outcomes, report=args.report, export=args.export,
                     extra_config={"broker": args.broker,
                                   "plan": name})
        reference = shards[0].manifest
        tele.record(
            executor=_broker_executor(name),
            seed=reference.seed, trials=reference.trials, jobs=1,
            setting_keys=reference.setting_keys, task_ids=reference.task_ids,
            results_by_setting={key: outcome.results
                                for key, outcome in outcomes.items()},
            fingerprint=reference.fingerprint,
            # A collect record carries the full grid's *results* but its
            # wall clock measured only the coordinator's poll/merge, not
            # trial execution; the marker keeps it from silently diffing
            # as "same work" against records that actually ran trials.
            subset="collect",
            context={"broker": args.broker, "role": "collect",
                     "plan": name, "shards": reference.shard_count})
    return 0


def command_shard_status(args) -> int:
    try:
        status = _cli_broker(args).status()
    except ShardError as error:
        raise SystemExit(f"repro: {error}")
    except OSError as error:
        raise SystemExit(f"repro: broker {args.broker!r} I/O "
                         f"failed: {error}")
    if args.json:
        print(json.dumps(status.as_dict(), indent=2, sort_keys=True))
    else:
        print(status.render())
    return 0


# ----------------------------------------------------------------------
# trace show / export / id (timeline reconstruction from merged JSONL)
# ----------------------------------------------------------------------
def _trace_from_files(trace_id: str, paths: Sequence[str]):
    events: List[Dict[str, object]] = []
    for path in paths:
        try:
            events.extend(read_jsonl_events(path))
        except TelemetryError as error:
            raise SystemExit(f"repro: {error}")
        except OSError as error:
            raise SystemExit(f"repro: cannot read events file {path!r}: "
                             f"{error}")
    return build_trace(events, trace_id)


def command_trace_show(args) -> int:
    trace = _trace_from_files(args.trace_id, args.events)
    print(render_trace(trace))
    return 0 if trace.events else 1


def command_trace_export(args) -> int:
    trace = _trace_from_files(args.trace_id, args.events)
    payload = json.dumps(trace.as_dict(), indent=2, sort_keys=True)
    if args.out is not None:
        try:
            Path(args.out).write_text(payload + "\n", encoding="utf-8")
        except OSError as error:
            raise SystemExit(f"repro: cannot write {args.out!r}: {error}")
        print(f"wrote trace {trace.trace_id} ({len(trace.events)} events) "
              f"to {args.out}")
    else:
        print(payload)
    return 0 if trace.events else 1


def command_trace_id(args) -> int:
    from repro.bench.engine import TrialSpec, trial_seed

    spec = TrialSpec(task_id=args.task, setting_key=args.setting,
                     trial=args.trial,
                     seed=trial_seed(args.seed, args.task, args.setting,
                                     args.trial))
    print(spec.trace_id)
    return 0


def command_trace(args) -> int:
    handlers = {
        "show": command_trace_show,
        "export": command_trace_export,
        "id": command_trace_id,
    }
    return handlers[args.trace_command](args)


def command_shard(args) -> int:
    handlers = {
        "plan": command_shard_plan,
        "run": command_shard_run,
        "merge": command_shard_merge,
        "submit": command_shard_submit,
        "work": command_shard_work,
        "collect": command_shard_collect,
        "status": command_shard_status,
    }
    return handlers[args.shard_command](args)


# ----------------------------------------------------------------------
# runs list / show / diff (the run registry)
# ----------------------------------------------------------------------
def _silence_stdout() -> None:
    """Point stdout at devnull after a BrokenPipeError, so the
    interpreter's exit-time flush doesn't raise again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _open_registry(args) -> RunRegistry:
    registry = RunRegistry.from_env(args.registry)
    if registry is None:
        raise SystemExit("repro: no run registry selected: pass "
                         "--registry DIR or set $REPRO_REGISTRY")
    return registry


def command_runs_list(args) -> int:
    registry = _open_registry(args)
    records, problems = registry.load_all_tolerant()
    for problem in problems:
        print(f"repro: skipping unreadable run record: {problem}",
              file=sys.stderr)
    # Newest first: run ids sort chronologically (timestamp-prefixed), so
    # the latest run is always the first line — deterministic even for
    # same-second runs thanks to the id's microsecond+nonce tail.
    records = sorted(records, key=lambda record: record.run_id, reverse=True)
    if args.ids:
        for record in records:
            print(record.run_id)
        return 0
    if not records:
        print(f"no runs recorded in {registry.root}")
        return 0
    # Width fits new_run_id()'s 29-char "YYYYMMDD-HHMMSS.ffffff-xxxxxx".
    header = (f"{'run id':<29s} {'created (UTC)':<21s} {'executor':<13s} "
              f"{'trials':>6s} {'wall s':>9s} settings")
    print(header)
    print("-" * len(header))
    for record in records:
        print(f"{record.run_id:<29s} {record.created_at:<21s} "
              f"{record.executor:<13s} {record.trial_count:>6d} "
              f"{record.wall_clock_s:>9.2f} {','.join(record.setting_keys)}")
    return 0


def command_runs_show(args) -> int:
    registry = _open_registry(args)
    try:
        record = registry.resolve(args.run_id)
    except RegistryError as error:
        raise SystemExit(f"repro: {error}")
    print(json.dumps(record.as_dict(), indent=2, ensure_ascii=False))
    return 0


def command_runs_diff(args) -> int:
    registry = _open_registry(args)
    try:
        specs = [FailIf.parse(text) for text in args.fail_if]
        before = registry.resolve(args.before)
        after = registry.resolve(args.after)
    except RegistryError as error:
        raise SystemExit(f"repro: {error}")
    rows = diff_runs(before, after)
    violations = check_fail_ifs(rows, specs)
    # This command is a CI gate: its exit code must survive a downstream
    # `| head` closing stdout mid-table, so the violations are computed
    # first and the pipe error is absorbed *here* (main()'s catch-all
    # would turn the exit code into 0).
    try:
        print(render_diff(before, after, rows))
    except BrokenPipeError:
        _silence_stdout()
    for message in violations:
        print(f"repro: regression: {message}", file=sys.stderr)
    return 1 if violations else 0


def command_runs(args) -> int:
    handlers = {
        "list": command_runs_list,
        "show": command_runs_show,
        "diff": command_runs_diff,
    }
    return handlers[args.runs_command](args)


# ----------------------------------------------------------------------
# cache stats / gc (offline-model cache maintenance)
# ----------------------------------------------------------------------
def _open_cache(cache_dir: str) -> ArtifactCache:
    path = Path(cache_dir)
    if not path.is_dir():
        raise SystemExit(f"repro: --cache-dir {cache_dir!r} is not a "
                         "directory")
    return ArtifactCache(path, DMIConfig())


def command_cache_stats(args) -> int:
    cache = _open_cache(args.cache_dir)
    rows = cache.inventory()
    if not rows:
        print(f"cache {args.cache_dir} is empty")
        return 0
    width = max(len(str(row["entry"])) for row in rows)
    print(f"{'entry':<{width}s} {'bytes':>10s} {'last load age':>14s}")
    for row in rows:
        print(f"{row['entry']:<{width}s} {row['bytes']:>10d} "
              f"{row['age_s']:>13.1f}s")
    total = sum(int(row["bytes"]) for row in rows)
    print(f"{len(rows)} entr{'y' if len(rows) == 1 else 'ies'}, "
          f"{total} bytes total in {args.cache_dir}")
    return 0


def command_cache_gc(args) -> int:
    cache = _open_cache(args.cache_dir)
    if args.max_age_s is None and args.max_bytes is None:
        print("repro: no --max-age-s or --max-bytes bound given; "
              "nothing to evict (use 'cache stats' to inspect)",
              file=sys.stderr)
    with _RunTelemetry(args) as tele:
        stats = cache.gc(max_age_s=args.max_age_s,
                         max_total_bytes=args.max_bytes)
        print(f"evicted {stats['evicted']} entr"
              f"{'y' if stats['evicted'] == 1 else 'ies'} "
              f"({stats['reclaimed_bytes']} bytes); "
              f"{stats['remaining_entries']} remaining "
              f"({stats['remaining_bytes']} bytes) in {args.cache_dir}")
        tele.record(
            executor="cache-gc", seed=0, trials=0, jobs=1,
            setting_keys=[], task_ids=[], results_by_setting={},
            fingerprint=config_fingerprint(cache.config),
            subset="cache-gc",
            context={"cache_dir": str(args.cache_dir),
                     "max_age_s": args.max_age_s,
                     "max_bytes": args.max_bytes,
                     "evicted": stats["evicted"],
                     "reclaimed_bytes": stats["reclaimed_bytes"],
                     "remaining_entries": stats["remaining_entries"],
                     "remaining_bytes": stats["remaining_bytes"]})
    return 0


def command_cache(args) -> int:
    handlers = {
        "stats": command_cache_stats,
        "gc": command_cache_gc,
    }
    return handlers[args.cache_command](args)


def command_tasks(args) -> int:
    for task in all_tasks():
        if args.app and task.app != args.app:
            continue
        print(f"{task.task_id:32s} [{task.app:10s}] {task.instruction}")
    return 0


def command_generate(args) -> int:
    """Resolve a synthetic spec and print its identity (no execution).

    The canonical token + digest are the seeding contract: any process
    given the token regenerates the same app and suite, so this output is
    what pipelines pass to ``--synthetic`` on ``run``/``shard submit``.
    """
    from repro.apps.synthetic import (SyntheticSpec, synthetic_suite,
                                      topology_digest)

    try:
        spec = SyntheticSpec.parse(args.spec)
    except ValueError as error:
        raise SystemExit(f"repro: {error}")
    suite = synthetic_suite(spec)
    if args.ids:
        for task in suite:
            print(task.task_id)
        return 0
    summary = {
        "token": spec.token(),
        "app": spec.app_name,
        "topology_digest": topology_digest(spec),
        "tasks": len(suite),
        "knobs": {"seed": spec.seed, "tabs": spec.tabs, "groups": spec.groups,
                  "controls": spec.controls, "gallery": spec.gallery,
                  "menu": spec.menu, "dialogs": spec.dialogs,
                  "cycle": spec.cycle, "contexts": spec.contexts},
    }
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"token:           {summary['token']}")
        print(f"app:             {summary['app']}")
        print(f"topology digest: {summary['topology_digest']}")
        print(f"tasks:           {summary['tasks']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "model": command_model,
        "run": command_run,
        "report": command_report,
        "shard": command_shard,
        "trace": command_trace,
        "runs": command_runs,
        "cache": command_cache,
        "tasks": command_tasks,
        "generate": command_generate,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # A downstream pager/head closed our stdout (e.g. `repro runs list
        # --ids | head -1`): exit cleanly.  Commands whose exit code *is*
        # the product (`runs diff --fail-if`) absorb the pipe error
        # themselves so it can't mask their verdict.
        _silence_stdout()
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
