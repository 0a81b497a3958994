"""An OSWorld-W-style benchmark and the evaluation harness.

27 single-application tasks (9 each for the Word-, Excel- and PowerPoint-like
applications), programmatic checkers over final application state, a runner
that executes every (interface, model) configuration from the paper's
Table 3 with three trials per task and a 30-step cap, plus the metric and
report generators behind every table and figure in the evaluation section.
"""

from repro.bench.telemetry import (
    AggregatingSink,
    EventSink,
    JsonlSink,
    MetricsSnapshotSink,
    NullSink,
    TeeSink,
    TelemetryError,
    TelemetryEvent,
    read_jsonl_events,
    set_default_sink,
    use_sink,
)
from repro.bench.registry import (
    RegistryError,
    RunRecord,
    RunRegistry,
    build_run_record,
)
from repro.bench.trajectory import (
    FailIf,
    diff_runs,
    export_bench,
    flatten_metrics,
)
from repro.bench.tasks import all_tasks, tasks_for_app
from repro.bench.engine import (
    Executor,
    ParallelExecutor,
    ProgressEvent,
    SerialExecutor,
    TrialSpec,
    expand_trial_specs,
    trial_seed,
)
from repro.bench.runner import (
    BenchmarkConfig,
    BenchmarkRunner,
    DEFAULT_SEED,
    EvaluationSetting,
    RunOutcome,
)
from repro.bench.shard import (
    MANIFEST_FORMAT_VERSION,
    ManifestExecutor,
    ShardError,
    ShardManifest,
    ShardPlan,
    ShardResults,
    merge_shard_results,
    plan_shards,
    shard_file_name,
)
from repro.bench.store import (
    FileSystemObjectStore,
    InMemoryObjectStore,
    ObjectStore,
)
from repro.bench.transport import (
    DEFAULT_LEASE_TTL,
    DEFAULT_PLAN,
    BrokerStatus,
    LeaseHeartbeat,
    ObjectStoreBroker,
    PlanStatus,
    ShardLease,
    ShardWorker,
    validate_plan_name,
)
from repro.bench.metrics import (
    MetricSummary,
    aggregate,
    normalized_core_steps,
    one_shot_rate,
    success_rate,
)
from repro.bench.failures import failure_distribution, failure_breakdown
from repro.bench import reporting

__all__ = [
    "AggregatingSink",
    "BenchmarkConfig",
    "BenchmarkRunner",
    "BrokerStatus",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_PLAN",
    "DEFAULT_SEED",
    "EvaluationSetting",
    "EventSink",
    "Executor",
    "FailIf",
    "FileSystemObjectStore",
    "InMemoryObjectStore",
    "JsonlSink",
    "LeaseHeartbeat",
    "MANIFEST_FORMAT_VERSION",
    "ManifestExecutor",
    "MetricSummary",
    "MetricsSnapshotSink",
    "NullSink",
    "ObjectStore",
    "ObjectStoreBroker",
    "ParallelExecutor",
    "PlanStatus",
    "ProgressEvent",
    "RegistryError",
    "RunOutcome",
    "RunRecord",
    "RunRegistry",
    "SerialExecutor",
    "ShardError",
    "ShardLease",
    "ShardManifest",
    "ShardPlan",
    "ShardResults",
    "ShardWorker",
    "TeeSink",
    "TelemetryError",
    "TelemetryEvent",
    "TrialSpec",
    "aggregate",
    "all_tasks",
    "build_run_record",
    "diff_runs",
    "expand_trial_specs",
    "export_bench",
    "failure_breakdown",
    "failure_distribution",
    "flatten_metrics",
    "merge_shard_results",
    "normalized_core_steps",
    "one_shot_rate",
    "plan_shards",
    "read_jsonl_events",
    "reporting",
    "set_default_sink",
    "shard_file_name",
    "success_rate",
    "tasks_for_app",
    "trial_seed",
    "use_sink",
    "validate_plan_name",
]
