"""Regression-aware run comparison: ``repro runs diff A B``.

:func:`diff_runs` flattens two :class:`~repro.bench.registry.RunRecord`\\ s
into one numeric metric namespace (:func:`flatten_metrics`: wall clock,
trial count, every telemetry counter, timer totals, and the per-setting
Table 3 aggregates as ``<setting>.<metric>``) and tabulates the deltas;
:class:`FailIf` turns ``--fail-if wall_clock>+10%`` style thresholds into
pass/fail verdicts so CI can gate on regressions.

The repository's perf trajectory (``BENCH_<n>.json``) is not built from run
records: ``benchmarks/trajectory_point.py`` writes each point from the
``dmibench`` workloads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.registry import RegistryError, RunRecord
from repro.bench.telemetry import EVENT_NAMES, SIMULATED_TIMERS


def flatten_metrics(record: RunRecord) -> Dict[str, float]:
    """One flat ``{metric_name: number}`` view of a record.

    Namespace: ``wall_clock`` and ``trial_count`` from the record itself;
    every telemetry counter under its own name (``cache_misses`` style is
    the raw event name, e.g. ``cache_miss``); each timer's total seconds as
    ``<timer>_total_s``, prefixed ``sim_`` for the simulated timers
    (:data:`~repro.bench.telemetry.SIMULATED_TIMERS`) so that no perf gate
    reads simulated seconds as measured ones; and each per-setting
    aggregate metric as ``<setting_key>.<metric>``.

    Every *known* event counter is present, defaulting to ``0.0``: an
    AggregatingSink only creates counters for events that occurred, but a
    run with zero cache misses must gate as ``cache_miss == 0``, not as
    "metric missing".
    """
    flat: Dict[str, float] = {
        "wall_clock": record.wall_clock_s,
        "trial_count": float(record.trial_count),
    }
    flat.update({name: 0.0 for name in EVENT_NAMES})
    for name, value in record.counters.items():
        flat[name] = float(value)
    for name, stats in record.timers.items():
        total = stats.get("total_s") if isinstance(stats, dict) else None
        if isinstance(total, (int, float)) and not isinstance(total, bool):
            prefix = "sim_" if name in SIMULATED_TIMERS else ""
            flat[f"{prefix}{name}_total_s"] = float(total)
    for setting_key, summary in record.metrics.items():
        if not isinstance(summary, dict):
            continue
        for metric, value in summary.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                flat[f"{setting_key}.{metric}"] = float(value)
    return flat


@dataclass(frozen=True)
class DiffRow:
    """One metric's before/after in a run diff."""

    metric: str
    before: Optional[float]   # None: metric absent from that record
    after: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        if self.before is None or self.after is None:
            return None
        return self.after - self.before

    @property
    def percent(self) -> Optional[float]:
        """Relative change in percent, or None when undefined."""
        if self.delta is None or self.before == 0:
            return None
        return self.delta / abs(self.before) * 100.0


def diff_runs(before: RunRecord, after: RunRecord) -> List[DiffRow]:
    """Per-metric delta rows over the union of both records' metrics."""
    ours = flatten_metrics(before)
    theirs = flatten_metrics(after)
    return [DiffRow(metric=name, before=ours.get(name), after=theirs.get(name))
            for name in sorted(set(ours) | set(theirs))]


def render_diff(before: RunRecord, after: RunRecord,
                rows: Sequence[DiffRow]) -> str:
    """The ``repro runs diff`` table (changed metrics only, widest first)."""
    lines = [f"runs diff: {before.run_id} ({before.executor}) -> "
             f"{after.run_id} ({after.executor})"]
    if before.config_key != after.config_key:
        lines.append("warning: the runs measure different grids "
                     f"(config_key {before.config_key} vs "
                     f"{after.config_key}); deltas compare unlike work")
    header = f"{'metric':<40s} {'before':>12s} {'after':>12s} " \
             f"{'delta':>12s} {'%':>8s}"
    lines += [header, "-" * len(header)]
    changed = 0
    for row in rows:
        if row.delta == 0:
            continue
        changed += 1

        def cell(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:12.4g}"

        percent = "-" if row.percent is None else f"{row.percent:+7.1f}%"
        lines.append(f"{row.metric:<40s} {cell(row.before):>12s} "
                     f"{cell(row.after):>12s} {cell(row.delta):>12s} "
                     f"{percent:>8s}")
    if not changed:
        lines.append("(no metric changed)")
    lines.append(f"{changed} metric(s) changed, "
                 f"{len(rows) - changed} unchanged")
    return "\n".join(lines)


_FAIL_IF_RE = re.compile(
    r"^\s*(?P<metric>[A-Za-z0-9_.\-]+)\s*(?P<op>[<>])\s*"
    r"(?P<value>[+-]?\d+(?:\.\d+)?)\s*(?P<pct>%)?\s*$")


@dataclass(frozen=True)
class FailIf:
    """One ``--fail-if`` regression threshold, e.g. ``wall_clock>+10%``.

    Semantics: with ``delta = after - before``, the diff *fails* when
    ``delta OP threshold`` holds, where a ``%`` threshold is relative to
    the before value (``threshold = value/100 * |before|``).  So
    ``wall_clock>+10%`` fails on a >10 % slowdown and ``cache_hit<-2``
    fails when the hit counter drops by more than 2.
    """

    metric: str
    op: str              # ">" or "<"
    value: float
    percent: bool

    @classmethod
    def parse(cls, text: str) -> "FailIf":
        match = _FAIL_IF_RE.match(text)
        if match is None:
            raise RegistryError(
                f"invalid --fail-if spec {text!r}: expected "
                "METRIC>+N[%] or METRIC<-N[%], e.g. 'wall_clock>+10%'")
        return cls(metric=match.group("metric"), op=match.group("op"),
                   value=float(match.group("value")),
                   percent=match.group("pct") is not None)

    def check(self, row: DiffRow) -> Optional[str]:
        """A violation message if ``row`` trips this threshold, else None."""
        if row.before is None or row.after is None:
            return (f"{self.metric}: metric is missing from "
                    f"{'the before' if row.before is None else 'the after'} "
                    "run; cannot gate on it")
        delta = row.after - row.before
        if self.percent:
            if row.before == 0:
                # No baseline to be relative to: any move in the failing
                # direction trips a percent threshold.
                exceeded = delta > 0 if self.op == ">" else delta < 0
            else:
                threshold = self.value / 100.0 * abs(row.before)
                exceeded = delta > threshold if self.op == ">" \
                    else delta < threshold
            shown = f"{self.value:+g}%"
        else:
            exceeded = delta > self.value if self.op == ">" \
                else delta < self.value
            shown = f"{self.value:+g}"
        if not exceeded:
            return None
        percent = "" if row.percent is None else f" ({row.percent:+.1f}%)"
        return (f"{self.metric}: {row.before:g} -> {row.after:g}, delta "
                f"{delta:+g}{percent} exceeds --fail-if "
                f"{self.metric}{self.op}{shown}")


def check_fail_ifs(rows: Sequence[DiffRow],
                   specs: Sequence[FailIf]) -> List[str]:
    """All violation messages for ``specs`` against a diff's rows."""
    by_metric = {row.metric: row for row in rows}
    violations: List[str] = []
    for spec in specs:
        row = by_metric.get(spec.metric)
        if row is None:
            violations.append(f"{spec.metric}: metric is missing from both "
                              "runs; cannot gate on it")
            continue
        message = spec.check(row)
        if message is not None:
            violations.append(message)
    return violations
