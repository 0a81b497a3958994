"""Report generators: one renderer per table / figure in the paper.

Each function takes already-computed benchmark outcomes and returns the
formatted text the corresponding bench prints, so the mapping
"paper artefact -> code that regenerates it" stays explicit: one
``benchmarks/test_<table-or-figure>_*.py`` per artefact.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.agent.session import SessionResult
from repro.bench.failures import failure_breakdown, failure_distribution
from repro.bench.metrics import aggregate, normalized_core_steps, one_shot_rate
from repro.bench.runner import RunOutcome
from repro.dmi.interface import OfflineArtifacts
from repro.dmi.state import INTERFACE_PATTERN_TABLE


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return " | ".join(str(cell).ljust(width) for cell, width in zip(cells, widths))


def _interface_label(outcome: RunOutcome) -> str:
    mapping = {
        "gui-only": "GUI-only",
        "gui-only+nav.forest": "GUI-only",
        "gui+dmi": "GUI+DMI",
    }
    value = outcome.setting.interface.value
    label = mapping.get(value)
    if label is None:
        raise ValueError(
            f"no Table 3 interface label for interface {value!r} "
            f"(setting {outcome.setting.key!r}); add it to the "
            "_interface_label mapping")
    return label


def _model_label(outcome: RunOutcome) -> str:
    name = outcome.setting.profile.name
    return "5-mini" if name == "gpt-5-mini" else "GPT-5"


# ----------------------------------------------------------------------
# Table 3
# ----------------------------------------------------------------------
def render_table3(outcomes: Mapping[str, RunOutcome]) -> str:
    """'Results across interfaces and models' (SR / Steps / Time)."""
    widths = (10, 12, 8, 10, 8, 7, 9)
    lines = ["Table 3. Results across interfaces and models.",
             _format_row(("Interface", "Knowledge", "Model", "Reasoning", "SR", "Steps",
                          "Time(s)"), widths),
             "-" * 76]
    for outcome in outcomes.values():
        summary = aggregate(outcome.results)
        lines.append(_format_row((
            _interface_label(outcome),
            outcome.setting.knowledge,
            _model_label(outcome),
            outcome.setting.profile.reasoning.title(),
            f"{summary.success_rate * 100:.1f}%",
            f"{summary.avg_steps:.2f}",
            f"{summary.avg_time_s:.0f}",
        ), widths))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 5a / 5b
# ----------------------------------------------------------------------
def render_figure5a(outcomes: Mapping[str, RunOutcome], bar_width: int = 40) -> str:
    """Success-rate bars per interface x model (Figure 5a)."""
    lines = ["Figure 5a. Success rate (%).", ""]
    for outcome in outcomes.values():
        summary = aggregate(outcome.results)
        share = summary.success_rate
        bar = "#" * int(round(share * bar_width))
        label = (f"{_model_label(outcome)} ({outcome.setting.profile.reasoning}) "
                 f"{_interface_label(outcome)}"
                 + (" +Nav.forest" if outcome.setting.interface.value == "gui-only+nav.forest"
                    else ""))
        lines.append(f"{label:<46} {share * 100:5.1f}% |{bar}")
    return "\n".join(lines)


def render_figure5b(outcomes: Mapping[str, RunOutcome], groups: Sequence[Sequence[str]],
                    bar_width: int = 40) -> str:
    """Normalized core steps over the intersection of solved tasks (Figure 5b).

    ``groups`` lists, per model configuration, the outcome keys to compare
    (e.g. GUI-only, ablation and GUI+DMI under GPT-5 medium).
    """
    lines = ["Figure 5b. Normalized core steps (intersection of tasks solved by all "
             "compared methods; framework overhead excluded).", ""]
    for group in groups:
        present = {key: outcomes[key].results for key in group if key in outcomes}
        if not present:
            continue
        normalized = normalized_core_steps(present)
        # max(...) or 1.0 keeps peak positive even when every value is 0.0
        # (empty solved-task intersection), so dividing is always safe.
        peak = max(normalized.values()) or 1.0
        for key in group:
            if key not in normalized:
                continue
            outcome = outcomes[key]
            value = normalized[key]
            bar = "#" * int(round((value / peak) * bar_width))
            label = (f"{_model_label(outcome)} ({outcome.setting.profile.reasoning}) "
                     f"{_interface_label(outcome)}"
                     + (" +Nav.forest" if outcome.setting.interface.value ==
                        "gui-only+nav.forest" else ""))
            lines.append(f"{label:<46} {value:5.2f} |{bar}")
        lines.append("")
    return "\n".join(lines).rstrip()


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------
def render_figure6(dmi_results: Sequence[SessionResult],
                   gui_results: Sequence[SessionResult]) -> str:
    """Failure-cause distribution, policy vs mechanism (Figure 6)."""
    lines = ["Figure 6. Failure-cause distribution (policy vs mechanism)."]
    for label, results in (("GUI+DMI", dmi_results), ("GUI-only baseline", gui_results)):
        distribution = failure_distribution(results)
        lines.append("")
        lines.append(f"{label}: {distribution['failures']} failures")
        lines.append(f"  policy-level:    {distribution['policy']:3d} "
                     f"({distribution['policy_share'] * 100:.1f}%)")
        lines.append(f"  mechanism-level: {distribution['mechanism']:3d} "
                     f"({distribution['mechanism_share'] * 100:.1f}%)")
        for cause, count in sorted(failure_breakdown(results).items(),
                                   key=lambda item: -item[1]):
            lines.append(f"    {cause:<42} {count}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table 1 / Table 2
# ----------------------------------------------------------------------
def render_table1(gui_trace: Sequence[str], dmi_trace: Sequence[str],
                  gui_trace2: Sequence[str], dmi_trace2: Sequence[str]) -> str:
    """Imperative GUI vs declarative DMI command traces for the two example tasks."""
    lines = ["Table 1. Task examples: imperative GUI vs declarative DMI.", ""]
    lines.append("Task 1 (make the background blue on all slides):")
    lines.append("  GUI: " + " -> ".join(gui_trace))
    lines.append("  DMI: " + "; ".join(dmi_trace))
    lines.append("")
    lines.append("Task 2 (show the area close to the end):")
    lines.append("  GUI: " + " -> ".join(gui_trace2))
    lines.append("  DMI: " + "; ".join(dmi_trace2))
    return "\n".join(lines)


def render_table2() -> str:
    """State/observation declaration interfaces and their UIA patterns."""
    lines = ["Table 2. State and observation declaration interfaces.",
             _format_row(("Interface", "Control pattern"), (22, 28)),
             "-" * 52]
    for interface, pattern in INTERFACE_PATTERN_TABLE.items():
        lines.append(_format_row((interface, pattern), (22, 28)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# §5.2 offline modeling, §5.3 one-shot, §5.4 overhead
# ----------------------------------------------------------------------
def render_offline_modeling(artifacts: Mapping[str, OfflineArtifacts]) -> str:
    """Offline-phase statistics (§5.2): raw UNG size, forest, core topology."""
    widths = (12, 10, 10, 12, 14, 12, 12)
    lines = ["Offline phase: UI navigation modeling (paper §5.2).",
             _format_row(("App", "UNG nodes", "UNG edges", "Merge nodes", "Forest nodes",
                          "Subtrees", "Core nodes"), widths),
             "-" * 92]
    for name, art in artifacts.items():
        summary = art.summary()
        lines.append(_format_row((
            name, summary["ung_nodes"], summary["ung_edges"], summary["merge_nodes"],
            summary["forest_nodes"], summary["shared_subtrees"], summary["core_nodes"],
        ), widths))
        lines.append(f"    modeling time: {summary['modeling_seconds']:.1f}s, "
                     f"core tokens: {summary['core_tokens']}")
    return "\n".join(lines)


def render_one_shot(outcomes: Mapping[str, RunOutcome], dmi_key: str) -> str:
    """One-shot task completion (§5.3)."""
    outcome = outcomes[dmi_key]
    rate = one_shot_rate(outcome.results)
    summary = aggregate(outcome.results)
    lines = [
        "One-shot task completion (paper §5.3).",
        f"Setting: {outcome.setting.label}",
        f"Successful trials completed with a single core LLM call (4 total steps): "
        f"{rate * 100:.1f}%",
        f"Average steps on successful trials: {summary.avg_steps:.2f} "
        f"(core {summary.avg_core_steps:.2f} + 3 framework overhead)",
    ]
    return "\n".join(lines)


def render_token_overhead(per_app_breakdown: Mapping[str, Mapping[str, int]],
                          per_control_tokens: Mapping[str, float],
                          per_task_tokens: Optional[Mapping[str, Dict[str, float]]] = None) -> str:
    """Token overhead of the DMI context (§5.4)."""
    lines = ["Token overhead (paper §5.4)."]
    for app, breakdown in per_app_breakdown.items():
        lines.append(f"\n{app}:")
        for component, tokens in breakdown.items():
            lines.append(f"  {component:<22} {tokens:>8}")
        lines.append(f"  tokens per control     {per_control_tokens.get(app, 0.0):8.1f}")
    if per_task_tokens:
        lines.append("\nAverage total tokens per task (successful trials):")
        for setting, values in per_task_tokens.items():
            lines.append(f"  {setting:<28} prompt {values.get('prompt', 0):>9.0f}   "
                         f"total {values.get('total', 0):>9.0f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# §5.5 ablation
# ----------------------------------------------------------------------
def render_ablation(outcomes: Mapping[str, RunOutcome],
                    triples: Sequence[Sequence[str]]) -> str:
    """Ablation summary (§5.5): baseline vs +Nav.forest vs full DMI."""
    lines = ["Ablation (paper §5.5): is the gain from the declarative interface or from "
             "the static knowledge?", ""]
    for triple in triples:
        for key in triple:
            if key not in outcomes:
                continue
            outcome = outcomes[key]
            summary = aggregate(outcome.results)
            lines.append(f"{outcome.setting.label:<58} SR {summary.success_rate * 100:5.1f}%  "
                         f"steps {summary.avg_steps:5.2f}")
        lines.append("")
    return "\n".join(lines).rstrip()
