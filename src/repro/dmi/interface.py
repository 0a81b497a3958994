"""The DMI facade: offline construction plus the online declarative surface.

``DMI`` bundles everything an agent needs:

* the offline artefacts — navigation forest, core topology, query engine —
  built once per application build (``build_dmi_for_app`` runs the full
  offline phase: rip -> decycle -> externalize -> forest -> core);
* the online interfaces — ``visit`` (access declaration), the state
  declarations and ``get_texts`` (observation declaration);
* prompt assembly and token accounting (usage prompt + core topology +
  passive DataItem digest), which the overhead bench (§5.4) measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.base import Application
from repro.dmi.errors import StructuredFeedback
from repro.dmi.matching import FuzzyControlMatcher
from repro.dmi.observation import ObservationConfig, ObservationInterface, PassiveDigest
from repro.dmi.state import StateInterfaces
from repro.dmi.visit import VisitConfig, VisitExecutor, VisitResult
from repro.llm.tokens import estimate_tokens
from repro.ripping.blocklist import AccessBlocklist
from repro.ripping.ripper import GuiRipper, RipperConfig, RipReport
from repro.ripping.ung import NavigationGraph
from repro.topology.core import CoreTopology, CoreTopologyConfig, extract_core
from repro.topology.decycle import decycle
from repro.topology.externalize import ExternalizationConfig, plan_externalization
from repro.topology.forest import NavigationForest, build_forest
from repro.topology.query import QueryEngine, QueryResult
from repro.topology.serialize import SerializationConfig

#: The DMI usage prompt an agent prepends to every call.  Kept as data so the
#: token-overhead bench can measure it; the wording summarises the interface
#: contract the paper describes.
DMI_USAGE_PROMPT = """\
You can operate this application through the Declarative Model Interface (DMI).
Prefer DMI over raw GUI actions.

Access declaration:
  visit([{"id": <target_id>}, {"id": <target_id>, "entry_ref_id": ["<ref_id>"]},
         {"id": <target_id>, "text": "<text>"}, {"shortcut_key": "<keys>"}])
  - Give only FUNCTIONAL (leaf) control ids from the navigation topology below.
  - DMI performs all navigation and the primitive interaction for you.
  - Multiple commands may be batched in one call; do not mix visit with the
    interaction-related interfaces in the same turn.
  - {"further_query": ["<node_id>", ...]} retrieves additional topology
    (use -1 for the whole forest); it cannot be mixed with other commands.

State declaration (operate on controls labelled on the CURRENT screen):
  set_scrollbar_pos(control, x_percent, y_percent)
  select_lines(control, start, end) / select_paragraphs(control, start, end)
  select_controls([controls])
  set_toggle_state(control, on) / set_expanded(control) / set_collapsed(control)

Observation declaration:
  get_texts(control) returns structured text; a truncated digest of on-screen
  data items is already included below.
"""

#: Token count of :data:`DMI_USAGE_PROMPT`, counted once.
DMI_USAGE_PROMPT_TOKENS = estimate_tokens(DMI_USAGE_PROMPT)


@dataclass
class DMIConfig:
    """Configuration of the offline build and the online executors."""

    ripper: RipperConfig = field(default_factory=RipperConfig)
    externalization: ExternalizationConfig = field(default_factory=ExternalizationConfig)
    core: CoreTopologyConfig = field(default_factory=CoreTopologyConfig)
    serialization: SerializationConfig = field(default_factory=SerializationConfig)
    visit: VisitConfig = field(default_factory=VisitConfig)
    observation: ObservationConfig = field(default_factory=ObservationConfig)


@dataclass
class OfflineArtifacts:
    """Everything produced by the offline modeling phase for one application."""

    ung: NavigationGraph
    forest: NavigationForest
    core: CoreTopology
    rip_report: RipReport

    def summary(self) -> Dict[str, object]:
        return {
            "app": self.ung.app_name,
            "ung_nodes": self.ung.node_count(),
            "ung_edges": self.ung.edge_count(),
            "merge_nodes": len(self.ung.merge_node_ids()),
            "forest_nodes": self.forest.node_count(),
            "shared_subtrees": len(self.forest.shared_subtrees),
            "core_nodes": self.core.visible_node_count(),
            "core_tokens": self.core.token_estimate(),
            "modeling_seconds": self.rip_report.duration_seconds,
        }


class DMI:
    """The online DMI instance bound to one live application."""

    def __init__(self, app: Application, artifacts: OfflineArtifacts,
                 config: Optional[DMIConfig] = None) -> None:
        self.app = app
        self.artifacts = artifacts
        self.config = config or DMIConfig()
        self.matcher = FuzzyControlMatcher()
        self.visit_executor = VisitExecutor(app, artifacts.forest, matcher=self.matcher,
                                            config=self.config.visit)
        self.state = StateInterfaces(app, matcher=self.matcher)
        self.observation = ObservationInterface(app, matcher=self.matcher,
                                                config=self.config.observation)
        self.query_engine = QueryEngine(artifacts.forest, artifacts.core,
                                        serialization=self.config.serialization)

    # ------------------------------------------------------------------
    # prompt assembly / token accounting
    # ------------------------------------------------------------------
    @property
    def forest(self) -> NavigationForest:
        return self.artifacts.forest

    @property
    def core(self) -> CoreTopology:
        return self.artifacts.core

    def usage_prompt(self) -> str:
        return DMI_USAGE_PROMPT

    def passive_digest(self) -> PassiveDigest:
        return self.observation.passive_digest()

    def initial_context(self) -> str:
        """Usage prompt + core topology + passive DataItem digest."""
        return "\n\n".join([
            self.usage_prompt(),
            "## Navigation topology (core view)",
            self.query_engine.initial_prompt_text(),
            self.passive_digest().to_prompt_text(),
        ])

    def context_token_breakdown(self) -> Dict[str, int]:
        """Token cost of each context component (paper §5.4)."""
        usage = DMI_USAGE_PROMPT_TOKENS
        topology = self.core.token_estimate()
        digest = self.passive_digest().token_estimate()
        return {
            "usage_prompt": usage,
            "navigation_topology": topology,
            "dataitem_digest": digest,
            "total": usage + topology + digest,
        }

    # ------------------------------------------------------------------
    # declarative surface
    # ------------------------------------------------------------------
    def visit(self, commands: Sequence[Dict[str, object]]) -> VisitResult:
        """Access declaration."""
        result = self.visit_executor.execute(commands)
        if result.further_query_ids:
            # Answer the query through the engine so the caller gets text.
            query = self.further_query(result.further_query_ids)
            from repro.dmi.errors import ok_feedback

            result.feedback.append(ok_feedback(
                "further_query_answer",
                target=str(result.further_query_ids),
                tokens=query.tokens,
            ))
        return result

    def further_query(self, node_ids: Sequence[int]) -> QueryResult:
        return self.query_engine.further_query(list(node_ids))

    # state declarations --------------------------------------------------
    def set_scrollbar_pos(self, control_label: str, x_percent: Optional[float] = None,
                          y_percent: Optional[float] = None) -> StructuredFeedback:
        return self.state.set_scrollbar_pos(control_label, x_percent, y_percent)

    def select_lines(self, control_label: str, start: int,
                     end: Optional[int] = None) -> StructuredFeedback:
        return self.state.select_lines(control_label, start, end)

    def select_paragraphs(self, control_label: str, start: int,
                          end: Optional[int] = None) -> StructuredFeedback:
        return self.state.select_paragraphs(control_label, start, end)

    def select_controls(self, control_labels: Sequence[str],
                        mode: str = "replace") -> StructuredFeedback:
        return self.state.select_controls(control_labels, mode=mode)

    def set_toggle_state(self, control_label: str, on: bool) -> StructuredFeedback:
        return self.state.set_toggle_state(control_label, on)

    def set_expanded(self, control_label: str) -> StructuredFeedback:
        return self.state.set_expanded(control_label)

    def set_collapsed(self, control_label: str) -> StructuredFeedback:
        return self.state.set_collapsed(control_label)

    def set_value(self, control_label: str, value: object) -> StructuredFeedback:
        return self.state.set_value(control_label, value)

    # observation declaration ---------------------------------------------
    def get_texts(self, control_label: Optional[str] = None) -> StructuredFeedback:
        return self.observation.get_texts(control_label)


# ----------------------------------------------------------------------
# offline phase
# ----------------------------------------------------------------------
def build_offline_artifacts(app: Application, config: Optional[DMIConfig] = None,
                            blocklist: Optional[AccessBlocklist] = None) -> OfflineArtifacts:
    """Run the offline modeling phase on (a scratch instance of) ``app``."""
    config = config or DMIConfig()
    ripper = GuiRipper(app, blocklist=blocklist, config=config.ripper)
    ung = ripper.rip()
    return rebuild_offline_artifacts(ung, config, rip_report=ripper.report)


def rebuild_offline_artifacts(ung: NavigationGraph, config: Optional[DMIConfig] = None,
                              rip_report: Optional[RipReport] = None) -> OfflineArtifacts:
    """Derive the forest/core artefacts from an already-ripped UNG.

    The transformation pipeline (decycle -> externalize -> forest -> core) is
    a deterministic function of the UNG, so a graph persisted via
    :mod:`repro.topology.persistence` — on this machine or another — yields
    artefacts identical to a fresh offline build without touching the GUI.
    """
    config = config or DMIConfig()
    dag = decycle(ung)
    plan = plan_externalization(dag, config.externalization)
    forest = build_forest(ung, dag=dag, plan=plan)
    core = extract_core(forest, config.core)
    return OfflineArtifacts(ung=ung, forest=forest, core=core,
                            rip_report=rip_report or RipReport(app_name=ung.app_name))


def build_dmi_for_app(app: Application, config: Optional[DMIConfig] = None,
                      artifacts: Optional[OfflineArtifacts] = None,
                      blocklist: Optional[AccessBlocklist] = None) -> DMI:
    """Build a DMI instance for ``app``.

    ``artifacts`` may be passed to reuse an offline model built from another
    instance of the same application build (the paper notes the model is
    version-specific but reusable across machines); otherwise the offline
    phase runs against ``app`` itself.
    """
    config = config or DMIConfig()
    if artifacts is None:
        artifacts = build_offline_artifacts(app, config, blocklist=blocklist)
    return DMI(app, artifacts, config)
