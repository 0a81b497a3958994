"""The GUI-only AppAgent (the UFO2-as-style baseline).

The agent drives an application exclusively through imperative GUI actions.
Each LLM round it labels the currently visible controls, asks the policy
simulator for the next actions, and executes an *action sequence*: as many
of the remaining plan steps as reference controls that were visible at the
start of the round (the baseline cannot plan over controls that are not yet
exposed — paper §5.1 and §5.3).

The round loop reproduces the mechanism-level fragility the paper measures:

* **grounding errors** — a targeted click may land on a neighbouring control;
* **navigation-planning errors** — a round may be spent opening the wrong
  branch;
* **recovery** — when the expected control is not on screen (usually the
  consequence of an earlier error) the agent closes stray dialogs and
  re-navigates the current intent from the top, burning extra rounds;
* **composite interactions** — scrollbar drags and text selections follow an
  observe–act loop with per-attempt failure probabilities;
* **step budget** — the task is capped at 30 LLM calls overall.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.agent.actions import deliver_click, deliver_scrollbar_drag, deliver_shortcut, deliver_text
from repro.agent.labeling import screen_prompt_tokens
from repro.agent.session import FailureRecord, InterfaceSetting, LLMCallRecord, SessionResult
from repro.apps.base import Application
from repro.gui.screen import ScreenView
from repro.gui.widgets import ScrollBarControl, Window
from repro.llm.grounding import GroundingModel
from repro.llm.planner import MicroStep, SemanticPlanner
from repro.llm.profiles import ModelProfile
from repro.spec import FailureCause, IntentKind, TaskSpec
from repro.topology.core import CoreTopology
from repro.topology.forest import NavigationForest
from repro.uia.element import UIElement
from repro.uia.patterns import PatternId


@dataclass
class GuiAgentConfig:
    """Budgets and prompt-size constants for the baseline agent."""

    #: Total LLM-call cap per task, including the 3-call framework overhead.
    max_total_steps: int = 30
    #: Tokens of the fixed AppAgent round prompt: system prompt, task and
    #: execution history, plus the screenshot the multimodal baseline sends
    #: each round (image tokens dominate).
    base_prompt_tokens: int = 4500
    #: Mean completion tokens per round.
    completion_tokens: int = 180
    #: Seconds charged per delivered low-level action.
    seconds_per_action: float = 0.4
    #: How many times the agent may re-navigate one intent before giving up.
    max_recoveries_per_intent: int = 2
    #: How many observe–act attempts a composite interaction gets.
    max_composite_attempts: int = 3
    #: Tolerance (percentage points) for scrollbar positioning.
    scroll_tolerance: float = 6.0
    #: Probability of continuing an action sequence with a further step in
    #: the same round.  The UFO2-style baseline *can* chain actions over
    #: currently visible controls, but in practice emits conservative,
    #: shorter sequences and re-observes frequently; this models that.
    chain_continuation_probability: float = 0.55


class GuiAppAgent:
    """Executes one task trial through imperative GUI actions only."""

    def __init__(self, app: Application, forest: NavigationForest, profile: ModelProfile,
                 setting: InterfaceSetting, rng: Optional[random.Random] = None,
                 config: Optional[GuiAgentConfig] = None,
                 core: Optional[CoreTopology] = None) -> None:
        self.app = app
        self.forest = forest
        self.core = core
        self.profile = profile
        self.setting = setting
        self.rng = rng or random.Random(0)
        self.config = config or GuiAgentConfig()
        self.planner = SemanticPlanner(profile, self.rng)
        self.grounding = GroundingModel(profile, self.rng)

    # ------------------------------------------------------------------
    def execute_task(self, task: TaskSpec, result: SessionResult) -> None:
        """Run the AppAgent execution phase; mutates ``result`` in place."""
        knows = self.profile.knows_app_structure or self.setting.has_forest_knowledge
        plan = self.planner.plan_imperative(task, self.forest, knows_structure=knows)
        steps = plan.steps
        index = 0
        recoveries: Dict[int, int] = {}
        composite_attempts: Dict[int, int] = {}
        visual_misread = False
        grounding_error_seen = False
        failure: Optional[FailureRecord] = None
        core_budget = self.config.max_total_steps - 3

        while index < len(steps):
            if result.core_steps >= core_budget:
                failure = FailureRecord(FailureCause.STEP_BUDGET_EXHAUSTED,
                                        detail="30-step cap reached")
                break
            views = self._views()
            visible = _elements(views)
            visible_names = {e.name for e in visible if e.name}
            self._record_round(result, views)

            # A round occasionally goes to a wrong navigation branch.
            if self.rng.random() < self.profile.nav_plan_error_rate:
                self._wasted_round(result, visible)
                grounding_error_seen = True
                continue

            step = steps[index]
            if step.kind in ("click", "type") and step.target not in visible_names \
                    and not self._locatable(step.target, visible):
                recovered = self._recover(task, steps, index, recoveries, result)
                if not recovered:
                    failure = FailureRecord(FailureCause.CONTROL_LOCALIZATION,
                                            detail=f"could not reach {step.target!r}")
                    break
                continue

            # Execute the action sequence for this round.
            bundle_executed = 0
            while index < len(steps):
                step = steps[index]
                if step.kind in ("click", "type") and bundle_executed > 0 \
                        and step.target not in visible_names:
                    break  # not visible at round start: next round
                if bundle_executed > 0 and \
                        self.rng.random() >= self.config.chain_continuation_probability:
                    break  # conservative agent: re-observe before continuing
                if step.kind == "click":
                    outcome_ok, was_error = self._do_click(step, result)
                    grounding_error_seen = grounding_error_seen or was_error
                    if not outcome_ok:
                        break
                    index += 1
                elif step.kind == "type":
                    ok, was_error = self._do_type(step, result)
                    grounding_error_seen = grounding_error_seen or was_error
                    if not ok:
                        break
                    index += 1
                elif step.kind == "shortcut":
                    deliver_shortcut(self.app, step.text)
                    result.record_actions(1, self.config.seconds_per_action)
                    index += 1
                elif step.kind == "drag_scroll":
                    done, failed = self._do_drag_scroll(step, index, composite_attempts, result)
                    if failed:
                        failure = FailureRecord(FailureCause.COMPOSITE_INTERACTION,
                                                detail=f"scrollbar drag to {step.value}% failed")
                        index = len(steps)
                    elif done:
                        index += 1
                    break  # observe-act loop: one attempt per round
                elif step.kind == "select_text":
                    done, failed = self._do_select_text(step, index, composite_attempts, result)
                    if failed:
                        failure = FailureRecord(FailureCause.COMPOSITE_INTERACTION,
                                                detail="iterative text selection failed")
                        index = len(steps)
                    elif done:
                        index += 1
                    break
                elif step.kind == "read":
                    if self.grounding.misreads_content():
                        visual_misread = True
                        self._corrupt_after_misread(task, steps, index)
                    index += 1
                else:  # pragma: no cover - defensive
                    index += 1
                bundle_executed += 1
            if failure is not None:
                break

        result.success = bool(task.checker(self.app)) and failure is None
        if result.success:
            return
        if failure is None:
            failure = self._classify_checker_failure(task, plan.corruption, visual_misread,
                                                     grounding_error_seen)
        result.failure = failure

    # ------------------------------------------------------------------
    # round bookkeeping
    # ------------------------------------------------------------------
    def _record_round(self, result: SessionResult, views: List[ScreenView]) -> None:
        """Charge one LLM round whose prompt labels what ``views`` show.

        The labelled list's token count comes from the layout's memo (see
        :func:`~repro.agent.labeling.screen_prompt_tokens`): a screen this
        app showed in an earlier round, of this trial or of an earlier one
        (a restore puts the as-built stamps back), is neither labelled nor
        estimated again.
        """
        prompt = self.config.base_prompt_tokens + screen_prompt_tokens(
            views, self.app.desktop.layout.memo)
        if self.setting.has_forest_knowledge and self.core is not None:
            prompt += self.core.token_estimate()
        latency = (self.profile.base_latency_s
                   + prompt / 1000.0 * self.profile.latency_per_1k_prompt_tokens_s
                   + self.rng.uniform(-2.0, 2.0))
        result.record_call(LLMCallRecord(role="app", purpose="execute",
                                         prompt_tokens=prompt,
                                         completion_tokens=self.config.completion_tokens,
                                         latency_s=max(1.0, latency)))

    def _wasted_round(self, result: SessionResult, visible: List[UIElement]) -> None:
        """A navigation-planning error: the agent opens an unrelated branch."""
        clickable = [e for e in visible
                     if e.is_enabled and e.name and e.get_pattern(PatternId.INVOKE) is not None]
        if clickable:
            victim = self.rng.choice(clickable)
            deliver_click(self.app, victim)
            result.record_actions(1, self.config.seconds_per_action)
        result.notes.append("navigation planning error: wrong branch explored")

    # ------------------------------------------------------------------
    # step execution
    # ------------------------------------------------------------------
    def _do_click(self, step: MicroStep, result: SessionResult):
        visible = _elements(self._views())
        element = self.grounding.locate(step.target, visible, step.scope_hint)
        if element is None:
            return False, False
        was_error = element.name.lower() != step.target.lower()
        outcome = deliver_click(self.app, element)
        result.record_actions(1, self.config.seconds_per_action)
        return outcome.delivered, was_error

    def _do_type(self, step: MicroStep, result: SessionResult):
        visible = _elements(self._views())
        element = self.grounding.locate(step.target, visible, step.scope_hint)
        if element is None:
            return False, False
        was_error = element.name.lower() != step.target.lower()
        outcome = deliver_text(self.app, element, step.text)
        result.record_actions(1, self.config.seconds_per_action)
        return outcome.delivered, was_error

    def _do_drag_scroll(self, step: MicroStep, step_index: int,
                        attempts: Dict[int, int], result: SessionResult):
        """One observe–drag attempt; returns (done, permanently_failed)."""
        attempts[step_index] = attempts.get(step_index, 0) + 1
        scrollbar = self._find_scrollbar(step.target)
        if scrollbar is None:
            return False, attempts[step_index] >= self.config.max_composite_attempts
        if self.rng.random() < self.profile.composite_error_rate:
            achieved = max(0.0, min(100.0, step.value + self.rng.uniform(-35.0, 35.0)))
        else:
            achieved = max(0.0, min(100.0, step.value + self.rng.uniform(-3.0, 3.0)))
        deliver_scrollbar_drag(self.app, scrollbar, step.value, achieved)
        # The drag itself moves the thumb: force the realised position.
        scrollbar.set_position(achieved)
        result.record_actions(3, self.config.seconds_per_action)  # press, drag, release
        done = abs(scrollbar.position - step.value) <= self.config.scroll_tolerance
        failed = not done and attempts[step_index] >= self.config.max_composite_attempts
        return done, failed

    def _do_select_text(self, step: MicroStep, step_index: int,
                        attempts: Dict[int, int], result: SessionResult):
        """Iterative text selection (click start, shift-click end)."""
        attempts[step_index] = attempts.get(step_index, 0) + 1
        visible = _elements(self._views())
        element = self.grounding.locate(step.target, visible)
        result.record_actions(2, self.config.seconds_per_action)
        if element is None:
            return False, attempts[step_index] >= self.config.max_composite_attempts
        text_pattern = element.get_pattern(PatternId.TEXT)
        if text_pattern is None:
            return False, attempts[step_index] >= self.config.max_composite_attempts
        start, end = step.select_range[0], step.select_range[-1]
        if self.rng.random() < self.profile.composite_error_rate:
            # Mis-positioned cursor: the selection is off by one, or missed.
            available = len(text_pattern.get_paragraphs())
            start = max(0, min(available - 1, start + self.rng.choice([-1, 1])))
            end = max(start, min(available - 1, end + self.rng.choice([-1, 0, 1])))
            try:
                text_pattern.select_paragraphs(start, end)
            except IndexError:
                pass
            done = False
        else:
            try:
                text_pattern.select_paragraphs(start, end)
                done = True
            except IndexError:
                done = False
        failed = not done and attempts[step_index] >= self.config.max_composite_attempts
        return done, failed

    def _corrupt_after_misread(self, task: TaskSpec, steps: List[MicroStep],
                               read_index: int) -> None:
        """A misread observation makes a later dependent action target the
        wrong control (e.g. bolding the wrong cell)."""
        for step in steps[read_index + 1:]:
            if step.kind in ("click", "type"):
                intent = task.intents[step.intent_index] if \
                    0 <= step.intent_index < len(task.intents) else None
                if intent is not None and intent.distractors:
                    step.target = self.rng.choice(list(intent.distractors))
                return

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _recover(self, task: TaskSpec, steps: List[MicroStep], index: int,
                 recoveries: Dict[int, int], result: SessionResult) -> bool:
        """Re-navigate the current intent from the top after getting lost."""
        intent_index = steps[index].intent_index
        recoveries[intent_index] = recoveries.get(intent_index, 0) + 1
        if recoveries[intent_index] > self.config.max_recoveries_per_intent:
            return False
        if self.rng.random() >= self.profile.recovery_competence:
            # The model mis-diagnoses the unexpected state and burns the
            # round without getting back on track.
            result.notes.append("failed to re-orient after an unexpected UI state")
            return True
        # Close a stray modal dialog if one is in the way.
        top = self.app.desktop.top_window(self.app.process_id)
        if top is not None and top.is_modal:
            deliver_shortcut(self.app, "escape")
            result.record_actions(1, self.config.seconds_per_action)
        # Re-derive the navigation for this intent and splice it in.
        intent = task.intents[intent_index] if 0 <= intent_index < len(task.intents) else None
        if intent is None or intent.kind not in (IntentKind.ACCESS, IntentKind.ACCESS_INPUT):
            return True
        resolution = self.planner.resolve_leaf(self.forest, steps[index].target or intent.target,
                                               intent.scope_hint)
        if resolution.node is None:
            resolution = self.planner.resolve_leaf(self.forest, intent.target, intent.scope_hint)
        if resolution.node is None:
            return False
        path = self.forest.node_path(resolution.node.node_id, resolution.entry_ref_ids)
        replacement = [MicroStep(kind="click", target=n.name, scope_hint=intent.scope_hint,
                                 intent_index=intent_index) for n in path]
        # Drop the remaining clicks of this intent and splice the fresh path.
        end = index
        while end < len(steps) and steps[end].intent_index == intent_index \
                and steps[end].kind == "click":
            end += 1
        steps[index:end] = replacement
        result.notes.append(f"recovered navigation for intent {intent_index}")
        return True

    # ------------------------------------------------------------------
    # failure classification
    # ------------------------------------------------------------------
    def _classify_checker_failure(self, task: TaskSpec, corruption, visual_misread: bool,
                                  grounding_error_seen: bool) -> FailureRecord:
        if corruption is not None:
            return FailureRecord(corruption, detail="semantic planning error")
        if visual_misread:
            return FailureRecord(FailureCause.VISUAL_SEMANTIC,
                                 detail="misread on-screen content")
        if grounding_error_seen:
            return FailureRecord(FailureCause.CONTROL_LOCALIZATION,
                                 detail="wrong control activated during execution")
        if task.uses_composite_interaction:
            return FailureRecord(FailureCause.COMPOSITE_INTERACTION,
                                 detail="composite interaction left the wrong state")
        return FailureRecord(FailureCause.CONTROL_LOCALIZATION,
                             detail="final state did not satisfy the checker")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _windows(self) -> List[Window]:
        """Windows the agent can act on, topmost first.

        A modal dialog captures input: while one is open, only its controls
        are reachable, so a wrong click that opens an unrelated dialog
        actually blocks progress until the agent recovers.
        """
        windows = list(reversed(self.app.desktop.open_windows(self.app.process_id)))
        if windows and windows[0].is_modal:
            return windows[:1]
        return windows

    def _views(self) -> List[ScreenView]:
        """What the windows the agent can act on show now, topmost first."""
        return self.app.desktop.views(self._windows())

    def _locatable(self, name: str, visible: List[UIElement]) -> bool:
        return self.grounding._best_match(name, visible) is not None

    def _find_scrollbar(self, name: str) -> Optional[ScrollBarControl]:
        """The visible scrollbar called ``name``, else the first visible one."""
        scrollbars = [e for e in _elements(self._views()) if isinstance(e, ScrollBarControl)]
        named = [e for e in scrollbars if e.name == name]
        return (named or scrollbars or [None])[0]


def _elements(views: List[ScreenView]) -> List[UIElement]:
    """Every control ``views`` show, view by view in pre-order (read-only)."""
    if len(views) == 1:
        return views[0].elements
    return [element for view in views for element in view.elements]
