"""Tests for the agent framework: labelling, sessions, baseline and DMI agents."""

import dataclasses
import random

import pytest

from repro.agent.app_agent import GuiAgentConfig, GuiAppAgent
from repro.agent.dmi_agent import DmiAgentConfig, DmiAppAgent
from repro.agent.host_agent import FRAMEWORK_OVERHEAD_STEPS, HostAgent
from repro.agent.labeling import alphabetic_labels, label_visible_controls, labelled_prompt_tokens
from repro.agent.session import (
    FailureRecord,
    InterfaceSetting,
    LLMCallRecord,
    SessionResult,
)
from repro.apps import PowerPointApp, WordApp
from repro.bench.tasks import task_by_id
from repro.dmi.interface import DMI
from repro.llm.profiles import GPT5_MEDIUM
from repro.spec import FailureCategory, FailureCause


PERFECT = dataclasses.replace(
    GPT5_MEDIUM, grounding_error_rate=0.0, nav_plan_error_rate=0.0,
    composite_error_rate=0.0, visual_parse_error_rate=0.0, semantic_error_rate=0.0,
    instruction_following_error=0.0, recovery_competence=1.0, knows_app_structure=True)

CLUMSY = dataclasses.replace(
    GPT5_MEDIUM, grounding_error_rate=0.9, nav_plan_error_rate=0.5,
    composite_error_rate=0.9, recovery_competence=0.1, semantic_error_rate=0.0,
    instruction_following_error=0.0)


# ----------------------------------------------------------------------
# labelling
# ----------------------------------------------------------------------
def test_alphabetic_labels_sequence():
    labels = alphabetic_labels(30)
    assert labels[:3] == ["A", "B", "C"]
    assert labels[25] == "Z"
    assert labels[26] == "AA"
    assert len(set(labels)) == 30


def test_label_visible_controls_only_named_and_visible(ppt_app):
    labelling = label_visible_controls(ppt_app.desktop.views([ppt_app.window]))
    assert labelling
    assert all(element.name for element in labelling.values())
    assert all(element.is_on_screen() for element in labelling.values())
    assert labelled_prompt_tokens(labelling) > 100


# ----------------------------------------------------------------------
# session records
# ----------------------------------------------------------------------
def test_session_result_accumulates_calls_actions_and_tokens():
    result = SessionResult(task_id="t", app="word", interface=InterfaceSetting.GUI_ONLY,
                           model="gpt-5", reasoning="medium")
    result.record_call(LLMCallRecord(role="host", purpose="decompose",
                                     prompt_tokens=100, completion_tokens=10, latency_s=5))
    result.record_call(LLMCallRecord(role="app", purpose="execute",
                                     prompt_tokens=200, completion_tokens=20, latency_s=7))
    result.record_actions(3, seconds_per_action=0.5)
    assert result.steps == 2 and result.core_steps == 1
    assert result.prompt_tokens == 300 and result.total_tokens() == 330
    assert result.wall_time_s == pytest.approx(13.5)
    as_dict = result.as_dict()
    assert as_dict["interface"] == "gui-only" and as_dict["failure_cause"] is None


def test_failure_record_category_mapping():
    assert FailureRecord(FailureCause.AMBIGUOUS_TASK).category == FailureCategory.POLICY
    assert FailureRecord(FailureCause.COMPOSITE_INTERACTION).category == FailureCategory.MECHANISM
    assert FailureRecord(FailureCause.TOPOLOGY_INACCURACY).category == FailureCategory.MECHANISM


def test_interface_setting_flags():
    assert InterfaceSetting.GUI_PLUS_DMI.uses_dmi
    assert not InterfaceSetting.GUI_ONLY.uses_dmi
    assert InterfaceSetting.GUI_PLUS_FOREST.has_forest_knowledge
    assert not InterfaceSetting.GUI_ONLY.has_forest_knowledge


# ----------------------------------------------------------------------
# GUI baseline agent
# ----------------------------------------------------------------------
def run_gui(task_id, artifacts, app, profile=PERFECT, seed=3):
    task = task_by_id(task_id)
    agent = GuiAppAgent(app, artifacts.forest, profile, InterfaceSetting.GUI_ONLY,
                        rng=random.Random(seed), core=artifacts.core)
    result = SessionResult(task_id=task.task_id, app=task.app,
                           interface=InterfaceSetting.GUI_ONLY,
                           model=profile.name, reasoning=profile.reasoning)
    agent.execute_task(task, result)
    return result, agent


def test_gui_agent_completes_simple_task_with_perfect_profile(word_artifacts):
    result, _ = run_gui("word-02-landscape", word_artifacts, WordApp())
    assert result.success
    assert result.core_steps >= 2          # navigate tab, then menu item
    assert result.actions >= 2
    assert result.failure is None


def test_gui_agent_requires_multiple_rounds_for_dialog_task(ppt_artifacts):
    result, _ = run_gui("ppt-01-blue-background", ppt_artifacts, PowerPointApp())
    assert result.success
    assert result.core_steps >= 3          # tab, dialog, colour, apply
    assert result.prompt_tokens > 0


def test_gui_agent_fails_and_classifies_mechanism_with_clumsy_profile(ppt_artifacts):
    failures = 0
    mechanism = 0
    for seed in range(6):
        result, _ = run_gui("ppt-01-blue-background", ppt_artifacts, PowerPointApp(),
                            profile=CLUMSY, seed=seed)
        if not result.success:
            failures += 1
            if result.failure.category == FailureCategory.MECHANISM:
                mechanism += 1
    assert failures >= 4
    assert mechanism >= failures - 1


def test_gui_agent_respects_step_budget(ppt_artifacts):
    task = task_by_id("ppt-01-blue-background")
    config = GuiAgentConfig(max_total_steps=5)
    agent = GuiAppAgent(PowerPointApp(), ppt_artifacts.forest, CLUMSY,
                        InterfaceSetting.GUI_ONLY, rng=random.Random(0), config=config)
    result = SessionResult(task_id=task.task_id, app=task.app,
                           interface=InterfaceSetting.GUI_ONLY, model="m", reasoning="r")
    agent.execute_task(task, result)
    assert result.core_steps <= 2
    if not result.success:
        assert result.failure is not None


def test_gui_agent_composite_scroll_task(ppt_artifacts):
    result, _ = run_gui("ppt-02-scroll-to-end", ppt_artifacts, PowerPointApp())
    assert result.success
    assert result.actions >= 3             # press/drag/release


def test_gui_agent_semantic_corruption_yields_policy_failure(ppt_artifacts):
    profile = dataclasses.replace(PERFECT, semantic_error_rate=1.0)
    result, _ = run_gui("ppt-01-blue-background", ppt_artifacts, PowerPointApp(),
                        profile=profile, seed=5)
    assert not result.success
    assert result.failure.category == FailureCategory.POLICY


# ----------------------------------------------------------------------
# DMI agent
# ----------------------------------------------------------------------
def run_dmi(task_id, artifacts, app, profile=PERFECT, seed=3, **config_kwargs):
    task = task_by_id(task_id)
    dmi = DMI(app, artifacts)
    config_kwargs.setdefault("topology_gap_rate", 0.0)
    config = DmiAgentConfig(**config_kwargs)
    agent = DmiAppAgent(app, dmi, profile, rng=random.Random(seed), config=config)
    result = SessionResult(task_id=task.task_id, app=task.app,
                           interface=InterfaceSetting.GUI_PLUS_DMI,
                           model=profile.name, reasoning=profile.reasoning)
    agent.execute_task(task, result)
    return result


def test_dmi_agent_one_shot_completion(ppt_artifacts):
    result = run_dmi("ppt-01-blue-background", ppt_artifacts, PowerPointApp())
    assert result.success
    assert result.core_steps == 1
    assert result.one_shot


def test_dmi_agent_state_declaration_task(ppt_artifacts):
    result = run_dmi("ppt-02-scroll-to-end", ppt_artifacts, PowerPointApp())
    assert result.success and result.core_steps == 1


def test_dmi_agent_topology_gap_falls_back_to_gui_and_still_succeeds(ppt_artifacts):
    result = run_dmi("ppt-01-blue-background", ppt_artifacts, PowerPointApp(),
                     topology_gap_rate=1.0)
    assert result.success
    assert result.core_steps > 1
    assert any("fallback" in note for note in result.notes)


def test_dmi_agent_policy_failure_classification(ppt_artifacts):
    profile = dataclasses.replace(PERFECT, semantic_error_rate=1.0)
    result = run_dmi("ppt-01-blue-background", ppt_artifacts, PowerPointApp(),
                     profile=profile, seed=9)
    assert not result.success
    assert result.failure.category == FailureCategory.POLICY


def test_dmi_agent_observation_task_has_no_visual_misreads(excel_artifacts):
    from repro.apps import ExcelApp

    profile = dataclasses.replace(PERFECT, visual_parse_error_rate=1.0)
    result = run_dmi("excel-09-bold-top-product", excel_artifacts, ExcelApp(), profile=profile)
    assert result.success, "structured get_texts shields DMI from visual misreads"


# ----------------------------------------------------------------------
# host agent
# ----------------------------------------------------------------------
def test_host_agent_adds_fixed_framework_overhead(ppt_artifacts):
    task = task_by_id("ppt-01-blue-background")
    app = PowerPointApp()
    host = HostAgent(PERFECT, InterfaceSetting.GUI_PLUS_DMI, rng=random.Random(0))
    dmi = DMI(app, ppt_artifacts)
    result = host.run_task(task, app, ppt_artifacts.forest, core=ppt_artifacts.core, dmi=dmi,
                           dmi_config=DmiAgentConfig(topology_gap_rate=0.0))
    assert result.success
    assert result.steps == result.core_steps + FRAMEWORK_OVERHEAD_STEPS
    assert result.one_shot == (result.core_steps == 1)
    roles = [c.role for c in result.calls]
    assert roles[0] == "host" and roles[-1] == "host"


def test_host_agent_requires_dmi_instance_for_dmi_setting(ppt_artifacts):
    host = HostAgent(PERFECT, InterfaceSetting.GUI_PLUS_DMI)
    with pytest.raises(ValueError):
        host.run_task(task_by_id("ppt-01-blue-background"), PowerPointApp(),
                      ppt_artifacts.forest)


def test_host_agent_gui_only_runs_without_dmi(word_artifacts):
    host = HostAgent(PERFECT, InterfaceSetting.GUI_ONLY, rng=random.Random(1))
    result = host.run_task(task_by_id("word-02-landscape"), WordApp(), word_artifacts.forest,
                           core=word_artifacts.core)
    assert result.success
    assert result.steps >= FRAMEWORK_OVERHEAD_STEPS + 1
