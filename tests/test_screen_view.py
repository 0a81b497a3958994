"""Screen views: every on-screen read of both agents against a fresh walk.

A :class:`~repro.gui.screen.ScreenView` is recorded per (window, layout
stamp) and reused until the stamp moves, across restores too.  The oracle
property mutates random control forests, restores and relays them out in
random order, and after every step holds each consumer of the views (the
visible list, the labelled prompt's token count, exact and fuzzy control
matching, label lookup and the DataItem list) to the same read made by a
walk without views.  The hit-count tests pin what the views save: a screen
shown before is neither labelled nor estimated again.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent import labeling
from repro.agent.app_agent import GuiAppAgent
from repro.agent.labeling import alphabetic_labels, labelled_prompt_tokens, screen_prompt_tokens
from repro.agent.session import InterfaceSetting, SessionResult
from repro.apps import WordApp
from repro.apps.base import Application
from repro.bench.runner import CORE_SETTING_KEYS, BenchmarkConfig, BenchmarkRunner, setting_by_key
from repro.dmi.matching import (
    FuzzyControlMatcher,
    _ancestor_compatible,
    _ancestor_overlap,
    _name_similarity,
    _primary_similarity,
)
from repro.dmi.observation import ObservationInterface
from repro.gui.screen import neighbours_of
from repro.gui.widgets import Window
from repro.llm.profiles import GPT5_MEDIUM
from repro.uia.control_types import ControlType
from repro.uia.identifiers import ControlIdentifier, synthesize_identifier
from test_uia_identifiers import (
    _mutate,
    build_tree,
    mostly_visible_tree_strategy,
    mutation_strategy,
    visible_preorder,
)


# ----------------------------------------------------------------------
# the reference: reads by a fresh walk, as they were made before views
# ----------------------------------------------------------------------
def fresh_find(windows, identifier):
    candidates = [e for window in windows for e in window.iter_subtree() if e.is_on_screen()]
    exact = [e for e in candidates
             if identifier.matches_element(e) and _ancestor_compatible(identifier, e)]
    if exact:
        return max(exact, key=lambda e: _ancestor_overlap(identifier, e)), 1.0
    best, best_score = None, 0.0
    for element in candidates:
        score = (0.25 * (element.control_type == identifier.control_type)
                 + 0.55 * _primary_similarity(identifier.primary_id, element)
                 + 0.20 * _ancestor_overlap(identifier, element))
        if score > best_score:
            best, best_score = element, score
    return (best, best_score) if best_score >= FuzzyControlMatcher().minimum_score \
        else (None, best_score)


def fresh_find_by_label(windows, label):
    best, best_key = None, (-1.0, -1, -1)
    for window in windows:
        for element in window.iter_subtree():
            if not element.is_on_screen():
                continue
            key = (_name_similarity(element.name, label), len(element.patterns),
                   element.depth())
            if key > best_key:
                best, best_key = element, key
    return best if best_key[0] >= FuzzyControlMatcher.LABEL_MINIMUM_SCORE else None


def fresh_labelled_tokens(windows):
    named = [e for window in windows for e in visible_preorder(window) if e.name]
    return labelled_prompt_tokens(dict(zip(alphabetic_labels(len(named)), named)))


# ----------------------------------------------------------------------
# the oracle property
# ----------------------------------------------------------------------
class ForestApp(Application):
    """An app whose windows hold generated control trees; controls whose
    name starts with "a" are DataItems."""

    APP_NAME = "Forest"

    def __init__(self, trees) -> None:
        self._trees = trees
        super().__init__()

    def build_ui(self) -> None:
        windows = [self.window]
        for index in range(1, len(self._trees)):
            windows.append(self.desktop.open_window(Window(f"Dialog {index}"),
                                                    process_id=self.process_id))
        for window, tree in zip(windows, self._trees):
            window.add_child(build_tree(tree))
            for element in window.iter_descendants():
                if element.name.startswith("a"):
                    element.control_type = ControlType.DATA_ITEM

    @property
    def state(self):
        return None


step_strategy = st.one_of(mutation_strategy, mutation_strategy,
                          st.sampled_from(["restore", "relayout"]))


@settings(max_examples=150, deadline=None)
@given(trees=st.lists(mostly_visible_tree_strategy, min_size=2, max_size=3),
       steps=st.lists(step_strategy, max_size=30))
def test_every_screen_read_equals_a_fresh_walk_after_every_step(trees, steps):
    """Mutations (visibility flips, added, removed and moved controls,
    renames), restores of the as-built snapshot and relayouts, in random
    order: after every step each read through the views equals the read a
    fresh walk makes."""
    app = ForestApp(trees)
    snapshot = app.snapshot()
    built = app.desktop.open_windows(app.process_id)
    pool = [node for window in built for node in window.iter_subtree()]
    matcher = FuzzyControlMatcher()
    observation = ObservationInterface(app, matcher)
    for step in [None] + steps:
        if step == "restore":
            app.restore(snapshot)
        elif step == "relayout":
            app.desktop.relayout()
        elif step is not None:
            _mutate(built, pool, step)
        windows = list(reversed(app.desktop.open_windows(app.process_id)))
        views = app.desktop.views(windows)
        assert [e for view in views for e in view.elements] == \
            [e for window in windows for e in visible_preorder(window)]
        assert screen_prompt_tokens(views, app.desktop.layout.memo) == \
            fresh_labelled_tokens(windows)
        assert observation._visible_data_items() == \
            [e for window in windows for e in visible_preorder(window)
             if e.control_type == ControlType.DATA_ITEM]
        _, pick, other, text = step if isinstance(step, tuple) else (None, 0, 0, "b")
        target = pool[pick % len(pool)]
        for identifier in (synthesize_identifier(target),
                           ControlIdentifier(text or "b", target.control_type,
                                             tuple(a.primary_id for a in target.ancestors()))):
            match = matcher.find(views, identifier)
            assert (match.element, match.score) == fresh_find(windows, identifier)
        for label in (target.name, text, pool[other % len(pool)].name.upper()):
            assert matcher.find_by_label(views, label).element == \
                fresh_find_by_label(windows, label)


def walked_neighbours_of(element, radius):
    """``neighbours_of`` as it was before views: a stack walk of the whole
    window that pushes children unreversed."""
    cx, cy = element.rect.center
    result = []
    stack = [element.root()]
    while stack:
        node = stack.pop()
        if not node.visible:
            continue
        if node is not element and node.children == []:
            nx, ny = node.rect.center
            if abs(nx - cx) <= radius and abs(ny - cy) <= radius:
                result.append(node)
        stack.extend(node.children)
    return result


@settings(max_examples=100, deadline=None)
@given(trees=st.lists(mostly_visible_tree_strategy, min_size=2, max_size=3),
       steps=st.lists(step_strategy, max_size=20),
       radius=st.sampled_from((40.0, 120.0, 5000.0)))
def test_neighbours_of_equals_the_full_window_walk(trees, steps, radius):
    """The grounding model's candidates, read from the window's view, are
    the walk's candidates in the walk's order after every step, so the
    seeded pick among them cannot move."""
    app = ForestApp(trees)
    snapshot = app.snapshot()
    built = app.desktop.open_windows(app.process_id)
    pool = [node for window in built for node in window.iter_subtree()]
    for step in [None] + steps:
        if step == "restore":
            app.restore(snapshot)
        elif step == "relayout":
            app.desktop.relayout()
        elif step is not None:
            _mutate(built, pool, step)
        for target in pool[::max(1, len(pool) // 5)]:
            assert [id(e) for e in neighbours_of(target, radius)] == \
                [id(e) for e in walked_neighbours_of(target, radius)]


# ----------------------------------------------------------------------
# what the views save
# ----------------------------------------------------------------------
def _count_estimates(monkeypatch):
    calls = []
    estimate = labeling.estimate_tokens
    monkeypatch.setattr(labeling, "estimate_tokens",
                        lambda text: calls.append(text) or estimate(text))
    return calls


def test_a_round_on_an_unchanged_screen_estimates_nothing(word_artifacts, monkeypatch):
    """The second of two rounds on the same screen, and the first round
    after a restore to the as-built screen, reuse the recorded count."""
    app = WordApp()
    snapshot = app.snapshot()
    agent = GuiAppAgent(app, word_artifacts.forest, GPT5_MEDIUM, InterfaceSetting.GUI_ONLY,
                        rng=random.Random(3))
    result = SessionResult(task_id="t", app="word", interface=InterfaceSetting.GUI_ONLY,
                           model=GPT5_MEDIUM.name, reasoning=GPT5_MEDIUM.reasoning)
    calls = _count_estimates(monkeypatch)
    rounds = []
    for _ in range(2):
        agent._record_round(result, agent._views())
        rounds.append(len(calls))
    app.input.click(app.window.find(name="Layout", control_type="TabItem"))
    agent._record_round(result, agent._views())
    rounds.append(len(calls))
    app.restore(snapshot)
    agent._record_round(result, agent._views())
    rounds.append(len(calls))
    assert rounds == [1, 1, 2, 2]
    assert len({call.prompt_tokens for call in result.calls}) == 2
    assert result.calls[0].prompt_tokens == result.calls[3].prompt_tokens


def test_a_default_grid_pass_estimates_few_labelled_prompts(monkeypatch):
    """Most rounds of a default-grid pass show a screen the runner's app
    showed before, in the same trial or after a restore."""
    calls = _count_estimates(monkeypatch)
    rounds = []
    record_round = GuiAppAgent._record_round
    monkeypatch.setattr(GuiAppAgent, "_record_round",
                        lambda agent, *args: rounds.append(1) or record_round(agent, *args))
    runner = BenchmarkRunner(BenchmarkConfig(trials=1, seed=2310))
    runner.run_settings([setting_by_key(key) for key in CORE_SETTING_KEYS])
    assert len(rounds) == 271
    assert len(calls) <= 100
