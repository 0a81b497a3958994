"""Tests for DMI's fuzzy control matcher and structured error feedback."""

from repro.dmi.errors import (
    ControlDisabledFeedback,
    ControlNotFoundFeedback,
    ExecutionStatus,
    FilteredFeedback,
    PatternUnsupportedFeedback,
    ok_feedback,
)
from repro.dmi.matching import FuzzyControlMatcher
from repro.gui.screen import ScreenView
from repro.uia.control_types import ControlType
from repro.uia.element import UIElement
from repro.uia.identifiers import ControlIdentifier, synthesize_identifier


def build_window():
    window = UIElement(name="Main", control_type=ControlType.WINDOW, automation_id="app.main")
    home = window.add_child(UIElement(name="Home", control_type=ControlType.TAB_ITEM,
                                      automation_id="App.Tab.Home"))
    bold = home.add_child(UIElement(name="Bold", control_type=ControlType.BUTTON,
                                    automation_id="App.Home.Bold"))
    italic = home.add_child(UIElement(name="Italic", control_type=ControlType.BUTTON,
                                      automation_id="App.Home.Italic"))
    hidden = home.add_child(UIElement(name="Hidden Button", control_type=ControlType.BUTTON,
                                      automation_id="App.Home.Hidden", visible=False))
    return window, home, bold, italic, hidden


# ----------------------------------------------------------------------
# exact and fuzzy matching
# ----------------------------------------------------------------------
def test_exact_match_by_identifier():
    window, home, bold, *_ = build_window()
    matcher = FuzzyControlMatcher()
    result = matcher.find([ScreenView(window)], synthesize_identifier(bold))
    assert result.found and result.exact and result.element is bold


def test_offscreen_controls_are_skipped():
    window, *_rest, hidden = build_window()
    matcher = FuzzyControlMatcher()
    identifier = synthesize_identifier(hidden)
    assert not matcher.find([ScreenView(window)], identifier).found
    hidden.visible = True
    assert matcher.find([ScreenView(window)], identifier).element is hidden


def test_fuzzy_match_survives_renaming():
    window, home, bold, *_ = build_window()
    identifier = synthesize_identifier(bold)
    bold.name = "Bold (Ctrl+B)"
    bold.automation_id = "App.Home.BoldToggle"
    result = FuzzyControlMatcher().find([ScreenView(window)], identifier)
    assert result.found and not result.exact and result.element is bold


def test_fuzzy_match_does_not_cross_dotted_id_prefixes():
    """Shared 'App.' prefixes must not make unrelated controls look similar."""
    window, home, bold, italic, _ = build_window()
    wanted = ControlIdentifier(primary_id="App.Design.FormatBackground",
                               control_type=ControlType.BUTTON,
                               ancestor_path=("app.main",))
    result = FuzzyControlMatcher().find([ScreenView(window)], wanted)
    assert not result.found


def test_allow_fuzzy_false_requires_exact():
    window, home, bold, *_ = build_window()
    identifier = synthesize_identifier(bold)
    bold.automation_id = "App.Home.BoldRenamed"
    assert not FuzzyControlMatcher().find([ScreenView(window)], identifier, allow_fuzzy=False).found


def test_find_by_label_exact_and_fuzzy():
    window, *_ = build_window()
    matcher = FuzzyControlMatcher()
    assert matcher.find_by_label([ScreenView(window)], "Italic").element.name == "Italic"
    assert matcher.find_by_label([ScreenView(window)], "italic button").element.name == "Italic"
    assert matcher.find_by_label([ScreenView(window)], "zzzz").element is None


def test_nearest_names_for_feedback():
    window, *_ = build_window()
    identifier = ControlIdentifier(primary_id="Bald", control_type=ControlType.BUTTON)
    names = FuzzyControlMatcher().nearest_names([window], identifier, limit=2)
    assert "Bold" in names and len(names) <= 2


# ----------------------------------------------------------------------
# structured feedback
# ----------------------------------------------------------------------
def test_feedback_constructors_and_prompt_rendering():
    ok = ok_feedback("access", target="Blue", extra=1)
    assert ok.ok and ok.detail == {"extra": 1}
    not_found = ControlNotFoundFeedback("access", "Blue", window="Main", candidates=["Blu"])
    assert not_found.status == ExecutionStatus.ERROR
    assert "Blue" in not_found.message and not_found.suggestions
    disabled = ControlDisabledFeedback("access", "Apply", state={"window": "Dialog"})
    assert "disabled" in disabled.message
    unsupported = PatternUnsupportedFeedback("set_scrollbar_pos", "Canvas", "Scroll")
    assert "Scroll" in unsupported.message
    filtered = FilteredFeedback("access", "Design")
    assert filtered.status == ExecutionStatus.FILTERED
    text = not_found.to_prompt_text()
    assert "[error]" in text and "suggestion:" in text
