"""Tests for the desktop runtime, layout/hit-testing and input simulation."""

import pytest

from repro.gui.desktop import Desktop
from repro.gui.input import InputError, InputSimulator, Shortcut
from repro.gui.screen import hit_test, neighbours_of
from repro.gui.widgets import Button, Dialog, Edit, Pane, ScrollBarControl, Window
from repro.uia.events import EventKind


def build_desktop():
    desktop = Desktop(width=800, height=600)
    window = Window("Main")
    pane = Pane(name="Body")
    window.add_child(pane)
    button = Button("Go", on_click=lambda: None)
    pane.add_child(button)
    desktop.open_window(window, process_id=desktop.register_process("app"))
    return desktop, window, pane, button


# ----------------------------------------------------------------------
# desktop
# ----------------------------------------------------------------------
def test_open_window_emits_event_and_sets_topmost():
    desktop, window, *_ = build_desktop()
    assert desktop.top_window() is window
    assert desktop.events.events_of_kind(EventKind.WINDOW_OPENED)


def test_modal_dialog_becomes_topmost_and_close_restores():
    desktop, window, *_ = build_desktop()
    dialog = Dialog("Options")
    desktop.open_window(dialog, process_id=window.process_id)
    assert desktop.top_window() is dialog
    assert desktop.modal_windows() == [dialog]
    dialog.close()
    assert desktop.top_window() is window
    assert desktop.events.events_of_kind(EventKind.WINDOW_CLOSED)


def test_application_dialog_open_and_close_reach_desktop_events(mini_app):
    """An app's own dialog traffic is visible on ``Desktop.events``: one
    open and one close event, both carrying the dialog itself."""
    mini_app._open_settings()
    dialog = mini_app.open_dialogs()[0]
    mini_app.close_all_dialogs()
    events = mini_app.desktop.events
    assert [e.source for e in events.events_of_kind(EventKind.WINDOW_OPENED)
            if e.source is not mini_app.window] == [dialog]
    assert [e.source for e in events.events_of_kind(EventKind.WINDOW_CLOSED)
            ] == [dialog]


def test_process_registry_and_filtering():
    desktop = Desktop()
    pid_a = desktop.register_process("A")
    pid_b = desktop.register_process("B")
    win_a = Window("A win")
    win_b = Window("B win")
    desktop.open_window(win_a, process_id=pid_a)
    desktop.open_window(win_b, process_id=pid_b)
    assert desktop.process_name(pid_a) == "A"
    assert desktop.open_windows(pid_a) == [win_a]
    assert desktop.top_window(pid_a) is win_a


def test_focus_change_emits_event():
    desktop, window, pane, button = build_desktop()
    desktop.set_focus(button)
    assert desktop.focus is button
    assert desktop.events.events_of_kind(EventKind.FOCUS_CHANGED)


# ----------------------------------------------------------------------
# layout & hit testing
# ----------------------------------------------------------------------
def test_layout_assigns_rects_within_parent():
    desktop, window, pane, button = build_desktop()
    assert window.rect.width == 800
    assert button.rect.width > 0
    assert window.rect.contains(*button.rect.center)


def test_element_at_finds_deepest_element():
    desktop, window, pane, button = build_desktop()
    x, y = button.rect.center
    assert desktop.element_at(x, y) is button
    assert desktop.element_at(-5, -5) is None


def test_hit_test_skips_invisible():
    desktop, window, pane, button = build_desktop()
    button.visible = False
    desktop.relayout()
    x, y = pane.rect.center
    assert hit_test(window, x, y) in (pane, window)


def test_neighbours_of_finds_nearby_leaves():
    desktop, window, pane, button = build_desktop()
    second = Button("Other")
    third = Button("Hidden")
    pane.add_child(second)
    pane.add_child(third)
    third.visible = False
    desktop.relayout()
    # Visible leaves other than the element, last in pre-order first.
    assert neighbours_of(button, radius=1000.0) == [second]
    fourth = Button("Another")
    pane.add_child(fourth)
    desktop.relayout()
    assert neighbours_of(button, radius=1000.0) == [fourth, second]
    assert neighbours_of(button, radius=0.0) == []


def test_dialogs_are_laid_out_smaller_and_centred():
    desktop, window, *_ = build_desktop()
    dialog = Dialog("Options")
    desktop.open_window(dialog)
    assert dialog.rect.width < window.rect.width
    assert dialog.rect.left > 0


# ----------------------------------------------------------------------
# input
# ----------------------------------------------------------------------
def test_click_invokes_and_records():
    desktop, window, pane, button = build_desktop()
    clicked = []
    button.set_on_click(lambda: clicked.append(1))
    sim = InputSimulator(desktop)
    sim.click(button)
    assert clicked == [1]
    assert sim.action_count == 1
    assert desktop.focus is button


def test_click_disabled_raises():
    desktop, window, pane, button = build_desktop()
    button.is_enabled = False
    with pytest.raises(InputError):
        InputSimulator(desktop).click(button)


def test_click_on_coordinates_hits_target():
    desktop, window, pane, button = build_desktop()
    clicked = []
    button.set_on_click(lambda: clicked.append(1))
    sim = InputSimulator(desktop)
    hit = sim.click_on_coordinates(*button.rect.center)
    assert hit is button
    assert clicked == [1]
    assert sim.click_on_coordinates(-10, -10) is None


def test_type_text_into_edit_and_plain_element():
    desktop, window, pane, _ = build_desktop()
    committed = []
    edit = Edit("Name", on_commit=committed.append)
    pane.add_child(edit)
    desktop.relayout()
    sim = InputSimulator(desktop)
    sim.type_text(edit, "hello")
    assert committed == ["hello"]
    label = Button("NotText")
    pane.add_child(label)
    with pytest.raises(InputError):
        sim.type_text(label, "x")


def test_keyboard_enter_commits_focused_edit():
    desktop, window, pane, _ = build_desktop()
    committed = []
    edit = Edit("Name Box", requires_enter_to_commit=True, on_commit=committed.append)
    pane.add_child(edit)
    sim = InputSimulator(desktop)
    sim.type_text(edit, "B10")
    assert committed == []
    sim.keyboard_input("enter")
    assert committed == ["B10"]


def test_keyboard_escape_closes_modal_dialog():
    desktop, window, *_ = build_desktop()
    dialog = Dialog("Options")
    desktop.open_window(dialog, process_id=window.process_id)
    sim = InputSimulator(desktop)
    sim.keyboard_input("escape")
    assert not dialog.is_open


def test_shortcut_parsing_normalises():
    shortcut = Shortcut.parse("Ctrl + S")
    assert shortcut.keys == ("ctrl", "s")
    assert str(shortcut) == "ctrl+s"
    with pytest.raises(ValueError):
        Shortcut.parse("  ")


def test_wheel_scrolls_nearest_scrollable_ancestor():
    desktop, window, pane, button = build_desktop()
    bar = ScrollBarControl("VScroll", orientation="vertical")
    pane.add_child(bar)
    desktop.relayout()
    sim = InputSimulator(desktop)
    sim.wheel_mouse_input(bar, wheel_dist=-4)     # scroll down 4 notches
    assert bar.position == 20.0


def test_drag_on_scrollbar_moves_thumb():
    desktop, window, pane, button = build_desktop()
    bar = ScrollBarControl("VScroll", orientation="vertical")
    pane.add_child(bar)
    desktop.relayout()
    sim = InputSimulator(desktop)
    x, y = bar.rect.center
    sim.drag_on_coordinates(x, bar.rect.top, x, bar.rect.bottom)
    assert bar.position > 50.0
