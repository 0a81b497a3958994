"""Shared fixtures.

Expensive artefacts (offline navigation models) are built once per test
session and shared; live applications are rebuilt per test because tests
mutate them.  :func:`observe` is the one definition of "the same app
state" that restore tests compare against.
"""

from __future__ import annotations

import random

import pytest

from repro.apps import ExcelApp, PowerPointApp, WordApp, app_factory
from repro.apps.base import Application
from repro.apps.synthetic import SyntheticSpec
from repro.dmi.interface import DMI, build_offline_artifacts
from repro.gui.ribbon import DialogBuilder, build_color_dropdown, build_menu_button
from repro.gui.widgets import Button, Edit, Group, ListBox, ListItemControl, ScrollBarControl
from repro.uia.identifiers import identifier_string


# ----------------------------------------------------------------------
# "same state", defined once
# ----------------------------------------------------------------------
#: Model fields numbered from process-global counters, like runtime ids and
#: process ids: a fresh build numbers them anew, and no checker reads them.
_COUNTER_FIELDS = frozenset({"slide_id"})


def observe(app: Application):
    """Everything a trial can see of ``app``, with no object identities.

    Every open window of the app, top-down: each control's identifier, name,
    text, flags, geometry and pattern states (a pattern's public
    attributes); then the focused control; then the checker-visible model
    (``app.state``) as plain data.  Two apps are in the same state exactly
    when their ``observe`` values are equal.
    """
    windows = [[(identifier_string(element), element.name, element.text,
                 element.is_enabled, element.visible, _plain(element.rect),
                 sorted((pattern_id.value, _pattern_state(pattern))
                        for pattern_id, pattern in element.patterns.items()))
                for element in window.iter_subtree()]
               for window in app.desktop.open_windows(app.process_id)]
    focus = app.desktop.focus
    return (windows, None if focus is None else identifier_string(focus),
            _plain(app.state))


@pytest.fixture(scope="session", name="observe")
def observe_fixture():
    """:func:`observe` for test modules (``conftest`` is not importable by
    name when the benchmarks' conftest is collected too)."""
    return observe


def _pattern_state(pattern):
    return {name: _plain(value) for name, value in vars(pattern).items()
            if not name.startswith("_") and name not in ("element", "containing_grid")}


def _plain(value):
    """``value`` as comparable plain data; numbers keep their type."""
    if isinstance(value, (bool, int, float)):
        return (type(value).__name__, value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(map(repr, value))
    if hasattr(value, "__dict__"):
        return (type(value).__name__,
                {name: _plain(item) for name, item in vars(value).items()
                 if name not in _COUNTER_FIELDS and not callable(item)})
    raise TypeError(f"observe cannot compare a {type(value).__name__}")


class MiniApp(Application):
    """A small synthetic application used by ripper/topology/DMI unit tests.

    Structure: two "tabs" implemented as plain buttons revealing groups, a
    colour drop-down reachable from two different parents (merge node with
    path-dependent semantics), a dialog with OK/Cancel, an edit committed
    with ENTER, and a scrollbar — enough surface to exercise every DMI code
    path quickly.
    """

    APP_NAME = "MiniApp"

    def __init__(self, desktop=None):
        self.state_log = []
        self.font_color = "Black"
        self.page_color = "White"
        self.saved_name = ""
        self.scroll_position = 0.0
        super().__init__(desktop=desktop)

    def document_title(self) -> str:
        return "MiniDoc"

    @property
    def state(self):
        return self

    def build_ui(self) -> None:
        window = self.window
        home = Group(name="Home Group", automation_id="Mini.Home")
        window.add_child(home)

        home.add_child(build_color_dropdown(
            "Font Color", automation_id="Mini.FontColor",
            on_choice=lambda c: setattr(self, "font_color", c)))
        home.add_child(build_color_dropdown(
            "Page Color", automation_id="Mini.PageColor",
            on_choice=lambda c: setattr(self, "page_color", c)))
        home.add_child(Button("Bold", automation_id="Mini.Bold",
                              on_click=lambda: self.state_log.append("bold")))
        home.add_child(Button("Open Settings", automation_id="Mini.OpenSettings",
                              description="Open the settings dialog",
                              on_click=self._open_settings))
        name_edit = Edit("Name Field", automation_id="Mini.NameField",
                         requires_enter_to_commit=True,
                         on_commit=lambda v: setattr(self, "saved_name", v))
        home.add_child(name_edit)
        home.add_child(ScrollBarControl("Mini Scroll", automation_id="Mini.Scroll",
                                        orientation="vertical",
                                        on_scroll=lambda p: setattr(self, "scroll_position", p)))
        items = ListBox(name="Item List", automation_id="Mini.Items", multi_select=True)
        for label in ("Item A", "Item B", "Item C"):
            items.add_item(ListItemControl(label, automation_id=f"Mini.{label.replace(' ', '')}"))
        home.add_child(items)

    def _open_settings(self) -> None:
        builder = DialogBuilder("Settings")
        dialog = builder.build()
        builder.add_checkbox(dialog, "Enable feature",
                             on_change=lambda v: self.state_log.append(("feature", v)))
        builder.add_edit(dialog, "Setting value",
                         on_commit=lambda v: self.state_log.append(("value", v)))
        dialog.add_child(build_menu_button(
            "Advanced", {"Reset": lambda: self.state_log.append("reset")},
            automation_id="Settings.Advanced"))
        self.open_dialog(dialog)


@pytest.fixture
def mini_app() -> MiniApp:
    return MiniApp()


@pytest.fixture
def word_app() -> WordApp:
    return WordApp()


@pytest.fixture
def excel_app() -> ExcelApp:
    return ExcelApp()


@pytest.fixture
def ppt_app() -> PowerPointApp:
    return PowerPointApp()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


# ----------------------------------------------------------------------
# session-scoped offline artefacts (expensive; built once)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def mini_artifacts():
    return build_offline_artifacts(MiniApp())


@pytest.fixture(scope="session")
def word_artifacts():
    return build_offline_artifacts(WordApp())


@pytest.fixture(scope="session")
def excel_artifacts():
    return build_offline_artifacts(ExcelApp())


@pytest.fixture(scope="session")
def ppt_artifacts():
    return build_offline_artifacts(PowerPointApp())


@pytest.fixture(scope="session")
def synthetic_seed3_artifacts():
    return build_offline_artifacts(app_factory(SyntheticSpec(seed=3).app_name)())


@pytest.fixture
def mini_dmi(mini_artifacts) -> DMI:
    return DMI(MiniApp(), mini_artifacts)


@pytest.fixture
def ppt_dmi(ppt_artifacts) -> DMI:
    return DMI(PowerPointApp(), ppt_artifacts)


@pytest.fixture
def word_dmi(word_artifacts) -> DMI:
    return DMI(WordApp(), word_artifacts)


@pytest.fixture
def excel_dmi(excel_artifacts) -> DMI:
    return DMI(ExcelApp(), excel_artifacts)
