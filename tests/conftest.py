"""Shared fixtures.

Expensive artefacts (offline navigation models) are built once per test
session and shared; live applications are rebuilt per test because tests
mutate them.
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
