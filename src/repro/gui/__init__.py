"""A simulated desktop GUI runtime.

This package provides the widget toolkit, window manager, layout/hit-testing
and input simulation used by the Office-like applications in
:mod:`repro.apps`.  Everything here is exposed to the rest of the system
through the accessibility surface of :mod:`repro.uia`; nothing above the GUI
runtime (ripper, DMI, agents) touches widget internals directly.
"""

from repro.gui.widgets import (
    Button,
    CheckBox,
    ComboBox,
    DataGrid,
    DataItem,
    Dialog,
    DocumentControl,
    Edit,
    Gallery,
    Group,
    Hyperlink,
    ListBox,
    ListItemControl,
    Menu,
    MenuItem,
    Pane,
    RadioButton,
    ScrollBarControl,
    Slider,
    Spinner,
    SplitButton,
    StatusBar,
    TabControl,
    TabItem,
    TextLabel,
    ToolBar,
    TreeControl,
    TreeItemControl,
    Window,
)
from repro.gui.desktop import Desktop
from repro.gui.input import InputSimulator, Shortcut
from repro.gui.screen import ScreenLayout, hit_test

__all__ = [
    "Button",
    "CheckBox",
    "ComboBox",
    "DataGrid",
    "DataItem",
    "Desktop",
    "Dialog",
    "DocumentControl",
    "Edit",
    "Gallery",
    "Group",
    "Hyperlink",
    "InputSimulator",
    "ListBox",
    "ListItemControl",
    "Menu",
    "MenuItem",
    "Pane",
    "RadioButton",
    "ScreenLayout",
    "ScrollBarControl",
    "Shortcut",
    "Slider",
    "Spinner",
    "SplitButton",
    "StatusBar",
    "TabControl",
    "TabItem",
    "TextLabel",
    "ToolBar",
    "TreeControl",
    "TreeItemControl",
    "Window",
    "hit_test",
]
