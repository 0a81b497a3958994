"""UIA control types.

Windows UI Automation defines a closed set of 41 control types (see the
paper, Insight #3).  The enumeration below mirrors that set.  Control types
are one of the three ingredients of a control identifier
(``primary_id|control_type|ancestor_path``) and drive several policies in the
reproduction:

* which controls are *navigational* (containers that reveal other controls)
  versus *functional* (leaves that trigger application behaviour);
* which controls receive a full description in the serialized topology
  (:data:`KEY_CONTROL_TYPES`);
* which controls the ripping explorer will attempt to activate.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet


class ControlType(str, enum.Enum):
    """The 41 UIA control types.

    The string values match the UIA programmatic names (without the
    ``UIA_...ControlTypeId`` prefix), e.g. ``"Button"``, ``"TabItem"``.
    """

    APP_BAR = "AppBar"
    BUTTON = "Button"
    CALENDAR = "Calendar"
    CHECK_BOX = "CheckBox"
    COMBO_BOX = "ComboBox"
    CUSTOM = "Custom"
    DATA_GRID = "DataGrid"
    DATA_ITEM = "DataItem"
    DOCUMENT = "Document"
    EDIT = "Edit"
    GROUP = "Group"
    HEADER = "Header"
    HEADER_ITEM = "HeaderItem"
    HYPERLINK = "Hyperlink"
    IMAGE = "Image"
    LIST = "List"
    LIST_ITEM = "ListItem"
    MENU = "Menu"
    MENU_BAR = "MenuBar"
    MENU_ITEM = "MenuItem"
    PANE = "Pane"
    PROGRESS_BAR = "ProgressBar"
    RADIO_BUTTON = "RadioButton"
    SCROLL_BAR = "ScrollBar"
    SEMANTIC_ZOOM = "SemanticZoom"
    SEPARATOR = "Separator"
    SLIDER = "Slider"
    SPINNER = "Spinner"
    SPLIT_BUTTON = "SplitButton"
    STATUS_BAR = "StatusBar"
    TAB = "Tab"
    TAB_ITEM = "TabItem"
    TABLE = "Table"
    TEXT = "Text"
    THUMB = "Thumb"
    TITLE_BAR = "TitleBar"
    TOOL_BAR = "ToolBar"
    TOOL_TIP = "ToolTip"
    TREE = "Tree"
    TREE_ITEM = "TreeItem"
    WINDOW = "Window"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Every member by its value (a member hashes and compares as its value).
_BY_VALUE: Dict[str, ControlType] = {member.value: member for member in ControlType}


def control_type_of(value: str) -> ControlType:
    """``ControlType(value)`` by one dict lookup, not ``EnumMeta.__call__``."""
    try:
        return _BY_VALUE[value]
    except (KeyError, TypeError):
        raise ValueError(f"{value!r} is not a valid ControlType") from None


#: Control types whose descriptions are always included in the serialized
#: topology (paper §4.2, "Truncating descriptions").
KEY_CONTROL_TYPES: FrozenSet[ControlType] = frozenset(
    {
        ControlType.MENU,
        ControlType.MENU_ITEM,
        ControlType.TAB_ITEM,
        ControlType.COMBO_BOX,
        ControlType.GROUP,
        ControlType.BUTTON,
        ControlType.SPLIT_BUTTON,
    }
)

#: Control types that usually *contain* other controls rather than triggering
#: application functionality themselves.  Used as a heuristic by the ripper
#: and by topology pruning.
CONTAINER_CONTROL_TYPES: FrozenSet[ControlType] = frozenset(
    {
        ControlType.WINDOW,
        ControlType.PANE,
        ControlType.GROUP,
        ControlType.TAB,
        ControlType.MENU,
        ControlType.MENU_BAR,
        ControlType.TOOL_BAR,
        ControlType.LIST,
        ControlType.TREE,
        ControlType.TABLE,
        ControlType.DATA_GRID,
        ControlType.HEADER,
        ControlType.STATUS_BAR,
        ControlType.TITLE_BAR,
        ControlType.APP_BAR,
        ControlType.SEMANTIC_ZOOM,
    }
)

#: Control types that are typically interactive in a "click activates
#: something" sense; the ripper uses this to decide which candidates to
#: explore.
CLICKABLE_CONTROL_TYPES: FrozenSet[ControlType] = frozenset(
    {
        ControlType.BUTTON,
        ControlType.SPLIT_BUTTON,
        ControlType.MENU_ITEM,
        ControlType.TAB_ITEM,
        ControlType.LIST_ITEM,
        ControlType.TREE_ITEM,
        ControlType.CHECK_BOX,
        ControlType.RADIO_BUTTON,
        ControlType.COMBO_BOX,
        ControlType.HYPERLINK,
        ControlType.EDIT,
        ControlType.SPINNER,
        ControlType.SLIDER,
    }
)

#: Control types that never trigger navigation (they are purely informative
#: or structural) and are therefore skipped by the ripper.
NON_NAVIGATING_CONTROL_TYPES: FrozenSet[ControlType] = frozenset(
    {
        ControlType.TEXT,
        ControlType.IMAGE,
        ControlType.SEPARATOR,
        ControlType.PROGRESS_BAR,
        ControlType.TOOL_TIP,
        ControlType.THUMB,
        ControlType.STATUS_BAR,
        ControlType.TITLE_BAR,
    }
)


def is_container_type(control_type: ControlType) -> bool:
    """Return True if ``control_type`` is a structural container type."""
    return control_type in CONTAINER_CONTROL_TYPES


def is_clickable_type(control_type: ControlType) -> bool:
    """Return True if controls of this type are activated by a click."""
    return control_type in CLICKABLE_CONTROL_TYPES


def all_control_types() -> tuple:
    """Return every defined control type (useful for property tests)."""
    return tuple(ControlType)
