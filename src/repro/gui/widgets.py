"""Widget toolkit built on top of the UIA element model.

Every widget *is* a :class:`repro.uia.element.UIElement` (subclass) carrying
the appropriate UIA control type and control patterns.  Widgets implement the
imperative GUI behaviour that makes applications navigable:

* a :class:`TabItem` reveals its panel when selected;
* a :class:`MenuItem` with a sub-menu expands it when clicked;
* a :class:`ComboBox` drops down its item list;
* a :class:`Button` can open dialogs or mutate application state via its
  ``on_click`` callback.

The :meth:`Widget.activate` method is the single entry point used by the
input simulator: it dispatches a "primitive interaction" (a click) to the
widget-appropriate pattern.  This is exactly the behaviour DMI's ``visit``
executor relies on when it performs the primitive interaction at the end of a
navigation path.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.uia.control_types import ControlType
from repro.uia.element import BoundingRect, UIElement
from repro.uia.patterns import (
    ExpandCollapsePattern,
    ExpandCollapseState,
    GridItemPattern,
    GridPattern,
    InvokePattern,
    LegacyAccessiblePattern,
    PatternId,
    RangeValuePattern,
    ScrollPattern,
    SelectionItemPattern,
    SelectionPattern,
    TextPattern,
    TogglePattern,
    ToggleState,
    ValuePattern,
    WindowPattern,
)

Callback = Optional[Callable[[], None]]


class Widget(UIElement):
    """Base class for all widgets."""

    DEFAULT_CONTROL_TYPE = ControlType.CUSTOM

    def __init__(
        self,
        name: str = "",
        automation_id: str = "",
        description: str = "",
        control_type: Optional[ControlType] = None,
        enabled: bool = True,
        visible: bool = True,
    ) -> None:
        super().__init__(
            name=name,
            control_type=control_type or self.DEFAULT_CONTROL_TYPE,
            automation_id=automation_id,
            description=description,
            enabled=enabled,
            visible=visible,
        )
        if description:
            self.add_pattern(LegacyAccessiblePattern(self, description=description))

    # ------------------------------------------------------------------
    def activate(self) -> None:
        """Perform the widget's primitive interaction (a single click).

        The default dispatch order mirrors how a real click is interpreted by
        UIA providers: Invoke > SelectionItem > Toggle > ExpandCollapse.
        Widgets override this when a click means something more specific.
        """
        invoke = self.get_pattern(PatternId.INVOKE)
        if invoke is not None:
            invoke.invoke()
            return
        selection_item = self.get_pattern(PatternId.SELECTION_ITEM)
        if selection_item is not None:
            selection_item.select()
            return
        toggle = self.get_pattern(PatternId.TOGGLE)
        if toggle is not None:
            toggle.toggle()
            return
        expand = self.get_pattern(PatternId.EXPAND_COLLAPSE)
        if expand is not None:
            if expand.state == ExpandCollapseState.EXPANDED:
                expand.collapse()
            else:
                expand.expand()
            return
        # A click on an inert widget (Pane/Text) has no effect.


# ----------------------------------------------------------------------
# structural containers
# ----------------------------------------------------------------------
class Pane(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.PANE


class Group(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.GROUP


class ToolBar(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.TOOL_BAR


class StatusBar(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.STATUS_BAR


class TextLabel(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.TEXT

    def __init__(self, text: str, **kwargs) -> None:
        super().__init__(name=text, **kwargs)
        self.text = text


class Hyperlink(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.HYPERLINK

    def __init__(self, name: str, on_click: Callback = None, **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self.add_pattern(InvokePattern(self, on_invoke=on_click))


# ----------------------------------------------------------------------
# buttons and toggles
# ----------------------------------------------------------------------
class Button(Widget):
    """A push button; ``on_click`` mutates application state or opens UI."""

    DEFAULT_CONTROL_TYPE = ControlType.BUTTON

    def __init__(self, name: str, on_click: Callback = None, **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self._on_click = on_click
        self.add_pattern(InvokePattern(self, on_invoke=self._handle_click))

    def _handle_click(self) -> None:
        if self._on_click is not None:
            self._on_click()

    def set_on_click(self, callback: Callback) -> None:
        self._on_click = callback


class SplitButton(Button):
    """A button with an attached drop-down of variants.

    A click both runs the button's own callback (if any) and expands the
    drop-down, revealing the child controls — this is the navigation step the
    ripper captures as outgoing edges.
    """

    DEFAULT_CONTROL_TYPE = ControlType.SPLIT_BUTTON

    def __init__(self, name: str, on_click: Callback = None, **kwargs) -> None:
        super().__init__(name=name, on_click=on_click, **kwargs)
        self._expand = self.add_pattern(
            ExpandCollapsePattern(self, on_expand=self._show_children, on_collapse=self._hide_children)
        )

    def _show_children(self) -> None:
        for child in self.children:
            child.visible = True

    def _hide_children(self) -> None:
        for child in self.children:
            child.visible = False

    def add_child(self, child: UIElement, index: Optional[int] = None) -> UIElement:
        child = super().add_child(child, index)
        child.visible = self._expand.state == ExpandCollapseState.EXPANDED
        return child

    def _handle_click(self) -> None:
        super()._handle_click()
        if self._expand.state == ExpandCollapseState.EXPANDED:
            self._expand.collapse()
        else:
            self._expand.expand()


class CheckBox(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.CHECK_BOX

    def __init__(
        self,
        name: str,
        checked: bool = False,
        on_change: Optional[Callable[[bool], None]] = None,
        **kwargs,
    ) -> None:
        super().__init__(name=name, **kwargs)
        self._on_change = on_change
        self._toggle = self.add_pattern(
            TogglePattern(
                self,
                state=ToggleState.ON if checked else ToggleState.OFF,
                on_change=self._handle_change,
            )
        )

    def _handle_change(self, state: ToggleState) -> None:
        if self._on_change is not None:
            self._on_change(state == ToggleState.ON)

    @property
    def checked(self) -> bool:
        return self._toggle.state == ToggleState.ON

    def set_checked(self, value: bool) -> None:
        self._toggle.set_state(ToggleState.ON if value else ToggleState.OFF)


class RadioButton(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.RADIO_BUTTON

    def __init__(
        self,
        name: str,
        selected: bool = False,
        on_select: Optional[Callable[[bool], None]] = None,
        **kwargs,
    ) -> None:
        super().__init__(name=name, **kwargs)
        self._item = self.add_pattern(
            SelectionItemPattern(self, is_selected=selected, on_select=on_select)
        )

    @property
    def selected(self) -> bool:
        return self._item.is_selected


# ----------------------------------------------------------------------
# tabs
# ----------------------------------------------------------------------
class TabControl(Widget):
    """A tab strip; each :class:`TabItem` owns a content panel."""

    DEFAULT_CONTROL_TYPE = ControlType.TAB

    def __init__(self, name: str = "Tabs", **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self.add_pattern(SelectionPattern(self, can_select_multiple=False))

    def add_tab(self, tab: "TabItem") -> "TabItem":
        self.add_child(tab)
        return tab

    def tabs(self) -> List["TabItem"]:
        return [c for c in self.children if isinstance(c, TabItem)]

    def selected_tab(self) -> Optional["TabItem"]:
        for tab in self.tabs():
            if tab.is_selected:
                return tab
        return None


class TabItem(Widget):
    """A tab header; selecting it reveals its panel and hides siblings'."""

    DEFAULT_CONTROL_TYPE = ControlType.TAB_ITEM

    def __init__(
        self,
        name: str,
        panel: Optional[UIElement] = None,
        on_select: Callback = None,
        **kwargs,
    ) -> None:
        super().__init__(name=name, **kwargs)
        self.panel = panel
        self._on_select = on_select
        self._item = self.add_pattern(
            SelectionItemPattern(self, is_selected=False, on_select=self._handle_select)
        )
        if panel is not None:
            panel.visible = False

    @property
    def is_selected(self) -> bool:
        return self._item.is_selected

    def attach_panel(self, panel: UIElement) -> UIElement:
        self.panel = panel
        panel.visible = self._item.is_selected
        return panel

    def _handle_select(self, selected: bool) -> None:
        if self.panel is not None:
            self.panel.visible = selected
        if selected and self._on_select is not None:
            self._on_select()

    def select(self) -> None:
        self._item.select()


# ----------------------------------------------------------------------
# menus
# ----------------------------------------------------------------------
class Menu(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.MENU


class MenuItem(Widget):
    """A menu entry; with a sub-menu it expands, otherwise it invokes."""

    DEFAULT_CONTROL_TYPE = ControlType.MENU_ITEM

    def __init__(self, name: str, on_click: Callback = None, **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self._on_click = on_click
        self.submenu: Optional[Menu] = None
        self.add_pattern(InvokePattern(self, on_invoke=self._handle_click))
        self._expand = self.add_pattern(
            ExpandCollapsePattern(
                self,
                state=ExpandCollapseState.LEAF_NODE,
                on_expand=self._show_submenu,
                on_collapse=self._hide_submenu,
            )
        )

    def attach_submenu(self, submenu: Menu) -> Menu:
        self.submenu = submenu
        self.add_child(submenu)
        submenu.visible = False
        self._expand.state = ExpandCollapseState.COLLAPSED
        return submenu

    def _show_submenu(self) -> None:
        if self.submenu is not None:
            self.submenu.visible = True

    def _hide_submenu(self) -> None:
        if self.submenu is not None:
            self.submenu.visible = False

    def _handle_click(self) -> None:
        if self.submenu is not None:
            if self._expand.state == ExpandCollapseState.EXPANDED:
                self._expand.collapse()
            else:
                self._expand.expand()
        if self._on_click is not None:
            self._on_click()

    def activate(self) -> None:
        # A click always goes through the invoke handler so that sub-menu
        # expansion and the click callback stay consistent.
        self.get_pattern(PatternId.INVOKE).invoke()


# ----------------------------------------------------------------------
# lists, combo boxes, galleries
# ----------------------------------------------------------------------
class ListBox(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.LIST

    def __init__(self, name: str = "", multi_select: bool = False, **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self.add_pattern(SelectionPattern(self, can_select_multiple=multi_select))

    def add_item(self, item: "ListItemControl") -> "ListItemControl":
        self.add_child(item)
        return item

    def items(self) -> List["ListItemControl"]:
        return [c for c in self.children if isinstance(c, ListItemControl)]

    def selected_items(self) -> List["ListItemControl"]:
        return [i for i in self.items() if i.is_selected]


class ListItemControl(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.LIST_ITEM

    def __init__(self, name: str, on_select: Callback = None, **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self._on_select = on_select
        self._item = self.add_pattern(
            SelectionItemPattern(self, is_selected=False, on_select=self._handle_select)
        )

    @property
    def is_selected(self) -> bool:
        return self._item.is_selected

    def _handle_select(self, selected: bool) -> None:
        if selected and self._on_select is not None:
            self._on_select()


class Gallery(ListBox):
    """A grid-like gallery of choices (colour cells, themes, styles).

    Galleries are modelled as lists; each cell invokes a callback carrying the
    choice value.  This is the structure behind the paper's "colour picker
    reachable via Font / Outline / Underline paths" example: the same gallery
    subtree hangs below several navigation parents, so it becomes a merge node
    in the UNG and eventually a shared subtree in the forest.
    """

    def __init__(self, name: str, choices: Sequence[str],
                 on_choice: Optional[Callable[[str], None]] = None, **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self._on_choice = on_choice
        for choice in choices:
            self.add_item(GalleryCell(choice, gallery=self))

    def choose(self, value: str) -> None:
        if self._on_choice is not None:
            self._on_choice(value)


class GalleryCell(ListItemControl):
    """A single selectable cell of a gallery."""

    def __init__(self, name: str, gallery: Gallery, **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self._gallery = gallery
        self.add_pattern(InvokePattern(self, on_invoke=self._choose))

    def _choose(self) -> None:
        self._item.select()
        self._gallery.choose(self.name)

    def activate(self) -> None:
        self.get_pattern(PatternId.INVOKE).invoke()


class ComboBox(Widget):
    """Drop-down with a value; expanding reveals its items."""

    DEFAULT_CONTROL_TYPE = ControlType.COMBO_BOX

    def __init__(
        self,
        name: str,
        choices: Sequence[str] = (),
        value: str = "",
        on_change: Optional[Callable[[str], None]] = None,
        **kwargs,
    ) -> None:
        super().__init__(name=name, **kwargs)
        self._on_change = on_change
        self._value = self.add_pattern(ValuePattern(self, value=value, on_change=self._changed))
        self._expand = self.add_pattern(
            ExpandCollapsePattern(self, on_expand=self._show_items, on_collapse=self._hide_items)
        )
        self._list = ListBox(name=f"{name} items", automation_id=f"{self.automation_id}_items")
        self.add_child(self._list)
        self._list.visible = False
        for choice in choices:
            self.add_choice(choice)

    @property
    def value(self) -> str:
        return self._value.value

    def add_choice(self, choice: str) -> ListItemControl:
        item = ListItemControl(choice, on_select=lambda c=choice: self._value.set_value(c))
        item.visible = False
        self._list.add_item(item)
        return item

    def choices(self) -> List[str]:
        return [i.name for i in self._list.items()]

    def _changed(self, value: str) -> None:
        if self._on_change is not None:
            self._on_change(value)

    def _show_items(self) -> None:
        self._list.visible = True
        for item in self._list.items():
            item.visible = True

    def _hide_items(self) -> None:
        self._list.visible = False
        for item in self._list.items():
            item.visible = False

    def set_value(self, value: str) -> None:
        self._value.set_value(value)


# ----------------------------------------------------------------------
# text input
# ----------------------------------------------------------------------
class Edit(Widget):
    """A single- or multi-line text entry field."""

    DEFAULT_CONTROL_TYPE = ControlType.EDIT

    def __init__(
        self,
        name: str,
        value: str = "",
        on_change: Optional[Callable[[str], None]] = None,
        on_commit: Optional[Callable[[str], None]] = None,
        requires_enter_to_commit: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(name=name, **kwargs)
        self._on_commit = on_commit
        self.requires_enter_to_commit = requires_enter_to_commit
        self._value = self.add_pattern(ValuePattern(self, value=value, on_change=on_change))
        self.add_pattern(TextPattern(self, provider=None))
        self.text = value

    @property
    def value(self) -> str:
        return self._value.value

    def set_text(self, text: str) -> None:
        """Type text into the field (replaces current content)."""
        self._value.set_value(text)
        self.text = text
        if not self.requires_enter_to_commit:
            self.commit()

    def append_text(self, text: str) -> None:
        self.set_text(self.value + text)

    def commit(self) -> None:
        """Commit the current value (e.g. the user pressed ENTER)."""
        if self._on_commit is not None:
            self._on_commit(self.value)


class DocumentControl(Widget):
    """A document surface exposing TextPattern over an application provider."""

    DEFAULT_CONTROL_TYPE = ControlType.DOCUMENT

    def __init__(self, name: str, provider=None, **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self.provider = provider
        self.add_pattern(TextPattern(self, provider=provider))
        self.add_pattern(ScrollPattern(self, horizontal=0.0, vertical=0.0))


# ----------------------------------------------------------------------
# range-valued widgets
# ----------------------------------------------------------------------
class Slider(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.SLIDER

    def __init__(self, name: str, value: float = 0.0, minimum: float = 0.0,
                 maximum: float = 100.0, on_change: Optional[Callable[[float], None]] = None,
                 **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self._range = self.add_pattern(
            RangeValuePattern(self, value=value, minimum=minimum, maximum=maximum,
                              on_change=on_change)
        )

    @property
    def value(self) -> float:
        return self._range.value

    def set_value(self, value: float) -> None:
        self._range.set_value(value)


class Spinner(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.SPINNER

    def __init__(self, name: str, value: float = 0.0, minimum: float = 0.0,
                 maximum: float = 100.0, step: float = 1.0,
                 on_change: Optional[Callable[[float], None]] = None, **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self._range = self.add_pattern(
            RangeValuePattern(self, value=value, minimum=minimum, maximum=maximum,
                              small_change=step, on_change=on_change)
        )
        self.add_pattern(ValuePattern(self, value=str(value),
                                      on_change=lambda v: self._range.set_value(float(v))))

    @property
    def value(self) -> float:
        return self._range.value

    def increment(self) -> None:
        self._range.set_value(self._range.value + self._range.small_change)

    def decrement(self) -> None:
        self._range.set_value(self._range.value - self._range.small_change)

    def set_value(self, value: float) -> None:
        self._range.set_value(value)


class ScrollBarControl(Widget):
    """A scrollbar; dragging its thumb (imperative) or setting its position
    (declarative) scrolls the associated viewport."""

    DEFAULT_CONTROL_TYPE = ControlType.SCROLL_BAR

    def __init__(self, name: str, orientation: str = "vertical",
                 on_scroll: Optional[Callable[[float], None]] = None, **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self.orientation = orientation
        self._on_scroll = on_scroll
        horizontal = 0.0 if orientation == "horizontal" else ScrollPattern.NO_SCROLL
        vertical = 0.0 if orientation == "vertical" else ScrollPattern.NO_SCROLL
        self._scroll = self.add_pattern(
            ScrollPattern(self, horizontal=horizontal, vertical=vertical,
                          on_scroll=self._scrolled)
        )
        self._range = self.add_pattern(RangeValuePattern(self, value=0.0))

    @property
    def position(self) -> float:
        if self.orientation == "horizontal":
            return self._scroll.horizontal_percent
        return self._scroll.vertical_percent

    def set_position(self, percent: float) -> None:
        if self.orientation == "horizontal":
            self._scroll.set_scroll_percent(percent, None)
        else:
            self._scroll.set_scroll_percent(None, percent)

    def _scrolled(self, horizontal: float, vertical: float) -> None:
        position = horizontal if self.orientation == "horizontal" else vertical
        self._range.set_value(position)
        if self._on_scroll is not None:
            self._on_scroll(position)


# ----------------------------------------------------------------------
# data grids and trees
# ----------------------------------------------------------------------
class DataGrid(Widget):
    """A two-dimensional grid of :class:`DataItem` cells (spreadsheet view)."""

    DEFAULT_CONTROL_TYPE = ControlType.DATA_GRID

    def __init__(self, name: str, rows: int, columns: int,
                 cell_factory: Optional[Callable[[int, int], "DataItem"]] = None,
                 **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self.rows = rows
        self.columns = columns
        self._cells: List[List[DataItem]] = []
        factory = cell_factory or (lambda r, c: DataItem(name=f"R{r+1}C{c+1}", row=r, column=c))
        for row in range(rows):
            row_cells = []
            for column in range(columns):
                cell = factory(row, column)
                self.add_child(cell)
                row_cells.append(cell)
            self._cells.append(row_cells)
        self.add_pattern(GridPattern(self, row_count=rows, column_count=columns,
                                     get_item=self.cell))
        self.add_pattern(SelectionPattern(self, can_select_multiple=True))
        self.add_pattern(ScrollPattern(self, horizontal=0.0, vertical=0.0))

    def cell(self, row: int, column: int) -> "DataItem":
        return self._cells[row][column]

    def all_cells(self) -> List["DataItem"]:
        return [cell for row in self._cells for cell in row]


class DataItem(Widget):
    """A cell in a data grid; exposes Value, Text, GridItem and SelectionItem."""

    DEFAULT_CONTROL_TYPE = ControlType.DATA_ITEM

    def __init__(self, name: str, row: int = 0, column: int = 0, value: str = "",
                 on_change: Optional[Callable[[str], None]] = None,
                 on_select: Optional[Callable[[bool], None]] = None, **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self.row = row
        self.column = column
        self._value = self.add_pattern(ValuePattern(self, value=value, on_change=on_change))
        self.add_pattern(TextPattern(self, provider=None))
        self.add_pattern(GridItemPattern(self, row=row, column=column))
        self._item = self.add_pattern(SelectionItemPattern(self, on_select=on_select))
        self.text = value

    @property
    def value(self) -> str:
        return self._value.value

    def set_value(self, value: str) -> None:
        self._value.set_value(value)
        self.text = self._value.value

    def set_display_value(self, value: str) -> None:
        """Update the displayed value without firing the edit callback.

        Used when the application mirrors model state into the grid (the
        change originated in the model, not in user input).
        """
        self._value.value = str(value)
        self.text = str(value)

    @property
    def is_selected(self) -> bool:
        return self._item.is_selected

    def set_selected(self, value: bool) -> None:
        self._item._set_selected(value)

    def set_selected_display(self, value: bool) -> None:
        """Mirror a selection made in the model without firing the selection
        callback (used when the application syncs model state into the grid)."""
        self._item.is_selected = value


class TreeControl(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.TREE

    def __init__(self, name: str = "", **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self.add_pattern(SelectionPattern(self, can_select_multiple=False))


class TreeItemControl(Widget):
    DEFAULT_CONTROL_TYPE = ControlType.TREE_ITEM

    def __init__(self, name: str, on_select: Callback = None, **kwargs) -> None:
        super().__init__(name=name, **kwargs)
        self._on_select = on_select
        self._item = self.add_pattern(
            SelectionItemPattern(self, on_select=lambda s: on_select() if s and on_select else None)
        )
        self._expand = self.add_pattern(
            ExpandCollapsePattern(self, state=ExpandCollapseState.LEAF_NODE,
                                  on_expand=self._show_children, on_collapse=self._hide_children)
        )

    def add_child(self, child: UIElement, index: Optional[int] = None) -> UIElement:
        child = super().add_child(child, index)
        if isinstance(child, TreeItemControl):
            child.visible = False
            self._expand.state = ExpandCollapseState.COLLAPSED
        return child

    def _show_children(self) -> None:
        for child in self.children:
            child.visible = True

    def _hide_children(self) -> None:
        for child in self.children:
            child.visible = False

    @property
    def is_selected(self) -> bool:
        return self._item.is_selected


# ----------------------------------------------------------------------
# windows
# ----------------------------------------------------------------------
class Window(Widget):
    """A top-level window; the root of an accessibility subtree."""

    DEFAULT_CONTROL_TYPE = ControlType.WINDOW

    def __init__(self, title: str, is_modal: bool = False,
                 on_close: Callback = None, **kwargs) -> None:
        super().__init__(name=title, **kwargs)
        self._user_on_close = on_close
        self._window = self.add_pattern(
            WindowPattern(self, is_modal=is_modal, on_close=self._handle_close)
        )
        self.desktop = None  # set by Desktop.open_window
        self.process_id: Optional[int] = None

    @property
    def is_modal(self) -> bool:
        return self._window.is_modal

    @property
    def is_open(self) -> bool:
        return self._window.is_open

    def close(self) -> None:
        self._window.close()

    def _handle_close(self) -> None:
        if self._user_on_close is not None:
            self._user_on_close()
        if self.desktop is not None:
            self.desktop.notify_window_closed(self)


class Dialog(Window):
    """A modal dialog with conventional OK / Cancel / Close buttons.

    The executor's "closing priority" (OK > Close > Cancel, paper §4.3)
    operates on the buttons created here.
    """

    def __init__(self, title: str, on_ok: Callback = None, on_cancel: Callback = None,
                 with_buttons: bool = True, **kwargs) -> None:
        super().__init__(title, is_modal=True, **kwargs)
        self._on_ok = on_ok
        self._on_cancel = on_cancel
        self.ok_button: Optional[Button] = None
        self.cancel_button: Optional[Button] = None
        self.close_button: Optional[Button] = None
        if with_buttons:
            self._build_buttons()

    def _build_buttons(self) -> None:
        footer = Group(name="Dialog buttons", automation_id=f"{self.name}.buttons")
        self.add_child(footer)
        self.ok_button = Button("OK", on_click=self._ok, automation_id=f"{self.name}.OK")
        self.cancel_button = Button("Cancel", on_click=self._cancel,
                                    automation_id=f"{self.name}.Cancel")
        self.close_button = Button("Close", on_click=self._cancel,
                                   automation_id=f"{self.name}.Close")
        footer.add_children([self.ok_button, self.cancel_button, self.close_button])

    def _ok(self) -> None:
        if self._on_ok is not None:
            self._on_ok()
        self.close()

    def _cancel(self) -> None:
        if self._on_cancel is not None:
            self._on_cancel()
        self.close()
