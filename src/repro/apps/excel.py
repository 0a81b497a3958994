"""The Excel-like application.

``ExcelApp`` exposes a spreadsheet grid (a :class:`repro.gui.widgets.DataGrid`
of ``DataItem`` cells), a Name Box and formula bar, and a ribbon with the
Home, Insert, Page Layout, Formulas, Data and View tabs plus a File menu,
all wired to the :class:`repro.apps.workbook.Workbook` model.

The structural features relevant to the paper are present: the Name Box's
"press ENTER to commit" behaviour (called out in the paper's Lessons
Learned), large drop-down galleries, a shared Format Cells dialog reachable
from several ribbon paths (merge node), and DataItem cells whose content the
DMI observation declaration surfaces without pixel parsing.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.base import Application
from repro.apps.workbook import (
    ConditionalFormatRule,
    Workbook,
    column_index_to_letter,
    parse_range,
    sample_sales_workbook,
    to_a1,
)
from repro.gui.ribbon import (
    DialogBuilder,
    RibbonBuilder,
    build_color_dropdown,
    build_font_controls,
    build_gallery_button,
    build_menu_button,
)
from repro.gui.widgets import (
    Button,
    CheckBox,
    DataGrid,
    DataItem,
    Edit,
    Pane,
    ScrollBarControl,
    StatusBar,
    TextLabel,
)
from repro.uia.writes import save

#: Number formats offered by the Number group combo box.
NUMBER_FORMATS = ("General", "Number", "Currency", "Accounting", "Percentage",
                  "Date", "Time", "Text", "Scientific", "Fraction")

CHART_TYPES = ("Clustered Column", "Stacked Column", "Line", "Pie", "Bar", "Area",
               "Scatter", "Histogram")

#: Size of the visible grid in the UI (the workbook model itself is larger).
GRID_ROWS = 15
GRID_COLUMNS = 8


class ExcelApp(Application):
    """The simulated spreadsheet application."""

    APP_NAME = "Excel"

    def __init__(self, desktop=None, workbook: Optional[Workbook] = None) -> None:
        self.workbook = workbook if workbook is not None else sample_sales_workbook()
        super().__init__(desktop=desktop)

    # ------------------------------------------------------------------
    def document_title(self) -> str:
        return self.workbook.name

    @property
    def state(self) -> Workbook:
        return self.workbook

    @property
    def sheet(self):
        return self.workbook.active_sheet

    # ------------------------------------------------------------------
    def build_ui(self) -> None:
        self.ribbon = RibbonBuilder(self.window, self.APP_NAME)
        self._build_file_menu()
        self._build_home_tab()
        self._build_insert_tab()
        self._build_page_layout_tab()
        self._build_formulas_tab()
        self._build_data_tab()
        self._build_view_tab()
        self._build_grid_area()
        self._build_status_bar()
        self._register_shortcuts()
        self.ribbon.select_tab("Home")

    # ------------------------------------------------------------------
    # File menu
    # ------------------------------------------------------------------
    def _build_file_menu(self) -> None:
        self.ribbon.add_tab("File", description="File operations (Backstage view)")
        group = self.ribbon.add_group("File", "Backstage")
        group.add_child(Button("Save", automation_id="Excel.File.Save",
                               description="Save the workbook",
                               on_click=lambda: self.workbook.save()))
        group.add_child(Button("Save As", automation_id="Excel.File.SaveAs",
                               description="Save the workbook under a new name or format",
                               on_click=self._open_save_as_dialog))
        group.add_child(Button("Export as CSV", automation_id="Excel.File.ExportCSV",
                               on_click=lambda: self.workbook.save(file_format="csv")))
        group.add_child(Button("Print", automation_id="Excel.File.Print"))

    # ------------------------------------------------------------------
    # Home tab
    # ------------------------------------------------------------------
    def _build_home_tab(self) -> None:
        self.ribbon.add_tab("Home", description="Common spreadsheet commands")

        clipboard = self.ribbon.add_group("Home", "Clipboard")
        clipboard.add_child(Button("Paste", automation_id="Excel.Home.Paste"))
        clipboard.add_child(Button("Cut", automation_id="Excel.Home.Cut"))
        clipboard.add_child(Button("Copy", automation_id="Excel.Home.Copy"))

        font_group = self.ribbon.add_group("Home", "Font")
        for combo in build_font_controls(
            "Excel.Home",
            on_font=lambda value: self._apply_selection_format(font=value),
            on_size=lambda value: self._apply_selection_format(size=float(value)),
        ):
            font_group.add_child(combo)
        font_group.add_child(Button("Bold", automation_id="Excel.Home.Bold",
                                    description="Make the selected cells bold",
                                    on_click=lambda: self._apply_selection_format(bold=True)))
        font_group.add_child(Button("Italic", automation_id="Excel.Home.Italic",
                                    on_click=lambda: self._apply_selection_format(italic=True)))
        font_group.add_child(build_color_dropdown(
            "Fill Color",
            automation_id="Excel.Home.FillColor",
            description="Color the background of the selected cells",
            on_choice=lambda color: self._apply_selection_format(fill_color=color),
        ))
        font_group.add_child(build_color_dropdown(
            "Font Color",
            automation_id="Excel.Home.FontColor",
            description="Change the text color of the selected cells",
            on_choice=lambda color: self._apply_selection_format(font_color=color),
        ))
        font_group.add_child(Button("Borders", automation_id="Excel.Home.Borders",
                                    on_click=lambda: self._apply_selection_format(border=True)))
        font_group.add_child(Button("Format Cells Dialog Launcher",
                                    automation_id="Excel.Home.FormatCellsLauncher",
                                    description="Open the Format Cells dialog",
                                    on_click=self._open_format_cells_dialog))

        alignment = self.ribbon.add_group("Home", "Alignment")
        for name, value in (("Align Left", "left"), ("Center", "center"), ("Align Right", "right")):
            alignment.add_child(Button(name, automation_id=f"Excel.Home.{name.replace(' ', '')}",
                                       on_click=lambda v=value: self._apply_selection_format(alignment=v)))
        alignment.add_child(Button("Wrap Text", automation_id="Excel.Home.WrapText",
                                   description="Wrap long text inside the selected cells",
                                   on_click=lambda: self._apply_selection_format(wrap_text=True)))
        alignment.add_child(Button("Merge & Center", automation_id="Excel.Home.MergeCenter"))

        number = self.ribbon.add_group("Home", "Number")
        number.add_child(build_gallery_button(
            "Number Format", NUMBER_FORMATS,
            automation_id="Excel.Home.NumberFormat",
            description="Choose how values are displayed",
            on_choice=lambda fmt: self._apply_selection_format(number_format=fmt),
        ))
        number.add_child(Button("Percent Style", automation_id="Excel.Home.PercentStyle",
                                description="Display the selection as a percentage",
                                on_click=lambda: self._apply_selection_format(number_format="Percentage")))
        number.add_child(Button("Comma Style", automation_id="Excel.Home.CommaStyle",
                                on_click=lambda: self._apply_selection_format(number_format="Number")))
        number.add_child(Button("Increase Decimal", automation_id="Excel.Home.IncreaseDecimal",
                                on_click=lambda: self._change_decimals(+1)))
        number.add_child(Button("Decrease Decimal", automation_id="Excel.Home.DecreaseDecimal",
                                on_click=lambda: self._change_decimals(-1)))
        number.add_child(Button("Number Format Dialog Launcher",
                                automation_id="Excel.Home.NumberDialogLauncher",
                                description="Open the Format Cells dialog on the Number page",
                                on_click=self._open_format_cells_dialog))

        styles = self.ribbon.add_group("Home", "Styles")
        styles.add_child(build_menu_button(
            "Conditional Formatting", {
                "Greater Than...": lambda: self._open_conditional_format_dialog("greater_than"),
                "Less Than...": lambda: self._open_conditional_format_dialog("less_than"),
                "Equal To...": lambda: self._open_conditional_format_dialog("equal_to"),
                "Between...": lambda: self._open_conditional_format_dialog("between"),
                "Clear Rules": self._clear_conditional_formats,
            },
            automation_id="Excel.Home.ConditionalFormatting",
            description="Highlight cells that match a condition",
        ))
        styles.add_child(build_gallery_button(
            "Format as Table", tuple(f"Table Style {i}" for i in range(1, 13)),
            automation_id="Excel.Home.FormatAsTable",
            on_choice=lambda _s: None,
        ))
        styles.add_child(build_gallery_button(
            "Cell Styles", ("Normal", "Good", "Bad", "Neutral", "Input", "Output",
                            "Heading 1", "Heading 2", "Total"),
            automation_id="Excel.Home.CellStyles",
            on_choice=lambda _s: None,
        ))

        cells = self.ribbon.add_group("Home", "Cells")
        cells.add_child(build_menu_button(
            "Insert", {
                "Insert Cells": lambda: None,
                "Insert Sheet Rows": lambda: None,
                "Insert Sheet Columns": lambda: None,
                "Insert Sheet": self._insert_sheet,
            },
            automation_id="Excel.Home.InsertCells",
        ))
        cells.add_child(build_menu_button(
            "Delete", {
                "Delete Cells": lambda: None,
                "Delete Sheet Rows": lambda: None,
                "Delete Sheet Columns": lambda: None,
            },
            automation_id="Excel.Home.DeleteCells",
        ))
        cells.add_child(build_menu_button(
            "Format", {
                "Row Height...": self._open_row_height_dialog,
                "Column Width...": self._open_column_width_dialog,
                "Hide Columns": self._hide_selected_columns,
                "Format Cells...": self._open_format_cells_dialog,
            },
            automation_id="Excel.Home.FormatMenu",
            description="Change row height, column width or cell formatting",
        ))

        editing = self.ribbon.add_group("Home", "Editing")
        editing.add_child(build_menu_button(
            "AutoSum", {
                "Sum": lambda: self._insert_aggregate("SUM"),
                "Average": lambda: self._insert_aggregate("AVERAGE"),
                "Count Numbers": lambda: self._insert_aggregate("COUNT"),
                "Max": lambda: self._insert_aggregate("MAX"),
                "Min": lambda: self._insert_aggregate("MIN"),
            },
            automation_id="Excel.Home.AutoSum",
            description="Insert an aggregate formula below the selection",
        ))
        editing.add_child(build_menu_button(
            "Sort & Filter", {
                "Sort A to Z": lambda: self._sort_selection(ascending=True),
                "Sort Z to A": lambda: self._sort_selection(ascending=False),
                "Custom Sort...": self._open_sort_dialog,
                "Filter": lambda: self.sheet.set_filter(0, "enabled"),
            },
            automation_id="Excel.Home.SortFilter",
            description="Sort or filter the selected range",
        ))
        editing.add_child(build_menu_button(
            "Find & Select", {
                "Find...": lambda: None,
                "Replace...": lambda: None,
                "Go To...": lambda: None,
            },
            automation_id="Excel.Home.FindSelect",
        ))

    # ------------------------------------------------------------------
    # Insert tab
    # ------------------------------------------------------------------
    def _build_insert_tab(self) -> None:
        self.ribbon.add_tab("Insert", description="Insert tables, charts and objects")
        tables = self.ribbon.add_group("Insert", "Tables")
        tables.add_child(Button("PivotTable", automation_id="Excel.Insert.PivotTable"))
        tables.add_child(Button("Table", automation_id="Excel.Insert.Table"))
        charts = self.ribbon.add_group("Insert", "Charts")
        charts.add_child(build_gallery_button(
            "Insert Column Chart", ("Clustered Column", "Stacked Column", "100% Stacked Column"),
            automation_id="Excel.Insert.ColumnChart",
            description="Insert a column chart from the selected data",
            on_choice=lambda kind: self._insert_chart(kind),
        ))
        charts.add_child(build_gallery_button(
            "Insert Line Chart", ("Line", "Stacked Line", "Line with Markers"),
            automation_id="Excel.Insert.LineChart",
            on_choice=lambda kind: self._insert_chart(kind),
        ))
        charts.add_child(build_gallery_button(
            "Insert Pie Chart", ("Pie", "Doughnut", "3-D Pie"),
            automation_id="Excel.Insert.PieChart",
            on_choice=lambda kind: self._insert_chart(kind),
        ))
        charts.add_child(build_gallery_button(
            "Recommended Charts", CHART_TYPES,
            automation_id="Excel.Insert.RecommendedCharts",
            on_choice=lambda kind: self._insert_chart(kind),
        ))
        sparklines = self.ribbon.add_group("Insert", "Sparklines")
        sparklines.add_child(Button("Line Sparkline", automation_id="Excel.Insert.SparkLine"))
        sparklines.add_child(Button("Column Sparkline", automation_id="Excel.Insert.SparkColumn"))
        text_group = self.ribbon.add_group("Insert", "Text")
        text_group.add_child(Button("Text Box", automation_id="Excel.Insert.TextBox"))
        text_group.add_child(Button("Header & Footer", automation_id="Excel.Insert.HeaderFooter"))

    # ------------------------------------------------------------------
    # Page Layout tab
    # ------------------------------------------------------------------
    def _build_page_layout_tab(self) -> None:
        self.ribbon.add_tab("Page Layout", description="Themes and page setup")
        themes = self.ribbon.add_group("Page Layout", "Themes")
        themes.add_child(build_gallery_button(
            "Themes", ("Office", "Facet", "Integral", "Ion", "Organic"),
            automation_id="Excel.PageLayout.Themes",
            on_choice=lambda _t: None,
        ))
        setup = self.ribbon.add_group("Page Layout", "Page Setup")
        setup.add_child(build_menu_button(
            "Orientation", {
                "Portrait": lambda: None,
                "Landscape": lambda: None,
            },
            automation_id="Excel.PageLayout.Orientation",
        ))
        setup.add_child(build_gallery_button(
            "Margins", ("Normal", "Wide", "Narrow"),
            automation_id="Excel.PageLayout.Margins",
            on_choice=lambda _m: None,
        ))
        setup.add_child(Button("Print Area", automation_id="Excel.PageLayout.PrintArea"))

    # ------------------------------------------------------------------
    # Formulas tab
    # ------------------------------------------------------------------
    def _build_formulas_tab(self) -> None:
        self.ribbon.add_tab("Formulas", description="Function library and calculation")
        library = self.ribbon.add_group("Formulas", "Function Library")
        library.add_child(build_menu_button(
            "AutoSum (Formulas)", {
                "Sum": lambda: self._insert_aggregate("SUM"),
                "Average": lambda: self._insert_aggregate("AVERAGE"),
            },
            automation_id="Excel.Formulas.AutoSum",
        ))
        library.add_child(Button("Insert Function", automation_id="Excel.Formulas.InsertFunction",
                                 on_click=self._open_insert_function_dialog))
        library.add_child(build_gallery_button(
            "Math & Trig", ("SUM", "ROUND", "ABS", "SQRT", "POWER"),
            automation_id="Excel.Formulas.MathTrig",
            on_choice=lambda fn: self._insert_aggregate(fn if fn in ("SUM",) else "SUM"),
        ))
        calculation = self.ribbon.add_group("Formulas", "Calculation")
        calculation.add_child(Button("Calculate Now", automation_id="Excel.Formulas.CalculateNow",
                                     description="Recalculate the entire workbook",
                                     on_click=self._recalculate))

    # ------------------------------------------------------------------
    # Data tab
    # ------------------------------------------------------------------
    def _build_data_tab(self) -> None:
        self.ribbon.add_tab("Data", description="Sort, filter and data tools")
        sort_filter = self.ribbon.add_group("Data", "Sort & Filter")
        sort_filter.add_child(Button("Sort A to Z (Data)", automation_id="Excel.Data.SortAsc",
                                     description="Sort the selection ascending",
                                     on_click=lambda: self._sort_selection(ascending=True)))
        sort_filter.add_child(Button("Sort Z to A (Data)", automation_id="Excel.Data.SortDesc",
                                     on_click=lambda: self._sort_selection(ascending=False)))
        sort_filter.add_child(Button("Sort (Custom)", automation_id="Excel.Data.CustomSort",
                                     description="Open the Sort dialog",
                                     on_click=self._open_sort_dialog))
        sort_filter.add_child(Button("Filter (Data)", automation_id="Excel.Data.Filter",
                                     on_click=lambda: self.sheet.set_filter(0, "enabled")))
        tools = self.ribbon.add_group("Data", "Data Tools")
        tools.add_child(Button("Text to Columns", automation_id="Excel.Data.TextToColumns"))
        tools.add_child(Button("Remove Duplicates", automation_id="Excel.Data.RemoveDuplicates"))
        tools.add_child(Button("Data Validation", automation_id="Excel.Data.DataValidation"))

    # ------------------------------------------------------------------
    # View tab
    # ------------------------------------------------------------------
    def _build_view_tab(self) -> None:
        self.ribbon.add_tab("View", description="Workbook views, freeze panes and zoom")
        show = self.ribbon.add_group("View", "Show")
        show.add_child(CheckBox("Gridlines", checked=True, automation_id="Excel.View.Gridlines"))
        show.add_child(CheckBox("Formula Bar", checked=True, automation_id="Excel.View.FormulaBar"))
        show.add_child(CheckBox("Headings", checked=True, automation_id="Excel.View.Headings"))
        zoom = self.ribbon.add_group("View", "Zoom")
        zoom.add_child(Button("Zoom", automation_id="Excel.View.Zoom"))
        zoom.add_child(Button("100%", automation_id="Excel.View.Zoom100"))
        window_group = self.ribbon.add_group("View", "Window")
        window_group.add_child(build_menu_button(
            "Freeze Panes", {
                "Freeze Panes": lambda: self.sheet.freeze_panes(1, 1),
                "Freeze Top Row": lambda: self.sheet.freeze_panes(1, 0),
                "Freeze First Column": lambda: self.sheet.freeze_panes(0, 1),
                "Unfreeze Panes": lambda: self.sheet.freeze_panes(0, 0),
            },
            automation_id="Excel.View.FreezePanes",
            description="Keep rows and columns visible while the rest scrolls",
        ))
        window_group.add_child(Button("New Window", automation_id="Excel.View.NewWindow"))
        window_group.add_child(Button("Split", automation_id="Excel.View.Split"))

    # ------------------------------------------------------------------
    # grid area
    # ------------------------------------------------------------------
    def _build_grid_area(self) -> None:
        area = Pane(name="Workbook Area", automation_id="Excel.WorkbookArea")
        self.window.add_child(area)

        bar = Pane(name="Formula Bar Area", automation_id="Excel.FormulaBarArea")
        area.add_child(bar)
        self.name_box = Edit(
            "Name Box",
            automation_id="Excel.NameBox",
            description="Type a cell reference and press Enter to select it",
            value="A1",
            on_commit=self._select_reference,
            requires_enter_to_commit=True,
        )
        bar.add_child(self.name_box)
        self.formula_bar = Edit(
            "Formula Bar",
            automation_id="Excel.FormulaBar",
            description="Type a value or formula for the active cell",
            on_commit=self._commit_formula_bar,
            requires_enter_to_commit=True,
        )
        bar.add_child(self.formula_bar)

        self.grid = DataGrid("Sheet Grid", rows=GRID_ROWS, columns=GRID_COLUMNS,
                             automation_id="Excel.Grid",
                             cell_factory=self._make_grid_cell)
        area.add_child(self.grid)
        self._refresh_grid()

        self.scrollbar = ScrollBarControl("Vertical Scroll Bar",
                                          automation_id="Excel.VScroll",
                                          orientation="vertical",
                                          on_scroll=lambda p: setattr(self.sheet, "scroll_percent", p))
        area.add_child(self.scrollbar)

        sheet_tabs = Pane(name="Sheet Tabs", automation_id="Excel.SheetTabs")
        area.add_child(sheet_tabs)
        for sheet in self.workbook.sheets:
            sheet_tabs.add_child(Button(sheet.name,
                                        automation_id=f"Excel.SheetTab.{sheet.name}",
                                        on_click=lambda name=sheet.name: self._activate_sheet(name)))

    def _make_grid_cell(self, row: int, column: int) -> DataItem:
        reference = to_a1(row, column)
        cell = DataItem(name=reference, row=row, column=column,
                        automation_id=f"Excel.Cell.{reference}",
                        on_change=lambda value, ref=reference: self._cell_edited(ref, value),
                        on_select=lambda sel, ref=reference: self._grid_cell_selected(ref, sel))
        return cell

    def _grid_cell_selected(self, reference: str, selected: bool) -> None:
        """Clicking a grid cell selects the corresponding worksheet cell."""
        if selected:
            self.sheet.select_range(reference)
            if hasattr(self, "name_box"):
                self.name_box.set_text(reference)

    def _build_status_bar(self) -> None:
        status = StatusBar(name="Status Bar", automation_id="Excel.StatusBar")
        self.window.add_child(status)
        status.add_child(TextLabel("Ready", automation_id="Excel.Status.Mode"))
        status.add_child(TextLabel(f"Sheet: {self.sheet.name}", automation_id="Excel.Status.Sheet"))

    def _register_shortcuts(self) -> None:
        self.register_shortcut("ctrl+s", self.workbook.save)
        self.register_shortcut("ctrl+b", lambda: self._apply_selection_format(bold=True))
        self.register_shortcut("ctrl+i", lambda: self._apply_selection_format(italic=True))
        self.register_shortcut("f9", self._recalculate)

    # ------------------------------------------------------------------
    # command handlers
    # ------------------------------------------------------------------
    def _apply_selection_format(self, **attributes) -> None:
        self.sheet.apply_format_to_selection(**attributes)
        self.workbook.mark_dirty()

    def _change_decimals(self, delta: int) -> None:
        for cell in self.sheet.selected_cells():
            cell.format.decimal_places = max(0, cell.format.decimal_places + delta)

    def _select_reference(self, reference: str) -> None:
        """Name Box commit: select the typed cell or range."""
        reference = reference.strip()
        if not reference:
            return
        self.sheet.select_range(reference)
        self._sync_grid_selection()

    def _commit_formula_bar(self, text: str) -> None:
        """Write the formula-bar content into the first selected cell."""
        if not self.sheet.selection:
            return
        row, column = self.sheet.selection[0]
        self.sheet.set_value(to_a1(row, column), text)
        self.sheet.recalculate()
        self.workbook.mark_dirty()
        self._refresh_grid()

    def _cell_edited(self, reference: str, value: str) -> None:
        self.sheet.set_value(reference, value)
        self.sheet.recalculate()
        self.workbook.mark_dirty()
        self._refresh_grid()

    def _sort_selection(self, ascending: bool) -> None:
        reference = self._selection_reference()
        if reference is None:
            return
        self.sheet.sort_range(reference, key_column=0, ascending=ascending)
        self.workbook.mark_dirty()
        self._refresh_grid()

    def _insert_aggregate(self, function: str) -> None:
        """Insert =FUNCTION(selection) into the cell below the selection."""
        reference = self._selection_reference()
        if reference is None:
            return
        cells = parse_range(reference)
        last_row = max(r for r, _ in cells)
        first_col = min(c for _, c in cells)
        target = to_a1(last_row + 1, first_col)
        self.sheet.set_value(target, f"={function}({reference})")
        self.workbook.mark_dirty()
        self._refresh_grid()

    def _insert_chart(self, chart_type: str) -> None:
        reference = self._selection_reference() or self.sheet.used_range() or "A1:A1"
        self.sheet.insert_chart(chart_type, reference)
        self.workbook.mark_dirty()

    def _insert_sheet(self) -> None:
        index = len(self.workbook.sheets) + 1
        self.workbook.add_sheet(f"Sheet{index}")

    def _activate_sheet(self, name: str) -> None:
        self.workbook.activate_sheet(name)
        self._refresh_grid()

    def _recalculate(self) -> None:
        for sheet in self.workbook.sheets:
            sheet.recalculate()
        self._refresh_grid()

    def _hide_selected_columns(self) -> None:
        save(self.sheet, self.sheet.hidden_columns)
        for _row, column in self.sheet.selection:
            self.sheet.hidden_columns.add(column)

    def _clear_conditional_formats(self) -> None:
        save(self.sheet, self.sheet.conditional_formats)
        self.sheet.conditional_formats.clear()

    def _selection_reference(self) -> Optional[str]:
        if not self.sheet.selection:
            return None
        rows = [r for r, _ in self.sheet.selection]
        cols = [c for _, c in self.sheet.selection]
        return f"{to_a1(min(rows), min(cols))}:{to_a1(max(rows), max(cols))}"

    # ------------------------------------------------------------------
    # grid synchronisation
    # ------------------------------------------------------------------
    def _refresh_grid(self) -> None:
        """Mirror the active worksheet's values into the visible DataItems."""
        if not hasattr(self, "grid"):
            return
        for cell in self.grid.all_cells():
            value = self.sheet.cell_at(cell.row, cell.column).display_value()
            cell.set_display_value(value)

    def _sync_grid_selection(self) -> None:
        selected = set(self.sheet.selection)
        for cell in self.grid.all_cells():
            cell.set_selected_display((cell.row, cell.column) in selected)

    # ------------------------------------------------------------------
    # dialogs
    # ------------------------------------------------------------------
    def _open_format_cells_dialog(self) -> None:
        """The shared Format Cells dialog (merge node in the UNG)."""
        builder = DialogBuilder("Format Cells")
        dialog = builder.build()
        number_page = builder.add_tab("Number")
        builder.add_combo(number_page, "Category", choices=NUMBER_FORMATS, value="General",
                          on_change=lambda fmt: self._apply_selection_format(number_format=fmt))
        builder.add_spinner(number_page, "Decimal places", value=2, maximum=10,
                            on_change=lambda v: self._apply_selection_format(decimal_places=int(v)))
        alignment_page = builder.add_tab("Alignment")
        builder.add_combo(alignment_page, "Horizontal", choices=("General", "Left", "Center", "Right"),
                          value="General",
                          on_change=lambda v: self._apply_selection_format(alignment=v.lower()))
        builder.add_checkbox(alignment_page, "Wrap text",
                             on_change=lambda v: self._apply_selection_format(wrap_text=v))
        font_page = builder.add_tab("Font (Format Cells)")
        builder.add_combo(font_page, "Font (dialog)", choices=("Calibri", "Arial", "Consolas"),
                          value="Calibri",
                          on_change=lambda v: self._apply_selection_format(font=v))
        builder.add_checkbox(font_page, "Bold (dialog)",
                             on_change=lambda v: self._apply_selection_format(bold=v))
        fill_page = builder.add_tab("Fill")
        fill_page.add_child(build_color_dropdown(
            "Background Color",
            automation_id="FormatCells.BackgroundColor",
            on_choice=lambda color: self._apply_selection_format(fill_color=color),
        ))
        self.open_dialog(dialog)

    def _open_conditional_format_dialog(self, operator: str) -> None:
        pending = {"threshold": 0.0, "upper": 0.0, "color": "Light Red"}
        reference = self._selection_reference() or self.sheet.used_range() or "A1:A1"

        def commit() -> None:
            rule = ConditionalFormatRule(
                range_ref=reference,
                operator=operator,
                threshold=pending["threshold"],
                threshold_upper=pending["upper"],
                fill_color=pending["color"],
            )
            self.sheet.add_conditional_format(rule)
            self.workbook.mark_dirty()

        titles = {"greater_than": "Greater Than", "less_than": "Less Than",
                  "equal_to": "Equal To", "between": "Between"}
        builder = DialogBuilder(titles[operator], on_ok=commit)
        dialog = builder.build()
        builder.add_edit(dialog, "Format cells that are", value="0",
                         on_commit=lambda v: pending.update(threshold=float(v or 0)))
        if operator == "between":
            builder.add_edit(dialog, "And", value="0",
                             on_commit=lambda v: pending.update(upper=float(v or 0)))
        builder.add_combo(dialog, "With",
                          choices=("Light Red", "Yellow", "Green", "Custom Format..."),
                          value="Light Red",
                          on_change=lambda v: pending.update(color=v))
        self.open_dialog(dialog)

    def _open_sort_dialog(self) -> None:
        pending = {"column": 0, "ascending": True, "has_header": True}
        reference = self._selection_reference() or self.sheet.used_range() or "A1:A1"

        def commit() -> None:
            self.sheet.sort_range(reference, key_column=pending["column"],
                                  ascending=pending["ascending"],
                                  has_header=pending["has_header"])
            self.workbook.mark_dirty()
            self._refresh_grid()

        builder = DialogBuilder("Sort", on_ok=commit)
        dialog = builder.build()
        column_names = [column_index_to_letter(i) for i in range(GRID_COLUMNS)]
        builder.add_combo(dialog, "Sort by", choices=column_names, value="A",
                          on_change=lambda v: pending.update(
                              column=column_names.index(v)))
        builder.add_combo(dialog, "Order", choices=("A to Z", "Z to A"), value="A to Z",
                          on_change=lambda v: pending.update(ascending=(v == "A to Z")))
        builder.add_checkbox(dialog, "My data has headers", checked=True,
                             on_change=lambda v: pending.update(has_header=v))
        self.open_dialog(dialog)

    def _open_row_height_dialog(self) -> None:
        builder = DialogBuilder("Row Height")
        dialog = builder.build()
        builder.add_spinner(dialog, "Row height", value=15.0, maximum=400.0,
                            on_change=lambda v: self._set_selected_row_heights(v))
        self.open_dialog(dialog)

    def _set_selected_row_heights(self, height: float) -> None:
        for row, _col in self.sheet.selection:
            self.sheet.set_row_height(row, height)

    def _open_column_width_dialog(self) -> None:
        builder = DialogBuilder("Column Width")
        dialog = builder.build()
        builder.add_spinner(dialog, "Column width", value=8.43, maximum=255.0,
                            on_change=lambda v: self._set_selected_column_widths(v))
        self.open_dialog(dialog)

    def _set_selected_column_widths(self, width: float) -> None:
        for _row, column in self.sheet.selection:
            self.sheet.set_column_width_at(column, width)

    def _open_insert_function_dialog(self) -> None:
        builder = DialogBuilder("Insert Function")
        dialog = builder.build()
        builder.add_combo(dialog, "Select a function",
                          choices=("SUM", "AVERAGE", "COUNT", "MAX", "MIN", "IF", "VLOOKUP"),
                          value="SUM",
                          on_change=lambda fn: self._insert_aggregate(fn)
                          if fn in ("SUM", "AVERAGE", "COUNT", "MAX", "MIN") else None)
        self.open_dialog(dialog)

    def _open_save_as_dialog(self) -> None:
        chosen = {"name": self.workbook.name, "format": self.workbook.file_format}

        def commit() -> None:
            self.workbook.name = chosen["name"]
            self.workbook.save(file_format=chosen["format"])

        builder = DialogBuilder("Save As", on_ok=commit)
        dialog = builder.build()
        builder.add_edit(dialog, "File name", value=self.workbook.name,
                         on_commit=lambda v: chosen.update(name=v))
        builder.add_combo(dialog, "Save as type", choices=("xlsx", "xls", "csv", "pdf"),
                          value=self.workbook.file_format,
                          on_change=lambda v: chosen.update(format=v))
        self.open_dialog(dialog)
