"""The Excel-like workbook model.

A :class:`Workbook` holds :class:`Worksheet` objects; each worksheet is a
sparse grid of :class:`Cell` objects addressed by A1-style references.  The
model supports the features exercised by the benchmark tasks: cell values and
formulas (a small evaluator for ``SUM``/``AVERAGE``/arithmetic), number and
fill formatting, conditional formatting rules, sorting, filtering, freeze
panes and chart insertion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.uia.writes import Marked, mark

_A1_RE = re.compile(r"^([A-Za-z]+)([0-9]+)$")


def column_letter_to_index(letters: str) -> int:
    """Convert a column letter ('A', 'Z', 'AA') to a zero-based index."""
    letters = letters.upper()
    value = 0
    for ch in letters:
        if not ("A" <= ch <= "Z"):
            raise ValueError(f"invalid column letters {letters!r}")
        value = value * 26 + (ord(ch) - ord("A") + 1)
    return value - 1


def column_index_to_letter(index: int) -> str:
    """Convert a zero-based column index to letters."""
    if index < 0:
        raise ValueError("column index must be non-negative")
    letters = []
    index += 1
    while index:
        index, remainder = divmod(index - 1, 26)
        letters.append(chr(ord("A") + remainder))
    return "".join(reversed(letters))


def parse_a1(reference: str) -> Tuple[int, int]:
    """Parse an A1-style reference into (row, column) zero-based indices."""
    match = _A1_RE.match(reference.strip())
    if not match:
        raise ValueError(f"invalid cell reference {reference!r}")
    letters, digits = match.groups()
    return int(digits) - 1, column_letter_to_index(letters)


def to_a1(row: int, column: int) -> str:
    """Convert zero-based (row, column) to an A1 reference."""
    return f"{column_index_to_letter(column)}{row + 1}"


def parse_range(reference: str) -> List[Tuple[int, int]]:
    """Expand 'A1:B3' (or a single cell) into a list of (row, column) pairs."""
    reference = reference.strip()
    if ":" not in reference:
        return [parse_a1(reference)]
    start_ref, end_ref = reference.split(":", 1)
    r1, c1 = parse_a1(start_ref)
    r2, c2 = parse_a1(end_ref)
    rows = range(min(r1, r2), max(r1, r2) + 1)
    cols = range(min(c1, c2), max(c1, c2) + 1)
    return [(r, c) for r in rows for c in cols]


@dataclass
class CellFormat(Marked):
    """Visual/numeric formatting of a cell."""

    number_format: str = "General"   # General | Number | Currency | Percentage | Date | Text
    decimal_places: int = 2
    bold: bool = False
    italic: bool = False
    font: str = "Calibri"
    size: float = 11.0
    fill_color: Optional[str] = None
    font_color: str = "Black"
    border: bool = False
    wrap_text: bool = False
    alignment: str = "general"


@dataclass
class Cell(Marked):
    """A single spreadsheet cell."""

    value: object = None
    formula: Optional[str] = None
    format: CellFormat = field(default_factory=CellFormat)

    def display_value(self) -> str:
        if self.value is None:
            return ""
        if isinstance(self.value, float):
            if self.format.number_format == "Percentage":
                return f"{self.value * 100:.{self.format.decimal_places}f}%"
            if self.format.number_format == "Currency":
                return f"${self.value:,.{self.format.decimal_places}f}"
            if self.value == int(self.value) and self.format.number_format == "General":
                return str(int(self.value))
            return f"{self.value:.{self.format.decimal_places}f}"
        return str(self.value)


@dataclass
class ConditionalFormatRule(Marked):
    """A conditional-formatting rule over a range."""

    range_ref: str
    operator: str          # greater_than | less_than | equal_to | between | duplicate
    threshold: float = 0.0
    threshold_upper: float = 0.0
    fill_color: str = "Light Red"

    def matches(self, value: object) -> bool:
        if value is None or not isinstance(value, (int, float)):
            # Paper failure-analysis note: rules apply to all cells in the
            # selected region including blanks; blanks only match equality
            # with zero for the "equal_to" operator when threshold == 0.
            return self.operator == "equal_to" and self.threshold == 0 and value is None
        if self.operator == "greater_than":
            return value > self.threshold
        if self.operator == "less_than":
            return value < self.threshold
        if self.operator == "equal_to":
            return value == self.threshold
        if self.operator == "between":
            low, high = sorted((self.threshold, self.threshold_upper))
            return low <= value <= high
        raise ValueError(f"unknown conditional-format operator {self.operator!r}")


@dataclass
class Chart(Marked):
    """A chart inserted into a worksheet."""

    chart_type: str
    data_range: str
    title: str = ""


class Worksheet(Marked):
    """A sparse grid of cells plus sheet-level settings."""

    def __init__(self, name: str, rows: int = 100, columns: int = 26):
        self.name = name
        self.rows = rows
        self.columns = columns
        self._cells: Dict[Tuple[int, int], Cell] = {}
        self.selection: List[Tuple[int, int]] = []
        self.conditional_formats: List[ConditionalFormatRule] = []
        self.charts: List[Chart] = []
        self.frozen_rows: int = 0
        self.frozen_columns: int = 0
        self.filters: Dict[int, str] = {}
        self.row_heights: Dict[int, float] = {}
        self.column_widths: Dict[int, float] = {}
        self.hidden_columns: set = set()
        self.hidden_rows: set = set()
        self.scroll_percent: float = 0.0

    # ------------------------------------------------------------------
    # cell access
    # ------------------------------------------------------------------
    def cell(self, reference: str) -> Cell:
        """Return the cell at an A1 reference, creating it if necessary."""
        row, column = parse_a1(reference)
        return self.cell_at(row, column)

    def cell_at(self, row: int, column: int) -> Cell:
        if row < 0 or row >= self.rows or column < 0 or column >= self.columns:
            raise IndexError(f"cell ({row}, {column}) outside sheet bounds")
        key = (row, column)
        if key not in self._cells:
            self._cells[key] = Cell()
            mark(self._cells)
        return self._cells[key]

    def set_value(self, reference: str, value: object) -> Cell:
        """Set a literal value or a formula (strings starting with '=')."""
        cell = self.cell(reference)
        if isinstance(value, str) and value.startswith("="):
            cell.formula = value
            cell.value = self.evaluate_formula(value)
        else:
            cell.formula = None
            cell.value = _coerce(value)
        return cell

    def get_value(self, reference: str) -> object:
        row, column = parse_a1(reference)
        cell = self._cells.get((row, column))
        return cell.value if cell is not None else None

    def used_range(self) -> Optional[str]:
        if not self._cells:
            return None
        rows = [r for r, _ in self._cells]
        cols = [c for _, c in self._cells]
        return f"{to_a1(min(rows), min(cols))}:{to_a1(max(rows), max(cols))}"

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def select_range(self, reference: str) -> List[Tuple[int, int]]:
        self.selection = parse_range(reference)
        return self.selection

    def selected_cells(self) -> List[Cell]:
        return [self.cell_at(r, c) for r, c in self.selection]

    def selected_references(self) -> List[str]:
        return [to_a1(r, c) for r, c in self.selection]

    # ------------------------------------------------------------------
    # formulas
    # ------------------------------------------------------------------
    def evaluate_formula(self, formula: str) -> object:
        """Evaluate a small formula language: =SUM(range), =AVERAGE(range),
        =MIN/MAX/COUNT(range), cell references and + - * / arithmetic."""
        body = formula[1:] if formula.startswith("=") else formula
        body = body.strip()
        func_match = re.match(r"^(SUM|AVERAGE|MIN|MAX|COUNT)\((.+)\)$", body, re.IGNORECASE)
        if func_match:
            func, arg = func_match.group(1).upper(), func_match.group(2)
            values = [v for v in self._range_values(arg) if isinstance(v, (int, float))]
            if func == "SUM":
                return float(sum(values))
            if func == "AVERAGE":
                return float(sum(values) / len(values)) if values else 0.0
            if func == "MIN":
                return float(min(values)) if values else 0.0
            if func == "MAX":
                return float(max(values)) if values else 0.0
            if func == "COUNT":
                return float(len(values))
        return self._evaluate_arithmetic(body)

    def _range_values(self, reference: str) -> List[object]:
        return [self.cell_at(r, c).value for r, c in parse_range(reference)]

    def _evaluate_arithmetic(self, expression: str) -> object:
        """Replace cell references with their numeric values and evaluate."""
        def substitute(match: "re.Match") -> str:
            value = self.get_value(match.group(0))
            if value is None:
                return "0"
            if isinstance(value, (int, float)):
                return repr(float(value))
            raise ValueError(f"cell {match.group(0)} does not hold a number")

        substituted = re.sub(r"[A-Za-z]+[0-9]+", substitute, expression)
        if not re.match(r"^[-+*/(). 0-9eE]+$", substituted):
            raise ValueError(f"unsupported formula expression {expression!r}")
        try:
            return float(eval(substituted, {"__builtins__": {}}, {}))  # noqa: S307 - sanitized
        except ZeroDivisionError:
            return float("nan")

    def recalculate(self) -> None:
        """Re-evaluate every formula cell (single pass; no dependency graph)."""
        for cell in self._cells.values():
            if cell.formula:
                cell.value = self.evaluate_formula(cell.formula)

    # ------------------------------------------------------------------
    # formatting / structure commands
    # ------------------------------------------------------------------
    def apply_format_to_selection(self, **attributes) -> int:
        count = 0
        for cell in self.selected_cells():
            for key, value in attributes.items():
                if not hasattr(cell.format, key):
                    raise AttributeError(f"unknown cell format attribute {key!r}")
                setattr(cell.format, key, value)
            count += 1
        return count

    def add_conditional_format(self, rule: ConditionalFormatRule) -> None:
        self.conditional_formats.append(rule)

    def conditional_fill_for(self, reference: str) -> Optional[str]:
        """Resolve the fill colour a cell gets from conditional formatting."""
        row, column = parse_a1(reference)
        value = self.cell_at(row, column).value
        for rule in self.conditional_formats:
            if (row, column) in parse_range(rule.range_ref) and rule.matches(value):
                return rule.fill_color
        return None

    def sort_range(self, reference: str, key_column: int = 0, ascending: bool = True,
                   has_header: bool = False) -> None:
        """Sort the rows of a rectangular range by one of its columns."""
        cells = parse_range(reference)
        rows = sorted({r for r, _ in cells})
        cols = sorted({c for _, c in cells})
        if has_header and rows:
            rows = rows[1:]
        table = [[self.cell_at(r, c).value for c in cols] for r in rows]
        table.sort(key=lambda row: _sort_key(row[key_column]), reverse=not ascending)
        for r_index, row_values in zip(rows, table):
            for c_index, value in zip(cols, row_values):
                self.cell_at(r_index, c_index).value = value

    def set_filter(self, column: int, criterion: str) -> None:
        self.filters[column] = criterion
        mark(self.filters)

    def freeze_panes(self, rows: int, columns: int = 0) -> None:
        self.frozen_rows = rows
        self.frozen_columns = columns

    def insert_chart(self, chart_type: str, data_range: str, title: str = "") -> Chart:
        chart = Chart(chart_type=chart_type, data_range=data_range, title=title)
        self.charts.append(chart)
        return chart

    def hide_column(self, letters: str) -> None:
        self.hidden_columns.add(column_letter_to_index(letters))

    def set_column_width(self, letters: str, width: float) -> None:
        self.set_column_width_at(column_letter_to_index(letters), width)

    def set_column_width_at(self, column: int, width: float) -> None:
        self.column_widths[column] = width
        mark(self.column_widths)

    def set_row_height(self, row: int, height: float) -> None:
        self.row_heights[row] = height
        mark(self.row_heights)


class Workbook(Marked):
    """A collection of worksheets plus workbook-level state."""

    def __init__(self, name: str = "Book1", sheet_names: Iterable[str] = ("Sheet1",)):
        self.name = name
        self.sheets: List[Worksheet] = [Worksheet(n) for n in sheet_names]
        self.active_index: int = 0
        self.saved: bool = True
        self.save_count: int = 0
        self.file_format: str = "xlsx"

    @property
    def active_sheet(self) -> Worksheet:
        return self.sheets[self.active_index]

    def sheet(self, name: str) -> Worksheet:
        for sheet in self.sheets:
            if sheet.name == name:
                return sheet
        raise KeyError(f"no worksheet named {name!r}")

    def add_sheet(self, name: str) -> Worksheet:
        if any(s.name == name for s in self.sheets):
            raise ValueError(f"worksheet {name!r} already exists")
        sheet = Worksheet(name)
        self.sheets.append(sheet)
        self.saved = False
        return sheet

    def activate_sheet(self, name: str) -> Worksheet:
        for index, sheet in enumerate(self.sheets):
            if sheet.name == name:
                self.active_index = index
                return sheet
        raise KeyError(f"no worksheet named {name!r}")

    def save(self, file_format: Optional[str] = None) -> None:
        if file_format is not None:
            self.file_format = file_format
        self.saved = True
        self.save_count += 1

    def mark_dirty(self) -> None:
        self.saved = False


def _coerce(value: object) -> object:
    """Coerce user-typed text to a number where possible (as Excel does)."""
    if isinstance(value, str):
        stripped = value.strip()
        if stripped == "":
            return None
        try:
            return float(stripped) if "." in stripped or "e" in stripped.lower() else float(int(stripped))
        except ValueError:
            return value
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return float(value)
    return value


def _sort_key(value: object):
    """Numbers sort before text; None sorts last (Excel-like behaviour)."""
    if value is None:
        return (2, 0.0, "")
    if isinstance(value, (int, float)):
        return (0, float(value), "")
    return (1, 0.0, str(value).lower())


def sample_sales_workbook() -> Workbook:
    """A workbook with a small sales table used by examples and the benchmark."""
    workbook = Workbook(name="Sales")
    sheet = workbook.active_sheet
    headers = ["Region", "Product", "Units", "Unit Price", "Revenue"]
    rows = [
        ["North", "Laptop", 120, 950.0],
        ["North", "Monitor", 340, 180.0],
        ["South", "Laptop", 95, 950.0],
        ["South", "Keyboard", 410, 35.0],
        ["East", "Monitor", 150, 180.0],
        ["East", "Laptop", 210, 950.0],
        ["West", "Keyboard", 510, 35.0],
        ["West", "Monitor", 260, 180.0],
    ]
    for col, header in enumerate(headers):
        sheet.cell_at(0, col).value = header
    for r, row in enumerate(rows, start=1):
        for c, value in enumerate(row):
            sheet.cell_at(r, c).value = float(value) if isinstance(value, (int, float)) else value
        sheet.set_value(f"E{r + 1}", f"=C{r + 1}*D{r + 1}")
    return workbook
