"""The Word-like document model.

A :class:`Document` is a list of :class:`Paragraph` objects, each carrying a
:class:`TextFormat`.  The model keeps a *selection* (a contiguous range of
paragraphs or lines) that formatting commands apply to, mirroring how the
simulated Word application behaves: the LLM (or the DMI state declaration
``select_paragraphs`` / ``select_lines``) selects text, then a ribbon command
mutates the selected range.

The document also acts as the *text provider* behind the editor's
``TextPattern`` (see :class:`repro.gui.widgets.DocumentControl`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.uia.writes import Marked, save


@dataclass
class TextFormat(Marked):
    """Character/paragraph formatting attributes."""

    font: str = "Calibri"
    size: float = 11.0
    bold: bool = False
    italic: bool = False
    underline: bool = False
    strikethrough: bool = False
    subscript: bool = False
    superscript: bool = False
    color: str = "Black"
    highlight: Optional[str] = None
    alignment: str = "left"          # left | center | right | justify
    line_spacing: float = 1.0
    style: str = "Normal"            # Normal | Heading 1 | Heading 2 | Title | Quote

    def copy(self) -> "TextFormat":
        return replace(self)


@dataclass
class Paragraph(Marked):
    """A paragraph of text with uniform formatting.

    Real Word tracks per-run formatting; uniform-per-paragraph formatting is
    enough for every task in the benchmark while keeping checkers simple.
    """

    text: str = ""
    format: TextFormat = field(default_factory=TextFormat)

    @property
    def words(self) -> List[str]:
        return self.text.split()

    def word_count(self) -> int:
        return len(self.words)


class Document(Marked):
    """An editable document: paragraphs, selection, find/replace, page setup."""

    def __init__(self, paragraphs: Optional[List[Paragraph]] = None, title: str = "Document1"):
        self.title = title
        self.paragraphs: List[Paragraph] = paragraphs if paragraphs is not None else []
        #: Selected paragraph range as an inclusive (start, end) tuple, or None.
        self.selection: Optional[Tuple[int, int]] = None
        self.page_orientation: str = "portrait"      # portrait | landscape
        self.page_size: str = "A4"
        self.margins: Dict[str, float] = {"top": 2.54, "bottom": 2.54, "left": 3.18, "right": 3.18}
        self.header_text: str = ""
        self.footer_text: str = ""
        self.zoom_percent: float = 100.0
        self.scroll_percent: float = 0.0
        self.tracked_changes: bool = False
        self.saved: bool = True
        self.save_count: int = 0
        self.file_format: str = "docx"

    # ------------------------------------------------------------------
    # content
    # ------------------------------------------------------------------
    def add_paragraph(self, text: str, fmt: Optional[TextFormat] = None) -> Paragraph:
        paragraph = Paragraph(text=text, format=fmt or TextFormat())
        save(self, self.paragraphs)
        self.paragraphs.append(paragraph)
        self.saved = False
        return paragraph

    def insert_paragraph(self, index: int, text: str, fmt: Optional[TextFormat] = None) -> Paragraph:
        paragraph = Paragraph(text=text, format=fmt or TextFormat())
        save(self, self.paragraphs)
        self.paragraphs.insert(index, paragraph)
        self.saved = False
        return paragraph

    def delete_paragraph(self, index: int) -> Paragraph:
        self.saved = False
        save(self, self.paragraphs)
        removed = self.paragraphs.pop(index)
        if self.selection is not None:
            self.selection = None
        return removed

    def paragraph_count(self) -> int:
        return len(self.paragraphs)

    def word_count(self) -> int:
        return sum(p.word_count() for p in self.paragraphs)

    def full_text(self) -> str:
        return "\n".join(p.text for p in self.paragraphs)

    # ------------------------------------------------------------------
    # text-provider protocol (consumed by TextPattern)
    # ------------------------------------------------------------------
    def get_text(self) -> str:
        return self.full_text()

    def get_lines(self) -> List[str]:
        # Lines and paragraphs coincide in the simplified model.
        return [p.text for p in self.paragraphs]

    def get_paragraphs(self) -> List[str]:
        return [p.text for p in self.paragraphs]

    def select_range(self, start: int, end: int, unit: str = "paragraph") -> None:
        self.select_paragraphs(start, end)

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def select_paragraphs(self, start: int, end: Optional[int] = None) -> Tuple[int, int]:
        end = start if end is None else end
        if start < 0 or end < start or end >= len(self.paragraphs):
            raise IndexError(
                f"invalid paragraph selection [{start}, {end}] in a document of "
                f"{len(self.paragraphs)} paragraphs"
            )
        self.selection = (start, end)
        return self.selection

    def select_all(self) -> Optional[Tuple[int, int]]:
        if not self.paragraphs:
            self.selection = None
        else:
            self.selection = (0, len(self.paragraphs) - 1)
        return self.selection

    def clear_selection(self) -> None:
        self.selection = None

    def selected_paragraphs(self) -> List[Paragraph]:
        if self.selection is None:
            return []
        start, end = self.selection
        return self.paragraphs[start:end + 1]

    def selected_text(self) -> str:
        return "\n".join(p.text for p in self.selected_paragraphs())

    # ------------------------------------------------------------------
    # formatting commands (apply to the selection; no-ops without one)
    # ------------------------------------------------------------------
    def apply_format(self, **attributes) -> int:
        """Set formatting attributes on the selected paragraphs.

        Returns the number of paragraphs affected; unknown attributes raise
        ``AttributeError`` so application wiring bugs surface in tests.
        """
        targets = self.selected_paragraphs()
        for paragraph in targets:
            for key, value in attributes.items():
                if not hasattr(paragraph.format, key):
                    raise AttributeError(f"unknown format attribute {key!r}")
                setattr(paragraph.format, key, value)
        if targets:
            self.saved = False
        return len(targets)

    def toggle_format_flag(self, flag: str) -> int:
        """Toggle a boolean flag (bold/italic/...) across the selection.

        Matches Word semantics: if any selected paragraph lacks the flag, the
        flag is turned on everywhere; otherwise it is turned off everywhere.
        """
        targets = self.selected_paragraphs()
        if not targets:
            return 0
        turn_on = not all(getattr(p.format, flag) for p in targets)
        for paragraph in targets:
            setattr(paragraph.format, flag, turn_on)
        self.saved = False
        return len(targets)

    # ------------------------------------------------------------------
    # find and replace
    # ------------------------------------------------------------------
    def find(self, needle: str, match_case: bool = False) -> List[Tuple[int, int]]:
        """Return (paragraph_index, char_offset) for every occurrence of needle."""
        if not needle:
            return []
        results = []
        for index, paragraph in enumerate(self.paragraphs):
            haystack = paragraph.text if match_case else paragraph.text.lower()
            target = needle if match_case else needle.lower()
            offset = haystack.find(target)
            while offset != -1:
                results.append((index, offset))
                offset = haystack.find(target, offset + 1)
        return results

    def replace_all(self, needle: str, replacement: str, match_case: bool = False) -> int:
        """Replace every occurrence; returns the number of replacements."""
        if not needle:
            return 0
        count = 0
        for paragraph in self.paragraphs:
            if match_case:
                occurrences = paragraph.text.count(needle)
                if occurrences:
                    paragraph.text = paragraph.text.replace(needle, replacement)
            else:
                occurrences, paragraph.text = _replace_case_insensitive(
                    paragraph.text, needle, replacement
                )
            count += occurrences
        if count:
            self.saved = False
        return count

    # ------------------------------------------------------------------
    # document-level operations
    # ------------------------------------------------------------------
    def set_orientation(self, orientation: str) -> None:
        if orientation not in {"portrait", "landscape"}:
            raise ValueError(f"unknown orientation {orientation!r}")
        self.page_orientation = orientation
        self.saved = False

    def set_margins(self, **edges: float) -> None:
        for edge, value in edges.items():
            if edge not in self.margins:
                raise ValueError(f"unknown margin edge {edge!r}")
            save(self, self.margins)
            self.margins[edge] = float(value)
        self.saved = False

    def set_zoom(self, percent: float) -> None:
        self.zoom_percent = max(10.0, min(500.0, percent))

    def scroll_to(self, percent: float) -> None:
        self.scroll_percent = max(0.0, min(100.0, percent))

    def save(self, file_format: Optional[str] = None) -> None:
        if file_format is not None:
            self.file_format = file_format
        self.saved = True
        self.save_count += 1

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """A checker-friendly snapshot of document state."""
        return {
            "title": self.title,
            "paragraphs": len(self.paragraphs),
            "words": self.word_count(),
            "orientation": self.page_orientation,
            "saved": self.saved,
            "file_format": self.file_format,
        }


def _replace_case_insensitive(text: str, needle: str, replacement: str) -> Tuple[int, str]:
    """Case-insensitive replace preserving unmatched text; returns (count, new_text)."""
    result = []
    count = 0
    lower_text = text.lower()
    lower_needle = needle.lower()
    i = 0
    while i < len(text):
        j = lower_text.find(lower_needle, i)
        if j == -1:
            result.append(text[i:])
            break
        result.append(text[i:j])
        result.append(replacement)
        count += 1
        i = j + len(needle)
    else:
        pass
    return count, "".join(result) if count else text


def sample_document() -> Document:
    """A small document used by examples and tests."""
    doc = Document(title="Quarterly Report")
    doc.add_paragraph("Quarterly Report", TextFormat(style="Title", size=28, bold=True))
    doc.add_paragraph("Executive Summary", TextFormat(style="Heading 1", size=16, bold=True))
    doc.add_paragraph(
        "Revenue grew by 14% quarter over quarter, driven primarily by the cloud segment."
    )
    doc.add_paragraph("Key Risks", TextFormat(style="Heading 1", size=16, bold=True))
    doc.add_paragraph(
        "Supply chain volatility remains the principal risk to the hardware roadmap."
    )
    doc.add_paragraph(
        "Mitigation plans include dual sourcing and increased buffer inventory."
    )
    doc.add_paragraph("Outlook", TextFormat(style="Heading 1", size=16, bold=True))
    doc.add_paragraph(
        "We expect continued growth next quarter with improving gross margins."
    )
    return doc
