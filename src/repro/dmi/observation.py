"""Observation declaration: ``get_texts`` (paper §3.5).

``get_texts`` retrieves structured text/values from controls, replacing
pixel-level perception and the compound interactions otherwise needed to
reveal hidden content (e.g. expanding a truncated Excel cell).

Two modes, mirroring the paper's "passive + active" design:

* **passive** — before each LLM call, ``get_texts`` runs over all DataItem
  controls on screen and a truncated, structured digest is injected into the
  prompt; empty values are coalesced for brevity;
* **active** — the LLM explicitly requests the full content of a named
  control when the truncated digest is not enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.base import Application
from repro.dmi.errors import ExecutionStatus, PatternUnsupportedFeedback, StructuredFeedback, ok_feedback
from repro.dmi.matching import FuzzyControlMatcher
from repro.gui.screen import ScreenView
from repro.llm.tokens import estimate_tokens
from repro.uia.control_types import ControlType
from repro.uia.element import UIElement
from repro.uia.patterns import PatternId


@dataclass
class PassiveDigest:
    """The truncated structured payload injected into every prompt."""

    entries: Dict[str, str] = field(default_factory=dict)
    coalesced_empty: int = 0
    truncated: bool = False

    def to_prompt_text(self) -> str:
        lines = ["## On-screen data items (passive get_texts)"]
        for name, value in self.entries.items():
            lines.append(f"{name}: {value}")
        if self.coalesced_empty:
            lines.append(f"({self.coalesced_empty} empty cells omitted)")
        if self.truncated:
            lines.append("(values truncated; call get_texts in active mode for full content)")
        return "\n".join(lines)

    def token_estimate(self) -> int:
        return estimate_tokens(self.to_prompt_text())


@dataclass
class ObservationConfig:
    """Truncation limits for the passive digest."""

    max_items: int = 60
    max_value_chars: int = 24


class ObservationInterface:
    """Implements passive and active ``get_texts``."""

    def __init__(self, app: Application, matcher: Optional[FuzzyControlMatcher] = None,
                 config: Optional[ObservationConfig] = None) -> None:
        self.app = app
        self.matcher = matcher or FuzzyControlMatcher()
        self.config = config or ObservationConfig()

    # ------------------------------------------------------------------
    def _views(self) -> List[ScreenView]:
        desktop = self.app.desktop
        return desktop.views(list(reversed(desktop.open_windows(self.app.process_id))))

    def _visible_data_items(self) -> List[UIElement]:
        return [element for view in self._views() for element in view.elements
                if element.control_type == ControlType.DATA_ITEM]

    @staticmethod
    def _text_of(element: UIElement, max_chars: Optional[int] = None) -> str:
        value = element.get_pattern(PatternId.VALUE)
        text_pattern = element.get_pattern(PatternId.TEXT)
        if value is not None and value.value:
            text = str(value.value)
        elif text_pattern is not None:
            text = text_pattern.get_text()
        else:
            text = element.text or ""
        if max_chars is not None and len(text) > max_chars:
            return text[:max_chars] + "…"
        return text

    # ------------------------------------------------------------------
    # passive mode
    # ------------------------------------------------------------------
    def passive_digest(self) -> PassiveDigest:
        """The truncated DataItem digest injected before each LLM call."""
        digest = PassiveDigest()
        items = self._visible_data_items()
        kept = 0
        for element in items:
            text = self._text_of(element, self.config.max_value_chars)
            if not text:
                digest.coalesced_empty += 1
                continue
            if kept >= self.config.max_items:
                digest.truncated = True
                break
            digest.entries[element.name] = text
            kept += 1
        full_lengths = any(len(self._text_of(e)) > self.config.max_value_chars for e in items)
        digest.truncated = digest.truncated or full_lengths
        return digest

    # ------------------------------------------------------------------
    # active mode
    # ------------------------------------------------------------------
    def get_texts(self, control_label: Optional[str] = None) -> StructuredFeedback:
        """Active retrieval of a control's full text/value.

        Without a label, returns the full (untruncated) DataItem table —
        the "retrieve the complete content" escape hatch.
        """
        if control_label is None:
            table = {e.name: self._text_of(e) for e in self._visible_data_items()
                     if self._text_of(e)}
            return ok_feedback("get_texts", target="<all data items>", values=table)
        match = self.matcher.find_by_label(self._views(), control_label)
        if match.element is None:
            return StructuredFeedback(
                status=ExecutionStatus.ERROR, command_kind="get_texts", target=control_label,
                message=f"no on-screen control labelled {control_label!r}")
        element = match.element
        if (element.get_pattern(PatternId.TEXT) is None
                and element.get_pattern(PatternId.VALUE) is None
                and not element.text):
            return PatternUnsupportedFeedback("get_texts", control_label, "Text/Value")
        return ok_feedback("get_texts", target=element.name, text=self._text_of(element))
