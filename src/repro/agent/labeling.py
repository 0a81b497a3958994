"""Alphabetic labelling of visible controls.

The UFO-2-style baseline labels every control of the visible accessibility
tree before calling the LLM and passes the labels in the prompt.  Labels are
alphabetic (``A``, ``B``, ..., ``Z``, ``AA``, ``AB``, ...) to keep them
distinct from the numeric ids DMI's navigation topology uses (paper §5.1).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.gui.screen import ScreenView
from repro.llm.tokens import estimate_tokens
from repro.uia.element import StampMemo, UIElement


def alphabetic_labels(count: int) -> List[str]:
    """Generate ``count`` labels: A..Z, AA..AZ, BA.. and so on."""
    labels = []
    for index in range(count):
        label = ""
        value = index
        while True:
            label = chr(ord("A") + value % 26) + label
            value = value // 26 - 1
            if value < 0:
                break
        labels.append(label)
    return labels


def label_visible_controls(views: Sequence[ScreenView]) -> Dict[str, UIElement]:
    """Label every named control the ``views`` show.

    Returns an ordered mapping label -> element: view by view in the order
    given, each in pre-order.
    """
    elements = [element for view in views for element in view.elements if element.name]
    return dict(zip(alphabetic_labels(len(elements)), elements))


def labelled_prompt_text(labelling: Dict[str, UIElement]) -> str:
    """Render the labelled control list the way it enters the prompt."""
    lines = ["## Visible controls"]
    for label, element in labelling.items():
        lines.append(f"{label}: {element.name} ({element.control_type.value})")
    return "\n".join(lines)


def labelled_prompt_tokens(labelling: Dict[str, UIElement]) -> int:
    return estimate_tokens(labelled_prompt_text(labelling))


def screen_prompt_tokens(views: Sequence[ScreenView], memo: StampMemo) -> int:
    """:func:`labelled_prompt_tokens` of the labelling ``views`` make.

    The count is memoized in ``memo`` under the views' (window, stamp)
    pairs, in the order given, so it is exact: a screen recorded before is
    neither labelled nor estimated again.
    """
    key = ("labelled_prompt_tokens",) + tuple((view.window, view.stamp) for view in views)
    tokens = memo.get(key)
    if tokens is None:
        tokens = labelled_prompt_tokens(label_visible_controls(views))
        memo.put(key, tokens)
    return tokens
