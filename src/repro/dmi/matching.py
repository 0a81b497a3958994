"""Fuzzy control matching (paper §3.4).

Exact control identifiers can stop matching at runtime: UIA gives no
uniqueness guarantee, applications rename controls ("Next" becomes "Go To"),
and ancestor chains shift when panes are rebuilt.  The fuzzy matcher combines
control type, ancestor hierarchy and name similarity so the executor can
still locate the intended control when exact matching fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import List, Optional, Sequence

from repro.gui.screen import ScreenView
from repro.uia.element import UIElement
from repro.uia.identifiers import ControlIdentifier


@dataclass
class MatchResult:
    """Outcome of a control lookup."""

    element: Optional[UIElement]
    score: float = 0.0
    exact: bool = False

    @property
    def found(self) -> bool:
        return self.element is not None


def _name_similarity(a: str, b: str) -> float:
    if not a or not b:
        return 0.0
    a, b = a.lower(), b.lower()
    if a == b:
        return 1.0
    if a in b or b in a:
        return 0.85
    return SequenceMatcher(None, a, b).ratio()


def _id_tail(identifier: str) -> str:
    """The last dot-separated segment of an automation id ("Word.Home.Bold" -> "Bold")."""
    return identifier.rsplit(".", 1)[-1] if "." in identifier else identifier


def _primary_similarity(wanted: str, element: UIElement) -> float:
    """Similarity between an identifier's primary id and an element.

    Dotted automation ids share long app/tab prefixes ("PowerPoint.Design.X"
    vs "PowerPoint.Home.Y"), which would inflate plain string similarity, so
    dotted ids are compared on their final segment; the element's
    human-readable name is also considered.
    """
    candidate_id = element.primary_id
    if "." in wanted and "." in candidate_id:
        id_score = _name_similarity(_id_tail(wanted), _id_tail(candidate_id))
    else:
        id_score = _name_similarity(wanted, candidate_id)
    name_score = _name_similarity(_id_tail(wanted), element.name)
    return max(id_score, name_score)


def _ancestor_compatible(identifier: ControlIdentifier, element: UIElement) -> bool:
    """True when the element's position is consistent with the stored path.

    The immediate parent must carry the same primary id (or one of the two
    ancestor paths must be empty — e.g. top-level controls); deeper ancestors
    may differ because windows are recreated between modeling and execution.
    """
    if not identifier.ancestor_path:
        return True
    parent = element.parent
    if parent is None:
        return False
    return parent.primary_id == identifier.ancestor_path[-1]


def _ancestor_overlap(identifier: ControlIdentifier, element: UIElement) -> float:
    wanted = [seg.lower() for seg in identifier.ancestor_path]
    actual = [a.primary_id.lower() for a in reversed(element.ancestors())]
    if not wanted or not actual:
        return 0.5  # nothing to compare — neutral
    overlap = len(set(wanted) & set(actual))
    return overlap / max(len(wanted), 1)


class FuzzyControlMatcher:
    """Locates controls in the live accessibility tree, exactly or fuzzily."""

    def __init__(self, minimum_score: float = 0.62) -> None:
        self.minimum_score = minimum_score

    # ------------------------------------------------------------------
    def find(self, views: Sequence[ScreenView], identifier: ControlIdentifier,
             allow_fuzzy: bool = True) -> MatchResult:
        """Find the on-screen element best matching ``identifier`` in ``views``.

        Exact matches (primary id + control type, with the stored ancestor
        path as a suffix or superset) win: each view's primary-id index
        yields them without a scan.  Otherwise the highest-scoring fuzzy
        candidate above the threshold, among every element the views show,
        is returned (unless ``allow_fuzzy`` is False).
        """
        # Exact matches must also be ancestor-compatible: several controls can
        # share a primary id ("Blue" colour cells under different pickers) and
        # picking the wrong one would silently change semantics — the very
        # path-dependence problem DMI exists to avoid.
        exact = [e for view in views for e in view.with_primary_id(identifier.primary_id)
                 if e.control_type == identifier.control_type
                 and _ancestor_compatible(identifier, e)]
        if exact:
            best = max(exact, key=lambda e: _ancestor_overlap(identifier, e))
            return MatchResult(element=best, score=1.0, exact=True)
        if not allow_fuzzy:
            return MatchResult(element=None, score=0.0, exact=False)

        best_element: Optional[UIElement] = None
        best_score = 0.0
        for view in views:
            for element in view.elements:
                type_score = 1.0 if element.control_type == identifier.control_type else 0.0
                name_score = _primary_similarity(identifier.primary_id, element)
                ancestor_score = _ancestor_overlap(identifier, element)
                score = 0.25 * type_score + 0.55 * name_score + 0.20 * ancestor_score
                if score > best_score:
                    best_score = score
                    best_element = element
        if best_element is not None and best_score >= self.minimum_score:
            return MatchResult(element=best_element, score=best_score, exact=False)
        return MatchResult(element=None, score=best_score, exact=False)

    # ------------------------------------------------------------------
    #: Labels are short and easily confusable ("Item A" vs "Item Z"), so the
    #: label lookup demands a noticeably higher similarity than identifier
    #: matching before accepting a non-exact candidate.
    LABEL_MINIMUM_SCORE = 0.85

    def find_by_label(self, views: Sequence[ScreenView], label: str) -> MatchResult:
        """Find an on-screen control by its label (name).

        This is the lookup used by the state/observation interfaces, which
        deliberately operate on the current screen's accessibility tree
        rather than on static topology ids (paper §3.5).
        """
        # Only an equal name (ignoring case) scores 1.0, which no other
        # candidate can beat: the views' name indexes find those.  Ties (a
        # ribbon *group* and the control inside it often share a name) are
        # broken in favour of the more interactive, more specific (deeper)
        # element, and then of the earlier one.
        exact = [e for view in views for e in view.named(label.lower())]
        if exact:
            best = max(exact, key=lambda e: (len(e.patterns), e.depth()))
            return MatchResult(element=best, score=1.0, exact=True)
        best_element: Optional[UIElement] = None
        best_key = (-1.0, -1, -1)
        best_score = 0.0
        for view in views:
            for element in view.elements:
                score = _name_similarity(element.name, label)
                key = (score, len(element.patterns), element.depth())
                if key > best_key:
                    best_key = key
                    best_score = score
                    best_element = element
        threshold = max(self.minimum_score, self.LABEL_MINIMUM_SCORE)
        if best_element is not None and best_score >= threshold:
            return MatchResult(element=best_element, score=best_score,
                               exact=best_score >= 0.999)
        return MatchResult(element=None, score=best_score, exact=False)

    def nearest_names(self, roots: Sequence[UIElement], identifier: ControlIdentifier,
                      limit: int = 3) -> List[str]:
        """Names of the closest candidates (for structured error feedback)."""
        scored = []
        for root in roots:
            for element in root.iter_subtree():
                if not element.name:
                    continue
                scored.append((_name_similarity(element.name, identifier.primary_id),
                               element.name))
        scored.sort(reverse=True)
        seen = []
        for _score, name in scored:
            if name not in seen:
                seen.append(name)
            if len(seen) >= limit:
                break
        return seen
