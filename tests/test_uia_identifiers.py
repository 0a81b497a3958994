"""Tests for control-identifier synthesis and parsing (paper §4.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.uia.control_types import ControlType
from repro.uia.element import UIElement
from repro.uia.identifiers import (
    ControlIdentifier,
    UNNAMED,
    find_by_identifier,
    identifier_string,
    identifiers_equal,
    parse_identifier,
    synthesize_identifier,
    visible_identifiers,
)


def build_chain():
    root = UIElement(name="App", control_type=ControlType.WINDOW, automation_id="app.main")
    tab = root.add_child(UIElement(name="Home", control_type=ControlType.TAB_ITEM,
                                   automation_id="app.tab.home"))
    group = tab.add_child(UIElement(name="Font", control_type=ControlType.GROUP))
    button = group.add_child(UIElement(name="Bold", control_type=ControlType.BUTTON,
                                       automation_id="app.bold"))
    return root, tab, group, button


def test_synthesize_uses_automation_id_then_name_then_unnamed():
    root, tab, group, button = build_chain()
    assert synthesize_identifier(button).primary_id == "app.bold"
    assert synthesize_identifier(group).primary_id == "Font"
    unnamed = group.add_child(UIElement(control_type=ControlType.TEXT))
    assert synthesize_identifier(unnamed).primary_id == UNNAMED


def test_ancestor_path_is_root_first():
    root, tab, group, button = build_chain()
    identifier = synthesize_identifier(button)
    assert identifier.ancestor_path == ("app.main", "app.tab.home", "Font")


def test_round_trip_parse():
    _, _, _, button = build_chain()
    text = identifier_string(button)
    parsed = parse_identifier(text)
    assert parsed == synthesize_identifier(button)


def test_parse_rejects_malformed_strings():
    with pytest.raises(ValueError):
        parse_identifier("only-one-field")
    with pytest.raises(ValueError):
        parse_identifier("a|NotAType|b/c")


def test_escaping_of_separator_characters():
    root = UIElement(name="Weird|Name/With\\Chars", control_type=ControlType.BUTTON)
    identifier = synthesize_identifier(root)
    parsed = parse_identifier(str(identifier))
    assert parsed.primary_id == "Weird|Name/With\\Chars"


def test_identifiers_equal_ignores_formatting():
    _, _, _, button = build_chain()
    a = identifier_string(button)
    assert identifiers_equal(a, str(parse_identifier(a)))


def test_matches_element_checks_primary_id_and_type():
    _, _, _, button = build_chain()
    identifier = synthesize_identifier(button)
    assert identifier.matches_element(button)
    other = UIElement(name="Bold", control_type=ControlType.CHECK_BOX, automation_id="app.bold")
    assert not identifier.matches_element(other)


def test_find_by_identifier_locates_the_control():
    root, tab, group, button = build_chain()
    identifier = synthesize_identifier(button)
    assert find_by_identifier(root, identifier) is button


def test_find_by_identifier_accepts_path_suffix_match():
    root, tab, group, button = build_chain()
    shorter = ControlIdentifier(primary_id="app.bold", control_type=ControlType.BUTTON,
                                ancestor_path=("Font",))
    assert find_by_identifier(root, shorter) is button


def test_find_by_identifier_returns_none_when_missing():
    root, *_ = build_chain()
    missing = ControlIdentifier(primary_id="nope", control_type=ControlType.BUTTON)
    assert find_by_identifier(root, missing) is None


# ----------------------------------------------------------------------
# property-based round trip
# ----------------------------------------------------------------------
name_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1, max_size=20,
)


@given(primary=name_strategy,
       ancestors=st.lists(name_strategy, max_size=4),
       control_type=st.sampled_from(list(ControlType)))
def test_identifier_string_round_trips(primary, ancestors, control_type):
    identifier = ControlIdentifier(primary_id=primary, control_type=control_type,
                                   ancestor_path=tuple(ancestors))
    assert parse_identifier(str(identifier)) == identifier


# ----------------------------------------------------------------------
# top-down snapshot walk against the bottom-up formatter
# ----------------------------------------------------------------------
#: Names and automation ids full of separators and escapes; "" falls back
#: to the name, then to [Unnamed].
tricky_text = st.text(alphabet="ab|/\\", max_size=4)


def trees_of(visible):
    """Trees as (name, automation id, visible, children), each control's
    visibility drawn from ``visible``."""
    return st.recursive(
        st.tuples(tricky_text, tricky_text, visible, st.just(())),
        lambda children: st.tuples(tricky_text, tricky_text, visible,
                                   st.lists(children, max_size=4).map(tuple)),
        max_leaves=30,
    )


tree_strategy = trees_of(st.booleans())


def build_tree(spec):
    name, automation_id, visible, children = spec
    element = UIElement(name=name, automation_id=automation_id, visible=visible,
                        control_type=ControlType.GROUP)
    for child in children:
        element.add_child(build_tree(child))
    return element


def visible_preorder(element):
    if not element.visible:
        return []
    found = [element]
    for child in element.children:
        found.extend(visible_preorder(child))
    return found


@given(chain=st.lists(st.tuples(tricky_text, tricky_text), max_size=40),
       trees=st.lists(tree_strategy, min_size=1, max_size=3))
def test_visible_identifiers_match_identifier_string(chain, trees):
    """Roots hung under a deep chain of ancestors (so the walk starts from a
    non-empty path) yield identifier_string of every visible descendant in
    pre-order, hidden subtrees skipped."""
    top = anchor = UIElement(name="Desktop", control_type=ControlType.PANE)
    for name, automation_id in chain:
        anchor = anchor.add_child(UIElement(name=name, automation_id=automation_id,
                                            control_type=ControlType.GROUP))
    roots = [anchor.add_child(build_tree(tree)) for tree in trees]
    expected = [(identifier_string(e), e) for root in roots for e in visible_preorder(root)]
    assert visible_identifiers(roots) == expected
    assert visible_identifiers([top])[0] == (identifier_string(top), top)


def test_visible_identifiers_escape_separators_and_name_unnamed():
    root = UIElement(name="a|b", control_type=ControlType.WINDOW)
    child = root.add_child(UIElement(automation_id="c/d\\", control_type=ControlType.PANE))
    leaf = child.add_child(UIElement(control_type=ControlType.BUTTON))
    assert [text for text, _ in visible_identifiers([root])] == [
        "a\\|b|Window|",
        "c\\/d\\\\|Pane|a\\|b",
        "[Unnamed]|Button|a\\|b/c\\/d\\\\",
    ]
    assert visible_identifiers([leaf])[0][0] == identifier_string(leaf)


# ----------------------------------------------------------------------
# the memoized snapshot against a fresh walk, under random mutations
# ----------------------------------------------------------------------
#: Trees mostly visible, so that most mutations land where a snapshot sees.
mostly_visible_tree_strategy = trees_of(st.sampled_from([True, True, True, False]))

#: (mutation, pick, other pick, text); picks index the controls built so far.
mutation_strategy = st.tuples(
    st.sampled_from(["flip", "add", "remove", "move", "rename", "reid"]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
    tricky_text,
)


def _mutate(windows, pool, mutation):
    op, pick, other, text = mutation
    node = pool[pick % len(pool)]
    if op == "flip":
        node.visible = not node.visible
    elif op == "add":
        child = UIElement(name=text, control_type=ControlType.BUTTON)
        pool.append(node.add_child(child, index=other % (len(node.children) + 1)))
    elif op == "remove":
        if node.parent is not None:
            node.parent.remove_child(node)
    elif op == "move":
        # To another parent, in the same window, another one or none.
        target = pool[other % len(pool)]
        if node not in windows and target is not node and node not in target.ancestors():
            target.add_child(node, index=other % (len(target.children) + 1))
    elif op == "rename":
        node.name = text
    else:
        node.automation_id = text


@settings(max_examples=200, deadline=None)
@given(trees=st.lists(mostly_visible_tree_strategy, min_size=2, max_size=3),
       mutations=st.lists(mutation_strategy, max_size=30))
def test_memoized_snapshot_equals_a_fresh_walk_after_every_mutation(trees, mutations):
    """Visibility flips (under hidden ancestors too), added and removed
    controls, subtrees moved to another parent or window, and renames of a
    control or its ancestors by name or automation id, each written after a
    snapshot with no relayout in between: after every step the memoized
    snapshot equals a walk without a memo."""
    windows = [build_tree(tree) for tree in trees]
    pool = [node for window in windows for node in window.iter_subtree()]
    memo = {}
    assert visible_identifiers(windows, memo) == visible_identifiers(windows)
    for mutation in mutations:
        _mutate(windows, pool, mutation)
        assert visible_identifiers(windows, memo) == visible_identifiers(windows)
