"""The core topology's memoized text and token count, and the forest's query
caches, checked against the computations they replace.

Each memo is compared with the same quantity computed on a freshly built
forest (whose caches are empty) or by a brute-force scan, so a memo that
went stale or was keyed too coarsely shows up as a difference.
"""

from collections import Counter
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from repro.dmi.interface import rebuild_offline_artifacts
from repro.llm.tokens import estimate_tokens
from repro.ripping.ung import NavigationGraph, UNGNode, VIRTUAL_ROOT_ID
from repro.topology import core as core_module
from repro.topology.core import extract_core
from repro.topology.decycle import decycle
from repro.topology.externalize import ExternalizationConfig, plan_externalization
from repro.topology.forest import build_forest
from repro.topology.serialize import SerializationConfig, serialize_forest
from repro.uia.control_types import KEY_CONTROL_TYPES, ControlType

APPS = ["word_artifacts", "excel_artifacts", "ppt_artifacts", "synthetic_seed3_artifacts"]

#: A config that changes the text in several ways at once.
TERSE = SerializationConfig(max_description_chars=12, describe_key_types=False,
                            include_types=False)


def _fresh_core(artifacts):
    """The same core, rebuilt from the UNG: a new forest with empty caches."""
    return rebuild_offline_artifacts(artifacts.ung).core


# ----------------------------------------------------------------------
# core text and token memo, per app
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fixture", APPS)
def test_memoized_core_matches_a_fresh_serialization(request, fixture):
    core = request.getfixturevalue(fixture).core
    fresh = _fresh_core(request.getfixturevalue(fixture))
    default_text = serialize_forest(fresh.forest, SerializationConfig(),
                                    visible_ids=fresh.visible_ids)
    terse_text = serialize_forest(fresh.forest, TERSE, visible_ids=fresh.visible_ids)
    assert terse_text != default_text

    expected_tokens = estimate_tokens(default_text)
    assert [core.token_estimate() for _ in range(3)] == [expected_tokens] * 3
    # The default text is memoized first; a non-default config must not be
    # served it, before or after, and equal configs share one entry.
    for _ in range(2):
        assert core.serialize() == default_text
        assert core.serialize(TERSE) == terse_text
        assert core.serialize(SerializationConfig(**vars(TERSE))) is core.serialize(TERSE)
    assert core.token_estimate() == expected_tokens


@pytest.mark.parametrize("fixture", APPS)
def test_forest_query_caches_match_brute_force(request, fixture):
    forest = request.getfixturevalue(fixture).forest
    assert forest.shared_key_names() == _brute_shared_key_names(forest)
    names = sorted({n.name for n in forest.iter_all_nodes()})[::7]
    for name in names + ["blue", "FONT", "color", "zz-missing"]:
        for exact in (True, False):
            for leaves_only in (True, False):
                assert (forest.find_by_name(name, exact, leaves_only)
                        == _brute_find(forest, name, exact, leaves_only))


def test_core_serializes_once_per_config_and_only_on_demand(monkeypatch, excel_artifacts):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs.get("config"))
        return serialize_forest(*args, **kwargs)

    monkeypatch.setattr(core_module, "serialize_forest", counting)
    core = extract_core(excel_artifacts.forest)
    assert calls == []
    for _ in range(5):
        core.token_estimate()
    core.serialize(SerializationConfig())
    assert calls == [SerializationConfig()]
    core.serialize(TERSE)
    core.serialize(TERSE)
    assert calls == [SerializationConfig(), TERSE]


def test_core_id_sets_and_serialization_config_are_frozen(mini_artifacts):
    core = mini_artifacts.core
    assert isinstance(core.visible_ids, frozenset)
    assert isinstance(core.pruned_ids, frozenset)
    with pytest.raises(FrozenInstanceError):
        TERSE.include_types = True


# ----------------------------------------------------------------------
# the name index against the brute-force scan it replaced
# ----------------------------------------------------------------------
def _brute_find(forest, name, exact, leaves_only):
    wanted = name.lower()
    matches = []
    for node in forest.iter_all_nodes():
        if leaves_only and not node.is_leaf:
            continue
        candidate = node.name.lower()
        if (exact and candidate == wanted) or (not exact and wanted in candidate):
            matches.append(node)
    return matches


def _brute_shared_key_names(forest):
    nodes = list(forest.iter_all_nodes())
    counts = Counter(n.name for n in nodes if n.name)
    return {n.name for n in nodes
            if counts[n.name] > 1 and n.control_type in KEY_CONTROL_TYPES}


#: Few names in mixed case, so names repeat within and across trees.
NAMES = ["Blue", "blue", "BLUE", "Light Blue", "Font", "font Color", "Fill", "OK", ""]
TYPES = [ControlType.BUTTON, ControlType.MENU_ITEM, ControlType.LIST_ITEM,
         ControlType.GROUP, ControlType.TEXT]


@st.composite
def named_graph(draw):
    """A random graph whose merge nodes become shared subtrees."""
    count = draw(st.integers(min_value=2, max_value=16))
    ids = [f"c{i}" for i in range(count)]
    graph = NavigationGraph(app_name="named")
    for control_id in ids:
        graph.add_node(UNGNode(node_id=control_id, name=draw(st.sampled_from(NAMES)),
                               control_type=draw(st.sampled_from(TYPES))))
    graph.add_edge(VIRTUAL_ROOT_ID, ids[0])
    for i in range(1, count):
        graph.add_edge(ids[draw(st.integers(0, i - 1))], ids[i])
    for a, b in draw(st.lists(st.tuples(st.integers(0, count - 1),
                                        st.integers(0, count - 1)), max_size=10)):
        if a != b:
            graph.add_edge(ids[a], ids[b])
    return graph


@settings(max_examples=60, deadline=None)
@given(named_graph(), st.integers(min_value=0, max_value=6),
       st.lists(st.tuples(st.sampled_from(NAMES + ["LUE", "o", "-> b", "missing"]),
                          st.booleans(), st.booleans()),
                min_size=1, max_size=8))
def test_name_index_matches_brute_force_scan(graph, threshold, queries):
    dag = decycle(graph)
    plan = plan_externalization(dag, ExternalizationConfig(clone_cost_threshold=threshold))
    forest = build_forest(graph, dag=dag, plan=plan)
    for name, exact, leaves_only in queries + queries:
        for query in (name, name.swapcase()):
            found = forest.find_by_name(query, exact=exact, leaves_only=leaves_only)
            expected = _brute_find(forest, query, exact, leaves_only)
            assert [n.node_id for n in found] == [n.node_id for n in expected]
    assert forest.shared_key_names() == _brute_shared_key_names(forest)
