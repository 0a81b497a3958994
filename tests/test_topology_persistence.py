"""Tests for navigation-model persistence (reuse across machines, §5.2)."""

import json

import pytest

from repro.apps import PowerPointApp
from repro.dmi.cache import ArtifactCache, app_version_for
from repro.dmi.interface import DMI, DMIConfig, OfflineArtifacts
from repro.ripping.ripper import RipReport
from repro.topology.core import extract_core
from repro.topology.forest import build_forest
from repro.topology.persistence import (
    FORMAT_VERSION,
    load_model,
    load_ung,
    rip_report_from_dict,
    save_ung,
    ung_digest,
    ung_from_dict,
    ung_to_dict,
)


def test_ung_round_trips_through_dict(ppt_artifacts):
    ung = ppt_artifacts.ung
    restored = ung_from_dict(ung_to_dict(ung))
    assert restored.app_name == ung.app_name
    assert restored.node_count() == ung.node_count()
    assert restored.edge_count() == ung.edge_count()
    assert set(restored.nodes) == set(ung.nodes)
    assert sorted(restored.edges()) == sorted(ung.edges())
    sample = next(iter(ung.nodes.values()))
    assert restored.nodes[sample.node_id].control_type == sample.control_type


#: Rip-report keys written by builds that could also rip incrementally.
OLDER_BUILD_REPORT_KEYS = {"mode": "full", "nodes_visited": 609,
                           "nodes_reused": 0, "nodes_patched": 0,
                           "fallback_reason": ""}


@pytest.mark.parametrize("extra_report_keys", [{}, OLDER_BUILD_REPORT_KEYS],
                         ids=["current", "older-build"])
def test_ung_round_trips_through_json_file(tmp_path, ppt_artifacts,
                                           extra_report_keys):
    path = save_ung(ppt_artifacts.ung, tmp_path / "models" / "ppt.json",
                    report=ppt_artifacts.rip_report)
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["format_version"] == FORMAT_VERSION
    assert payload["rip_report"]["app_name"] == "PowerPoint"
    payload["rip_report"].update(extra_report_keys)
    path.write_text(json.dumps(payload), encoding="utf-8")
    restored = load_ung(path)
    assert restored.node_count() == ppt_artifacts.ung.node_count()
    _, report = load_model(path)
    assert report.as_dict() == ppt_artifacts.rip_report.as_dict()


def test_unknown_format_version_is_rejected(ppt_artifacts):
    payload = ung_to_dict(ppt_artifacts.ung)
    payload["format_version"] = 999
    with pytest.raises(ValueError):
        ung_from_dict(payload)


def _set_node_field(field, value):
    def corrupt(payload):
        payload["nodes"][-1][field] = value
    return corrupt


@pytest.mark.parametrize("corrupt", [
    lambda payload: payload.update(app_name=5),
    _set_node_field("node_id", ["not", "hashable"]),
    _set_node_field("description", {"text": "x"}),
    _set_node_field("contexts", [1]),
    lambda payload: payload["edges"].append(["no such node", "either"]),
    lambda payload: payload.pop("edges"),
], ids=["app-name-not-string", "node-id-not-string", "description-not-string",
        "context-not-string", "edge-to-unknown-node", "edges-missing"])
def test_wrong_shaped_model_is_rejected(ppt_artifacts, corrupt):
    payload = json.loads(json.dumps(ung_to_dict(ppt_artifacts.ung)))
    corrupt(payload)
    with pytest.raises(ValueError, match="navigation model"):
        ung_from_dict(payload)


@pytest.mark.parametrize("field, value", [
    ("clicks", "many"),
    ("blocked", True),
    ("duration_seconds", "slow"),
    ("contexts", "default"),
    ("contexts", [1]),
    ("cycles", 1),
], ids=["count-is-string", "count-is-bool", "duration-is-string",
        "contexts-is-string", "context-is-number", "flag-is-number"])
def test_wrong_typed_rip_report_field_is_rejected(field, value):
    payload = RipReport(app_name="Word", clicks=3).as_dict()
    payload[field] = value
    with pytest.raises(ValueError, match=field):
        rip_report_from_dict(payload)


def test_rip_report_accepts_an_integral_duration():
    report = rip_report_from_dict({"app_name": "Word", "duration_seconds": 2})
    assert report.duration_seconds == 2


def test_loaded_model_rebuilds_forest_and_drives_dmi(tmp_path, ppt_artifacts):
    """The 'other machine' workflow: load JSON, rebuild forest + core, run a task."""
    path = save_ung(ppt_artifacts.ung, tmp_path / "ppt.json")
    ung = load_ung(path)
    forest = build_forest(ung)
    core = extract_core(forest)
    artifacts = OfflineArtifacts(ung=ung, forest=forest, core=core,
                                 rip_report=ppt_artifacts.rip_report)
    app = PowerPointApp()
    dmi = DMI(app, artifacts)
    blue = [n for n in forest.find_by_name("Blue", leaves_only=True)
            if "Fill Color" in " > ".join(p.name for p in n.path_from_root())][0]
    apply_all = [n for n in forest.find_by_name("Apply to All", leaves_only=True)
                 if "Format Background" in " > ".join(p.name for p in n.path_from_root())][0]
    result = dmi.visit([{"id": blue.node_id}, {"id": apply_all.node_id}])
    assert result.ok
    assert all(s.background.color == "Blue" for s in app.presentation.slides)


def test_indented_model_file_of_earlier_builds_loads_through_the_cache(tmp_path,
                                                                       ppt_artifacts):
    """Earlier builds wrote model files with ``indent=1``; the cache reads
    such a file back to the same graph as the one-line files written now."""
    cache = ArtifactCache(tmp_path, DMIConfig())
    path = cache.store("powerpoint", ppt_artifacts,
                       app_version=app_version_for("powerpoint"))
    assert "\n" not in path.read_text(encoding="utf-8")
    path.write_text(json.dumps(ung_to_dict(ppt_artifacts.ung, ppt_artifacts.rip_report),
                               ensure_ascii=False, indent=1), encoding="utf-8")
    loaded = ArtifactCache(tmp_path, DMIConfig()).get(
        "powerpoint", app_version=app_version_for("powerpoint"))
    assert loaded is not None
    assert ung_digest(loaded.ung) == ung_digest(ppt_artifacts.ung)
