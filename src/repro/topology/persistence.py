"""Persistence of the offline navigation model.

The paper notes the navigation model is version-specific but *reusable across
machines* for the same application build (§5.2).  This module serialises the
UI Navigation Graph to JSON so the expensive offline phase (GUI ripping plus
any manual blocklist/context curation) runs once per application build; any
other machine can load the JSON and rebuild the forest, core topology and
query engine deterministically.

Only the UNG is persisted: the forest and core view are cheap, deterministic
functions of it, so storing them would just risk divergence from the
transformation code.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Tuple, Union, get_origin, get_type_hints

from repro.ripping.ripper import RipReport
from repro.ripping.ung import NavigationGraph, UNGNode
from repro.uia.control_types import ControlType

#: Format marker so later revisions can migrate old files.
FORMAT_VERSION = 1


def ung_to_dict(ung: NavigationGraph, report: Optional[RipReport] = None) -> Dict:
    """Serialisable representation of a UNG (plus optional rip report)."""
    payload = {
        "format_version": FORMAT_VERSION,
        "app_name": ung.app_name,
        "root_id": ung.root_id,
        "nodes": [
            {
                "node_id": node.node_id,
                "name": node.name,
                "control_type": node.control_type.value,
                "automation_id": node.automation_id,
                "description": node.description,
                "contexts": sorted(node.contexts),
                "window": node.window,
            }
            for node in ung.nodes.values()
        ],
        "edges": [[source, target] for source, target in ung.edges()],
    }
    if report is not None:
        payload["rip_report"] = report.as_dict()
    return payload


def ung_digest(ung: NavigationGraph) -> str:
    """Short content digest of a UNG's canonical serialized form.

    Two UNGs with the same digest serialize to the same bytes (modulo the
    rip report, which is intentionally excluded: its timings differ between
    otherwise identical rips).  Tests and the benchmark use it to check that
    a rip, a cache round trip or a transferred model reproduces a graph
    exactly.
    """
    encoded = json.dumps(ung_to_dict(ung), sort_keys=True,
                         ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def ung_from_dict(payload: Dict) -> NavigationGraph:
    """Rebuild a UNG from its serialised representation.

    A payload of the wrong shape (not an object, a node entry that is not an
    object, a non-string name or identifier, an edge that is not a pair of
    known nodes, a root that is not a node) raises :class:`ValueError`, like
    an unsupported format version, so a corrupt file reads as unusable
    rather than as a crash.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"navigation model must be a JSON object, "
                         f"not {type(payload).__name__}")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported navigation-model format version {version!r}")
    app_name = payload.get("app_name", "")
    if not isinstance(app_name, str):
        raise ValueError(f"malformed navigation model: app_name must be a "
                         f"string, not {type(app_name).__name__}")
    ung = NavigationGraph(app_name=app_name)
    try:
        for entry in payload["nodes"]:
            node = UNGNode(
                node_id=entry["node_id"],
                name=entry["name"],
                control_type=ControlType(entry["control_type"]),
                automation_id=entry.get("automation_id", ""),
                description=entry.get("description", ""),
                contexts=set(entry.get("contexts", [])),
                window=entry.get("window", ""),
            )
            # join() raises TypeError unless every field is a string.
            "".join((node.node_id, node.name, node.automation_id,
                     node.description, node.window, *node.contexts))
            ung.add_node(node)
        root_id = payload.get("root_id", ung.root_id)
        if root_id not in ung.nodes:
            raise ValueError(f"malformed navigation model: root {root_id!r} "
                             f"is not a node")
        ung.root_id = root_id
        for source, target in payload["edges"]:
            ung.add_edge(source, target)
    except (TypeError, KeyError) as error:
        raise ValueError(f"malformed navigation model: {error!r}") from error
    return ung


def save_ung(ung: NavigationGraph, path: Union[str, Path],
             report: Optional[RipReport] = None) -> Path:
    """Write the UNG (and optional rip report) to a JSON file.

    The file is one line: ``json.dumps`` without an indent runs CPython's C
    encoder, where any indent falls back to the pure-Python one.  Files
    written indented by earlier builds load the same.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ung_to_dict(ung, report), ensure_ascii=False), encoding="utf-8")
    return path


def load_ung(path: Union[str, Path]) -> NavigationGraph:
    """Load a UNG previously written by :func:`save_ung`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return ung_from_dict(json.load(handle))


def rip_report_from_dict(payload: Dict) -> RipReport:
    """Rebuild a :class:`RipReport` from :meth:`RipReport.as_dict` output.

    Keys this build does not know (fields of older builds) are dropped.  A
    known field of the wrong JSON type (a count that is not an integer, a
    context list that is not a list of strings) raises :class:`ValueError`.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"rip report must be a JSON object, "
                         f"not {type(payload).__name__}")
    hints = get_type_hints(RipReport)
    fields = {}
    for key, value in payload.items():
        if key not in hints:
            continue
        expected = get_origin(hints[key]) or hints[key]
        accepted = (int, float) if expected is float else expected
        if (not isinstance(value, accepted)
                or (isinstance(value, bool) and expected is not bool)
                or (expected is list
                    and not all(isinstance(item, str) for item in value))):
            raise ValueError(f"rip report field {key!r} must be "
                             f"{expected.__name__}, not {value!r}")
        fields[key] = value
    return RipReport(**fields)


def load_model(path: Union[str, Path]) -> Tuple[NavigationGraph, Optional[RipReport]]:
    """Load a UNG plus its rip report (when one was saved alongside it).

    This is the machine-transfer entry point: the UNG file produced on the
    modeling machine carries the rip statistics, so a loading machine can
    report the original offline cost without re-ripping.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    ung = ung_from_dict(payload)
    report_payload = payload.get("rip_report")
    report = rip_report_from_dict(report_payload) if report_payload else None
    return ung, report
