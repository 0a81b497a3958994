"""The drift oracle for :class:`repro.apps.snapshot.AppSnapshot`.

A restore rewrites only the dicts the write log marked, so a write that
skipped its seam would leave a recorded dict changed after a restore.  The
oracle walks every recorded container, as a full rewrite would, and names
each one whose contents are not, by identity and in order, the ones the
snapshot saved.
"""

from __future__ import annotations

import gc
from typing import List

from repro.apps.snapshot import AppSnapshot


def _owner(live: dict) -> str:
    """What holds ``live``: an object it is the ``__dict__`` of, or the
    attribute of one that it is the value of."""
    for referrer in gc.get_referrers(live):
        if getattr(referrer, "__dict__", None) is live:
            return type(referrer).__name__
    for referrer in gc.get_referrers(live):
        for name, value in getattr(referrer, "__dict__", {}).items():
            if value is live:
                return f"{type(referrer).__name__}.{name}"
    return "a dict"


def drift(snapshot: AppSnapshot) -> List[str]:
    """Every recorded container that differs from its saved contents."""
    found = []
    for live, saved in snapshot._dicts.values():
        if list(live) != list(saved) or \
                any(live[key] is not value for key, value in saved.items()):
            changed = sorted(str(key) for key in live.keys() | saved.keys()
                             if live.get(key) is not saved.get(key))
            found.append(f"{_owner(live)}: {changed}")
    for live, saved in snapshot._sets:
        if {id(item) for item in live} != {id(item) for item in saved}:
            found.append(f"set {sorted(map(repr, live ^ saved))}")
    for live, saved in snapshot._lists + [(live, []) for live in snapshot._empty_lists]:
        if len(live) != len(saved) or any(a is not b for a, b in zip(live, saved)):
            found.append(f"list of {len(saved)} items, now {len(live)}")
    for cell, contents in snapshot._cells:
        try:
            current = cell.cell_contents
        except ValueError:
            current = cell
        if current is not contents:
            found.append(f"closure cell holding {contents!r}")
    return found
