"""The drift oracle for :class:`repro.apps.snapshot.AppSnapshot`.

A restore writes back only the containers their seams saved before the
first write (:mod:`repro.uia.writes`), so a write that skipped its seam
would leave the app changed after a restore.  While :func:`recording` is
active, every snapshot taken also records, by a full walk of everything
its application reaches (:func:`record`), each dict, list and set with its
contents; :func:`drift` names each recorded container whose contents are
not, by identity and in order, the recorded ones.

What the walk covers: instance ``__dict__``\\s, lists, dicts, sets, tuples,
and the closure cells, defaults and ``__self__`` of callables.  It does not
descend into modules, classes, enum members or stamp memos (shared, never
per-trial state), and it raises :class:`TypeError` on any other object
without a ``__dict__``, whose state it could not see.  Frozen dataclasses
are walked but not recorded: their fields never change.  Closure cells are
walked through, not recorded: no code in ``src`` rebinds one.
"""

from __future__ import annotations

import enum
import gc
import types
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterator, List, Tuple

import pytest

from repro.apps.snapshot import AppSnapshot
from repro.uia.element import StampMemo

_ATOMIC = (type(None), bool, int, float, complex, str, bytes, range)
_OPAQUE = (type, types.ModuleType, enum.Enum, StampMemo)


@dataclass
class Record:
    """Every dict, list and set one root reached, with its contents."""

    dicts: List[Tuple[dict, dict]] = field(default_factory=list)
    lists: List[Tuple[list, list]] = field(default_factory=list)
    sets: List[Tuple[set, frozenset]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.dicts) + len(self.lists) + len(self.sets)


def record(root: Any) -> Record:
    """Walk everything ``root`` reaches and record its containers."""
    found = Record()
    seen = set()
    stack = [root]
    push = stack.append
    extend = stack.extend
    while stack:
        obj = stack.pop()
        if type(obj) in _ATOMIC or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            found.dicts.append((obj, dict(obj)))
            extend(chain.from_iterable(obj.items()))
        elif isinstance(obj, list):
            found.lists.append((obj, list(obj)))
            extend(obj)
        elif isinstance(obj, set):
            found.sets.append((obj, frozenset(obj)))
            extend(obj)
        elif isinstance(obj, (tuple, frozenset)):
            extend(obj)
        elif isinstance(obj, _OPAQUE):
            continue
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    push(cell.cell_contents)
                except ValueError:  # a variable its scope never assigned
                    continue
            extend(obj.__defaults__ or ())
            extend((obj.__kwdefaults__ or {}).values())
        elif isinstance(obj, (types.MethodType, types.BuiltinMethodType)):
            # A builtin function's __self__ is its module (opaque).
            push(obj.__self__)
        elif hasattr(obj, "__dict__"):
            params = getattr(type(obj), "__dataclass_params__", None)
            if params is None or not params.frozen:
                values = obj.__dict__
                found.dicts.append((values, dict(values)))
            extend(obj.__dict__.values())
        else:
            raise TypeError(f"cannot snapshot a {type(obj).__name__!r}: "
                            "its state is not in a __dict__")
    return found


#: Each live snapshot taken while :func:`recording` -> its app's record.  A
#: record holds the app's containers, never the snapshot, so a dropped
#: snapshot takes its record with it.
_records: "weakref.WeakKeyDictionary[AppSnapshot, Record]" = weakref.WeakKeyDictionary()


@contextmanager
def recording() -> Iterator[None]:
    """Record what the application reaches whenever a snapshot is taken."""
    init = AppSnapshot.__init__

    def recording_init(snapshot: AppSnapshot, root: Any) -> None:
        init(snapshot, root)
        _records[snapshot] = record(root)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(AppSnapshot, "__init__", recording_init)
        yield


def _name(live: Any) -> str:
    """What holds ``live``: the object it is the ``__dict__`` of, or the
    attribute of one that it is the value of."""
    for referrer in gc.get_referrers(live):
        if getattr(referrer, "__dict__", None) is live:
            return type(referrer).__name__
    for referrer in gc.get_referrers(live):
        if type(referrer) is dict:
            holders = [holder for holder in gc.get_referrers(referrer)
                       if getattr(holder, "__dict__", None) is referrer]
            for holder in holders:
                for name, value in referrer.items():
                    if value is live:
                        return f"{type(holder).__name__}.{name}"
    return f"a {type(live).__name__}"


def drift(snapshot: AppSnapshot) -> List[str]:
    """Every container the snapshot's record holds that differs from its
    recorded contents."""
    found = []
    recorded = _records[snapshot]
    for live, saved in recorded.dicts:
        if list(live) != list(saved) or \
                any(live[key] is not value for key, value in saved.items()):
            changed = sorted(str(key) for key in live.keys() | saved.keys()
                             if live.get(key) is not saved.get(key))
            found.append(f"{_name(live)}: {changed}")
    for live, saved in recorded.sets:
        if {id(item) for item in live} != {id(item) for item in saved}:
            found.append(f"{_name(live)}: set {sorted(map(repr, live ^ saved))}")
    for live, saved in recorded.lists:
        if len(live) != len(saved) or any(a is not b for a, b in zip(live, saved)):
            found.append(f"{_name(live)}: list of {len(saved)} items, "
                         f"now {len(live)}")
    return found
