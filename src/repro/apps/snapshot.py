"""In-place snapshot and restore of a live application.

A benchmark trial mutates its application: clicks open dialogs, expand
menus and edit the document model.  Rather than build a new application for
every trial, the runner snapshots one instance right after construction and
restores that snapshot before each trial.

A restore must keep object identity.  Widget callbacks are closures over the
application, :class:`~repro.gui.widgets.DocumentControl` holds the live model
as its text provider, and DMI resolves live controls, so swapping in copies
would leave those references pointing at stale objects.  Instead the
snapshot records, for every object reachable from the application, its own
attributes and container contents, and a restore writes them back into the
same objects.

What the walk covers: instance ``__dict__``\\s, lists, dicts, sets, tuples,
and the closure cells, defaults and ``__self__`` of callables.  It does not
descend into modules, classes or enum members (shared, never per-trial
state), and it raises :class:`TypeError` on any other object without a
``__dict__``, whose state it could not see.  Frozen dataclasses are walked
but not recorded: their fields never change.  The walk is the record of the
as-built state; a restore never walks.

What a restore rewrites.  Every recorded list, set and closure cell, changed
or not: they are few, and a list captured empty (most are: leaf controls'
children) costs a truth test.  A recorded dict (an app holds thousands)
only if the write log (:mod:`repro.uia.writes`) marked it since this
snapshot's capture or last restore; a trial writes a few dozen.  So
**every write to a dict after an app is built goes through a seam that
marks it**: the set-only descriptors and :class:`~repro.uia.writes.Marked`
bases of controls, patterns, models, the desktop and the input simulator,
the stamping and tiling writes, and :func:`~repro.uia.writes.mark` beside a
write into a plain dict.  A write that skipped its seam would survive the
restore; ``tests/snapshot_drift.py`` checks every recorded container after
every restore of the default grid, a synthetic grid and random clicks.

The log is one process-wide set of dict ids, armed while any snapshot
lives; the runner pauses it while it builds an app or rips a scratch one,
which writes no recorded dict.  Each capture and restore first hands the
log's marks to the pending sets of the snapshots that recorded those dicts
(dropping marks on dicts nobody recorded, like a new dialog's), so writes
to one app survive restores of another.  The log and the owners' index
hold ids, never the objects, so a dropped runner's apps are collectable;
the last snapshot to die disarms the log.

A restored dict gets its saved contents back by identity, so an attribute
that now holds an equal copy (a dataclass ``==`` would accept, though it no
longer aliases what the original did) gets the original object back, and
objects created after the snapshot, such as dialogs (built on open), drop
out with the containers that came to hold them.

Process-global counters are not state: controls and slides built after a
restore get fresh runtime and slide ids, as they would in a fresh build.
No output depends on them: the ripper uses runtime ids only as identity
keys within one rip, and nothing reads slide ids.  Nor is a
:class:`~repro.uia.element.StampMemo`: its entries are keyed by layout
stamps, which a restore puts back with the state they stamp, so the walk
neither records nor restores it, and an entry recorded for the as-built
state is hit again after every restore.
"""

from __future__ import annotations

import enum
import types
import weakref
from itertools import chain
from typing import Any, Dict, List, Set, Tuple, Union

from repro.uia import writes
from repro.uia.element import StampMemo

_ATOMIC = (type(None), bool, int, float, complex, str, bytes, range)
_OPAQUE = (type, types.ModuleType, enum.Enum, StampMemo)


class _Overlap(tuple):
    """The pending sets of several live snapshots that recorded one dict."""

    def add(self, key: int) -> None:
        for pending in self:
            pending.add(key)


#: The id of every dict a live snapshot recorded -> the pending set of the
#: snapshot that recorded it, or an :class:`_Overlap` of several.  It holds
#: ids and sets of ids, so it keeps no recorded object alive.
_owners: Dict[int, Union[Set[int], _Overlap]] = {}


def _distribute() -> None:
    """Move the write log's marks to the pending sets of the dicts' owners;
    a mark no live snapshot owns is dropped."""
    log = writes.arm()
    marked = log.copy()  # other threads may mark meanwhile
    log.difference_update(marked)
    owner_of = _owners.get
    for key in marked:
        owner = owner_of(key)
        if owner is not None:
            owner.add(key)


def _release(keys: List[int], pending: Set[int]) -> None:
    """A snapshot died: drop its ownership, and disarm the write log once
    no snapshot owns a dict."""
    for key in keys:
        owner = _owners.get(key)
        if owner is pending:
            del _owners[key]
        elif isinstance(owner, _Overlap):
            rest = [other for other in owner if other is not pending]
            _owners[key] = rest[0] if len(rest) == 1 else _Overlap(rest)
    if not _owners:
        writes.disarm()


class AppSnapshot:
    """The as-captured state of every object reachable from one root."""

    def __init__(self, root: Any) -> None:
        self.root = root
        #: Dicts (instance ``__dict__``\s included) by id, with contents.
        self._dicts: Dict[int, Tuple[dict, dict]] = {}
        self._sets: List[Tuple[set, frozenset]] = []
        self._lists: List[Tuple[list, list]] = []
        #: Lists captured empty (most of them: leaf controls' children).
        self._empty_lists: List[list] = []
        self._cells: List[Tuple[types.CellType, Any]] = []
        #: Ids of this snapshot's dicts written since capture or restore.
        self._pending: Set[int] = set()
        # Marks made so far go to their owners; none is this one's.
        _distribute()
        self._capture(root)
        pending = self._pending
        for key in self._dicts:
            owner = _owners.setdefault(key, pending)
            if owner is not pending:
                _owners[key] = _Overlap((*(owner if isinstance(owner, _Overlap)
                                           else (owner,)), pending))
        weakref.finalize(self, _release, list(self._dicts), pending)

    def _capture(self, root: Any) -> None:
        seen = set()
        stack = [root]
        push = stack.append
        extend = stack.extend
        dicts = self._dicts
        while stack:
            obj = stack.pop()
            if type(obj) in _ATOMIC or id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, dict):
                dicts[id(obj)] = (obj, dict(obj))
                extend(chain.from_iterable(obj.items()))
            elif isinstance(obj, list):
                if obj:
                    self._lists.append((obj, list(obj)))
                    extend(obj)
                else:
                    self._empty_lists.append(obj)
            elif isinstance(obj, set):
                self._sets.append((obj, frozenset(obj)))
                extend(obj)
            elif isinstance(obj, (tuple, frozenset)):
                extend(obj)
            elif isinstance(obj, _OPAQUE):
                continue
            elif isinstance(obj, types.FunctionType):
                for cell in obj.__closure__ or ():
                    try:
                        contents = cell.cell_contents
                    except ValueError:  # a variable its scope never assigned
                        continue
                    self._cells.append((cell, contents))
                    push(contents)
                extend(obj.__defaults__ or ())
                extend((obj.__kwdefaults__ or {}).values())
            elif isinstance(obj, (types.MethodType, types.BuiltinMethodType)):
                # A builtin function's __self__ is its module (opaque).
                push(obj.__self__)
            elif hasattr(obj, "__dict__"):
                params = getattr(type(obj), "__dataclass_params__", None)
                if params is None or not params.frozen:
                    values = obj.__dict__
                    dicts[id(values)] = (values, dict(values))
                extend(obj.__dict__.values())
            else:
                raise TypeError(f"cannot snapshot a {type(obj).__name__!r}: "
                                "its state is not in a __dict__")

    def restore(self) -> int:
        """Write the captured state back into the captured objects; return
        how many dicts it rewrote.

        Every recorded list, set and closure cell is rewritten, changed or
        not.  A dict is rewritten only if the write log marked it since
        this snapshot's capture or last restore.
        """
        _distribute()
        pending = self._pending
        rewritten = list(pending)  # a copy: other threads may distribute
        pending.difference_update(rewritten)
        dicts = self._dicts
        for key in rewritten:
            live, saved = dicts[key]
            live.clear()
            live.update(saved)
            owner = _owners[key]
            if owner is not pending:
                # An overlapping snapshot sees this rewrite as a write.
                for other in owner:
                    if other is not pending:
                        other.add(key)
        for live, saved in self._sets:
            live.clear()
            live.update(saved)
        for live, saved in self._lists:
            live[:] = saved
        for live in self._empty_lists:
            if live:
                live.clear()
        for cell, contents in self._cells:
            cell.cell_contents = contents
        return len(rewritten)
