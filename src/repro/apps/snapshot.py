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
but not recorded: their fields never change.

A restore compares nothing: it writes every recorded container back, which
costs less than finding the few that changed.  So an attribute that now
holds an equal copy (a dataclass ``==`` would accept, though it no longer
aliases what the original did) gets the original object back, and objects
created after the snapshot, such as dialogs (built on open), drop out with
the containers that came to hold them.

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
from itertools import chain
from typing import Any, List, Tuple

from repro.uia.element import StampMemo

_ATOMIC = (type(None), bool, int, float, complex, str, bytes, range)
_OPAQUE = (type, types.ModuleType, enum.Enum, StampMemo)


class AppSnapshot:
    """The as-captured state of every object reachable from one root."""

    def __init__(self, root: Any) -> None:
        self.root = root
        #: Dicts (instance ``__dict__``\s included) and sets, with contents.
        self._refills: List[Tuple[Any, Any]] = []
        self._lists: List[Tuple[list, list]] = []
        self._cells: List[Tuple[types.CellType, Any]] = []
        self._capture(root)

    def _capture(self, root: Any) -> None:
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
                self._refills.append((obj, dict(obj)))
                extend(chain.from_iterable(obj.items()))
            elif isinstance(obj, list):
                self._lists.append((obj, list(obj)))
                extend(obj)
            elif isinstance(obj, set):
                self._refills.append((obj, frozenset(obj)))
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
                    self._refills.append((obj.__dict__, dict(obj.__dict__)))
                extend(obj.__dict__.values())
            else:
                raise TypeError(f"cannot snapshot a {type(obj).__name__!r}: "
                                "its state is not in a __dict__")

    def restore(self) -> None:
        """Write the captured state back into the captured objects.

        Every recorded container is rewritten, changed or not: finding the
        few that changed, by identity, costs more than rewriting them all.
        """
        for live, saved in self._refills:
            live.clear()
            live.update(saved)
        for live, saved in self._lists:
            live[:] = saved
        for cell, contents in self._cells:
            cell.cell_contents = contents
