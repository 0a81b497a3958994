"""Copy on first write: what a trial wrote, saved before it wrote it.

A restore (:class:`repro.apps.snapshot.AppSnapshot`) puts back only the
containers a trial wrote, so every write to a dict, list or set that can
change after an app is built goes through a *seam* that first saves the
container's contents, once between a capture or restore and the next.
What the seams are: :class:`MarkedAttribute` for an attribute that changes
after build, :class:`Marked` for objects (models, the desktop) whose
attributes are few and rarely written, :func:`save` before a write into a
plain dict, list or set, called behind an inline ``log is None`` check
in the seams a click or a relayout runs.

**Epochs.**  :data:`epoch` only grows.  Building an application opens an
epoch of its own, and so does capturing a snapshot.  Every object whose
containers a seam saves derives from :class:`Born` and records the epoch it
was born in, one int in a slot (so ``vars()`` does not show it).  A live
snapshot owns its application's build epoch, and a seam saves a container
only when its owner was born in an owned epoch, into that snapshot's saved
contents.  So one app's writes never reach another app's snapshot, and an
object built after the capture (a dialog built on open) is never copied:
no snapshot owns the epoch it was born in.

``log`` maps each owned epoch to its snapshot's saved contents, ``{id of
container: (container, copy)}``, and is ``None`` while no snapshot lives,
so an unarmed seam costs one ``is None`` check.  The saved contents hold
the containers themselves until the next restore, so an id is never
reused while it is recorded; the log holds no snapshot, and a dropped
snapshot releases its epoch.  (Two apps built at once on two threads may
share an epoch; a snapshot of the second then raises rather than mixing
their writes.)
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

#: The epoch an object built now is born in.
epoch = 0
#: What the seams read: owned epoch -> the saved contents of the snapshot
#: that owns it, or ``None`` while no snapshot lives.
log: Optional[Dict[int, Dict[int, Tuple[Any, Any]]]] = None


def open_epoch() -> None:
    """Objects built from now on are born in a new epoch."""
    global epoch
    epoch += 1


def own(born: int) -> Dict[int, Tuple[Any, Any]]:
    """Arm the log for a new snapshot of what was built in epoch ``born``
    and return the saved contents its seams fill; what is built from now on
    is new to it."""
    global log
    if log is None:
        log = {}
    elif born in log:
        raise ValueError(f"what was built in epoch {born} already has a "
                         "live snapshot")
    saved = log[born] = {}
    open_epoch()
    return saved


def release(born: int, saved: Dict[int, Tuple[Any, Any]]) -> None:
    """The snapshot that owned ``born`` with ``saved`` died: once none is
    left, seams go back to one ``is None`` check."""
    global log
    if log is not None and log.get(born) is saved:
        del log[born]
        if not log:
            log = None


def save(owner: "Born", container: Any = None) -> None:
    """Before a write to ``container`` (``owner``'s ``__dict__`` if none is
    given), save its contents if ``owner`` was born in an owned epoch and
    the container has not been saved since the last capture or restore."""
    if log is not None:
        saved = log.get(owner._born)
        if saved is not None:
            if container is None:
                container = owner.__dict__
            if id(container) not in saved:
                saved[id(container)] = (container, container.copy())


class Born:
    """A base whose instances record the epoch they were born in: the
    constructor sets ``_born`` to :data:`epoch` before anything can write
    the instance."""

    __slots__ = ("_born",)


class MarkedAttribute:
    """A set-only data descriptor that saves its instance's dict before a
    write.

    It defines ``__set__`` but no ``__get__``, so a read is a plain
    instance-dict lookup.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __set__(self, instance: Born, value: object) -> None:
        if log is not None:
            save(instance)
        instance.__dict__[self.name] = value


class Marked(Born):
    """A base whose every attribute write saves the instance's dict first."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> "Marked":
        self = object.__new__(cls)
        object.__setattr__(self, "_born", epoch)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        if log is not None:
            save(self)
        object.__setattr__(self, name, value)
