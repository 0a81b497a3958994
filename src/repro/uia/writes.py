"""The write log: which dicts were written since a snapshot was last restored.

A restore (:class:`repro.apps.snapshot.AppSnapshot`) rewrites only the dicts
a trial wrote, so every write to a dict that can change after an app is
built marks that dict here first: ``log`` holds the ``id`` of each dict
written while a snapshot is armed, and is ``None`` while none is, so an
unarmed write costs one ``is None`` check.  The log keeps ids, not the
dicts: it keeps nothing alive, and an id a dead dict left behind at most
makes a restore rewrite one dict that did not change.

The seams that mark are set-only: :class:`MarkedAttribute` for an
attribute that changes after build, :class:`Marked` for objects (models,
the desktop) whose attributes are few and rarely written, :func:`mark` for
a write into a plain dict, and inline ``log`` checks in the hot seams of
:mod:`repro.uia.element` and :mod:`repro.gui.screen`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Set

#: What the seams read: the armed log, the ids of the dicts written since
#: the live snapshots were captured or restored, or ``None`` while no
#: snapshot is armed or marking is paused (:func:`unmarked`).
log: Optional[Set[int]] = None
#: The armed log, paused or not.
_armed: Optional[Set[int]] = None
_paused = 0


def arm() -> Set[int]:
    """The armed log, armed first if no snapshot had armed it."""
    global log, _armed
    if _armed is None:
        _armed = set()
    if not _paused:
        log = _armed
    return _armed


def disarm() -> None:
    """No snapshot is left: seams go back to one ``is None`` check."""
    global log, _armed
    log = _armed = None


def mark(values: dict) -> None:
    """Record that ``values`` (a plain or an instance dict) was written."""
    if log is not None:
        log.add(id(values))


class MarkedAttribute:
    """A set-only data descriptor that marks its instance's dict on a write.

    It defines ``__set__`` but no ``__get__``, so a read is a plain
    instance-dict lookup.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __set__(self, instance: object, value: object) -> None:
        values = instance.__dict__
        values[self.name] = value
        if log is not None:
            log.add(id(values))


class Marked:
    """A base whose every attribute write marks the instance's dict."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if log is not None:
            log.add(id(self.__dict__))


@contextmanager
def unmarked() -> Iterator[None]:
    """Make no marks while the block runs.

    Only for a block that writes no dict a live snapshot recorded, such as
    building a new app on its own desktop or ripping one; the log is
    process-wide, so no other thread may write a recorded dict meanwhile.
    """
    global log, _paused
    _paused += 1
    log = None
    try:
        yield
    finally:
        _paused -= 1
        if not _paused:
            log = _armed
