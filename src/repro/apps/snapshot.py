"""In-place snapshot and restore of a live application.

A benchmark trial mutates its application: clicks open dialogs, expand
menus and edit the document model.  Rather than build a new application for
every trial, the runner snapshots one instance right after construction and
restores that snapshot before each trial.

A restore must keep object identity.  Widget callbacks are closures over the
application, :class:`~repro.gui.widgets.DocumentControl` holds the live model
as its text provider, and DMI resolves live controls, so swapping in copies
would leave those references pointing at stale objects.  Instead a restore
writes saved contents back into the same containers.

**Copy on first write** (:mod:`repro.uia.writes`).  Capturing a snapshot
copies nothing: it takes ownership of the epoch the application was built
in and opens a new one.  From then on every write to a dict, list or set of
an object built in that epoch goes through a seam that saves the
container's contents before its first write since the capture or the last
restore; a restore writes back exactly those containers and forgets them.
So a capture costs O(1) and a restore costs what the trial wrote.  A write
that skipped its seam would survive the restore; ``tests/snapshot_drift.py``
walks everything the application reaches at each capture and checks every
container after every restore of the default grid, a synthetic grid and
random clicks.

An application has at most one live snapshot; a second ``snapshot()`` of
it raises :class:`ValueError` until the first is dropped.  The write log
holds no snapshot and a snapshot holds its application, so a dropped
runner's apps are collectable; the snapshot's epoch is released with it.

A restored dict gets its saved contents back by identity, so an attribute
that now holds an equal copy (a dataclass ``==`` would accept, though it no
longer aliases what the original did) gets the original object back, and
objects created after the snapshot, such as dialogs (built on open), drop
out with the containers that came to hold them.

Not state: closure cells (no code in ``src`` rebinds one once a build has
returned; ``tests/test_snapshot.py`` scans for ``nonlocal`` and
``cell_contents`` writes), and process-global counters: controls and
slides built after a restore get fresh runtime and slide ids, as they would
in a fresh build.  No output depends on them: the ripper uses runtime ids
only as identity keys within one rip, and nothing reads slide ids.  Nor is
a :class:`~repro.uia.element.StampMemo`: its entries are keyed by layout
stamps, which a restore puts back with the state they stamp, so an entry
recorded for the as-built state is hit again after every restore.
"""

from __future__ import annotations

import weakref
from typing import Any

from repro.uia import writes


class AppSnapshot:
    """The as-captured state of one application, saved as it is written."""

    def __init__(self, root: Any) -> None:
        self.root = root
        #: ``{id: (container, contents before its first write)}`` since the
        #: capture or the last restore, filled by the seams.
        self._saved = writes.own(root._born)
        weakref.finalize(self, writes.release, root._born, self._saved)

    def restore(self) -> int:
        """Write the saved contents back into the containers written since
        the capture or the last restore; return how many it rewrote."""
        saved = self._saved
        written = list(saved.values())
        saved.clear()
        for live, contents in written:
            if type(live) is list:
                live[:] = contents
            else:
                live.clear()
                live.update(contents)
        return len(written)
