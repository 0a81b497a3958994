"""The application base class.

An :class:`Application` owns a desktop session, a main window, an input
simulator, a keyboard-shortcut table and (in subclasses) the document-like
state model.  Subclasses build their UI in :meth:`build_ui` and register any
exploration contexts (paper §4.1, "Context-aware exploration") via
:meth:`register_context`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.apps.snapshot import AppSnapshot
from repro.gui.desktop import Desktop
from repro.gui.input import InputSimulator, Shortcut
from repro.gui.widgets import Dialog, Window
from repro.uia import writes
from repro.uia.writes import Marked, save


class Application(Marked):
    """Base class for the simulated Office-like applications."""

    #: Human-readable application name (used in window titles and ids).
    APP_NAME = "Application"
    #: Application build version.  Folded into the artifact-cache key so a
    #: rebuilt app (bump this on UI changes) never serves a stale cached
    #: navigation model.
    APP_VERSION = "1.0"

    def __new__(cls, *args: object, **kwargs: object) -> "Application":
        # Everything this build makes is born in an epoch of its own: the
        # one this app's snapshot owns (:mod:`repro.uia.writes`).
        writes.open_epoch()
        return super().__new__(cls)

    def __init__(self, desktop: Optional[Desktop] = None) -> None:
        self.desktop = desktop or Desktop()
        self.process_id = self.desktop.register_process(self.APP_NAME)
        self.window = Window(f"{self.APP_NAME} - {self.document_title()}",
                             automation_id=f"{self.APP_NAME}.MainWindow")
        self.window.application = self
        self.window.properties["app_name"] = self.APP_NAME
        self.input = InputSimulator(self.desktop)
        self._shortcuts: Dict[str, Callable[[], None]] = {}
        self._contexts: Dict[str, Callable[[], None]] = {}
        self.desktop.open_window(self.window, process_id=self.process_id)
        self.build_ui()
        self.desktop.relayout()

    # ------------------------------------------------------------------
    # to be provided by subclasses
    # ------------------------------------------------------------------
    def build_ui(self) -> None:
        """Construct the application's widget tree (subclass hook)."""
        raise NotImplementedError

    def document_title(self) -> str:
        """Title shown in the window caption (subclass hook)."""
        return "Untitled"

    @property
    def state(self):
        """The checkable application state model (subclass hook)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # state snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> AppSnapshot:
        """Start saving what this application's build made (its desktop and
        windows, every control and pattern, the document model) before each
        first write, so :meth:`restore` can put it back.  An application
        has at most one live snapshot: a second raises :class:`ValueError`."""
        return AppSnapshot(self)

    def restore(self, snapshot: AppSnapshot) -> None:
        """Put this application back into the state ``snapshot`` recorded,
        in place: the window, the controls and the model stay the same
        objects.  Windows opened since drop off the desktop."""
        if snapshot.root is not self:
            raise ValueError(f"snapshot of {snapshot.root!r} cannot restore {self!r}")
        snapshot.restore()

    # ------------------------------------------------------------------
    # dialogs
    # ------------------------------------------------------------------
    def open_dialog(self, dialog: Dialog) -> Dialog:
        """Open a modal dialog owned by this application."""
        save(dialog)
        save(dialog, dialog.properties)
        dialog.application = self
        dialog.properties["app_name"] = self.APP_NAME
        self.desktop.open_window(dialog, process_id=self.process_id)
        return dialog

    def open_dialogs(self) -> List[Dialog]:
        return [w for w in self.desktop.open_windows(self.process_id)
                if isinstance(w, Dialog) and w.is_open]

    def close_all_dialogs(self) -> None:
        for dialog in self.open_dialogs():
            dialog.close()

    def top_window(self) -> Optional[Window]:
        return self.desktop.top_window(self.process_id)

    # ------------------------------------------------------------------
    # shortcuts
    # ------------------------------------------------------------------
    def register_shortcut(self, combination: str, callback: Callable[[], None]) -> None:
        save(self, self._shortcuts)
        self._shortcuts[str(Shortcut.parse(combination))] = callback

    def handle_shortcut(self, shortcut: Shortcut) -> bool:
        """Dispatch a keyboard shortcut; returns True if it was handled."""
        callback = self._shortcuts.get(str(shortcut))
        if callback is None:
            return False
        callback()
        return True

    # ------------------------------------------------------------------
    # exploration contexts (for the GUI ripper)
    # ------------------------------------------------------------------
    def register_context(self, name: str, setup: Callable[[], None]) -> None:
        """Register a ripping context, e.g. 'image selected' for PowerPoint."""
        save(self, self._contexts)
        self._contexts[name] = setup

    def exploration_contexts(self) -> Dict[str, Callable[[], None]]:
        """Contexts the ripper should explore in addition to the default one."""
        return dict(self._contexts)

    def enter_context(self, name: str) -> None:
        self._contexts[name]()

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Diagnostic summary used in logs and the offline-modeling bench."""
        control_count = sum(1 for _ in self.window.iter_subtree())
        return {
            "app": self.APP_NAME,
            "controls_in_main_window": control_count,
            "open_dialogs": len(self.open_dialogs()),
        }
