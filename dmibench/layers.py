"""Per-layer timers installed from outside the program.

The benchmark never edits the code it measures.  In a traced run
(``--trace 1``) it replaces selected functions and methods of the ``repro``
package with thin wrappers that record, per layer, the *self time* of every
call (its duration minus the part covered by nested traced calls) and a call
count.  Self times of the main thread plus the unaccounted remainder add up
to the traced pass, so "where did the time go?" has an answer that sums.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Tuple

#: (module, class or None, attribute, layer).  A class of None means a
#: module-level function, which is replaced in every loaded module that
#: imported it by name.  Targets missing from the program are skipped, so a
#: refactor that removes a seam only zeroes that layer.
TARGETS = (
    ("repro.apps.base", "Application", "__init__", "app_build"),
    ("repro.ripping.ripper", "GuiRipper", "rip", "rip"),
    ("repro.ripping.ripper", "GuiRipper", "rip_incremental", "rip"),
    ("repro.ripping.ripper", "GuiRipper", "_activate_and_diff", "rip_click"),
    ("repro.ripping.ripper", "GuiRipper", "_capture_state", "rip_state"),
    ("repro.ripping.ripper", "GuiRipper", "_restore_state", "rip_state"),
    ("repro.gui.desktop", "Desktop", "relayout", "relayout"),
    ("repro.dmi.interface", None, "rebuild_offline_artifacts", "model_transform"),
    ("repro.topology.persistence", None, "load_model", "cache_read"),
    ("repro.topology.persistence", None, "save_ung", "cache_write"),
    ("repro.dmi.cache", "ArtifactCache", "get", "model_load"),
    ("repro.agent.host_agent", "HostAgent", "run_task", "agent"),
    ("repro.dmi.interface", "DMI", "visit", "dmi_visit"),
    ("repro.topology.core", "CoreTopology", "token_estimate", "token_estimate"),
    ("repro.topology.serialize", None, "serialize_forest", "serialize"),
    ("repro.agent.session", "SessionResult", "from_dict", "result_decode"),
    ("repro.bench.transport", "ObjectStoreBroker", "submit", "broker_submit"),
    ("repro.bench.transport", "ObjectStoreBroker", "lease", "broker_lease"),
    ("repro.bench.transport", "ObjectStoreBroker", "renew", "broker_lease"),
    ("repro.bench.transport", "ObjectStoreBroker", "post", "broker_post"),
    ("repro.bench.transport", "ObjectStoreBroker", "status", "broker_status"),
    ("repro.bench.transport", "ObjectStoreBroker", "collect", "broker_collect"),
    ("repro.bench.store", "FileSystemObjectStore", "list_prefix", "store_list"),
    ("repro.bench.store", "FileSystemObjectStore", "get", "store_get"),
    ("repro.bench.store", "FileSystemObjectStore", "put_if_absent", "store_put"),
    ("repro.bench.store", "FileSystemObjectStore", "put_if_match", "store_put"),
    ("repro.bench.shard", None, "merge_shard_results", "merge"),
)

#: Every layer the tracer can report, in output order.
LAYERS = tuple(dict.fromkeys(layer for *_, layer in TARGETS))

#: Layers whose calls return None on a miss; their non-None returns are
#: also counted, as ``<layer>_hit``.
HIT_COUNTED = frozenset({"model_load"})

Totals = Tuple[Dict[str, float], Dict[str, int], float]


class LayerTracer:
    """Accumulates per-layer self time and call counts across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._self_s: Dict[str, float] = defaultdict(float)
        self._calls: Dict[str, int] = defaultdict(int)
        #: Main-thread time covered by outermost traced calls; the pass
        #: wall clock minus this is the unaccounted remainder.
        self._covered_s = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        hit_layer = f"{layer}_hit" if layer in HIT_COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            result = None
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - started
                nested = stack.pop()
                with tracer._lock:
                    tracer._self_s[layer] += elapsed - nested
                    tracer._calls[layer] += 1
                    if hit_layer is not None and result is not None:
                        tracer._calls[hit_layer] += 1
                    if stack:
                        stack[-1] += elapsed
                    elif threading.current_thread() is threading.main_thread():
                        tracer._covered_s += elapsed

        return traced

    def snapshot(self) -> Totals:
        with self._lock:
            return dict(self._self_s), dict(self._calls), self._covered_s

    # ------------------------------------------------------------------
    def install(self) -> None:
        for module_name, class_name, attr, layer in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            if class_name is None:
                self._patch_function(module, attr, layer)
            else:
                owner = getattr(module, class_name, None)
                if owner is not None:
                    self._patch_method(owner, attr, layer)

    def _patch_method(self, owner: type, attr: str, layer: str) -> None:
        raw = inspect.getattr_static(owner, attr, None)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(layer, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(owner, attr, self.wrap(layer, raw))

    def _patch_function(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr, None)
        if not inspect.isfunction(original):
            return
        traced = self.wrap(layer, original)
        for loaded in list(sys.modules.values()):
            # The module dict, not getattr: no module-level __getattr__ runs.
            if getattr(loaded, "__dict__", {}).get(attr) is original:
                setattr(loaded, attr, traced)
