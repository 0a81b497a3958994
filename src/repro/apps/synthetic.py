"""Seeded synthetic application/task generator (scenario scale-out).

The hand-written Word/Excel/PowerPoint apps cap the evaluation grid at 27
tasks; the shard/broker stack is never stressed at realistic depth.
This module generates *families* of applications and task suites from a
compact, canonical spec token:

* :class:`SyntheticSpec` — the generator knobs (ribbon width/depth, dialog
  chain length, an in-dialog UI cycle, context-dependent tabs, gallery and
  widget counts, task count) plus the seed.  ``SyntheticSpec.parse`` accepts
  either the canonical token (``s7-t3-g2-c3-y6-m3-d2-cy1-x1-n30``) or
  friendly ``key=value`` pairs (``seed=7,tasks=100``).
* :func:`topology_for` — a pure-data topology (control names, structure)
  derived deterministically from the spec.  Both the live application and
  the task suite are built from it, and :func:`topology_digest` hashes it,
  so "same seed ⇒ byte-identical topology" is checkable without ripping.
* :class:`SyntheticApp` — a real :class:`repro.apps.base.Application`
  speaking the ordinary widget/ribbon vocabulary: ribbon tabs × groups of
  state-backed toggle buttons, drop-down galleries and menus, a chain of
  nested modal dialogs (each opened from its predecessor), an optional
  More/Fewer expander cycle inside the first dialog (the Word
  Find-and-Replace idiom that exercises decycle), and hidden contextual
  tabs registered as exploration contexts.  All state lives in
  :class:`SyntheticState` and is checkable after a trial.
* property-based task families (:func:`synthetic_suite`) — set/check pairs
  over the generated state: turn a toggle on, pick a gallery choice, pick
  a menu item, fill a dialog field.  Checkers are frozen dataclasses
  (:class:`SyntheticCheck`) that compare equal across regenerations, so
  the :class:`~repro.bench.engine.ParallelExecutor`'s registry-equality
  validation holds and workers regenerate identical tasks by id alone.

Naming contract: the app registers as ``synthetic:<token>`` and tasks as
``syn:<token>:NNNN`` — an id alone carries everything any process needs to
regenerate the exact task, which is what lets generated grids flow through
every execution path (serial, parallel, file shards, dir broker, object
store) unchanged.

Determinism contract: every random draw comes from ``random.Random``
seeded with a string derived from the canonical token (string seeding is
SHA-512 based and stable across processes and platforms), and generated
suites are memoized per token so repeated ``task_by_id`` lookups are O(1)
and return equal objects.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.apps.base import Application
from repro.gui.ribbon import (
    DialogBuilder,
    RibbonBuilder,
    build_gallery_button,
    build_menu_button,
)
from repro.gui.widgets import Button
from repro.spec import FailureCause, Intent, IntentKind, TaskSpec
from repro.uia.writes import Marked, save

#: App-name prefix the rest of the stack dispatches on (``app_factory``,
#: ``TaskSpec`` validation, the artifact cache).
APP_PREFIX = "synthetic:"
#: Task-id prefix ``task_by_id`` dispatches on.
TASK_PREFIX = "syn:"

# ----------------------------------------------------------------------
# the spec and its token
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"^s(?P<seed>\d+)-t(?P<tabs>\d+)-g(?P<groups>\d+)-c(?P<controls>\d+)"
    r"-y(?P<gallery>\d+)-m(?P<menu>\d+)-d(?P<dialogs>\d+)"
    r"-cy(?P<cycle>[01])-x(?P<contexts>\d+)-n(?P<tasks>\d+)$")

#: ``key=value`` spellings accepted by :meth:`SyntheticSpec.parse`.
_FIELDS = ("seed", "tabs", "groups", "controls", "gallery", "menu",
           "dialogs", "cycle", "contexts", "tasks")


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator knobs; the frozen identity of one synthetic scenario."""

    #: Seed for every name/structure/task draw.
    seed: int = 7
    #: Visible ribbon tabs.
    tabs: int = 3
    #: Command groups per tab.
    groups: int = 2
    #: Toggle buttons per group.
    controls: int = 3
    #: Choices per drop-down gallery (0 = no galleries).
    gallery: int = 6
    #: Items per drop-down menu (0 = no menus).
    menu: int = 3
    #: Length of the nested modal dialog chain.
    dialogs: int = 2
    #: Build the More/Fewer expander cycle inside the first dialog.
    cycle: bool = True
    #: Hidden contextual tabs (each registered as an exploration context).
    contexts: int = 1
    #: Number of generated tasks.
    tasks: int = 30

    def __post_init__(self) -> None:
        bounds = (("seed", self.seed, 0), ("tabs", self.tabs, 1),
                  ("groups", self.groups, 1), ("controls", self.controls, 1),
                  ("gallery", self.gallery, 0), ("menu", self.menu, 0),
                  ("dialogs", self.dialogs, 1), ("contexts", self.contexts, 0),
                  ("tasks", self.tasks, 1))
        for label, value, minimum in bounds:
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < minimum:
                raise ValueError(
                    f"synthetic spec: {label} must be an integer >= "
                    f"{minimum}, got {value!r}")

    def token(self) -> str:
        """The canonical compact token (round-trips through :meth:`parse`)."""
        return (f"s{self.seed}-t{self.tabs}-g{self.groups}-c{self.controls}"
                f"-y{self.gallery}-m{self.menu}-d{self.dialogs}"
                f"-cy{int(self.cycle)}-x{self.contexts}-n{self.tasks}")

    @property
    def app_name(self) -> str:
        return APP_PREFIX + self.token()

    def task_id(self, ordinal: int) -> str:
        return f"{TASK_PREFIX}{self.token()}:{ordinal:04d}"

    @classmethod
    def parse(cls, spec: str) -> "SyntheticSpec":
        """Parse a canonical token or friendly ``key=value`` pairs.

        Accepts an optional ``synthetic:`` prefix so app names parse
        directly.  Raises :class:`ValueError` with a usage hint on
        malformed input.
        """
        if not isinstance(spec, str):
            raise ValueError(f"synthetic spec must be a string, got {spec!r}")
        text = spec.strip()
        if text.startswith(APP_PREFIX):
            text = text[len(APP_PREFIX):]
        match = _TOKEN_RE.match(text)
        if match:
            values = {name: int(value)
                      for name, value in match.groupdict().items()}
            values["cycle"] = bool(values["cycle"])
            return cls(**values)
        if "=" in text:
            values = {}
            for part in re.split(r"[\s,;]+", text):
                if not part:
                    continue
                key, separator, value = part.partition("=")
                if not separator or key not in _FIELDS:
                    raise ValueError(
                        f"synthetic spec: unknown field {part!r}; fields are "
                        f"{', '.join(_FIELDS)}")
                if key in values:
                    raise ValueError(
                        f"synthetic spec: field {key!r} given twice")
                try:
                    values[key] = int(value)
                except ValueError as error:
                    raise ValueError(
                        f"synthetic spec: field {key!r} needs an integer, "
                        f"got {value!r}") from error
            if "cycle" in values:
                values["cycle"] = bool(values["cycle"])
            return cls(**values)
        raise ValueError(
            f"cannot parse synthetic spec {spec!r}; use the canonical token "
            "(e.g. 's7-t3-g2-c3-y6-m3-d2-cy1-x1-n30') or key=value pairs "
            "(e.g. 'seed=7,tasks=100')")


def _coerce(spec: Union[str, SyntheticSpec]) -> SyntheticSpec:
    return spec if isinstance(spec, SyntheticSpec) else SyntheticSpec.parse(spec)


# ----------------------------------------------------------------------
# deterministic naming
# ----------------------------------------------------------------------
_ADJECTIVES = (
    "Amber", "Basalt", "Cedar", "Delta", "Ember", "Fjord", "Garnet",
    "Harbor", "Indigo", "Juniper", "Krypton", "Lumen", "Mistral", "Nimbus",
    "Onyx", "Pylon", "Quartz", "Rustic", "Saffron", "Tundra", "Umber",
    "Vortex", "Willow", "Xenon", "Yonder", "Zephyr",
)
_NOUNS = (
    "Anchor", "Beacon", "Cipher", "Dynamo", "Ensign", "Fulcrum", "Gantry",
    "Helix", "Isobar", "Jetty", "Keel", "Lattice", "Module", "Nexus",
    "Orbit", "Prism", "Quill", "Rotor", "Sprocket", "Turbine", "Underlay",
    "Vane", "Warp", "Yoke", "Zenith",
)


class _NameForge:
    """Seeded generator of globally unique two-word control names.

    Global uniqueness matters twice over: the planner resolves controls by
    name against the ripped forest, and the ripper's node identity falls
    back to names when automation ids collide.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._used = set()

    def name(self, suffix: str = "") -> str:
        base = f"{self.rng.choice(_ADJECTIVES)} {self.rng.choice(_NOUNS)}"
        if suffix:
            base = f"{base} {suffix}"
        candidate = base
        serial = 2
        while candidate in self._used:
            candidate = f"{base} {serial}"
            serial += 1
        self._used.add(candidate)
        return candidate


# ----------------------------------------------------------------------
# topology: pure data, derived once per token
# ----------------------------------------------------------------------
_TOPOLOGIES: Dict[str, Dict[str, object]] = {}


def topology_for(spec: Union[str, SyntheticSpec]) -> Dict[str, object]:
    """The generated app's structure as plain data (memoized per token).

    Everything downstream — :class:`SyntheticApp`, the task suite, the
    digest — derives from this one deterministic artifact, so structural
    equality between processes reduces to token equality.
    """
    spec = _coerce(spec)
    token = spec.token()
    cached = _TOPOLOGIES.get(token)
    if cached is not None:
        return cached
    forge = _NameForge(random.Random(f"{token}|topology"))
    tabs: List[Dict[str, object]] = []
    for tab_index in range(spec.tabs + spec.contexts):
        contextual = tab_index >= spec.tabs
        groups: List[Dict[str, object]] = []
        for _ in range(spec.groups):
            group: Dict[str, object] = {
                "title": forge.name(),
                "toggles": [forge.name() for _ in range(spec.controls)],
                "gallery": None,
                "menu": None,
            }
            if spec.gallery:
                group["gallery"] = {
                    "name": forge.name(),
                    "choices": [forge.name() for _ in range(spec.gallery)],
                }
            if spec.menu:
                group["menu"] = {
                    "name": forge.name(),
                    "items": [forge.name() for _ in range(spec.menu)],
                }
            groups.append(group)
        tabs.append({"title": forge.name(), "contextual": contextual,
                     "groups": groups})
    dialogs = [{"title": f"{forge.name()} Settings", "edit": forge.name(),
                "checkbox": forge.name()}
               for _ in range(spec.dialogs)]
    cycle = None
    if spec.cycle:
        subject = forge.name()
        cycle = {
            "expand": f"More {subject}",
            "collapse": f"Fewer {subject}",
            "extras": [forge.name() for _ in range(2)],
        }
    topology: Dict[str, object] = {
        "token": token,
        "tabs": tabs,
        "dialogs": dialogs,
        "cycle": cycle,
    }
    _TOPOLOGIES[token] = topology
    return topology


def topology_digest(spec: Union[str, SyntheticSpec]) -> str:
    """SHA-256 over the canonical topology JSON (the determinism oracle)."""
    payload = json.dumps(topology_for(spec), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# checkable state
# ----------------------------------------------------------------------
class SyntheticState(Marked):
    """The generated app's model: everything a checker can assert on."""

    def __init__(self, topology: Dict[str, object]) -> None:
        self.toggles: Dict[str, bool] = {}
        self.gallery: Dict[str, str] = {}
        self.menu: Dict[str, str] = {}
        self.fields: Dict[str, str] = {}
        self.checks: Dict[str, bool] = {}
        for tab in topology["tabs"]:
            for group in tab["groups"]:
                for toggle in group["toggles"]:
                    self.toggles[toggle] = False
                if group["gallery"]:
                    self.gallery[group["gallery"]["name"]] = ""
                if group["menu"]:
                    self.menu[group["menu"]["name"]] = ""
        for dialog in topology["dialogs"]:
            self.fields[dialog["edit"]] = ""
            self.checks[dialog["checkbox"]] = False
        if topology["cycle"]:
            for extra in topology["cycle"]["extras"]:
                self.toggles[extra] = False

    def set(self, table: Dict[str, object], key: str, value: object) -> None:
        """Write ``key`` of one of the state's tables (``self.toggles``, ...)."""
        save(self, table)
        table[key] = value

    def snapshot(self) -> Dict[str, object]:
        """A JSON-comparable dump (used by determinism tests)."""
        return {"toggles": dict(self.toggles), "gallery": dict(self.gallery),
                "menu": dict(self.menu), "fields": dict(self.fields),
                "checks": dict(self.checks)}


@dataclass(frozen=True)
class SyntheticCheck:
    """A task checker that is *equal by parameters*, not by closure.

    :class:`~repro.bench.engine.ParallelExecutor` refuses specs whose
    parent-side task differs from the registry regeneration; dataclass
    equality over ``TaskSpec`` includes the checker, so checkers must
    compare equal across independent generator runs.
    """

    kind: str            # "toggle" | "gallery" | "menu" | "field"
    key: str
    expected: str = ""

    def __call__(self, app: "SyntheticApp") -> bool:
        state = app.state
        if self.kind == "toggle":
            return state.toggles.get(self.key) is True
        if self.kind == "gallery":
            return bool(self.expected) and state.gallery.get(self.key) == self.expected
        if self.kind == "menu":
            return bool(self.expected) and state.menu.get(self.key) == self.expected
        if self.kind == "field":
            return bool(self.expected) and state.fields.get(self.key) == self.expected
        raise ValueError(f"unknown synthetic check kind {self.kind!r}")


# ----------------------------------------------------------------------
# the application
# ----------------------------------------------------------------------
class SyntheticApp(Application):
    """A generated Office-shaped application with checkable state."""

    APP_VERSION = "1.0"

    def __init__(self, spec: Union[str, SyntheticSpec], desktop=None) -> None:
        spec = _coerce(spec)
        self.spec = spec
        self.topology = topology_for(spec)
        self._state = SyntheticState(self.topology)
        # Instance attribute shadows the class attribute so window titles
        # and automation ids identify the generated family.
        self.APP_NAME = f"Syn[{spec.token()}]"
        super().__init__(desktop=desktop)

    def document_title(self) -> str:
        return "Generated Scenario"

    @property
    def state(self) -> SyntheticState:
        return self._state

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build_ui(self) -> None:
        ribbon = RibbonBuilder(self.window, self.APP_NAME)
        self.ribbon = ribbon
        first_visible: Optional[str] = None
        for tab in self.topology["tabs"]:
            title = tab["title"]
            ribbon.add_tab(title, visible=not tab["contextual"],
                           description=f"{title} commands")
            if first_visible is None and not tab["contextual"]:
                first_visible = title
            for group_spec in tab["groups"]:
                group = ribbon.add_group(title, group_spec["title"])
                for toggle in group_spec["toggles"]:
                    group.add_child(Button(
                        toggle,
                        automation_id=self._automation_id(toggle),
                        description=f"Turn on the {toggle} option",
                        on_click=lambda n=toggle: self._turn_on(n)))
                gallery = group_spec["gallery"]
                if gallery:
                    group.add_child(build_gallery_button(
                        gallery["name"], tuple(gallery["choices"]),
                        automation_id=self._automation_id(gallery["name"]),
                        description=f"Pick a {gallery['name']} style",
                        on_choice=lambda c, n=gallery["name"]:
                            self._choose(n, c)))
                menu = group_spec["menu"]
                if menu:
                    group.add_child(build_menu_button(
                        menu["name"],
                        {item: (lambda i=item, n=menu["name"]:
                                self._pick(n, i))
                         for item in menu["items"]},
                        automation_id=self._automation_id(menu["name"]),
                        description=f"{menu['name']} actions"))
        dialogs = self.topology["dialogs"]
        if dialogs and first_visible is not None:
            opener = f"Open {dialogs[0]['title']}"
            ribbon.panels[first_visible].add_child(Button(
                opener,
                automation_id=self._automation_id(opener),
                description=f"Open the {dialogs[0]['title']} dialog",
                on_click=lambda: self._open_chain_dialog(0)))
        if first_visible is not None:
            ribbon.select_tab(first_visible)
        for tab in self.topology["tabs"]:
            if tab["contextual"]:
                self.register_context(f"{tab['title']} active",
                                      self._context_setup(tab["title"]))

    def _automation_id(self, name: str) -> str:
        return f"{self.APP_NAME}.{name.replace(' ', '')}"

    def _context_setup(self, tab_title: str) -> Callable[[], None]:
        def setup() -> None:
            # Visibility only: contextual setups must not perturb state or
            # structure, so every context is ripped from the same tree.
            self.ribbon.tabs[tab_title].visible = True
            self.desktop.relayout()
        return setup

    # ------------------------------------------------------------------
    # state mutations (wired to controls)
    # ------------------------------------------------------------------
    def _turn_on(self, name: str) -> None:
        self._state.set(self._state.toggles, name, True)

    def _choose(self, gallery: str, choice: str) -> None:
        self._state.set(self._state.gallery, gallery, choice)

    def _pick(self, menu: str, item: str) -> None:
        self._state.set(self._state.menu, menu, item)

    # ------------------------------------------------------------------
    # the dialog chain (built fresh per open; optional expander cycle)
    # ------------------------------------------------------------------
    def _open_chain_dialog(self, index: int) -> None:
        dialogs = self.topology["dialogs"]
        dialog_spec = dialogs[index]
        builder = DialogBuilder(dialog_spec["title"])
        dialog = builder.dialog
        builder.add_edit(
            dialog, dialog_spec["edit"],
            value=self._state.fields[dialog_spec["edit"]],
            on_commit=lambda v, l=dialog_spec["edit"]:
                self._state.set(self._state.fields, l, v))
        builder.add_checkbox(
            dialog, dialog_spec["checkbox"],
            checked=self._state.checks[dialog_spec["checkbox"]],
            on_change=lambda v, l=dialog_spec["checkbox"]:
                self._state.set(self._state.checks, l, v))
        if index + 1 < len(dialogs):
            next_title = dialogs[index + 1]["title"]
            builder.add_button(dialog, f"Open {next_title}",
                               on_click=lambda i=index + 1:
                                   self._open_chain_dialog(i))
        if index == 0 and self.topology["cycle"]:
            self._build_cycle(builder, dialog)
        self.open_dialog(builder.build())

    def _build_cycle(self, builder: DialogBuilder, dialog) -> None:
        """The More/Fewer expander pair: two buttons revealing each other.

        Clicking ``More X`` hides itself and shows ``Fewer X`` plus extra
        toggles; clicking ``Fewer X`` reverses it.  The ripper records
        More -> Fewer and Fewer -> More edges — a true UNG cycle for
        decycle to break, the Find-and-Replace ``More >>``/``<< Less``
        idiom at generated scale.
        """
        cycle = self.topology["cycle"]
        extras = [Button(extra,
                         automation_id=self._automation_id(extra),
                         description=f"Turn on the {extra} option",
                         on_click=lambda n=extra: self._turn_on(n))
                  for extra in cycle["extras"]]
        holder: Dict[str, Button] = {}

        def show_more() -> None:
            holder["expand"].visible = False
            holder["collapse"].visible = True
            for widget in extras:
                widget.visible = True
            self.desktop.relayout()

        def show_fewer() -> None:
            holder["collapse"].visible = False
            for widget in extras:
                widget.visible = False
            holder["expand"].visible = True
            self.desktop.relayout()

        holder["expand"] = builder.add_button(dialog, cycle["expand"],
                                              on_click=show_more)
        for widget in extras:
            widget.visible = False
            dialog.add_child(widget)
        holder["collapse"] = builder.add_button(dialog, cycle["collapse"],
                                                on_click=show_fewer)
        holder["collapse"].visible = False


class SyntheticAppFactory:
    """Zero-arg factory shaped like an ``APP_FACTORIES`` entry.

    Carries ``APP_VERSION`` as an attribute so the artifact cache's
    version probe works without instantiating (and ripping) the app.
    """

    APP_VERSION = SyntheticApp.APP_VERSION

    def __init__(self, spec: Union[str, SyntheticSpec]) -> None:
        self.spec = _coerce(spec)

    def __call__(self) -> SyntheticApp:
        return SyntheticApp(self.spec)


def synthetic_app_factory(name: Union[str, SyntheticSpec]) -> SyntheticAppFactory:
    """Factory for an app name (``synthetic:<token>``), token, or spec."""
    return SyntheticAppFactory(name if isinstance(name, SyntheticSpec)
                               else SyntheticSpec.parse(name))


# ----------------------------------------------------------------------
# property-based task families
# ----------------------------------------------------------------------
def _sample_others(rng: random.Random, pool: List[str], exclude: str,
                   count: int = 2) -> Tuple[str, ...]:
    candidates = [item for item in pool if item != exclude]
    rng.shuffle(candidates)
    return tuple(candidates[:count])


def _generate_tasks(spec: SyntheticSpec) -> List[TaskSpec]:
    topology = topology_for(spec)
    token = spec.token()
    rng = random.Random(f"{token}|tasks")
    toggles: List[Tuple[str, str, List[str]]] = []
    galleries: List[Tuple[str, List[str], str]] = []
    menus: List[Tuple[str, List[str], str]] = []
    for tab in topology["tabs"]:
        if tab["contextual"]:
            # Contextual content is reachable only inside its context;
            # tasks stay on the always-visible surface so outcomes do not
            # depend on exploration-context ordering.
            continue
        for group in tab["groups"]:
            for toggle in group["toggles"]:
                toggles.append((toggle, tab["title"], group["toggles"]))
            if group["gallery"]:
                galleries.append((group["gallery"]["name"],
                                  group["gallery"]["choices"], tab["title"]))
            if group["menu"]:
                menus.append((group["menu"]["name"],
                              group["menu"]["items"], tab["title"]))
    dialogs = topology["dialogs"]
    families = ["toggle"]
    if galleries:
        families.append("gallery")
    if menus:
        families.append("menu")
    if dialogs:
        families.append("field")

    tasks: List[TaskSpec] = []
    for ordinal in range(spec.tasks):
        family = families[ordinal % len(families)]
        difficulty = rng.choice((0.5, 0.8, 1.0, 1.2, 1.5))
        if family == "toggle":
            name, tab_title, siblings = rng.choice(toggles)
            instruction = f"Turn on the {name} option."
            intents = (Intent(IntentKind.ACCESS, target=name,
                              scope_hint=tab_title,
                              distractors=_sample_others(rng, siblings, name)),)
            checker: Callable = SyntheticCheck("toggle", name)
            cause = FailureCause.SUBTLE_SEMANTICS
        elif family == "gallery":
            name, choices, tab_title = rng.choice(galleries)
            choice = rng.choice(choices)
            instruction = f"Apply the {choice} style from the {name} gallery."
            intents = (Intent(IntentKind.ACCESS, target=choice,
                              scope_hint=name,
                              distractors=_sample_others(rng, choices, choice)),)
            checker = SyntheticCheck("gallery", name, choice)
            cause = FailureCause.CONTROL_SEMANTICS
        elif family == "menu":
            name, items, tab_title = rng.choice(menus)
            item = rng.choice(items)
            instruction = f"Choose {item} from the {name} menu."
            intents = (Intent(IntentKind.ACCESS, target=item,
                              scope_hint=name,
                              distractors=_sample_others(rng, items, item)),)
            checker = SyntheticCheck("menu", name, item)
            cause = FailureCause.CONTROL_SEMANTICS
        else:  # field
            dialog_index = rng.randrange(len(dialogs))
            dialog = dialogs[dialog_index]
            value = f"{rng.choice(_NOUNS).lower()}-{rng.randrange(100)}"
            instruction = (f"Set the {dialog['edit']} field in the "
                           f"{dialog['title']} dialog to '{value}'.")
            intents = (
                Intent(IntentKind.ACCESS_INPUT, target=dialog["edit"],
                       scope_hint=dialog["title"], text=value),
                Intent(IntentKind.ACCESS, target="OK",
                       scope_hint=dialog["title"], distractors=("Cancel",)),
            )
            checker = SyntheticCheck("field", dialog["edit"], value)
            cause = FailureCause.CONTROL_SEMANTICS
        tasks.append(TaskSpec(
            task_id=spec.task_id(ordinal),
            app=spec.app_name,
            instruction=instruction,
            intents=intents,
            checker=checker,
            semantic_difficulty=difficulty,
            policy_failure_cause=cause,
            tags=("synthetic", family),
        ))
    return tasks


_SUITES: Dict[str, Tuple[TaskSpec, ...]] = {}
_TASK_INDEX: Dict[str, TaskSpec] = {}


def synthetic_suite(spec: Union[str, SyntheticSpec]) -> List[TaskSpec]:
    """The generated task suite for ``spec`` (memoized per token).

    Memoization keeps ``task_by_id`` O(1) at 100–1000× grid scale and
    guarantees repeated lookups return identical objects within a process;
    across processes, regeneration from the token yields equal objects.
    """
    spec = _coerce(spec)
    token = spec.token()
    cached = _SUITES.get(token)
    if cached is None:
        cached = tuple(_generate_tasks(spec))
        _SUITES[token] = cached
        for task in cached:
            _TASK_INDEX[task.task_id] = task
    return list(cached)


def synthetic_task(task_id: str) -> TaskSpec:
    """Regenerate the task a ``syn:<token>:NNNN`` id denotes.

    Raises :class:`KeyError` (matching ``task_by_id``'s contract) for
    malformed ids, unparseable tokens and out-of-range ordinals.
    """
    task = _TASK_INDEX.get(task_id)
    if task is not None:
        return task
    body = task_id[len(TASK_PREFIX):] if task_id.startswith(TASK_PREFIX) else ""
    token, separator, ordinal_text = body.rpartition(":")
    if not separator or not token or not ordinal_text.isdigit():
        raise KeyError(f"unknown task id {task_id!r} (synthetic ids look "
                       f"like '{TASK_PREFIX}<spec-token>:0000')")
    try:
        spec = SyntheticSpec.parse(token)
    except ValueError as error:
        raise KeyError(f"unknown task id {task_id!r}: {error}") from error
    synthetic_suite(spec)
    task = _TASK_INDEX.get(spec.task_id(int(ordinal_text)))
    if task is None:
        raise KeyError(
            f"unknown task id {task_id!r}: spec {spec.token()!r} generates "
            f"only {spec.tasks} task(s)")
    return task
