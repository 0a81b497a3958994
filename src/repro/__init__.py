"""repro — reproduction of the DMI (Declarative Model Interface) system.

This package reproduces "From Imperative to Declarative: Towards LLM-friendly
OS Interfaces for Boosted Computer-Use Agents" (EuroSys 2026).

Top-level layout
----------------
``repro.uia``
    A Windows-UI-Automation-like accessibility substrate: control types,
    control patterns, the accessibility tree and element properties.
``repro.gui``
    A simulated desktop runtime: windows, widgets, input (mouse/keyboard),
    hit-testing and visibility.
``repro.apps``
    Simulated Office-like applications (Word, Excel, PowerPoint analogues)
    with real, checkable document/workbook/presentation state.
``repro.ripping``
    GUI ripping: automatic construction of the UI Navigation Graph (UNG).
``repro.topology``
    UNG -> DAG -> forest transformation, compact textual serialisation,
    core-topology extraction and query-on-demand.
``repro.dmi``
    The paper's contribution: the declarative primitives (access, state,
    observation) and the robust executor behind them.
``repro.llm``
    A calibrated stochastic policy simulator standing in for GPT-5-class
    models (calibration notes in ``repro.llm.profiles``).
``repro.agent``
    A UFO-2-like computer-use-agent framework (HostAgent/AppAgent) and its
    DMI-augmented variant.
``repro.bench``
    An OSWorld-W-style benchmark of 27 single-app tasks, runners, metrics and
    report generators for every table and figure in the paper.
"""

__version__ = "1.0.0"

__all__ = [
    "uia",
    "gui",
    "apps",
    "ripping",
    "topology",
    "dmi",
    "llm",
    "agent",
    "bench",
]
