"""GUI ripping: automatic construction of the UI Navigation Graph (UNG).

The offline phase of DMI (paper §3.2, §4.1).  The ripper drives an
application through depth-first exploration, taking differential captures of
the accessibility tree around each click to discover which controls a click
reveals.  The result is a :class:`repro.ripping.ung.NavigationGraph` whose
nodes are controls (keyed by their composite control identifier) and whose
edges denote click-induced reachability.
"""

from repro.ripping.blocklist import AccessBlocklist, default_blocklist_for
from repro.ripping.contexts import ExplorationContext, context_plan_for
from repro.ripping.ripper import (
    GuiRipper,
    RipperConfig,
    RipReport,
    rip_application,
)
from repro.ripping.ung import NavigationGraph, UNGNode

__all__ = [
    "AccessBlocklist",
    "ExplorationContext",
    "GuiRipper",
    "NavigationGraph",
    "RipReport",
    "RipperConfig",
    "UNGNode",
    "context_plan_for",
    "default_blocklist_for",
    "rip_application",
]
