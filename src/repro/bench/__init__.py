"""An OSWorld-W-style benchmark and the evaluation harness.

27 single-application tasks (9 each for the Word-, Excel- and PowerPoint-like
applications), programmatic checkers over final application state, a runner
that executes every (interface, model) configuration from the paper's
Table 3 with three trials per task and a 30-step cap, plus the metric and
report generators behind every table and figure in the evaluation section.

This package re-exports nothing: name the submodule you need.  Loading it
loads no submodule, so any layer (the ripper, the artifact cache) can use
:mod:`repro.bench.telemetry` without loading the runner and its DMI stack.
"""
