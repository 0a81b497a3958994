"""Trace correlation on top of the telemetry substrate.

:mod:`repro.bench.observe.trace` is the package's one module:
deterministic trial/shard/plan trace ids derived from the same identity
fields that make the four execution paths byte-identical, a thread-local
span-context stack for the instrumented seams, and the reconstruction
that turns merged JSONL from any number of workers back into one
per-trial timeline.  Import it directly
(``from repro.bench.observe import trace``).
"""
