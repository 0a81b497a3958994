"""A calibrated stochastic policy simulator standing in for GPT-5-class LLMs.

The paper's online evaluation drives GPT-5 / GPT-5-mini through the OpenAI
API.  Offline reproduction replaces the remote model with a *policy
simulator*: a planner that derives plans the same way the LLM would (from
the task instruction plus either the navigation forest or the visible
controls), combined with an error model whose parameters mirror the failure
modes the paper attributes to LLMs — imperfect visual grounding, fragile
long-horizon navigation planning, occasional semantic misunderstanding,
imperfect instruction-following and per-call latency.  See
:mod:`repro.llm.profiles` for how each parameter is calibrated from the
paper's own measurements.
"""

from repro.llm.tokens import estimate_tokens
from repro.llm.profiles import (
    GPT5_MEDIUM,
    GPT5_MINIMAL,
    GPT5_MINI,
    ModelProfile,
    profile_by_name,
)
from repro.llm.grounding import GroundingModel
from repro.llm.planner import PlannedCall, SemanticPlanner, SemanticPlan

__all__ = [
    "GPT5_MEDIUM",
    "GPT5_MINI",
    "GPT5_MINIMAL",
    "GroundingModel",
    "ModelProfile",
    "PlannedCall",
    "SemanticPlan",
    "SemanticPlanner",
    "estimate_tokens",
    "profile_by_name",
]
