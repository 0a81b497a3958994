"""Model capability profiles.

Each profile parameterises the policy simulator with the failure modes and
costs the paper attributes to a given model / reasoning configuration.  The
values are calibrated from the paper's own measurements:

* the per-category failure counts in §5.6 (Figure 6) pin down the semantic
  (policy) error rates and the aggregate mechanism error mass;
* Table 3's success rates, step counts and completion times pin down the
  per-action grounding error, the navigation-planning error and the latency
  model;
* the ablation (§5.5) motivates ``knows_app_structure``: GPT-5 already knows
  where Office controls live (providing the forest as prose changes little),
  while GPT-5-mini benefits modestly from it.

The calibration targets the *shape* of the results, not the exact numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass(frozen=True)
class ModelProfile:
    """Capability/cost parameters of one simulated model configuration."""

    name: str
    reasoning: str                         # "medium" | "minimal"

    # -- mechanism-level error rates (imperative GUI interaction) --------
    #: Probability that a control-targeting action lands on the wrong
    #: on-screen control (imperfect visual grounding).
    grounding_error_rate: float
    #: Probability, per planning round, of choosing a wrong navigation branch
    #: (a wasted round before the planner recovers).
    nav_plan_error_rate: float
    #: Probability that one composite interaction attempt (drag a scrollbar
    #: thumb to a target position) fails and must be retried.
    composite_error_rate: float
    #: Probability of misreading on-screen content when a task requires
    #: perceiving dynamic data without structured retrieval.
    visual_parse_error_rate: float
    #: Probability that the model, having gotten lost mid-navigation (wrong
    #: click, unexpected dialog), correctly re-plans its way back on track in
    #: a single round.  Low values make mechanism errors cascade, which is
    #: the fragility the paper attributes to imperative GUI use.
    recovery_competence: float

    # -- policy-level error rates ----------------------------------------
    #: Probability of a semantic planning error on an average task.
    semantic_error_rate: float
    #: Multiplier on the semantic error rate when the model must also handle
    #: the mechanism (GUI-only setting); the paper observes additional
    #: semantic mistakes when attention is split.
    attention_split_factor: float
    #: Probability of violating the "output functional controls only"
    #: instruction by including navigation nodes in a visit command.
    instruction_following_error: float

    # -- knowledge ---------------------------------------------------------
    #: Whether the model already knows the application's command structure
    #: (true for frontier models on Microsoft Office).
    knows_app_structure: bool

    # -- cost model --------------------------------------------------------
    #: Fixed seconds per LLM call (inference + agent overhead).
    base_latency_s: float
    #: Additional seconds per 1000 prompt tokens.
    latency_per_1k_prompt_tokens_s: float
    #: Average completion length in tokens.
    completion_tokens_mean: float = 220.0

    def with_knowledge(self, knows: bool) -> "ModelProfile":
        """A copy of this profile with the app-structure knowledge overridden."""
        return replace(self, knows_app_structure=knows)

    def effective_semantic_error(self, difficulty: float, split_attention: bool) -> float:
        """Semantic error probability for one task."""
        rate = self.semantic_error_rate * difficulty
        if split_attention:
            rate *= self.attention_split_factor
        return min(0.95, rate)


GPT5_MEDIUM = ModelProfile(
    name="gpt-5",
    reasoning="medium",
    grounding_error_rate=0.16,
    nav_plan_error_rate=0.13,
    composite_error_rate=0.25,
    visual_parse_error_rate=0.15,
    recovery_competence=0.55,
    semantic_error_rate=0.26,
    attention_split_factor=1.35,
    instruction_following_error=0.10,
    knows_app_structure=True,
    base_latency_s=44.0,
    latency_per_1k_prompt_tokens_s=0.55,
)

GPT5_MINIMAL = ModelProfile(
    name="gpt-5",
    reasoning="minimal",
    grounding_error_rate=0.17,
    nav_plan_error_rate=0.15,
    composite_error_rate=0.35,
    visual_parse_error_rate=0.30,
    recovery_competence=0.50,
    semantic_error_rate=0.70,
    attention_split_factor=1.15,
    instruction_following_error=0.15,
    knows_app_structure=True,
    base_latency_s=25.0,
    latency_per_1k_prompt_tokens_s=0.30,
)

GPT5_MINI = ModelProfile(
    name="gpt-5-mini",
    reasoning="medium",
    grounding_error_rate=0.20,
    nav_plan_error_rate=0.18,
    composite_error_rate=0.40,
    visual_parse_error_rate=0.35,
    recovery_competence=0.40,
    semantic_error_rate=0.58,
    attention_split_factor=1.20,
    instruction_following_error=0.20,
    knows_app_structure=False,
    base_latency_s=20.0,
    latency_per_1k_prompt_tokens_s=0.85,
)

_PROFILES: Dict[str, ModelProfile] = {
    "gpt-5-medium": GPT5_MEDIUM,
    "gpt-5-minimal": GPT5_MINIMAL,
    "gpt-5-mini-medium": GPT5_MINI,
}


def profile_by_name(name: str) -> ModelProfile:
    """Look up a profile by its canonical ``<model>-<reasoning>`` key."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; available: {sorted(_PROFILES)}"
        ) from None


def all_profiles() -> Dict[str, ModelProfile]:
    return dict(_PROFILES)
