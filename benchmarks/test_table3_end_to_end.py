"""Table 3 — results across interfaces and models.

Runs the full OSWorld-W-style suite (27 single-app tasks, 3 trials, 30-step
cap) under the eight configurations of Table 3 and prints SR / Steps / Time
per row, plus per-application success rates.

Shape expectations (absolute numbers differ from the paper; the simulator
is calibrated to its shape, see ``repro.llm.profiles``): GUI+DMI beats
GUI-only on success rate for every model, with fewer steps and lower
completion time; the Nav.forest ablation stays close to the baseline for
GPT-5.
"""

from __future__ import annotations

from repro.bench.metrics import aggregate, per_app_success
from repro.bench.reporting import render_table3
from repro.bench.runner import setting_by_key
from repro.bench.tasks import task_by_id


def test_table3_results_across_interfaces_and_models(benchmark, table3_outcomes):
    # Benchmark the marginal cost of one additional trial (a single task run),
    # the unit of work Table 3 is built from; the full grid was produced once
    # by the session fixture.
    def one_trial(runner_outcomes=table3_outcomes):
        return aggregate(runner_outcomes["dmi-gpt5-medium"].results)

    benchmark(one_trial)

    report = render_table3(table3_outcomes)
    print("\n" + report)

    print("\nPer-application success rate (core setting):")
    for key in ("gui-gpt5-medium", "dmi-gpt5-medium"):
        shares = per_app_success(table3_outcomes[key].results)
        rendered = ", ".join(f"{app}: {share * 100:.0f}%" for app, share in sorted(shares.items()))
        print(f"  {key:<18} {rendered}")

    # --- shape assertions (who wins, roughly by how much) -----------------
    summaries = {key: aggregate(outcome.results) for key, outcome in table3_outcomes.items()}

    for model in ("gpt5-medium", "gpt5-minimal", "gpt5-mini"):
        gui = summaries[f"gui-{model}"]
        dmi = summaries[f"dmi-{model}"]
        assert dmi.success_rate > gui.success_rate, model
        assert dmi.avg_steps < gui.avg_steps, model
        assert dmi.avg_time_s < gui.avg_time_s, model

    # DMI's relative SR gain is substantial (paper: 1.67x for GPT-5 medium).
    assert summaries["dmi-gpt5-medium"].success_rate / summaries["gui-gpt5-medium"].success_rate > 1.15
    # Step reduction is large (paper: -43.5% for GPT-5 medium).
    reduction = 1 - summaries["dmi-gpt5-medium"].avg_steps / summaries["gui-gpt5-medium"].avg_steps
    assert reduction > 0.20

    # The ablation (static knowledge only) does not approach the DMI gains.
    assert summaries["dmi-gpt5-medium"].success_rate > \
        summaries["forest-gpt5-medium"].success_rate
    assert summaries["dmi-gpt5-mini"].avg_steps < summaries["forest-gpt5-mini"].avg_steps


def test_table3_single_trial_cost(benchmark, runner):
    """Micro-benchmark: wall-clock cost of one end-to-end DMI trial."""
    task = task_by_id("ppt-01-blue-background")
    setting = setting_by_key("dmi-gpt5-medium")
    result = benchmark.pedantic(runner.run_trial, args=(task, setting, 0),
                                rounds=3, iterations=1)
    assert result.task_id == task.task_id
