"""Experiment drivers — one per table/figure of the paper's evaluation.

Run any of them via ``python -m repro.experiments run <id>`` or through
:func:`repro.experiments.common.run_experiment`;
``python -m repro.experiments list`` prints the experiment ids, and
:data:`ALL_EXPERIMENTS` maps each id to its driver module, whose
docstring names the workload and parameters.
"""

from repro.experiments.common import (
    ExperimentResult,
    run_experiment,
)

#: artifact id -> driver module.
ALL_EXPERIMENTS: dict[str, str] = {
    "fig01": "repro.experiments.fig01_worker_types",
    "tab01": "repro.experiments.tab01_example",
    "tab04": "repro.experiments.tab04_datasets",
    "fig04": "repro.experiments.fig04_response_time",
    "tab05": "repro.experiments.tab05_partitioning",
    "fig05": "repro.experiments.fig05_first_class",
    "fig06": "repro.experiments.fig06_probability_histogram",
    "fig07": "repro.experiments.fig07_iem_agreement",
    "fig08": "repro.experiments.fig08_iteration_reduction",
    "fig09": "repro.experiments.fig09_spammer_detection",
    "fig10": "repro.experiments.fig10_guidance",
    "fig11": "repro.experiments.fig11_expert_mistakes",
    "tab06": "repro.experiments.tab06_mistake_detection",
    "fig12": "repro.experiments.fig12_cost_tradeoff",
    "fig13": "repro.experiments.fig13_budget_allocation",
    "fig14": "repro.experiments.fig14_time_constraints",
    "fig15": "repro.experiments.fig15_uncertainty_precision",
    "fig16": "repro.experiments.fig16_question_difficulty",
    "fig17": "repro.experiments.fig17_label_count",
    "fig18": "repro.experiments.fig18_worker_count",
    "fig19": "repro.experiments.fig19_reliability",
    "fig20": "repro.experiments.fig20_spammers",
    "fig21": "repro.experiments.fig21_cost_difficulty",
    "fig22": "repro.experiments.fig22_cost_spammers",
    "fig23": "repro.experiments.fig23_cost_reliability",
    "appe": "repro.experiments.appe_hardness",
    "scen": "repro.experiments.scen_conformance",
    "qtarget": "repro.experiments.quality_targets",
    "telemetry": "repro.experiments.telemetry_run",
}

__all__ = ["ALL_EXPERIMENTS", "ExperimentResult", "run_experiment"]
