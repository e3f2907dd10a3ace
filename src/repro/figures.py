"""The experiment manifest: every paper figure and where it lives here.

A machine-readable version of DESIGN.md's per-experiment index, used by the
CLI (``repro figures``) and the test suite to guarantee the mapping between
the paper's evaluation and this repository's benchmarks stays complete.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Experiment", "EXPERIMENTS", "experiment"]


@dataclass(frozen=True)
class Experiment:
    """One paper figure/claim and its reproduction assets."""

    id: str
    paper_ref: str
    claim: str
    modules: tuple[str, ...]
    benchmark: str
    results_files: tuple[str, ...]


EXPERIMENTS: list[Experiment] = [
    Experiment(
        "fig01", "Figure 1",
        "Off-the-shelf latency/accuracy trade-off; only MobileNetV1 "
        "variants meet the 0.9 ms deadline; an accuracy gap remains.",
        ("repro.zoo", "repro.train", "repro.device", "repro.metrics.pareto"),
        "benchmarks/test_fig01_tradeoff.py",
        ("fig01_tradeoff.txt",)),
    Experiment(
        "fig04", "Figure 4",
        "Blockwise removal matches exhaustive per-layer removal within "
        "0.03 accuracy on InceptionV3.",
        ("repro.trim.search", "repro.netcut.explorer"),
        "benchmarks/test_fig04_blockwise.py",
        ("fig04_blockwise_vs_iterative.txt",)),
    Experiment(
        "fig05", "Figure 5",
        "Accuracy vs removed layers for all 148 TRNs: MobileNets fragile, "
        "DenseNet/Inception flat past 100 layers.",
        ("repro.trim", "repro.train.features", "repro.netcut.explorer"),
        "benchmarks/test_fig05_removal_effects.py",
        ("fig05_accuracy_vs_removal.txt",)),
    Experiment(
        "sec4b2", "Section IV-B2",
        "Latency decreases almost linearly with removed layers.",
        ("repro.device.runtime",),
        "benchmarks/test_fig05_removal_effects.py",
        ("sec4b2_latency_linearity.txt",)),
    Experiment(
        "fig06", "Figure 6",
        "TRN scatter: ResNet fills the gap before MobileNetV2(1.4); "
        "trimmed MobileNetV1(0.5) dominates off-the-shelf 0.25.",
        ("repro.metrics.pareto", "repro.netcut.explorer"),
        "benchmarks/test_fig06_trn_tradeoff.py",
        ("fig06_trn_tradeoff.txt",)),
    Experiment(
        "fig07", "Figure 7",
        "The expanded Pareto frontier: up to +10.43% relative accuracy at "
        "the deadline, ~5% average.",
        ("repro.metrics.pareto",),
        "benchmarks/test_fig07_pareto.py",
        ("fig07_pareto_frontier.txt", "fig07_deadline_gain.txt",
         "fig07_average_gain.txt")),
    Experiment(
        "fig08", "Figure 8",
        "Estimates vs ground truth on ResNet cutpoints; the RBF-SVR "
        "captures the non-linearity.",
        ("repro.estimators",),
        "benchmarks/test_fig08_resnet_estimates.py",
        ("fig08_resnet_estimates.txt",)),
    Experiment(
        "fig09", "Figure 9",
        "Estimator error per network: profiler 3.5%, SVR 4.28%, linear "
        "23.81% in the paper.",
        ("repro.estimators",),
        "benchmarks/test_fig09_estimator_error.py",
        ("fig09_estimator_error.txt", "fig09_averages.txt")),
    Experiment(
        "fig10", "Figure 10 / Algorithm 1",
        "NetCut's final selections; 95% fewer networks trained; 27x "
        "faster exploration.",
        ("repro.netcut",),
        "benchmarks/test_fig10_netcut.py",
        ("fig10_selected_networks.txt", "fig10_accounting.txt")),
    Experiment(
        "deploy", "Section III-B4",
        "Deployment optimizations: layer fusion and INT8 post-training "
        "quantization.",
        ("repro.nn.compile", "repro.device.quantize"),
        "benchmarks/test_deploy_optimizations.py",
        ("deploy_fusion.txt", "deploy_int8.txt",
         "deploy_quantization_drift.txt",
         "deploy_quantization_accuracy.txt")),
    Experiment(
        "serve", "Beyond the paper",
        "Deadline-aware serving: EDF queueing, micro-batching and "
        "TRN-ladder degradation hold the miss rate under overload.",
        ("repro.serve",),
        "benchmarks/test_serve_throughput.py",
        ("serve_throughput.txt",)),
    Experiment(
        "faults", "Beyond the paper",
        "Serving resilience: under a seeded straggler storm the "
        "timeout/retry/breaker engine holds misses under 5% where the "
        "undefended engine exceeds 20%; replays are byte-identical "
        "across PYTHONHASHSEED values.",
        ("repro.faults",),
        "benchmarks/test_faults_chaos.py",
        ("faults_chaos.txt",)),
    Experiment(
        "cluster", "Beyond the paper",
        "Multi-replica scale-out: deadline-aware power-of-two routing "
        "over 3 replicas sustains >=2x the saturated single replica's "
        "admitted throughput at <5% misses, and routes around a killed "
        "replica via the circuit breakers.",
        ("repro.cluster",),
        "benchmarks/test_cluster_scaleout.py",
        ("cluster_scaleout.txt", "cluster_replica_kill.txt")),
    Experiment(
        "workload", "Beyond the paper",
        "Multi-tenant workloads: under a seeded diurnal+flash-crowd "
        "overload, weighted-fair admission holds the interactive "
        "tenant's miss rate under 5% where plain EDF exceeds 20%, and "
        "the fluid analytical model matches the discrete simulator "
        "within 10% while sizing 100-replica fleets in milliseconds.",
        ("repro.workload",),
        "benchmarks/test_workload_slo.py",
        ("workload_slo.txt", "workload_fluid_validation.txt",
         "workload_fluid_sweep.txt")),
    Experiment(
        "related", "Section II",
        "Related-work positioning vs BranchyNet, Edgent and NetAdapt, "
        "implemented on the same substrates.",
        ("repro.extensions", "repro.estimators.layerwise"),
        "benchmarks/test_ext_related_work.py",
        ("ext_branchynet.txt", "ext_netadapt.txt", "ablation_edgent.txt")),
    Experiment(
        "ablations", "Design choices",
        "Ratio vs raw-sum formula, head correction, kernels, search "
        "strategies, split strategies.",
        ("repro.estimators",),
        "benchmarks/test_ablations.py",
        ("ablation_ratio_formula.txt", "ablation_head_correction.txt",
         "ablation_kernels.txt", "ablation_search.txt",
         "ablation_split.txt")),
]

_BY_ID = {e.id: e for e in EXPERIMENTS}


def experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by its id (e.g. ``"fig07"``)."""
    try:
        return _BY_ID[experiment_id]
    except KeyError:
        raise KeyError(f"unknown experiment {experiment_id!r}; "
                       f"available: {sorted(_BY_ID)}") from None
