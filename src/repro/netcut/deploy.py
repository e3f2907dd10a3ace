"""End-to-end deployment pipeline: from deadline to a shippable artifact.

This is the glue a user of the methodology actually wants: run Algorithm 1,
*validate* the winner's measured latency against the deadline (falling back
to the next-best candidate when estimator error put the winner over), ship
the TRN Algorithm 1 already retrained and measured for that candidate,
optionally quantize, and serialise the result to a single ``.npz``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.quantize import QuantizedNetwork, calibration_split
from repro.metrics.angular import mean_angular_similarity
from repro.nn.graph import Network
from repro.nn.serialize import load_archive, save_network

__all__ = ["DeploymentArtifact", "deploy", "save_artifact", "load_artifact"]


@dataclass
class DeploymentArtifact:
    """A validated, trained, optionally quantized TRN ready to ship.

    ``builder`` names the :class:`repro.netcut.builders.LadderBuilder`
    strategy that produced the rung (empty for the classic deploy
    pipeline, whose ``.npz`` format predates the tag and stays
    byte-compatible).
    """

    network: Network
    trn_name: str
    base_name: str
    measured_latency_ms: float
    accuracy: float
    deadline_ms: float
    quantized: QuantizedNetwork | None = None
    int8_accuracy: float = float("nan")
    path: str | None = None
    builder: str = ""

    @property
    def meets_deadline(self) -> bool:
        return self.measured_latency_ms <= self.deadline_ms


def deploy(workbench, deadline_ms: float | None = None,
           estimator: str = "profiler", quantize: bool = True,
           save_path: str | None = None) -> DeploymentArtifact:
    """Run the full pipeline on a :class:`repro.experiments.Workbench`.

    Steps: Algorithm 1 (one retrain per feasible base network) →
    measured-latency validation (:attr:`NetCutResult.best_measured`) →
    that candidate's TRN, with the measured latency and accuracy it was
    scored with → (optional) INT8 quantization with a 10% calibration
    split → (optional) serialisation.
    ``deadline_ms=None`` uses the workbench's configured deadline.
    The artifact's ``builder`` tag stays empty.

    Raises ``RuntimeError`` when no candidate's *measured* latency meets
    the deadline.
    """
    result = workbench.netcut(estimator, deadline_ms=deadline_ms)
    best = result.best_measured
    artifact = DeploymentArtifact(best.trn, best.trn_name, best.base_name,
                                  best.measured_latency_ms, best.accuracy,
                                  result.deadline_ms)
    if quantize:
        train_data, test_data = workbench.hands()
        calib_idx = calibration_split(len(train_data), 0.1,
                                      rng=workbench.config.seed)
        artifact.quantized = QuantizedNetwork(best.trn,
                                              train_data.x[calib_idx])
        q_pred = artifact.quantized.forward(test_data.x)
        artifact.int8_accuracy = mean_angular_similarity(q_pred,
                                                         test_data.y)
    if save_path is not None:
        save_artifact(artifact, save_path)
    return artifact


def save_artifact(artifact: DeploymentArtifact, path: str) -> None:
    """Serialise an artifact (network + validation metadata) to one ``.npz``.

    The file is a superset of the :func:`repro.nn.serialize.save_network`
    format — a ``__artifact__`` JSON entry carries the measured latency,
    accuracy and deadline — so it also loads with plain ``load_network``.
    The INT8 variant is not persisted: it is a deterministic function of
    the fp32 weights and a calibration set, so it is rebuilt at load time
    when needed.
    """
    meta = {
        "trn_name": artifact.trn_name,
        "base_name": artifact.base_name,
        "measured_latency_ms": artifact.measured_latency_ms,
        "accuracy": artifact.accuracy,
        "deadline_ms": artifact.deadline_ms,
        "int8_accuracy": artifact.int8_accuracy,
    }
    if artifact.builder:
        # only tagged rungs grow the key: untagged artifacts keep the
        # exact pre-builder .npz bytes
        meta["builder"] = artifact.builder
    save_network(artifact.network, path, meta)
    artifact.path = path


def load_artifact(path: str) -> DeploymentArtifact:
    """Round-trip counterpart of :func:`save_artifact`.

    Rebuilds the TRN and its validation metadata without re-running
    Algorithm 1 — this is how a server (or a test) gets a ready-to-serve
    :class:`DeploymentArtifact` from disk.
    """
    net, meta = load_archive(path)
    if meta is None:
        raise ValueError(
            f"{path!r} has no __artifact__ metadata; use "
            "repro.nn.serialize.load_network for plain network files")
    return DeploymentArtifact(
        network=net,
        trn_name=meta["trn_name"],
        base_name=meta["base_name"],
        measured_latency_ms=meta["measured_latency_ms"],
        accuracy=meta["accuracy"],
        deadline_ms=meta["deadline_ms"],
        int8_accuracy=meta.get("int8_accuracy", float("nan")),
        path=path,
        builder=meta.get("builder", ""))
