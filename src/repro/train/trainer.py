"""The training loop, head-only training and the paper's two-phase fine-tuning.

:func:`run_epochs` is the one epoch loop: pretraining, head training,
fine-tuning and the EMG classifier all train through it.

The paper's transfer recipe (§III-B3): start with all pretrained features
frozen and train the new head at learning rate 1e-3, then unfreeze the
whole network and continue for 50 epochs at 1e-4. ``fine_tune`` implements
exactly that on a full TRN; :func:`retrain` is the frozen phase on
pre-recorded GAP features (see :mod:`repro.train.features`), the one
retrain step the sweeps, Algorithm 1, NetAdapt and the examples share.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.data.synthetic import Dataset
from repro.metrics.angular import mean_angular_similarity
from repro.nn import Adam, Network
from repro.nn.losses import softmax_cross_entropy
from repro.trim.removal import DEFAULT_HEAD_HIDDEN, attach_head, build_trn

from .features import record_gap_features

__all__ = ["TrainConfig", "TrainResult", "run_epochs", "build_head_network",
           "train_head_on_features", "retrain", "fine_tune", "evaluate",
           "predict", "transplant_head"]


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of the paper's fine-tuning recipe."""

    epochs_frozen: int = 20
    epochs_full: int = 50
    lr_frozen: float = 1e-3
    lr_full: float = 1e-4
    batch_size: int = 32
    seed: int = 0


@dataclass
class TrainResult:
    """Training outcome: the trained network and its learning curve."""

    network: Network
    losses: list[float] = field(default_factory=list)
    train_accuracy: float = float("nan")
    test_accuracy: float = float("nan")


def build_head_network(in_dim: int, num_classes: int,
                       hidden: tuple[int, ...] = DEFAULT_HEAD_HIDDEN,
                       rng: np.random.Generator | int = 0) -> Network:
    """The paper's transfer head as a standalone network on GAP features:
    :func:`repro.trim.attach_head` on a bare ``(in_dim,)`` input."""
    return attach_head(Network("head", (in_dim,)).build(), num_classes,
                       hidden, rng)


def transplant_head(head: Network, trn: Network) -> Network:
    """Copy a standalone head's trained weights into a TRN's head layers.

    :func:`retrain` trains the transfer head on pre-recorded GAP
    features (:func:`train_head_on_features`); this grafts those weights
    onto the full TRN, whose head layers carry the same names (both come
    from :func:`repro.trim.attach_head`), so the TRN can run end-to-end
    inference. Returns ``trn``.
    """
    for node in head.nodes.values():
        for pname, p in node.layer.params.items():
            if node.name not in trn.nodes:
                raise KeyError(f"TRN has no layer {node.name!r}")
            target = trn.nodes[node.name].layer.params[pname]
            if target.value.shape != p.value.shape:
                raise ValueError(
                    f"head/TRN shape mismatch at {node.name}.{pname}: "
                    f"{target.value.shape} vs {p.value.shape}")
            target.value = p.value.copy()
    return trn


def run_epochs(net: Network, x: np.ndarray, y: np.ndarray, epochs: int,
               optimizer: Adam, batch_size: int,
               rng: np.random.Generator) -> list[float]:
    """The one training loop: shuffled minibatch epochs of softmax
    cross-entropy on the logits (the final softmax is bypassed for
    numerical stability). Returns each epoch's mean batch loss."""
    losses = []
    saved_output = net.output_name
    out = net.nodes[saved_output]
    if type(out.layer).__name__ == "Softmax":
        net.output_name = out.inputs[0]
    try:
        for _ in range(epochs):
            order = rng.permutation(x.shape[0])
            epoch_loss = 0.0
            batches = 0
            for start in range(0, x.shape[0], batch_size):
                idx = order[start:start + batch_size]
                net.zero_grad()
                _, loss = net.forward_backward(
                    x[idx], loss_fn=softmax_cross_entropy, y=y[idx],
                    training=True)
                optimizer.step(net.parameters())
                epoch_loss += loss
                batches += 1
            losses.append(epoch_loss / max(batches, 1))
    finally:
        net.output_name = saved_output
    return losses


def train_head_on_features(features: np.ndarray, y: np.ndarray,
                           num_classes: int, epochs: int = 60,
                           lr: float = 1e-3, batch_size: int = 64,
                           hidden: tuple[int, ...] = DEFAULT_HEAD_HIDDEN,
                           rng: np.random.Generator | int = 0) -> TrainResult:
    """Phase-1 training: fit the transfer head on frozen GAP features."""
    rng = np.random.default_rng(rng)
    head = build_head_network(features.shape[1], num_classes, hidden, rng)
    losses = run_epochs(head, features.astype(np.float32), y, epochs,
                        Adam(lr), batch_size, rng)
    result = TrainResult(head, losses)
    result.train_accuracy = mean_angular_similarity(
        head.forward(features.astype(np.float32)), y)
    return result


def retrain(net: Network, cut_nodes: list[str], train_data: Dataset,
            test_data: Dataset, epochs: int, seed: int = 0
            ) -> Iterator[tuple[Network, float]]:
    """Phase-1 retraining of ``net``'s TRN at every cut node, one at a time.

    The GAP features of every cut are recorded once per split. For each
    cut in order, a head seeded from ``seed`` is fitted on the training
    features and scored (mean angular similarity) on the test features;
    the yielded TRN (:func:`repro.trim.build_trn` at that cut) carries
    that head. Yields ``(trn, accuracy)``.
    """
    num_classes = train_data.num_classes
    feats_train = record_gap_features(net, train_data.x, cut_nodes)
    feats_test = record_gap_features(net, test_data.x, cut_nodes)
    for node in cut_nodes:
        head = train_head_on_features(feats_train[node], train_data.y,
                                      num_classes, epochs=epochs,
                                      rng=seed).network
        accuracy = mean_angular_similarity(head.forward(feats_test[node]),
                                           test_data.y)
        trn = build_trn(net, node, num_classes, rng=seed)
        yield transplant_head(head, trn), accuracy


def fine_tune(net: Network, train_data: Dataset,
              test_data: Dataset | None = None,
              config: TrainConfig = TrainConfig()) -> TrainResult:
    """The paper's two-phase fine-tuning of a full TRN.

    Phase 1 freezes every non-head layer and trains the head at
    ``lr_frozen``; phase 2 unfreezes everything and continues at
    ``lr_full``.
    """
    rng = np.random.default_rng(config.seed)
    result = TrainResult(net)

    net.freeze(lambda node: node.role != "head")
    optimizer = Adam(config.lr_frozen)
    result.losses += run_epochs(net, train_data.x, train_data.y,
                                config.epochs_frozen, optimizer,
                                config.batch_size, rng)

    net.unfreeze()
    optimizer.set_lr(config.lr_full)
    result.losses += run_epochs(net, train_data.x, train_data.y,
                                config.epochs_full, optimizer,
                                config.batch_size, rng)

    result.train_accuracy = evaluate(net, train_data)
    if test_data is not None:
        result.test_accuracy = evaluate(net, test_data)
    return result


def predict(net: Network, x: np.ndarray, batch_size: int = 128) -> np.ndarray:
    """Batched inference returning the network's probability outputs."""
    outs = [net.forward(x[s:s + batch_size])
            for s in range(0, x.shape[0], batch_size)]
    return np.concatenate(outs)


def evaluate(net: Network, data: Dataset, batch_size: int = 128) -> float:
    """Mean angular similarity of the network on a dataset."""
    return mean_angular_similarity(predict(net, data.x, batch_size), data.y)
