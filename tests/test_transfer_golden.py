"""Golden digests of the transfer-learning path.

Pretraining, the EMG classifier, head training on frozen features and the
blockwise exploration all run through one epoch loop and one head builder.
These SHA-256 digests were recorded before that loop and that builder each
had a single home (when pretraining and the EMG classifier still ran
their own loops and three functions built heads), so they pin that the
merge changed no trained weight, loss, prediction or exploration record.
Floats enter as exact hex strings, arrays as their raw bytes.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, Workbench
from repro.hand import EMGClassifier, make_emg_dataset
from repro.train import PretrainConfig, pretrain, train_head_on_features
from repro.zoo import build_network


def digest(*parts) -> str:
    """SHA-256 over arrays (dtype, shape, bytes) and JSON-able values."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            sha.update(f"{arr.dtype}|{arr.shape}|".encode())
            sha.update(arr.tobytes())
        else:
            sha.update(json.dumps(part, sort_keys=True).encode())
    return sha.hexdigest()


def pretrain_digest(name: str, capsys) -> str:
    """A 2-epoch pretrain: every state-dict entry and the verbose log."""
    net = build_network(name).build(0)
    pretrain(net, PretrainConfig(n_images=24, epochs=2, batch_size=8),
             verbose=True)
    log = capsys.readouterr().out
    state = net.state_dict()
    return digest(log, *[part for key in sorted(state)
                         for part in (key, state[key])])


def emg_digest() -> str:
    """Predictions of a fitted EMG classifier on held-out windows."""
    x, y = make_emg_dataset(120, rng=0)
    xt, _ = make_emg_dataset(40, rng=1)
    clf = EMGClassifier(rng=0).fit(x, y, epochs=6)
    return digest(clf.predict(x), clf.predict(xt))


def head_digest() -> str:
    """A head fitted on frozen features: weights in layer order (names
    left out), per-epoch losses and the training accuracy."""
    rng = np.random.default_rng(0)
    features = np.abs(rng.normal(size=(48, 12))).astype(np.float32)
    y = rng.dirichlet(np.ones(5), size=48).astype(np.float32)
    result = train_head_on_features(features, y, 5, epochs=5,
                                    batch_size=16, rng=7)
    weights = [p.value for _, p in
               result.network.parameters(trainable_only=False)]
    return digest([float(loss).hex() for loss in result.losses],
                  float(result.train_accuracy).hex(), *weights)


def exploration_digest(cache_dir: str) -> str:
    """Every record of a one-network blockwise exploration, original
    included, with floats as hex."""
    wb = Workbench(
        ExperimentConfig(networks=("mobilenet_v1_0.25",), hands_images=60,
                         head_epochs=8, deadline_ms=0.35),
        cache_dir=cache_dir,
        pretrain_config=PretrainConfig(n_images=40, epochs=1,
                                       batch_size=16))
    rows = [{k: float(v).hex() if isinstance(v, float) else v
             for k, v in asdict(r).items()}
            for r in wb.exploration().records]
    return digest(rows)


PRETRAIN_SHA256 = {
    "mobilenet_v1_0.25":
        "c700a18a880bd3d3322633f3386720b60ff599c1ff9f828e162dc4218d8a12e9",
    "resnet50":
        "e792542c01d49c219069f0afac3cf04c161bc7b7d931d31bc06f6f17d366db7c",
}
EMG_SHA256 = (
    "ce02a3d977936e1ada24da81497bbc361624c15222305d8092da5767cf03e1dc")
HEAD_SHA256 = (
    "7da82a7467fd63ff7240fa0a2e0a093212d08855bf7fe10f47dbccd8576482bf")
EXPLORATION_SHA256 = (
    "f9db06746d0dbe83faacd9189256a1973a1e36d0d89df60a8269a2171c5e27d3")


class TestTransferGolden:
    @pytest.mark.parametrize("name", list(PRETRAIN_SHA256))
    def test_pretrain_is_pinned(self, name, capsys):
        assert pretrain_digest(name, capsys) == PRETRAIN_SHA256[name]

    def test_emg_classifier_is_pinned(self):
        assert emg_digest() == EMG_SHA256

    def test_head_on_features_is_pinned(self):
        assert head_digest() == HEAD_SHA256

    def test_exploration_records_are_pinned(self, tmp_path):
        assert exploration_digest(str(tmp_path)) == EXPLORATION_SHA256
