"""Tests for the related-work extensions: BranchyNet and NetAdapt."""

import hashlib
import json

import numpy as np
import pytest

from repro.data import make_hands_dataset
from repro.device.k20m import k20m
from repro.device.latency import network_latency
from repro.extensions import NetAdaptConfig, build_branchy, run_netadapt
from repro.extensions.branchynet import BranchyNetwork
from repro.zoo import build_mobilenet_v1

from test_train import make_tiny_net32


@pytest.fixture(scope="module")
def hands():
    return make_hands_dataset(80, seed=5).split(0.75, rng=0)


@pytest.fixture(scope="module")
def tiny32():
    return make_tiny_net32()


class TestBranchyNetwork:
    @pytest.fixture(scope="class")
    def branchy(self, tiny32, tiny_device_cls, hands):
        train, _ = hands
        return build_branchy(tiny32, tiny_device_cls, train.x, train.y,
                             exit_blocks=[0, 1], head_epochs=10)

    @pytest.fixture(scope="class")
    def tiny_device_cls(self):
        from repro.device.spec import DeviceSpec

        return DeviceSpec("t", 10, 1, 5, 1e4)

    def test_exit_count_and_latency_ordering(self, branchy):
        assert len(branchy.exits) == 2
        # later exits cost more
        assert (branchy.exits[0].exit_latency_ms
                < branchy.exits[1].exit_latency_ms)

    def test_route_partitions_samples(self, branchy, hands):
        _, test = hands
        preds, chosen = branchy.route(test.x, entropy_threshold=1.55)
        assert preds.shape == (len(test), 5)
        assert set(np.unique(chosen)) <= {0, 1}
        np.testing.assert_allclose(preds.sum(axis=1), 1.0, rtol=1e-4)

    def test_zero_threshold_uses_last_exit(self, branchy, hands):
        _, test = hands
        _, chosen = branchy.route(test.x, entropy_threshold=0.0)
        assert (chosen == 1).all()

    def test_huge_threshold_uses_first_exit(self, branchy, hands):
        _, test = hands
        _, chosen = branchy.route(test.x, entropy_threshold=100.0)
        assert (chosen == 0).all()

    def test_latency_monotone_in_threshold(self, branchy, hands):
        _, test = hands
        curve = branchy.tradeoff_curve(test.x, test.y,
                                       np.array([0.0, 1.55, 100.0]))
        lats = [row[2] for row in curve]
        assert lats[0] >= lats[1] >= lats[2]

    def test_empty_exits_rejected(self, tiny32):
        with pytest.raises(ValueError):
            BranchyNetwork(tiny32, [])

    def test_exit_latency_is_trn_latency(self, branchy, tiny32,
                                         tiny_device_cls):
        """prefix + head latency must equal the matching TRN's latency."""
        from repro.trim import build_trn

        for e in branchy.exits:
            trn = build_trn(tiny32, e.node, 5)
            expected = network_latency(trn, tiny_device_cls).total_ms
            assert e.exit_latency_ms == pytest.approx(expected, rel=1e-6)


def netadapt_outcome(result) -> dict:
    """Everything a NetAdapt run decides, floats as exact hex strings."""
    state = result.network.state_dict()
    sha = hashlib.sha256()
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        sha.update(f"{key}|{arr.dtype}|{arr.shape}|".encode())
        sha.update(arr.tobytes())
    return {
        "history": [[r.iteration, r.pruned_layer, r.channels_left,
                     float(r.latency_ms).hex(),
                     float(r.proxy_accuracy).hex(), r.candidates_evaluated]
                    for r in result.history],
        "accuracy": float(result.accuracy).hex(),
        "latency_ms": float(result.latency_ms).hex(),
        "candidates_trained": result.candidates_trained,
        "train_hours": float(result.train_hours).hex(),
        "name": result.network.name,
        "state_sha256": sha.hexdigest(),
    }


#: run -> ((budget, step) as fractions of the start latency, short and
#: final head epochs, pruned layer per iteration, candidates trained,
#: SHA-256 of the sorted-JSON :func:`netadapt_outcome`). Every outcome
#: field but ``state_sha256`` was recorded when each layer's removal count
#: came from a linear scan, so the digests also pin that run_netadapt's
#: bisection picks what that scan picks. ``state_sha256`` covers the head
#: of the final fine-tune, which ``result.network`` carries.
PINNED_RUNS = {
    "reaches_budget": (
        (0.9, 0.04, 4, 6),
        ["block2_pw_conv", "block1_pw_conv", "block12_pw_conv"], 42,
        "0d2a64f7819e549f506d118f3e5506b918b9c91efccd8ff057fbe99f947ef584"),
    "prunes_stem": (
        (0.85, 0.04, 2, 2),
        ["block2_pw_conv", "block1_pw_conv", "block12_pw_conv",
         "block6_pw_conv", "stem_conv"], 67,
        "9a4a7d412bd9d4dd2e120ecd4151f878946042ecfc200e1025ceb274bbd725e2"),
}


class TestRunNetAdapt:
    @pytest.fixture(scope="class")
    def setup(self, hands):
        from repro.device.spec import DeviceSpec
        from repro.trim import block_boundaries, build_trn

        device = DeviceSpec("t", 10, 1, 5, 1e4, weight_cache_factor=0.1)
        base = build_mobilenet_v1(0.5, input_shape=(16, 16, 3),
                                  num_classes=20)
        base.build(0)
        cut0 = block_boundaries(base)[-1].output_node
        trn = build_trn(base, cut0, 5)
        return trn, device, hands

    @pytest.fixture(scope="class")
    def pinned_run(self, setup):
        """``name -> (budget, result)`` of a :data:`PINNED_RUNS` entry,
        each run once per class."""
        trn, device, (train, test) = setup
        start = network_latency(trn, device).total_ms
        done = {}

        def run(name):
            if name not in done:
                budget, step, short, final = PINNED_RUNS[name][0]
                done[name] = start * budget, run_netadapt(
                    trn, start * budget, device, train.x, train.y, test.x,
                    test.y, NetAdaptConfig(step_ms=start * step,
                                           head_epochs_short=short,
                                           head_epochs_final=final),
                    cost_model=k20m())
            return done[name]
        return run

    def test_reaches_budget(self, pinned_run):
        budget, result = pinned_run("reaches_budget")
        assert result.latency_ms <= budget
        assert result.history
        assert result.candidates_trained >= len(result.history)
        assert 0 < result.accuracy <= 1
        assert result.train_hours > 0

    @pytest.mark.parametrize("name", list(PINNED_RUNS))
    def test_outcome_is_pinned(self, pinned_run, name):
        _, layers, candidates, digest = PINNED_RUNS[name]
        outcome = netadapt_outcome(pinned_run(name)[1])
        assert [row[1] for row in outcome["history"]] == layers
        assert outcome["candidates_trained"] == candidates
        text = json.dumps(outcome, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text

    def test_network_scores_reported_accuracy(self, setup, pinned_run):
        """The returned network carries the head the final fine-tune
        scored, so its own forward pass reproduces ``result.accuracy``."""
        from repro.train import evaluate

        _, _, (_, test) = setup
        _, result = pinned_run("reaches_budget")
        assert evaluate(result.network, test) == pytest.approx(
            result.accuracy, abs=1e-6)

    def test_original_untouched(self, setup):
        trn, device, (train, test) = setup
        before = trn.total_params()
        start = network_latency(trn, device).total_ms
        run_netadapt(trn, start * 0.95, device, train.x, train.y,
                     test.x, test.y,
                     NetAdaptConfig(step_ms=start * 0.04,
                                    head_epochs_short=3,
                                    head_epochs_final=3))
        assert trn.total_params() == before

    def test_impossible_budget_raises(self, setup):
        trn, device, (train, test) = setup
        with pytest.raises(RuntimeError):
            run_netadapt(trn, 1e-6, device, train.x, train.y, test.x,
                         test.y,
                         NetAdaptConfig(step_ms=0.01, head_epochs_short=2,
                                        head_epochs_final=2))
