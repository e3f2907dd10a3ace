"""Tests for the hand's actuation model."""

import numpy as np
import pytest

from repro.hand.actuation import ActuationModel
from repro.hand.grasps import joint_targets


class TestActuationModel:
    def _decision(self, grasp=1):
        d = np.zeros(5)
        d[grasp] = 1.0
        return d

    def test_converges_given_enough_time(self):
        model = ActuationModel()
        outcome = model.drive(self._decision(), available_ms=1000.0)
        assert outcome.completed
        assert outcome.posture_error < 0.06
        assert outcome.settle_time_ms < 1000.0

    def test_incomplete_when_rushed(self):
        model = ActuationModel()
        outcome = model.drive(self._decision(), available_ms=30.0)
        assert not outcome.completed
        assert outcome.posture_error > 0.1

    def test_open_palm_is_instant_from_open(self):
        model = ActuationModel()
        outcome = model.drive(self._decision(0), available_ms=50.0)
        assert outcome.completed  # already at the open posture
        assert outcome.posture_error < 0.05

    def test_rate_limit_bounds_progress(self):
        slow = ActuationModel(max_rate_per_ms=0.001)
        fast = ActuationModel(max_rate_per_ms=0.01)
        d = self._decision(1)
        assert (slow.required_time_ms(d) > fast.required_time_ms(d))

    def test_required_time_matches_drive(self):
        model = ActuationModel()
        d = self._decision(2)
        t = model.required_time_ms(d)
        outcome = model.drive(d, available_ms=t + 1)
        assert outcome.completed

    def test_mixture_decision_targets_mixture(self):
        model = ActuationModel()
        d = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
        outcome = model.drive(d, available_ms=1500.0)
        np.testing.assert_allclose(outcome.target_joints,
                                   joint_targets(d))

    def test_validates_inputs(self):
        model = ActuationModel()
        with pytest.raises(ValueError):
            model.drive(np.ones(3), 100.0)
        with pytest.raises(ValueError):
            model.drive(self._decision(), -1.0)
        with pytest.raises(ValueError):
            ActuationModel(tau_ms=0.0)
