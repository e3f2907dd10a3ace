"""Synthetic EMG signals and the EMG intent classifier.

The robotic hand (paper §III-A) fuses a camera-based classifier with an EMG
classifier driven by a Myo armband (8 surface-EMG channels on the forearm).
Neither the armband nor recorded EMG is available, so this module generates
synthetic 8-channel EMG with the standard structure of such data — per-grasp
muscle-activation envelopes modulating band-limited noise — and classifies
it with the classic time-domain feature set (mean absolute value, zero
crossings, waveform length, slope-sign changes) feeding a small dense
network. The paper's observation that EMG alone "lacks robustness and
yields poor results" is reproduced by construction: activation patterns of
different grasps overlap substantially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import Adam, Network
from repro.train.trainer import run_epochs
from repro.trim.removal import attach_head

from .grasps import GRASP_TYPES

__all__ = ["EMG_CHANNELS", "EMGWindow", "synth_emg_window", "make_emg_dataset",
           "emg_features", "EMGClassifier"]

#: Myo armband channel count.
EMG_CHANNELS = 8

#: Per-grasp muscle synergy: mean activation of each channel in [0, 1].
#: Rows overlap deliberately — EMG alone cannot separate the grasps well.
_SYNERGY = np.array([
    [0.15, 0.2, 0.15, 0.2, 0.15, 0.2, 0.15, 0.2],   # open palm (low tone)
    [0.7, 0.75, 0.6, 0.65, 0.5, 0.55, 0.6, 0.65],   # medium wrap
    [0.65, 0.7, 0.65, 0.6, 0.55, 0.5, 0.65, 0.6],   # power sphere
    [0.4, 0.35, 0.45, 0.4, 0.35, 0.4, 0.35, 0.45],  # parallel extension
    [0.5, 0.65, 0.3, 0.25, 0.2, 0.25, 0.55, 0.6],   # palmar pinch
])


@dataclass(frozen=True)
class EMGWindow:
    """One analysis window of raw EMG: ``signal`` is (samples, channels)."""

    signal: np.ndarray
    grasp_index: int


def synth_emg_window(grasp_index: int, rng: np.random.Generator,
                     samples: int = 64, noise: float = 0.35) -> EMGWindow:
    """Generate one synthetic EMG window for a grasp.

    The signal is zero-mean band-limited noise whose per-channel envelope
    follows the grasp's muscle synergy with multiplicative trial-to-trial
    variability.
    """
    if not 0 <= grasp_index < len(GRASP_TYPES):
        raise ValueError(f"grasp_index out of range: {grasp_index}")
    envelope = _SYNERGY[grasp_index] * rng.uniform(0.7, 1.3, EMG_CHANNELS)
    raw = rng.normal(size=(samples + 2, EMG_CHANNELS))
    smooth = (raw[:-2] + raw[1:-1] + raw[2:]) / 3.0  # crude band-limiting
    signal = smooth * envelope + noise * rng.normal(
        size=(samples, EMG_CHANNELS)) * 0.2
    return EMGWindow(signal.astype(np.float32), grasp_index)


def emg_features(signal: np.ndarray) -> np.ndarray:
    """Classic time-domain EMG features, concatenated across channels.

    Per channel: mean absolute value (MAV), zero-crossing count (ZC),
    waveform length (WL) and slope-sign changes (SSC) — 4 × 8 = 32 features.
    """
    mav = np.abs(signal).mean(axis=0)
    zc = (np.diff(np.signbit(signal), axis=0) != 0).sum(axis=0) / len(signal)
    wl = np.abs(np.diff(signal, axis=0)).sum(axis=0) / len(signal)
    d = np.diff(signal, axis=0)
    ssc = (np.diff(np.signbit(d), axis=0) != 0).sum(axis=0) / len(signal)
    return np.concatenate([mav, zc, wl, ssc]).astype(np.float32)


def make_emg_dataset(n: int, rng: np.random.Generator | int = 0,
                     samples: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Balanced EMG feature dataset: ``(features (n, 32), one-hot labels)``."""
    rng = np.random.default_rng(rng)
    k = len(GRASP_TYPES)
    x = np.empty((n, 4 * EMG_CHANNELS), dtype=np.float32)
    y = np.zeros((n, k), dtype=np.float32)
    for i in range(n):
        g = i % k
        window = synth_emg_window(g, rng, samples)
        x[i] = emg_features(window.signal)
        y[i, g] = 1.0
    order = rng.permutation(n)
    return x[order], y[order]


class EMGClassifier:
    """A small dense network over EMG features, outputting grasp probabilities."""

    def __init__(self, hidden: int = 24, rng: np.random.Generator | int = 0):
        self.net = attach_head(
            Network("emg_classifier", (4 * EMG_CHANNELS,)).build(),
            len(GRASP_TYPES), hidden=(hidden,), rng=rng)

    def fit(self, x: np.ndarray, y: np.ndarray, epochs: int = 40,
            lr: float = 1e-2, batch_size: int = 32,
            rng: np.random.Generator | int = 1) -> "EMGClassifier":
        """Train on EMG features with one-hot grasp labels."""
        run_epochs(self.net, x, y, epochs, Adam(lr), batch_size,
                   np.random.default_rng(rng))
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Grasp-probability distributions for EMG feature rows."""
        return self.net.forward(x)
