"""Post-training INT8 quantization (paper §III-B4).

Follows the Krishnamoorthi (2018) recipe the paper cites: weights are
quantized offline *per output feature* (symmetric, int8), activations are
quantized *per tensor* with percentile scales collected from a calibration
set (the paper uses a random 10% of the training set and picks scales that
"minimize the information loss"). Quantization is simulated
("fake quant": quantize → dequantize in float), which is the standard way to
evaluate accuracy impact; the latency benefit is modelled by
:mod:`repro.device.latency` via the ``precision="int8"`` kernel mode.
"""

from __future__ import annotations


import numpy as np

from repro.nn.graph import Network
from repro.nn.layers import WEIGHTED_TYPES, Input

__all__ = ["quantize_tensor", "calibration_split", "QuantizedNetwork"]

_QMAX = 127  # symmetric int8


def quantize_tensor(x: np.ndarray, scale: np.ndarray | float) -> np.ndarray:
    """Fake-quantize: round to int8 grid defined by ``scale``, dequantize."""
    q = np.clip(np.round(x / scale), -_QMAX, _QMAX)
    return (q * scale).astype(np.float32)


def _weight_scales(w: np.ndarray) -> np.ndarray:
    """Per-output-feature symmetric scales (last axis = output features)."""
    axes = tuple(range(w.ndim - 1))
    max_abs = np.maximum(np.abs(w).max(axis=axes), 1e-8)
    return max_abs / _QMAX


def calibration_split(n_train: int, fraction: float = 0.1,
                      rng: np.random.Generator | int = 0) -> np.ndarray:
    """Indices of the calibration subset (paper: random 10% of train)."""
    rng = np.random.default_rng(rng)
    k = max(1, int(round(n_train * fraction)))
    return rng.choice(n_train, size=k, replace=False)


class QuantizedNetwork:
    """A network executed with simulated INT8 weights and activations.

    Construction quantizes the weights of every convolution and dense layer
    per-feature and runs the calibration images through the float network to
    choose per-tensor activation scales that cover the observed dynamic
    range (max-abs calibration, which minimises clipping loss for the
    roughly symmetric activations these networks produce).
    """

    def __init__(self, net: Network, calibration_x: np.ndarray,
                 percentile: float = 99.9):
        if not net.built:
            raise RuntimeError("network must be built before quantization")
        if not 50.0 < percentile <= 100.0:
            raise ValueError("percentile must be in (50, 100]")
        self.float_net = net
        self.net = net.copy()
        self.name = f"{net.name}[int8]"
        self.percentile = percentile
        self._weight_scales: dict[str, np.ndarray] = {}
        self._act_scales: dict[str, float] = {}
        self._quantize_weights()
        self._calibrate(calibration_x)

    def _quantize_weights(self) -> None:
        for node in self.net.nodes.values():
            if isinstance(node.layer, WEIGHTED_TYPES):
                w = node.layer.params["w"]
                scales = _weight_scales(w.value)
                self._weight_scales[node.name] = scales
                w.value = quantize_tensor(w.value, scales)

    def _calibrate(self, calibration_x: np.ndarray) -> None:
        quant_nodes = [n.name for n in self.net.nodes.values()
                       if isinstance(n.layer, WEIGHTED_TYPES)]
        _, acts = self.float_net.forward(calibration_x, capture=quant_nodes)
        for name, act in acts.items():
            # percentile calibration: the paper selects "scaling factors
            # which minimize the information loss", i.e. clips the extreme
            # tail rather than stretching the grid to cover it
            bound = float(np.percentile(np.abs(act), self.percentile))
            self._act_scales[name] = max(bound, 1e-8) / _QMAX

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference with fake-quantized activations after each conv/dense.

        ``x`` is a batch ``(N,) + input_shape``; use :meth:`forward_one`
        for a single un-batched sample (mirroring
        :meth:`repro.nn.Network.forward_one`'s explicit API).
        """
        acts: dict[str, np.ndarray] = {}
        for node in self.net.nodes.values():
            if isinstance(node.layer, Input):
                acts[node.name] = x
                continue
            ins = [acts[d] for d in node.inputs]
            out = node.layer.forward(ins, training=False)
            scale = self._act_scales.get(node.name)
            if scale is not None:
                out = quantize_tensor(out, scale)
            acts[node.name] = out
        return acts[self.net.output_name]

    def forward_one(self, x: np.ndarray) -> np.ndarray:
        """Quantized inference on exactly one un-batched sample."""
        x = np.asarray(x)
        if x.shape != self.net.input_shape:
            raise ValueError(
                f"forward_one expects one sample of shape "
                f"{self.net.input_shape}, got {x.shape}")
        return self.forward(x[None])[0]
