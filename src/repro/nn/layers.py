"""Layer implementations for the NumPy DNN framework.

Every layer follows the same contract:

- ``forward(inputs, training=False)`` takes a *list* of NHWC (or flat) arrays,
  one per graph predecessor, and returns a single output array. Single-input
  layers receive a one-element list.
- ``backward(grad)`` takes the gradient with respect to the output and
  returns a list of gradients, one per input, accumulating parameter
  gradients in ``Parameter.grad`` along the way (unless the layer is frozen).
- ``out_shape(in_shapes)`` computes the output shape (without the batch
  dimension) from the input shapes, so that networks can be shape-checked
  and their cost modelled without running data through them.
- ``flops(in_shapes)`` counts multiply-accumulate work (2 ops per MAC) for
  the device latency model and the analytical estimator features.
- ``config()`` returns the constructor arguments, so ``type(layer)(**
  layer.config())`` rebuilds an unbuilt copy; :mod:`repro.nn.serialize`
  persists exactly this dictionary.

Layers are intentionally stateful between ``forward`` and ``backward`` (they
cache activations); a layer instance therefore belongs to exactly one
network.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .initializers import glorot_uniform, he_normal

__all__ = [
    "Parameter",
    "Layer",
    "Input",
    "Conv2D",
    "DepthwiseConv2D",
    "Dense",
    "BatchNorm",
    "ReLU",
    "ReLU6",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool",
    "Flatten",
    "Dropout",
    "Softmax",
    "Add",
    "Concat",
    "WEIGHTED_TYPES",
    "state_writes",
]

Shape = tuple[int, ...]

_state_writes = 0


def state_writes() -> int:
    """How many writes a compiled plan snapshots this process has made.

    Every ``Parameter.value`` assignment and every batch-norm running
    statistics update adds one, on any network. A plan whose last
    confirmed check saw the current count has seen no such write since,
    so it need not re-walk its network (see ``CompiledNetwork.valid``).
    """
    return _state_writes


def _count_write() -> None:
    global _state_writes
    _state_writes += 1


class Parameter:
    """A trainable tensor together with its accumulated gradient.

    Assignments through :attr:`value` bump :attr:`version`, which the
    compiled forward path (:mod:`repro.nn.compile`) uses to detect weight
    mutation and invalidate cached execution plans, and the process-wide
    :func:`state_writes` count, which tells a plan whether any weight
    anywhere moved since its last check. Augmented updates (``p.value -=
    g``) go through the setter too; only raw in-place writes into the
    array (``p.value[...] = x``) escape both.

    The gradient buffer is allocated on first read of :attr:`grad`, and a
    copy starts without one (every training step zeroes it first), so a
    network that never trains carries only its weights, even when it was
    cut from one that did.
    """

    def __init__(self, value: np.ndarray):
        self.version = 0
        self.value = np.asarray(value, dtype=np.float32)
        self._grad: np.ndarray | None = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_grad": None}

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self._value)
        return self._grad

    @grad.setter
    def grad(self, g: np.ndarray) -> None:
        self._grad = g

    @property
    def value(self) -> np.ndarray:
        return self._value

    @value.setter
    def value(self, v: np.ndarray) -> None:
        self._value = np.asarray(v, dtype=np.float32)
        self.version += 1
        _count_write()

    @property
    def size(self) -> int:
        """Number of scalar weights in this parameter."""
        return int(self.value.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero (if one was allocated)."""
        if self._grad is not None:
            self._grad.fill(0.0)


class Layer:
    """Base class for all layers.

    Attributes
    ----------
    params:
        Mapping from parameter name to :class:`Parameter`. Empty for
        parameter-free layers.
    frozen:
        When ``True``, ``backward`` still propagates input gradients but does
        not accumulate parameter gradients (transfer-learning phase 1).
    """

    def __init__(self) -> None:
        self.params: dict[str, Parameter] = {}
        self.frozen = False
        self.built = False

    # -- construction ------------------------------------------------------
    def build(self, in_shapes: list[Shape], rng: np.random.Generator) -> None:
        """Allocate parameters for the given input shapes (idempotent)."""
        self.built = True

    # -- execution ---------------------------------------------------------
    def forward(self, inputs: list[np.ndarray],
                training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> list[np.ndarray]:
        raise NotImplementedError

    # -- static analysis ---------------------------------------------------
    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        """Output shape (batch dimension excluded)."""
        raise NotImplementedError

    def flops(self, in_shapes: list[Shape]) -> int:
        """Floating-point operations for a single example."""
        return 0

    def param_count(self) -> int:
        """Total number of trainable scalars."""
        return sum(p.size for p in self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def config(self) -> dict:
        """Constructor arguments (JSON-serialisable); none by default."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class Input(Layer):
    """Placeholder layer holding the network input shape."""

    def __init__(self, shape: Shape):
        super().__init__()
        self.shape = tuple(shape)

    def config(self) -> dict:
        return {"shape": list(self.shape)}

    def forward(self, inputs: list[np.ndarray],
                training: bool = False) -> np.ndarray:
        return inputs[0]

    def backward(self, grad: np.ndarray) -> list[np.ndarray]:
        return [grad]

    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        return self.shape


class Conv2D(Layer):
    """2-D convolution with optional bias, SAME or VALID padding.

    Weight layout is ``(kh, kw, in_channels, filters)``.
    """

    def __init__(self, filters: int, kernel: int | tuple[int, int],
                 stride: int = 1, padding: str = "same",
                 use_bias: bool = True):
        super().__init__()
        if padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {padding!r}")
        self.filters = int(filters)
        self.kernel = (kernel, kernel) if isinstance(kernel, int) else tuple(kernel)
        self.stride = int(stride)
        self.padding = padding
        self.use_bias = use_bias
        self._cache: tuple | None = None

    def config(self) -> dict:
        return {"filters": self.filters, "kernel": list(self.kernel),
                "stride": self.stride, "padding": self.padding,
                "use_bias": self.use_bias}

    def build(self, in_shapes: list[Shape], rng: np.random.Generator) -> None:
        if self.built:
            return
        c_in = in_shapes[0][-1]
        kh, kw = self.kernel
        fan_in = kh * kw * c_in
        self.params["w"] = Parameter(
            he_normal((kh, kw, c_in, self.filters), fan_in, rng))
        if self.use_bias:
            self.params["b"] = Parameter(np.zeros(self.filters))
        self.built = True

    def _pad(self, x: np.ndarray) -> np.ndarray:
        if self.padding == "same":
            return F.pad_same(x, self.kernel, (self.stride, self.stride))
        return x

    def forward(self, inputs: list[np.ndarray],
                training: bool = False) -> np.ndarray:
        x = inputs[0]
        kh, kw = self.kernel
        xp = self._pad(x)
        cols = F.im2col(xp, kh, kw, self.stride)
        w = self.params["w"].value
        out = cols @ w.reshape(-1, self.filters)
        if self.use_bias:
            out = out + self.params["b"].value
        self._cache = (x.shape, xp.shape, cols)
        return out

    def backward(self, grad: np.ndarray) -> list[np.ndarray]:
        x_shape, xp_shape, cols = self._cache
        kh, kw = self.kernel
        n, oh, ow, _ = grad.shape
        g2 = grad.reshape(-1, self.filters)
        if not self.frozen:
            w = self.params["w"]
            w.grad += (cols.reshape(-1, cols.shape[-1]).T @ g2).reshape(w.value.shape)
            if self.use_bias:
                self.params["b"].grad += g2.sum(axis=0)
        wflat = self.params["w"].value.reshape(-1, self.filters)
        dcols = g2 @ wflat.T
        dxp = F.col2im(dcols.reshape(n, oh, ow, -1), xp_shape, kh, kw, self.stride)
        # strip SAME padding
        ph0 = (xp_shape[1] - x_shape[1])
        pw0 = (xp_shape[2] - x_shape[2])
        if ph0 or pw0:
            hb, _ = F.same_padding(x_shape[1], kh, self.stride)
            wb, _ = F.same_padding(x_shape[2], kw, self.stride)
            dxp = dxp[:, hb:hb + x_shape[1], wb:wb + x_shape[2], :]
        return [dxp]

    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        h, w, _ = in_shapes[0]
        kh, kw = self.kernel
        if self.padding == "same":
            oh = -(-h // self.stride)
            ow = -(-w // self.stride)
        else:
            oh = F.conv_output_size(h, kh, self.stride, 0)
            ow = F.conv_output_size(w, kw, self.stride, 0)
        return (oh, ow, self.filters)

    def flops(self, in_shapes: list[Shape]) -> int:
        oh, ow, f = self.out_shape(in_shapes)
        kh, kw = self.kernel
        c_in = in_shapes[0][-1]
        macs = oh * ow * f * kh * kw * c_in
        return 2 * macs + (oh * ow * f if self.use_bias else 0)


class DepthwiseConv2D(Layer):
    """Depthwise 2-D convolution (one filter per input channel).

    Weight layout is ``(kh, kw, channels)``; ``depth_multiplier`` other than 1
    is not needed by the networks in the zoo and is not supported.
    """

    def __init__(self, kernel: int | tuple[int, int], stride: int = 1,
                 padding: str = "same", use_bias: bool = False):
        super().__init__()
        if padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {padding!r}")
        self.kernel = (kernel, kernel) if isinstance(kernel, int) else tuple(kernel)
        self.stride = int(stride)
        self.padding = padding
        self.use_bias = use_bias
        self._cache: tuple | None = None

    def config(self) -> dict:
        return {"kernel": list(self.kernel), "stride": self.stride,
                "padding": self.padding, "use_bias": self.use_bias}

    def build(self, in_shapes: list[Shape], rng: np.random.Generator) -> None:
        if self.built:
            return
        c = in_shapes[0][-1]
        kh, kw = self.kernel
        self.params["w"] = Parameter(he_normal((kh, kw, c), kh * kw, rng))
        if self.use_bias:
            self.params["b"] = Parameter(np.zeros(c))
        self.built = True

    def _pad(self, x: np.ndarray) -> np.ndarray:
        if self.padding == "same":
            return F.pad_same(x, self.kernel, (self.stride, self.stride))
        return x

    def forward(self, inputs: list[np.ndarray],
                training: bool = False) -> np.ndarray:
        x = inputs[0]
        kh, kw = self.kernel
        xp = self._pad(x)
        cols = F.im2col(xp, kh, kw, self.stride)  # (N,OH,OW,kh*kw*C)
        n, oh, ow, _ = cols.shape
        c = x.shape[-1]
        cols = cols.reshape(n, oh, ow, kh * kw, c)
        w = self.params["w"].value.reshape(kh * kw, c)
        out = np.einsum("nhwkc,kc->nhwc", cols, w)
        if self.use_bias:
            out = out + self.params["b"].value
        self._cache = (x.shape, xp.shape, cols)
        return out

    def backward(self, grad: np.ndarray) -> list[np.ndarray]:
        x_shape, xp_shape, cols = self._cache
        kh, kw = self.kernel
        n, oh, ow, _, c = cols.shape
        if not self.frozen:
            wgrad = np.einsum("nhwkc,nhwc->kc", cols, grad)
            self.params["w"].grad += wgrad.reshape(kh, kw, c)
            if self.use_bias:
                self.params["b"].grad += grad.sum(axis=(0, 1, 2))
        w = self.params["w"].value.reshape(kh * kw, c)
        dcols = np.einsum("nhwc,kc->nhwkc", grad, w)
        dxp = F.col2im(dcols.reshape(n, oh, ow, -1), xp_shape, kh, kw, self.stride)
        if xp_shape != x_shape:
            hb, _ = F.same_padding(x_shape[1], kh, self.stride)
            wb, _ = F.same_padding(x_shape[2], kw, self.stride)
            dxp = dxp[:, hb:hb + x_shape[1], wb:wb + x_shape[2], :]
        return [dxp]

    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        h, w, c = in_shapes[0]
        kh, kw = self.kernel
        if self.padding == "same":
            return (-(-h // self.stride), -(-w // self.stride), c)
        return (F.conv_output_size(h, kh, self.stride, 0),
                F.conv_output_size(w, kw, self.stride, 0), c)

    def flops(self, in_shapes: list[Shape]) -> int:
        oh, ow, c = self.out_shape(in_shapes)
        kh, kw = self.kernel
        macs = oh * ow * c * kh * kw
        return 2 * macs + (oh * ow * c if self.use_bias else 0)


class Dense(Layer):
    """Fully connected layer over the last axis. Weight layout ``(in, out)``."""

    def __init__(self, units: int, use_bias: bool = True):
        super().__init__()
        self.units = int(units)
        self.use_bias = use_bias
        self._cache: np.ndarray | None = None

    def config(self) -> dict:
        return {"units": self.units, "use_bias": self.use_bias}

    def build(self, in_shapes: list[Shape], rng: np.random.Generator) -> None:
        if self.built:
            return
        d = in_shapes[0][-1]
        self.params["w"] = Parameter(glorot_uniform((d, self.units), d, self.units, rng))
        if self.use_bias:
            self.params["b"] = Parameter(np.zeros(self.units))
        self.built = True

    def forward(self, inputs: list[np.ndarray],
                training: bool = False) -> np.ndarray:
        x = inputs[0]
        self._cache = x
        out = x @ self.params["w"].value
        if self.use_bias:
            out = out + self.params["b"].value
        return out

    def backward(self, grad: np.ndarray) -> list[np.ndarray]:
        x = self._cache
        if not self.frozen:
            g2 = grad.reshape(-1, self.units)
            x2 = x.reshape(-1, x.shape[-1])
            self.params["w"].grad += x2.T @ g2
            if self.use_bias:
                self.params["b"].grad += g2.sum(axis=0)
        return [grad @ self.params["w"].value.T]

    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        return in_shapes[0][:-1] + (self.units,)

    def flops(self, in_shapes: list[Shape]) -> int:
        lead = int(np.prod(in_shapes[0][:-1])) if len(in_shapes[0]) > 1 else 1
        macs = lead * in_shapes[0][-1] * self.units
        return 2 * macs + (lead * self.units if self.use_bias else 0)


class BatchNorm(Layer):
    """Batch normalization over the channel (last) axis.

    Tracks running statistics with exponential moving averages for inference.
    """

    def __init__(self, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.running_mean: np.ndarray | None = None
        self.running_var: np.ndarray | None = None
        #: bumped whenever the running statistics move (plan invalidation)
        self.stats_version = 0
        self._cache: tuple | None = None

    def config(self) -> dict:
        return {"momentum": self.momentum, "eps": self.eps}

    def build(self, in_shapes: list[Shape], rng: np.random.Generator) -> None:
        if self.built:
            return
        c = in_shapes[0][-1]
        self.params["gamma"] = Parameter(np.ones(c))
        self.params["beta"] = Parameter(np.zeros(c))
        self.running_mean = np.zeros(c, dtype=np.float32)
        self.running_var = np.ones(c, dtype=np.float32)
        self.built = True

    def forward(self, inputs: list[np.ndarray],
                training: bool = False) -> np.ndarray:
        x = inputs[0]
        axes = tuple(range(x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.running_mean = m * self.running_mean + (1 - m) * mean
            self.running_var = m * self.running_var + (1 - m) * var
            self.stats_version += 1
            _count_write()
        else:
            mean, var = self.running_mean, self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv
        self._cache = (xhat, inv, x.shape, axes, training)
        return self.params["gamma"].value * xhat + self.params["beta"].value

    def backward(self, grad: np.ndarray) -> list[np.ndarray]:
        xhat, inv, shape, axes, training = self._cache
        gamma = self.params["gamma"].value
        if not self.frozen:
            self.params["gamma"].grad += (grad * xhat).sum(axis=axes)
            self.params["beta"].grad += grad.sum(axis=axes)
        if not training:
            return [grad * gamma * inv]
        m = float(np.prod([shape[a] for a in axes]))
        dxhat = grad * gamma
        dx = (inv / m) * (m * dxhat - dxhat.sum(axis=axes)
                          - xhat * (dxhat * xhat).sum(axis=axes))
        return [dx]

    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        return in_shapes[0]

    def flops(self, in_shapes: list[Shape]) -> int:
        return 2 * int(np.prod(in_shapes[0]))


class _Activation(Layer):
    """Shared machinery for element-wise activations."""

    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        return in_shapes[0]

    def flops(self, in_shapes: list[Shape]) -> int:
        return int(np.prod(in_shapes[0]))


class ReLU(_Activation):
    """Rectified linear unit."""

    def forward(self, inputs, training=False):
        self._x = inputs[0]
        return F.relu(inputs[0])

    def backward(self, grad):
        return [F.relu_grad(self._x, grad)]


class ReLU6(_Activation):
    """ReLU clipped at 6 (MobileNet family)."""

    def forward(self, inputs, training=False):
        self._x = inputs[0]
        return F.relu6(inputs[0])

    def backward(self, grad):
        return [F.relu6_grad(self._x, grad)]


class _Pool2D(Layer):
    """Shared geometry for spatial pooling layers."""

    def __init__(self, pool: int = 2, stride: int | None = None,
                 padding: str = "valid"):
        super().__init__()
        self.pool = int(pool)
        self.stride = int(stride) if stride is not None else int(pool)
        if padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {padding!r}")
        self.padding = padding

    def config(self) -> dict:
        return {"pool": self.pool, "stride": self.stride,
                "padding": self.padding}

    def _pad(self, x: np.ndarray, fill: float) -> tuple[np.ndarray, tuple[int, int]]:
        if self.padding == "valid":
            return x, (0, 0)
        ph = F.same_padding(x.shape[1], self.pool, self.stride)
        pw = F.same_padding(x.shape[2], self.pool, self.stride)
        if ph == (0, 0) and pw == (0, 0):
            return x, (0, 0)
        xp = np.pad(x, ((0, 0), ph, pw, (0, 0)), constant_values=fill)
        return xp, (ph[0], pw[0])

    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        h, w, c = in_shapes[0]
        if self.padding == "same":
            return (-(-h // self.stride), -(-w // self.stride), c)
        return (F.conv_output_size(h, self.pool, self.stride, 0),
                F.conv_output_size(w, self.pool, self.stride, 0), c)

    def flops(self, in_shapes: list[Shape]) -> int:
        oh, ow, c = self.out_shape(in_shapes)
        return oh * ow * c * self.pool * self.pool


class MaxPool2D(_Pool2D):
    """Max pooling."""

    def forward(self, inputs, training=False):
        x = inputs[0]
        xp, offsets = self._pad(x, fill=-np.inf)
        cols = F.im2col(xp, self.pool, self.pool, self.stride)
        n, oh, ow, _ = cols.shape
        c = x.shape[-1]
        cols = cols.reshape(n, oh, ow, self.pool * self.pool, c)
        self._argmax = cols.argmax(axis=3)
        self._geom = (x.shape, xp.shape, offsets)
        return cols.max(axis=3)

    def backward(self, grad):
        x_shape, xp_shape, offsets = self._geom
        n, oh, ow, c = grad.shape
        k2 = self.pool * self.pool
        dcols = np.zeros((n, oh, ow, k2, c), dtype=grad.dtype)
        idx = self._argmax
        n_i, oh_i, ow_i, c_i = np.ogrid[:n, :oh, :ow, :c]
        dcols[n_i, oh_i, ow_i, idx, c_i] = grad
        dxp = F.col2im(dcols.reshape(n, oh, ow, -1), xp_shape,
                       self.pool, self.pool, self.stride)
        hb, wb = offsets
        return [dxp[:, hb:hb + x_shape[1], wb:wb + x_shape[2], :]]


class AvgPool2D(_Pool2D):
    """Average pooling."""

    def forward(self, inputs, training=False):
        x = inputs[0]
        xp, offsets = self._pad(x, fill=0.0)
        cols = F.im2col(xp, self.pool, self.pool, self.stride)
        n, oh, ow, _ = cols.shape
        c = x.shape[-1]
        self._geom = (x.shape, xp.shape, offsets)
        return cols.reshape(n, oh, ow, self.pool * self.pool, c).mean(axis=3)

    def backward(self, grad):
        x_shape, xp_shape, offsets = self._geom
        n, oh, ow, c = grad.shape
        k2 = self.pool * self.pool
        dcols = np.repeat(grad[:, :, :, None, :] / k2, k2, axis=3)
        dxp = F.col2im(dcols.reshape(n, oh, ow, -1), xp_shape,
                       self.pool, self.pool, self.stride)
        hb, wb = offsets
        return [dxp[:, hb:hb + x_shape[1], wb:wb + x_shape[2], :]]


class GlobalAvgPool(Layer):
    """Global average pooling: NHWC → NC."""

    def forward(self, inputs, training=False):
        x = inputs[0]
        self._shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, grad):
        n, h, w, c = self._shape
        return [np.broadcast_to(grad[:, None, None, :] / (h * w),
                                self._shape).copy()]

    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        return (in_shapes[0][-1],)

    def flops(self, in_shapes: list[Shape]) -> int:
        return int(np.prod(in_shapes[0]))


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    def forward(self, inputs, training=False):
        x = inputs[0]
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return [grad.reshape(self._shape)]

    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        return (int(np.prod(in_shapes[0])),)


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float = 0.5, seed: int = 0):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._mask: np.ndarray | None = None

    def config(self) -> dict:
        return {"rate": self.rate, "seed": self.seed}

    def forward(self, inputs, training=False):
        x = inputs[0]
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return [grad]
        return [grad * self._mask]

    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        return in_shapes[0]


class Softmax(Layer):
    """Softmax over the last axis.

    The backward pass implements the full softmax Jacobian so the layer can
    be combined with any loss; the trainer pairs it with
    :func:`repro.nn.losses.softmax_cross_entropy` which bypasses it for
    numerical stability.
    """

    def forward(self, inputs, training=False):
        self._out = F.softmax(inputs[0])
        return self._out

    def backward(self, grad):
        s = self._out
        return [s * (grad - np.sum(grad * s, axis=-1, keepdims=True))]

    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        return in_shapes[0]

    def flops(self, in_shapes: list[Shape]) -> int:
        return 3 * int(np.prod(in_shapes[0]))


class Add(Layer):
    """Element-wise sum of all inputs (residual connections)."""

    def forward(self, inputs, training=False):
        self._n = len(inputs)
        out = inputs[0].copy()
        for x in inputs[1:]:
            out += x
        return out

    def backward(self, grad):
        return [grad] * self._n

    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        first = in_shapes[0]
        for s in in_shapes[1:]:
            if tuple(s) != tuple(first):
                raise ValueError(f"Add inputs disagree: {in_shapes}")
        return first

    def flops(self, in_shapes: list[Shape]) -> int:
        return (len(in_shapes) - 1) * int(np.prod(in_shapes[0]))


class Concat(Layer):
    """Concatenation along the channel (last) axis."""

    def forward(self, inputs, training=False):
        self._splits = np.cumsum([x.shape[-1] for x in inputs])[:-1]
        return np.concatenate(inputs, axis=-1)

    def backward(self, grad):
        return np.split(grad, self._splits, axis=-1)

    def out_shape(self, in_shapes: list[Shape]) -> Shape:
        base = in_shapes[0][:-1]
        for s in in_shapes[1:]:
            if tuple(s[:-1]) != tuple(base):
                raise ValueError(f"Concat spatial shapes disagree: {in_shapes}")
        return base + (sum(s[-1] for s in in_shapes),)


#: Layer types with weights: the paper's depth axis (``layer_count``,
#: removed-layer counts) and the quantizer's targets.
WEIGHTED_TYPES = (Conv2D, DepthwiseConv2D, Dense)
