"""Fused NumPy compute kernels for the compiled forward path.

Each kernel computes one :class:`~repro.nn.compile.KernelGroup`: an
*anchor* layer plus the *tail* of element-wise layers fused behind it.
:func:`build_kernel` picks one class per algorithm from the anchor's
exact layer type and geometry:

- :class:`GemmKernel`, ``x @ W (+ b)`` on the input as it lies: dense
  layers, 1x1 convolutions (a strided one first copies every
  ``stride``-th pixel) and SAME convolutions on a 1x1 map. Such a
  convolution reads data through one tap only (the one the padding
  aligns with the pixel), so it is the 1x1 convolution of that tap's
  weights: the other taps are dead.
- :class:`Im2colKernel`, im2col then one GEMM: kxk convolutions, and
  depthwise convolutions of at most ``DEPTHWISE_GEMM_MAX_CHANNELS``
  channels against a block-diagonal weight (more FLOPs, but BLAS-speed
  FLOPs). The patch matrix grows a constant ones column and the weight a
  bias row, so the GEMM emits ``x @ W + b`` in one call.
- :class:`DepthwiseEinsumKernel`, wider depthwise convolutions: a
  per-tap einsum over the patch tensor.
- :class:`PoolKernel`, max/average pooling as a short tap loop of
  ``np.maximum``/``np.add`` over shifted views, several times faster
  than an axis reduction over the strided patch tensor; and one small
  class each for global average pooling, flatten, softmax, add and
  concat.
- :class:`ElementwiseKernel`, a batch norm, ReLU, ReLU6 or dropout that
  anchors its own group because its producer's output has other
  consumers. It binds the same op a tail binds.

Batch norms that directly follow a conv or dense anchor are *folded into
its weights* once, in :func:`build_kernel` (``w' = w * gamma/sqrt(var +
eps)``, ``b' = beta + (b - mean) * gamma/sqrt(var + eps)``), so inference
pays nothing for them. The rest of a tail runs in place on the output, in
order: a batch norm that cannot fold as a two-call affine, ReLU/ReLU6 as
``np.maximum``/``np.minimum`` against read-only same-shape constant
arrays the plan owns (``const`` in :meth:`Kernel.bind`) rather than
Python scalars. Inference-time dropout disappears. A GEMM with no patch
matrix to carry its bias adds it by one in-place call ahead of the tail.
Dispatch is on the exact type, so a subclass of a layer type is never
compiled as its base: a layer type with no kernel raises ``TypeError``
when the plan is built.

A kernel is bound, not run: :meth:`Kernel.bind` turns it, once per
arena, into a short list of zero-argument NumPy calls
(``functools.partial`` objects) whose input, output and scratch buffers,
and every view over them, are fixed at bind time. A compiled forward is
then a flat walk over those calls, with no per-kernel Python dispatch and
no allocation.

Kernels are *stateless across batch sizes*: all scratch (padding borders,
patch matrices, softmax row reductions) lives in the state built by
:meth:`Kernel.make_state` and owned by the plan, which passes it to
:meth:`Kernel.bind`. Bound calls never write their inputs — only the
output buffer and the kernel's own state — so arena slots can be shared
between steps safely.

Batch is the leading axis of every buffer: the input and arena slots,
and every array ``make_state`` returns. What a buffer holds beyond what
a forward overwrites (a padding border of 0 or −inf, a patch matrix's
ones column) is the same at every batch size. So a plan allocates one
buffer set at the largest batch it has run, and binds a smaller batch
``n`` on the ``[:n]`` prefixes of those buffers. A prefix of a
C-contiguous float32 array is itself C-contiguous, so each reshape taken
at bind time is a view of it; the compiled path is an inference path.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

from . import functional as F
from .layers import (
    Add,
    AvgPool2D,
    BatchNorm,
    Concat,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool,
    MaxPool2D,
    ReLU,
    ReLU6,
    Softmax,
)

__all__ = ["Kernel", "build_kernel"]

Shape = tuple[int, ...]
#: one bound call of a compiled forward: every operand is fixed
Op = Callable[[], object]
#: ``const(value, like)``: a read-only array shaped like ``like`` holding
#: ``value``, shared by every step of a plan (see ``Kernel.bind``)
Const = Callable[[float, np.ndarray], np.ndarray]

#: Channel cutoff below which a depthwise convolution runs as a
#: block-diagonal GEMM instead of a patch einsum. The GEMM does ``C``
#: times the FLOPs but runs at BLAS speed; empirically it wins while the
#: channel count is small (the early, large-spatial layers where depthwise
#: time concentrates).
DEPTHWISE_GEMM_MAX_CHANNELS = 8


# -- element-wise ops (a fused tail in place on the output, or an anchor) ----
# Each takes its source ``x``, the output ``out`` (``x`` itself for a
# fused tail) and the plan's constant operands (see ``Kernel.bind``), and
# returns the calls that compute ``out``. An op with constant arrays of
# its own lists them as ``weights``.

def _relu(x: np.ndarray, out: np.ndarray, const: Const) -> list[Op]:
    return [partial(np.maximum, x, const(0.0, out), out=out)]


def _relu6(x: np.ndarray, out: np.ndarray, const: Const) -> list[Op]:
    # two ufuncs, not np.clip and its Python wrapper; the result differs
    # from clip's only in the sign of a zero
    return [partial(np.maximum, x, const(0.0, out), out=out),
            partial(np.minimum, out, const(6.0, out), out=out)]


def _identity(x: np.ndarray, out: np.ndarray, const: Const) -> list[Op]:
    # inference-time dropout anchoring its own group; in a tail it binds
    # nothing
    return [partial(np.copyto, out, x)]


class _Affine:
    """Inference batch norm as a per-channel ``x * scale + shift``: a
    tail behind an anchor it cannot fold into, or its own anchor."""

    def __init__(self, scale: np.ndarray, shift: np.ndarray):
        self.weights = (scale, shift)

    def __call__(self, x: np.ndarray, out: np.ndarray,
                 const: Const) -> list[Op]:
        scale, shift = self.weights
        return [partial(np.multiply, x, scale, out=out),
                partial(np.add, out, shift, out=out)]


class _Bias:
    """A per-channel bias added by one call of its own, ahead of the tail
    of a GEMM or einsum that has no patch matrix to carry it."""

    def __init__(self, bias: np.ndarray):
        self.weights = (bias,)

    def __call__(self, x: np.ndarray, out: np.ndarray,
                 const: Const) -> list[Op]:
        return [partial(np.add, x, self.weights[0], out=out)]


def _no_kernel(layer) -> TypeError:
    return TypeError(
        f"no compiled kernel for layer type {type(layer).__name__} "
        "(kernels are picked by exact type; a subclass has none)")


def _bn_affine(layer: BatchNorm) -> tuple[np.ndarray, np.ndarray]:
    """Inference batch-norm as a per-channel (scale, shift) pair."""
    inv = 1.0 / np.sqrt(layer.running_var + layer.eps)
    scale = (layer.params["gamma"].value * inv).astype(np.float32)
    shift = (layer.params["beta"].value
             - layer.running_mean * scale).astype(np.float32)
    return scale, shift


_ACTIVATIONS = {ReLU: _relu, ReLU6: _relu6, Dropout: _identity}


def _elementwise(layer):
    """The op that computes one element-wise layer."""
    kind = type(layer)
    if kind is BatchNorm:
        return _Affine(*_bn_affine(layer))
    if kind not in _ACTIVATIONS:
        raise _no_kernel(layer)
    return _ACTIVATIONS[kind]


def _fold(layer, w: np.ndarray, tail: list):
    """``(w, b, rest)``: a conv or dense anchor's ``(K, F)`` weight ``w``
    and its bias with the batch norms that lead its tail folded in, and
    the rest of the tail.

    ``b`` is float32 or ``None``. Dropout, an identity at inference, is
    passed over; any other layer ends the fold.
    """
    scale = shift = None
    rest = list(tail)
    while rest and type(rest[0]) in (BatchNorm, Dropout):
        lay = rest.pop(0)
        if type(lay) is BatchNorm:
            s, t = _bn_affine(lay)
            scale, shift = ((s, t) if scale is None
                            else (scale * s, shift * s + t))
    bias = layer.params["b"].value if layer.use_bias else None
    if scale is not None:
        w = w * scale
        bias = shift if bias is None else bias * scale + shift
    return w, None if bias is None else bias.astype(np.float32), rest


def _block_diagonal(w: np.ndarray) -> np.ndarray:
    """A depthwise ``(kh*kw, C)`` weight as the ``(kh*kw*C, C)`` matrix
    that multiplies its im2col patch rows."""
    k2, c = w.shape
    idx = np.arange(c)
    bd = np.zeros((k2, c, c), dtype=np.float32)
    bd[:, idx, idx] = w
    return bd.reshape(k2 * c, c)


# -- geometry helpers --------------------------------------------------------

def _cols_view(cols: np.ndarray, oh: int, ow: int, kh: int, kw: int,
               c: int) -> np.ndarray:
    """A writable ``(N, OH, OW, kh, kw, C)`` view over the first
    ``kh*kw*c`` columns of an ``(N, OH*OW, K[+1])`` patch matrix (the
    trailing ones column is left alone)."""
    sn, pitch, item = cols.strides
    return np.lib.stride_tricks.as_strided(
        cols, shape=(cols.shape[0], oh, ow, kh, kw, c),
        strides=(sn, ow * pitch, pitch, kw * c * item, c * item, item))


class _PadPlan:
    """SAME-padding geometry shared by the conv/pool kernels."""

    def __init__(self, in_shape: Shape, kernel: tuple[int, int], stride: int,
                 padding: str):
        h, w, c = in_shape
        kh, kw = kernel
        if padding == "same":
            self.ph = F.same_padding(h, kh, stride)
            self.pw = F.same_padding(w, kw, stride)
        else:
            self.ph = self.pw = (0, 0)
        self.needed = self.ph != (0, 0) or self.pw != (0, 0)
        self.in_hw = (h, w)
        self.padded_shape = (h + sum(self.ph), w + sum(self.pw), c)

    def make_buf(self, n: int, fill: float) -> np.ndarray | None:
        if not self.needed:
            return None
        return np.full((n,) + self.padded_shape, fill, dtype=np.float32)

    def source(self, x: np.ndarray, buf: np.ndarray | None,
               ops: list[Op]) -> np.ndarray:
        """The array a kernel reads: ``x`` itself, or the padding buffer
        after appending to ``ops`` the copy of ``x`` into its interior (the
        border keeps its fill)."""
        if buf is None:
            return x
        h, w = self.in_hw
        ops.append(partial(
            np.copyto,
            buf[:, self.ph[0]:self.ph[0] + h, self.pw[0]:self.pw[0] + w, :],
            x))
        return buf


# -- kernels -----------------------------------------------------------------

class Kernel:
    """One compiled execution step: anchor + fused element-wise tail.

    ``tail`` is the fused element-wise layers the anchor's weights did not
    absorb, and ``bias`` a per-channel bias the kernel adds by its own
    call; both run in place on the output after the anchor's calls.
    """

    def __init__(self, out_shape: Shape, tail: list,
                 bias: np.ndarray | None = None):
        self.out_shape = out_shape
        #: the element-wise ops bound in place on the output, in order
        self.postops = [] if bias is None else [_Bias(bias)]
        self.postops += [_elementwise(lay) for lay in tail
                         if type(lay) is not Dropout]

    def make_state(self, n: int):
        """Scratch for batches of up to ``n``: ``None``, an array, or a
        tuple of arrays and ``None``. Default: none.

        Every array has leading axis ``n``, and its contents beyond what
        a forward overwrites do not depend on ``n``, so the ``[:m]``
        prefix of each is the scratch for a batch of ``m``.
        """
        return None

    def bind(self, ins: list[np.ndarray], out: np.ndarray, state,
             const: Const) -> list[Op]:
        """The calls that compute this step from ``ins`` into ``out``.

        ``ins`` and ``out`` are the buffers of one batch size (prefixes
        of the plan's buffers) and ``state`` is :meth:`make_state`'s
        scratch cut to the same prefix. ``const(value, like)`` returns a
        read-only array shaped like ``like`` that holds ``value``, owned
        by the plan: an activation clamps against it, because a ufunc on
        two same-shape operands is faster than one on an array and a
        Python scalar. Every view the step reads or writes is taken here,
        once; calling the returned functions in order performs the step.
        """
        raise NotImplementedError

    def weights(self) -> list[np.ndarray]:
        """The constant arrays the bound calls read every forward: GEMM
        weights, a bias added by its own call, per-channel affines."""
        return [w for op in self.postops for w in getattr(op, "weights", ())]

    def _tail(self, out: np.ndarray, const: Const) -> list[Op]:
        """The post-ops, bound in place on ``out``, in order."""
        return [op for bind in self.postops for op in bind(out, out, const)]


class GemmKernel(Kernel):
    """``x @ W (+ b)`` on the input as it lies, against a ``(C_in, F)``
    weight: dense layers, 1x1 convolutions and SAME convolutions on a 1x1
    map. A strided 1x1 convolution first copies every ``stride``-th pixel
    into its state."""

    def __init__(self, out_shape: Shape, tail: list, w: np.ndarray,
                 bias: np.ndarray | None, stride: int = 1):
        super().__init__(out_shape, tail, bias)
        self.wf = np.ascontiguousarray(w, dtype=np.float32)
        self.stride = stride

    def make_state(self, n: int):
        if self.stride == 1:
            return None
        oh, ow, _ = self.out_shape
        return np.empty((n, oh, ow, len(self.wf)), dtype=np.float32)

    def bind(self, ins, out, state, const):
        src = ins[0]
        ops: list[Op] = []
        if self.stride > 1:
            s = self.stride
            ops.append(partial(np.copyto, state, src[:, ::s, ::s, :]))
            src = state
        ops.append(partial(np.matmul, src.reshape(-1, len(self.wf)),
                           self.wf, out=out.reshape(-1, self.out_shape[-1])))
        return ops + self._tail(out, const)

    def weights(self):
        return [self.wf, *super().weights()]


class Im2colKernel(Kernel):
    """im2col then one GEMM against a ``(kh*kw*C_in, F)`` weight: kxk
    convolutions, and narrow depthwise ones (block-diagonal weight).

    A bias rides in the GEMM: the patch matrix grows a ones column and
    the weight a bias row. ``state`` is ``(padbuf, cols)``: the padding
    buffer (``None`` when unpadded) and the ``(N, OH*OW, K[+1])`` patch
    matrix, whose 2-D GEMM view and 6-D patch view :meth:`bind` takes.
    """

    def __init__(self, out_shape: Shape, tail: list, w: np.ndarray,
                 bias: np.ndarray | None, layer, pad: _PadPlan):
        super().__init__(out_shape, tail)
        self.kh, self.kw = layer.kernel
        self.stride = layer.stride
        self.pad = pad
        wf = np.ascontiguousarray(w, dtype=np.float32)
        self.k = len(wf)
        self.wf = wf if bias is None else np.vstack([wf, bias[None]])

    def make_state(self, n: int):
        oh, ow, _ = self.out_shape
        cols = np.empty((n, oh * ow, len(self.wf)), dtype=np.float32)
        cols[:, :, self.k:] = 1.0          # the bias's ones column, if any
        return (self.pad.make_buf(n, 0.0), cols)

    def bind(self, ins, out, state, const):
        oh, ow, f = self.out_shape
        padbuf, cols = state
        ops: list[Op] = []
        xs = self.pad.source(ins[0], padbuf, ops)
        ops.append(partial(
            np.copyto,
            _cols_view(cols, oh, ow, self.kh, self.kw, xs.shape[-1]),
            F.patch_view(xs, self.kh, self.kw, self.stride)))
        ops.append(partial(np.matmul, cols.reshape(-1, cols.shape[-1]),
                           self.wf, out=out.reshape(-1, f)))
        return ops + self._tail(out, const)

    def weights(self):
        return [self.wf, *super().weights()]


class DepthwiseEinsumKernel(Kernel):
    """A depthwise convolution wider than ``DEPTHWISE_GEMM_MAX_CHANNELS``:
    the ``(N, OH, OW, kh*kw, C)`` patch tensor contracted with the
    ``(kh*kw, C)`` weight by one einsum. ``state`` is ``(padbuf, cols)``."""

    def __init__(self, out_shape: Shape, tail: list, w: np.ndarray,
                 bias: np.ndarray | None, layer, pad: _PadPlan):
        super().__init__(out_shape, tail, bias)
        self.kh, self.kw = layer.kernel
        self.stride = layer.stride
        self.pad = pad
        self.wf = np.ascontiguousarray(w, dtype=np.float32)

    def make_state(self, n: int):
        oh, ow, c = self.out_shape
        cols = np.empty((n, oh, ow, self.kh * self.kw, c), dtype=np.float32)
        return (self.pad.make_buf(n, 0.0), cols)

    def bind(self, ins, out, state, const):
        oh, ow, c = self.out_shape
        padbuf, cols = state
        ops: list[Op] = []
        xs = self.pad.source(ins[0], padbuf, ops)
        cols6 = cols.reshape(cols.shape[0], oh, ow, self.kh, self.kw, c)
        ops.append(partial(np.copyto, cols6, F.patch_view(
            xs, self.kh, self.kw, self.stride)))
        ops.append(partial(np.einsum, "nhwkc,kc->nhwc", cols, self.wf,
                           out=out))
        return ops + self._tail(out, const)

    def weights(self):
        return [self.wf, *super().weights()]


class PoolKernel(Kernel):
    """Max/average pooling as a tap loop over shifted strided views."""

    def __init__(self, out_shape: Shape, tail: list, layer, in_shape: Shape):
        super().__init__(out_shape, tail)
        self.pool = layer.pool
        self.stride = layer.stride
        self.is_max = type(layer) is MaxPool2D
        self.pad = _PadPlan(in_shape, (layer.pool, layer.pool), layer.stride,
                            layer.padding)

    def make_state(self, n: int):
        return self.pad.make_buf(n, -np.inf if self.is_max else 0.0)

    def bind(self, ins, out, state, const):
        ops: list[Op] = []
        xs = self.pad.source(ins[0], state, ops)
        oh, ow, _ = self.out_shape
        p, s = self.pool, self.stride
        he, we = (oh - 1) * s + 1, (ow - 1) * s + 1
        taps = [xs[:, i:i + he:s, j:j + we:s, :]
                for i in range(p) for j in range(p)]
        ops.append(partial(np.copyto, out, taps[0]))
        reduce = np.maximum if self.is_max else np.add
        ops += [partial(reduce, out, tap, out=out) for tap in taps[1:]]
        if not self.is_max:
            ops.append(partial(np.multiply, out, 1.0 / (p * p), out=out))
        return ops + self._tail(out, const)


class GlobalAvgPoolKernel(Kernel):
    def bind(self, ins, out, state, const):
        # ``ndarray.mean``'s own two calls, without its Python wrapper
        x = ins[0]
        return [partial(np.add.reduce, x, axis=(1, 2), out=out),
                partial(np.true_divide, out, x.shape[1] * x.shape[2],
                        out=out)] + self._tail(out, const)


class FlattenKernel(Kernel):
    def bind(self, ins, out, state, const):
        n = out.shape[0]
        return ([partial(np.copyto, out.reshape(n, -1), ins[0].reshape(n, -1))]
                + self._tail(out, const))


class SoftmaxKernel(Kernel):
    def make_state(self, n: int):
        # one keepdims row buffer: the row max, then the row sum
        return np.empty((n,) + self.out_shape[:-1] + (1,), dtype=np.float32)

    def bind(self, ins, out, state, const):
        x = ins[0]
        return [partial(np.maximum.reduce, x, axis=-1, keepdims=True,
                        out=state),
                partial(np.subtract, x, state, out=out),
                partial(np.exp, out, out=out),
                partial(np.add.reduce, out, axis=-1, keepdims=True,
                        out=state),
                partial(np.true_divide, out, state, out=out),
                ] + self._tail(out, const)


class AddKernel(Kernel):
    def bind(self, ins, out, state, const):
        if len(ins) == 1:
            ops: list[Op] = [partial(np.copyto, out, ins[0])]
        else:
            ops = [partial(np.add, ins[0], ins[1], out=out)]
            ops += [partial(np.add, out, extra, out=out)
                    for extra in ins[2:]]
        return ops + self._tail(out, const)


class ConcatKernel(Kernel):
    def bind(self, ins, out, state, const):
        return ([partial(np.concatenate, tuple(ins), axis=-1, out=out)]
                + self._tail(out, const))


class ElementwiseKernel(Kernel):
    """A batch norm, ReLU, ReLU6 or dropout anchoring its own group: the
    op a tail binds in place, here from the input into the output."""

    def __init__(self, out_shape: Shape, tail: list, layer):
        super().__init__(out_shape, tail)
        self.op = _elementwise(layer)

    def bind(self, ins, out, state, const):
        return self.op(ins[0], out, const) + self._tail(out, const)

    def weights(self):
        return [*getattr(self.op, "weights", ()), *super().weights()]


#: anchors whose kernel needs only the output shape and the tail
_SHAPE_ONLY = {GlobalAvgPool: GlobalAvgPoolKernel, Flatten: FlattenKernel,
               Softmax: SoftmaxKernel, Add: AddKernel, Concat: ConcatKernel}


def build_kernel(anchor, tail: list, in_shape: Shape,
                 out_shape: Shape) -> Kernel:
    """The kernel for one group, picked from the anchor's exact type and
    geometry (see the module docstring), with the batch norms that lead a
    conv or dense anchor's tail folded into its ``(W, b)``.

    Raises ``TypeError`` naming the type of an anchor or tail layer that
    has no kernel, a subclass of a known type included.
    """
    kind = type(anchor)
    if kind in _SHAPE_ONLY:
        return _SHAPE_ONLY[kind](out_shape, tail)
    if kind in (MaxPool2D, AvgPool2D):
        return PoolKernel(out_shape, tail, anchor, in_shape)
    if kind in (BatchNorm, ReLU, ReLU6, Dropout):
        return ElementwiseKernel(out_shape, tail, anchor)
    if kind not in (Conv2D, DepthwiseConv2D, Dense):
        raise _no_kernel(anchor)
    w = anchor.params["w"].value
    pad = (None if kind is Dense else
           _PadPlan(in_shape, anchor.kernel, anchor.stride, anchor.padding))
    if kind is Conv2D and pad.in_hw == (1, 1):
        # dead taps: only tap (ph[0], pw[0]) reads the one input pixel
        w = w[pad.ph[0]:pad.ph[0] + 1, pad.pw[0]:pad.pw[0] + 1]
    w, bias, tail = _fold(anchor, w.reshape(-1, out_shape[-1]), tail)
    if kind is DepthwiseConv2D:
        if out_shape[-1] > DEPTHWISE_GEMM_MAX_CHANNELS:
            return DepthwiseEinsumKernel(out_shape, tail, w, bias, anchor,
                                         pad)
        return Im2colKernel(out_shape, tail, _block_diagonal(w), bias,
                            anchor, pad)
    if kind is Dense or pad.in_hw == (1, 1):
        return GemmKernel(out_shape, tail, w, bias)
    if anchor.kernel == (1, 1) and not pad.needed:
        return GemmKernel(out_shape, tail, w, bias, anchor.stride)
    return Im2colKernel(out_shape, tail, w, bias, anchor, pad)
