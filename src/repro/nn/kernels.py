"""Fused NumPy compute kernels for the compiled forward path.

Each kernel computes one :class:`~repro.nn.compile.KernelGroup` — an anchor
layer plus the element-wise layers fused behind it. A kernel is bound, not
run: :meth:`Kernel.bind` turns it, once per arena, into a short list of
zero-argument NumPy calls (``functools.partial`` objects) whose input,
output and scratch buffers, and every view over them, are fixed at bind
time. A compiled forward is then a flat walk over those calls, with no
per-kernel Python dispatch and no allocation:

- Convolutions run as im2col/GEMM with the patch matrix written into a
  preallocated scratch buffer and the GEMM accumulating straight into the
  output arena slot. 1x1 convolutions skip im2col entirely (a reshape is
  already the GEMM operand). When a bias exists (or a batch norm folded
  into one), the im2col patch matrix grows a constant ones column and the
  bias becomes an extra weight row, so the GEMM emits ``x @ w + b`` in one
  call; the 1x1, dense and einsum-depthwise kernels, which have no patch
  matrix to grow, add the bias as a separate in-place call.
- Dead taps are dropped: a SAME convolution on a 1x1 input map reads
  data through one tap only (the one the padding aligns with the pixel),
  so it is built as the 1x1 convolution of that tap's weights.
- Depthwise convolutions pick their algorithm per layer at compile time:
  narrow layers (few channels) run as an im2col GEMM against a
  block-diagonal weight matrix — more FLOPs, but BLAS-speed FLOPs — while
  wide layers run a per-tap einsum over the patch tensor.
- Batch-norm layers that directly follow a conv/dense anchor are *folded
  into the weights* at compile time (``w' = w * gamma/sqrt(var+eps)``,
  ``b' = beta + (b - mean) * gamma/sqrt(var+eps)``), so inference pays
  nothing for them. Batch norms that cannot fold (after pools, adds,
  concats, or behind an activation) become a two-pass in-place affine.
- Activations (ReLU/ReLU6) are applied in place on the output buffer,
  as ``np.maximum``/``np.minimum`` against read-only same-shape constant
  arrays the plan owns (``const`` in :meth:`Kernel.bind`) rather than
  Python scalars; inference-time dropout disappears.
- Pooling runs as a short tap loop of ``np.maximum``/``np.add`` over
  shifted views — several times faster than an axis reduction over the
  strided patch tensor.

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

__all__ = ["Kernel", "KERNEL_TYPES", "build_kernel"]

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
# returns the calls that compute ``out``.

def _relu(x: np.ndarray, out: np.ndarray, const: Const) -> list[Op]:
    return [partial(np.maximum, x, const(0.0, out), out=out)]


def _relu6(x: np.ndarray, out: np.ndarray, const: Const) -> list[Op]:
    # two ufuncs, not np.clip and its Python wrapper; the result differs
    # from clip's only in the sign of a zero
    return [partial(np.maximum, x, const(0.0, out), out=out),
            partial(np.minimum, out, const(6.0, out), out=out)]


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


def _bn_affine(layer: BatchNorm) -> tuple[np.ndarray, np.ndarray]:
    """Inference batch-norm as a per-channel (scale, shift) pair."""
    inv = 1.0 / np.sqrt(layer.running_var + layer.eps)
    scale = (layer.params["gamma"].value * inv).astype(np.float32)
    shift = (layer.params["beta"].value
             - layer.running_mean * scale).astype(np.float32)
    return scale, shift


def _tail_ops(layers: list, foldable: bool):
    """Split a group's element-wise tail into (folded BN, runtime post-ops).

    ``foldable`` anchors (conv/dense) absorb any leading batch norms into
    their weights; everything else becomes an in-place post-op, in order
    (see :meth:`Kernel._tail`). Returns ``(scale, shift, postops)`` where
    ``scale``/``shift`` are ``None`` when nothing folded.
    """
    scale = shift = None
    postops = []
    for lay in layers:
        if isinstance(lay, BatchNorm):
            s, t = _bn_affine(lay)
            if foldable and not postops:
                if scale is None:
                    scale, shift = s, t
                else:
                    scale, shift = scale * s, shift * s + t
            else:
                postops.append(_Affine(s, t))
        elif isinstance(lay, ReLU):
            postops.append(_relu)
        elif isinstance(lay, ReLU6):
            postops.append(_relu6)
        elif isinstance(lay, Dropout):
            continue  # identity at inference
        else:  # pragma: no cover - fuse_kernels only groups known types
            raise TypeError(f"no fused post-op for {type(lay).__name__}")
    return scale, shift, postops


def _fold_bias(layer, scale, shift):
    """The effective bias after folding a batch norm into the anchor."""
    bias = layer.params["b"].value if layer.use_bias else None
    if scale is not None:
        bias = shift if bias is None else bias * scale + shift
    return None if bias is None else bias.astype(np.float32)


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
    """One compiled execution step: anchor + fused element-wise tail."""

    #: whether the whole group runs as fused compute (False = generic
    #: per-layer fallback, used only for layer types outside the zoo set)
    fused = True

    #: post-op binders of the fused element-wise tail (see ``_tail_ops``)
    postops = ()

    def __init__(self, step: int, out_shape: Shape):
        self.step = step
        self.out_shape = out_shape

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
        """The fused post-ops, bound in place on ``out``, in order."""
        return [op for bind in self.postops for op in bind(out, out, const)]


class _GemmConvBase(Kernel):
    """Shared im2col/GEMM machinery for dense and depthwise convolutions.

    Subclasses set ``self.wf`` (the ``(K[+1], F)`` weight matrix),
    ``self.bias`` and ``self.fold_bias`` (True = bias rides in the GEMM as
    a ones column / extra weight row). ``state`` is ``(padbuf, cols)``:
    the padding buffer (``None`` when unpadded) and the ``(N, OH*OW,
    K[+1])`` patch matrix, whose 2-D GEMM view and 6-D patch view
    :meth:`bind` takes.
    """

    def __init__(self, step: int, out_shape: Shape, layer, in_shape: Shape):
        super().__init__(step, out_shape)
        self.kh, self.kw = layer.kernel
        self.stride = layer.stride
        self.cin = in_shape[-1]
        self.pad = _PadPlan(in_shape, layer.kernel, layer.stride,
                            layer.padding)

    def make_state(self, n: int):
        oh, ow, _ = self.out_shape
        k = self.kh * self.kw * self.cin
        cols = np.empty((n, oh * ow, k + 1 if self.fold_bias else k),
                        dtype=np.float32)
        if self.fold_bias:
            cols[:, :, k] = 1.0
        return (self.pad.make_buf(n, 0.0), cols)

    def bind(self, ins, out, state, const):
        oh, ow, f = self.out_shape
        padbuf, cols = state
        ops: list[Op] = []
        xs = self.pad.source(ins[0], padbuf, ops)
        ops.append(partial(
            np.copyto, _cols_view(cols, oh, ow, self.kh, self.kw, self.cin),
            F.patch_view(xs, self.kh, self.kw, self.stride)))
        ops.append(partial(np.matmul, cols.reshape(-1, cols.shape[-1]),
                           self.wf, out=out.reshape(-1, f)))
        if self.bias is not None and not self.fold_bias:
            ops.append(partial(np.add, out, self.bias, out=out))
        return ops + self._tail(out, const)

    def weights(self):
        # a folded bias is the weight matrix's last row
        bias = [] if self.bias is None or self.fold_bias else [self.bias]
        return [self.wf, *bias, *Kernel.weights(self)]


class ConvKernel(_GemmConvBase):
    """Conv2D anchor: im2col/GEMM with folded BN and in-place activation.

    On a 1x1 input map every output pixel reads only tap ``(ph[0],
    pw[0])``, where the SAME padding places the one input pixel; the other
    taps multiply padding. Such a conv is built as the 1x1, stride-1,
    unpadded conv it equals, with that tap's ``(C_in, F)`` weights, and
    runs the ``fast_1x1`` path: no padding copy, no patch matrix, and a
    GEMM ``kh*kw`` times narrower.
    """

    def __init__(self, step: int, out_shape: Shape, layer: Conv2D,
                 in_shape: Shape, tail: list):
        _GemmConvBase.__init__(self, step, out_shape, layer, in_shape)
        self.filters = layer.filters
        scale, shift, self.postops = _tail_ops(tail, foldable=True)
        w = layer.params["w"].value
        if self.pad.in_hw == (1, 1):
            # dead-tap elimination: keep the one tap that reads data
            ph, pw = self.pad.ph[0], self.pad.pw[0]
            w = w[ph:ph + 1, pw:pw + 1]
            self.kh = self.kw = self.stride = 1
            self.pad = _PadPlan(in_shape, (1, 1), 1, "valid")
        w = w.reshape(-1, self.filters)
        wf = np.ascontiguousarray(w if scale is None else w * scale,
                                  dtype=np.float32)
        self.bias = _fold_bias(layer, scale, shift)
        # a 1x1 kernel needs no patch matrix: the input *is* the GEMM
        # operand (strided row subsampling when stride > 1)
        self.fast_1x1 = (self.kh, self.kw) == (1, 1) and not self.pad.needed
        self.fold_bias = self.bias is not None and not self.fast_1x1
        self.wf = (np.vstack([wf, self.bias[None]])
                   if self.fold_bias else wf)

    def make_state(self, n: int):
        if not self.fast_1x1:
            return _GemmConvBase.make_state(self, n)
        if self.stride > 1:
            oh, ow, _ = self.out_shape
            return np.empty((n, oh, ow, self.cin), dtype=np.float32)
        return None

    def bind(self, ins, out, state, const):
        if not self.fast_1x1:
            return _GemmConvBase.bind(self, ins, out, state, const)
        _, _, f = self.out_shape
        src = ins[0]
        ops: list[Op] = []
        if self.stride > 1:
            s = self.stride
            ops.append(partial(np.copyto, state, src[:, ::s, ::s, :]))
            src = state
        ops.append(partial(np.matmul, src.reshape(-1, self.cin), self.wf,
                           out=out.reshape(-1, f)))
        if self.bias is not None:
            ops.append(partial(np.add, out, self.bias, out=out))
        return ops + self._tail(out, const)


class DepthwiseConvKernel(Kernel):
    """DepthwiseConv2D anchor, algorithm chosen per layer at compile time.

    Narrow layers (``C <= DEPTHWISE_GEMM_MAX_CHANNELS``) run the patch
    matrix against a block-diagonal ``(kh*kw*C, C)`` weight — a ``C``-fold
    FLOP blow-up that BLAS still wins on. Wide layers contract the patch
    tensor with an einsum.
    """

    def __init__(self, step: int, out_shape: Shape, layer: DepthwiseConv2D,
                 in_shape: Shape, tail: list):
        super().__init__(step, out_shape)
        self.kh, self.kw = layer.kernel
        self.stride = layer.stride
        self.cin = self.channels = c = in_shape[-1]
        self.pad = _PadPlan(in_shape, layer.kernel, layer.stride,
                            layer.padding)
        scale, shift, self.postops = _tail_ops(tail, foldable=True)
        w = layer.params["w"].value.reshape(self.kh * self.kw, c)
        wf = np.ascontiguousarray(w if scale is None else w * scale,
                                  dtype=np.float32)
        self.bias = _fold_bias(layer, scale, shift)
        self.as_gemm = c <= DEPTHWISE_GEMM_MAX_CHANNELS
        self.fold_bias = self.as_gemm and self.bias is not None
        if self.as_gemm:
            k2 = self.kh * self.kw
            bd = np.zeros((k2 * c, c), dtype=np.float32)
            idx = np.arange(c)
            for t in range(k2):
                bd[t * c + idx, idx] = wf[t]
            self.wf = (np.vstack([bd, self.bias[None]])
                       if self.fold_bias else bd)
        else:
            self.wf = wf

    def make_state(self, n: int):
        if self.as_gemm:
            return _GemmConvBase.make_state(self, n)
        oh, ow, c = self.out_shape
        cols = np.empty((n, oh, ow, self.kh * self.kw, c), dtype=np.float32)
        return (self.pad.make_buf(n, 0.0), cols)

    def bind(self, ins, out, state, const):
        if self.as_gemm:
            return _GemmConvBase.bind(self, ins, out, state, const)
        oh, ow, c = self.out_shape
        padbuf, cols = state
        ops: list[Op] = []
        xs = self.pad.source(ins[0], padbuf, ops)
        cols6 = cols.reshape(cols.shape[0], oh, ow, self.kh, self.kw, c)
        ops.append(partial(np.copyto, cols6, F.patch_view(
            xs, self.kh, self.kw, self.stride)))
        ops.append(partial(np.einsum, "nhwkc,kc->nhwc", cols, self.wf,
                           out=out))
        if self.bias is not None:
            ops.append(partial(np.add, out, self.bias, out=out))
        return ops + self._tail(out, const)

    weights = _GemmConvBase.weights


class DenseKernel(Kernel):
    """Dense anchor: GEMM with folded BN and in-place activation."""

    def __init__(self, step: int, out_shape: Shape, layer: Dense,
                 in_shape: Shape, tail: list):
        super().__init__(step, out_shape)
        self.units = layer.units
        self.d = in_shape[-1]
        scale, shift, self.postops = _tail_ops(tail, foldable=True)
        w = layer.params["w"].value
        self.wf = np.ascontiguousarray(w if scale is None else w * scale,
                                       dtype=np.float32)
        self.bias = _fold_bias(layer, scale, shift)

    def bind(self, ins, out, state, const):
        ops: list[Op] = [partial(np.matmul, ins[0].reshape(-1, self.d),
                                 self.wf, out=out.reshape(-1, self.units))]
        if self.bias is not None:
            ops.append(partial(np.add, out, self.bias, out=out))
        return ops + self._tail(out, const)

    def weights(self):
        bias = [] if self.bias is None else [self.bias]
        return [self.wf, *bias, *Kernel.weights(self)]


class PoolKernel(Kernel):
    """Max/average pooling as a tap loop over shifted strided views."""

    def __init__(self, step: int, out_shape: Shape, layer, in_shape: Shape,
                 tail: list):
        super().__init__(step, out_shape)
        self.pool = layer.pool
        self.stride = layer.stride
        self.is_max = isinstance(layer, MaxPool2D)
        self.pad = _PadPlan(in_shape, (layer.pool, layer.pool), layer.stride,
                            layer.padding)
        _, _, self.postops = _tail_ops(tail, foldable=False)

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
    def __init__(self, step, out_shape, layer, in_shape, tail):
        super().__init__(step, out_shape)
        _, _, self.postops = _tail_ops(tail, foldable=False)

    def bind(self, ins, out, state, const):
        # ``ndarray.mean``'s own two calls, without its Python wrapper
        x = ins[0]
        return [partial(np.add.reduce, x, axis=(1, 2), out=out),
                partial(np.true_divide, out, x.shape[1] * x.shape[2],
                        out=out)] + self._tail(out, const)


class FlattenKernel(Kernel):
    def __init__(self, step, out_shape, layer, in_shape, tail):
        super().__init__(step, out_shape)
        _, _, self.postops = _tail_ops(tail, foldable=False)

    def bind(self, ins, out, state, const):
        n = out.shape[0]
        return ([partial(np.copyto, out.reshape(n, -1), ins[0].reshape(n, -1))]
                + self._tail(out, const))


class SoftmaxKernel(Kernel):
    def __init__(self, step, out_shape, layer, in_shape, tail):
        super().__init__(step, out_shape)
        _, _, self.postops = _tail_ops(tail, foldable=False)

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
    def __init__(self, step, out_shape, layer, in_shape, tail):
        super().__init__(step, out_shape)
        _, _, self.postops = _tail_ops(tail, foldable=False)

    def bind(self, ins, out, state, const):
        if len(ins) == 1:
            ops: list[Op] = [partial(np.copyto, out, ins[0])]
        else:
            ops = [partial(np.add, ins[0], ins[1], out=out)]
            ops += [partial(np.add, out, extra, out=out)
                    for extra in ins[2:]]
        return ops + self._tail(out, const)


class ConcatKernel(Kernel):
    def __init__(self, step, out_shape, layer, in_shape, tail):
        super().__init__(step, out_shape)
        _, _, self.postops = _tail_ops(tail, foldable=False)

    def bind(self, ins, out, state, const):
        return ([partial(np.concatenate, tuple(ins), axis=-1, out=out)]
                + self._tail(out, const))


class BatchNormKernel(Kernel):
    """A batch norm that anchors its own group (producer has fan-out)."""

    def __init__(self, step, out_shape, layer, in_shape, tail):
        super().__init__(step, out_shape)
        self.affine = _Affine(*_bn_affine(layer))
        _, _, self.postops = _tail_ops(tail, foldable=False)

    def bind(self, ins, out, state, const):
        return self.affine(ins[0], out, const) + self._tail(out, const)

    def weights(self):
        return [*self.affine.weights, *Kernel.weights(self)]


class ActivationKernel(Kernel):
    """A ReLU/ReLU6/Dropout that anchors its own group."""

    def __init__(self, step, out_shape, layer, in_shape, tail):
        super().__init__(step, out_shape)
        if isinstance(layer, ReLU6):
            self.act = _relu6
        elif isinstance(layer, ReLU):
            self.act = _relu
        else:
            self.act = None  # inference-time dropout: a copy
        _, _, self.postops = _tail_ops(tail, foldable=False)

    def bind(self, ins, out, state, const):
        x = ins[0]
        ops = ([partial(np.copyto, out, x)] if self.act is None
               else self.act(x, out, const))
        return ops + self._tail(out, const)


class FallbackKernel(Kernel):
    """Generic per-layer execution for types without a fused kernel.

    Only single-node groups can take this path (``fuse_kernels`` never
    groups unknown layer types), so interpreted and compiled execution
    remain node-for-node identical for exotic layers. The layer's own
    ``forward`` runs on the step's input buffers and its result is copied
    into the step's arena slot.
    """

    fused = False

    def __init__(self, step, out_shape, layer, in_shape, tail):
        super().__init__(step, out_shape)
        if tail:  # pragma: no cover - fusion rules prevent this
            raise TypeError("cannot fuse a tail behind an unknown anchor")
        self.layer = layer

    def bind(self, ins, out, state, const):
        layer = self.layer

        def op():
            np.copyto(out, layer.forward(list(ins), training=False))
        return [op]


#: anchor layer type -> kernel class (the compute half of the fusion
#: rules; :mod:`repro.nn.compile` holds the grouping half)
KERNEL_TYPES: dict[type, type] = {
    Conv2D: ConvKernel,
    DepthwiseConv2D: DepthwiseConvKernel,
    Dense: DenseKernel,
    MaxPool2D: PoolKernel,
    AvgPool2D: PoolKernel,
    GlobalAvgPool: GlobalAvgPoolKernel,
    Flatten: FlattenKernel,
    Softmax: SoftmaxKernel,
    Add: AddKernel,
    Concat: ConcatKernel,
    BatchNorm: BatchNormKernel,
    ReLU: ActivationKernel,
    ReLU6: ActivationKernel,
    Dropout: ActivationKernel,
}


def build_kernel(step: int, anchor_layer, tail_layers: list,
                 in_shape: Shape, out_shape: Shape) -> Kernel:
    """Construct the fused kernel for one group (fallback for unknowns)."""
    cls = KERNEL_TYPES.get(type(anchor_layer), FallbackKernel)
    return cls(step, out_shape, anchor_layer, in_shape, tail_layers)
