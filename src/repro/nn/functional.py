"""Low-level numerical primitives for the NumPy DNN framework.

All image tensors use the NHWC layout: ``(batch, height, width, channels)``.
Convolutions are implemented with the im2col/col2im transformation so that the
inner loop is a single large matrix multiply, which is the only way to make a
pure-NumPy CNN fast enough for the sweep experiments in this repository.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pad_same",
    "conv_output_size",
    "patch_view",
    "im2col",
    "col2im",
    "relu",
    "relu_grad",
    "relu6",
    "relu6_grad",
    "softmax",
    "sigmoid",
]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window.

    Parameters mirror the standard formula ``(size + 2*pad - kernel)//stride + 1``.
    """
    return (size + 2 * pad - kernel) // stride + 1


def same_padding(size: int, kernel: int, stride: int) -> tuple[int, int]:
    """Asymmetric SAME padding (TensorFlow convention) for one dimension.

    Returns ``(pad_before, pad_after)`` such that the output size equals
    ``ceil(size / stride)``.
    """
    out = -(-size // stride)
    total = max(0, (out - 1) * stride + kernel - size)
    before = total // 2
    return before, total - before


def pad_same(x: np.ndarray, kernel: tuple[int, int],
             stride: tuple[int, int]) -> np.ndarray:
    """Apply SAME padding to an NHWC tensor for the given kernel and stride."""
    ph = same_padding(x.shape[1], kernel[0], stride[0])
    pw = same_padding(x.shape[2], kernel[1], stride[1])
    if ph == (0, 0) and pw == (0, 0):
        return x
    return np.pad(x, ((0, 0), ph, pw, (0, 0)))


def patch_view(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Zero-copy sliding-window view ``(N, OH, OW, kh, kw, C)`` of ``x``.

    ``OH`` and ``OW`` are the VALID-padding output sizes; the caller is
    responsible for padding. Overlapping windows share memory, so the
    view is only ever read: :func:`im2col` copies it into a new patch
    matrix, the compiled kernels into a preallocated one.
    """
    n, h, w, c = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(n, oh, ow, kh, kw, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3))


def im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Extract sliding patches from an NHWC tensor.

    Parameters
    ----------
    x:
        Input of shape ``(N, H, W, C)``; the caller is responsible for padding.
    kh, kw:
        Kernel height and width.
    stride:
        Stride, applied to both spatial dimensions.

    Returns
    -------
    Array of shape ``(N, OH, OW, kh * kw * C)`` where ``OH`` and ``OW`` are
    the convolution output sizes for VALID padding.
    """
    patches = patch_view(x, kh, kw, stride)
    n, oh, ow = patches.shape[:3]
    return np.ascontiguousarray(patches).reshape(n, oh, ow, -1)


def col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int],
           kh: int, kw: int, stride: int) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add patches back to an image.

    Parameters
    ----------
    cols:
        Patch gradients of shape ``(N, OH, OW, kh * kw * C)``.
    x_shape:
        Shape of the (padded) input tensor the patches were extracted from.
    kh, kw, stride:
        Window geometry used by the forward :func:`im2col`.

    Returns
    -------
    Gradient with respect to the (padded) input, shape ``x_shape``.
    """
    n, h, w, c = x_shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    cols = cols.reshape(n, oh, ow, kh, kw, c)
    out = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, i:i + stride * oh:stride, j:j + stride * ow:stride, :] += \
                cols[:, :, :, i, j, :]
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient of ReLU given the pre-activation ``x``."""
    return grad * (x > 0)


def relu6(x: np.ndarray) -> np.ndarray:
    """ReLU clipped at 6, as used by the MobileNet family."""
    return np.clip(x, 0.0, 6.0)


def relu6_grad(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient of ReLU6 given the pre-activation ``x``."""
    return grad * ((x > 0) & (x < 6.0))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
