"""Numpy kernels of the models' layers and their adjoints, on which the
attack, prior training and the autodiff engine's ops all compute.

Images are float64 NCHW and conv kernels OCkk.  Convs run on channel-major
patch matrices [C*k*k, N*OH*OW] (``im2col``) and fold back with ``col2im``.
A stored value (a parameter, a shared gradient, a client batch) is
``frozen``: a C-ordered float64 copy that nothing can write.
"""

from __future__ import annotations

import mmap
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, DimensionError


def frozen(data) -> np.ndarray:
    """A read-only, C-ordered float64 copy of ``data``, whatever its layout."""
    arr = np.array(data, dtype=np.float64, order="C")
    arr.setflags(write=False)
    return arr


def dot(a, b) -> float:
    """sum_i <a_i, b_i> over equal-shape array segments, the per-segment sums
    added in segment order."""
    out = 0.0
    for x, y in zip(a, b):
        out += (x * y).sum()
    return float(out)


def onehot(labels, n: int, k: int) -> np.ndarray:
    """[N, K] one-hot rows of integer labels, checked against the logits' shape."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != n:
        raise DimensionError(f"labels shape {labels.shape} does not match logits {(n, k)}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ArgumentError("labels must be integers")
    if labels.min() < 0 or labels.max() >= k:
        raise ArgumentError(f"labels must lie in [0, {k}), got range "
                            f"[{labels.min()}, {labels.max()}]")
    out = np.zeros((n, k))
    out[np.arange(n), labels] = 1.0
    return out


def conv_out_hw(h: int, w: int, k: int, stride: int, padding: int) -> tuple[int, int]:
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    return oh, ow


def im2col(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """Unfold NCHW into channel-major patch columns: [C*k*k, N*OH*OW].

    Row (c, ki, kj) holds tap (ki, kj) of channel c at every output pixel, in
    (n, oh, ow) order.  The padded canvas is laid out [C, N, H, W], so each of
    the k*k tap copies moves whole contiguous (N, OH, OW) planes per channel.
    """
    n, c, h, w = x.shape
    oh, ow = conv_out_hw(h, w, k, stride, padding)
    xc = x.transpose(1, 0, 2, 3)
    if padding:
        xp = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = xc
    else:
        xp = xc
    cols = np.empty((c, k, k, n, oh, ow), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[:, ki, kj] = xp[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride]
    return cols.reshape(c * k * k, n * oh * ow)


def col2im(cols: np.ndarray, xshape, k: int, stride: int, padding: int) -> np.ndarray:
    """Fold channel-major patch columns [C*k*k, N*OH*OW] (the layout of
    ``im2col``) back onto an NCHW canvas, summing overlaps.

    One ``np.bincount`` over the cached ``fold_index``: it adds each
    element's contributions in the columns' (ki, kj) order, starting from
    0.0, which is the order of one strided slice-add per tap over a zeroed
    canvas, so the result is the same to the last bit.
    """
    n, c, h, w = xshape
    size = n * c * h * w
    out = np.bincount(fold_index(n, c, h, w, k, stride, padding),
                      weights=cols.ravel(), minlength=size + 1)
    return out[:size].reshape(n, c, h, w)


@lru_cache(maxsize=64)
def fold_index(n: int, c: int, h: int, w: int, k: int, stride: int,
               padding: int) -> np.ndarray:
    """Flat NCHW position of every patch-matrix entry, in the matrix's order;
    taps that land in the padding go to position N*C*H*W, one past the end.
    The array is shared by every fold of its geometry: never write to it."""
    oh, ow = conv_out_hw(h, w, k, stride, padding)
    size = n * c * h * w
    r = np.arange(k)[:, None] + stride * np.arange(oh) - padding       # [k, oh]
    s = np.arange(k)[:, None] + stride * np.arange(ow) - padding       # [k, ow]
    inside = ((r >= 0) & (r < h))[:, None, :, None] & ((s >= 0) & (s < w))[None, :, None, :]
    # [k, k, oh, ow]; a padding tap gets `size`, which no offset brings back in range
    pos = np.where(inside, r[:, None, :, None] * w + s[None, :, None, :], size)
    offset = (np.arange(n) * c + np.arange(c)[:, None]) * (h * w)       # [c, n]
    # the index lives in its own anonymous mapping: kept in the malloc heap,
    # a long-lived array fragments the space the transient arrays reuse
    count = c * k * k * n * oh * ow
    index = np.frombuffer(mmap.mmap(-1, max(count, 1) * np.dtype(np.intp).itemsize),
                          dtype=np.intp)[:count]
    np.add(offset[:, None, None, :, None, None], pos[None, :, :, None, :, :],
           out=index.reshape(c, k, k, n, oh, ow))
    np.minimum(index, size, out=index)
    # left writeable: bincount copies a read-only index on every call
    return index


def _channel_major(g: np.ndarray) -> np.ndarray:
    # NCHW -> [C, N*H*W], the column order of im2col (a view at N = 1)
    return g.transpose(1, 0, 2, 3).reshape(g.shape[1], -1)


def _nchw(cm: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    # [C, N*H*W] -> contiguous NCHW (a reshape at N = 1)
    return np.ascontiguousarray(cm.reshape(-1, n, h, w).transpose(1, 0, 2, 3))


def conv2d(cols: np.ndarray, kernels: np.ndarray, nhw, stride: int, padding: int,
           bias: np.ndarray | None = None) -> np.ndarray:
    """2-d cross-correlation with zero padding and an optional bias [O],
    from the patch matrix of an [N, C, *hw] input."""
    n, h, w = nhw
    o, _, k, _ = kernels.shape
    out = kernels.reshape(o, -1) @ cols                               # [o, n*oh*ow]
    if bias is not None:
        out += bias[:, None]
    return _nchw(out, n, *conv_out_hw(h, w, k, stride, padding))


def conv2d_dx(g: np.ndarray, kernels: np.ndarray, hw, stride: int,
              padding: int) -> np.ndarray:
    """Input adjoint of conv2d: the transposed conv of g onto [N, C, *hw].

    At stride 1 with padding <= k-1 it is a stride-1 correlation of g, padded
    by k-1-padding, with the kernels flipped in both spatial axes and their
    channel axes swapped (Dumoulin & Visin, arXiv 1603.07285): an im2col of
    g's O channels.  Otherwise it is the fold (col2im) of W^T . g, whose
    C*k*k columns a dilated g would only make larger at stride 2.
    """
    o, c, k, _ = kernels.shape
    n = g.shape[0]
    if stride == 1 and padding <= k - 1:
        flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * k * k)
        return _nchw(flipped @ im2col(g, k, 1, k - 1 - padding), n, *hw)
    cols = kernels.reshape(o, c * k * k).T @ _channel_major(g)
    return col2im(cols, (n, c) + tuple(hw), k, stride, padding)


def conv2d_dw(cols: np.ndarray, g: np.ndarray, c: int, k: int) -> np.ndarray:
    """Kernel adjoint of conv2d: g . cols^T, shaped [O, C, k, k], where
    ``cols`` is the patch matrix of the conv's input."""
    return (_channel_major(g) @ cols.T).reshape(g.shape[1], c, k, k)


# The decoder layer, nearest x2 upsampling followed by a k3/s1/p1 conv, in
# sub-pixel form (Shi et al., arXiv 1609.05158).  Along each axis, output
# phase a (the parity of the output index) of that pair is a k2/p1 conv of
# the low-resolution input whose tap s sums the k3 taps u with
# _PHASE_TAPS[a, s, u] = 1.
_PHASE_TAPS = np.array([[[1, 0, 0], [0, 1, 1]],
                        [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)
# both axes at once: row (a, b, s, t), column (u, v) of the 3x3 taps
_PHASE_MIX = np.einsum("asu,btv->abstuv", _PHASE_TAPS, _PHASE_TAPS).reshape(16, 9)


def phase_kernels(w: np.ndarray) -> np.ndarray:
    """[O, C, 3, 3] kernels -> [4*O, 4*C] phase kernels: row (a, b, o), column
    (c, s, t), the row order of ``im2col`` with k = 2."""
    o, c = w.shape[:2]
    k = (w.reshape(o * c, 9) @ _PHASE_MIX.T).reshape(o, c, 2, 2, 2, 2)
    return k.transpose(2, 3, 0, 1, 4, 5).reshape(4 * o, 4 * c)


def _phases(planes: np.ndarray, out: np.ndarray):
    """Pairs of views, one per output phase (a, b): the phase product's
    [2, 2, O, N, H+1, W+1] planes at (i + a, j + b), and the [N, O, 2H, 2W]
    output at (2i + a, 2j + b), both laid out [O, N, H, W]."""
    n, o, h2, w2 = out.shape
    h, w = h2 // 2, w2 // 2
    out6 = out.reshape(n, o, h, 2, w, 2)
    return [(planes[a, b, :, :, a:a + h, b:b + w], out6[:, :, :, a, :, b].transpose(1, 0, 2, 3))
            for a in range(2) for b in range(2)]


def _phase_planes(g: np.ndarray) -> np.ndarray:
    """Cotangent of an upsample2_conv2d output as the phase product's
    [4*O, N*(H+1)*(W+1)]; the positions no output reads stay zero."""
    n, o, h2, w2 = g.shape
    planes = np.zeros((2, 2, o, n, h2 // 2 + 1, w2 // 2 + 1), dtype=g.dtype)
    for plane, phase in _phases(planes, g):
        plane[...] = phase
    return planes.reshape(4 * o, -1)


def upsample2_conv2d(x: np.ndarray, kmat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The decoder layer on NCHW ``x``, from its [4*O, 4*C] phase kernels
    ``kmat`` and bias ``b``: one k2/p1 patch matrix of x, one product with
    the phase kernels and one interleave of the four output phases, so the
    upsampled tensor is never built."""
    n, _, h, w = x.shape
    o = b.shape[0]
    prod = kmat @ im2col(x, 2, 1, 1)                        # [4o, n*(h+1)*(w+1)]
    prod.reshape(4, o, -1)[...] += b[:, None]
    out = np.empty((n, o, 2 * h, 2 * w), dtype=prod.dtype)
    for plane, phase in _phases(prod.reshape(2, 2, o, n, h + 1, w + 1), out):
        phase[...] = plane
    return out


def upsample2_conv2d_dx(g: np.ndarray, kmat: np.ndarray) -> np.ndarray:
    """Input adjoint of upsample2_conv2d: the transposed phase conv."""
    n, o, h2, w2 = g.shape
    h, w = h2 // 2, w2 // 2
    planes = _phase_planes(g).reshape(4 * o, n, h + 1, w + 1).transpose(1, 0, 2, 3)
    return conv2d_dx(planes, kmat.reshape(4 * o, -1, 2, 2), (h, w), 1, 1)


def upsample2_conv2d_dw(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Kernel adjoint of upsample2_conv2d: the phase-kernel gradient mapped
    back onto the 3x3 taps.  It unfolds x itself: holding the forward's
    patch matrix costs a prior-training batch more memory than the unfold
    costs time."""
    o, c = g.shape[1], x.shape[1]
    dk = (_phase_planes(g) @ im2col(x, 2, 1, 1).T).reshape(2, 2, o, c, 2, 2)
    return (dk.transpose(2, 3, 0, 1, 4, 5).reshape(o * c, 16) @ _PHASE_MIX).reshape(o, c, 3, 3)
