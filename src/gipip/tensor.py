"""Reverse-mode automatic differentiation on dense numpy arrays.

``backward`` can emit a result that is itself part of the graph
(``create_graph=True``), so every primitive expresses its vector-Jacobian
product in terms of other primitives; nothing drops to raw numpy on the
backward path unless gradients are globally off.  The attack no longer
relies on it: its whole objective (``losses.total_objective``) is one
``first_order`` node whose vjp is numpy, built on this module's private
``*_data`` conv and sub-pixel kernels, and which refuses
``create_graph=True``.  The decoder layer ``upsample2_conv2d`` is a
``first_order`` node on the same kernels.

Conventions:
  * arrays are float64,
  * node outputs are frozen (numpy writeable flag cleared),
  * broadcasting is explicit except for rank-0 scalars, which may combine
    with any shape,
  * ``backward`` only accepts a scalar output and returns one cotangent per
    requested variable, zeros when the variable is unreachable,
  * leaves pickle by value and unpickle as fresh leaves with new ids;
    nodes made by an op do not pickle.
"""

from __future__ import annotations

import itertools
import mmap
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ArgumentError, DimensionError

_ids = itertools.count()
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (plain numpy speed)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A node in the computation graph: an array plus how it was made."""

    __slots__ = ("data", "requires_grad", "op", "parents", "vjps", "nid", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        # public constructor never aliases caller memory, and its copy is
        # C-ordered whatever the layout of the source
        arr = np.array(data, dtype=np.float64, order="C")
        arr.setflags(write=False)
        self.data = arr
        # leaf declaration is independent of no_grad, which only stops
        # op recording; a variable built inside no_grad is still a variable
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self.parents: tuple[Tensor, ...] = ()
        self.vjps: tuple = ()
        self.nid = next(_ids)

    @classmethod
    def _wrap(cls, data: np.ndarray, op: str, parents: tuple, vjps: tuple) -> "Tensor":
        # internal: takes ownership of a fresh array, no copy
        t = cls.__new__(cls)
        data.setflags(write=False)
        t.data = data
        t.requires_grad = bool(parents)
        t.op = op
        t.parents = parents
        t.vjps = vjps
        t.nid = next(_ids)
        return t

    def __reduce__(self):
        # rebuild through the constructor: backward orders and keys its
        # sweep by nid, so a restored id could collide with the nodes of
        # the unpickling process; the constructor draws a fresh one
        if self.op != "leaf":
            raise ArgumentError(f"only leaf tensors pickle, not a '{self.op}' node")
        return Tensor, (self.data, self.requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ArgumentError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Writable copy of the values, detached from the graph."""
        return self.data.copy()

    def sum(self) -> "Tensor":
        return _sum_full(self)

    def mean(self) -> "Tensor":
        return mean(self)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op}{flag})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def variable(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return constant(float(x))
    if isinstance(x, np.ndarray):
        return constant(x)
    raise ArgumentError(f"cannot treat {type(x).__name__} as a tensor")


def _binary_shapes(name: str, a: Tensor, b: Tensor) -> tuple[int, ...]:
    # equal shapes, or one side is a scalar; anything else is on the caller
    if a.shape == b.shape:
        return a.shape
    if a.ndim == 0:
        return b.shape
    if b.ndim == 0:
        return a.shape
    raise DimensionError(f"{name}: shapes {a.shape} and {b.shape} do not match "
                         "(only rank-0 scalars broadcast implicitly)")


def _reduce_like(g: Tensor, target: Tensor) -> Tensor:
    # undo implicit scalar broadcasting on the way back
    if g.shape == target.shape:
        return g
    if target.ndim == 0:
        return _sum_full(g)
    raise DimensionError(f"cannot reduce cotangent {g.shape} to {target.shape}")


def _node(data: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp_builder):
    """Record a node if gradients are on and any parent needs them.

    ``vjp_builder`` receives the created node so vjps that reuse the forward
    output (exp, sqrt, sigmoid) can reference it *as a graph node*; saving it
    as a detached constant would silently drop second-order terms.  They
    hold it through a weak reference: a strong one would make node -> vjps
    -> closure -> node a reference cycle, so every graph would wait for the
    cyclic collector.  The node is alive whenever backward calls its vjps.
    """
    if _grad_enabled and any(p.requires_grad for p in parents):
        t = Tensor._wrap(data, op, parents, ())
        t.vjps = vjp_builder(t)
        return t
    return Tensor._wrap(data, op, (), ())


# ---------------------------------------------------------------------------
# elementwise primitives

def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _binary_shapes("add", a, b)
    out = a.data + b.data
    return _node(out, "add", (a, b), lambda out: (
        lambda g: _reduce_like(g, a),
        lambda g: _reduce_like(g, b),
    ))


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _binary_shapes("sub", a, b)
    out = a.data - b.data
    return _node(out, "sub", (a, b), lambda out: (
        lambda g: _reduce_like(g, a),
        lambda g: _reduce_like(neg(g), b),
    ))


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _binary_shapes("mul", a, b)
    out = a.data * b.data
    return _node(out, "mul", (a, b), lambda out: (
        lambda g: _reduce_like(mul(g, b), a),
        lambda g: _reduce_like(mul(g, a), b),
    ))


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _binary_shapes("div", a, b)
    out = a.data / b.data
    return _node(out, "div", (a, b), lambda out: (
        lambda g: _reduce_like(div(g, b), a),
        lambda g: _reduce_like(neg(div(mul(g, a), mul(b, b))), b),
    ))


def neg(a) -> Tensor:
    a = _coerce(a)
    return _node(-a.data, "neg", (a,), lambda out: (lambda g: neg(g),))


def relu(a) -> Tensor:
    a = _coerce(a)
    out = np.maximum(a.data, 0.0)
    mask = (a.data > 0).astype(a.data.dtype)

    def build(_):
        m = Tensor._wrap(mask, "leaf", (), ())  # wrapped once, not copied
        return (lambda g: mul(g, m),)

    return _node(out, "relu", (a,), build)


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    with np.errstate(over="ignore"):
        out_data = np.where(a.data >= 0,
                            1.0 / (1.0 + np.exp(-np.abs(a.data))),
                            np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))
    out_data = out_data.astype(a.data.dtype, copy=False)

    def build(out):
        # out is the sigmoid node itself; differentiating through it keeps
        # second derivatives exact
        out = weakref.ref(out)
        return (lambda g: mul(g, mul(out(), sub(1.0, out()))),)

    return _node(out_data, "sigmoid", (a,), build)


def exp(a) -> Tensor:
    a = _coerce(a)

    def build(out):
        out = weakref.ref(out)
        return (lambda g: mul(g, out()),)

    return _node(np.exp(a.data), "exp", (a,), build)


def log(a) -> Tensor:
    a = _coerce(a)
    out = np.log(a.data)
    return _node(out, "log", (a,), lambda out: (lambda g: div(g, a),))


def sqrt(a) -> Tensor:
    a = _coerce(a)

    def build(out):
        out = weakref.ref(out)
        return (lambda g: div(mul(g, 0.5), out()),)

    return _node(np.sqrt(a.data), "sqrt", (a,), build)


# ---------------------------------------------------------------------------
# shape primitives

def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    shape = tuple(int(s) for s in (shape if hasattr(shape, "__iter__") else (shape,)))
    n = 1
    for s in shape:
        n *= s
    if n != a.size:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}")
    out = a.data.reshape(shape)  # node data is frozen, so a view is safe
    return _node(out, "reshape", (a,), lambda out: (lambda g: reshape(g, a.shape),))


def broadcast_to(a, shape) -> Tensor:
    a = _coerce(a)
    shape = tuple(int(s) for s in shape)
    if a.ndim == 0:
        pass  # scalars broadcast anywhere
    elif a.ndim != len(shape):
        raise DimensionError(f"broadcast_to: rank {a.ndim} vs target {shape}; "
                             "ranks must match (insert axes with reshape first)")
    else:
        for src, dst in zip(a.shape, shape):
            if src != dst and src != 1:
                raise DimensionError(f"broadcast_to: {a.shape} cannot expand to {shape}")
    out = np.ascontiguousarray(np.broadcast_to(a.data, shape))

    def build(_):
        if a.ndim == 0:
            return (lambda g: _sum_full(g),)
        return (lambda g: sum_to(g, a.shape),)

    return _node(out, "broadcast_to", (a,), build)


def sum_to(a, shape) -> Tensor:
    """Sum axes of ``a`` down to ``shape`` (the adjoint of broadcast_to)."""
    a = _coerce(a)
    shape = tuple(int(s) for s in shape)
    if a.ndim != len(shape):
        raise DimensionError(f"sum_to: rank {a.ndim} vs target {shape}")
    axes = []
    for i, (src, dst) in enumerate(zip(a.shape, shape)):
        if src == dst:
            continue
        if dst != 1:
            raise DimensionError(f"sum_to: {a.shape} cannot reduce to {shape}")
        axes.append(i)
    out = a.data.sum(axis=tuple(axes), keepdims=True) if axes else a.data.copy()
    return _node(out, "sum_to", (a,), lambda out: (lambda g: broadcast_to(g, a.shape),))


def _sum_full(a) -> Tensor:
    a = _coerce(a)
    out = np.asarray(a.data.sum(), dtype=a.data.dtype)
    return _node(out, "sum", (a,), lambda out: (lambda g: broadcast_to(g, a.shape),))


def mean(a) -> Tensor:
    a = _coerce(a)
    if a.size == 0:
        raise ArgumentError("mean of an empty tensor")
    return mul(_sum_full(a), 1.0 / a.size)


def slice_hw(a, hs: int, he: int, ws: int, we: int) -> Tensor:
    """Spatial crop of an NCHW tensor along the last two axes."""
    a = _coerce(a)
    if a.ndim != 4:
        raise DimensionError(f"slice_hw expects NCHW, got rank {a.ndim}")
    n, c, h, w = a.shape
    if not (0 <= hs <= he <= h and 0 <= ws <= we <= w):
        raise ArgumentError(f"slice_hw: window [{hs}:{he}, {ws}:{we}] outside {h}x{w}")
    out = np.ascontiguousarray(a.data[:, :, hs:he, ws:we])
    return _node(out, "slice_hw", (a,),
                 lambda out: (lambda g: embed_hw(g, (h, w), hs, ws),))


def embed_hw(a, hw: tuple[int, int], hs: int, ws: int) -> Tensor:
    """Place an NCHW tensor into a zero canvas of spatial size ``hw``."""
    a = _coerce(a)
    if a.ndim != 4:
        raise DimensionError(f"embed_hw expects NCHW, got rank {a.ndim}")
    n, c, h, w = a.shape
    ch, cw = int(hw[0]), int(hw[1])
    if hs < 0 or ws < 0 or hs + h > ch or ws + w > cw:
        raise ArgumentError(f"embed_hw: {h}x{w} at ({hs},{ws}) exceeds canvas {ch}x{cw}")
    out = np.zeros((n, c, ch, cw), dtype=a.data.dtype)
    out[:, :, hs:hs + h, ws:ws + w] = a.data
    return _node(out, "embed_hw", (a,),
                 lambda out: (lambda g: slice_hw(g, hs, hs + h, ws, ws + w),))


# ---------------------------------------------------------------------------
# linear algebra and convolution

def _matmul(a: Tensor, b: Tensor, ta: bool, tb: bool) -> Tensor:
    # op(a) @ op(b), op transposing where its flag is set; the vjps of every
    # flag combination are again such products, so no transpose is recorded
    out = (a.data.T if ta else a.data) @ (b.data.T if tb else b.data)
    return _node(out, "matmul", (a, b), lambda out: (
        (lambda g: _matmul(b, g, tb, True)) if ta else (lambda g: _matmul(g, b, False, not tb)),
        (lambda g: _matmul(g, a, True, ta)) if tb else (lambda g: _matmul(a, g, not ta, False)),
    ))


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects matrices, got ranks {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims {a.shape} @ {b.shape}")
    return _matmul(a, b, False, False)


def _bias_sum(g: Tensor) -> Tensor:
    """Sum over every axis but 1: [N, C, ...] -> [C] (adjoint of _bias_broadcast)."""
    shape = g.shape
    out = g.data.sum(axis=(0,) + tuple(range(2, g.ndim)))
    return _node(out, "bias_sum", (g,), lambda out: (lambda h: _bias_broadcast(h, shape),))


def _bias_broadcast(b: Tensor, shape) -> Tensor:
    """Repeat a [C] vector along axis 1 of ``shape`` (adjoint of _bias_sum)."""
    out = np.empty(shape, dtype=b.data.dtype)
    out[...] = b.data.reshape((1, -1) + (1,) * (len(shape) - 2))
    return _node(out, "bias_broadcast", (b,), lambda out: (_bias_sum,))


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w.T + b`` of a batch of rows: [N, D], [K, D], [K] -> [N, K]."""
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise DimensionError(f"linear expects [N, D], [K, D], [K], got "
                             f"{x.shape}, {w.shape}, {b.shape}")
    if x.shape[1] != w.shape[1] or b.shape[0] != w.shape[0]:
        raise DimensionError(f"linear: {x.shape} against weights {w.shape}, bias {b.shape}")
    out = x.data @ w.data.T
    out += b.data
    return _node(out, "linear", (x, w, b), lambda out: (
        lambda g: _matmul(g, w, False, False),
        lambda g: _matmul(g, x, True, False),
        _bias_sum,
    ))


def dot(a, b) -> Tensor:
    """Sum of the elementwise product of two equal-shape tensors, a scalar.

    ``a`` and ``b`` may also be equal-length tuples of segments: the result
    is then sum_i <a_i, b_i> as one node, the per-segment sums added in
    segment order, with one vjp per segment.
    """
    if not isinstance(a, tuple):
        a, b = (a,), (b,)
    if not isinstance(b, tuple) or len(a) != len(b) or not a:
        raise ArgumentError("dot: segments must be two non-empty tuples of equal length")
    a, b = tuple(map(_coerce, a)), tuple(map(_coerce, b))
    for x, y in zip(a, b):
        if x.shape != y.shape:
            raise DimensionError(f"dot: shapes {x.shape} and {y.shape} do not match")
    out = _dot_data([x.data for x in a], [y.data for y in b])
    return _node(np.asarray(out, dtype=np.float64), "dot", a + b, lambda out: (
        tuple(lambda g, y=y: mul(g, y) for y in b) + tuple(lambda g, x=x: mul(g, x) for x in a)
    ))


def _dot_data(a, b) -> float:
    """sum_i <a_i, b_i> over equal-shape array segments, the per-segment sums
    added in segment order: the value of ``dot`` on those segments."""
    out = 0.0
    for x, y in zip(a, b):
        out += (x * y).sum()
    return float(out)


# Sub-pixel form of nearest x2 upsampling followed by a k3/s1/p1 conv (Shi
# et al., arXiv 1609.05158).  Along each axis, output phase a (the parity of
# the output index) of that pair is a k2/p1 conv of the low-resolution
# input whose tap s sums the k3 taps u with _PHASE_TAPS[a, s, u] = 1.
_PHASE_TAPS = np.array([[[1, 0, 0], [0, 1, 1]],
                        [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)
# both axes at once: row (a, b, s, t), column (u, v) of the 3x3 taps
_PHASE_MIX = np.einsum("asu,btv->abstuv", _PHASE_TAPS, _PHASE_TAPS).reshape(16, 9)


def _phase_kernels(w: np.ndarray) -> np.ndarray:
    """[O, C, 3, 3] kernels -> [4*O, 4*C] phase kernels: row (a, b, o), column
    (c, s, t), the row order of ``_im2col_data`` with k = 2."""
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


def _upsample2_conv2d_data(x: np.ndarray, kmat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """upsample2_conv2d on arrays, from the [4*O, 4*C] phase kernels ``kmat``."""
    n, _, h, w = x.shape
    o = b.shape[0]
    prod = kmat @ _im2col_data(x, 2, 1, 1)                  # [4o, n*(h+1)*(w+1)]
    prod.reshape(4, o, -1)[...] += b[:, None]
    out = np.empty((n, o, 2 * h, 2 * w), dtype=prod.dtype)
    for plane, phase in _phases(prod.reshape(2, 2, o, n, h + 1, w + 1), out):
        phase[...] = plane
    return out


def _upsample2_conv2d_dx_data(g: np.ndarray, kmat: np.ndarray) -> np.ndarray:
    """Input adjoint of upsample2_conv2d on arrays: the transposed phase conv."""
    n, o, h2, w2 = g.shape
    h, w = h2 // 2, w2 // 2
    planes = _phase_planes(g).reshape(4 * o, n, h + 1, w + 1).transpose(1, 0, 2, 3)
    return _conv2d_dx_data(planes, kmat.reshape(4 * o, -1, 2, 2), (h, w), 1, 1)


def _upsample2_conv2d_dw_data(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Kernel adjoint of upsample2_conv2d on arrays: the phase-kernel gradient
    mapped back onto the 3x3 taps.  It unfolds x itself: holding the
    forward's patch matrix costs a prior-training batch more memory than the
    unfold costs time."""
    o, c = g.shape[1], x.shape[1]
    dk = (_phase_planes(g) @ _im2col_data(x, 2, 1, 1).T).reshape(2, 2, o, c, 2, 2)
    return (dk.transpose(2, 3, 0, 1, 4, 5).reshape(o * c, 16) @ _PHASE_MIX).reshape(o, c, 3, 3)


def upsample2_conv2d(x, w, b) -> Tensor:
    """Nearest-neighbour x2 upsampling of NCHW, then a k3/s1/p1 conv with bias.

    The value is ``conv2d(upsample2(x), w, 1, 1, bias=b)``, computed without
    the upsampled tensor: one k2/p1 patch matrix of x, one [4*O, 4*C]
    product with the phase kernels and one interleave of the four output
    phases.  The vjps are numpy (``first_order``): the input's is the
    transposed phase conv, the kernel's maps the phase-kernel gradient back
    onto the 3x3 taps through the same tap-mixing matrix, the bias's a sum.
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if x.ndim != 4:
        raise DimensionError(f"upsample2_conv2d input must be NCHW, got rank {x.ndim}")
    c = x.shape[1]
    o = w.shape[0]
    if w.shape != (o, c, 3, 3) or b.shape != (o,):
        raise DimensionError(f"upsample2_conv2d: input {x.shape} against kernels "
                             f"{w.shape} (want [O, {c}, 3, 3]), bias {b.shape}")
    kmat = _phase_kernels(w.data)
    return first_order("upsample2_conv2d", _upsample2_conv2d_data(x.data, kmat, b.data),
                       (x, w, b), (lambda g: _upsample2_conv2d_dx_data(g, kmat),
                                   lambda g: _upsample2_conv2d_dw_data(x.data, g),
                                   lambda g: g.sum(axis=(0, 2, 3))))


def _conv_out_hw(h: int, w: int, k: int, stride: int, padding: int) -> tuple[int, int]:
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    return oh, ow


def _im2col_data(x: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """Unfold NCHW into channel-major patch columns: [C*k*k, N*OH*OW].

    Row (c, ki, kj) holds tap (ki, kj) of channel c at every output pixel, in
    (n, oh, ow) order.  The padded canvas is laid out [C, N, H, W], so each of
    the k*k tap copies moves whole contiguous (N, OH, OW) planes per channel.
    """
    n, c, h, w = x.shape
    oh, ow = _conv_out_hw(h, w, k, stride, padding)
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


def _col2im_data(cols: np.ndarray, xshape, k: int, stride: int, padding: int) -> np.ndarray:
    """Fold channel-major patch columns [C*k*k, N*OH*OW] (the layout of
    ``_im2col_data``) back onto an NCHW canvas, summing overlaps.

    One ``np.bincount`` over the cached ``_fold_index``: it adds each
    element's contributions in the columns' (ki, kj) order, starting from
    0.0, which is the order of one strided slice-add per tap over a zeroed
    canvas, so the result is the same to the last bit.
    """
    n, c, h, w = xshape
    size = n * c * h * w
    out = np.bincount(_fold_index(n, c, h, w, k, stride, padding),
                      weights=cols.ravel(), minlength=size + 1)
    return out[:size].reshape(n, c, h, w)


@lru_cache(maxsize=64)
def _fold_index(n: int, c: int, h: int, w: int, k: int, stride: int,
                padding: int) -> np.ndarray:
    """Flat NCHW position of every patch-matrix entry, in the matrix's order;
    taps that land in the padding go to position N*C*H*W, one past the end.
    The array is shared by every fold of its geometry: never write to it."""
    oh, ow = _conv_out_hw(h, w, k, stride, padding)
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


def _check_conv_geometry(h, w, k, stride, padding):
    if k < 1 or stride < 1 or padding < 0:
        raise ArgumentError(f"conv geometry: k={k}, stride={stride}, padding={padding}")
    if k > h + 2 * padding or k > w + 2 * padding:
        raise DimensionError(f"kernel {k}x{k} larger than padded input "
                             f"{h + 2 * padding}x{w + 2 * padding}")


def _channel_major(g: np.ndarray) -> np.ndarray:
    # NCHW -> [C, N*H*W], the column order of _im2col_data (a view at N = 1)
    return g.transpose(1, 0, 2, 3).reshape(g.shape[1], -1)


def _nchw(cm: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    # [C, N*H*W] -> contiguous NCHW (a reshape at N = 1)
    return np.ascontiguousarray(cm.reshape(-1, n, h, w).transpose(1, 0, 2, 3))


def conv2d(x, kernels, stride: int = 1, padding: int = 0, bias=None) -> Tensor:
    """2-d cross-correlation, NCHW input against OCkk kernels, zero padding,
    plus an optional per-output-channel bias [O]."""
    x, kernels = _coerce(x), _coerce(kernels)
    if x.ndim != 4:
        raise DimensionError(f"conv2d input must be NCHW, got rank {x.ndim}")
    if kernels.ndim != 4:
        raise DimensionError(f"conv2d kernels must be OCkk, got rank {kernels.ndim}")
    n, c, h, w = x.shape
    o, ck, kh, kw = kernels.shape
    if kh != kw:
        raise DimensionError(f"conv2d kernels must be square, got {kh}x{kw}")
    if ck != c:
        raise DimensionError(f"conv2d channels: input has {c}, kernels expect {ck}")
    _check_conv_geometry(h, w, kh, stride, padding)
    cols = _im2col_data(x.data, kh, stride, padding)
    parents = (x, kernels)
    if bias is not None:
        bias = _coerce(bias)
        if bias.shape != (o,):
            raise DimensionError(f"conv2d bias must be [{o}], got {bias.shape}")
        parents += (bias,)
    out = _conv2d_data(cols, kernels.data, (n, h, w), stride, padding,
                       None if bias is None else bias.data)
    # d/dx is the transposed conv, d/dkernels the g . im2col^T product; that
    # unfolds x again rather than hold the patch matrix for the graph's life
    return _node(out, "conv2d", parents, lambda out: (
        lambda g: _conv2d_dx(g, kernels, (h, w), stride, padding),
        lambda g: _conv2d_dw(x, g, kh, stride, padding),
        _bias_sum,
    )[:len(parents)])


def _conv2d_data(cols: np.ndarray, kernels: np.ndarray, nhw, stride: int, padding: int,
                 bias: np.ndarray | None = None) -> np.ndarray:
    """conv2d on arrays, from the patch matrix of an [N, C, *hw] input."""
    n, h, w = nhw
    o, _, k, _ = kernels.shape
    out = kernels.reshape(o, -1) @ cols                               # [o, n*oh*ow]
    if bias is not None:
        out += bias[:, None]
    return _nchw(out, n, *_conv_out_hw(h, w, k, stride, padding))


def _conv2d_dx_data(g: np.ndarray, kernels: np.ndarray, hw, stride: int,
                    padding: int) -> np.ndarray:
    """Input adjoint of conv2d on arrays: the transposed conv of g onto [N, C, *hw].

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
        return _nchw(flipped @ _im2col_data(g, k, 1, k - 1 - padding), n, *hw)
    cols = kernels.reshape(o, c * k * k).T @ _channel_major(g)
    return _col2im_data(cols, (n, c) + tuple(hw), k, stride, padding)


def _conv2d_dw_data(cols: np.ndarray, g: np.ndarray, c: int, k: int) -> np.ndarray:
    """Kernel adjoint of conv2d on arrays: g . cols^T, shaped [O, C, k, k],
    where ``cols`` is the patch matrix of the conv's input."""
    return (_channel_major(g) @ cols.T).reshape(g.shape[1], c, k, k)


def _conv2d_dx(g: Tensor, kernels: Tensor, hw, stride: int, padding: int) -> Tensor:
    """Input adjoint of conv2d as a graph node (see ``_conv2d_dx_data``)."""
    k = kernels.shape[2]
    out = _conv2d_dx_data(g.data, kernels.data, hw, stride, padding)
    return _node(out, "conv2d_dx", (g, kernels), lambda out: (
        lambda h: conv2d(h, kernels, stride, padding),
        lambda h: _conv2d_dw(h, g, k, stride, padding),
    ))


def _conv2d_dw(x: Tensor, g: Tensor, k: int, stride: int, padding: int) -> Tensor:
    """Kernel adjoint of conv2d as a graph node: g . im2col(x)^T."""
    cols = _im2col_data(x.data, k, stride, padding)
    out = _conv2d_dw_data(cols, g.data, x.shape[1], k)
    hw = x.shape[2:]
    return _node(out, "conv2d_dw", (x, g), lambda out: (
        lambda h: _conv2d_dx(g, h, hw, stride, padding),
        lambda h: conv2d(x, h, stride, padding),
    ))


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels.

    The row max is subtracted as a detached constant before exponentiation;
    that shift is an exact identity, so gradients of every order match the
    unshifted expression while staying finite for large logits.
    """
    logits = _coerce(logits)
    if logits.ndim != 2:
        raise DimensionError(f"softmax_cross_entropy expects [N, K] logits, got {logits.shape}")
    n, k = logits.shape
    onehot = _onehot(labels, n, k)
    m = logits.data.max(axis=1, keepdims=True)
    shifted = sub(logits, constant(np.broadcast_to(m, (n, k))))
    lse = add(log(sum_to(exp(shifted), (n, 1))), constant(m))      # [n, 1]
    picked = sum_to(mul(logits, constant(onehot)), (n, 1))         # [n, 1]
    return mean(sub(lse, picked))


def _onehot(labels, n: int, k: int) -> np.ndarray:
    """[N, K] one-hot rows of integer labels, checked against the logits' shape."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != n:
        raise DimensionError(f"labels shape {labels.shape} does not match logits {(n, k)}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ArgumentError("labels must be integers")
    if labels.min() < 0 or labels.max() >= k:
        raise ArgumentError(f"labels must lie in [0, {k}), got range "
                            f"[{labels.min()}, {labels.max()}]")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    return onehot


def first_order(op: str, value, parents: tuple[Tensor, ...], vjps: tuple) -> Tensor:
    """A node whose vjps are computed in numpy: ``vjps[i](g)`` maps the
    output cotangent's array to the array of ``parents[i]``.

    It serves a fused function whose derivative is written by hand (the
    attack objective and its terms, the autoencoder, the sub-pixel decoder
    layer).  Its cotangents are constants, so differentiating through it
    again would silently drop every second-order term;
    ``backward(create_graph=True)`` raises instead.
    """
    def vjp_node(vjp):
        def run(g):
            if _grad_enabled:
                raise ArgumentError(f"'{op}' is first-order only: "
                                    "it cannot be differentiated with create_graph=True")
            return Tensor._wrap(vjp(g.data), "leaf", (), ())
        return run

    return _node(np.asarray(value, dtype=np.float64), op, parents,
                 lambda out: tuple(map(vjp_node, vjps)))


# ---------------------------------------------------------------------------
# backward

def backward(out: Tensor, wrt, create_graph: bool = False) -> dict[int, Tensor]:
    """Cotangents of a scalar ``out`` with respect to each tensor in ``wrt``.

    Returns a dict keyed by node id.  With ``create_graph=True`` the returned
    tensors are themselves graph nodes and can be differentiated again; the
    default detaches them (fast path, no recording).  Variables the output
    does not depend on get zero cotangents.
    """
    if not isinstance(out, Tensor):
        raise ArgumentError("backward needs a Tensor output")
    if out.shape != ():
        raise ArgumentError(f"backward needs a scalar output, got shape {out.shape}")
    wrt = list(wrt)
    for v in wrt:
        if not isinstance(v, Tensor):
            raise ArgumentError("wrt entries must be Tensors")
        if not v.requires_grad:
            raise ArgumentError("wrt entries must require gradients (constants have none)")
    wrt_ids = {v.nid for v in wrt}

    # reachable requires_grad subgraph, by walking parents
    nodes: dict[int, Tensor] = {}
    stack = [out] if out.requires_grad else []
    while stack:
        node = stack.pop()
        if node.nid in nodes:
            continue
        nodes[node.nid] = node
        for p in node.parents:
            if p.requires_grad and p.nid not in nodes:
                stack.append(p)

    # a node is useful if a wrt variable feeds it (ids grow monotonically,
    # so ascending id order visits parents before consumers)
    order = sorted(nodes)
    useful = set(wrt_ids)
    for nid in order:
        if nid not in useful and any(p.nid in useful for p in nodes[nid].parents):
            useful.add(nid)

    cot: dict[int, Tensor] = {}
    if out.nid in nodes and out.nid in useful:
        cot[out.nid] = constant(np.asarray(1.0, dtype=out.data.dtype))

    sweep_ctx = _keep_grad() if create_graph else no_grad()
    with sweep_ctx:
        for nid in reversed(order):
            if nid not in cot:
                continue
            node = nodes[nid]
            g = cot.pop(nid) if nid not in wrt_ids else cot[nid]
            for p, vjp in zip(node.parents, node.vjps):
                if not p.requires_grad or p.nid not in useful:
                    continue
                pg = vjp(g)
                acc = cot.get(p.nid)
                cot[p.nid] = pg if acc is None else add(acc, pg)

    result: dict[int, Tensor] = {}
    for v in wrt:
        got = cot.get(v.nid)
        if got is None:
            got = constant(np.zeros(v.shape, dtype=v.data.dtype))
        result[v.nid] = got
    return result


@contextmanager
def _keep_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = True
    try:
        yield
    finally:
        _grad_enabled = prev


def grad(out: Tensor, wrt, create_graph: bool = False) -> list[Tensor]:
    """Like ``backward`` but returns cotangents in ``wrt`` order."""
    wrt = list(wrt)
    cots = backward(out, wrt, create_graph=create_graph)
    return [cots[v.nid] for v in wrt]


# ---------------------------------------------------------------------------
# gradient vectors

@dataclass(frozen=True)
class GradientVector:
    """An ordered, named collection of gradient tensors (one per parameter)."""

    names: tuple[str, ...]
    tensors: tuple[Tensor, ...]

    def __post_init__(self):
        if len(self.names) != len(self.tensors):
            raise ArgumentError("GradientVector: names and tensors differ in length")
        if len(set(self.names)) != len(self.names):
            raise ArgumentError("GradientVector: duplicate segment names")

    def segment(self, name: str) -> Tensor:
        for n, t in zip(self.names, self.tensors):
            if n == name:
                return t
        raise ArgumentError(f"no gradient segment named '{name}'")

    @cached_property
    def sq_norm(self) -> float:
        """Squared norm, the per-segment sums added in segment order (the
        value ``dot(self.tensors, self.tensors)`` has), computed once."""
        arrays = [t.data for t in self.tensors]
        return _dot_data(arrays, arrays)

    def flat(self) -> np.ndarray:
        """Concatenated raw values in canonical segment order."""
        if not self.tensors:
            return np.zeros(0)
        return np.concatenate([t.data.ravel() for t in self.tensors])
