"""Reverse-mode automatic differentiation on dense numpy arrays.

``backward`` can emit a result that is itself part of the graph
(``create_graph=True``), so every primitive expresses its vector-Jacobian
product in terms of other primitives; nothing drops to raw numpy on the
backward path unless gradients are globally off.  The ops compute on the
numpy kernels of ``gipip.kernels``, which the attack and prior training
call directly (through ``nn.ClassifierGradient`` and ``nn.AutoEncoderPass``)
without building a graph.  The engine is the reference the tests hold
those passes to; its decoder layer ``upsample2_conv2d`` is a
``first_order`` node on the same kernels.

Conventions:
  * arrays are float64,
  * node outputs are frozen (numpy writeable flag cleared),
  * broadcasting is explicit except for rank-0 scalars, which may combine
    with any shape,
  * ``backward`` only accepts a scalar output and returns one cotangent per
    requested variable, zeros when the variable is unreachable.
"""

from __future__ import annotations

import itertools
import weakref
from contextlib import contextmanager

import numpy as np

from . import kernels as kn
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
    out = kn.dot([x.data for x in a], [y.data for y in b])
    return _node(np.asarray(out, dtype=np.float64), "dot", a + b, lambda out: (
        tuple(lambda g, y=y: mul(g, y) for y in b) + tuple(lambda g, x=x: mul(g, x) for x in a)
    ))


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
    kmat = kn.phase_kernels(w.data)
    return first_order("upsample2_conv2d", kn.upsample2_conv2d(x.data, kmat, b.data),
                       (x, w, b), (lambda g: kn.upsample2_conv2d_dx(g, kmat),
                                   lambda g: kn.upsample2_conv2d_dw(x.data, g),
                                   lambda g: g.sum(axis=(0, 2, 3))))


def _check_conv_geometry(h, w, k, stride, padding):
    if k < 1 or stride < 1 or padding < 0:
        raise ArgumentError(f"conv geometry: k={k}, stride={stride}, padding={padding}")
    if k > h + 2 * padding or k > w + 2 * padding:
        raise DimensionError(f"kernel {k}x{k} larger than padded input "
                             f"{h + 2 * padding}x{w + 2 * padding}")


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
    cols = kn.im2col(x.data, kh, stride, padding)
    parents = (x, kernels)
    if bias is not None:
        bias = _coerce(bias)
        if bias.shape != (o,):
            raise DimensionError(f"conv2d bias must be [{o}], got {bias.shape}")
        parents += (bias,)
    out = kn.conv2d(cols, kernels.data, (n, h, w), stride, padding,
                    None if bias is None else bias.data)
    # d/dx is the transposed conv, d/dkernels the g . im2col^T product; that
    # unfolds x again rather than hold the patch matrix for the graph's life
    return _node(out, "conv2d", parents, lambda out: (
        lambda g: _conv2d_dx(g, kernels, (h, w), stride, padding),
        lambda g: _conv2d_dw(x, g, kh, stride, padding),
        _bias_sum,
    )[:len(parents)])


def _conv2d_dx(g: Tensor, kernels: Tensor, hw, stride: int, padding: int) -> Tensor:
    """Input adjoint of conv2d as a graph node (see ``kernels.conv2d_dx``)."""
    k = kernels.shape[2]
    out = kn.conv2d_dx(g.data, kernels.data, hw, stride, padding)
    return _node(out, "conv2d_dx", (g, kernels), lambda out: (
        lambda h: conv2d(h, kernels, stride, padding),
        lambda h: _conv2d_dw(h, g, k, stride, padding),
    ))


def _conv2d_dw(x: Tensor, g: Tensor, k: int, stride: int, padding: int) -> Tensor:
    """Kernel adjoint of conv2d as a graph node: g . im2col(x)^T."""
    cols = kn.im2col(x.data, k, stride, padding)
    out = kn.conv2d_dw(cols, g.data, x.shape[1], k)
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
    onehot = kn.onehot(labels, n, k)
    m = logits.data.max(axis=1, keepdims=True)
    shifted = sub(logits, constant(np.broadcast_to(m, (n, k))))
    lse = add(log(sum_to(exp(shifted), (n, 1))), constant(m))      # [n, 1]
    picked = sum_to(mul(logits, constant(onehot)), (n, 1))         # [n, 1]
    return mean(sub(lse, picked))


def first_order(op: str, value, parents: tuple[Tensor, ...], vjps: tuple) -> Tensor:
    """A node whose vjps are computed in numpy: ``vjps[i](g)`` maps the
    output cotangent's array to the array of ``parents[i]``.

    It serves a fused function whose derivative is written by hand, such as
    the sub-pixel decoder layer.  Its cotangents are constants, so
    differentiating through it again would silently drop every second-order
    term; ``backward(create_graph=True)`` raises instead.
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
