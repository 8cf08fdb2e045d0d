"""Autodiff engine checks: forward values, first-order gradients against
central finite differences, and the double-backward path the attack needs."""

import ast
import gc
import inspect
import pickle
import zlib

import numpy as np
import pytest

from conftest import check_grads, fd_grad, grad_of, rel_err
from gipip import attack, flsim, losses, nn, prior
from gipip import tensor as tt
from gipip.errors import ArgumentError, DimensionError
from gipip.tensor import GradientVector, Tensor


# ---------------------------------------------------------------------------
# forward values

def test_add_values():
    assert np.array_equal(tt.add(tt.constant([1.0, 2.0]), tt.constant([3.0, 4.0])).data,
                          [4.0, 6.0])


def test_relu_values():
    assert np.array_equal(tt.relu(tt.constant([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_mul_self_gradient_is_two_a():
    # d/da sum(a*a) at a=[3] -> [6]
    (g,) = grad_of(lambda a: tt.mul(a, a).sum(), np.array([3.0]))
    assert np.array_equal(g, [6.0])


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        tt.add(tt.constant(np.zeros((2, 3))), tt.constant(np.zeros((3, 2))))
    assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)


def test_scalar_broadcasts_but_vectors_do_not():
    v = tt.constant([1.0, 2.0])
    assert np.array_equal((v * 2.0).data, [2.0, 4.0])
    with pytest.raises(DimensionError):
        tt.mul(v, tt.constant([[1.0, 2.0]]))


def test_matmul_identity_and_values():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(tt.matmul(tt.constant(np.eye(2)), tt.constant(m)).data, m)
    out = tt.matmul(tt.constant([[1.0, 2.0]]), tt.constant([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])
    with pytest.raises(DimensionError):
        tt.matmul(tt.constant(np.zeros((2, 3))), tt.constant(np.zeros((2, 3))))


def test_dot_segments_values_and_validation():
    a = (tt.constant([1.0, 2.0]), tt.constant([[3.0]]))
    b = (tt.constant([4.0, 5.0]), tt.constant([[6.0]]))
    assert tt.dot(a, b).item() == 32.0
    for bad in ((a, b[:1]), ((), ()), (a, b[0]), (a[0], b)):
        with pytest.raises(ArgumentError):
            tt.dot(*bad)
    with pytest.raises(DimensionError):
        tt.dot(a, b[::-1])


def test_conv2d_ones_sums_window():
    x = tt.constant(np.ones((1, 1, 3, 3)))
    k = tt.constant(np.ones((1, 1, 3, 3)))
    assert tt.conv2d(x, k).data.reshape(()) == 9.0


def test_conv2d_zero_kernel_zero_output():
    rng = np.random.default_rng(0)
    x = tt.constant(rng.normal(size=(2, 3, 8, 8)))
    k = tt.constant(np.zeros((4, 3, 3, 3)))
    assert np.all(tt.conv2d(x, k, stride=2, padding=1).data == 0.0)


def test_conv2d_output_extent_formula():
    x = tt.constant(np.zeros((1, 2, 11, 7)))
    k = tt.constant(np.zeros((3, 2, 3, 3)))
    out = tt.conv2d(x, k, stride=2, padding=1)
    assert out.shape == (1, 3, (11 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)


def test_conv2d_kernel_too_large():
    with pytest.raises(DimensionError):
        tt.conv2d(tt.constant(np.zeros((1, 1, 2, 2))), tt.constant(np.zeros((1, 1, 5, 5))))


def test_reduce_values():
    assert tt.constant([1.0, 2.0, 3.0]).sum().item() == 6.0
    assert tt.constant([2.0, 4.0]).mean().item() == 3.0
    with pytest.raises(ArgumentError):
        tt.mean(tt.constant(np.zeros(0)))


def test_sum_gradient_is_ones():
    (g,) = grad_of(lambda a: a.sum(), np.arange(6.0).reshape(2, 3))
    assert np.array_equal(g, np.ones((2, 3)))


def test_cross_entropy_uniform_is_log2():
    out = tt.softmax_cross_entropy(tt.constant([[0.0, 0.0]]), np.array([0]))
    assert abs(out.item() - np.log(2.0)) < 1e-15


def test_cross_entropy_saturated_is_stable():
    out = tt.softmax_cross_entropy(tt.constant([[1000.0, 0.0]]), np.array([0]))
    assert abs(out.item()) <= 1e-9


def test_cross_entropy_gradient_matches_softmax_minus_onehot():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(6, 10))
    labels = rng.integers(0, 10, 6)
    (g,) = grad_of(lambda z: tt.softmax_cross_entropy(z, labels), logits)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(6), labels] -= 1.0
    assert np.max(np.abs(g - p / 6)) <= 1e-9


def test_cross_entropy_label_validation():
    with pytest.raises(ArgumentError):
        tt.softmax_cross_entropy(tt.constant([[0.0, 0.0]]), np.array([2]))
    with pytest.raises(ArgumentError):
        tt.softmax_cross_entropy(tt.constant([[0.0, 0.0]]), np.array([-1]))
    with pytest.raises(ArgumentError):
        tt.softmax_cross_entropy(tt.constant([[0.0, 0.0]]), np.array([0.5]))


# ---------------------------------------------------------------------------
# finite-difference sweeps (the per-op gradient contract)

def _rand_list(rng, shapes):
    return [rng.normal(size=s) for s in shapes]


def test_fd_binary_ops_random_shapes():
    rng = np.random.default_rng(42)
    builds = {
        "add": lambda a, b: tt.add(a, b).sum(),
        "sub": lambda a, b: tt.sub(a, b).sum(),
        "mul": lambda a, b: tt.mul(a, b).sum(),
        "div": lambda a, b: tt.div(a, tt.add(tt.mul(b, b), 1.0)).sum(),
    }
    for name, build in builds.items():
        for _ in range(8):
            shape = tuple(rng.integers(1, 5, rng.integers(1, 4)))
            check_grads(build, _rand_list(rng, [shape, shape]))


def test_fd_unary_ops_random_shapes():
    rng = np.random.default_rng(43)
    builds = {
        "neg": lambda a: tt.neg(a).sum(),
        "sigmoid": lambda a: tt.sigmoid(a).sum(),
        "exp": lambda a: tt.exp(a).sum(),
        "log": lambda a: tt.log(tt.add(tt.mul(a, a), 0.5)).sum(),
        "sqrt": lambda a: tt.sqrt(tt.add(tt.mul(a, a), 0.5)).sum(),
    }
    for name, build in builds.items():
        for _ in range(8):
            shape = tuple(rng.integers(1, 5, rng.integers(1, 4)))
            check_grads(build, _rand_list(rng, [shape]))


def test_fd_relu_away_from_kink():
    rng = np.random.default_rng(44)
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        a[np.abs(a) < 1e-3] = 0.5  # keep the fd stencil off the kink
        check_grads(lambda t: tt.relu(t).sum(), [a])


def test_fd_matmul():
    rng = np.random.default_rng(45)
    for _ in range(10):
        m, k, n = rng.integers(1, 6, 3)
        check_grads(lambda a, b: tt.matmul(a, b).sum(),
                    _rand_list(rng, [(m, k), (k, n)]))


def test_fd_matmul_weighted():
    # a non-uniform cotangent exercises both operand vjps properly
    rng = np.random.default_rng(46)
    w = rng.normal(size=(3, 2))
    check_grads(lambda a, b: tt.mul(tt.matmul(a, b), tt.constant(w)).sum(),
                _rand_list(rng, [(3, 4), (4, 2)]))


def test_fd_conv2d_geometries():
    rng = np.random.default_rng(47)
    for stride, padding, k in ((1, 0, 3), (2, 1, 3), (1, 1, 2), (3, 2, 4)):
        x = rng.normal(size=(2, 2, 6, 6))
        kern = rng.normal(size=(3, 2, k, k))
        check_grads(lambda a, b: tt.conv2d(a, b, stride=stride, padding=padding).sum(),
                    [x, kern])


# The conv kernels dispatch on geometry: the autoencoder's stride-1 layers
# take the input adjoint as a correlation with the flipped, channel-swapped
# kernels; the classifier's stride-2 layers and a stride-1 conv padded by
# more than k-1 take the fold.  Batch 2 and c != o, so a mixed-up channel
# or batch axis cannot cancel out.
_CONV_PATHS = {
    "autoencoder_k3_s1_p1": dict(n=2, c=3, o=2, hw=(6, 6), k=3, stride=1, padding=1),
    "classifier_k3_s2_p1": dict(n=2, c=2, o=3, hw=(6, 6), k=3, stride=2, padding=1),
    "fold_k2_s1_p2": dict(n=2, c=3, o=2, hw=(4, 4), k=2, stride=1, padding=2),
}


def _conv_arrays(rng, n, c, o, hw, k, stride, padding):
    oh, ow = ((s + 2 * padding - k) // stride + 1 for s in hw)
    return (rng.normal(size=(n, c) + hw), rng.normal(size=(o, c, k, k)),
            rng.normal(size=o), rng.normal(size=(n, o, oh, ow)))


def _mixed(op, shape, rng):
    # a fixed random cotangent, so every output element is weighted differently
    mix = tt.constant(rng.normal(size=shape))
    return lambda *ts: tt.dot(op(*ts), mix)


@pytest.mark.parametrize("path", _CONV_PATHS)
def test_fd_conv_paths(path):
    geo = _CONV_PATHS[path]
    k, stride, padding, hw = geo["k"], geo["stride"], geo["padding"], geo["hw"]
    rng = np.random.default_rng(zlib.crc32(path.encode()))
    x, w, b, g = _conv_arrays(rng, **geo)
    check_grads(_mixed(lambda a, v, c: tt.conv2d(a, v, stride, padding, bias=c), g.shape, rng),
                [x, w, b])
    check_grads(_mixed(lambda a, v: tt._conv2d_dx(a, v, hw, stride, padding), x.shape, rng),
                [g, w])
    check_grads(_mixed(lambda a, c: tt._conv2d_dw(a, c, k, stride, padding), w.shape, rng),
                [x, g])


def _loop_conv(x, w, stride, padding):
    """Plain-loop NCHW cross-correlation, with its input and kernel adjoints."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh, ow = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, :, i * stride:i * stride + k, j * stride:j * stride + k]
            out[:, :, i, j] = np.einsum("nckl,ockl->no", patch, w)
    return out


def _loop_conv_dx(g, w, hw, stride, padding):
    n, o, oh, ow = g.shape
    _, c, k, _ = w.shape
    dxp = np.zeros((n, c, hw[0] + 2 * padding, hw[1] + 2 * padding))
    for i in range(oh):
        for j in range(ow):
            dxp[:, :, i * stride:i * stride + k, j * stride:j * stride + k] += \
                np.einsum("no,ockl->nckl", g[:, :, i, j], w)
    return dxp[:, :, padding:padding + hw[0], padding:padding + hw[1]]


def _loop_conv_dw(x, g, k, stride, padding):
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dw = np.zeros((g.shape[1], x.shape[1], k, k))
    for i in range(g.shape[2]):
        for j in range(g.shape[3]):
            patch = xp[:, :, i * stride:i * stride + k, j * stride:j * stride + k]
            dw += np.einsum("no,nckl->ockl", g[:, :, i, j], patch)
    return dw


# the paths above, plus an odd-sized stride 2, batch 1 without padding and
# a stride 3 that truncates its input
_REFERENCE_GEOMETRIES = dict(
    _CONV_PATHS,
    odd_k3_s2_p1=dict(n=3, c=2, o=4, hw=(7, 5), k=3, stride=2, padding=1),
    batch1_k3_s1_p0=dict(n=1, c=4, o=3, hw=(5, 6), k=3, stride=1, padding=0),
    fold_k3_s3_p2=dict(n=2, c=2, o=3, hw=(7, 7), k=3, stride=3, padding=2),
)


@pytest.mark.parametrize("path", _REFERENCE_GEOMETRIES)
def test_conv_kernels_match_plain_loop_reference(path):
    geo = _REFERENCE_GEOMETRIES[path]
    k, stride, padding, hw = geo["k"], geo["stride"], geo["padding"], geo["hw"]
    x, w, _, g = _conv_arrays(np.random.default_rng(zlib.crc32(path.encode())), **geo)
    pairs = (
        (tt.conv2d(x, w, stride, padding).data, _loop_conv(x, w, stride, padding)),
        (tt._conv2d_dx(tt.constant(g), tt.constant(w), hw, stride, padding).data,
         _loop_conv_dx(g, w, hw, stride, padding)),
        (tt._conv2d_dw(tt.constant(x), tt.constant(g), k, stride, padding).data,
         _loop_conv_dw(x, g, k, stride, padding)),
    )
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the fold of the input adjoint's columns adds each element's taps in
    # the slice loop's order, so the two agree to the last bit
    cols = w.reshape(w.shape[0], -1).T @ g.transpose(1, 0, 2, 3).reshape(g.shape[1], -1)
    got = tt._col2im_data(cols, x.shape, k, stride, padding)
    want = np.ascontiguousarray(_slice_loop_fold(cols, x.shape, k, stride, padding))
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def _slice_loop_fold(cols, xshape, k, stride, padding):
    """The fold as one strided slice-add per tap over a zeroed padded canvas."""
    n, c, h, w = xshape
    oh, ow = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    c6 = cols.reshape(c, k, k, n, oh, ow)
    xp = np.zeros((c, n, h + 2 * padding, w + 2 * padding))
    for ki in range(k):
        for kj in range(k):
            xp[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += c6[:, ki, kj]
    return xp[:, :, padding:padding + h, padding:padding + w].transpose(1, 0, 2, 3)


# the decoder's two layers at batch 1 and at the prior's training batch,
# and an odd, non-square input
_SUBPIXEL_GEOMETRIES = {
    "dec1_b1": dict(n=1, c=32, o=16, hw=(8, 8)),
    "dec2_b1": dict(n=1, c=16, o=3, hw=(16, 16)),
    "dec1_b16": dict(n=16, c=32, o=16, hw=(8, 8)),
    "dec2_b16": dict(n=16, c=16, o=3, hw=(16, 16)),
    "odd_b2": dict(n=2, c=3, o=4, hw=(5, 7)),
}


@pytest.mark.parametrize("path", _SUBPIXEL_GEOMETRIES)
def test_upsample2_conv2d_matches_upsample_then_conv(path):
    # reference: nearest x2 upsampling by np.repeat, then the plain-loop
    # conv; the input adjoint sums the upsampled adjoint over each 2x2 block
    geo = _SUBPIXEL_GEOMETRIES[path]
    n, c, o, (h, w) = geo["n"], geo["c"], geo["o"], geo["hw"]
    rng = np.random.default_rng(zlib.crc32(path.encode()))
    x, kern, b = rng.normal(size=(n, c, h, w)), rng.normal(size=(o, c, 3, 3)), rng.normal(size=o)
    g = rng.normal(size=(n, o, 2 * h, 2 * w))
    up = np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)
    dup = _loop_conv_dx(g, kern, (2 * h, 2 * w), 1, 1)
    want = (_loop_conv(up, kern, 1, 1) + b[:, None, None],
            dup.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)),
            _loop_conv_dw(up, g, 3, 1, 1),
            g.sum(axis=(0, 2, 3)))
    xv, kv, bv = tt.variable(x), tt.variable(kern), tt.variable(b)
    out = tt.upsample2_conv2d(xv, kv, bv)
    got = (out.data,) + tuple(t.data for t in tt.grad(tt.dot(out, tt.constant(g)),
                                                         [xv, kv, bv]))
    for name, gv, wv in zip(("value", "input", "kernel", "bias"), got, want):
        assert gv.shape == wv.shape, name
        assert np.max(np.abs(gv - wv)) <= 1e-12 * np.max(np.abs(wv)), name


def test_upsample2_conv2d_validation():
    x = tt.constant(np.zeros((1, 2, 4, 4)))
    with pytest.raises(DimensionError):
        tt.upsample2_conv2d(tt.constant(np.zeros((2, 4, 4))), np.zeros((3, 2, 3, 3)), np.zeros(3))
    for w, b in ((np.zeros((3, 1, 3, 3)), np.zeros(3)), (np.zeros((3, 2, 2, 2)), np.zeros(3)),
                 (np.zeros((3, 2, 3, 3)), np.zeros(2))):
        with pytest.raises(DimensionError):
            tt.upsample2_conv2d(x, w, b)


def test_upsample2_conv2d_refuses_create_graph():
    # its vjps are numpy: a second derivative through it would drop every
    # second-order term, so it raises instead
    rng = np.random.default_rng(71)
    xv = tt.variable(rng.normal(size=(1, 2, 4, 4)))
    out = tt.upsample2_conv2d(xv, rng.normal(size=(3, 2, 3, 3)), np.zeros(3))
    with pytest.raises(ArgumentError, match="upsample2_conv2d.*first-order"):
        tt.grad(out.sum(), [xv], create_graph=True)


def test_fd_reductions_and_shapes():
    rng = np.random.default_rng(48)
    check_grads(lambda a: tt.mean(a), [rng.normal(size=(3, 5))])
    check_grads(lambda a: tt.reshape(a, (6, 2)).sum(), [rng.normal(size=(3, 4))])
    check_grads(lambda a: tt.broadcast_to(tt.reshape(a, (3, 1)), (3, 4)).sum(),
                [rng.normal(size=(3,))])
    check_grads(lambda a: tt.sum_to(a, (3, 1)).sum(), [rng.normal(size=(3, 4))])
    check_grads(lambda a: tt.slice_hw(a, 1, 3, 0, 2).sum(),
                [rng.normal(size=(1, 2, 4, 4))])
    check_grads(lambda a: tt.embed_hw(a, (5, 6), 1, 2).sum(),
                [rng.normal(size=(1, 2, 2, 3))])


def test_fd_softmax_cross_entropy():
    rng = np.random.default_rng(49)
    for _ in range(5):
        n, k = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        labels = rng.integers(0, k, n)
        check_grads(lambda z: tt.softmax_cross_entropy(z, labels),
                    [rng.normal(size=(n, k))])


# ---------------------------------------------------------------------------
# backward mechanics

def test_backward_square():
    x = tt.variable(3.0)
    (g,) = tt.grad(tt.mul(x, x), [x])
    assert g.item() == 6.0


def test_backward_requires_scalar():
    x = tt.variable([1.0, 2.0])
    with pytest.raises(ArgumentError):
        tt.backward(tt.mul(x, x), [x])


def test_backward_unreachable_is_zero():
    x = tt.variable([1.0, 2.0])
    y = tt.variable([3.0, 4.0])
    (gy,) = tt.grad(tt.mul(x, x).sum(), [y])
    assert np.array_equal(gy.data, np.zeros(2))


def test_backward_constant_rejected():
    c = tt.constant(1.0)
    with pytest.raises(ArgumentError):
        tt.grad(tt.mul(c, c), [c])


def test_second_derivative_of_cube():
    # d2(x^3)/dx2 at x=2 -> 12
    x = tt.variable(2.0)
    y = tt.mul(tt.mul(x, x), x)
    (g1,) = tt.grad(y, [x], create_graph=True)
    (g2,) = tt.grad(g1, [x])
    assert abs(g2.item() - 12.0) < 1e-12


def test_second_derivative_through_exp_sqrt_sigmoid():
    # ops whose vjp reuses the forward output must keep it in the graph
    for build, want in (
        (lambda x: tt.exp(x), np.exp(1.3)),
        (lambda x: tt.sqrt(x), -0.25 * 1.3 ** -1.5),
        (lambda x: tt.log(x), -1.0 / 1.3 ** 2),
    ):
        x = tt.variable(1.3)
        (g1,) = tt.grad(build(x), [x], create_graph=True)
        (g2,) = tt.grad(g1, [x])
        assert abs(g2.item() - want) < 1e-10, build
    x = tt.variable(0.4)
    (g1,) = tt.grad(tt.sigmoid(x), [x], create_graph=True)
    (g2,) = tt.grad(g1, [x])
    s = 1.0 / (1.0 + np.exp(-0.4))
    assert abs(g2.item() - s * (1 - s) * (1 - 2 * s)) < 1e-12


def test_grad_of_gradient_norm_matches_fd():
    # the structural core of the attack: differentiate a function of a gradient
    rng = np.random.default_rng(50)
    w = rng.normal(size=(3, 4))

    def inner_grad_sq(x):
        xv = tt.variable(x)
        loss = tt.mul(tt.matmul(tt.constant(w), xv), tt.matmul(tt.constant(w), xv)).sum()
        (g,) = tt.grad(loss, [xv], create_graph=True)
        return tt.mul(g, g).sum()

    x0 = rng.normal(size=(4, 2))
    xv = tt.variable(x0)
    loss = tt.mul(tt.matmul(tt.constant(w), xv), tt.matmul(tt.constant(w), xv)).sum()
    (g,) = tt.grad(loss, [xv], create_graph=True)
    (gg,) = tt.grad(tt.mul(g, g).sum(), [xv])
    want = fd_grad(lambda x: inner_grad_sq(x).item(), x0)
    assert rel_err(gg.data, want) <= 1e-7


def test_no_grad_blocks_recording():
    x = tt.variable([1.0, 2.0])
    with tt.no_grad():
        y = tt.mul(x, x)
    assert not y.requires_grad and y.parents == ()


def test_value_semantics_no_mutation():
    a = tt.constant([1.0, 2.0])
    b = tt.variable([3.0, 4.0])
    before = a.data.copy()
    out = tt.mul(tt.add(a, b), b).sum()
    tt.grad(out, [b])
    again = tt.mul(tt.add(a, b), b).sum()
    assert np.array_equal(a.data, before)
    assert out.item() == again.item()


def test_tensors_are_frozen():
    t = tt.constant([1.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0
    got = t.numpy()
    got[0] = 5.0  # copies are writable
    assert t.data[0] == 1.0


def test_unpickled_leaf_is_a_fresh_frozen_copy():
    # backward orders and keys its sweep by node id, so a leaf restored in
    # another process must not keep the id it had where it was pickled
    src = tt.variable(np.arange(6.0).reshape(2, 3).T)
    blob = pickle.dumps(src)
    newest = tt.mul(tt.constant(1.0), tt.constant(2.0))
    back = pickle.loads(blob)
    assert back.nid > newest.nid > src.nid
    assert back.op == "leaf" and back.requires_grad and back.parents == ()
    assert np.array_equal(back.data, src.data)
    assert not back.data.flags.writeable
    assert back.data.flags.c_contiguous
    (g,) = tt.grad(tt.mul(back, back).sum(), [back])
    assert np.array_equal(g.data, 2.0 * src.data)


def test_nodes_made_by_an_op_do_not_pickle():
    x = tt.variable([1.0, 2.0])
    with pytest.raises(ArgumentError, match="leaf"):
        pickle.dumps(tt.mul(x, x))
    with tt.no_grad():
        detached = tt.mul(x, x)
    with pytest.raises(ArgumentError, match="leaf"):
        pickle.dumps(detached)


def test_item_requires_single_element():
    with pytest.raises(ArgumentError):
        tt.constant([1.0, 2.0]).item()


def test_operator_sugar():
    a = tt.variable([2.0])
    out = (1.0 - (-a) / 2.0 + a * 3.0) - 1.0
    assert np.allclose(out.data, [0.0 + 1.0 + 6.0])
    assert out.requires_grad


def _gipip_step():
    """One gipip objective-plus-gradient at the attack's shape: convnet on a
    3x32x32 batch of one, cosine matching, TV and the AS prior."""
    theta = nn.init_classifier("convnet", in_shape=(3, 32, 32), num_classes=10, seed=3)
    ae = nn.init_autoencoder(seed=5)
    rng = np.random.default_rng(52)
    labels = np.array([2])
    shared = flsim.client_compute_gradient(
        theta, flsim.ClientBatch(images=tt.constant(rng.random((1, 3, 32, 32))),
                                 labels=labels))
    x = rng.random((1, 3, 32, 32))
    config = attack.AttackConfig(method="gipip", lambda_as=1e-4, lambda_tv=1e-2)

    def step():
        _, grad = losses.total_objective(x, theta, labels, shared.gradient, config,
                                         theta_a=ae)
        grad()

    return step


def test_attack_step_leaves_no_cyclic_garbage():
    # each step's arrays are freed by reference counting as soon as it ends:
    # one gipip objective and its gradient, and one prior-training batch,
    # which runs the autoencoder's parameter sweep and fills the fold's
    # index cache for both geometries
    step = _gipip_step()
    aux = np.random.default_rng(53).random((4, 3, 32, 32))
    gc.collect()
    gc.disable()
    try:
        step()
        prior.train_autoencoder(aux, prior.PriorTrainConfig(epochs=1, batch_size=4, seed=1))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_production_paths_build_no_graph(monkeypatch):
    # the attack and prior training call their numpy passes directly: with
    # node recording and backward made to raise, every method and one
    # prior-training epoch still run, and neither module imports the engine
    theta = nn.init_classifier("convnet", in_shape=(3, 16, 16), num_classes=10, seed=7,
                               channels=(4, 8, 8))
    rng = np.random.default_rng(54)
    shared = flsim.client_compute_gradient(
        theta, flsim.ClientBatch(images=tt.constant(rng.random((2, 3, 16, 16))),
                                 labels=np.array([1, 4])))
    aux = rng.random((4, 3, 16, 16))

    def refuse(*args, **kwargs):
        raise AssertionError("a graph node was built")

    monkeypatch.setattr(tt, "_node", refuse)
    monkeypatch.setattr(tt, "backward", refuse)
    theta_a, _ = prior.train_autoencoder(aux, prior.PriorTrainConfig(epochs=1, batch_size=2))
    weights = {"gipip": {}, "ig": {"lambda_as": 0.0}, "dlg": {"lambda_as": 0.0, "lambda_tv": 0.0}}
    for method, w in weights.items():
        config = attack.AttackConfig(method=method, iterations=4, record_every=2, **w)
        ae = theta_a if method == "gipip" else None
        assert attack.run_attack(shared, theta, config, theta_a=ae).steps == 4
    for module in (attack, prior):
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom):
                imported |= {node.module or ""} | {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                imported |= {a.name for a in node.names}
        assert "tensor" not in {name.split(".")[-1] for name in imported}, module.__name__


# ---------------------------------------------------------------------------
# gradient vectors

def test_gradient_vector_roundtrip_exact():
    # a pickle round trip, as a worker process receives the vector
    rng = np.random.default_rng(51)
    gv = GradientVector(("a", "b"), (tt.constant(rng.normal(size=(2, 3))),
                                     tt.constant(rng.normal(size=5))))
    flat = gv.flat()
    assert flat.shape == (11,)
    back = pickle.loads(pickle.dumps(gv))
    assert back.flat().tobytes() == flat.tobytes()
    assert back.names == gv.names
    assert np.array_equal(back.segment("a").data, gv.segment("a").data)


def test_gradient_vector_validation():
    t = tt.constant([1.0])
    with pytest.raises(ArgumentError):
        GradientVector(("a",), (t, t))
    with pytest.raises(ArgumentError):
        GradientVector(("a", "a"), (t, t))
    gv = GradientVector(("a",), (t,))
    with pytest.raises(ArgumentError):
        gv.segment("b")
