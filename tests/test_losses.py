"""Objective terms: gradient matching, total variation, anomaly score."""

import numpy as np
import pytest

from gipip import losses, nn
from gipip import tensor as tt
from gipip.attack import AttackConfig
from gipip.errors import ArgumentError, DimensionError
from gipip.tensor import GradientVector

from conftest import check_grads, fd_grad, grad_of, rel_err


def gv(*arrays):
    ts = tuple(a if isinstance(a, tt.Tensor) else tt.constant(a) for a in arrays)
    return GradientVector(tuple(f"g{i}" for i in range(len(ts))), ts)


def _config(lambda_as=0.0, lambda_tv=0.0, matching="cosine"):
    # the attack config whose weights and matching kind the objective takes
    method = "dlg" if matching == "mse" else "gipip" if lambda_as else "ig"
    return AttackConfig(method=method, lambda_as=lambda_as, lambda_tv=lambda_tv)


def _assert_fd(got, value, x, tol, h=1e-5):
    # an x-gradient against central finite differences of its scalar function
    err = rel_err(got, fd_grad(value, np.array(x, dtype=np.float64), h=h))
    assert err <= tol, f"rel err {err:.3e} > {tol:g}"


def _term_grad(term, x, g=1.0):
    # a term's x-cotangent, its parts added, for a cotangent g of its value
    return losses._fold(term(x)[1](g))


# ---------------------------------------------------------------- matching

def test_cosine_identical_is_zero():
    g = gv([1.0, -2.0, 3.0], [[0.5, 0.5]])
    assert abs(losses.gradient_matching(g, g, "cosine").item()) <= 1e-12


def test_cosine_orthogonal_is_one():
    a = gv([1.0, 0.0])
    b = gv([0.0, 1.0])
    assert abs(losses.gradient_matching(a, b, "cosine").item() - 1.0) <= 1e-12


def test_cosine_opposite_is_two():
    g = np.array([0.3, -1.7, 2.2])
    d = losses.gradient_matching(gv(-g), gv(g), "cosine").item()
    assert abs(d - 2.0) <= 1e-12


def test_cosine_scale_invariance():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(20), rng.standard_normal(20)
    base = losses.gradient_matching(gv(a), gv(b), "cosine").item()
    for alpha in (1e-6, 0.5, 3.0, 1e6):
        scaled = losses.gradient_matching(gv(alpha * a), gv(b), "cosine").item()
        assert abs(scaled - base) <= 1e-12


def test_cosine_range():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        d = losses.gradient_matching(gv(a), gv(b), "cosine").item()
        assert -1e-12 <= d <= 2.0 + 1e-12


def test_cosine_zero_norm_pred_guard():
    p = tt.variable([0.0, 0.0])
    out = losses.gradient_matching(gv(p), gv([1.0, 2.0]), "cosine")
    assert out.item() == 1.0
    (g,) = tt.grad(out, [p])
    assert np.all(g.data == 0.0)


def test_cosine_zero_norm_target_rejected():
    with pytest.raises(ArgumentError, match="zero-norm"):
        losses.gradient_matching(gv([1.0, 2.0]), gv([0.0, 0.0]), "cosine")


def test_mse_identical_is_zero():
    g = gv([1.0, 2.0], [[3.0]])
    assert losses.gradient_matching(g, g, "mse").item() == 0.0


def test_mse_hand_value():
    d = losses.gradient_matching(gv([1.0, 2.0]), gv([0.0, 0.0]), "mse").item()
    assert d == 5.0


def test_mse_gradient_is_two_times_residual():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    (got,) = grad_of(lambda p: losses.gradient_matching(gv(p), gv(b), "mse"), a)
    assert np.allclose(got, 2.0 * (a - b), rtol=0, atol=1e-12)
    check_grads(lambda p: losses.gradient_matching(gv(p), gv(b), "mse"),
                [a], tol=1e-6)


def test_cosine_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(12), rng.standard_normal(12)
    check_grads(lambda p: losses.gradient_matching(gv(p), gv(b), "cosine"),
                [a], tol=1e-6)


def test_matching_validates_inputs():
    with pytest.raises(ArgumentError):
        losses.gradient_matching(gv([1.0]), gv([1.0]), "manhattan")
    with pytest.raises(DimensionError):
        losses.gradient_matching(gv([1.0, 2.0]), gv([[1.0, 2.0]]), "mse")
    empty = GradientVector((), ())
    with pytest.raises(ArgumentError):
        losses.gradient_matching(empty, empty, "mse")
    named = GradientVector(("w",), (tt.constant([1.0]),))
    other = GradientVector(("v",), (tt.constant([1.0]),))
    with pytest.raises(ArgumentError):
        losses.gradient_matching(named, other, "mse")


def test_matching_segmented_equals_flat():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal(10), rng.standard_normal(10)
    split = losses.gradient_matching(gv(a[:3], a[3:]), gv(b[:3], b[3:]), "cosine").item()
    flat = losses.gradient_matching(gv(a), gv(b), "cosine").item()
    assert abs(split - flat) <= 1e-12


# ---------------------------------------------------------------- tv

def test_tv_constant_image_is_zero():
    assert losses.tv_loss(np.full((2, 3, 5, 5), 0.7)) == 0.0


def test_tv_channelwise_constant_is_zero():
    img = np.stack([np.full((4, 4), c) for c in (0.1, 0.5, 0.9)])[None]
    assert losses.tv_loss(img) == 0.0


def test_tv_hand_value_2x2():
    x = np.array([[[[0.0, 1.0], [2.0, 3.0]]]])
    # rows: (1-0)^2 + (3-2)^2 = 2; columns: (2-0)^2 + (3-1)^2 = 8
    assert losses.tv_loss(x) == 10.0


def test_tv_single_pixel_is_zero():
    assert losses.tv_loss(np.ones((1, 3, 1, 1))) == 0.0


def test_tv_positive_for_nonconstant():
    rng = np.random.default_rng(5)
    assert losses.tv_loss(rng.random((1, 1, 4, 4))) > 0.0


def test_tv_requires_nchw():
    with pytest.raises(DimensionError):
        losses.tv_loss(np.zeros((4, 4)))


def test_tv_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.random((2, 2, 3, 4))
    _assert_fd(_term_grad(losses._tv_term, x), losses.tv_loss, x, tol=1e-6)


# ---------------------------------------------------------------- anomaly score

def _zero_output_ae():
    """An AE whose sigmoid head saturates to exactly 0 for any input."""
    params = nn.init_autoencoder(seed=0, widths=(2, 2),
                                 scheme=nn.InitScheme(kind="normal", sigma=0.0))
    arrays = params.to_arrays()
    arrays[params.names.index("dec2_b")] = np.full(3, -800.0)
    return params.with_values(arrays)


def test_as_loss_zero_output_ae_gives_input_norm():
    rng = np.random.default_rng(8)
    x = rng.random((2, 3, 8, 8))
    got = losses.as_loss(x, _zero_output_ae())
    assert got == float(np.sum(x * x))


def test_as_loss_fixed_point_is_zero():
    # zero weights and biases make the head sigmoid(0) = 1/2 exactly, so a
    # constant one-half image is a true fixed point of the autoencoder
    params = nn.init_autoencoder(seed=0, widths=(2, 2),
                                 scheme=nn.InitScheme(kind="normal", sigma=0.0))
    assert losses.as_loss(np.full((1, 3, 8, 8), 0.5), params) == 0.0


def test_as_loss_batch_is_sum_of_per_image_scores(tiny_prior):
    params, _ = tiny_prior
    rng = np.random.default_rng(9)
    batch = rng.random((3, 3, 32, 32))
    whole = losses.as_loss(batch, params)
    parts = sum(losses.as_loss(batch[i:i + 1], params) for i in range(3))
    assert abs(whole - parts) <= 1e-9 * max(1.0, abs(whole))


def test_as_loss_gradient_matches_finite_differences():
    params = nn.init_autoencoder(in_channels=2, seed=11, widths=(2, 3))
    rng = np.random.default_rng(12)
    x = rng.random((1, 2, 4, 4))
    _assert_fd(_term_grad(lambda a: losses._as_term(a, params), x),
               lambda a: losses.as_loss(a, params), x, tol=1e-5)


# ---------------------------------------------------------------- total objective

def _setup_objective():
    theta_g = nn.init_classifier("convnet", in_shape=(3, 8, 8), num_classes=4,
                                 seed=13, channels=(2, 3, 3), hidden=5)
    rng = np.random.default_rng(14)
    truth = rng.random((2, 3, 8, 8))
    labels = np.array([1, 3])
    target = losses.classifier_gradient(theta_g, truth, labels)
    return theta_g, truth, labels, target


def test_total_objective_zero_weights_is_pure_matching():
    theta_g, truth, labels, target = _setup_objective()
    x = np.random.default_rng(15).random(truth.shape)
    parts, _ = losses.total_objective(x, theta_g, labels, target, _config())
    alone = losses.gradient_matching(
        losses.classifier_gradient(theta_g, x, labels), target).item()
    assert parts["total"] == parts["grad"] == alone
    assert parts["as"] == 0.0 and parts["tv"] == 0.0


def test_total_objective_zero_at_truth():
    theta_g, truth, labels, target = _setup_objective()
    parts, _ = losses.total_objective(truth, theta_g, labels, target, _config())
    assert abs(parts["grad"]) <= 1e-10


def test_total_objective_breakdown_recombines_exactly():
    theta_g, truth, labels, target = _setup_objective()
    ae = nn.init_autoencoder(seed=16, widths=(2, 2))
    w = _config(lambda_as=1e-3, lambda_tv=1e-2)
    x = np.random.default_rng(17).random(truth.shape)
    parts, _ = losses.total_objective(x, theta_g, labels, target, w, theta_a=ae)
    assert parts["total"] == parts["grad"] + w.lambda_as * parts["as"] \
        + w.lambda_tv * parts["tv"]
    assert parts["as"] > 0.0 and parts["tv"] > 0.0


def test_total_objective_needs_prior_when_weighted():
    theta_g, truth, labels, target = _setup_objective()
    with pytest.raises(ArgumentError):
        losses.total_objective(truth, theta_g, labels, target, _config(lambda_as=1e-4))


def test_total_objective_differentiable_at_random_points():
    theta_g, truth, labels, target = _setup_objective()
    ae = nn.init_autoencoder(seed=18, widths=(2, 2))
    w = _config(lambda_as=1e-3, lambda_tv=1e-2)

    def objective(x):
        return losses.total_objective(x, theta_g, labels, target, w, theta_a=ae)

    x = np.random.default_rng(19).random((2, 3, 8, 8))
    _assert_fd(objective(x)[1](), lambda a: objective(a)[0]["total"], x, tol=1e-5)


# ---------------------------------------------------------------- fused matching node

def _engine_matching(theta_g, x, labels, target, kind):
    """Reference built from the engine: g' by a create_graph backward of the
    classifier's cross-entropy, then D and its x-gradient through that graph."""
    xv = tt.variable(x)
    ce = tt.softmax_cross_entropy(nn.forward_classifier(theta_g, xv), labels)
    pred = tt.grad(ce, theta_g.tensors, create_graph=True)
    d = losses.gradient_matching(GradientVector(theta_g.names, tuple(pred)), target, kind)
    (gx,) = tt.grad(d, [xv])
    return [p.data for p in pred], gx.data


def _matching_case(arch, batch, seed):
    theta_g = nn.init_classifier(arch, in_shape=(3, 8, 8), num_classes=5, seed=seed,
                                 hidden=7, channels=(3, 4, 4))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 5, batch)
    target = losses.classifier_gradient(theta_g, rng.random((batch, 3, 8, 8)), labels)
    return theta_g, labels, target, rng.random((batch, 3, 8, 8))


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("arch", nn.CLASSIFIER_ARCHS)
@pytest.mark.parametrize("kind", losses.MATCHING_KINDS)
@pytest.mark.parametrize("batch", (1, 4, 8))
def test_matching_node_agrees_with_engine_double_backward(arch, kind, batch):
    theta_g, labels, target, x = _matching_case(arch, batch, seed=40 + batch)
    want_pred, want_gx = _engine_matching(theta_g, x, labels, target, kind)
    pred = losses.classifier_gradient(theta_g, x, labels)
    for got, want in zip(pred.tensors, want_pred):
        assert _rel(got.data, want) <= 1e-12
    _, grad = losses.total_objective(x, theta_g, labels, target, _config(matching=kind))
    assert _rel(grad(), want_gx) <= 1e-12


@pytest.mark.parametrize("arch", nn.CLASSIFIER_ARCHS)
@pytest.mark.parametrize("kind", losses.MATCHING_KINDS)
def test_matching_node_value_is_gradient_matching_exactly(arch, kind):
    theta_g, labels, target, x = _matching_case(arch, 3, seed=50)
    parts, _ = losses.total_objective(x, theta_g, labels, target, _config(matching=kind))
    pred = losses.classifier_gradient(theta_g, x, labels)
    assert parts["grad"] == losses.gradient_matching(pred, target, kind).item()


def test_objective_only_calls_never_run_the_sweep(monkeypatch):
    theta_g, truth, labels, target = _setup_objective()

    def sweep(self, v):
        raise AssertionError("the reverse sweep ran for an objective-only call")

    monkeypatch.setattr(nn.ClassifierGradient, "input_vjp", sweep)
    for w in (_config(lambda_tv=1e-2), _config(matching="mse")):
        parts, grad = losses.total_objective(truth, theta_g, labels, target, w)
        assert np.isfinite(parts["total"])
        with pytest.raises(AssertionError, match="sweep ran"):
            grad()


def test_matching_node_guards():
    theta_g, truth, labels, target = _setup_objective()
    cosine, mse = _config(), _config(matching="mse")
    zero = GradientVector(target.names, tuple(tt.constant(np.zeros(t.shape))
                                              for t in target.tensors))
    with pytest.raises(ArgumentError, match="zero-norm target"):
        losses.total_objective(truth, theta_g, labels, zero, cosine)
    assert losses.total_objective(truth, theta_g, labels, zero, mse)[0]["grad"] > 0.0
    short = GradientVector(target.names[:-1], target.tensors[:-1])
    with pytest.raises(ArgumentError):
        losses.total_objective(truth, theta_g, labels, short, mse)
    wrong = GradientVector(target.names, target.tensors[:-1] + (tt.constant([0.0]),))
    with pytest.raises(DimensionError):
        losses.total_objective(truth, theta_g, labels, wrong, mse)


# ---------------------------------------------------------------- the objective as one node

def _graph_autoencoder(params, x):
    """The autoencoder composed of engine nodes, the reference for
    ``nn.AutoEncoderPass``: conv, relu, sub-pixel decoder layers, sigmoid."""
    p = params.tensor
    a = tt.relu(tt.conv2d(x, p("enc1_w"), 2, 1, bias=p("enc1_b")))
    a = tt.relu(tt.conv2d(a, p("enc2_w"), 2, 1, bias=p("enc2_b")))
    a = tt.relu(tt.upsample2_conv2d(a, p("dec1_w"), p("dec1_b")))
    return tt.sigmoid(tt.upsample2_conv2d(a, p("dec2_w"), p("dec2_b")))


def _graph_as_loss(x, params):
    r = tt.sub(_graph_autoencoder(params, x), x)
    return tt.sum_to(tt.mul(r, r), (x.shape[0], 1, 1, 1)).sum()


def _graph_tv_loss(x):
    n, c, h, w = x.shape
    dx = tt.sub(tt.slice_hw(x, 0, h, 1, w), tt.slice_hw(x, 0, h, 0, w - 1))
    dy = tt.sub(tt.slice_hw(x, 1, h, 0, w), tt.slice_hw(x, 0, h - 1, 0, w))
    return tt.add(tt.dot(dx, dx), tt.dot(dy, dy))


def _graph_total_objective(x, theta_g, labels, target, config, theta_a):
    # the matching term as one node with parent x; the tests above hold its
    # vjp to the engine's double backward
    value, x_cots = losses._matching_term(x.data, theta_g, labels, target, config.matching)
    total = tt.first_order("matching", value, (x,), (lambda g: x_cots(g)[0],))
    if config.lambda_as > 0:
        total = tt.add(total, tt.mul(_graph_as_loss(x, theta_a), config.lambda_as))
    if config.lambda_tv > 0:
        total = tt.add(total, tt.mul(_graph_tv_loss(x), config.lambda_tv))
    return total


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


_METHOD_CONFIGS = {"gipip": _config(1e-4, 1e-2),
                   "ig": _config(0.0, 1e-2),
                   "dlg": _config(matching="mse")}


@pytest.fixture(scope="module")
def attack_models():
    # the attack's geometry: convnet and autoencoder on 3x32x32
    return (nn.init_classifier("convnet", in_shape=(3, 32, 32), num_classes=10, seed=61),
            nn.init_autoencoder(seed=62))


@pytest.mark.parametrize("method", sorted(_METHOD_CONFIGS))
@pytest.mark.parametrize("batch", (1, 4, 8))
def test_total_objective_is_bit_exact_against_the_engine_graph(attack_models, method, batch):
    theta_g, ae = attack_models
    config = _METHOD_CONFIGS[method]
    rng = np.random.default_rng(63 + batch)
    labels = rng.integers(0, 10, batch)
    target = losses.classifier_gradient(theta_g, rng.random((batch, 3, 32, 32)), labels)
    # clipped like an attack iterate: runs of exact 0s and 1s give zero
    # differences and saturated pixels, where the sign of a zero can differ
    x = np.clip(rng.normal(0.5, 0.6, (batch, 3, 32, 32)), 0.0, 1.0)
    parts, grad = losses.total_objective(x, theta_g, labels, target, config, theta_a=ae)
    xr = tt.variable(x)
    ref = _graph_total_objective(xr, theta_g, labels, target, config, ae)
    (want,) = tt.grad(ref, [xr])
    assert parts["total"] == ref.item()
    # the breakdown goes into the trace CSVs, which print Python floats
    assert all(type(v) is float for v in parts.values())
    assert _same_bits(grad(), want.data)


@pytest.mark.parametrize("batch", (1, 16))
def test_prior_training_gradients_are_bit_exact_against_the_engine_graph(batch):
    # one prior-training batch: the mean anomaly score's parameter gradients,
    # the pass's parameter sweep on the cotangent train_autoencoder forms
    ae = nn.init_autoencoder(seed=64)
    x = np.random.default_rng(65 + batch).random((batch, 3, 32, 32))
    ae_pass = nn.AutoEncoderPass(ae, x)
    gr = (ae_pass.out - x) * (1.0 / batch)
    graph_sum = _graph_as_loss(tt.constant(x), ae)
    assert losses.as_loss(x, ae) == graph_sum.item()
    ref = tt.mul(graph_sum, 1.0 / batch)
    for got, want in zip(ae_pass.param_grads(gr + gr), tt.grad(ref, ae.tensors)):
        assert _same_bits(got, want.data)


def test_autoencoder_node_is_bit_exact_against_the_engine_graph():
    ae = nn.init_autoencoder(seed=66)
    rng = np.random.default_rng(67)
    x = rng.random((3, 3, 32, 32))
    mix = tt.constant(rng.standard_normal((3, 3, 32, 32)))
    xr = tt.variable(x)
    ae_pass = nn.AutoEncoderPass(ae, x)
    want_y = _graph_autoencoder(ae, xr)
    assert _same_bits(ae_pass.out, want_y.data)
    assert _same_bits(nn.forward_autoencoder(ae, x), want_y.data)
    got = [ae_pass.input_vjp(mix.data)] + ae_pass.param_grads(mix.data)
    want = tt.grad(tt.dot(want_y, mix), (xr,) + ae.tensors)
    for g, w in zip(got, want):
        assert _same_bits(g, w.data)


def test_tv_and_as_nodes_are_bit_exact_against_the_engine_graph():
    ae = nn.init_autoencoder(seed=68, widths=(4, 6))
    x = np.clip(np.random.default_rng(69).normal(0.5, 0.6, (2, 3, 8, 12)), 0.0, 1.0)
    for loss, term, graph in ((losses.tv_loss, losses._tv_term, _graph_tv_loss),
                              (lambda v: losses.as_loss(v, ae),
                               lambda v: losses._as_term(v, ae),
                               lambda v: _graph_as_loss(v, ae))):
        xr = tt.variable(x)
        want = graph(xr)
        assert loss(x) == term(x)[0] == want.item()
        assert _same_bits(_term_grad(term, x), tt.grad(want, [xr])[0].data)


@pytest.mark.parametrize("scale", (1.0, -1.0))
def test_tv_node_keeps_the_engine_graphs_signed_zeros(scale):
    # runs of equal pixels, some -0.0: zero differences of either sign, where
    # the four parts' zero margins decide the sign of a zero in the sum
    x = np.random.default_rng(70).choice([-0.0, 0.0, 0.5, 1.0], size=(4, 3, 8, 9),
                                         p=[0.45, 0.45, 0.05, 0.05])
    xr = tt.variable(x)
    got = _term_grad(losses._tv_term, x, scale)
    want = tt.grad(tt.mul(_graph_tv_loss(xr), scale), [xr])[0]
    assert np.signbit(want.data).any() and (want.data == 0.0).any()
    assert _same_bits(got, want.data)
