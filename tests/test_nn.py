"""Model construction, initialization and forwards."""

import dataclasses
import pickle

import numpy as np
import pytest

from gipip import losses, nn
from gipip import tensor as tt
from gipip.errors import ArgumentError, DimensionError

from conftest import check_grads, fd_grad, rel_err


# ---------------------------------------------------------------- init

def test_init_same_seed_bit_identical():
    a = nn.init_classifier("convnet", seed=5)
    b = nn.init_classifier("convnet", seed=5)
    assert a.names == b.names
    for x, y in zip(a.arrays, b.arrays):
        assert x.tobytes() == y.tobytes()


def test_init_different_seed_differs():
    a = nn.init_classifier("mlp2", seed=1)
    b = nn.init_classifier("mlp2", seed=2)
    assert any(not np.array_equal(x, y)
               for x, y in zip(a.arrays, b.arrays))


def test_kaiming_uniform_respects_fan_in_bound():
    d = 3 * 32 * 32
    params = nn.init_classifier("dense1", seed=4)
    w = params.array("fc_w")
    bound = np.sqrt(6.0 / d)
    assert np.all(np.abs(w) <= bound)
    # and actually spreads over the interval rather than collapsing
    assert np.max(np.abs(w)) > 0.9 * bound


def test_biases_start_at_zero():
    params = nn.init_classifier("convnet", seed=8)
    for name, a in zip(params.names, params.arrays):
        if name.endswith("_b"):
            assert np.all(a == 0.0)


def test_all_parameters_finite():
    for arch in nn.CLASSIFIER_ARCHS:
        params = nn.init_classifier(arch, seed=3)
        for arr in params.arrays:
            assert np.all(np.isfinite(arr))


def test_unknown_arch_rejected():
    with pytest.raises(ArgumentError, match="resnet"):
        nn.init_classifier("resnet", seed=0)


def test_bad_geometry_rejected():
    with pytest.raises(ArgumentError):
        nn.init_classifier("dense1", in_shape=(0, 4, 4), seed=0)
    with pytest.raises(ArgumentError):
        nn.init_classifier("dense1", num_classes=1, seed=0)


def test_convnet_input_too_small_for_three_stages():
    # strides of 2 with padding 1 keep 1x1 alive, but a zero extent cannot
    # appear; the failure mode is an input the conv output formula sends to 0
    with pytest.raises((ArgumentError, DimensionError)):
        nn.init_classifier("convnet", in_shape=(3, 0, 8), seed=0)


def test_mlp2_parameter_count_formula():
    d, h, k = 3 * 32 * 32, 64, 10   # mlp2 is 64 wide unless a test says otherwise
    params = nn.init_classifier("mlp2", num_classes=k, seed=0)
    want = (d * h + h) + (h * h + h) + (h * k + k)
    assert sum(a.size for a in params.arrays) == want


def test_array_lookup_by_name():
    params = nn.init_classifier("dense1", seed=0)
    assert params.array("fc_w").shape == (10, 3 * 32 * 32)
    with pytest.raises(ArgumentError):
        params.array("nope")


def test_with_values_shape_checked():
    params = nn.init_classifier("dense1", in_shape=(1, 2, 2), num_classes=2, seed=0)
    good = params.arrays
    # the values are kept as read-only C-ordered copies, whatever the source
    src = [np.asfortranarray(np.arange(8.0).reshape(2, 4)), np.ones(2)]
    out = params.with_values(src)
    src[0][0, 0] = 5.0
    assert np.array_equal(out.arrays[0], np.arange(8.0).reshape(2, 4))
    assert all(a.flags.c_contiguous and not a.flags.writeable for a in out.arrays)
    bad = [np.zeros((3, 3)), good[1]]
    with pytest.raises(DimensionError):
        params.with_values(bad)
    with pytest.raises(ArgumentError):
        params.with_values(good[:1])


def test_unpickled_arrays_stay_read_only():
    # numpy drops the writeable flag through pickle, which is how a --jobs
    # worker receives parameters and shared gradients
    clf = nn.init_classifier("dense1", in_shape=(1, 4, 4), num_classes=2, seed=0)
    ae = nn.init_autoencoder(in_channels=1, seed=0, widths=(2, 2))
    grad = losses.classifier_gradient(clf, np.zeros((1, 1, 4, 4)), np.array([1]))
    for obj in (clf, ae, grad):
        back = pickle.loads(pickle.dumps(obj))
        assert not any(a.flags.writeable for a in back.arrays), type(obj).__name__
        assert all(a.tobytes() == b.tobytes() for a, b in zip(back.arrays, obj.arrays))


# ---------------------------------------------------------------- classifier forward

def test_dense1_zero_weights_zero_logits():
    params = nn.init_classifier("dense1", in_shape=(1, 2, 2), num_classes=3, seed=0)
    params = params.with_values(map(np.zeros_like, params.arrays))
    x = tt.constant(np.random.default_rng(0).random((4, 1, 2, 2)))
    logits = nn.forward_classifier(params, x)
    assert logits.shape == (4, 3)
    assert np.all(logits.data == 0.0)


def test_dense1_identity_weight_passes_pixel_through():
    params = nn.init_classifier("dense1", in_shape=(1, 1, 1), num_classes=2, seed=0)
    params = params.with_values([np.array([[1.0], [0.0]]), np.zeros(2)])
    logits = nn.forward_classifier(params, tt.constant([[[[0.73]]]]))
    assert np.allclose(logits.data, [[0.73, 0.0]], atol=1e-15)


def test_forward_shapes_all_archs():
    x = tt.constant(np.random.default_rng(1).random((2, 3, 8, 8)))
    for arch in nn.CLASSIFIER_ARCHS:
        params = nn.init_classifier(arch, in_shape=(3, 8, 8), num_classes=5,
                                    seed=1, channels=(2, 3, 4), hidden=7)
        logits = nn.forward_classifier(params, x)
        assert logits.shape == (2, 5)
        assert np.all(np.isfinite(logits.data))


def test_forward_rejects_wrong_shape():
    params = nn.init_classifier("dense1", in_shape=(3, 8, 8), seed=0)
    with pytest.raises(DimensionError):
        nn.forward_classifier(params, tt.constant(np.zeros((2, 3, 4, 4))))
    with pytest.raises(DimensionError):
        nn.forward_classifier(params, tt.constant(np.zeros((3, 8, 8))))
    with pytest.raises(ArgumentError):
        nn.forward_classifier(params, np.zeros((2, 3, 8, 8)))
    # and the numpy pass takes arrays, not graph tensors
    with pytest.raises(ArgumentError):
        nn.ClassifierGradient(params, tt.constant(np.zeros((2, 3, 8, 8))), np.array([0, 1]))


def test_forward_is_pure():
    params = nn.init_classifier("convnet", in_shape=(3, 8, 8), seed=2,
                                channels=(2, 2, 2))
    x = tt.constant(np.random.default_rng(2).random((1, 3, 8, 8)))
    a = nn.forward_classifier(params, x).data
    b = nn.forward_classifier(params, x).data
    assert np.array_equal(a, b)


def _sub_tensor(params, name, t):
    arrays = tuple(t if n == name else old for n, old in zip(params.names, params.arrays))
    return dataclasses.replace(params, arrays=arrays)


def test_convnet_gradient_matches_finite_differences():
    params = nn.init_classifier("convnet", in_shape=(2, 4, 4), num_classes=3,
                                seed=6, channels=(2, 3, 3))
    rng = np.random.default_rng(7)
    imgs = rng.random((2, 2, 4, 4))
    mix = rng.standard_normal((2, 3))
    w0 = params.array("conv1_w")

    def build(x, w):
        logits = nn.forward_classifier(_sub_tensor(params, "conv1_w", w), x)
        return (logits * tt.constant(mix)).sum()

    check_grads(build, [imgs, w0], tol=1e-6)


# ---------------------------------------------------------------- autoencoder

def test_autoencoder_output_shape_and_range():
    params = nn.init_autoencoder(seed=3)
    x = np.random.default_rng(3).random((1, 3, 32, 32))
    y = nn.forward_autoencoder(params, x)
    assert y.shape == (1, 3, 32, 32)
    assert np.all(y > 0.0) and np.all(y < 1.0)


def test_autoencoder_default_widths():
    params = nn.init_autoencoder(seed=0)
    assert params.widths == (16, 32)
    assert params.array("enc1_w").shape == (16, 3, 3, 3)
    assert params.array("enc2_w").shape == (32, 16, 3, 3)
    assert params.array("dec2_w").shape == (3, 16, 3, 3)


def test_autoencoder_rejects_indivisible_extent():
    params = nn.init_autoencoder(seed=0)
    with pytest.raises(DimensionError):
        nn.forward_autoencoder(params, np.zeros((1, 3, 30, 32)))
    with pytest.raises(DimensionError):
        nn.forward_autoencoder(params, np.zeros((1, 2, 32, 32)))
    with pytest.raises(ArgumentError):
        nn.forward_autoencoder(params, tt.constant(np.zeros((1, 3, 32, 32))))


def test_autoencoder_gradient_matches_finite_differences():
    params = nn.init_autoencoder(in_channels=2, seed=9, widths=(2, 3))
    imgs = np.random.default_rng(11).random((1, 2, 4, 4))

    def loss(x):
        r = nn.forward_autoencoder(params, x) - x
        return float((r * r).sum())

    # d/dx |y(x) - x|^2 = J^T 2r - 2r, the pass's input adjoint on 2r
    ae = nn.AutoEncoderPass(params, imgs)
    r2 = 2.0 * (ae.out - imgs)
    err = rel_err(ae.input_vjp(r2) - r2, fd_grad(loss, imgs.copy()))
    assert err <= 1e-6, f"rel err {err:.3e}"
