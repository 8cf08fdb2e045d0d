"""Acceptance criteria A1-A9, one test per criterion.

Each test asserts the criterion at its stated tolerance and prints a single
PASS line with the measured numbers (visible under `pytest -v -s`, or in the
captured output block when a criterion fails).

The reconstruction criteria (A3-A6) run on a deterministic stand-in corpus:
600 synthetic 32x32 RGB textures written through the CIFAR-10 binary batch
format and read back with the CIFAR-10 loader, so the whole dataset path is
the real one.  Absolute dB values are specific to this corpus; the criteria
check orderings and margins, not absolute reconstruction quality.  Everything
is seeded, so reruns measure identical numbers.

Total runtime is dominated by A3 (60 attacks of 800 iterations each); the
full file takes about 2 minutes on 2 cores.
"""

import inspect
import pickle
import zlib

import numpy as np
import pytest

from gipip import attack, data, flsim, losses, metrics, nn, prior
from gipip import cli as gcli
from gipip import tensor as tt
from gipip.config import config_from_dict

from conftest import fd_grad, rel_err, save_cifar10_file

ITERS = 800                     # attack budget for the ordering criteria
ANIMALS = (2, 3, 4, 5, 7)       # the five smooth "animal" texture classes
TRUCK = 9                       # the fine-grained out-of-distribution class


# ---------------------------------------------------------------------------
# shared experiment state (deliberately session-scoped: A3-A6 reuse it)

@pytest.fixture(scope="session")
def cifar(tmp_path_factory):
    """The stand-in corpus, round-tripped through CIFAR-10 binary batches."""
    src = data.synthetic_textures(600, seed=11)
    d = tmp_path_factory.mktemp("cifar")
    train = np.setdiff1d(np.arange(src.count), src.eval_split)
    for i, chunk in enumerate(np.array_split(train, 5), start=1):
        save_cifar10_file(d / f"data_batch_{i}.bin", src.images[chunk], src.labels[chunk])
    save_cifar10_file(d / "test_batch.bin",
                      src.images[src.eval_split], src.labels[src.eval_split])
    ds = data.load_cifar10(d)
    # the corpus sits on the 8-bit grid, so the round trip must be exact
    assert np.array_equal(ds.images, src.images)
    assert np.array_equal(ds.labels, src.labels)
    return ds


@pytest.fixture(scope="session")
def partition(cifar):
    part = flsim.make_partition(cifar, mode="named_split", seed=0)
    flsim.verify_disjoint(part)
    return part


@pytest.fixture(scope="session")
def classifier(cifar):
    """The untrained target model shared by every reconstruction criterion."""
    return nn.init_classifier("convnet", in_shape=cifar.image_shape,
                              num_classes=10, seed=3)


@pytest.fixture(scope="session")
def full_prior(cifar, partition):
    """Anomaly prior trained on the whole auxiliary (test) split."""
    aux = cifar.images[partition.aux_indices]
    theta_a, trace = prior.train_autoencoder(
        aux, prior.PriorTrainConfig(epochs=30, seed=5))
    assert trace[-1] < trace[0]
    return theta_a


@pytest.fixture(scope="session")
def animal_prior(cifar, partition):
    """Anomaly prior trained only on the five animal classes of the aux split."""
    aux_idx = np.asarray(partition.aux_indices)
    animal_aux = aux_idx[np.isin(cifar.labels[aux_idx], ANIMALS)]
    theta_a, _ = prior.train_autoencoder(
        cifar.images[animal_aux], prior.PriorTrainConfig(epochs=30, seed=5))
    return theta_a


def invert(theta, ds, idx, method, lam_as, seed, theta_a=None, iters=ITERS):
    """One inversion run; returns assigned per-image PSNR values."""
    idx = np.atleast_1d(np.asarray(idx, dtype=int))
    truth = ds.images[idx]
    batch = flsim.ClientBatch(images=truth, labels=ds.labels[idx])
    shared = flsim.client_compute_gradient(theta, batch)
    lam_tv = 0.0 if method == "dlg" else 1e-2
    cfg = attack.AttackConfig(method=method, lambda_as=lam_as, lambda_tv=lam_tv,
                              iterations=iters, record_every=iters, seed=seed)
    res = attack.run_attack(shared, theta, cfg, theta_a=theta_a)
    recovered = np.clip(res.recovered, 0.0, 1.0)
    pairing = metrics.evaluate_batch(recovered, truth).pairing
    return [metrics.psnr(r, truth[j]) for r, j in zip(recovered, pairing)]


# ---------------------------------------------------------------------------
# A1: gradient correctness, first order per op + double backward

def _away_from_kink(a, margin=0.1):
    sign = np.where(a < 0, -1.0, 1.0)
    return np.where(np.abs(a) < margin, sign * (margin + 0.1), a)


def _fix_mix(rng, op_build, arrays):
    """Close op_build over a probe direction drawn once, so repeated calls
    (autodiff pass, then every finite-difference evaluation) see the same
    scalar function.  The output shape comes from a dry run."""
    out = op_build(*[tt.constant(a) for a in arrays])
    mix = tt.constant(rng.standard_normal(out.data.shape))
    return lambda *ts: tt.mul(op_build(*ts), mix).sum()


def _check_case(build, arrays, tol=1e-6):
    tensors = [tt.variable(np.asarray(a, dtype=np.float64)) for a in arrays]
    got = [g.data for g in tt.grad(build(*tensors), tensors)]
    worst = 0.0
    for k, a in enumerate(arrays):
        def scalar(x, k=k):
            ts = [tt.constant(np.asarray(v, dtype=np.float64)) for v in arrays]
            ts[k] = tt.constant(x)
            return build(*ts).item()

        want = fd_grad(scalar, np.asarray(a, dtype=np.float64))
        worst = max(worst, rel_err(got[k], want))
    assert worst <= tol, f"rel err {worst:.3e} > {tol:g}"
    return worst


def _shape(rng):
    return ((2, 3), (4,), (2, 2, 2), (3, 2))[rng.integers(4)]


def _elementwise_case(op, sampler):
    def make(rng):
        arrays = (sampler(rng, _shape(rng)),)
        return _fix_mix(rng, op, arrays), arrays
    return make


def _binary_case(op, denom_safe=False):
    def make(rng):
        sh = _shape(rng)
        a = rng.standard_normal(sh)
        # binary ops broadcast rank-0 scalars only; anything else is explicit
        b = rng.standard_normal(() if rng.integers(4) == 0 else sh)
        if denom_safe:
            b = np.where(np.abs(b) < 0.5, 0.75 * np.where(b < 0, -1, 1), b)
        return _fix_mix(rng, op, (a, b)), (a, b)
    return make


def _unit(rng, sh):
    return rng.standard_normal(sh)


def _positive(rng, sh):
    return rng.uniform(0.5, 2.0, sh)


def _case_reshape(rng):
    a = rng.standard_normal((2, 6))
    new = ((3, 4), (12,), (4, 3), (2, 3, 2))[rng.integers(4)]
    return _fix_mix(rng, lambda x: tt.reshape(x, new), (a,)), (a,)


def _case_broadcast_to(rng):
    # same-rank expansion of size-1 axes, plus the rank-0 special case
    src, dst = (((), (2, 3)), ((1, 3), (4, 3)), ((2, 1), (2, 5)),
                ((1, 1, 2), (3, 4, 2)))[rng.integers(4)]
    a = rng.standard_normal(src)
    return _fix_mix(rng, lambda x: tt.broadcast_to(x, dst), (a,)), (a,)


def _case_sum_to(rng):
    src, dst = (((2, 3), (1, 3)), ((4, 3), (1, 1)), ((2, 5), (2, 1)),
                ((3, 4, 2), (1, 1, 2)))[rng.integers(4)]
    a = rng.standard_normal(src)
    return _fix_mix(rng, lambda x: tt.sum_to(x, dst), (a,)), (a,)


def _case_mean(rng):
    a = rng.standard_normal(_shape(rng))
    return (lambda x: tt.mean(x)), (a,)


def _case_reduce_sum(rng):
    a = rng.standard_normal(_shape(rng))
    return (lambda x: x.sum()), (a,)


def _case_matmul(rng):
    n, k, m = rng.integers(2, 5, size=3)
    a, b = rng.standard_normal((n, k)), rng.standard_normal((k, m))
    return _fix_mix(rng, tt.matmul, (a, b)), (a, b)


def _case_slice_hw(rng):
    a = rng.standard_normal((1, 2, 5, 5))
    hs, ws = (int(v) for v in rng.integers(0, 3, size=2))
    he, we = hs + int(rng.integers(1, 3)), ws + int(rng.integers(1, 3))
    return _fix_mix(rng, lambda x: tt.slice_hw(x, hs, he, ws, we), (a,)), (a,)


def _case_embed_hw(rng):
    a = rng.standard_normal((1, 2, 2, 2))
    hs, ws = (int(v) for v in rng.integers(0, 4, size=2))
    return _fix_mix(rng, lambda x: tt.embed_hw(x, (5, 5), hs, ws), (a,)), (a,)


def _conv_geometry(rng):
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    return stride, padding


def _case_conv2d(rng):
    x = rng.standard_normal((1, 2, 4, 4))
    k = rng.standard_normal((2, 2, 2, 2))
    stride, padding = _conv_geometry(rng)
    op = lambda a, b: tt.conv2d(a, b, stride, padding)  # noqa: E731
    return _fix_mix(rng, op, (x, k)), (x, k)


def _case_conv2d_bias(rng):
    x = rng.standard_normal((1, 2, 4, 4))
    k = rng.standard_normal((3, 2, 2, 2))
    b = rng.standard_normal(3)
    stride, padding = _conv_geometry(rng)
    op = lambda a, w, c: tt.conv2d(a, w, stride, padding, bias=c)  # noqa: E731
    return _fix_mix(rng, op, (x, k, b)), (x, k, b)


def _conv_cotangent(rng, stride, padding):
    # a cotangent shaped like the output of a (1, 2, 4, 4) x (3, 2, 2, 2) conv
    oh = (4 + 2 * padding - 2) // stride + 1
    return rng.standard_normal((1, 3, oh, oh))


def _case_conv2d_dx(rng):
    stride, padding = _conv_geometry(rng)
    g = _conv_cotangent(rng, stride, padding)
    k = rng.standard_normal((3, 2, 2, 2))
    op = lambda a, w: tt._conv2d_dx(a, w, (4, 4), stride, padding)  # noqa: E731
    return _fix_mix(rng, op, (g, k)), (g, k)


def _case_conv2d_dw(rng):
    stride, padding = _conv_geometry(rng)
    x = rng.standard_normal((1, 2, 4, 4))
    g = _conv_cotangent(rng, stride, padding)
    op = lambda a, c: tt._conv2d_dw(a, c, 2, stride, padding)  # noqa: E731
    return _fix_mix(rng, op, (x, g)), (x, g)


def _case_bias_sum(rng):
    a = rng.standard_normal(((3, 4), (2, 3, 2, 2))[rng.integers(2)])
    return _fix_mix(rng, tt._bias_sum, (a,)), (a,)


def _case_bias_broadcast(rng):
    shape = ((3, 4), (2, 4, 2, 3))[rng.integers(2)]
    b = rng.standard_normal(shape[1])
    return _fix_mix(rng, lambda c: tt._bias_broadcast(c, shape), (b,)), (b,)


def _case_linear(rng):
    n, d, k = (int(v) for v in rng.integers(1, 5, size=3))
    arrays = (rng.standard_normal((n, d)), rng.standard_normal((k, d)), rng.standard_normal(k))
    return _fix_mix(rng, tt.linear, arrays), arrays


def _case_upsample2_conv2d(rng):
    n, h, w, o = (int(v) for v in rng.integers(1, 4, size=4))
    arrays = (rng.standard_normal((n, 2, h, w)), rng.standard_normal((o, 2, 3, 3)),
              rng.standard_normal(o))
    return _fix_mix(rng, tt.upsample2_conv2d, arrays), arrays


def _case_dot(rng):
    sh = _shape(rng)
    a, b = rng.standard_normal(sh), rng.standard_normal(sh)
    return tt.dot, (a, b)


def _case_dot_segments(rng):
    # sum_i <a_i, b_i> over 2-3 segments of mixed shapes; half the cases take
    # a squared norm, where each segment feeds both sides of the one node
    a = tuple(rng.standard_normal(_shape(rng)) for _ in range(int(rng.integers(2, 4))))
    if rng.integers(2):
        return (lambda *ts: tt.dot(ts, ts)), a
    b = tuple(rng.standard_normal(x.shape) for x in a)
    m = len(a)
    return (lambda *ts: tt.dot(ts[:m], ts[m:])), a + b


def _case_softmax_ce(rng):
    logits = rng.standard_normal((3, 5))
    labels = rng.integers(0, 5, size=3)
    return (lambda x: tt.softmax_cross_entropy(x, labels)), (logits,)


_A1_CASES = {
    "add": _binary_case(tt.add),
    "sub": _binary_case(tt.sub),
    "mul": _binary_case(tt.mul),
    "div": _binary_case(tt.div, denom_safe=True),
    "neg": _elementwise_case(tt.neg, _unit),
    "relu": _elementwise_case(tt.relu, lambda r, s: _away_from_kink(r.standard_normal(s))),
    "sigmoid": _elementwise_case(tt.sigmoid, _unit),
    "exp": _elementwise_case(tt.exp, _unit),
    "log": _elementwise_case(tt.log, _positive),
    "sqrt": _elementwise_case(tt.sqrt, _positive),
    "reshape": _case_reshape,
    "broadcast_to": _case_broadcast_to,
    "sum_to": _case_sum_to,
    "mean": _case_mean,
    "reduce_sum": _case_reduce_sum,
    "matmul": _case_matmul,
    "slice_hw": _case_slice_hw,
    "embed_hw": _case_embed_hw,
    "conv2d": _case_conv2d,
    "conv2d_bias": _case_conv2d_bias,
    "conv2d_dx": _case_conv2d_dx,
    "conv2d_dw": _case_conv2d_dw,
    "bias_sum": _case_bias_sum,
    "bias_broadcast": _case_bias_broadcast,
    "linear": _case_linear,
    "upsample2_conv2d": _case_upsample2_conv2d,
    "dot": _case_dot,
    "dot_segments": _case_dot_segments,
    "softmax_cross_entropy": _case_softmax_ce,
}


def test_a1_gradient_correctness():
    worst_by_op = {}
    for name, make in _A1_CASES.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        worst = 0.0
        for _ in range(100):
            build, arrays = make(rng)
            worst = max(worst, _check_case(build, arrays, tol=1e-6))
        worst_by_op[name] = worst

    # double backward: d/dx of the gradient-matching distance on a small MLP,
    # the fused matching node's reverse sweep through the backward pass
    theta = nn.init_classifier("mlp2", in_shape=(1, 8, 8), num_classes=4,
                               seed=21, hidden=12)
    rng = np.random.default_rng(22)
    x0 = rng.uniform(0.2, 0.8, (1, 1, 8, 8))
    labels = np.array([1])
    batch = flsim.ClientBatch(images=x0, labels=labels)
    shared = flsim.client_compute_gradient(theta, batch)
    x_probe = rng.uniform(0.2, 0.8, (1, 1, 8, 8))
    dd_errs = {}
    # pure matching: ig without TV is cosine, dlg is mse
    for matching, config in (("cosine", attack.AttackConfig(method="ig", lambda_as=0.0,
                                                            lambda_tv=0.0)),
                             ("mse", attack.AttackConfig(method="dlg", lambda_as=0.0,
                                                         lambda_tv=0.0))):
        def objective(xarr, config=config):
            return losses.total_objective(xarr, theta, labels, shared.gradient, config)

        gx = objective(x_probe)[1]()
        err = rel_err(gx, fd_grad(lambda a: objective(a)[0]["total"], x_probe))
        dd_errs[matching] = err
        assert err <= 1e-4, f"double backward ({matching}): rel err {err:.3e} > 1e-4"

    # and through the fused conv layers: a convnet objective with the AS
    # prior (its autoencoder runs conv, upsample2_conv2d and sigmoid) and TV
    conv = nn.init_classifier("convnet", in_shape=(3, 8, 8), num_classes=4,
                              seed=23, channels=(2, 3, 3))
    ae = nn.init_autoencoder(seed=24, widths=(2, 3))
    x0 = rng.uniform(0.2, 0.8, (1, 3, 8, 8))
    labels = np.array([2])
    shared = flsim.client_compute_gradient(
        conv, flsim.ClientBatch(images=x0, labels=labels))
    config = attack.AttackConfig(method="gipip", lambda_as=1e-2, lambda_tv=1e-2)

    def conv_objective(x):
        return losses.total_objective(x, conv, labels, shared.gradient, config, theta_a=ae)

    x_probe = rng.uniform(0.2, 0.8, (1, 3, 8, 8))
    gx = conv_objective(x_probe)[1]()
    err = rel_err(gx, fd_grad(lambda a: conv_objective(a)[0]["total"], x_probe))
    dd_errs["convnet+as"] = err
    assert err <= 1e-4, f"double backward (convnet+as): rel err {err:.3e} > 1e-4"

    # and the third arch, so each classifier's reverse sweep through its
    # backward pass has a finite-difference check: dense1, batch 2, cosine
    dense = nn.init_classifier("dense1", in_shape=(2, 4, 4), num_classes=3, seed=25)
    labels = np.array([0, 2])
    shared = flsim.client_compute_gradient(
        dense, flsim.ClientBatch(images=rng.uniform(0.2, 0.8, (2, 2, 4, 4)), labels=labels))

    config = attack.AttackConfig(method="ig", lambda_as=0.0, lambda_tv=0.0)

    def dense_objective(x):
        return losses.total_objective(x, dense, labels, shared.gradient, config)

    x_probe = rng.uniform(0.2, 0.8, (2, 2, 4, 4))
    gx = dense_objective(x_probe)[1]()
    err = rel_err(gx, fd_grad(lambda a: dense_objective(a)[0]["total"], x_probe))
    dd_errs["dense1"] = err
    assert err <= 1e-4, f"double backward (dense1): rel err {err:.3e} > 1e-4"

    worst_all = max(worst_by_op.values())
    print(f"A1 PASS: {len(_A1_CASES)} ops x 100 cases, worst first-order rel err "
          f"{worst_all:.2e} <= 1e-6; double-backward rel err "
          f"cosine {dd_errs['cosine']:.2e}, mse {dd_errs['mse']:.2e}, "
          f"convnet+as {dd_errs['convnet+as']:.2e}, dense1 {dd_errs['dense1']:.2e} <= 1e-4")


# ---------------------------------------------------------------------------
# A2: closed-form leakage oracle and the iterative attack against it

def test_a2_dense_leakage_oracle():
    shape = (3, 16, 16)
    ds = data.synthetic_textures(10, shape=shape, seed=7)
    theta = nn.init_classifier("dense1", in_shape=shape, num_classes=10, seed=3)
    batch = flsim.ClientBatch(images=ds.images[0:1], labels=ds.labels[0:1])
    shared = flsim.client_compute_gradient(theta, batch)

    oracle = attack.closed_form_dense_leak(shared, theta)
    oracle_err = float(np.abs(oracle - ds.images[0:1]).max())
    assert oracle_err <= 1e-9

    errs = []
    for seed in range(10):
        cfg = attack.AttackConfig(method="ig", learning_rate=0.1, iterations=2000,
                                  lambda_as=0.0, lambda_tv=0.0,
                                  record_every=2000, seed=seed)
        res = attack.run_attack(shared, theta, cfg)
        errs.append(float(np.abs(res.recovered - oracle).max()))
    ok = sum(e <= 1e-3 for e in errs)
    assert ok >= 9, f"only {ok}/10 seeds reached 1e-3 (errors: {errs})"
    print(f"A2 PASS: closed form max abs err {oracle_err:.2e} <= 1e-9; "
          f"attack within 1e-3 of the oracle on {ok}/10 seeds "
          f"(worst {max(errs):.2e})")


# ---------------------------------------------------------------------------
# A3: method ordering on 20 targets, batch size 1

def test_a3_method_ordering(cifar, classifier, partition, full_prior):
    pool = np.asarray(partition.target_indices)
    targets = np.random.default_rng(203).choice(pool, size=20, replace=False)
    means = {}
    for method, lam_as, theta_a in (("dlg", 0.0, None), ("ig", 0.0, None),
                                    ("gipip", 1e-4, full_prior)):
        vals = [invert(classifier, cifar, [int(t)], method, lam_as,
                       seed=int(t), theta_a=theta_a)[0] for t in targets]
        means[method] = float(np.mean(vals))
    assert means["gipip"] >= means["ig"] + 0.5, means
    assert means["ig"] > means["dlg"], means
    print(f"A3 PASS: mean PSNR gipip {means['gipip']:.2f} > ig {means['ig']:.2f} "
          f"(+{means['gipip'] - means['ig']:.2f} >= 0.5) > dlg {means['dlg']:.2f}")


# ---------------------------------------------------------------------------
# A4: strict degradation across batch sizes 1, 4, 8

def test_a4_batch_size_degradation(cifar, classifier, partition, full_prior):
    pool = np.asarray(partition.target_indices)
    targets = np.random.default_rng(208).choice(pool, size=8, replace=False)
    means = []
    for b in (1, 4, 8):
        vals = []
        for s, start in enumerate(range(0, len(targets), b)):
            vals += invert(classifier, cifar, targets[start:start + b],
                           "gipip", 1e-4, seed=s, theta_a=full_prior)
        means.append(float(np.mean(vals)))
    assert means[0] > means[1] > means[2], means
    print(f"A4 PASS: mean PSNR strictly decreases over batch sizes 1/4/8: "
          f"{means[0]:.2f} > {means[1]:.2f} > {means[2]:.2f}")


# ---------------------------------------------------------------------------
# A5: anomaly-score weight ablation has an interior optimum

def test_a5_as_weight_ablation(cifar, classifier, partition, full_prior):
    pool = np.asarray(partition.target_indices)
    target = int(np.random.default_rng(210).choice(pool))
    weights = (0.0, 1e-5, 1e-4, 1e-3, 1e-2)
    medians = {}
    for lam in weights:
        vals = [invert(classifier, cifar, [target], "gipip", lam,
                       seed=s, theta_a=full_prior)[0] for s in range(5)]
        medians[lam] = float(np.median(vals))
    best = max(medians, key=medians.get)
    assert best not in (weights[0], weights[-1]), medians
    assert medians[best] >= medians[0.0] + 0.3, medians
    line = " ".join(f"{lam:g}:{medians[lam]:.2f}" for lam in weights)
    print(f"A5 PASS: median PSNR by weight {{{line}}}; best {best:g} is interior "
          f"and beats weight 0 by {medians[best] - medians[0.0]:.2f} dB >= 0.3")


# ---------------------------------------------------------------------------
# A6: prior trained on animal classes generalizes without sinking below ig

def test_a6_distribution_generalization(cifar, classifier, partition, animal_prior):
    pool = np.asarray(partition.target_indices)
    in_pool = pool[np.isin(cifar.labels[pool], ANIMALS)]
    ood_pool = pool[cifar.labels[pool] == TRUCK]
    rng = np.random.default_rng(206)
    in_targets = rng.choice(in_pool, size=6, replace=False)
    ood_targets = rng.choice(ood_pool, size=6, replace=False)

    def mean_psnr(targets, method, lam_as, theta_a):
        vals = [invert(classifier, cifar, [int(t)], method, lam_as,
                       seed=int(t), theta_a=theta_a)[0] for t in targets]
        return float(np.mean(vals))

    in_gipip = mean_psnr(in_targets, "gipip", 1e-4, animal_prior)
    ood_gipip = mean_psnr(ood_targets, "gipip", 1e-4, animal_prior)
    ood_ig = mean_psnr(ood_targets, "ig", 0.0, None)
    assert in_gipip > ood_gipip, (in_gipip, ood_gipip)
    assert ood_gipip >= ood_ig - 0.2, (ood_gipip, ood_ig)
    print(f"A6 PASS: gipip in-dist {in_gipip:.2f} > out-of-dist {ood_gipip:.2f}; "
          f"out-of-dist gipip {ood_gipip:.2f} >= ig {ood_ig:.2f} - 0.2")


# ---------------------------------------------------------------------------
# A7: threat-model enforcement

def test_a7_threat_model(cifar, classifier, partition, tmp_path, monkeypatch):
    # exact disjointness, in both partition modes
    aux = set(int(i) for i in partition.aux_indices)
    tgt = set(int(i) for i in partition.target_indices)
    assert aux.isdisjoint(tgt) and aux and tgt
    frac = flsim.make_partition(cifar, mode="fraction", seed=42, fraction=0.2)
    flsim.verify_disjoint(frac)
    assert set(map(int, frac.aux_indices)).isdisjoint(map(int, frac.target_indices))

    # what a round hands to the attacker: gradients, labels, fingerprint - no pixels
    targets = np.asarray(partition.target_indices)[:2]
    shared_list, sealed = flsim.simulate_round(classifier, cifar, targets, 1,
                                               partition=partition)
    field_names = {f.name for f in __import__("dataclasses").fields(shared_list[0])}
    assert field_names == {"gradient", "batch_size", "labels", "model_fingerprint"}

    # the sealed truth exposes reveal() and nothing else
    public = [n for n in dir(sealed) if not n.startswith("_")]
    assert public == ["reveal"]

    # attack code cannot name the sealed container, let alone open it
    src = inspect.getsource(attack)
    assert "SealedGroundTruth" not in src and ".reveal(" not in src
    params = list(inspect.signature(attack.run_attack).parameters)
    assert params == ["shared", "theta_g", "config", "theta_a"]

    # the jobs an attack hands its workers hold no target pixels: capture
    # them, pickle them as a worker process would receive them, and look
    # for each target image's raw float64 bytes
    jobs = []
    invert_job = gcli._invert

    def spy(job):
        jobs.append(job)
        return invert_job(job)

    monkeypatch.setattr(gcli, "_invert", spy)
    cfg = config_from_dict({"data": {"synthetic_count": "60", "num_targets": "2"},
                            "prior": {"epochs": "1"},
                            "attack": {"iterations": "1"}})
    manifest = gcli.cmd_attack(cfg, tmp_path / "a7", jobs=1)
    assert len(jobs) == 2
    for shared, theta_g, config, theta_a in jobs:
        assert isinstance(shared, flsim.SharedGradient)
        assert isinstance(theta_g, nn.ClassifierParams)
        assert isinstance(config, attack.AttackConfig)
        assert isinstance(theta_a, nn.AutoEncoderParams)
    line = next(x for x in manifest.read_text().splitlines() if x.startswith("targets="))
    images = gcli.load_dataset(cfg).images[[int(t) for t in line[8:].split(",")]]
    truth = [img.astype("<f8").tobytes() for img in images]
    assert not any(t in pickle.dumps(jobs) for t in truth)
    # the same search does find an image that is there
    assert truth[0] in pickle.dumps(jobs + [images[0].copy()])
    print("A7 PASS: aux/target splits exactly disjoint (both modes); shared "
          "gradients carry no pixels; sealed truth only opens via reveal(); "
          "attack module and pickled worker jobs have no ground-truth path")


# ---------------------------------------------------------------------------
# A8: exact metric unit values

def test_a8_metric_unit_values():
    # one 0.5-step pixel among 25 -> mse exactly 0.01 -> psnr exactly 20 dB
    a = np.zeros((1, 5, 5))
    b = a.copy()
    b[0, 0, 0] = 0.5
    assert metrics.mse(a, b) == 0.01
    assert metrics.psnr(a, b) == 20.0

    rng = np.random.default_rng(8)
    img = rng.random((3, 16, 16))
    assert abs(metrics.ssim(img, img) - 1.0) <= 1e-12

    assert losses.tv_loss(np.array([[[[0.0, 1.0], [2.0, 3.0]]]])) == 10.0

    g = flsim.GradientVector(("w",), (rng.standard_normal((4, 3)),))
    neg = flsim.GradientVector(("w",), (-g.arrays[0],))
    assert losses.gradient_matching(g, neg, "cosine").item() == 2.0
    print("A8 PASS: psnr(mse=0.01) == 20.0, ssim(a,a) == 1 +/- 1e-12, "
          "tv([[0,1],[2,3]]) == 10.0, cosine(g, -g) == 2.0")


# ---------------------------------------------------------------------------
# A9: byte-level determinism, serial and parallel

def test_a9_determinism(tmp_path):
    cfg = config_from_dict({
        "experiment": {"seed": "12"},
        "data": {"synthetic_count": "60", "num_targets": "4", "batch_size": "1"},
        "prior": {"epochs": "2"},
        "attack": {"iterations": "40", "record_every": "10"},
    })
    runs = {}
    for name, jobs in (("serial_a", 1), ("serial_b", 1), ("jobs8", 8)):
        out = tmp_path / name
        gcli.cmd_attack(cfg, out, jobs=jobs)
        runs[name] = out

    csv_a = (runs["serial_a"] / "results.csv").read_bytes()
    assert csv_a == (runs["serial_b"] / "results.csv").read_bytes()
    assert csv_a == (runs["jobs8"] / "results.csv").read_bytes()
    model_a = (runs["serial_a"] / "prior_model.bin").read_bytes()
    assert model_a == (runs["serial_b"] / "prior_model.bin").read_bytes()
    assert model_a == (runs["jobs8"] / "prior_model.bin").read_bytes()
    for rid in range(4):
        trace = (runs["serial_a"] / f"run{rid}_trace.csv").read_bytes()
        assert trace == (runs["serial_b"] / f"run{rid}_trace.csv").read_bytes()
        assert trace == (runs["jobs8"] / f"run{rid}_trace.csv").read_bytes()
    print("A9 PASS: results.csv, per-run traces, and the saved prior model are "
          "byte-identical across reruns and across --jobs 1 vs --jobs 8")
