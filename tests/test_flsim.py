"""One-round FL simulation: shared gradients, partitions, sealed truth."""

import numpy as np
import pytest

from gipip import attack, data, flsim, nn
from gipip import tensor as tt
from gipip.errors import (ArgumentError, ConfigurationError, ContractError,
                          DimensionError, PartitionError)

from conftest import fd_grad, rel_err


def _tiny_model(seed=0, k=4):
    return nn.init_classifier("dense1", in_shape=(1, 2, 2), num_classes=k, seed=seed)


def _batch(images, labels):
    return flsim.ClientBatch(images=images, labels=np.asarray(labels))


# ---------------------------------------------------------------- client gradient

def test_scalar_model_hand_gradient():
    # the engine on the smallest possible model: f(x) = wx
    # with squared loss, w=1, x=2, y=0 gives dL/dw = 2(wx-y)x = 8
    w = tt.variable(1.0)
    loss = tt.mul(tt.sub(tt.mul(w, 2.0), 0.0), tt.sub(tt.mul(w, 2.0), 0.0))
    (g,) = tt.grad(loss, [w])
    assert g.item() == 8.0


def test_duplicated_sample_leaves_mean_gradient_unchanged():
    theta = _tiny_model()
    img = np.random.default_rng(0).random((1, 1, 2, 2))
    single = flsim.client_compute_gradient(theta, _batch(img, [2]))
    double = flsim.client_compute_gradient(
        theta, _batch(np.concatenate([img, img]), [2, 2]))
    assert double.batch_size == 2
    for a, b in zip(single.gradient.arrays, double.gradient.arrays):
        assert np.allclose(a, b, rtol=0, atol=1e-15)


def test_client_gradient_matches_finite_differences():
    theta = _tiny_model(seed=3)
    rng = np.random.default_rng(1)
    imgs = rng.random((2, 1, 2, 2))
    labels = np.array([0, 3])
    shared = flsim.client_compute_gradient(theta, _batch(imgs, labels))

    flat = np.concatenate([a.ravel() for a in theta.arrays])
    splits = np.cumsum([a.size for a in theta.arrays])[:-1]

    def batch_loss(vec):
        p = theta.with_values([v.reshape(a.shape)
                               for v, a in zip(np.split(vec, splits), theta.arrays)])
        logits = nn.forward_classifier(p, tt.constant(imgs))
        return tt.softmax_cross_entropy(logits, labels).item()

    want = fd_grad(batch_loss, flat)
    got = np.concatenate([a.ravel() for a in shared.gradient.arrays])
    assert rel_err(got, want) <= 1e-6


def test_gradient_averaging_linearity():
    theta = _tiny_model(seed=4)
    rng = np.random.default_rng(2)
    imgs = rng.random((6, 1, 2, 2))
    labels = rng.integers(0, 4, 6)
    g_all = flsim.client_compute_gradient(theta, _batch(imgs, labels))
    g_a = flsim.client_compute_gradient(theta, _batch(imgs[:2], labels[:2]))
    g_b = flsim.client_compute_gradient(theta, _batch(imgs[2:], labels[2:]))
    for whole, a, b in zip(g_all.gradient.arrays, g_a.gradient.arrays,
                           g_b.gradient.arrays):
        mix = (2 * a + 4 * b) / 6.0
        assert np.max(np.abs(whole - mix)) <= 1e-10


def test_client_batch_validation():
    with pytest.raises(DimensionError):
        flsim.ClientBatch(images=np.zeros((1, 2, 2)), labels=np.array([0]))
    with pytest.raises(ArgumentError):
        _batch(np.full((1, 1, 2, 2), 1.5), [0])
    with pytest.raises(DimensionError):
        _batch(np.zeros((2, 1, 2, 2)), [0])
    with pytest.raises(ArgumentError):
        _batch(np.zeros((1, 1, 2, 2)), np.array([0.5]))
    with pytest.raises(ArgumentError):
        flsim.client_compute_gradient(_tiny_model(k=3), _batch(np.zeros((1, 1, 2, 2)), [3]))
    # the batch keeps a frozen copy of its images
    images = np.zeros((1, 1, 2, 2))
    batch = _batch(images, [0])
    images[...] = 1.0
    assert np.all(batch.images == 0.0) and not batch.images.flags.writeable


def test_fingerprint_sensitive_to_values_and_metadata():
    a = _tiny_model(seed=5)
    same = _tiny_model(seed=5)
    assert flsim.model_fingerprint(a) == flsim.model_fingerprint(same)
    other = _tiny_model(seed=6)
    assert flsim.model_fingerprint(a) != flsim.model_fingerprint(other)
    arrays = list(a.arrays)
    arrays[0] = arrays[0].copy()
    arrays[0][0, 0] += 1e-12
    assert flsim.model_fingerprint(a) != flsim.model_fingerprint(a.with_values(arrays))


# ---------------------------------------------------------------- partitions

def test_named_split_partition(tiny_corpus):
    part = flsim.make_partition(tiny_corpus, mode="named_split")
    assert np.array_equal(part.aux_indices, tiny_corpus.eval_split)
    assert np.intersect1d(part.aux_indices, part.target_indices).size == 0
    assert part.aux_indices.size + part.target_indices.size == tiny_corpus.count
    assert "named_split" in part.provenance


def test_named_split_requires_eval_split():
    ds = data.synthetic_textures(10, seed=0, eval_fraction=0.0)
    with pytest.raises(ConfigurationError, match="fraction"):
        flsim.make_partition(ds, mode="named_split")


def test_fraction_partition_reproducible(tiny_corpus):
    a = flsim.make_partition(tiny_corpus, mode="fraction", seed=7, fraction=0.5)
    b = flsim.make_partition(tiny_corpus, mode="fraction", seed=7, fraction=0.5)
    assert np.array_equal(a.aux_indices, b.aux_indices)
    assert a.aux_indices.size == 30
    c = flsim.make_partition(tiny_corpus, mode="fraction", seed=8, fraction=0.5)
    assert not np.array_equal(a.aux_indices, c.aux_indices)


def test_fraction_bounds(tiny_corpus):
    for bad in (None, 0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ConfigurationError):
            flsim.make_partition(tiny_corpus, mode="fraction", fraction=bad)
    with pytest.raises(ConfigurationError):
        flsim.make_partition(tiny_corpus, mode="thirds")


def test_partition_disjointness_enforced():
    with pytest.raises(PartitionError, match="overlap"):
        flsim.Partition(aux_indices=np.array([0, 1, 2]),
                        target_indices=np.array([2, 3]), provenance="x")
    with pytest.raises(PartitionError, match="unique"):
        flsim.Partition(aux_indices=np.array([0, 0]),
                        target_indices=np.array([1]), provenance="x")
    with pytest.raises(PartitionError):
        flsim.Partition(aux_indices=np.array([], dtype=np.int64),
                        target_indices=np.array([1]), provenance="x")


# ---------------------------------------------------------------- round simulation

def test_round_chunks_targets_into_batches(tiny_corpus):
    theta = nn.init_classifier("dense1", in_shape=(3, 32, 32), seed=9)
    part = flsim.make_partition(tiny_corpus)
    idx = part.target_indices[:8]
    shared, sealed = flsim.simulate_round(theta, tiny_corpus, idx, batch_size=4,
                                          partition=part)
    assert len(shared) == 2
    assert all(s.batch_size == 4 for s in shared)
    assert np.array_equal(np.concatenate([s.labels for s in shared]),
                          tiny_corpus.labels[idx])
    truth_images, truth_labels = sealed.reveal()
    assert truth_images.shape == (8, 3, 32, 32)
    assert np.array_equal(truth_labels, tiny_corpus.labels[idx])


def test_round_rejects_aux_targets(tiny_corpus):
    theta = nn.init_classifier("dense1", in_shape=(3, 32, 32), seed=10)
    part = flsim.make_partition(tiny_corpus)
    aux_idx = part.aux_indices[:2]
    with pytest.raises(PartitionError, match="target side"):
        flsim.simulate_round(theta, tiny_corpus, aux_idx, batch_size=1, partition=part)


def test_round_validates_indices(tiny_corpus):
    theta = nn.init_classifier("dense1", in_shape=(3, 32, 32), seed=11)
    with pytest.raises(ArgumentError):
        flsim.simulate_round(theta, tiny_corpus, [1, 2, 3], batch_size=2)
    with pytest.raises(ArgumentError):
        flsim.simulate_round(theta, tiny_corpus, [1, 1], batch_size=1)
    with pytest.raises(ArgumentError):
        flsim.simulate_round(theta, tiny_corpus, [tiny_corpus.count], batch_size=1)
    with pytest.raises(ArgumentError):
        flsim.simulate_round(theta, tiny_corpus, [], batch_size=1)


def test_attack_refuses_foreign_gradient(tiny_corpus):
    theta = nn.init_classifier("dense1", in_shape=(3, 32, 32), seed=12)
    other = nn.init_classifier("dense1", in_shape=(3, 32, 32), seed=13)
    shared, _ = flsim.simulate_round(theta, tiny_corpus, [0], batch_size=1)
    cfg = attack.AttackConfig(method="ig", lambda_as=0.0, iterations=1,
                              record_every=1, seed=0)
    with pytest.raises(ContractError, match="fingerprint"):
        attack.run_attack(shared[0], other, cfg)


def test_sealed_truth_exposes_nothing_but_reveal():
    sealed = flsim.SealedGroundTruth(np.zeros((1, 3, 4, 4)), np.array([2]))
    public = [n for n in dir(sealed) if not n.startswith("_")]
    assert public == ["reveal"]
    assert "n=1" in repr(sealed)
    images, labels = sealed.reveal()
    images[:] = 1.0  # mutating the copy must not touch the sealed original
    again, _ = sealed.reveal()
    assert np.all(again == 0.0)


def test_shared_gradient_has_no_pixel_payload(tiny_corpus):
    theta = nn.init_classifier("dense1", in_shape=(3, 32, 32), seed=14)
    shared, _ = flsim.simulate_round(theta, tiny_corpus, [0], batch_size=1)
    field_names = {f.name for f in type(shared[0]).__dataclass_fields__.values()}
    assert field_names == {"gradient", "batch_size", "labels", "model_fingerprint"}
