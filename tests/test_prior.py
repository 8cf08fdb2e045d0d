"""Anomaly-score prior: training, per-image scoring through as_loss, model persistence."""

import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gipip import data, losses, metrics, nn, prior
from gipip.errors import ConfigurationError, DimensionError, FormatError


# ---------------------------------------------------------------- config

def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        prior.PriorTrainConfig(epochs=-1)
    with pytest.raises(ConfigurationError):
        prior.PriorTrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigurationError):
        prior.PriorTrainConfig(batch_size=0)
    cfg = prior.PriorTrainConfig()
    assert cfg.epochs == 30 and cfg.learning_rate == 1e-3 and cfg.batch_size == 64


# ---------------------------------------------------------------- training

def test_zero_epochs_returns_untouched_init():
    aux = np.random.default_rng(0).random((4, 3, 8, 8))
    p1, trace = prior.train_autoencoder(aux, prior.PriorTrainConfig(epochs=0, seed=3))
    p2, _ = prior.train_autoencoder(aux, prior.PriorTrainConfig(epochs=0, seed=3))
    assert trace == []
    for a, b in zip(p1.arrays, p2.arrays):
        assert a.tobytes() == b.tobytes()
    p3, _ = prior.train_autoencoder(aux, prior.PriorTrainConfig(epochs=1, seed=3))
    assert any(not np.array_equal(a, b)
               for a, b in zip(p1.arrays, p3.arrays))


def test_training_is_deterministic():
    aux = np.random.default_rng(1).random((6, 3, 8, 8))
    cfg = prior.PriorTrainConfig(epochs=2, batch_size=4, seed=9)
    p1, t1 = prior.train_autoencoder(aux, cfg)
    p2, t2 = prior.train_autoencoder(aux, cfg)
    assert t1 == t2
    for a, b in zip(p1.arrays, p2.arrays):
        assert a.tobytes() == b.tobytes()
    p3, t3 = prior.train_autoencoder(aux, prior.PriorTrainConfig(epochs=2, batch_size=4, seed=10))
    assert t1 != t3


def test_overfits_single_image():
    ds = data.synthetic_textures(12, seed=77)
    one = ds.images[1:2]  # a smooth organic texture
    params, trace = prior.train_autoencoder(
        one, prior.PriorTrainConfig(epochs=200, learning_rate=5e-3, seed=1))
    recon = nn.forward_autoencoder(params, one)
    assert metrics.mse(recon, one) <= 1e-3
    assert len(trace) == 200


def test_training_descends(tiny_corpus):
    aux = tiny_corpus.images[tiny_corpus.eval_split]
    for seed in (0, 1, 2):
        _, trace = prior.train_autoencoder(
            aux, prior.PriorTrainConfig(epochs=4, batch_size=8, seed=seed))
        assert trace[-1] <= trace[0]


def test_training_batch_peak_memory():
    # one prior-training batch of 16 at 3x32x32 peaks at 6.54 MB of traced
    # allocations (10.14 MB when the prior's gradient was an engine graph).
    # Holding a patch matrix on the autoencoder's pass breaks the bound:
    # enc1's (the smallest) reads 7.38 MB, dec2's 8.80 MB
    aux = np.random.default_rng(70).random((16, 3, 32, 32))
    cfg = prior.PriorTrainConfig(epochs=1, batch_size=16, seed=1)
    prior.train_autoencoder(aux, cfg)
    tracemalloc.start()
    try:
        prior.train_autoencoder(aux, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.0 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_empty_aux_rejected():
    with pytest.raises(ConfigurationError, match="auxiliary"):
        prior.train_autoencoder(np.zeros((0, 3, 8, 8)), prior.PriorTrainConfig())
    with pytest.raises(DimensionError):
        prior.train_autoencoder(np.zeros((3, 8, 8)), prior.PriorTrainConfig())


# ---------------------------------------------------------------- scoring

def _scores(params, batch):
    # per-image anomaly scores, one as_loss call per image
    return np.array([losses.as_loss(img[None], params) for img in batch])


def test_fixed_point_scores_zero():
    # zero weights make the decoder head sigmoid(0) = 1/2; a constant
    # one-half batch is reconstructed exactly
    params = nn.init_autoencoder(seed=0, widths=(2, 2))
    params = params.with_values(map(np.zeros_like, params.arrays))
    assert np.array_equal(_scores(params, np.full((2, 3, 8, 8), 0.5)), [0.0, 0.0])


def test_scores_sum_to_batch_as_loss(tiny_prior):
    # a batch pass and one pass per image may round apart in the last bits
    params, _ = tiny_prior
    batch = np.random.default_rng(5).random((5, 3, 32, 32))
    total = losses.as_loss(batch, params)
    assert abs(float(np.sum(_scores(params, batch))) - total) <= 1e-12 * total


def test_score_permutation_equivariant(tiny_prior):
    params, _ = tiny_prior
    batch = np.random.default_rng(7).random((4, 3, 32, 32))
    perm = [2, 0, 3, 1]
    total = losses.as_loss(batch[perm], params)
    assert abs(float(np.sum(_scores(params, batch)[perm])) - total) <= 1e-12 * total


def test_trained_prior_separates_noise_from_textures(tiny_corpus, tiny_prior):
    params, _ = tiny_prior
    rng = np.random.default_rng(2024)
    pool = np.setdiff1d(np.arange(tiny_corpus.count), tiny_corpus.eval_split)
    wins = 0
    for _ in range(100):
        real = tiny_corpus.images[rng.choice(pool)]
        noise = rng.random((3, 32, 32))
        wins += losses.as_loss(real[None], params) < losses.as_loss(noise[None], params)
    assert wins >= 90


# ---------------------------------------------------------------- persistence

def test_save_load_round_trip(tmp_path, tiny_prior):
    params, _ = tiny_prior
    path = tmp_path / "prior.bin"
    prior.save_model(path, params)
    back = prior.load_model(path)
    assert back.widths == params.widths and back.in_channels == params.in_channels
    for a, b in zip(params.arrays, back.arrays):
        assert a.tobytes() == b.tobytes()


def test_model_file_size_formula(tmp_path):
    params = nn.init_autoencoder(seed=4, widths=(2, 3))
    path = tmp_path / "m.bin"
    prior.save_model(path, params)
    want = 8 + 4
    for name, a in zip(params.names, params.arrays):
        want += 2 + len(name.encode()) + 1 + 4 * a.ndim + 8 * a.size
    assert path.stat().st_size == want


def test_load_rejects_bad_magic(tmp_path):
    params = nn.init_autoencoder(seed=5, widths=(2, 2))
    path = tmp_path / "m.bin"
    prior.save_model(path, params)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="byte 0"):
        prior.load_model(path)


def test_load_rejects_truncation(tmp_path):
    params = nn.init_autoencoder(seed=6, widths=(2, 2))
    path = tmp_path / "m.bin"
    prior.save_model(path, params)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 5])
    with pytest.raises(FormatError, match="truncated at byte"):
        prior.load_model(path)


def test_load_rejects_trailing_bytes(tmp_path):
    params = nn.init_autoencoder(seed=7, widths=(2, 2))
    path = tmp_path / "m.bin"
    prior.save_model(path, params)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        prior.load_model(path)


def test_load_rejects_non_finite_values(tmp_path):
    params = nn.init_autoencoder(seed=8, widths=(2, 2))
    arrays = [a.copy() for a in params.arrays]
    arrays[0][0, 0, 0, 0] = np.inf
    path = tmp_path / "m.bin"
    prior.save_model(path, params.with_values(arrays))
    with pytest.raises(FormatError, match="non-finite"):
        prior.load_model(path)


def test_load_rejects_wrong_tensor_set(tmp_path):
    clf = nn.init_classifier("dense1", in_shape=(1, 4, 4), seed=9)
    path = tmp_path / "m.bin"
    prior.save_model(path, clf)  # writes fine, but it is not an autoencoder
    with pytest.raises(FormatError, match="autoencoder"):
        prior.load_model(path)


def test_load_rejects_duplicate_names(tmp_path):
    a = np.zeros((2, 3, 3, 3))
    fake = SimpleNamespace(names=("enc1_w", "enc1_w"), arrays=(a, a))
    path = tmp_path / "m.bin"
    prior.save_model(path, fake)
    with pytest.raises(FormatError, match="duplicate"):
        prior.load_model(path)


def test_load_rejects_inconsistent_shapes(tmp_path):
    params = nn.init_autoencoder(seed=10, widths=(2, 2))
    arrays = list(params.arrays)
    arrays[params.names.index("dec1_w")] = np.zeros((2, 7, 3, 3))  # wrong fan-in for width 2
    path = tmp_path / "m.bin"
    prior.save_model(path, SimpleNamespace(names=params.names, arrays=arrays))
    with pytest.raises(FormatError, match="dec1_w"):
        prior.load_model(path)


def test_read_model_tensors_reports_offsets(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(prior.MODEL_MAGIC + struct.pack("<I", 1) + struct.pack("<H", 3))
    with pytest.raises(FormatError, match="byte 14"):
        prior.read_model_tensors(path)
