"""Dataset ingestion: IDX, CIFAR-10 binary, synthetic textures, PGM/PPM."""

import gzip
import struct

import numpy as np
import pytest

from gipip import attack, data, nn
from gipip import tensor as tt
from gipip.errors import ArgumentError, ConfigurationError, DimensionError, FormatError

from conftest import save_cifar10_file, variables


def write_idx_images(path, arr_u8):
    n, h, w = arr_u8.shape
    path.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + arr_u8.tobytes())


def write_idx_labels(path, labels_u8):
    path.write_bytes(struct.pack(">II", 0x801, len(labels_u8)) + bytes(labels_u8))


# ---------------------------------------------------------------- idx

def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.integers(0, 256, (3, 4, 5), dtype=np.uint8)
    arr[0, 0, 0] = 255
    write_idx_images(tmp_path / "im", arr)
    write_idx_labels(tmp_path / "lb", [7, 0, 3])
    ds = data.load_idx(tmp_path / "im", tmp_path / "lb")
    assert ds.images.shape == (3, 1, 4, 5)
    assert np.array_equal(ds.labels, [7, 0, 3])
    assert ds.images[0, 0, 0, 0] == 1.0
    assert np.array_equal(ds.images, arr[:, None].astype(np.float64) / 255.0)


def test_idx_gzip_accepted(tmp_path):
    arr = np.full((2, 3, 3), 128, dtype=np.uint8)
    write_idx_images(tmp_path / "im", arr)
    write_idx_labels(tmp_path / "lb", [1, 2])
    for stem in ("im", "lb"):
        raw = (tmp_path / stem).read_bytes()
        with gzip.open(tmp_path / f"{stem}.gz", "wb") as fh:
            fh.write(raw)
    ds = data.load_idx(tmp_path / "im.gz", tmp_path / "lb.gz")
    assert ds.count == 2 and ds.images[0, 0, 0, 0] == 128.0 / 255.0


def test_idx_wrong_magic(tmp_path):
    (tmp_path / "im").write_bytes(struct.pack(">IIII", 0x802, 1, 2, 2) + b"\x00" * 4)
    write_idx_labels(tmp_path / "lb", [0])
    with pytest.raises(FormatError, match="0x00000802"):
        data.load_idx(tmp_path / "im", tmp_path / "lb")


def test_idx_truncated_payload(tmp_path):
    (tmp_path / "im").write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 5)
    write_idx_labels(tmp_path / "lb", [0, 1])
    with pytest.raises(FormatError, match="offset 16"):
        data.load_idx(tmp_path / "im", tmp_path / "lb")


def test_idx_count_mismatch(tmp_path):
    write_idx_images(tmp_path / "im", np.zeros((2, 2, 2), dtype=np.uint8))
    write_idx_labels(tmp_path / "lb", [0, 1, 2])
    with pytest.raises(FormatError, match="3 labels for 2 images"):
        data.load_idx(tmp_path / "im", tmp_path / "lb")


def test_idx_trailing_bytes(tmp_path):
    write_idx_images(tmp_path / "im", np.zeros((1, 2, 2), dtype=np.uint8))
    (tmp_path / "im").write_bytes((tmp_path / "im").read_bytes() + b"x")
    write_idx_labels(tmp_path / "lb", [0])
    with pytest.raises(FormatError, match="trailing"):
        data.load_idx(tmp_path / "im", tmp_path / "lb")


def test_mnist_directory_layout(tmp_path):
    rng = np.random.default_rng(1)
    write_idx_images(tmp_path / "train-images-idx3-ubyte",
                     rng.integers(0, 256, (3, 4, 4), dtype=np.uint8))
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", [0, 1, 2])
    write_idx_images(tmp_path / "t10k-images-idx3-ubyte",
                     rng.integers(0, 256, (2, 4, 4), dtype=np.uint8))
    write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", [3, 4])
    ds = data.load_mnist(tmp_path)
    assert ds.count == 5
    assert np.array_equal(ds.eval_split, [3, 4])
    assert np.array_equal(ds.labels, [0, 1, 2, 3, 4])
    with pytest.raises(ConfigurationError):
        data.load_mnist(tmp_path / "nowhere")


# ---------------------------------------------------------------- cifar-10

def _grid(images):
    """Snap float images to the 8-bit grid the binary format stores."""
    return data.quantize_u8(images).astype(np.float64) / 255.0


def test_cifar_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(2)
    images = _grid(rng.random((4, 3, 32, 32)))
    labels = np.array([0, 9, 3, 3])
    for i in range(1, 6):
        save_cifar10_file(tmp_path / f"data_batch_{i}.bin", images, labels)
    save_cifar10_file(tmp_path / "test_batch.bin", images[:2], labels[:2])
    ds = data.load_cifar10(tmp_path)
    assert ds.count == 22
    assert np.array_equal(ds.images[:4], images)
    assert ds.images[:4].tobytes() == images.tobytes()
    assert np.array_equal(ds.eval_split, [20, 21])
    assert ds.class_names is not None and ds.class_names[9] == "truck"


def test_cifar_rejects_partial_record(tmp_path):
    (tmp_path / "data_batch_1.bin").write_bytes(b"\x00" * (3073 + 17))
    for i in range(2, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes(b"\x00" * 3073)
    (tmp_path / "test_batch.bin").write_bytes(b"\x00" * 3073)
    with pytest.raises(FormatError, match="3073"):
        data.load_cifar10(tmp_path)


def test_cifar_rejects_bad_label(tmp_path):
    rec = bytearray(3073 * 2)
    rec[3073] = 10  # second record's label byte
    (tmp_path / "b.bin").write_bytes(bytes(rec))
    for i in range(1, 6):
        (tmp_path / f"data_batch_{i}.bin").write_bytes(b"\x00" * 3073)
    (tmp_path / "test_batch.bin").write_bytes(bytes(rec))
    with pytest.raises(FormatError, match="offset 3073"):
        data.load_cifar10(tmp_path)


def test_cifar_save_validation(tmp_path):
    with pytest.raises(DimensionError):
        save_cifar10_file(tmp_path / "x.bin", np.zeros((1, 1, 32, 32)), np.zeros(1))
    with pytest.raises(ArgumentError):
        save_cifar10_file(tmp_path / "x.bin", np.zeros((1, 3, 32, 32)), np.array([11]))


def test_cifar_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="data_batch_1"):
        data.load_cifar10(tmp_path)


# ---------------------------------------------------------------- synthetic textures

def test_synthetic_deterministic():
    a = data.synthetic_textures(20, seed=7)
    b = data.synthetic_textures(20, seed=7)
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = data.synthetic_textures(20, seed=8)
    assert a.images.tobytes() != c.images.tobytes()


def test_synthetic_range_and_grid():
    ds = data.synthetic_textures(12, shape=(1, 16, 16), seed=3)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert np.array_equal(ds.images * 255.0, np.round(ds.images * 255.0))


def test_synthetic_eval_split_is_trailing_sixth():
    ds = data.synthetic_textures(60, seed=4)
    assert np.array_equal(ds.eval_split, np.arange(50, 60))
    none = data.synthetic_textures(5, seed=4, eval_fraction=0.0)
    assert none.eval_split is None


def test_synthetic_class_pool():
    ds = data.synthetic_textures(40, seed=5, class_pool=(9, 2, 4))
    assert set(np.unique(ds.labels)) <= {2, 4, 9}
    assert len(np.unique(ds.labels)) == 3


def test_synthetic_validation():
    with pytest.raises(ArgumentError):
        data.synthetic_textures(0)
    with pytest.raises(ArgumentError):
        data.synthetic_textures(4, shape=(2, 8, 8))
    with pytest.raises(ConfigurationError):
        data.synthetic_textures(4, eval_fraction=1.0)
    with pytest.raises(ArgumentError):
        data.synthetic_textures(4, class_pool=(3, 12))


def test_synthetic_textures_are_learnable():
    # a linear probe on two texture families must beat chance after a few
    # epochs, otherwise the corpus carries no class signal
    ds = data.synthetic_textures(180, shape=(3, 16, 16), seed=6, class_pool=(2, 9))
    train = np.setdiff1d(np.arange(ds.count), ds.eval_split)
    params = nn.init_classifier("dense1", in_shape=(3, 16, 16), seed=0)
    arrays = params.arrays
    state = attack.adam_init(arrays)
    rng = np.random.default_rng(0)
    for _ in range(5):
        order = rng.permutation(train)
        for start in range(0, len(order), 16):
            idx = order[start:start + 16]
            p = variables(params.with_values(arrays))
            ce = tt.softmax_cross_entropy(
                nn.forward_classifier(p, tt.constant(ds.images[idx])), ds.labels[idx])
            grads = [g.data for g in tt.grad(ce, p.arrays)]
            arrays, state = attack.adam_step(state, arrays, grads, lr=1e-2)
    p = params.with_values(arrays)
    logits = nn.forward_classifier(p, tt.constant(ds.images[ds.eval_split])).data
    acc = float(np.mean(np.argmax(logits, axis=1) == ds.labels[ds.eval_split]))
    assert acc > 0.5  # strictly above the 1/K chance floor


def test_dataset_validation():
    with pytest.raises(ArgumentError):
        data.Dataset(name="x", images=np.full((1, 1, 2, 2), 1.5), labels=np.zeros(1, dtype=np.int64))
    with pytest.raises(DimensionError):
        data.Dataset(name="x", images=np.zeros((2, 1, 2, 2)), labels=np.zeros(3, dtype=np.int64))
    with pytest.raises(ArgumentError):
        data.Dataset(name="x", images=np.zeros((2, 1, 2, 2)),
                     labels=np.zeros(2, dtype=np.int64), eval_split=np.array([5]))


# ---------------------------------------------------------------- pgm / ppm

def test_save_image_extreme_payloads(tmp_path):
    data.save_image(tmp_path / "zero.pgm", np.zeros((1, 2, 3)))
    raw = (tmp_path / "zero.pgm").read_bytes()
    assert raw.startswith(b"P5\n3 2\n255\n")
    assert raw[len(b"P5\n3 2\n255\n"):] == b"\x00" * 6

    data.save_image(tmp_path / "one.ppm", np.ones((3, 2, 2)))
    raw = (tmp_path / "one.ppm").read_bytes()
    assert raw.startswith(b"P6\n2 2\n255\n")
    assert raw[len(b"P6\n2 2\n255\n"):] == b"\xff" * 12


def test_save_image_rounds_half_up(tmp_path):
    data.save_image(tmp_path / "half.pgm", np.full((1, 1, 1), 0.5))
    assert (tmp_path / "half.pgm").read_bytes()[-1] == 128


def test_image_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    img = _grid(rng.random((3, 5, 7)))
    data.save_image(tmp_path / "x.ppm", img)
    back = data.load_image(tmp_path / "x.ppm")
    assert back.shape == (3, 5, 7)
    assert np.array_equal(back, img)

    gray = _grid(rng.random((1, 4, 4)))
    data.save_image(tmp_path / "g.pgm", gray)
    assert np.array_equal(data.load_image(tmp_path / "g.pgm"), gray)


def test_save_image_rejects_bad_channels(tmp_path):
    with pytest.raises(DimensionError):
        data.save_image(tmp_path / "x.ppm", np.zeros((2, 4, 4)))
    with pytest.raises(DimensionError):
        data.save_image(tmp_path / "x.ppm", np.zeros((4, 4)))


def test_load_image_header_handling(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment line\n2 1\n255\n\x00\x80")
    img = data.load_image(p)
    assert img.shape == (1, 1, 2)
    assert img[0, 0, 1] == 128.0 / 255.0

    (tmp_path / "bad.pgm").write_bytes(b"P7\n1 1\n255\n\x00")
    with pytest.raises(FormatError, match="magic"):
        data.load_image(tmp_path / "bad.pgm")
    (tmp_path / "trunc.pgm").write_bytes(b"P5\n4 4\n255\n\x00")
    with pytest.raises(FormatError, match="truncated"):
        data.load_image(tmp_path / "trunc.pgm")
    (tmp_path / "max.pgm").write_bytes(b"P5\n1 1\n63\n\x00")
    with pytest.raises(FormatError, match="maxval"):
        data.load_image(tmp_path / "max.pgm")
    (tmp_path / "tok.pgm").write_bytes(b"P5\nxx 1\n255\n\x00")
    with pytest.raises(FormatError, match="non-numeric"):
        data.load_image(tmp_path / "tok.pgm")
