"""Datasets and image files.

Three sources produce the same Dataset shape: IDX pairs (the MNIST layout),
CIFAR-10 binary batches, and a built-in synthetic texture corpus.  Pixels
are float64 in [0, 1], NCHW.  Recovered images are written as binary PGM
(P5, one channel) or PPM (P6, three channels) with round-half-up
quantization to 8 bits.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ArgumentError, ConfigurationError, DimensionError, FormatError

CIFAR10_CLASSES = ("airplane", "automobile", "bird", "cat", "deer",
                   "dog", "frog", "horse", "ship", "truck")
DATASETS = ("synthetic", "mnist", "cifar10")

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801
_CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixels


@dataclass(frozen=True)
class Dataset:
    """Images plus labels, with an optional named held-out split."""

    name: str
    images: np.ndarray                      # [N, C, H, W] float64 in [0, 1]
    labels: np.ndarray                      # [N] int64
    class_names: tuple[str, ...] | None = None
    eval_split: np.ndarray | None = None    # indices of the designated eval split

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DimensionError(f"dataset images must be NCHW, got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DimensionError(f"labels {self.labels.shape} do not match "
                                 f"{self.images.shape[0]} images")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ArgumentError("dataset pixels must lie in [0, 1]")
        if self.eval_split is not None:
            idx = np.asarray(self.eval_split)
            if idx.size and (idx.min() < 0 or idx.max() >= len(self.labels)):
                raise ArgumentError("eval split indices out of range")

    @property
    def count(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])


# ---------------------------------------------------------------------------
# IDX (MNIST layout)

def _open_maybe_gz(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, n: int, path, offset: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"{path}: truncated, wanted {n} bytes at offset {offset}, "
                          f"got {len(buf)}")
    return buf


def _read_idx(path, magic: int) -> tuple[tuple[int, ...], bytes]:
    """An IDX file's dims and uint8 payload.  The magic's low byte is the
    number of dims, each a big-endian u32 after it."""
    ndim = magic & 0xFF
    head = 4 + 4 * ndim
    with _open_maybe_gz(path) as fh:
        got, = struct.unpack(">I", _read_exact(fh, 4, path, 0))
        if got != magic:
            raise FormatError(f"{path}: bad magic 0x{got:08x} at offset 0, "
                              f"expected 0x{magic:08x}")
        dims = struct.unpack(f">{ndim}I", _read_exact(fh, head - 4, path, 4))
        size = math.prod(dims)
        raw = _read_exact(fh, size, path, head)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after offset {head + size}")
    return dims, raw


def load_idx(images_path, labels_path, name: str = "idx") -> Dataset:
    """Load an IDX image/label file pair (optionally gzip-compressed)."""
    (n, h, w), raw = _read_idx(images_path, _IDX_IMAGES_MAGIC)
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, h, w).astype(np.float64) / 255.0
    (ln,), lraw = _read_idx(labels_path, _IDX_LABELS_MAGIC)
    labels = np.frombuffer(lraw, dtype=np.uint8).astype(np.int64)
    if ln != n:
        raise FormatError(f"{labels_path}: {ln} labels for {n} images in {images_path}")
    return Dataset(name=name, images=images, labels=labels)


def _pick(directory: Path, stem: str, suffixes: tuple[str, ...]) -> Path:
    # the first of stem + suffix that exists under directory
    for suffix in suffixes:
        p = directory / (stem + suffix)
        if p.exists():
            return p
    raise ConfigurationError(f"missing {' or '.join(stem + s for s in suffixes)} "
                             f"under {directory}")


def load_mnist(directory) -> Dataset:
    """Load the standard four-file MNIST directory; test images become the
    named eval split."""
    d = Path(directory)
    train, test = (load_idx(_pick(d, f"{prefix}-images-idx3-ubyte", ("", ".gz")),
                            _pick(d, f"{prefix}-labels-idx1-ubyte", ("", ".gz")))
                   for prefix in ("train", "t10k"))
    images = np.concatenate([train.images, test.images])
    labels = np.concatenate([train.labels, test.labels])
    eval_split = np.arange(train.count, train.count + test.count)
    return Dataset(name="mnist", images=images, labels=labels, eval_split=eval_split)


# ---------------------------------------------------------------------------
# CIFAR-10 binary

def _load_cifar_file(path) -> tuple[np.ndarray, np.ndarray]:
    raw = Path(path).read_bytes()
    if len(raw) == 0 or len(raw) % _CIFAR_RECORD != 0:
        raise FormatError(f"{path}: size {len(raw)} is not a multiple of "
                          f"{_CIFAR_RECORD}-byte records (offset {len(raw) - len(raw) % _CIFAR_RECORD})")
    rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    labels = rec[:, 0].astype(np.int64)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise FormatError(f"{path}: label {labels[bad[0]]} out of range "
                          f"at offset {int(bad[0]) * _CIFAR_RECORD}")
    images = rec[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    return images, labels


def load_cifar10(directory) -> Dataset:
    """Load CIFAR-10 binary batches; the test batch becomes the eval split."""
    stems = [f"data_batch_{i}" for i in range(1, 6)] + ["test_batch"]
    parts = [_load_cifar_file(_pick(Path(directory), stem, (".bin", ""))) for stem in stems]
    images = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])
    n = len(labels)
    eval_split = np.arange(n - len(parts[-1][1]), n)
    return Dataset(name="cifar10", images=images, labels=labels,
                   class_names=CIFAR10_CLASSES, eval_split=eval_split)


# ---------------------------------------------------------------------------
# synthetic textures

# per-class style: family, base RGB, spatial frequency, orientation (radians).
# classes 2..6 mirror the five smooth "animal" classes, 9 is the fine-grained
# "truck" style used as the out-of-distribution family.
_CLASS_STYLES = (
    ("machine", (0.55, 0.60, 0.70), 3.0, 0.00),
    ("machine", (0.60, 0.45, 0.40), 4.0, 0.55),
    ("organic", (0.55, 0.60, 0.45), 1.0, 0.80),
    ("organic", (0.62, 0.50, 0.40), 2.0, 0.30),
    ("organic", (0.45, 0.55, 0.40), 1.5, 1.20),
    ("organic", (0.55, 0.45, 0.52), 2.0, 1.60),
    ("organic", (0.50, 0.42, 0.35), 1.0, 0.10),
    ("organic", (0.40, 0.60, 0.45), 2.5, 0.90),
    ("machine", (0.45, 0.50, 0.65), 2.0, 1.10),
    ("machine", (0.65, 0.55, 0.35), 6.0, 0.25),
)


def _organic_field(rng, h, w, freq, angle):
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    field = np.zeros((h, w))
    for _ in range(rng.integers(2, 4)):
        cy, cx = rng.uniform(0.1, 0.9, 2)
        s = rng.uniform(0.12, 0.3)
        amp = rng.uniform(0.25, 0.55) * rng.choice((-1.0, 1.0))
        field += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
    a = angle + rng.normal(0, 0.2)
    phase = rng.uniform(0, 2 * np.pi)
    field += 0.18 * np.sin(2 * np.pi * freq * (np.cos(a) * xx + np.sin(a) * yy) + phase)
    return field


def _machine_field(rng, h, w, freq, angle):
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    field = np.zeros((h, w))
    for _ in range(rng.integers(2, 5)):
        y0, y1 = np.sort(rng.uniform(0.05, 0.95, 2))
        x0, x1 = np.sort(rng.uniform(0.05, 0.95, 2))
        fill = rng.uniform(-0.35, 0.35)
        field += fill * ((yy >= y0) & (yy < y1) & (xx >= x0) & (xx < x1))
    a = angle + rng.normal(0, 0.1)
    phase = rng.uniform(0, 2 * np.pi)
    u = np.cos(a) * xx + np.sin(a) * yy
    v = -np.sin(a) * xx + np.cos(a) * yy
    field += 0.16 * np.sign(np.sin(2 * np.pi * freq * u + phase) *
                            np.sin(2 * np.pi * freq * v + phase * 0.7))
    return field


def synthetic_textures(count: int, shape: tuple[int, int, int] = (3, 32, 32),
                       seed: int = 0, class_pool=None,
                       eval_fraction: float = 1.0 / 6.0) -> Dataset:
    """Deterministic class-correlated texture corpus.

    Classes 2..6 form a smooth low-frequency family, classes 0, 1, 8, 9 a
    hard-edged high-frequency one (9 is the finest).  The trailing
    ``eval_fraction`` of the corpus is marked as the named eval split.
    """
    if count < 1:
        raise ArgumentError(f"count must be positive, got {count}")
    c, h, w = (int(v) for v in shape)
    if c not in (1, 3):
        raise ArgumentError(f"synthetic textures support 1 or 3 channels, got {c}")
    if not (0.0 <= eval_fraction < 1.0):
        raise ConfigurationError(f"eval_fraction must be in [0, 1), got {eval_fraction}")
    pool = np.arange(10) if class_pool is None else np.asarray(sorted(class_pool))
    if pool.size == 0 or pool.min() < 0 or pool.max() > 9:
        raise ArgumentError(f"class_pool must name classes 0..9, got {class_pool}")
    rng = np.random.default_rng(seed)
    labels = pool[rng.integers(0, pool.size, count)].astype(np.int64)
    images = np.empty((count, c, h, w))
    for i in range(count):
        family, base, freq, angle = _CLASS_STYLES[labels[i]]
        make = _organic_field if family == "organic" else _machine_field
        field = make(rng, h, w, freq, angle)
        gains = rng.uniform(0.75, 1.25, c)
        bright = rng.uniform(-0.08, 0.08)
        for ch in range(c):
            base_v = base[ch] if c == 3 else float(np.mean(base))
            images[i, ch] = base_v + bright + gains[ch] * field * 0.5
    np.clip(images, 0.02, 0.98, out=images)
    images = np.round(images * 255.0) / 255.0  # snap to the 8-bit grid
    n_eval = int(round(count * eval_fraction))
    eval_split = np.arange(count - n_eval, count) if n_eval else None
    return Dataset(name="synthetic", images=images, labels=labels,
                   class_names=CIFAR10_CLASSES, eval_split=eval_split)


# ---------------------------------------------------------------------------
# PGM / PPM

def quantize_u8(image: np.ndarray) -> np.ndarray:
    """Round-half-up quantization of [0, 1] floats to uint8 (0.5 -> 128)."""
    image = np.asarray(image)
    q = np.floor(image * 255.0 + 0.5)
    return np.clip(q, 0, 255).astype(np.uint8)


def save_image(path, image: np.ndarray) -> None:
    """Write a CHW [0,1] image as binary PGM (1 channel) or PPM (3)."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] not in (1, 3):
        raise DimensionError(f"save_image expects CHW with 1 or 3 channels, got {image.shape}")
    c, h, w = image.shape
    q = quantize_u8(image)
    magic = b"P5" if c == 1 else b"P6"
    payload = q[0] if c == 1 else q.transpose(1, 2, 0)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode("ascii"))
        fh.write(payload.tobytes())


def _read_header_token(buf: bytes, pos: int, path) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines, then read one token
    n = len(buf)
    while pos < n:
        ch = buf[pos:pos + 1]
        if ch in b" \t\r\n":
            pos += 1
        elif ch == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise FormatError(f"{path}: header ended early at offset {pos}")
    start = pos
    while pos < n and buf[pos:pos + 1] not in b" \t\r\n":
        pos += 1
    return buf[start:pos], pos


def load_image(path) -> np.ndarray:
    """Read a binary PGM/PPM written by save_image back to CHW [0,1]."""
    buf = Path(path).read_bytes()
    if buf[:2] not in (b"P5", b"P6"):
        raise FormatError(f"{path}: bad magic {buf[:2]!r} at offset 0")
    channels = 1 if buf[:2] == b"P5" else 3
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_header_token(buf, pos, path)
        if not tok.isdigit():
            raise FormatError(f"{path}: non-numeric header token {tok!r} "
                              f"at offset {pos - len(tok)}")
        fields.append(int(tok))
    w, h, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval} (only 255)")
    pos += 1  # single whitespace byte after maxval
    need = w * h * channels
    raw = buf[pos:pos + need]
    if len(raw) != need:
        raise FormatError(f"{path}: truncated pixel data at offset {pos}, "
                          f"wanted {need} bytes, got {len(raw)}")
    arr = np.frombuffer(raw, dtype=np.uint8)
    if channels == 1:
        chw = arr.reshape(1, h, w)
    else:
        chw = arr.reshape(h, w, 3).transpose(2, 0, 1)
    return chw.astype(np.float64) / 255.0
