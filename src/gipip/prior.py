"""The anomaly-score prior: train and persist.

The autoencoder is fit on auxiliary images only (never on attack targets)
by minimizing the summed per-image reconstruction error.  Its score of an
image is that same reconstruction error, which the attack adds to its
objective as R_as.

Model files are a fixed little-endian binary layout:

    magic   8 bytes  'GIPIP01\\0'
    count   u32      number of tensors
    per tensor:
        name_len u16, name utf-8, rank u8, extents u32 each, values f64

Save/load round-trips are bit-identical.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attack import adam_init, adam_step
from .errors import ConfigurationError, DimensionError, FormatError
from .nn import AutoEncoderParams, AutoEncoderPass, init_autoencoder

MODEL_MAGIC = b"GIPIP01\x00"


@dataclass(frozen=True)
class PriorTrainConfig:
    epochs: int = 30
    learning_rate: float = 1e-3
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigurationError(f"prior epochs must be >= 0, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigurationError(f"prior learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigurationError(f"prior batch_size must be >= 1, got {self.batch_size}")


def train_autoencoder(aux_images: np.ndarray,
                      config: PriorTrainConfig) -> tuple[AutoEncoderParams, list[float]]:
    """Fit the autoencoder on auxiliary images.

    Returns the trained parameters and the per-epoch mean anomaly score
    (mean over images of the summed squared residual).  Shuffling and
    initialization both derive from config.seed, so retraining is
    bit-reproducible.
    """
    aux_images = np.asarray(aux_images, dtype=np.float64)
    if aux_images.ndim != 4:
        raise DimensionError(f"aux images must be NCHW, got {aux_images.shape}")
    n, c, h, w = aux_images.shape
    if n < 1:
        raise ConfigurationError("no auxiliary images to train on; the prior "
                                 "needs a non-empty auxiliary split")
    init_seed, shuffle_seed = (int(s.generate_state(1)[0])
                               for s in np.random.SeedSequence(config.seed).spawn(2))
    params = init_autoencoder(c, seed=init_seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    state = adam_init(params.arrays)
    trace: list[float] = []
    for _ in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        epoch_sum = 0.0
        for start in range(0, n, config.batch_size):
            xb = aux_images[perm[start:start + config.batch_size]]
            ae = AutoEncoderPass(params, xb)
            r = ae.out - xb
            gr = r * (1.0 / len(xb))  # the per-image mean (stable lr): cotangent 2 r / batch
            arrays, state = adam_step(state, params.arrays, ae.param_grads(gr + gr),
                                      config.learning_rate)
            params = params.with_values(arrays)
            epoch_sum += float(np.sum(r * r, axis=(1, 2, 3)).sum())
        trace.append(epoch_sum / n)
    return params, trace


# ---------------------------------------------------------------------------
# model files

def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    name_b = name.encode("utf-8")
    fh.write(struct.pack("<H", len(name_b)))
    fh.write(name_b)
    fh.write(struct.pack("<B", arr.ndim))
    for ext in arr.shape:
        fh.write(struct.pack("<I", ext))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_model(path, params) -> None:
    """Serialize any parameter bundle (canonical order) to the model format."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(params.items)))
        for name, a in params.items:
            _write_tensor(fh, name, a)


class _Reader:
    def __init__(self, path):
        self.buf = Path(path).read_bytes()
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(f"{self.path}: truncated at byte {self.pos}, "
                              f"wanted {n} more of {len(self.buf)} total")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u(self, fmt: str) -> int:
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size))[0]


def read_model_tensors(path) -> list[tuple[str, np.ndarray]]:
    """Parse a model file into (name, array) pairs, validating as it goes."""
    r = _Reader(path)
    magic = r.take(8)
    if magic != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0, expected {MODEL_MAGIC!r}")
    count = r.u("<I")
    tensors = []
    for _ in range(count):
        name_len = r.u("<H")
        name_at = r.pos
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: undecodable tensor name at byte {name_at}: {exc}")
        rank = r.u("<B")
        shape = tuple(r.u("<I") for _ in range(rank))
        n_values = 1
        for ext in shape:
            n_values *= ext
        values_at = r.pos
        raw = r.take(n_values * 8)
        arr = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: non-finite values in tensor '{name}' "
                              f"starting at byte {values_at}")
        tensors.append((name, arr.astype(np.float64)))
    if r.pos != len(r.buf):
        raise FormatError(f"{path}: {len(r.buf) - r.pos} trailing bytes at byte {r.pos}")
    return tensors


def load_model(path) -> AutoEncoderParams:
    """Read a saved autoencoder back; inverse of save_model, bit-exact."""
    tensors = read_model_tensors(path)
    by_name = dict(tensors)
    if len(by_name) != len(tensors):
        raise FormatError(f"{path}: duplicate tensor names")
    expected = [f"{layer}_{kind}" for layer in ("enc1", "enc2", "dec1", "dec2")
                for kind in ("w", "b")]
    if sorted(by_name) != sorted(expected):
        raise FormatError(f"{path}: tensor names {sorted(by_name)} do not form "
                          "an autoencoder (enc1/enc2/dec1/dec2 w+b)")
    e1 = by_name["enc1_w"]
    if e1.ndim != 4:
        raise FormatError(f"{path}: enc1_w must be rank 4, got {e1.ndim}")
    in_channels = e1.shape[1]
    widths = (e1.shape[0], by_name["enc2_w"].shape[0])
    template = init_autoencoder(in_channels, seed=0, widths=widths)
    for name, t in template.items:
        if by_name[name].shape != t.shape:
            raise FormatError(f"{path}: tensor '{name}' has shape {by_name[name].shape}, "
                              f"expected {t.shape}")
    return template.with_values([by_name[name] for name, _ in template.items])
