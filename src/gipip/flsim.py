"""A one-round federated exchange, reduced to what the attack threat model
needs: a client computes the batch-averaged cross-entropy gradient and
shares it; the private batch itself stays inside a sealed container that
only evaluation code opens.

The data split is explicit: auxiliary indices (public, used to train the
prior) and target indices (private, attacked) must never overlap.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset
from .errors import (ArgumentError, ConfigurationError, DimensionError,
                     PartitionError)
from .kernels import frozen
from .losses import GradientVector, classifier_gradient
from .nn import ClassifierParams

PARTITION_MODES = ("named_split", "fraction")


@dataclass(frozen=True)
class ClientBatch:
    """The private training batch of one client; the images are kept as a
    frozen copy."""

    images: np.ndarray      # [N, C, H, W], pixels in [0, 1]
    labels: np.ndarray      # [N] integer class ids

    def __post_init__(self):
        if not isinstance(self.images, np.ndarray) or self.images.ndim != 4:
            raise DimensionError("client batch images must be an NCHW array")
        object.__setattr__(self, "images", frozen(self.images))
        if self.images.shape[0] < 1:
            raise DimensionError("client batch is empty")
        if self.images.min() < 0.0 or self.images.max() > 1.0:
            raise ArgumentError("client batch pixels must lie in [0, 1]")
        labels = np.asarray(self.labels)
        if labels.shape != (self.images.shape[0],):
            raise DimensionError(f"labels {labels.shape} do not match batch "
                                 f"{self.images.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ArgumentError("labels must be integers")

    @property
    def size(self) -> int:
        return self.images.shape[0]


@dataclass(frozen=True)
class SharedGradient:
    """What actually crosses the wire: the gradient and public metadata.

    Labels ride along because the attack model assumes they are known.
    No pixel data is reachable from here.
    """

    gradient: GradientVector
    batch_size: int
    labels: np.ndarray
    model_fingerprint: str


class SealedGroundTruth:
    """Private images behind an explicit reveal() call.

    Exists so evaluation can compare reconstructions against the truth
    while the attack path never touches it; nothing else in the package
    reads these pixels.
    """

    __slots__ = ("_images", "_labels")

    def __init__(self, images: np.ndarray, labels: np.ndarray):
        self._images = np.asarray(images).copy()
        self._labels = np.asarray(labels).copy()

    def reveal(self) -> tuple[np.ndarray, np.ndarray]:
        """Hand out copies of the private images and labels (evaluation only)."""
        return self._images.copy(), self._labels.copy()

    def __repr__(self) -> str:
        return f"SealedGroundTruth(n={self._images.shape[0]})"


def model_fingerprint(params) -> str:
    """SHA-256 over metadata, parameter names, shapes and raw values."""
    h = hashlib.sha256()
    for f in fields(params):
        if f.name not in ("names", "arrays"):
            h.update(f"{f.name}={getattr(params, f.name)!r};".encode())
    for name, a in zip(params.names, params.arrays):
        h.update(name.encode())
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def client_compute_gradient(theta_g: ClassifierParams, batch: ClientBatch) -> SharedGradient:
    """One honest client step: batch-averaged CE gradient at theta_g."""
    labels = np.asarray(batch.labels)
    if labels.size and (labels.min() < 0 or labels.max() >= theta_g.num_classes):
        raise ArgumentError(f"labels must lie in [0, {theta_g.num_classes})")
    # what is shared are values: frozen C-ordered arrays, which pickle and
    # lay out the same in every process that receives them
    gv = classifier_gradient(theta_g, batch.images, labels)
    return SharedGradient(gradient=gv,
                          batch_size=batch.size,
                          labels=labels.copy(),
                          model_fingerprint=model_fingerprint(theta_g))


@dataclass(frozen=True)
class Partition:
    """Disjoint auxiliary/target index sets over one dataset."""

    aux_indices: np.ndarray
    target_indices: np.ndarray
    provenance: str

    def __post_init__(self):
        verify_disjoint(self)


def verify_disjoint(partition: Partition) -> None:
    aux = np.asarray(partition.aux_indices)
    tgt = np.asarray(partition.target_indices)
    if aux.size == 0 or tgt.size == 0:
        raise PartitionError("both partition sides must be non-empty")
    if len(np.unique(aux)) != aux.size or len(np.unique(tgt)) != tgt.size:
        raise PartitionError("partition indices must be unique")
    overlap = np.intersect1d(aux, tgt)
    if overlap.size:
        raise PartitionError(f"auxiliary and target sets overlap on {overlap.size} "
                             f"indices (first: {overlap[:5].tolist()})")


def make_partition(source: Dataset, mode: str = "named_split", seed: int = 0,
                   fraction: float | None = None) -> Partition:
    """Split a dataset into auxiliary (prior-training) and target halves.

    'named_split' uses the dataset's designated eval split as auxiliary
    data and everything else as targets.  'fraction' shuffles with the
    seed and takes that share as auxiliary.
    """
    n = source.count
    if mode == "named_split":
        if source.eval_split is None:
            raise ConfigurationError(f"dataset '{source.name}' has no named eval split; "
                                     "use fraction mode")
        aux = np.sort(np.asarray(source.eval_split))
        mask = np.ones(n, dtype=bool)
        mask[aux] = False
        tgt = np.nonzero(mask)[0]
        prov = f"{source.name}:named_split:aux={aux.size}:targets={tgt.size}"
    elif mode == "fraction":
        if fraction is None or not (0.0 < fraction < 1.0):
            raise ConfigurationError(f"fraction mode needs 0 < fraction < 1, got {fraction}")
        n_aux = int(round(n * fraction))
        if n_aux < 1 or n_aux >= n:
            raise ConfigurationError(f"fraction {fraction} leaves an empty side for n={n}")
        perm = np.random.default_rng(seed).permutation(n)
        aux = np.sort(perm[:n_aux])
        tgt = np.sort(perm[n_aux:])
        prov = f"{source.name}:fraction={fraction}:seed={seed}:aux={aux.size}:targets={tgt.size}"
    else:
        raise ConfigurationError(f"unknown partition mode '{mode}', "
                                 f"expected one of {PARTITION_MODES}")
    return Partition(aux_indices=aux, target_indices=tgt, provenance=prov)


def simulate_round(theta_g: ClassifierParams, dataset: Dataset, target_indices,
                   batch_size: int,
                   partition: Partition | None = None
                   ) -> tuple[list[SharedGradient], SealedGroundTruth]:
    """Run one round over the chosen targets, batch_size images per client.

    Returns the gradients the server would see plus the sealed truth for
    later evaluation.  When a partition is given, every target must come
    from its target side.
    """
    idx = np.asarray(target_indices)
    if idx.ndim != 1 or idx.size == 0:
        raise ArgumentError("target_indices must be a non-empty 1-d sequence")
    if len(np.unique(idx)) != idx.size:
        raise ArgumentError("target indices must be unique")
    if idx.min() < 0 or idx.max() >= dataset.count:
        raise ArgumentError(f"target indices out of range for dataset of {dataset.count}")
    if batch_size < 1 or idx.size % batch_size != 0:
        raise ArgumentError(f"{idx.size} targets do not divide into batches of {batch_size}")
    if partition is not None:
        outside = np.setdiff1d(idx, np.asarray(partition.target_indices))
        if outside.size:
            raise PartitionError(f"targets {outside[:5].tolist()} are not in the "
                                 "partition's target side")
    shared = []
    for start in range(0, idx.size, batch_size):
        chunk = idx[start:start + batch_size]
        batch = ClientBatch(images=dataset.images[chunk], labels=dataset.labels[chunk])
        shared.append(client_compute_gradient(theta_g, batch))
    truth = SealedGroundTruth(dataset.images[idx], dataset.labels[idx])
    return shared, truth
