"""Reconstruction quality metrics.

All functions take plain numpy arrays with pixel values on a [0, PEAK]
scale, PEAK = 1.  PSNR of an exact match is +inf; downstream aggregation
excludes infinite entries from means and reports their count.  SSIM's
Gaussian width and stabilizers are the constants SSIM_SIGMA, SSIM_K1 and
SSIM_K2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ConfigurationError, DimensionError

PEAK = 1.0
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"mse: shapes {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ArgumentError("mse of empty arrays")
    d = a - b
    return float(np.mean(d * d))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical inputs."""
    err = mse(a, b)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(PEAK * PEAK / err))


def _gaussian_kernel(window: int) -> np.ndarray:
    half = (window - 1) / 2.0
    coords = np.arange(window) - half
    g = np.exp(-(coords * coords) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    k = np.outer(g, g)
    return k / k.sum()


def _local_means(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # valid-mode weighted local means via a sliding window view
    win = kernel.shape[0]
    view = np.lib.stride_tricks.sliding_window_view(img, (win, win))
    return np.tensordot(view, kernel, axes=((2, 3), (0, 1)))


def ssim(a: np.ndarray, b: np.ndarray, window: int = 11) -> float:
    """Structural similarity, Gaussian-weighted, valid windows only.

    Inputs are HW or CHW; channels are scored independently and averaged.
    Images smaller than the window are rejected with a hint to pass a
    smaller one.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"ssim: shapes {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a, b = a[None], b[None]
    if a.ndim != 3:
        raise DimensionError(f"ssim expects HW or CHW images, got rank {a.ndim - 1}")
    if window < 3 or window % 2 == 0:
        raise ArgumentError(f"window must be odd and >= 3, got {window}")
    h, w = a.shape[-2:]
    if h < window or w < window:
        raise ConfigurationError(f"image {h}x{w} smaller than ssim window {window}; "
                                 "pass a smaller window explicitly")
    c1 = (SSIM_K1 * PEAK) ** 2
    c2 = (SSIM_K2 * PEAK) ** 2
    kernel = _gaussian_kernel(window)
    scores = []
    for ca, cb in zip(a, b):
        mu_a = _local_means(ca, kernel)
        mu_b = _local_means(cb, kernel)
        e_aa = _local_means(ca * ca, kernel)
        e_bb = _local_means(cb * cb, kernel)
        e_ab = _local_means(ca * cb, kernel)
        var_a = e_aa - mu_a * mu_a
        var_b = e_bb - mu_b * mu_b
        cov = e_ab - mu_a * mu_b
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
        scores.append(np.mean(num / den))
    return float(np.mean(scores))


def optimal_assignment(recovered: np.ndarray, truth: np.ndarray) -> tuple[int, ...]:
    """Pairing of recovered images to truth images maximizing total PSNR.

    Element i of the result is the truth index matched to recovered[i];
    batches hold at most 8 images.  Exact matches score +inf, so pairings
    are ranked first by how many exact matches they contain and then by the
    sum of their finite PSNRs, added in row order; among equal keys the
    lexicographically first pairing wins.

    A dynamic program over subsets of truth indices (about 2^n * n steps)
    gives the same pairing as trying all n! of them.  Rows are assigned in
    order; for a set of used truth indices, a partial pairing whose sum
    trails the best by more than the rounding the remaining additions can
    absorb can never tie or win, and is dropped.
    """
    recovered, truth = np.asarray(recovered), np.asarray(truth)
    if recovered.shape != truth.shape:
        raise DimensionError(f"assignment: shapes {recovered.shape} vs {truth.shape}")
    n = recovered.shape[0]
    if n < 1:
        raise ArgumentError("assignment of an empty batch")
    if n > 8:
        raise ArgumentError(f"assignment is limited to 8 images, got {n}")
    score = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            score[i, j] = psnr(recovered[i], truth[j])
    finite = np.where(np.isfinite(score), np.abs(score), 0.0)
    # every partial sum lies within `bound`, so each addition rounds by at
    # most half a spacing there; n additions cannot close a wider gap
    bound = float(finite.max(axis=1).sum())
    slack = 2 * n * np.spacing(2 * bound)
    # cands[mask]: (key, pairing) of rows 0..popcount-1 onto the truth
    # indices in mask, key = (exact matches, finite sum)
    cands: dict[int, list] = {0: [((0, 0.0), ())]}
    full = (1 << n) - 1
    for mask in range(full):        # adding an index only raises the mask
        top = max(key for key, _ in cands[mask])
        kept: dict[tuple, tuple] = {}
        for key, pairing in cands.pop(mask):
            if key[0] == top[0] and key[1] >= top[1] - slack:
                kept[key] = min(pairing, kept.get(key, pairing))
        for (exact, total), pairing in kept.items():
            row = score[len(pairing)]
            for j in range(n):
                if mask >> j & 1:
                    continue
                if np.isinf(row[j]):
                    key = (exact + 1, total)
                elif np.isfinite(row[j]):
                    key = (exact, total + row[j])
                else:
                    key = (exact, total)
                cands.setdefault(mask | 1 << j, []).append((key, pairing + (j,)))
    top = max(key for key, _ in cands[full])
    return min(pairing for key, pairing in cands[full] if key == top)


@dataclass(frozen=True)
class MetricReport:
    """Per-image and aggregate quality of one recovered batch."""

    pairing: tuple[int, ...]
    psnr_values: tuple[float, ...]
    ssim_values: tuple[float, ...]
    mean_mse: float
    mean_psnr: float          # over finite entries only
    psnr_inf_count: int
    mean_ssim: float


def evaluate_batch(recovered: np.ndarray, truth: np.ndarray) -> MetricReport:
    """Score a recovered batch against the ground truth.

    The batch is first re-paired to maximize total PSNR (see
    ``optimal_assignment``), since gradient averaging makes recovered image
    order arbitrary.
    """
    recovered, truth = np.asarray(recovered), np.asarray(truth)
    if recovered.shape != truth.shape:
        raise DimensionError(f"evaluate_batch: shapes {recovered.shape} vs {truth.shape}")
    if recovered.ndim != 4:
        raise DimensionError(f"evaluate_batch expects NCHW, got rank {recovered.ndim}")
    pairing = optimal_assignment(recovered, truth)
    mses, psnrs, ssims = [], [], []
    for r, j in zip(recovered, pairing):
        mses.append(mse(r, truth[j]))
        psnrs.append(psnr(r, truth[j]))
        ssims.append(ssim(r, truth[j]))
    finite = [p for p in psnrs if np.isfinite(p)]
    inf_count = len(psnrs) - len(finite)
    mean_psnr = float(np.mean(finite)) if finite else float("inf")
    return MetricReport(pairing=pairing,
                        psnr_values=tuple(psnrs),
                        ssim_values=tuple(ssims),
                        mean_mse=float(np.mean(mses)),
                        mean_psnr=mean_psnr,
                        psnr_inf_count=inf_count,
                        mean_ssim=float(np.mean(ssims)))
