"""Reconstruction quality metrics: mse, psnr, ssim, batch evaluation."""

import itertools

import numpy as np
import pytest

from gipip import metrics
from gipip.errors import ArgumentError, ConfigurationError, DimensionError


# ---------------------------------------------------------------- psnr

def test_psnr_identical_is_inf():
    x = np.random.default_rng(0).random((3, 8, 8))
    assert metrics.psnr(x, x) == float("inf")


def test_psnr_hand_values():
    # one pixel off by 0.5 in a 25-pixel image: mse = 0.25/25 = 0.01
    a = np.zeros((1, 5, 5))
    b = a.copy()
    b[0, 0, 0] = 0.5
    assert metrics.mse(a, b) == 0.01
    assert metrics.psnr(a, b) == 20.0
    # mse = 1 (all pixels off by the full scale)
    assert metrics.psnr(np.zeros((2, 2)), np.ones((2, 2))) == 0.0


def test_psnr_monotone_in_mse():
    rng = np.random.default_rng(1)
    base = rng.random((2, 6, 6))
    pairs = []
    for _ in range(20):
        noisy = base + rng.standard_normal(base.shape) * rng.uniform(0.01, 0.5)
        pairs.append((metrics.mse(base, noisy), metrics.psnr(base, noisy)))
    pairs.sort()
    for (m1, p1), (m2, p2) in zip(pairs, pairs[1:]):
        assert m1 < m2 and p1 > p2


def test_mse_validation():
    with pytest.raises(DimensionError):
        metrics.mse(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ArgumentError):
        metrics.mse(np.zeros((0,)), np.zeros((0,)))


# ---------------------------------------------------------------- ssim

def test_ssim_self_is_one():
    rng = np.random.default_rng(2)
    for shape in ((16, 16), (3, 12, 14), (1, 11, 11)):
        x = rng.random(shape)
        assert abs(metrics.ssim(x, x) - 1.0) <= 1e-12


def test_ssim_symmetric_exactly():
    rng = np.random.default_rng(3)
    a, b = rng.random((3, 16, 16)), rng.random((3, 16, 16))
    assert metrics.ssim(a, b) == metrics.ssim(b, a)


def test_ssim_constant_zero_vs_one():
    a = np.zeros((1, 11, 11))
    b = np.ones((1, 11, 11))
    # means 0 and 1, variances 0: formula collapses to c1/(1 + c1)
    want = 1e-4 / (1.0 + 1e-4)
    assert abs(metrics.ssim(a, b) - want) <= 1e-12


def test_ssim_bounded():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = rng.random((12, 12)), rng.random((12, 12))
        assert abs(metrics.ssim(a, b)) <= 1.0 + 1e-12


def test_ssim_degrades_with_noise():
    rng = np.random.default_rng(5)
    x = rng.random((3, 16, 16))
    light = metrics.ssim(x, np.clip(x + 0.02 * rng.standard_normal(x.shape), 0, 1))
    heavy = metrics.ssim(x, np.clip(x + 0.50 * rng.standard_normal(x.shape), 0, 1))
    assert light > heavy


def test_ssim_window_validation():
    x = np.zeros((8, 8))
    with pytest.raises(ConfigurationError, match="smaller"):
        metrics.ssim(x, x)  # default 11x11 window does not fit
    assert metrics.ssim(x, x, window=5) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ArgumentError):
        metrics.ssim(x, x, window=4)
    with pytest.raises(DimensionError):
        metrics.ssim(np.zeros((2, 3, 8, 8)), np.zeros((2, 3, 8, 8)))


# ---------------------------------------------------------------- batch evaluation

def _batch(n, seed):
    return np.random.default_rng(seed).random((n, 1, 12, 12))


def test_evaluate_single_image_identity():
    x = _batch(1, 6)
    rep = metrics.evaluate_batch(x, x)
    assert rep.pairing == (0,)
    assert rep.psnr_inf_count == 1
    assert rep.mean_psnr == float("inf")
    assert rep.ssim_values == (pytest.approx(1.0, abs=1e-12),)


def test_evaluate_recovers_permutation():
    truth = _batch(4, 7)
    perm = (2, 0, 3, 1)
    recovered = truth[list(perm)]
    rep = metrics.evaluate_batch(recovered, truth)
    assert rep.pairing == perm
    assert rep.psnr_inf_count == 4
    assert rep.mean_psnr == float("inf")
    assert rep.mean_mse == 0.0


def test_assignment_beats_identity_pairing():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        truth = _batch(n, 9 + n)
        recovered = np.clip(truth[::-1] + 0.1 * rng.standard_normal(truth.shape), 0, 1)
        paired = metrics.evaluate_batch(recovered, truth)
        ordered = np.mean([metrics.psnr(r, t) for r, t in zip(recovered, truth)])
        assert paired.mean_psnr >= ordered
        # and the brute-force optimum over every pairing is what it found
        best = max(
            np.mean([metrics.psnr(recovered[i], truth[p[i]]) for i in range(n)])
            for p in itertools.permutations(range(n)))
        assert paired.mean_psnr == pytest.approx(best, abs=1e-12)


def test_assignment_permutation_invariant():
    rng = np.random.default_rng(10)
    truth = _batch(3, 11)
    recovered = np.clip(truth + 0.05 * rng.standard_normal(truth.shape), 0, 1)
    a = metrics.evaluate_batch(recovered, truth)
    b = metrics.evaluate_batch(recovered[[2, 0, 1]], truth)
    assert sorted(a.psnr_values) == sorted(b.psnr_values)
    assert a.mean_psnr == pytest.approx(b.mean_psnr, rel=1e-12)


def _brute_force_assignment(recovered, truth):
    """The n! reference: every pairing in lexicographic order, the first
    with the best (exact matches, finite PSNR sum in row order) key."""
    n = recovered.shape[0]
    score = [[metrics.psnr(recovered[i], truth[j]) for j in range(n)] for i in range(n)]
    best, best_perm = None, None
    for perm in itertools.permutations(range(n)):
        vals = [score[i][perm[i]] for i in range(n)]
        key = (sum(np.isinf(v) for v in vals), sum(v for v in vals if np.isfinite(v)))
        if best is None or key > best:
            best, best_perm = key, perm
    return best_perm


def test_assignment_matches_brute_force_reference():
    # exact matches and duplicate images make ties, which must go to the
    # lexicographically first pairing as in the brute force; these draws
    # include a tie between two pairings whose partial sums differ in the
    # last bit, which only the rounding slack of the dynamic program keeps
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        truth = rng.random((n, 1, 3, 3))
        recovered = rng.random((n, 1, 3, 3))
        if n > 1 and rng.random() < 0.5:
            truth[rng.integers(n)] = truth[rng.integers(n)]
        for i in range(n):
            if rng.random() < 0.3:
                recovered[i] = truth[rng.integers(n)]
        if n > 1 and rng.random() < 0.2:
            recovered[rng.integers(n)] = recovered[rng.integers(n)]
        assert metrics.optimal_assignment(recovered, truth) == \
            _brute_force_assignment(recovered, truth)


def test_evaluate_batch_validation():
    with pytest.raises(DimensionError):
        metrics.evaluate_batch(_batch(2, 12), _batch(3, 13))
    with pytest.raises(DimensionError):
        metrics.evaluate_batch(np.zeros((3, 8, 8)), np.zeros((3, 8, 8)))
    big = np.zeros((9, 1, 12, 12))
    with pytest.raises(ArgumentError, match="8"):
        metrics.evaluate_batch(big, big)


def test_evaluate_batch_small_images_need_explicit_window():
    x = _batch(2, 14)[:, :, :8, :8]
    with pytest.raises(ConfigurationError):
        metrics.evaluate_batch(x, x)


def test_mean_psnr_excludes_inf_and_counts_it():
    truth = _batch(3, 15)
    recovered = truth.copy()
    recovered[0] = np.clip(truth[0] + 0.2, 0, 1)  # one inexact image
    rep = metrics.evaluate_batch(recovered, truth)
    assert rep.psnr_inf_count == 2
    assert rep.mean_psnr == rep.psnr_values[0]
