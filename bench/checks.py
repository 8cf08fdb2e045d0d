"""Output checks, made apart from the program.

Every check reads the files one `gipip attack` round wrote and compares them
with something the benchmark knows on its own: the corpus pixels (read back
from the CIFAR-10 files with the reader below), the number of inversions it
asked for, or a property the method must have (the objective falls, a freshly
trained prior's loss falls, reruns are byte-identical).  A failed check
raises CheckError.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CIFAR_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6)) + ("test_batch.bin",)
CIFAR_RECORD = 3073         # 1 label byte + 3 * 32 * 32 pixel bytes
HALF_STEP = 0.5 / 255.0     # largest per-pixel error of 8-bit round-half-up quantisation


class CheckError(Exception):
    """An output of the program failed a check."""


@dataclass(frozen=True)
class RoundOutput:
    """What a round's checks established."""

    psnr: tuple[float, ...]         # results.csv psnr, one per inversion
    stalled: tuple[bool, ...]       # the manifest's stalled flag, one per inversion
    results_bytes: bytes


# ---------------------------------------------------------------------------
# readers

def read_cifar_pixels(directory: Path) -> np.ndarray:
    """All images of a CIFAR-10 binary directory as uint8 [N, 3, 32, 32].

    Order is data_batch_1 .. data_batch_5 then test_batch, the standard
    layout's index order.
    """
    parts = []
    for name in CIFAR_FILES:
        raw = np.frombuffer((Path(directory) / name).read_bytes(), dtype=np.uint8)
        if raw.size % CIFAR_RECORD:
            raise CheckError(f"{name}: {raw.size} bytes is not whole records")
        parts.append(raw.reshape(-1, CIFAR_RECORD)[:, 1:].reshape(-1, 3, 32, 32))
    return np.concatenate(parts)


def read_ppm(path: Path) -> np.ndarray:
    """A binary PPM (P6, maxval 255, no comments) as uint8 CHW."""
    buf = Path(path).read_bytes()
    head = buf.split(maxsplit=4)
    if len(head) < 5 or head[0] != b"P6" or head[3] != b"255":
        raise CheckError(f"{path.name}: not a plain P6 image")
    w, h = int(head[1]), int(head[2])
    pixels = buf[len(buf) - 3 * w * h:]
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def read_manifest(path: Path) -> dict[str, str]:
    """Manifest lines as key -> value (keys repeat only for deviations)."""
    entries = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            entries[key] = value
    return entries


# ---------------------------------------------------------------------------
# PSNR recomputation

def psnr_interval(written: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Range of the PSNR the unquantised reconstruction can have had.

    The image file holds round(255 x) for the reconstruction x, so each
    pixel is off by at most HALF_STEP and the RMS error against the truth
    by at most HALF_STEP as well.
    """
    d = written.astype(np.float64) / 255.0 - truth.astype(np.float64) / 255.0
    rmse = float(np.sqrt(np.mean(d * d)))
    lo = -20.0 * np.log10(rmse + HALF_STEP)
    hi = np.inf if rmse <= HALF_STEP else -20.0 * np.log10(rmse - HALF_STEP)
    return lo, hi


def best_mean(score: np.ndarray) -> float:
    """Largest mean of score[i, perm[i]] over all permutations (subset DP)."""
    n = score.shape[0]
    best = {0: 0.0}
    for i in range(n):
        nxt = {}
        for mask, total in best.items():
            for j in range(n):
                if not mask >> j & 1:
                    key, val = mask | 1 << j, total + score[i, j]
                    if val > nxt.get(key, -np.inf):
                        nxt[key] = val
        best = nxt
    return best[(1 << n) - 1] / n


def check_psnr(reported: float, written: list[np.ndarray], truth: list[np.ndarray],
               label: str) -> None:
    """The reported batch PSNR must be reachable from the written images.

    The program pairs reconstructions with truths to maximise total PSNR,
    so its mean lies between the best pairing of the lower bounds and the
    best pairing of the upper bounds.
    """
    n = len(written)
    lo, hi = np.empty((n, n)), np.empty((n, n))
    for i in range(n):
        for j in range(n):
            lo[i, j], hi[i, j] = psnr_interval(written[i], truth[j])
    low, high = best_mean(lo), best_mean(hi)
    if not low - 1e-9 <= reported <= high + 1e-9:
        raise CheckError(f"{label}: results.csv psnr {reported:.4f} dB, but the written "
                         f"images give {low:.4f} .. {high:.4f} dB")


# ---------------------------------------------------------------------------
# one round

def check_round(out_dir: Path, pixels: np.ndarray, inversions: int, batch_size: int,
                trained_prior: bool) -> RoundOutput:
    """Check every artifact of one `gipip attack` round.

    `pixels` is the corpus as read by read_cifar_pixels; `trained_prior`
    says the round must have trained its prior rather than loaded one.
    """
    out_dir = Path(out_dir)
    manifest = read_manifest(out_dir / "manifest.txt")
    rows = read_csv(out_dir / "results.csv")
    if [r["run_id"] for r in rows] != [str(i) for i in range(inversions)]:
        raise CheckError(f"results.csv has run ids {[r['run_id'] for r in rows]}, "
                         f"expected one row for each of {inversions} inversions")
    targets = [int(t) for t in manifest.get("targets", "").split(",") if t]
    if len(targets) != inversions * batch_size:
        raise CheckError(f"manifest names {len(targets)} targets, expected "
                         f"{inversions * batch_size}")

    for r, row in enumerate(rows):
        written = [read_ppm(out_dir / f"run{r}_img{j}.ppm") for j in range(batch_size)]
        truth = [pixels[t] for t in targets[r * batch_size:(r + 1) * batch_size]]
        check_psnr(float(row["psnr"]), written, truth, f"run {r}")
        trace = read_csv(out_dir / f"run{r}_trace.csv")
        if trace[0]["iteration"] != "0":
            raise CheckError(f"run {r}: trace does not start at iteration 0")
        first, last = float(trace[0]["total_loss"]), float(trace[-1]["total_loss"])
        if not last < first:
            raise CheckError(f"run {r}: total objective ended at {last:.6g}, "
                             f"not below its start {first:.6g}")

    if trained_prior:
        if manifest.get("prior.source") != "trained":
            raise CheckError(f"prior.source={manifest.get('prior.source')}, expected "
                             "trained: the prior came from an earlier run")
        losses = [float(r["mean_loss"]) for r in read_csv(out_dir / "prior_trace.csv")]
        if not losses or not losses[-1] < losses[0]:
            raise CheckError(f"prior training loss did not fall: {losses}")

    stalled = tuple(manifest.get(f"run.{r}.stalled") == "True" for r in range(inversions))
    return RoundOutput(psnr=tuple(float(r["psnr"]) for r in rows), stalled=stalled,
                       results_bytes=(out_dir / "results.csv").read_bytes())


def check_same_results(first: RoundOutput, later: RoundOutput) -> None:
    """Rounds of one workload repeat the same inversions, byte for byte."""
    if later.results_bytes != first.results_bytes:
        raise CheckError("results.csv differs from the first round's")
