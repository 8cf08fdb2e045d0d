"""The three workloads and the inputs each one hands to the program.

Every workload runs `gipip attack` with the `convnet` classifier on a
synthetic texture corpus that the benchmark writes as CIFAR-10 binary
batches.  The corpus and the attack seed come from the workload seed,
except on `dlg-b1`: its one inversion stalls on every run (a known fault
of the `dlg` line search), so its inputs are fixed and its failed share
is the same whatever the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import CIFAR_RECORD

CORPUS_COUNT = 192          # 160 training images, 32 in the test batch (the aux split)
DLG_FIXED_SEED = 4          # corpus and attack seed of dlg-b1, whatever --seed says
RECORD_EVERY = 10


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    batch_size: int
    num_targets: int        # inversions per round = num_targets / batch_size
    iterations: int
    seeded: bool            # inputs follow --seed (False: fixed inputs)

    @property
    def inversions(self) -> int:
        return self.num_targets // self.batch_size

    @property
    def uses_prior(self) -> bool:
        return self.method == "gipip"

    def input_seed(self, seed: int) -> int:
        return seed if self.seeded else DLG_FIXED_SEED


# why each workload was chosen is in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("gipip-b1", "gipip", 1, 10, 100, True),
    Workload("ig-b8", "ig", 8, 16, 400, True),
    Workload("dlg-b1", "dlg", 1, 1, 800, False),
)}


def make_corpus(seed: int, directory: Path) -> None:
    """Write a CORPUS_COUNT-image texture corpus as the six CIFAR-10 batch files.

    The trailing sixth of the corpus (its eval split) becomes `test_batch`,
    which the program uses as the auxiliary split; the rest is spread over
    `data_batch_1` .. `data_batch_5` in order.
    """
    from gipip.data import synthetic_textures  # importable once run.py has found src/

    corpus = synthetic_textures(CORPUS_COUNT, seed=seed)
    pixels = np.round(corpus.images * 255.0).astype(np.uint8)  # already on the 8-bit grid
    test = np.asarray(corpus.eval_split)
    train = np.setdiff1d(np.arange(CORPUS_COUNT), test)
    directory.mkdir(parents=True, exist_ok=True)
    chunks = [(f"data_batch_{i}.bin", c) for i, c in enumerate(np.array_split(train, 5), 1)]
    for name, idx in chunks + [("test_batch.bin", test)]:
        rec = np.empty((idx.size, CIFAR_RECORD), dtype=np.uint8)
        rec[:, 0] = corpus.labels[idx]
        rec[:, 1:] = pixels[idx].reshape(idx.size, -1)
        (directory / name).write_bytes(rec.tobytes())


def config_text(w: Workload, seed: int, corpus_dir: Path,
                prior_path: Path | None = None) -> str:
    """The experiment config of one round.

    `prior_path` points a later round at the prior the first round trained,
    so only the first round pays for prior training.
    """
    lines = ["[experiment]", f"name = bench-{w.name}", f"seed = {w.input_seed(seed)}",
             "[data]", "dataset = cifar10", f"path = {corpus_dir}",
             "aux_mode = named_split", f"num_targets = {w.num_targets}",
             f"batch_size = {w.batch_size}",
             "[model]", "arch = convnet",
             "[prior]", f"enabled = {'true' if w.uses_prior else 'false'}",
             "epochs = 10", "batch_size = 16"]
    if prior_path is not None:
        lines.append(f"model_path = {prior_path}")
    lines += ["[attack]", f"method = {w.method}", f"iterations = {w.iterations}",
              f"record_every = {RECORD_EVERY}", "clamp = true"]
    if w.method == "gipip":
        lines += ["lambda_as = 0.0001", "lambda_tv = 0.01"]
    elif w.method == "ig":
        lines.append("lambda_tv = 0.01")
    return "\n".join(lines) + "\n"
