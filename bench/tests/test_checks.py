"""The output checks pass on real `gipip attack` output and fail on broken copies.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import itertools
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
from gipip import cli  # noqa: E402
from probe import Inversion, Round  # noqa: E402
from run import check_rounds  # noqa: E402
from workloads import Workload, config_text, make_corpus  # noqa: E402


def _attack(work: Path, w: Workload, out: Path) -> Path:
    cfg = work / f"{w.name}.ini"
    cfg.write_text(config_text(w, 3, work / "corpus").replace("epochs = 10", "epochs = 3"))
    assert cli.main(["attack", "--config", str(cfg), "--output", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A gipip round (batch 1, two inversions) and an ig round (one batch of 2)."""
    work = tmp_path_factory.mktemp("bench")
    make_corpus(3, work / "corpus")
    gipip = _attack(work, Workload("gipip", "gipip", 1, 2, 20, True), work / "gipip")
    ig = _attack(work, Workload("ig", "ig", 2, 2, 20, True), work / "ig")
    return work, checks.read_cifar_pixels(work / "corpus"), gipip, ig


@pytest.fixture
def gipip_copy(runs, tmp_path):
    work, pixels, gipip, _ = runs
    return shutil.copytree(gipip, tmp_path / "out"), pixels


def _targets(out: Path) -> list[int]:
    return [int(t) for t in checks.read_manifest(out / "manifest.txt")["targets"].split(",")]


def _check_gipip(out, pixels):
    return checks.check_round(out, pixels, inversions=2, batch_size=1, trained_prior=True)


def test_real_outputs_pass(runs):
    _, pixels, gipip, ig = runs
    first = _check_gipip(gipip, pixels)
    assert len(first.psnr) == 2 and first.stalled == (False, False)
    checks.check_round(ig, pixels, inversions=1, batch_size=2, trained_prior=False)
    checks.check_same_results(first, _check_gipip(gipip, pixels))


def test_swapped_truth_image_fails(gipip_copy):
    out, pixels = gipip_copy
    targets = _targets(out)
    other = next(i for i in range(len(pixels)) if i not in targets)
    swapped = pixels.copy()
    swapped[[targets[0], other]] = pixels[[other, targets[0]]]
    with pytest.raises(checks.CheckError, match="psnr"):
        _check_gipip(out, swapped)


def test_swapped_reconstructions_fail(gipip_copy):
    out, pixels = gipip_copy
    a, b = out / "run0_img0.ppm", out / "run1_img0.ppm"
    data_a, data_b = a.read_bytes(), b.read_bytes()
    a.write_bytes(data_b)
    b.write_bytes(data_a)
    with pytest.raises(checks.CheckError, match="psnr"):
        _check_gipip(out, pixels)


def test_batch_order_is_free_but_a_foreign_image_is_not(runs):
    _, pixels, _, ig = runs
    targets = _targets(ig)
    reordered = pixels.copy()
    reordered[targets] = pixels[targets[::-1]]
    checks.check_round(ig, reordered, inversions=1, batch_size=2, trained_prior=False)
    other = next(i for i in range(len(pixels)) if i not in targets)
    foreign = pixels.copy()
    foreign[targets[1]] = pixels[other]
    with pytest.raises(checks.CheckError, match="psnr"):
        checks.check_round(ig, foreign, inversions=1, batch_size=2, trained_prior=False)


def test_dropped_row_fails(gipip_copy):
    out, pixels = gipip_copy
    path = out / "results.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(checks.CheckError, match="one row for each"):
        _check_gipip(out, pixels)


def test_objective_that_did_not_fall_fails(gipip_copy):
    out, pixels = gipip_copy
    path = out / "run1_trace.csv"
    lines = path.read_text().splitlines()
    first_total = lines[1].rsplit(",", 1)[1]
    lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + first_total
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="not below its start"):
        _check_gipip(out, pixels)


def test_reused_prior_directory_fails(runs, gipip_copy):
    work, _, _, _ = runs
    out, pixels = gipip_copy
    _attack(work, Workload("gipip", "gipip", 1, 2, 20, True), out)
    with pytest.raises(checks.CheckError, match="prior.source=loaded"):
        _check_gipip(out, pixels)


def test_prior_loss_that_did_not_fall_fails(gipip_copy):
    out, pixels = gipip_copy
    path = out / "prior_trace.csv"
    lines = path.read_text().splitlines()
    lines.append(f"{len(lines) - 1},{lines[1].split(',')[1]}")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="prior training loss"):
        _check_gipip(out, pixels)


def test_a_changed_rerun_fails(gipip_copy):
    out, pixels = gipip_copy
    first = _check_gipip(out, pixels)
    path = out / "results.csv"
    path.write_text(path.read_text().replace(",gipip,", ",gipip ,", 1))
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_same_results(first, _check_gipip(out, pixels))


def test_steps_stalls_and_exit_codes_are_checked(gipip_copy):
    out, pixels = gipip_copy
    w = Workload("gipip", "gipip", 1, 2, 20, True)

    def problems(exit_code=0, steps=(20, 20), stalled=(False, False)):
        invs = [Inversion(steps=n, stalled=s) for n, s in zip(steps, stalled)]
        return check_rounds(w, [Round(out, exit_code, 0.0, 1.0, invs, range(0))], pixels)[0]

    assert problems() == []
    assert "budget 20" in problems(steps=(20, 19))[0]
    assert "manifest says stalled=False" in problems(stalled=(False, True))[0]
    assert "exited with 1" in problems(exit_code=1)[0]
    assert "1 inversions ran" in problems(steps=(20,))[0]


def test_best_mean_matches_brute_force():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        score = rng.standard_normal((n, n))
        want = max(np.mean([score[i, p[i]] for i in range(n)])
                   for p in itertools.permutations(range(n)))
        assert checks.best_mean(score) == pytest.approx(want)


def test_psnr_interval_holds_the_unquantised_value():
    rng = np.random.default_rng(1)
    for _ in range(200):
        truth = rng.integers(0, 256, (3, 8, 8)).astype(np.uint8)
        x = np.clip(truth / 255.0 + rng.normal(0, rng.uniform(0.002, 0.3), truth.shape), 0, 1)
        written = np.floor(x * 255.0 + 0.5).astype(np.uint8)
        exact = -10.0 * np.log10(np.mean((x - truth / 255.0) ** 2))
        lo, hi = checks.psnr_interval(written, truth)
        assert lo <= exact <= hi
