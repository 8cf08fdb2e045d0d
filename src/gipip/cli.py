"""Command-line front end.

Four subcommands over one config format:

  train-prior   fit the autoencoder on the auxiliary split, save the model
  attack        run gradient inversion over sampled targets, write CSV+images
  ablate-as     sweep the anomaly-prior weight over seeds, write CSV+images
  evaluate      recompute metrics from images already on disk

attack and ablate-as are one pipeline over a plan of (weight, seed, batch)
cells: attack is the plan of the configured weight and seed alone.  Each
cell is one inversion job, a (SharedGradient, ClassifierParams,
AttackConfig, AutoEncoderParams | None) tuple; --jobs K runs the jobs in K
processes, and --jobs 1 runs the same worker on the same jobs in-process.

Artifacts are deterministic functions of the config and seed: result CSV
bodies, images, traces and model files are byte-identical across reruns
and across --jobs settings.  Timestamps, wall times and step counts live
only in the manifest.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .attack import AttackConfig, AttackResult, derive_seed, run_attack
from .config import ExperimentConfig, load_config
from .data import Dataset, load_cifar10, load_mnist, save_image, load_image, synthetic_textures
from .errors import ConfigurationError, FormatError, GipipError
from .flsim import SharedGradient, make_partition, simulate_round
from .metrics import evaluate_batch, mse, psnr, ssim
from .nn import AutoEncoderParams, ClassifierParams, init_classifier
from .prior import load_model, save_model, train_autoencoder

# fixed tags keep every derived stream independent of the others
_SEED_DATA = 101
_SEED_PARTITION = 102
_SEED_MODEL = 103
_SEED_PRIOR = 104
_SEED_TARGETS = 105
_SEED_RUN = 106

RESULT_COLUMNS = ("run_id", "method", "dataset", "batch_size", "seed",
                  "lambda_as", "lambda_tv", "iterations", "final_grad_loss",
                  "final_as_loss", "final_tv_loss", "psnr", "ssim", "mse")


def _fmt(value) -> str:
    """CSV cell formatting; floats keep full round-trip precision."""
    if isinstance(value, float):
        if np.isinf(value):
            return "inf" if value > 0 else "-inf"
        # float() first: a numpy float64 is a float whose repr is np.float64(...)
        return repr(float(value))
    return str(value)


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# experiment assembly

def load_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset == "synthetic":
        return synthetic_textures(cfg.synthetic_count,
                                  seed=derive_seed(cfg.seed, _SEED_DATA))
    if cfg.dataset == "mnist":
        return load_mnist(cfg.path)
    return load_cifar10(cfg.path)


def build_partition(cfg: ExperimentConfig, ds: Dataset):
    return make_partition(ds, mode=cfg.aux_mode,
                          seed=derive_seed(cfg.seed, _SEED_PARTITION),
                          fraction=cfg.aux_fraction if cfg.aux_mode == "fraction" else None)


def build_model(cfg: ExperimentConfig, ds: Dataset) -> ClassifierParams:
    num_classes = len(ds.class_names) if ds.class_names else int(ds.labels.max()) + 1
    return init_classifier(cfg.arch, in_shape=ds.image_shape, num_classes=num_classes,
                           seed=derive_seed(cfg.seed, _SEED_MODEL))


def obtain_prior(cfg: ExperimentConfig, ds: Dataset, part, out_dir: Path,
                 manifest: list[str]) -> AutoEncoderParams:
    """Load the prior if a saved model exists, otherwise train and save it."""
    path = Path(cfg.prior_model_path) if cfg.prior_model_path else out_dir / "prior_model.bin"
    if not path.is_absolute() and cfg.prior_model_path:
        path = out_dir / path
    if path.exists():
        theta_a = load_model(path)
        manifest.append("prior.source=loaded")
        manifest.append(f"prior.path={path}")
        return theta_a
    aux_images = ds.images[part.aux_indices]
    theta_a, trace = train_autoencoder(
        aux_images, cfg.prior_config(derive_seed(cfg.seed, _SEED_PRIOR)))
    save_model(path, theta_a)
    _write_csv(out_dir / "prior_trace.csv", ("epoch", "mean_loss"),
               [(i, v) for i, v in enumerate(trace)])
    manifest.append("prior.source=trained")
    manifest.append(f"prior.path={path}")
    manifest.append(f"prior.epochs={len(trace)}")
    if trace:
        manifest.append(f"prior.first_epoch_loss={_fmt(trace[0])}")
        manifest.append(f"prior.final_epoch_loss={_fmt(trace[-1])}")
    return theta_a


def choose_targets(cfg: ExperimentConfig, part) -> np.ndarray:
    pool = np.asarray(part.target_indices)
    if cfg.num_targets > pool.size:
        raise ConfigurationError(f"num_targets {cfg.num_targets} exceeds the "
                                 f"{pool.size} available target images")
    rng = np.random.default_rng(derive_seed(cfg.seed, _SEED_TARGETS))
    return rng.choice(pool, size=cfg.num_targets, replace=False)


# ---------------------------------------------------------------------------
# inversion jobs (a job holds the shared gradient and the models, never the
# ground truth)

def _invert(job: tuple[SharedGradient, ClassifierParams, AttackConfig,
                       AutoEncoderParams | None]) -> AttackResult | str:
    """Worker: one inversion run, or the error that ended it."""
    shared, theta_g, config, theta_a = job
    try:
        return run_attack(shared, theta_g, config, theta_a=theta_a)
    except GipipError as exc:
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# subcommands

def _manifest_header(cfg: ExperimentConfig, command: str) -> list[str]:
    lines = ["manifest_version=1",
             f"package=gipip {__version__}",
             f"command={command}",
             f"created={datetime.now(timezone.utc).isoformat()}"]
    lines += [f"config.{key}={value}" for key, value in cfg.items()]
    return lines


def _write_manifest(out_dir: Path, lines: list[str]) -> Path:
    path = out_dir / "manifest.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def cmd_train_prior(cfg: ExperimentConfig, out_dir=None) -> Path:
    """Train the prior on the auxiliary split and persist it."""
    if not cfg.prior_enabled:
        raise ConfigurationError("train-prior needs [prior] enabled=true")
    out_dir = Path(out_dir if out_dir is not None else cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _manifest_header(cfg, "train-prior")
    t0 = time.monotonic()
    ds = load_dataset(cfg)
    part = build_partition(cfg, ds)
    manifest.append(f"dataset.count={ds.count}")
    manifest.append(f"partition.provenance={part.provenance}")
    obtain_prior(cfg, ds, part, out_dir, manifest)
    manifest.append(f"wall_time_total_s={time.monotonic() - t0:.3f}")
    manifest.append("artifact.trace=prior_trace.csv")
    return _write_manifest(out_dir, manifest)


def _experiment(cfg: ExperimentConfig, out_dir, jobs: int, command: str,
                weights, seeds) -> Path:
    """Plan, run, score and write the inversions of one round.

    The plan has a cell per (weight, seed, batch): it inverts that batch's
    shared gradient with anomaly weight ``weight`` and attack seed
    derive_seed(seed, _SEED_RUN, batch).  Run ids count the cells in that
    order.
    """
    out_dir = Path(out_dir if out_dir is not None else cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ablate = command == "ablate-as"
    manifest = _manifest_header(cfg, command)
    t0 = time.monotonic()

    ds = load_dataset(cfg)
    part = build_partition(cfg, ds)
    theta_g = build_model(cfg, ds)
    theta_a = obtain_prior(cfg, ds, part, out_dir, manifest) \
        if cfg.method == "gipip" else None
    targets = choose_targets(cfg, part)
    shared_list, sealed = simulate_round(theta_g, ds, targets, cfg.batch_size,
                                         partition=part)
    manifest.append(f"dataset.count={ds.count}")
    manifest.append(f"dataset.image_shape={ds.image_shape}")
    manifest.append(f"partition.provenance={part.provenance}")
    manifest.append(f"targets={','.join(str(int(i)) for i in targets)}")
    if ablate:
        manifest.append(f"ablate.weights={','.join(_fmt(w) for w in weights)}")
        manifest.append(f"ablate.seeds={','.join(str(s) for s in seeds)}")

    cells = [(float(w), int(s), i) for w in weights for s in seeds
             for i in range(len(shared_list))]
    plan = [(shared_list[i], theta_g, cfg.attack_config(w, derive_seed(s, _SEED_RUN, i)),
             theta_a) for w, s, i in cells]
    if jobs <= 1 or len(plan) <= 1:
        outcomes = [_invert(job) for job in plan]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(plan))) as pool:
            outcomes = list(pool.map(_invert, plan))

    truth_images, _ = sealed.reveal()
    ext = "pgm" if ds.image_shape[0] == 1 else "ppm"
    rows, failures = [], []
    for rid, ((w, s, i), job, outcome) in enumerate(zip(cells, plan, outcomes)):
        run_seed = job[2].seed
        manifest.append(f"run.{rid}.seed={run_seed}")
        if ablate:
            manifest.append(f"run.{rid}.cell=weight={_fmt(w)},seed={s},batch={i}")
        if isinstance(outcome, str):
            failures.append((rid, outcome))
            manifest.append(f"run.{rid}.status=failed")
            manifest.append(f"run.{rid}.error={outcome}")
            continue
        truth = truth_images[i * cfg.batch_size:(i + 1) * cfg.batch_size]
        recovered = np.clip(outcome.recovered, 0.0, 1.0)
        report = evaluate_batch(recovered, truth)
        artifacts = []
        for j in range(cfg.batch_size):
            rec_name = f"run{rid}_img{j}.{ext}"
            tru_name = f"truth_run{rid}_img{j}.{ext}"
            save_image(out_dir / rec_name, recovered[j])
            save_image(out_dir / tru_name, truth[report.pairing[j]])
            artifacts += [rec_name, tru_name]
        trace_name = f"run{rid}_trace.csv"
        _write_csv(out_dir / trace_name,
                   ("iteration", "grad_loss", "as_loss", "tv_loss", "total_loss"),
                   outcome.trace)
        artifacts.append(trace_name)
        rows.append((rid, cfg.method, cfg.dataset, cfg.batch_size, run_seed,
                     w, cfg.lambda_tv, cfg.iterations,
                     outcome.final_grad_loss, outcome.final_as_loss,
                     outcome.final_tv_loss, report.mean_psnr,
                     report.mean_ssim, report.mean_mse))
        manifest.append(f"run.{rid}.status=ok")
        manifest.append(f"run.{rid}.wall_time_s={outcome.wall_time_s:.3f}")
        manifest.append(f"run.{rid}.best_restart={outcome.best_restart}")
        manifest.append(f"run.{rid}.stalled={outcome.stalled}")
        manifest.append(f"run.{rid}.steps={outcome.steps}")
        manifest.append(f"run.{rid}.evaluations={outcome.evaluations}")
        manifest.append(f"run.{rid}.gradients={outcome.gradients}")
        manifest.append(f"run.{rid}.psnr_inf_count={report.psnr_inf_count}")
        manifest.append(f"run.{rid}.artifacts={';'.join(artifacts)}")

    results = "ablation.csv" if ablate else "results.csv"
    _write_csv(out_dir / results, RESULT_COLUMNS, rows)
    manifest.append(f"artifact.results={results}")
    manifest.append(f"runs.total={len(plan)}")
    manifest.append(f"runs.failed={len(failures)}")
    manifest.append(f"jobs={jobs}")
    manifest.append(f"wall_time_total_s={time.monotonic() - t0:.3f}")
    path = _write_manifest(out_dir, manifest)
    if failures and not rows:
        details = "; ".join(f"run {rid}: {msg}" for rid, msg in failures)
        raise GipipError(f"all {len(failures)} runs failed: {details}")
    return path


def cmd_attack(cfg: ExperimentConfig, out_dir=None, jobs: int = 1) -> Path:
    """Full pipeline: data, model, prior, one round, inversion, metrics."""
    return _experiment(cfg, out_dir, jobs, "attack", (cfg.lambda_as,), (cfg.seed,))


def cmd_ablate_as(cfg: ExperimentConfig, out_dir=None, jobs: int = 1,
                  weights=None, seeds=None) -> Path:
    """Sweep lambda_as over attack seeds with everything else held fixed."""
    weights = tuple(cfg.ablate_weights if weights is None else weights)
    seeds = tuple(cfg.ablate_seeds if seeds is None else seeds)
    if any(w < 0 for w in weights):
        raise ConfigurationError("ablation weights must be >= 0")
    if cfg.method != "gipip":
        raise ConfigurationError("ablate-as only makes sense for method 'gipip'")
    return _experiment(cfg, out_dir, jobs, "ablate-as", weights, seeds)


def cmd_evaluate(out_dir) -> Path:
    """Re-score recovered images already written by an attack run."""
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise ConfigurationError(f"not a run directory: {out_dir}")
    recovered = sorted(p for p in out_dir.iterdir()
                       if p.suffix in (".ppm", ".pgm") and p.name.startswith("run"))
    if not recovered:
        raise ConfigurationError(f"no recovered images (run*_img*.ppm/pgm) in {out_dir}")
    rows = []
    for rec_path in recovered:
        tru_path = out_dir / f"truth_{rec_path.name}"
        if not tru_path.exists():
            raise ConfigurationError(f"missing paired truth image {tru_path.name}")
        a = load_image(rec_path)
        b = load_image(tru_path)
        rows.append((rec_path.name, tru_path.name, mse(a, b), psnr(a, b), ssim(a, b)))
    path = out_dir / "evaluation.csv"
    _write_csv(path, ("image", "truth", "mse", "psnr", "ssim"), rows)
    return path


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gipip",
        description="gradient inversion laboratory: recover training images "
                    "from shared gradients")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("train-prior", "train the anomaly-score autoencoder"),
                           ("attack", "invert gradients for sampled targets"),
                           ("ablate-as", "sweep the anomaly prior weight")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--output", help="output directory (overrides [output] dir)")
        p.add_argument("--seed", type=int, help="override [experiment] seed")
        p.add_argument("--jobs", type=int, help="parallel attack processes")
    p = sub.add_parser("evaluate", help="recompute metrics from written images")
    p.add_argument("--output", required=True, help="run directory to score")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "evaluate":
            cmd_evaluate(args.output)
            return 0
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        jobs = 1 if args.jobs is None else args.jobs
        if jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
        if args.command == "train-prior":
            cmd_train_prior(cfg, args.output)
        elif args.command == "attack":
            cmd_attack(cfg, args.output, jobs=jobs)
        else:
            cmd_ablate_as(cfg, args.output, jobs=jobs)
        return 0
    except GipipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigurationError):
            return 2
        if isinstance(exc, FormatError):
            return 3
        return 1


if __name__ == "__main__":
    sys.exit(main())
