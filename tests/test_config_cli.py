"""Config parsing/validation and the command-line pipeline.

The CLI tests run the real pipeline end to end on a tiny synthetic corpus
(60 images, dense1 model, 6 attack iterations) so they stay fast while still
exercising dataset assembly, prior training, the attack workers, and every
artifact writer.  Determinism claims are checked at the byte level.
"""

import csv

import numpy as np
import pytest

from gipip.cli import (RESULT_COLUMNS, cmd_ablate_as, cmd_attack, cmd_evaluate,
                       cmd_train_prior, derive_seed, main, _fmt, _write_csv)
from gipip.config import config_from_dict, load_config
from gipip.data import load_image
from gipip.errors import ConfigurationError


def write_cfg(path, sections):
    lines = []
    for sec, pairs in sections.items():
        lines.append(f"[{sec}]")
        for key, val in pairs.items():
            lines.append(f"{key} = {val}")
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def fast_sections(method="gipip", **attack_extra):
    """A config small enough that a full attack run takes about a second."""
    attack = {"method": method, "iterations": "6", "record_every": "2"}
    attack.update(attack_extra)
    return {
        "experiment": {"seed": "3"},
        "data": {"synthetic_count": "60", "num_targets": "2", "batch_size": "1"},
        "model": {"arch": "dense1"},
        "prior": {"epochs": "2"} if method == "gipip" else {"enabled": "false"},
        "attack": attack,
    }


def read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# config: defaults and parsing

def test_empty_config_is_valid_and_carries_documented_defaults():
    cfg = config_from_dict({})
    assert cfg.name == "run"
    assert cfg.seed == 0
    assert cfg.dataset == "synthetic"
    assert cfg.synthetic_count == 600
    assert cfg.aux_mode == "named_split"
    assert cfg.aux_fraction == 0.1
    assert cfg.num_targets == 4
    assert cfg.batch_size == 1
    assert cfg.arch == "convnet"
    assert cfg.init == "kaiming_uniform"
    assert cfg.init_sigma == 0.05
    assert cfg.hidden == 64
    assert cfg.prior_enabled is True
    assert cfg.prior_epochs == 30
    assert cfg.prior_learning_rate == 1e-3
    assert cfg.prior_batch_size == 64
    assert cfg.method == "gipip"
    assert cfg.learning_rate == 0.1
    assert cfg.iterations == 4000
    assert cfg.lambda_as == 1e-4
    assert cfg.lambda_tv == 1e-2
    assert cfg.restarts == 1
    assert cfg.clamp is True
    assert cfg.record_every == 50
    assert cfg.ablate_weights == (0.0, 1e-5, 1e-4, 1e-3, 1e-2)
    assert cfg.ablate_seeds == (0, 1, 2, 3, 4)
    assert cfg.output_dir == "out"


def test_items_covers_every_field_in_order():
    cfg = config_from_dict({})
    names = [k for k, _ in cfg.items()]
    assert names[0] == "name" and names[-1] == "output_dir"
    assert len(names) == len(set(names)) == 29


def test_unknown_section_and_key_are_hard_errors():
    with pytest.raises(ConfigurationError, match=r"unknown section \[atack\]"):
        config_from_dict({"atack": {"method": "dlg"}})
    with pytest.raises(ConfigurationError, match=r"unknown key 'count' in \[data\]"):
        config_from_dict({"data": {"count": "5"}})


def test_parallel_runs_is_not_a_key(tmp_path):
    # --jobs is the one parallelism control
    with pytest.raises(ConfigurationError, match=r"unknown key 'parallel_runs'"):
        config_from_dict({"experiment": {"parallel_runs": "2"}})
    p = write_cfg(tmp_path / "c.ini", {"experiment": {"parallel_runs": "2"}})
    assert main(["attack", "--config", str(p), "--output", str(tmp_path / "o")]) == 2


def test_scalar_parse_errors_name_the_offending_key():
    with pytest.raises(ConfigurationError, match=r"\[experiment\] seed.*integer"):
        config_from_dict({"experiment": {"seed": "three"}})
    with pytest.raises(ConfigurationError, match=r"\[attack\] learning_rate.*number"):
        config_from_dict({"attack": {"learning_rate": "fast"}})
    with pytest.raises(ConfigurationError, match=r"\[prior\] enabled.*boolean"):
        config_from_dict({"prior": {"enabled": "maybe"}})


def test_choice_keys_reject_values_off_the_menu():
    with pytest.raises(ConfigurationError, match="'sgd' is not one of"):
        config_from_dict({"attack": {"method": "sgd"}})
    with pytest.raises(ConfigurationError, match="'imagenet' is not one of"):
        config_from_dict({"data": {"dataset": "imagenet"}})
    with pytest.raises(ConfigurationError, match="'resnet' is not one of"):
        config_from_dict({"model": {"arch": "resnet"}})


def test_list_keys_parse_and_reject_empty_or_bad_tokens():
    cfg = config_from_dict({"ablate": {"weights": "0, 1e-4 ,2e-3", "seeds": "7,8"}})
    assert cfg.ablate_weights == (0.0, 1e-4, 2e-3)
    assert cfg.ablate_seeds == (7, 8)
    with pytest.raises(ConfigurationError, match="comma-separated"):
        config_from_dict({"ablate": {"weights": " , "}})
    with pytest.raises(ConfigurationError, match="integer"):
        config_from_dict({"ablate": {"seeds": "1,two"}})


def test_boolean_words_accepted_in_both_polarities():
    for word, expect in (("true", True), ("Yes", True), ("1", True), ("on", True),
                         ("false", False), ("No", False), ("0", False), ("off", False)):
        cfg = config_from_dict({"attack": {"clamp": word, "method": "ig"},
                                "prior": {"enabled": "false"}})
        assert cfg.clamp is expect


# ---------------------------------------------------------------------------
# config: method-dependent defaults and invariants

def test_lambda_defaults_follow_the_method():
    # gipip keeps both documented defaults
    cfg = config_from_dict({})
    assert (cfg.lambda_as, cfg.lambda_tv) == (1e-4, 1e-2)
    # ig drops the anomaly weight but keeps TV
    cfg = config_from_dict({"attack": {"method": "ig"}, "prior": {"enabled": "false"}})
    assert (cfg.lambda_as, cfg.lambda_tv) == (0.0, 1e-2)
    # dlg is pure gradient matching
    cfg = config_from_dict({"attack": {"method": "dlg"}, "prior": {"enabled": "false"}})
    assert (cfg.lambda_as, cfg.lambda_tv) == (0.0, 0.0)


def test_explicit_nonzero_lambdas_conflict_with_baseline_methods():
    with pytest.raises(ConfigurationError, match="'ig' requires lambda_as = 0"):
        config_from_dict({"attack": {"method": "ig", "lambda_as": "1e-4"},
                          "prior": {"enabled": "false"}})
    with pytest.raises(ConfigurationError, match="'dlg' requires"):
        config_from_dict({"attack": {"method": "dlg", "lambda_tv": "1e-2"},
                          "prior": {"enabled": "false"}})
    # explicit zeros are fine
    cfg = config_from_dict({"attack": {"method": "ig", "lambda_as": "0"},
                            "prior": {"enabled": "false"}})
    assert cfg.lambda_as == 0.0


def test_structural_invariants_are_enforced():
    with pytest.raises(ConfigurationError, match="multiple of batch_size"):
        config_from_dict({"data": {"num_targets": "5", "batch_size": "2"}})
    with pytest.raises(ConfigurationError, match="limited to 8"):
        config_from_dict({"data": {"num_targets": "9", "batch_size": "9"}})
    with pytest.raises(ConfigurationError, match="needs the prior"):
        config_from_dict({"prior": {"enabled": "false"}})
    with pytest.raises(ConfigurationError, match=r"needs \[data\] path"):
        config_from_dict({"data": {"dataset": "mnist"}})
    with pytest.raises(ConfigurationError, match=r"aux_fraction must be in \(0, 1\)"):
        config_from_dict({"data": {"aux_mode": "fraction", "aux_fraction": "1.0"}})
    # the fraction bound only applies when the fraction mode is selected
    cfg = config_from_dict({"data": {"aux_fraction": "1.0"}})
    assert cfg.aux_fraction == 1.0
    with pytest.raises(ConfigurationError, match="lambda weights"):
        config_from_dict({"attack": {"lambda_tv": "-0.1"}})
    with pytest.raises(ConfigurationError, match="learning rates"):
        config_from_dict({"attack": {"learning_rate": "0"}})
    with pytest.raises(ConfigurationError, match="record_every"):
        config_from_dict({"attack": {"record_every": "0"}})
    # zero iterations and zero prior epochs are legal (no-op runs)
    cfg = config_from_dict({"attack": {"iterations": "0"}, "prior": {"epochs": "0"}})
    assert cfg.iterations == 0 and cfg.prior_epochs == 0


# ---------------------------------------------------------------------------
# config: file loading

def test_load_config_reads_ini_with_comments_and_case_folding(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[Experiment]\n"
                 "Seed = 7  # inline comment\n"
                 "\n"
                 "[attack]\n"
                 "method = dlg ; semicolon comment\n"
                 "iterations = 12\n"
                 "\n"
                 "[prior]\n"
                 "enabled = false\n",
                 encoding="utf-8")
    cfg = load_config(p)
    assert cfg.seed == 7
    assert cfg.method == "dlg"
    assert cfg.iterations == 12
    assert (cfg.lambda_as, cfg.lambda_tv) == (0.0, 0.0)


def test_load_config_missing_file_and_parse_garbage(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(tmp_path / "nope.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("this is not an ini file\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="not a valid config file"):
        load_config(bad)


# ---------------------------------------------------------------------------
# cli plumbing

def test_derive_seed_is_deterministic_and_order_sensitive():
    assert derive_seed(3, 101) == derive_seed(3, 101)
    assert derive_seed(3, 101) != derive_seed(101, 3)
    tags = [derive_seed(0, t) for t in (101, 102, 103, 104, 105, 106)]
    assert len(set(tags)) == 6


def test_fmt_round_trips_floats_and_spells_inf():
    assert _fmt(0.1) == "0.1"
    assert _fmt(1 / 3) == repr(1 / 3)
    assert float(_fmt(1 / 3)) == 1 / 3
    assert _fmt(float("inf")) == "inf"
    assert _fmt(float("-inf")) == "-inf"
    assert _fmt(7) == "7"
    assert _fmt("dlg") == "dlg"


def test_write_csv_prints_numpy_floats_as_numbers(tmp_path):
    # np.float64 is a float subclass whose repr under numpy 2 is np.float64(0.5)
    path = tmp_path / "t.csv"
    _write_csv(path, ("iteration", "loss"), [(0, np.float64(0.5)), (1, np.float64(1 / 3))])
    assert path.read_text() == f"iteration,loss\n0,0.5\n1,{1 / 3!r}\n"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][1]) == 0.5


# ---------------------------------------------------------------------------
# train-prior command

def test_train_prior_writes_model_trace_and_manifest(tmp_path):
    cfg = load_config(write_cfg(tmp_path / "c.ini", fast_sections()))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    manifest = cmd_train_prior(cfg, out_a)
    assert manifest.exists()
    text = manifest.read_text()
    assert "prior.source=trained" in text
    assert "command=train-prior" in text
    header, rows = read_csv(out_a / "prior_trace.csv")
    assert header == ["epoch", "mean_loss"]
    assert len(rows) == cfg.prior_epochs
    assert [r[0] for r in rows] == [str(i) for i in range(cfg.prior_epochs)]
    # a second run from the same config reproduces the model byte for byte
    cmd_train_prior(cfg, out_b)
    assert (out_a / "prior_model.bin").read_bytes() == (out_b / "prior_model.bin").read_bytes()
    assert (out_a / "prior_trace.csv").read_bytes() == (out_b / "prior_trace.csv").read_bytes()


def test_train_prior_refuses_disabled_prior(tmp_path):
    cfg_path = write_cfg(tmp_path / "c.ini", fast_sections(method="ig"))
    assert main(["train-prior", "--config", str(cfg_path),
                 "--output", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# attack command

def test_attack_writes_expected_artifacts(tmp_path):
    cfg = load_config(write_cfg(tmp_path / "c.ini", fast_sections()))
    out = tmp_path / "out"
    manifest = cmd_attack(cfg, out)
    header, rows = read_csv(out / "results.csv")
    assert tuple(header) == RESULT_COLUMNS
    assert len(rows) == cfg.num_targets // cfg.batch_size
    for rid, row in enumerate(rows):
        assert row[header.index("run_id")] == str(rid)
        assert row[header.index("method")] == "gipip"
        assert row[header.index("dataset")] == "synthetic"
        assert float(row[header.index("lambda_as")]) == cfg.lambda_as
        assert float(row[header.index("psnr")]) > 0.0
        assert float(row[header.index("mse")]) >= 0.0
        # one recovered/truth image pair per target, plus a trace
        for j in range(cfg.batch_size):
            assert (out / f"run{rid}_img{j}.ppm").exists()
            assert (out / f"truth_run{rid}_img{j}.ppm").exists()
        t_header, t_rows = read_csv(out / f"run{rid}_trace.csv")
        assert t_header == ["iteration", "grad_loss", "as_loss", "tv_loss", "total_loss"]
        assert len(t_rows) == cfg.iterations // cfg.record_every + 1
        assert t_rows[0][0] == "0" and t_rows[-1][0] == str(cfg.iterations)
    text = manifest.read_text()
    assert "command=attack" in text
    assert "run.0.status=ok" in text
    # Adam runs its whole budget, with one value more than gradients;
    # the counts live in the manifest only
    assert f"run.0.steps={cfg.iterations}" in text
    assert f"run.0.evaluations={cfg.iterations + 1}" in text
    assert f"run.0.gradients={cfg.iterations}" in text
    # wall time lives in the manifest, never in the CSV
    assert "wall_time" in text and "wall_time" not in ",".join(header)


def test_attack_results_are_byte_identical_across_reruns(tmp_path):
    cfg = load_config(write_cfg(tmp_path / "c.ini", fast_sections()))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cmd_attack(cfg, out_a)
    cmd_attack(cfg, out_b)
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    assert (out_a / "run0_trace.csv").read_bytes() == (out_b / "run0_trace.csv").read_bytes()
    assert (out_a / "run0_img0.ppm").read_bytes() == (out_b / "run0_img0.ppm").read_bytes()


def test_attack_seed_override_changes_results(tmp_path):
    cfg_path = write_cfg(tmp_path / "c.ini", fast_sections())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["attack", "--config", str(cfg_path), "--output", str(out_a)]) == 0
    assert main(["attack", "--config", str(cfg_path), "--output", str(out_b),
                 "--seed", "4"]) == 0
    assert (out_a / "results.csv").read_bytes() != (out_b / "results.csv").read_bytes()


def test_attack_ig_runs_without_prior_and_reports_zero_lambda(tmp_path):
    cfg = load_config(write_cfg(tmp_path / "c.ini", fast_sections(method="ig")))
    out = tmp_path / "out"
    manifest = cmd_attack(cfg, out)
    assert "prior.source" not in manifest.read_text()
    assert not (out / "prior_model.bin").exists()
    header, rows = read_csv(out / "results.csv")
    for row in rows:
        assert row[header.index("method")] == "ig"
        assert float(row[header.index("lambda_as")]) == 0.0
        assert float(row[header.index("final_as_loss")]) == 0.0


def test_attack_reuses_a_saved_prior_instead_of_retraining(tmp_path):
    cfg = load_config(write_cfg(tmp_path / "c.ini", fast_sections()))
    out = tmp_path / "out"
    cmd_train_prior(cfg, out)
    (out / "prior_trace.csv").unlink()
    manifest = cmd_attack(cfg, out)
    assert "prior.source=loaded" in manifest.read_text()
    assert not (out / "prior_trace.csv").exists()


def test_attack_rejects_more_targets_than_the_pool(tmp_path):
    sections = fast_sections()
    sections["data"]["num_targets"] = "51"  # pool is 60 - 10 eval images
    cfg_path = write_cfg(tmp_path / "c.ini", sections)
    assert main(["attack", "--config", str(cfg_path),
                 "--output", str(tmp_path / "out")]) == 2


def test_attack_exit_one_when_every_run_fails(tmp_path):
    # a saved prior with the wrong channel count makes every worker raise,
    # which the command surfaces as a run failure, not a config error
    from gipip.nn import init_autoencoder
    from gipip.prior import save_model
    out = tmp_path / "out"
    out.mkdir()
    save_model(out / "prior_model.bin", init_autoencoder(in_channels=1, seed=0))
    cfg_path = write_cfg(tmp_path / "c.ini", fast_sections())
    assert main(["attack", "--config", str(cfg_path), "--output", str(out)]) == 1
    assert "run.0.status=failed" in (out / "manifest.txt").read_text()


def test_jobs_flag_must_be_positive(tmp_path):
    cfg_path = write_cfg(tmp_path / "c.ini", fast_sections())
    assert main(["attack", "--config", str(cfg_path),
                 "--output", str(tmp_path / "out"), "--jobs", "0"]) == 2


# ---------------------------------------------------------------------------
# ablate-as command

def test_ablate_sweeps_the_grid_and_tags_rows(tmp_path):
    sections = fast_sections()
    sections["data"]["num_targets"] = "1"
    cfg = load_config(write_cfg(tmp_path / "c.ini", sections))
    out = tmp_path / "out"
    cmd_ablate_as(cfg, out, weights=(0.0, 1e-3), seeds=(0, 1))
    header, rows = read_csv(out / "ablation.csv")
    assert tuple(header) == RESULT_COLUMNS
    assert len(rows) == 2 * 2  # weights x seeds x one batch
    got = {(row[header.index("lambda_as")], row[header.index("seed")]) for row in rows}
    assert len(got) == 4
    weights = sorted({float(row[header.index("lambda_as")]) for row in rows})
    assert weights == [0.0, 1e-3]
    text = (out / "manifest.txt").read_text()
    assert "ablate.weights=0.0,0.001" in text
    assert "command=ablate-as" in text
    # every cell leaves its images and trace, and evaluate re-scores them
    # (from 8-bit images, so only close to the unquantised score)
    for rid in range(4):
        assert (out / f"run{rid}_trace.csv").exists()
    e_header, e_rows = read_csv(cmd_evaluate(out))
    assert [r[0] for r in e_rows] == [f"run{rid}_img0.ppm" for rid in range(4)]
    for e_row, row in zip(e_rows, rows):
        assert abs(float(e_row[e_header.index("psnr")])
                   - float(row[header.index("psnr")])) < 0.01


def test_attack_is_the_one_by_one_ablation(tmp_path):
    cfg = load_config(write_cfg(tmp_path / "c.ini", fast_sections()))
    cmd_attack(cfg, tmp_path / "attack")
    cmd_ablate_as(cfg, tmp_path / "ablate", weights=(cfg.lambda_as,), seeds=(cfg.seed,))
    assert ((tmp_path / "attack" / "results.csv").read_bytes()
            == (tmp_path / "ablate" / "ablation.csv").read_bytes())


def test_ablate_requires_gipip_and_nonnegative_weights(tmp_path):
    cfg = load_config(write_cfg(tmp_path / "c.ini", fast_sections(method="ig")))
    with pytest.raises(ConfigurationError, match="gipip"):
        cmd_ablate_as(cfg, tmp_path / "out")
    cfg = load_config(write_cfg(tmp_path / "c2.ini", fast_sections()))
    with pytest.raises(ConfigurationError, match=">= 0"):
        cmd_ablate_as(cfg, tmp_path / "out2", weights=(-1e-4,), seeds=(0,))


# ---------------------------------------------------------------------------
# evaluate command

def test_evaluate_rescores_written_images(tmp_path):
    cfg = load_config(write_cfg(tmp_path / "c.ini", fast_sections()))
    out = tmp_path / "out"
    cmd_attack(cfg, out)
    path = cmd_evaluate(out)
    header, rows = read_csv(path)
    assert header == ["image", "truth", "mse", "psnr", "ssim"]
    assert len(rows) == cfg.num_targets
    for row in rows:
        rec = load_image(out / row[0])
        tru = load_image(out / row[1])
        from gipip.metrics import mse, psnr, ssim
        assert float(row[2]) == mse(rec, tru)
        assert float(row[3]) == psnr(rec, tru)
        assert float(row[4]) == ssim(rec, tru)


def test_evaluate_error_paths(tmp_path):
    assert main(["evaluate", "--output", str(tmp_path / "missing")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["evaluate", "--output", str(empty)]) == 2
    # an unreadable recovered image is a format error, exit code 3
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "run0_img0.ppm").write_bytes(b"not an image")
    (broken / "truth_run0_img0.ppm").write_bytes(b"not an image")
    assert main(["evaluate", "--output", str(broken)]) == 3


def test_evaluate_requires_paired_truth(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "run0_img0.ppm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(ConfigurationError, match="truth"):
        cmd_evaluate(out)


def test_main_reports_missing_config_as_config_error(tmp_path):
    assert main(["attack", "--config", str(tmp_path / "nope.ini"),
                 "--output", str(tmp_path / "out")]) == 2
