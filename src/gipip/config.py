"""Experiment configuration: a flat INI-style file, strictly validated.

Every key has a default, so the empty file is a valid experiment; unknown
sections or keys are hard errors rather than silent typos.  Two defaults
are method-dependent: lambda_as falls to 0 for methods without the anomaly
prior (ig, dlg) and lambda_tv falls to 0 for dlg, unless set explicitly.

Sections and keys:

  [experiment] name, seed, parallel_runs
  [data]       dataset (synthetic|mnist|cifar10), path, synthetic_count,
               aux_mode (named_split|fraction), aux_fraction,
               num_targets, batch_size
  [model]      arch (dense1|mlp2|convnet), init (kaiming_uniform|normal),
               init_sigma, hidden
  [prior]      enabled, epochs, learning_rate, batch_size, model_path
  [attack]     method (gipip|ig|dlg), learning_rate, iterations,
               lambda_as, lambda_tv, restarts, clamp, record_every
  [ablate]     weights, seeds (comma-separated lists)
  [output]     dir
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigurationError

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "on": True,
               "false": False, "no": False, "0": False, "off": False}


def _parse_bool(raw: str, where: str) -> bool:
    v = _BOOL_WORDS.get(raw.strip().lower())
    if v is None:
        raise ConfigurationError(f"{where}: expected a boolean, got '{raw}'")
    return v


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigurationError(f"{where}: expected an integer, got '{raw}'")


def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw.strip())
    except ValueError:
        raise ConfigurationError(f"{where}: expected a number, got '{raw}'")


def _parse_float_list(raw: str, where: str) -> tuple[float, ...]:
    toks = [t.strip() for t in raw.split(",") if t.strip()]
    if not toks:
        raise ConfigurationError(f"{where}: expected a comma-separated list of numbers")
    return tuple(_parse_float(t, where) for t in toks)


def _parse_int_list(raw: str, where: str) -> tuple[int, ...]:
    toks = [t.strip() for t in raw.split(",") if t.strip()]
    if not toks:
        raise ConfigurationError(f"{where}: expected a comma-separated list of integers")
    return tuple(_parse_int(t, where) for t in toks)


# key -> (parser kind, default, allowed choices or None)
_SCHEMA: dict[str, dict[str, tuple[str, object, tuple | None]]] = {
    "experiment": {
        "name": ("str", "run", None),
        "seed": ("int", 0, None),
        "parallel_runs": ("int", 1, None),
    },
    "data": {
        "dataset": ("str", "synthetic", ("synthetic", "mnist", "cifar10")),
        "path": ("str", "", None),
        "synthetic_count": ("int", 600, None),
        "aux_mode": ("str", "named_split", ("named_split", "fraction")),
        "aux_fraction": ("float", 0.1, None),
        "num_targets": ("int", 4, None),
        "batch_size": ("int", 1, None),
    },
    "model": {
        "arch": ("str", "convnet", ("dense1", "mlp2", "convnet")),
        "init": ("str", "kaiming_uniform", ("kaiming_uniform", "normal")),
        "init_sigma": ("float", 0.05, None),
        "hidden": ("int", 64, None),
    },
    "prior": {
        "enabled": ("bool", True, None),
        "epochs": ("int", 30, None),
        "learning_rate": ("float", 1e-3, None),
        "batch_size": ("int", 64, None),
        "model_path": ("str", "", None),
    },
    "attack": {
        "method": ("str", "gipip", ("gipip", "ig", "dlg")),
        "learning_rate": ("float", 0.1, None),
        "iterations": ("int", 4000, None),
        "lambda_as": ("float", 1e-4, None),
        "lambda_tv": ("float", 1e-2, None),
        "restarts": ("int", 1, None),
        "clamp": ("bool", True, None),
        "record_every": ("int", 50, None),
    },
    "ablate": {
        "weights": ("float_list", (0.0, 1e-5, 1e-4, 1e-3, 1e-2), None),
        "seeds": ("int_list", (0, 1, 2, 3, 4), None),
    },
    "output": {
        "dir": ("str", "out", None),
    },
}

_PARSERS = {"str": lambda raw, where: raw.strip(),
            "int": _parse_int,
            "float": _parse_float,
            "bool": _parse_bool,
            "float_list": _parse_float_list,
            "int_list": _parse_int_list}


@dataclass(frozen=True)
class ExperimentConfig:
    """All settings, resolved (defaults filled in, consistency checked)."""

    name: str
    seed: int
    parallel_runs: int
    dataset: str
    path: str
    synthetic_count: int
    aux_mode: str
    aux_fraction: float
    num_targets: int
    batch_size: int
    arch: str
    init: str
    init_sigma: float
    hidden: int
    prior_enabled: bool
    prior_epochs: int
    prior_learning_rate: float
    prior_batch_size: int
    prior_model_path: str
    method: str
    learning_rate: float
    iterations: int
    lambda_as: float
    lambda_tv: float
    restarts: int
    clamp: bool
    record_every: int
    ablate_weights: tuple[float, ...]
    ablate_seeds: tuple[int, ...]
    output_dir: str

    def items(self) -> list[tuple[str, object]]:
        """Flat (field, value) pairs in declaration order, for manifests."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


_FIELD_OF = {
    ("experiment", "name"): "name",
    ("experiment", "seed"): "seed",
    ("experiment", "parallel_runs"): "parallel_runs",
    ("data", "dataset"): "dataset",
    ("data", "path"): "path",
    ("data", "synthetic_count"): "synthetic_count",
    ("data", "aux_mode"): "aux_mode",
    ("data", "aux_fraction"): "aux_fraction",
    ("data", "num_targets"): "num_targets",
    ("data", "batch_size"): "batch_size",
    ("model", "arch"): "arch",
    ("model", "init"): "init",
    ("model", "init_sigma"): "init_sigma",
    ("model", "hidden"): "hidden",
    ("prior", "enabled"): "prior_enabled",
    ("prior", "epochs"): "prior_epochs",
    ("prior", "learning_rate"): "prior_learning_rate",
    ("prior", "batch_size"): "prior_batch_size",
    ("prior", "model_path"): "prior_model_path",
    ("attack", "method"): "method",
    ("attack", "learning_rate"): "learning_rate",
    ("attack", "iterations"): "iterations",
    ("attack", "lambda_as"): "lambda_as",
    ("attack", "lambda_tv"): "lambda_tv",
    ("attack", "restarts"): "restarts",
    ("attack", "clamp"): "clamp",
    ("attack", "record_every"): "record_every",
    ("ablate", "weights"): "ablate_weights",
    ("ablate", "seeds"): "ablate_seeds",
    ("output", "dir"): "output_dir",
}


def _validate(values: dict[str, object], present: set[tuple[str, str]]) -> dict[str, object]:
    # method-dependent defaults for the prior weights
    method = values["method"]
    if ("attack", "lambda_as") not in present and method in ("ig", "dlg"):
        values["lambda_as"] = 0.0
    if ("attack", "lambda_tv") not in present and method == "dlg":
        values["lambda_tv"] = 0.0

    def positive(field, minimum=1):
        if values[field] < minimum:
            raise ConfigurationError(f"{field} must be >= {minimum}, got {values[field]}")

    positive("parallel_runs")
    positive("synthetic_count")
    positive("num_targets")
    positive("batch_size")
    positive("hidden")
    positive("prior_batch_size")
    positive("restarts")
    positive("record_every")
    positive("iterations", 0)
    positive("prior_epochs", 0)
    if values["learning_rate"] <= 0 or values["prior_learning_rate"] <= 0:
        raise ConfigurationError("learning rates must be positive")
    if values["init_sigma"] < 0:
        raise ConfigurationError("init_sigma must be >= 0")
    if values["lambda_as"] < 0 or values["lambda_tv"] < 0:
        raise ConfigurationError("lambda weights must be >= 0")
    if values["aux_mode"] == "fraction" and not (0.0 < values["aux_fraction"] < 1.0):
        raise ConfigurationError(f"aux_fraction must be in (0, 1), "
                                 f"got {values['aux_fraction']}")
    if values["num_targets"] % values["batch_size"] != 0:
        raise ConfigurationError(f"num_targets ({values['num_targets']}) must be a "
                                 f"multiple of batch_size ({values['batch_size']})")
    if values["batch_size"] > 8:
        raise ConfigurationError("batch_size is limited to 8 (metric assignment "
                                 "takes at most 8 images)")
    if method == "ig" and values["lambda_as"] != 0:
        raise ConfigurationError("method 'ig' requires lambda_as = 0")
    if method == "dlg" and (values["lambda_as"] != 0 or values["lambda_tv"] != 0):
        raise ConfigurationError("method 'dlg' requires lambda_as = 0 and lambda_tv = 0")
    if method == "gipip" and not values["prior_enabled"]:
        raise ConfigurationError("method 'gipip' needs the prior; set [prior] enabled "
                                 "or switch methods")
    if values["dataset"] in ("mnist", "cifar10") and not values["path"]:
        raise ConfigurationError(f"dataset '{values['dataset']}' needs [data] path")
    return values


def _from_pairs(pairs: dict[tuple[str, str], str], origin: str) -> ExperimentConfig:
    values = {field: spec[1] for (sec, key), field in _FIELD_OF.items()
              for spec in [_SCHEMA[sec][key]]}
    present = set()
    for (sec, key), raw in pairs.items():
        if sec not in _SCHEMA:
            raise ConfigurationError(f"{origin}: unknown section [{sec}]")
        if key not in _SCHEMA[sec]:
            raise ConfigurationError(f"{origin}: unknown key '{key}' in [{sec}]")
        kind, _, choices = _SCHEMA[sec][key]
        where = f"{origin}: [{sec}] {key}"
        value = _PARSERS[kind](raw, where)
        if choices is not None and value not in choices:
            raise ConfigurationError(f"{where}: '{value}' is not one of {choices}")
        values[_FIELD_OF[(sec, key)]] = value
        present.add((sec, key))
    return ExperimentConfig(**_validate(values, present))


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; missing keys take defaults."""
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {p}")
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        with open(p, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{p}: not a valid config file: {exc}")
    pairs = {(sec.lower(), key.lower()): parser.get(sec, key)
             for sec in parser.sections() for key in parser[sec]}
    return _from_pairs(pairs, str(p))


def config_from_dict(overrides: dict[str, dict[str, str]] | None = None) -> ExperimentConfig:
    """Build a config from string values as a file would give them."""
    pairs = {}
    for sec, kv in (overrides or {}).items():
        for key, raw in kv.items():
            pairs[(sec, key)] = str(raw)
    return _from_pairs(pairs, "<dict>")
