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

from .attack import AttackConfig
from .errors import ConfigurationError
from .prior import PriorTrainConfig

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

    def attack_config(self, lambda_as: float, seed: int) -> AttackConfig:
        """The settings of one inversion run at anomaly weight ``lambda_as``."""
        return AttackConfig(method=self.method, learning_rate=self.learning_rate,
                            iterations=self.iterations, lambda_as=lambda_as,
                            lambda_tv=self.lambda_tv, restarts=self.restarts,
                            clamp=self.clamp, record_every=self.record_every, seed=seed)

    def prior_config(self, seed: int) -> PriorTrainConfig:
        """The settings of prior training."""
        return PriorTrainConfig(epochs=self.prior_epochs,
                                learning_rate=self.prior_learning_rate,
                                batch_size=self.prior_batch_size, seed=seed)


# [prior], [ablate] and [output] keys are prefixed with their section
_FIELD_OF = {(sec, key): f"{sec}_{key}" if sec in ("prior", "ablate", "output") else key
             for sec, keys in _SCHEMA.items() for key in keys}


def _validate(values: dict[str, object], present: set[tuple[str, str]]) -> ExperimentConfig:
    # method-dependent defaults for the prior weights
    method = values["method"]
    if ("attack", "lambda_as") not in present and method in ("ig", "dlg"):
        values["lambda_as"] = 0.0
    if ("attack", "lambda_tv") not in present and method == "dlg":
        values["lambda_tv"] = 0.0
    cfg = ExperimentConfig(**values)

    for field in ("parallel_runs", "synthetic_count", "num_targets", "batch_size", "hidden"):
        if getattr(cfg, field) < 1:
            raise ConfigurationError(f"{field} must be >= 1, got {getattr(cfg, field)}")
    # the attack and prior-training rules live with the configs they build
    cfg.attack_config(cfg.lambda_as, cfg.seed)
    cfg.prior_config(cfg.seed)
    if cfg.init_sigma < 0:
        raise ConfigurationError("init_sigma must be >= 0")
    if cfg.aux_mode == "fraction" and not (0.0 < cfg.aux_fraction < 1.0):
        raise ConfigurationError(f"aux_fraction must be in (0, 1), got {cfg.aux_fraction}")
    if cfg.num_targets % cfg.batch_size != 0:
        raise ConfigurationError(f"num_targets ({cfg.num_targets}) must be a "
                                 f"multiple of batch_size ({cfg.batch_size})")
    if cfg.batch_size > 8:
        raise ConfigurationError("batch_size is limited to 8 (metric assignment "
                                 "takes at most 8 images)")
    if method == "gipip" and not cfg.prior_enabled:
        raise ConfigurationError("method 'gipip' needs the prior; set [prior] enabled "
                                 "or switch methods")
    if cfg.dataset in ("mnist", "cifar10") and not cfg.path:
        raise ConfigurationError(f"dataset '{cfg.dataset}' needs [data] path")
    return cfg


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
    return _validate(values, present)


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
