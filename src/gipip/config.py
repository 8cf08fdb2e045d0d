"""Experiment configuration: a flat INI-style file, strictly validated.

Every key has a default, so the empty file is a valid experiment; unknown
sections or keys are hard errors rather than silent typos.  Two defaults
are method-dependent: lambda_as falls to 0 for methods without the anomaly
prior (ig, dlg) and lambda_tv falls to 0 for dlg, unless set explicitly.

Each key is declared once, as a field of ``ExperimentConfig``: the field's
metadata names its section and its allowed values, its key is its name less
a ``<section>_`` prefix, and its type picks the parser.  The defaults of the
[attack] and [prior] keys and of init/init_sigma are those of
``AttackConfig``, ``PriorTrainConfig`` and ``InitScheme``; each choice list
is the one its owning module checks against.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

from .attack import METHODS, AttackConfig
from .data import DATASETS
from .errors import ConfigurationError
from .flsim import PARTITION_MODES
from .nn import CLASSIFIER_ARCHS, INIT_KINDS, InitScheme
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


def _list_parser(parse, what: str):
    def parse_list(raw: str, where: str) -> tuple:
        toks = [t.strip() for t in raw.split(",") if t.strip()]
        if not toks:
            raise ConfigurationError(f"{where}: expected a comma-separated list of {what}")
        return tuple(parse(t, where) for t in toks)
    return parse_list


# field type (as annotated) -> parser
_PARSERS = {"str": lambda raw, where: raw.strip(),
            "int": _parse_int,
            "float": _parse_float,
            "bool": _parse_bool,
            "tuple[float, ...]": _list_parser(_parse_float, "numbers"),
            "tuple[int, ...]": _list_parser(_parse_int, "integers")}


def _key(section: str, default, choices: tuple | None = None):
    return field(default=default, metadata={"section": section, "choices": choices})


@dataclass(frozen=True)
class ExperimentConfig:
    """All settings, resolved (defaults filled in, consistency checked)."""

    name: str = _key("experiment", "run")
    seed: int = _key("experiment", 0)
    dataset: str = _key("data", DATASETS[0], DATASETS)
    path: str = _key("data", "")
    synthetic_count: int = _key("data", 600)
    aux_mode: str = _key("data", PARTITION_MODES[0], PARTITION_MODES)
    aux_fraction: float = _key("data", 0.1)
    num_targets: int = _key("data", 4)
    batch_size: int = _key("data", 1)
    arch: str = _key("model", "convnet", CLASSIFIER_ARCHS)
    init: str = _key("model", InitScheme.kind, INIT_KINDS)
    init_sigma: float = _key("model", InitScheme.sigma)
    hidden: int = _key("model", 64)
    prior_enabled: bool = _key("prior", True)
    prior_epochs: int = _key("prior", PriorTrainConfig.epochs)
    prior_learning_rate: float = _key("prior", PriorTrainConfig.learning_rate)
    prior_batch_size: int = _key("prior", PriorTrainConfig.batch_size)
    prior_model_path: str = _key("prior", "")
    method: str = _key("attack", AttackConfig.method, METHODS)
    learning_rate: float = _key("attack", AttackConfig.learning_rate)
    iterations: int = _key("attack", AttackConfig.iterations)
    lambda_as: float = _key("attack", AttackConfig.lambda_as)
    lambda_tv: float = _key("attack", AttackConfig.lambda_tv)
    restarts: int = _key("attack", AttackConfig.restarts)
    clamp: bool = _key("attack", AttackConfig.clamp)
    record_every: int = _key("attack", AttackConfig.record_every)
    ablate_weights: tuple[float, ...] = _key("ablate", (0.0, 1e-5, 1e-4, 1e-3, 1e-2))
    ablate_seeds: tuple[int, ...] = _key("ablate", (0, 1, 2, 3, 4))
    output_dir: str = _key("output", "out")

    def items(self) -> list[tuple[str, object]]:
        """Flat (field, value) pairs in declaration order, for manifests."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def _build(self, cls, prefix: str, **given):
        # cls from the fields named like its own (after prefix), and `given`
        return cls(**given, **{f.name: getattr(self, prefix + f.name)
                               for f in fields(cls) if f.name not in given})

    def attack_config(self, lambda_as: float, seed: int) -> AttackConfig:
        """The settings of one inversion run at anomaly weight ``lambda_as``."""
        return self._build(AttackConfig, "", lambda_as=lambda_as, seed=seed)

    def prior_config(self, seed: int) -> PriorTrainConfig:
        """The settings of prior training."""
        return self._build(PriorTrainConfig, "prior_", seed=seed)


# (section, key) -> field
_KEYS = {(f.metadata["section"], f.name.removeprefix(f.metadata["section"] + "_")): f
         for f in fields(ExperimentConfig)}
_SECTIONS = {sec for sec, _ in _KEYS}


def _validate(values: dict[str, object]) -> ExperimentConfig:
    # method-dependent defaults for the prior weights
    method = values.get("method", AttackConfig.method)
    if method != "gipip":
        values.setdefault("lambda_as", 0.0)
    if method == "dlg":
        values.setdefault("lambda_tv", 0.0)
    cfg = ExperimentConfig(**values)

    for name in ("synthetic_count", "num_targets", "batch_size", "hidden"):
        if getattr(cfg, name) < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {getattr(cfg, name)}")
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
    if cfg.dataset != "synthetic" and not cfg.path:
        raise ConfigurationError(f"dataset '{cfg.dataset}' needs [data] path")
    return cfg


def _from_pairs(pairs: dict[tuple[str, str], str], origin: str) -> ExperimentConfig:
    values = {}
    for (sec, key), raw in pairs.items():
        if sec not in _SECTIONS:
            raise ConfigurationError(f"{origin}: unknown section [{sec}]")
        if (sec, key) not in _KEYS:
            raise ConfigurationError(f"{origin}: unknown key '{key}' in [{sec}]")
        f = _KEYS[(sec, key)]
        where = f"{origin}: [{sec}] {key}"
        value = _PARSERS[f.type](raw, where)
        choices = f.metadata["choices"]
        if choices is not None and value not in choices:
            raise ConfigurationError(f"{where}: '{value}' is not one of {choices}")
        values[f.name] = value
    return _validate(values)


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
