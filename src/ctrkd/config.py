"""Experiment configuration: flat ``section.key = value`` text files.

A config fully determines a run given the input files. Unknown keys are
rejected so stale option names fail loudly instead of silently using
defaults. Relative paths resolve against the config file's directory.

The ``key = value`` codec here (``parse_kv``/``format_kv``) is also the
one that checkpoint text sections and ``data_meta.txt`` use.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from .data import (CATEGORICAL, NUMERIC, FieldSchema, RandomRatioSplit,
                   SequentialSplit, TableSchema)
from .distill import DistillConfig
from .models import PRESETS, ModelSpec, _ints, spec_from_preset
from .train import TrainHyper


class ConfigError(ValueError):
    pass


def parse_kv(text: str) -> dict[str, str]:
    """``key = value`` lines to a dict: keys and values are stripped, blank
    and ``#`` lines are skipped, and a duplicate key is an error."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def format_kv(pairs) -> str:
    """One ``key = value`` line per (key, value) pair, in the given order."""
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(",") if x.strip() != "")


def _strs(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip() != "")


def _span(raw: str) -> tuple[int, ...]:
    """Column ranges: "1-13" or "2,5,7" or "" (empty)."""
    out: list[int] = []
    for part in raw.split(","):
        part = part.strip()
        if part == "":
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return tuple(out)


_MODEL_KEYS = {
    "model": str,
    "embedding_dim": int,
    "hidden": _ints,
    "dropout": float,
    "cross_layers": int,
    "cin_maps": _ints,
}

SCHEMA: dict[str, object] = {
    # data
    "data.path": str,
    "data.format": str,            # criteo | avazu | generic
    "data.delimiter": str,         # tab | comma
    "data.label_column": int,
    "data.numeric_columns": _span,
    "data.categorical_columns": _span,
    "data.min_count": int,
    "data.split": str,             # random | sequential
    "data.split_ratios": _floats,
    "data.split_seed": int,
    "data.day_column": int,
    "data.train_days": int,
    # distillation
    "distill.method": str,
    "distill.tau": float,
    "distill.beta": float,
    "distill.gamma": float,
    "distill.scheme": str,
    "distill.gating": _bool,
    "distill.stop": str,           # kd_loss | val_auc
    "distill.merge_val": _bool,
    # training
    "train.lr": float,
    "train.batch_size": int,
    "train.max_epochs": int,
    "train.patience": int,
    "train.l2_embedding": float,
    "train.seeds": _ints,
    "train.kd_monitor_rows": int,
    "train.teacher_seed": int,
    # ensemble generation
    "ensemble.mode": str,          # M | D
    "ensemble.teachers": _strs,
    "ensemble.seeds": _ints,
    "ensemble.partitions": int,
    "ensemble.partition_seed": int,
    # reporting
    "report.baseline": str,
    "report.include_plain_student": _bool,
    "report.ensemble_metric": str,  # metric_average | prediction_average
    # output
    "output.dir": str,
}
SCHEMA.update({f"teacher.{k}": v for k, v in _MODEL_KEYS.items()})
SCHEMA.update({f"student.{k}": v for k, v in _MODEL_KEYS.items()})

DEFAULTS: dict[str, str] = {
    "data.format": "generic",
    "data.label_column": "0",
    "data.min_count": "10",
    "data.split": "random",
    "data.split_ratios": "0.8,0.1,0.1",
    "data.split_seed": "2020",
    "distill.method": "soft_label",
    "distill.tau": "1.0",
    "distill.beta": "0.5",
    "distill.gamma": "0.5",
    "distill.scheme": "pretrain",
    "distill.gating": "false",
    "distill.stop": "kd_loss",
    "distill.merge_val": "true",
    "train.lr": "0.001",
    "train.batch_size": "2000",
    "train.max_epochs": "100",
    "train.patience": "3",
    "train.l2_embedding": "0.0",
    "train.seeds": "1",
    "train.kd_monitor_rows": "8192",
    "train.teacher_seed": "100",
    "teacher.model": "deepfm",
    "teacher.embedding_dim": "10",
    "teacher.hidden": "64,64",
    "teacher.dropout": "0.0",
    "teacher.cross_layers": "3",
    "teacher.cin_maps": "4,4",
    "student.model": "dnn",
    "student.embedding_dim": "10",
    "student.hidden": "64,64",
    "student.dropout": "0.0",
    "student.cross_layers": "3",
    "student.cin_maps": "4,4",
    "ensemble.partition_seed": "7",
    "report.baseline": "student_plain",
    "report.include_plain_student": "true",
    "report.ensemble_metric": "metric_average",
    "output.dir": "runs/default",
}

# format presets per the public dataset layouts
FORMAT_RECIPES: dict[str, dict[str, str]] = {
    "criteo": {
        "data.delimiter": "tab",
        "data.label_column": "0",
        "data.numeric_columns": "1-13",
        "data.categorical_columns": "14-39",
        "data.min_count": "10",
        "teacher.embedding_dim": "20",
        "student.embedding_dim": "20",
        # the public file carries no day column; the last-two-sevenths
        # random split approximates the train/val/test protocol
        "data.split": "random",
        "data.split_ratios": f"{5/7!r},{1/7!r},{1/7!r}",
    },
    "avazu": {
        "data.delimiter": "comma",
        "data.label_column": "1",
        "data.categorical_columns": "2-23",
        "data.numeric_columns": "",
        "data.min_count": "5",
        "teacher.embedding_dim": "40",
        "student.embedding_dim": "40",
        "data.split": "random",
        "data.split_ratios": "0.8,0.1,0.1",
    },
}


class ExperimentConfig:
    """Parsed, validated configuration with typed accessors."""

    def __init__(self, raw: dict[str, str], base_dir: str = "."):
        merged = dict(DEFAULTS)
        recipe = FORMAT_RECIPES.get(raw.get("data.format", merged["data.format"]))
        if recipe:
            merged.update(recipe)
        merged.update(raw)
        self.raw = raw
        self.base_dir = base_dir
        self.values: dict[str, object] = {}
        for key, text in merged.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                self.values[key] = SCHEMA[key](text)  # type: ignore[operator]
            except ConfigError:
                raise
            except (TypeError, ValueError) as err:
                raise ConfigError(f"bad value for {key}: {text!r} ({err})") from None
        self._validate()

    def _validate(self):
        if self["data.format"] not in ("generic", "criteo", "avazu"):
            raise ConfigError(f"unknown data.format {self['data.format']!r}")
        if self["data.split"] not in ("random", "sequential"):
            raise ConfigError(f"unknown data.split {self['data.split']!r}")
        if self["distill.stop"] not in ("kd_loss", "val_auc"):
            raise ConfigError(f"unknown distill.stop {self['distill.stop']!r}")
        if self["report.ensemble_metric"] not in ("metric_average", "prediction_average"):
            raise ConfigError("report.ensemble_metric must be metric_average "
                              "or prediction_average")
        if "ensemble.mode" in self.values and self["ensemble.mode"] not in ("M", "D"):
            raise ConfigError("ensemble.mode must be M or D")
        for side in ("teacher", "student"):
            if self[f"{side}.model"] not in PRESETS:
                raise ConfigError(f"{side}.model must be one of {PRESETS}")
        if any(s < 0 for s in self["train.seeds"]):
            raise ConfigError("seeds must be non-negative")
        self.distill_config()  # surfaces weight/temperature violations early

    def __getitem__(self, key: str):
        return self.values[key]

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    # -- domain object builders -------------------------------------------
    def resolve_path(self, key: str) -> str:
        path = str(self[key])
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)

    def table_schema(self) -> TableSchema:
        delim = {"tab": "\t", "comma": ","}.get(self.get("data.delimiter", "tab"))
        if delim is None:
            raise ConfigError("data.delimiter must be 'tab' or 'comma'")
        fields = [FieldSchema(f"I{i + 1}", NUMERIC, pos)
                  for i, pos in enumerate(self.get("data.numeric_columns", ()))]
        fields += [FieldSchema(f"C{i + 1}", CATEGORICAL, pos)
                   for i, pos in enumerate(self.get("data.categorical_columns", ()))]
        if not fields:
            raise ConfigError("no feature columns configured")
        try:
            return TableSchema(self["data.label_column"], fields, delimiter=delim)
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def split_strategy(self):
        if self["data.split"] == "random":
            ratios = self["data.split_ratios"]
            if len(ratios) != 3:
                raise ConfigError("data.split_ratios needs three values")
            return RandomRatioSplit(tuple(ratios), self["data.split_seed"])
        if "data.day_column" not in self.values or "data.train_days" not in self.values:
            raise ConfigError("sequential split needs data.day_column and data.train_days")
        return SequentialSplit(self["data.day_column"], self["data.train_days"])

    def model_spec(self, side: str) -> ModelSpec:
        return spec_from_preset(
            self[f"{side}.model"],
            embedding_dim=self[f"{side}.embedding_dim"],
            hidden=self[f"{side}.hidden"],
            dropout=self[f"{side}.dropout"],
            cross_layers=self[f"{side}.cross_layers"],
            cin_maps=self[f"{side}.cin_maps"])

    def distill_config(self) -> DistillConfig:
        try:
            return DistillConfig(
                method=self["distill.method"],
                tau=self["distill.tau"],
                beta=self["distill.beta"],
                gamma=self["distill.gamma"],
                scheme=self["distill.scheme"],
                gating=self["distill.gating"])
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def train_hyper(self) -> TrainHyper:
        return TrainHyper(
            lr=self["train.lr"],
            batch_size=self["train.batch_size"],
            max_epochs=self["train.max_epochs"],
            patience=self["train.patience"],
            l2_embedding=self["train.l2_embedding"],
            kd_monitor_rows=self["train.kd_monitor_rows"])

    @property
    def seeds(self) -> tuple[int, ...]:
        return self["train.seeds"]

    @property
    def output_dir(self) -> str:
        return self.resolve_path("output.dir")

    def serialize(self) -> str:
        return format_kv(sorted(self.raw.items()))


def parse_config_text(text: str, base_dir: str = ".") -> ExperimentConfig:
    return ExperimentConfig(parse_kv(text), base_dir)


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    cfg = parse_config_text(text, base_dir=os.path.dirname(os.path.abspath(path)))
    if overrides:
        raw = dict(cfg.raw)
        raw.update(overrides)
        cfg = ExperimentConfig(raw, cfg.base_dir)
    return cfg
