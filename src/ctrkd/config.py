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

from .data import RandomRatioSplit, SequentialSplit, TableSchema
from .distill import COTRAIN, HINT, PRETRAIN, SOFT_LABEL, DistillConfig
from .models import PRESETS, ModelSpec, _ints, spec_from_preset
from .train import TrainHyper


# report names of the non-teacher models
PLAIN_STUDENT = "student_plain"
KD_STUDENT = "student_kd"
TEACHERS_AVG = "teachers_avg"


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
    raise ValueError("expected a boolean")


def _choice(*allowed: str):
    """Parser for a value that must be one of ``allowed``."""
    def parse(raw: str) -> str:
        if raw not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}")
        return raw
    return parse


def _column(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError("expected a non-negative column number")
    return value


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


def _model_keys(side: str, model: str) -> dict[str, tuple]:
    return {f"{side}.model": (_choice(*PRESETS), model),
            f"{side}.embedding_dim": (int, "10"),
            f"{side}.hidden": (_ints, "64,64"),
            f"{side}.dropout": (float, "0.0"),
            f"{side}.cross_layers": (int, "3"),
            f"{side}.cin_maps": (_ints, "4,4")}


# key -> (parser, default text); a key whose default is None is absent from
# the parsed values unless the config or its format recipe sets it
KEYS: dict[str, tuple] = {
    # data
    "data.path": (str, None),
    "data.format": (_choice("generic", "criteo", "avazu"), "generic"),
    "data.delimiter": (_choice("tab", "comma"), "tab"),
    "data.label_column": (_column, "0"),
    "data.numeric_columns": (_span, ""),
    "data.categorical_columns": (_span, ""),
    "data.min_count": (int, "10"),
    "data.split": (_choice("random", "sequential"), "random"),
    "data.split_ratios": (_floats, "0.8,0.1,0.1"),
    "data.split_seed": (int, "2020"),
    "data.day_column": (_column, None),
    "data.train_days": (int, None),
    # distillation
    "distill.method": (_choice(SOFT_LABEL, HINT), SOFT_LABEL),
    "distill.tau": (float, "1.0"),
    "distill.beta": (float, "0.5"),
    "distill.gamma": (float, "0.5"),
    "distill.scheme": (_choice(PRETRAIN, COTRAIN), PRETRAIN),
    "distill.gating": (_bool, "false"),
    "distill.stop": (_choice("kd_loss", "val_auc"), "kd_loss"),
    "distill.merge_val": (_bool, "true"),
    # training
    "train.lr": (float, "0.001"),
    "train.batch_size": (int, "2000"),
    "train.max_epochs": (int, "100"),
    "train.patience": (int, "3"),
    "train.l2_embedding": (float, "0.0"),
    "train.seeds": (_ints, "1"),
    "train.kd_monitor_rows": (int, "8192"),
    "train.teacher_seed": (int, "100"),
    # ensemble generation; without ensemble.mode the teacher stage is mode M
    # over teacher.model and train.teacher_seed
    "ensemble.mode": (_choice("M", "D"), None),
    "ensemble.teachers": (_strs, None),
    "ensemble.seeds": (_ints, None),
    "ensemble.partitions": (int, "0"),
    "ensemble.partition_seed": (int, "7"),
    # reporting
    "report.baseline": (str, "student_plain"),
    "report.include_plain_student": (_bool, "true"),
    "report.ensemble_metric": (_choice("metric_average", "prediction_average"),
                               "metric_average"),
    # output
    "output.dir": (str, "runs/default"),
    **_model_keys("teacher", "deepfm"),
    **_model_keys("student", "dnn"),
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
        merged = {key: default for key, (_, default) in KEYS.items()
                  if default is not None}
        recipe = FORMAT_RECIPES.get(raw.get("data.format", merged["data.format"]))
        if recipe:
            merged.update(recipe)
        merged.update(raw)
        self.base_dir = base_dir
        self.values: dict[str, object] = {}
        for key, text in merged.items():
            if key not in KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                self.values[key] = KEYS[key][0](text)
            except ValueError as err:
                raise ConfigError(f"bad value for {key}: {text!r} ({err})") from None
        self._validate()

    def _validate(self):
        if any(s < 0 for s in self["train.seeds"]):
            raise ConfigError("seeds must be non-negative")
        self.split_strategy()
        self.train_hyper()
        dcfg = self.distill_config()  # surfaces weight/temperature violations early
        if (self["distill.scheme"] == PRETRAIN and dcfg.method == HINT
                and dcfg.beta == 0.0 and self["distill.stop"] == "kd_loss"):
            raise ConfigError("hint distillation with distill.beta = 0 has no KD loss "
                              "to stop on; set distill.stop = val_auc")
        for side, preset in [("teacher", None), ("student", None),
                             *(("teacher", p) for p in self.get("ensemble.teachers") or ())]:
            try:
                self.model_spec(side, preset)
            except ValueError as err:
                raise ConfigError(f"bad {side} model: {err}") from None
        baseline = self["report.baseline"]
        if baseline == PLAIN_STUDENT and not self["report.include_plain_student"]:
            raise ConfigError("report.baseline = student_plain needs "
                              "report.include_plain_student = true")
        if self.get("ensemble.mode") == "D" and self["ensemble.partitions"] < 2:
            raise ConfigError("ensemble.mode = D needs ensemble.partitions >= 2")
        teachers = self.teacher_runs()
        names = [name for name, _, _ in teachers]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ConfigError(f"teacher name {', '.join(repeated)} is listed more than "
                              "once; list each ensemble preset and seed once")
        reported = [f"teacher/{name}" for name in names]
        if len(teachers) >= 2:
            reported.append(TEACHERS_AVG)
        reported.append(KD_STUDENT)
        if self["report.include_plain_student"]:
            reported.append(PLAIN_STUDENT)
        if baseline not in reported:
            raise ConfigError(f"report.baseline = {baseline} is not a model this run "
                              f"reports; choose one of {', '.join(reported)}")

    def __getitem__(self, key: str):
        return self.values[key]

    def get(self, key: str):
        """The value of a key without a default, or None when it is not set."""
        return self.values.get(key)

    # -- domain object builders -------------------------------------------
    def resolve_path(self, key: str) -> str:
        path = str(self[key])
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)

    def table_schema(self) -> TableSchema:
        delim = {"tab": "\t", "comma": ","}[self["data.delimiter"]]
        try:
            return TableSchema(self["data.label_column"], self["data.numeric_columns"],
                               self["data.categorical_columns"], delimiter=delim)
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def split_strategy(self):
        if self["data.split"] == "sequential" and (
                "data.day_column" not in self.values or "data.train_days" not in self.values):
            raise ConfigError("sequential split needs data.day_column and data.train_days")
        try:
            if self["data.split"] == "random":
                return RandomRatioSplit(tuple(self["data.split_ratios"]),
                                        self["data.split_seed"])
            return SequentialSplit(self["data.day_column"], self["data.train_days"])
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def model_spec(self, side: str, preset: str | None = None) -> ModelSpec:
        """The ``side``'s model, or ``preset`` built with the ``side``'s shape keys."""
        return spec_from_preset(
            preset or self[f"{side}.model"],
            embedding_dim=self[f"{side}.embedding_dim"],
            hidden=self[f"{side}.hidden"],
            dropout=self[f"{side}.dropout"],
            cross_layers=self[f"{side}.cross_layers"],
            cin_maps=self[f"{side}.cin_maps"])

    def teacher_runs(self) -> list[tuple[str, str, int]]:
        """(name, preset, seed) of each teacher the teacher stage trains: mode
        M names them ``<preset>``, or ``<preset>-s<seed>`` with several seeds;
        mode D names partition i ``<teacher.model>-p<i>``."""
        base_seed = self["train.teacher_seed"]
        if self.get("ensemble.mode") == "D":
            preset = self["teacher.model"]
            return [(f"{preset}-p{i}", preset, base_seed + i)
                    for i in range(self["ensemble.partitions"])]
        seeds = self.get("ensemble.seeds") or (base_seed,)
        return [(preset if len(seeds) == 1 else f"{preset}-s{seed}", preset, seed)
                for preset in self.get("ensemble.teachers") or (self["teacher.model"],)
                for seed in seeds]

    def distill_config(self) -> DistillConfig:
        try:
            return DistillConfig(
                method=self["distill.method"],
                tau=self["distill.tau"],
                beta=self["distill.beta"],
                gamma=self["distill.gamma"],
                gating=self["distill.gating"])
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def train_hyper(self) -> TrainHyper:
        try:
            return TrainHyper(
                lr=self["train.lr"],
                batch_size=self["train.batch_size"],
                max_epochs=self["train.max_epochs"],
                patience=self["train.patience"],
                l2_embedding=self["train.l2_embedding"],
                kd_monitor_rows=self["train.kd_monitor_rows"])
        except ValueError as err:  # the message starts with the field name
            raise ConfigError(f"train.{err}") from None

    @property
    def seeds(self) -> tuple[int, ...]:
        return self["train.seeds"]

    @property
    def output_dir(self) -> str:
        return self.resolve_path("output.dir")


def parse_config_text(text: str, base_dir: str = ".") -> ExperimentConfig:
    return ExperimentConfig(parse_kv(text), base_dir)


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """The config file's keys with ``overrides`` laid over them, validated once."""
    with open(path, "r", encoding="utf-8") as f:
        raw = parse_kv(f.read())
    raw.update(overrides or {})
    return ExperimentConfig(raw, base_dir=os.path.dirname(os.path.abspath(path)))
