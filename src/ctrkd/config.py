"""Experiment configuration: flat ``section.key = value`` text files.

A config fully determines a run given the input files. Unknown keys are
rejected so stale option names fail loudly instead of silently using
defaults. Relative paths resolve against the config file's directory.

The ``key = value`` codec here (``parse_kv``/``format_kv``) is also the
one that checkpoint text members and ``data_meta.txt`` use.
"""
from __future__ import annotations

import os

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


def _non_empty(raw: str) -> str:
    if raw == "":
        raise ValueError("expected a non-empty value")
    return raw


def _non_negative(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError("expected a non-negative integer")
    return value


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(",") if x.strip() != "")


def _strs(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip() != "")


def _non_negatives(raw: str) -> tuple[int, ...]:
    return tuple(_non_negative(x) for x in _strs(raw))


def _seeds(raw: str) -> tuple[int, ...]:
    seeds = _non_negatives(raw)
    if not seeds or len(set(seeds)) < len(seeds):
        raise ValueError("expected one or more distinct non-negative seeds")
    return seeds


def _build(prefix: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; its ValueError becomes a ConfigError
    whose message starts with ``prefix``."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{prefix}{err}") from None


def _span(raw: str) -> tuple[int, ...]:
    """Column ranges: "1-13" or "2,5,7" or "" (empty)."""
    out: list[int] = []
    for part in raw.split(","):
        part = part.strip()
        if part == "":
            continue
        if "-" in part:
            lo, hi = (int(end) for end in part.split("-", 1))
            if hi < lo:
                raise ValueError(f"range {part!r} ends below its start")
            out.extend(range(lo, hi + 1))
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
    "data.path": (_non_empty, None),
    "data.format": (_choice("generic", "criteo", "avazu"), "generic"),
    "data.delimiter": (_choice("tab", "comma"), "tab"),
    "data.label_column": (_non_negative, "0"),
    "data.numeric_columns": (_span, ""),
    "data.categorical_columns": (_span, ""),
    "data.min_count": (int, "10"),
    "data.split": (_choice("random", "sequential"), "random"),
    "data.split_ratios": (_floats, "0.8,0.1,0.1"),
    "data.split_seed": (_non_negative, "2020"),
    "data.day_column": (_non_negative, None),
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
    "train.seeds": (_seeds, "1"),
    "train.kd_monitor_rows": (int, "8192"),
    "train.teacher_seed": (_non_negative, "100"),
    # ensemble generation; no ensemble.mode means mode M, whose teachers
    # default to teacher.model at train.teacher_seed
    "ensemble.mode": (_choice("M", "D"), None),
    "ensemble.teachers": (_strs, None),
    "ensemble.seeds": (_non_negatives, None),
    "ensemble.partitions": (int, "0"),
    "ensemble.partition_seed": (_non_negative, "7"),
    # reporting
    "report.baseline": (str, "student_plain"),
    "report.include_plain_student": (_bool, "true"),
    "report.ensemble_metric": (_choice("metric_average", "prediction_average"),
                               "metric_average"),
    # output
    "output.dir": (_non_empty, "runs/default"),
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
    """Parsed, validated configuration. The objects a run needs are built
    once, here: ``schema``, ``split``, ``hyper``, ``distill``,
    ``student_spec`` and ``teachers``, a list of (name, spec, seed)."""

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
        self.schema = _build("", TableSchema, self["data.label_column"],
                             self["data.numeric_columns"], self["data.categorical_columns"],
                             delimiter={"tab": "\t", "comma": ","}[self["data.delimiter"]])
        if self["data.split"] == "random":
            self.split = _build("", RandomRatioSplit, self["data.split_ratios"],
                                self["data.split_seed"])
        elif None in (self.get("data.day_column"), self.get("data.train_days")):
            raise ConfigError("sequential split needs data.day_column and data.train_days")
        else:
            self.split = _build("", SequentialSplit, self["data.day_column"],
                                self["data.train_days"])
        # a TrainHyper message starts with the field name
        self.hyper = _build("train.", TrainHyper, **{
            field: self[f"train.{field}"] for field in
            ("lr", "batch_size", "max_epochs", "patience", "l2_embedding", "kd_monitor_rows")})
        self.distill = _build("", DistillConfig, **{
            field: self[f"distill.{field}"] for field in
            ("method", "tau", "beta", "gamma", "gating")})
        self.student_spec = self._spec("student", self["student.model"])
        self.teachers = self._teachers()
        self._validate(raw)

    def _spec(self, side: str, preset: str) -> ModelSpec:
        """``preset`` built with the ``side``'s shape keys."""
        return _build(f"bad {side} model: ", spec_from_preset, preset, **{
            field: self[f"{side}.{field}"] for field in
            ("embedding_dim", "hidden", "dropout", "cross_layers", "cin_maps")})

    def _teachers(self) -> list[tuple[str, ModelSpec, int]]:
        """(name, spec, seed) of each teacher the teacher stage trains: mode
        M names them ``<preset>``, or ``<preset>-s<seed>`` with several seeds;
        mode D names partition i ``<teacher.model>-p<i>``."""
        base_seed = self["train.teacher_seed"]
        if self.get("ensemble.mode") == "D":
            preset = self["teacher.model"]
            runs = [(f"{preset}-p{i}", preset, base_seed + i)
                    for i in range(self["ensemble.partitions"])]
        else:
            seeds = self.get("ensemble.seeds") or (base_seed,)
            runs = [(preset if len(seeds) == 1 else f"{preset}-s{seed}", preset, seed)
                    for preset in self.get("ensemble.teachers") or (self["teacher.model"],)
                    for seed in seeds]
        return [(name, self._spec("teacher", preset), seed) for name, preset, seed in runs]

    def _validate(self, given: dict[str, str]):
        """The rules that span several keys; ``given`` holds the keys the config sets."""
        if (self["distill.scheme"] == PRETRAIN and self.distill.method == HINT
                and self.distill.beta == 0.0 and self["distill.stop"] == "kd_loss"):
            raise ConfigError("hint distillation with distill.beta = 0 has no KD loss "
                              "to stop on; set distill.stop = val_auc")
        baseline = self["report.baseline"]
        if baseline == PLAIN_STUDENT and not self["report.include_plain_student"]:
            raise ConfigError("report.baseline = student_plain needs "
                              "report.include_plain_student = true")
        mode = self.get("ensemble.mode") or "M"
        ignored = (("ensemble.teachers", "ensemble.seeds") if mode == "D"
                   else ("ensemble.partitions", "ensemble.partition_seed"))
        stray = [key for key in ignored if key in given]
        if stray:
            raise ConfigError(f"ensemble.mode = {mode} ignores {', '.join(stray)}")
        if mode == "D" and self["ensemble.partitions"] < 2:
            raise ConfigError("ensemble.mode = D needs ensemble.partitions >= 2")
        names = [name for name, _, _ in self.teachers]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ConfigError(f"teacher name {', '.join(repeated)} is listed more than "
                              "once; list each ensemble preset and seed once")
        if self["distill.scheme"] == COTRAIN and len(names) != 1:
            raise ConfigError("distill.scheme = cotrain needs exactly one teacher; "
                              f"this config trains {len(names)}")
        if self["distill.scheme"] == COTRAIN and self.distill.gating:
            raise ConfigError("distill.gating = true needs distill.scheme = pretrain; "
                              "cotrain trains no teacher gate")
        reported = [f"teacher/{name}" for name in names]
        if len(names) >= 2:
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

    def resolve_path(self, key: str) -> str:
        path = str(self[key])
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)

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
