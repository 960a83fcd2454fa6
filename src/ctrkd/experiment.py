"""Experiment pipeline: preprocess -> teachers -> distill -> evaluate -> report.

Each stage persists its outputs under the config's output directory, so the
CLI verbs can run the stages in separate processes; ``run`` chains them all,
each through ``run_stage``.
Any stage failure aborts with a stage-tagged error and flags the output
directory as failed so partially written artifacts are never mistaken for a
finished run.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import persist
from .config import (KD_STUDENT, PLAIN_STUDENT, TEACHERS_AVG, ExperimentConfig,
                     format_kv, parse_kv)
from .data import (EncodedDataset, FeatureVocabulary, encode_rows, read_rows, replacing,
                   split_rows)
from .distill import COTRAIN, PRETRAIN
from .metrics import auc, logloss
from .models import FieldDims, Model
from .report import Aggregate, ExperimentReport, ReportRow
from .train import (KD_LOSS_MIN, VAL_AUC_MAX, predict_dataset,
                    train_student_cotrain, train_student_pretrain,
                    train_teacher)


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


# stage tag -> the name of the function that runs it, in pipeline order. The
# function is looked up by name at call time, so a wrapper installed on the
# module attribute is the one that runs.
STAGES = {"preprocess": "stage_preprocess", "teachers": "stage_teachers_from_disk",
          "distill": "stage_distill", "evaluate": "stage_evaluate",
          "report": "stage_report"}


def run_stage(stage: str, cfg: ExperimentConfig):
    """Run the stage tagged ``stage``; any failure becomes a StageError."""
    try:
        return globals()[STAGES[stage]](cfg)
    except Exception as err:
        raise StageError(stage, err) from err


def _write(path: str, text: str) -> None:
    """Write a text artifact whole or not at all: UTF-8, with ``text``'s line
    ends untranslated. Every text file a run writes goes through here."""
    with replacing(path, "w", newline="", encoding="utf-8") as f:
        f.write(text)


def _write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    """Write ``rows`` under a ``columns`` header, every line ending in ``\\n``."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write(path, buf.getvalue())


def _write_status(outdir: str, text: str) -> None:
    _write(os.path.join(outdir, "status.txt"), text + "\n")


SPLITS = ("train", "val", "test")


@dataclass
class DataArtifacts:
    dims: FieldDims
    fingerprint: str
    train: EncodedDataset
    val: EncodedDataset
    test: EncodedDataset

    @classmethod
    def load(cls, outdir: str) -> "DataArtifacts":
        """The splits and their metadata; a split whose row count is not the
        one ``data_meta.txt`` records (one from another run) is refused."""
        with open(os.path.join(outdir, "data_meta.txt"), "r", encoding="utf-8") as f:
            meta = parse_kv(f.read())
        splits = {}
        for name in SPLITS:
            ds = EncodedDataset.load_npz(os.path.join(outdir, f"{name}.npz"))
            recorded = int(meta[f"rows_{name}"])
            if len(ds) != recorded:
                raise ValueError(f"the {name} split has {len(ds)} rows, but data_meta.txt "
                                 f"records {recorded}: it is not this run's split")
            splits[name] = ds
        return cls(dims=FieldDims.from_kv(meta), fingerprint=meta["fingerprint"], **splits)


def stage_preprocess(cfg: ExperimentConfig) -> DataArtifacts:
    """Read raw rows, split, build the vocabulary on train only, encode."""
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    rows = read_rows(cfg.resolve_path("data.path"), cfg.schema.delimiter)
    parts = split_rows(rows, cfg.split)
    for name, part in zip(SPLITS, parts):
        if not part:
            raise ValueError(f"the {name} split has 0 of {len(rows)} rows; "
                             "every split needs at least one row")
    vocab = FeatureVocabulary.build(parts[0], cfg.schema, cfg["data.min_count"])
    _write(os.path.join(outdir, "vocab.tsv"), vocab.text())
    datasets = [encode_rows(part, cfg.schema, vocab) for part in parts]
    for name, ds in zip(SPLITS, datasets):
        ds.save_npz(os.path.join(outdir, f"{name}.npz"))
    dims = FieldDims(vocab.sizes(), len(cfg.schema.numeric_columns))
    fingerprint = vocab.fingerprint()
    meta = [*dims.to_kv().items(), ("fingerprint", fingerprint),
            *((f"rows_{name}", len(ds)) for name, ds in zip(SPLITS, datasets))]
    _write(os.path.join(outdir, "data_meta.txt"), format_kv(meta))
    return DataArtifacts(dims, fingerprint, *datasets)


def _layout(outdir: str, kind: str) -> tuple[str, str]:
    """The ``kind`` ("teachers" or "students") checkpoint directory and the
    ``<kind>_meta.csv`` beside it that lists them."""
    return os.path.join(outdir, kind), os.path.join(outdir, f"{kind}_meta.csv")


META_FIELDS = ["model", "seed", "ckpt", "best_epoch", "seconds"]
RECORD_FIELDS = ["epoch", "loss", "monitor_value", "seconds", "stopped"]
# record columns that are not text
_TYPES = {"seed": int, "best_epoch": int, "seconds": float, "auc": float, "logloss": float}


def _read_records(path: str) -> list[dict]:
    """The rows of a ``*_meta.csv`` or ``runs.csv``, numeric columns typed."""
    with open(path, "r", newline="", encoding="utf-8") as f:
        return [{k: _TYPES.get(k, str)(v) for k, v in row.items()}
                for row in csv.DictReader(f)]


def _save_trained(directory: str, name: str, label: str, model: Model, seed: int,
                  record, fingerprint: str, extras=None) -> dict:
    """Write ``name``'s checkpoint and record CSV; return its meta row."""
    ckpt = os.path.join(directory, f"{name}.ckpt")
    persist.save(ckpt, model, seed=seed, epoch=record.best_epoch,
                 vocab_fingerprint=fingerprint, extras=extras)
    _write_csv(os.path.join(directory, f"{name}.record.csv"), RECORD_FIELDS,
               [{"epoch": e.epoch, "loss": e.loss, "monitor_value": e.monitor,
                 "seconds": e.seconds, "stopped": str(e.stopped).lower()}
                for e in record.epochs])
    return {"model": label, "seed": seed, "ckpt": ckpt,
            "best_epoch": record.best_epoch, "seconds": round(record.total_seconds, 3)}


def _train_and_save(cfg: ExperimentConfig, art: DataArtifacts, directory: str,
                    name: str, label: str, spec, seed: int, train_ds, val_ds) -> dict:
    """Train a fresh model on BCE with validation-AUC stopping, then save it."""
    model = Model(spec, art.dims, seed=seed)
    record = train_teacher(model, train_ds, cfg.hyper, seed=seed, val_data=val_ds)
    return _save_trained(directory, name, label, model, seed, record, art.fingerprint)


def stage_teachers_from_disk(cfg: ExperimentConfig) -> list[dict]:
    """Train the configured teacher ensemble (by default the one
    ``teacher.model``) and list it in ``teachers_meta.csv``. Mode M (the
    default) varies architectures/seeds on the shared split, mode D
    re-partitions train+val per teacher (same test set)."""
    art = DataArtifacts.load(cfg.output_dir)
    directory, meta_path = _layout(cfg.output_dir, "teachers")
    os.makedirs(directory, exist_ok=True)
    partitioned = cfg.get("ensemble.mode") == "D"
    pool = EncodedDataset.concatenate([art.train, art.val]) if partitioned else None
    entries = []
    for i, (name, spec, seed) in enumerate(cfg.teachers):
        train_ds, val_ds = art.train, art.val
        if partitioned:
            # fresh random split of the train+val pool at the original sizes;
            # the test set is untouched
            part_seed = cfg["ensemble.partition_seed"] + i
            perm = np.random.default_rng(part_seed).permutation(len(pool))
            cut = len(art.train)
            train_idx, val_idx = np.sort(perm[:cut]), np.sort(perm[cut:])
            with replacing(os.path.join(directory, f"{name}.partition.npz")) as f:
                np.savez(f, train=train_idx, val=val_idx)
            train_ds, val_ds = pool.subset(train_idx), pool.subset(val_idx)
        entries.append(_train_and_save(cfg, art, directory, name, f"teacher/{name}",
                                       spec, seed, train_ds, val_ds))
    _write_csv(meta_path, META_FIELDS, entries)
    return entries


def stage_distill(cfg: ExperimentConfig) -> list[dict]:
    """Train each seed's plain student (when reported) and KD student. The
    splits, the teachers and the merged train+val set are loaded or built
    once for every seed, and every check and teacher load comes before the
    first student is trained, so a missing or damaged teacher leaves no
    student file."""
    outdir = cfg.output_dir
    art = DataArtifacts.load(outdir)
    _, meta_path = _layout(outdir, "teachers")
    if not os.path.exists(meta_path):
        raise FileNotFoundError(f"no trained teachers found at {meta_path}; "
                                "run the teacher stage first")
    ckpts = [row["ckpt"] for row in _read_records(meta_path)]
    missing = [ckpt for ckpt in ckpts if not os.path.exists(ckpt)]
    if missing:
        raise FileNotFoundError(f"missing teacher checkpoints: {missing}")
    scheme = cfg["distill.scheme"]
    if scheme == COTRAIN and len(ckpts) != 1:  # teachers_meta.csv may predate cfg
        raise ValueError("co-train supports exactly one teacher")
    teachers = [persist.load(ckpt).build_model(expected_fingerprint=art.fingerprint)
                for ckpt in ckpts]

    stop_mode, kd_train, kd_val = VAL_AUC_MAX, art.train, art.val
    if cfg["distill.stop"] == "kd_loss":
        stop_mode, kd_val = KD_LOSS_MIN, None
        if scheme == PRETRAIN and cfg["distill.merge_val"]:
            kd_train = EncodedDataset.concatenate([art.train, art.val])
    directory, meta_path = _layout(outdir, "students")
    os.makedirs(directory, exist_ok=True)
    rows = []
    for seed in cfg["train.seeds"]:
        if cfg["report.include_plain_student"]:
            rows.append(_train_and_save(cfg, art, directory, f"{PLAIN_STUDENT}-s{seed}",
                                        PLAIN_STUDENT, cfg.student_spec, seed,
                                        art.train, art.val))
        student = Model(cfg.student_spec, art.dims, seed=seed)
        if scheme == COTRAIN:
            co_teacher = Model(teachers[0].spec, art.dims, seed=cfg["train.teacher_seed"])
            _, result = train_student_cotrain(co_teacher, student, cfg.distill, art.train,
                                              cfg.hyper, seed=seed)
        else:
            result = train_student_pretrain(student, teachers, cfg.distill, kd_train,
                                            cfg.hyper, seed=seed, val_data=kd_val,
                                            stop_mode=stop_mode)
        rows.append(_save_trained(directory, f"{KD_STUDENT}-s{seed}", KD_STUDENT, student,
                                  seed, result.record, art.fingerprint,
                                  {p.name: p.values for p in result.parts}))
    _write_csv(meta_path, META_FIELDS, rows)
    return rows


def stage_evaluate(cfg: ExperimentConfig) -> list[ReportRow]:
    """Load every checkpoint and score it on the held-out test split."""
    outdir = cfg.output_dir
    art = DataArtifacts.load(outdir)
    labels = art.test.labels
    rows: list[ReportRow] = []
    teacher_scores = []
    for kind in ("teachers", "students"):
        _, meta_path = _layout(outdir, kind)
        if not os.path.exists(meta_path):
            continue
        for entry in _read_records(meta_path):
            model = persist.load(entry["ckpt"]).build_model(
                expected_fingerprint=art.fingerprint)
            scores = predict_dataset(model, art.test)
            rows.append(ReportRow(entry["model"], entry["seed"], auc(scores, labels),
                                  logloss(scores, labels), entry["best_epoch"],
                                  entry["seconds"]))
            if entry["model"].startswith("teacher/"):
                teacher_scores.append(scores)
    if len(teacher_scores) >= 2:
        if cfg["report.ensemble_metric"] == "prediction_average":
            mean_scores = np.mean(teacher_scores, axis=0)
            rows.append(ReportRow(TEACHERS_AVG, 0, auc(mean_scores, labels),
                                  logloss(mean_scores, labels), 0, 0.0))
        else:
            t_rows = [r for r in rows if r.model.startswith("teacher/")]
            rows.append(ReportRow(TEACHERS_AVG, 0,
                                  float(np.mean([r.auc for r in t_rows])),
                                  float(np.mean([r.logloss for r in t_rows])), 0, 0.0))
    _write_csv(os.path.join(outdir, "runs.csv"), [f.name for f in fields(ReportRow)],
               [asdict(r) for r in rows])
    return rows


def stage_report(cfg: ExperimentConfig) -> ExperimentReport:
    outdir = cfg.output_dir
    runs = _read_records(os.path.join(outdir, "runs.csv"))
    report = ExperimentReport([ReportRow(**r) for r in runs], baseline=cfg["report.baseline"])
    _write_csv(os.path.join(outdir, "report.csv"), [f.name for f in fields(Aggregate)],
               [{**asdict(a), "auc_delta_permille": f"{a.auc_delta_permille:.4f}",
                 "logloss_delta_permille": f"{a.logloss_delta_permille:.4f}"}
                for a in report.aggregates()])
    _write(os.path.join(outdir, "report.txt"), report.text_table())
    return report


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the whole pipeline; exit state recorded in status.txt."""
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    _write_status(outdir, "running")
    try:
        for stage in STAGES:
            report = run_stage(stage, cfg)
    except StageError as err:
        _write_status(outdir, f"failed: {err.stage}")
        raise
    _write_status(outdir, "ok")
    return report

