"""Outside-in layer trace for the ctrkd benchmark.

Spans are recorded around the public callables of each ctrkd module, from
this file only: the wrappers replace the module or class attribute that
each caller looks up at call time, and ``Tracer.uninstall`` puts the
originals back. Nothing under ``src/`` knows about tracing. Spans stay in
memory and are written out when the run ends.

A span's self time is its duration minus the time its wrapped children
cover; time spent in ``Tracer.paused`` blocks is left out of both. Every
span also records the enclosing training call as its context:
``train_teacher.<model>`` or ``train_student_pretrain``.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

import ctrkd.data
import ctrkd.distill
import ctrkd.experiment
import ctrkd.models
import ctrkd.persist
import ctrkd.tensor
import ctrkd.train

# Spans that stand for a whole stage or training call: their metrics are
# inclusive times. Every other span reports its self time.
TRAIN_CALLS = ("train.train_teacher", "train.train_student_pretrain")
INCLUSIVE = ("experiment.",) + TRAIN_CALLS
# Inside these spans Model.forward/logit_values add no span of their own,
# so the whole inference counts as the enclosing span's self time.
INFERENCE = ("models.predict", "models.teacher_infer")

DISTILL_FNS = ("bce_loss", "cross_entropy", "soft_label_loss", "gate_weights",
               "ensemble_teacher_logit", "student_loss")
STAGES = {"stage_preprocess": "preprocess", "stage_teachers_from_disk": "teachers",
          "stage_distill": "distill", "stage_evaluate": "evaluate",
          "stage_report": "report"}
TEACHER_MODELS = ("deepfm", "dcn", "xdeepfm", "dnn")
CONTEXTS = tuple(f"train_teacher.{m}" for m in TEACHER_MODELS) + ("train_student_pretrain",)
BROKEN_DOWN = ("models.forward_train", "tensor.backward", "train.adam_step")
_DEEP_NAMES = {"fm": "deepfm", "cross": "dcn", "cin": "xdeepfm", "none": "dnn",
               "lr": "wide_deep"}


def model_name(model) -> str:
    """Zoo name of a model, read from its spec."""
    spec = model.spec
    return _DEEP_NAMES[spec.wide] if spec.deep else spec.wide


def bind(fn, args, kwargs) -> dict:
    """Arguments of one call by parameter name, defaults filled in."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self.batches = 0
        self.useful_rows = 0
        self.table_rows = 0

    # -- spans -------------------------------------------------------------
    def _open(self, name: str, **attrs) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {"id": self._next_id, "name": name,
                "parent": parent["id"] if parent else None, "run": self.run_id,
                "ctx": attrs.pop("ctx", parent["ctx"] if parent else ""),
                "child_s": 0.0, "paused_s": 0.0, **attrs}
        self._next_id += 1
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        duration = span["end"] - span["start"] - span["paused_s"]
        self._stack.pop()
        span["self_s"] = duration - span.pop("child_s")
        if self._stack:
            self._stack[-1]["child_s"] += duration
        self.spans.append(span)

    def _top(self) -> str:
        return self._stack[-1]["name"] if self._stack else ""

    def _call(self, name: str, fn, args, kwargs, **attrs):
        span = self._open(name, **attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    # -- wrapper factories ---------------------------------------------------
    def _plain(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _batches(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            vocab = self._stack[-1].get("vocab", ()) if self._stack else ()
            # embedding rows a batch touches, out of all rows of all tables
            offsets = np.cumsum((0,) + tuple(vocab[:-1]))
            touched = np.zeros(sum(vocab), dtype=bool)
            while True:
                span = self._open("data.batches.wait")
                try:
                    batch = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                self.batches += 1
                if vocab:
                    touched[:] = False
                    touched[(batch.cat + offsets).ravel()] = True
                    self.useful_rows += int(np.count_nonzero(touched))
                    self.table_rows += touched.size
                yield batch
        return wrapper

    def _train_call(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = bind(fn, args, kwargs)
            model = a["model"] if "model" in a else a["student"]
            ctx = (f"train_teacher.{model_name(model)}" if name == "train.train_teacher"
                   else "train_student_pretrain")
            span = self._open(name, ctx=ctx, rows=len(a["train_data"]),
                              teachers=len(a.get("teachers", ())),
                              vocab=model.dims.vocab_sizes if model.spec.needs_embeddings
                              else ())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            record = getattr(result, "record", result)
            span["epochs"] = len(record)
            span["epoch_s"] = [e.seconds for e in record.epochs]
            return result
        return wrapper

    def _predict(self, fn):
        @functools.wraps(fn)
        def wrapper(model, dataset, *args, **kwargs):
            return self._call("models.predict", fn, (model, dataset) + args, kwargs,
                              rows=len(dataset))
        return wrapper

    def _forward(self, fn):
        @functools.wraps(fn)
        def wrapper(model, cat, num, training=False, rng=None):
            if self._top() in INFERENCE:
                return fn(model, cat, num, training, rng)
            name = "models.forward_train" if training else "models.forward_eval"
            return self._call(name, fn, (model, cat, num, training, rng), {})
        return wrapper

    def _infer(self, fn):
        # frozen-teacher inference: logit/hint values asked for outside predict
        @functools.wraps(fn)
        def wrapper(model, cat, num):
            if self._top() in INFERENCE:
                return fn(model, cat, num)
            return self._call("models.teacher_infer", fn, (model, cat, num), {},
                              rows=len(cat))
        return wrapper

    def _graph_trace(self, fn):
        @functools.wraps(fn)
        def wrapper(cls, root):
            record = fn(cls, root)
            if self._top() == "tensor.backward":
                self._stack[-1]["nodes"] = len(record.nodes)
            return record
        return wrapper

    def _save(self, fn):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            span = self._open("persist.save")
            try:
                result = fn(path, *args, **kwargs)
            finally:
                self._close(span)
            span["bytes"] = os.path.getsize(path)
            return result
        return wrapper

    # -- install / uninstall -----------------------------------------------
    def _replace(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every traced callable at the attribute its callers look up."""
        train, experiment, data = ctrkd.train, ctrkd.experiment, ctrkd.data
        plain = functools.partial(functools.partial, self._plain)
        for mod in (train, experiment):
            self._replace(mod, "predict_dataset", self._predict)
            self._replace(mod, "auc", plain("metrics.auc"))
            self._replace(mod, "logloss", plain("metrics.logloss"))
            for fn in ("train_teacher", "train_student_pretrain"):
                self._replace(mod, fn, functools.partial(self._train_call, f"train.{fn}"))
        self._replace(train, "batches", self._batches)
        for fn in ("read_rows", "split_rows", "encode_rows"):
            self._replace(experiment, fn, plain(f"data.{fn}"))
        for fn, stage in STAGES.items():
            self._replace(experiment, fn, plain(f"experiment.{stage}"))
        self._replace(data.FeatureVocabulary, "build", plain("data.vocab_build"))
        self._replace(data.EncodedDataset, "save_npz", plain("data.save_npz"))
        self._replace(data.EncodedDataset, "load_npz", plain("data.load_npz"))
        self._replace(ctrkd.persist, "save", self._save)
        self._replace(ctrkd.persist, "load", plain("persist.load"))
        model = ctrkd.models.Model
        self._replace(model, "__init__", plain("models.init"))
        self._replace(model, "forward", self._forward)
        self._replace(model, "logit_values", self._infer)
        self._replace(model, "hint_values", self._infer)
        self._replace(ctrkd.tensor.Tensor, "backward", plain("tensor.backward"))
        self._replace(ctrkd.tensor.ComputationRecord, "trace", self._graph_trace)
        self._replace(train.Adam, "step", plain("train.adam_step"))
        self._replace(train.EarlyStopMonitor, "update", plain("train.early_stop_update"))
        for fn in DISTILL_FNS:
            self._replace(ctrkd.distill, fn, plain(f"distill.{fn}"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run a block with the original, untraced callables; its time is
        left out of every open span."""
        self.uninstall()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            gap = time.perf_counter() - t0
            for span in self._stack:
                span["paused_s"] += gap
            self.install()

    # -- results -------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        time_s = defaultdict(float)
        calls = defaultdict(int)
        by_ctx = defaultdict(float)
        rows = defaultdict(int)
        for s in self.spans:
            name = s["name"]
            took = (s["end"] - s["start"] - s["paused_s"] if name.startswith(INCLUSIVE)
                    else s["self_s"])
            time_s[name] += took
            calls[name] += 1
            by_ctx[name, s["ctx"]] += took
            rows[name] += s.get("rows", 0)
        spans = {name: [s for s in self.spans if s["name"] == name]
                 for name in ("tensor.backward", "persist.save",
                              "train.train_teacher", "train.train_student_pretrain")}

        out: dict[str, float] = {"data.batches.wait_s": time_s["data.batches.wait"]}
        for fn in ("read_rows", "split_rows", "vocab_build", "encode_rows",
                   "save_npz", "load_npz"):
            out[f"data.{fn}_s"] = time_s[f"data.{fn}"]
        out["data.load_npz.calls"] = calls["data.load_npz"]
        out["models.init_s"] = time_s["models.init"]
        out["models.init.calls"] = calls["models.init"]
        for part in ("forward_train", "forward_eval", "teacher_infer", "predict"):
            out[f"models.{part}_s"] = time_s[f"models.{part}"]
        # rows inferred per (teacher, training row): 1 means no row is recomputed
        distinct = sum(s["rows"] * s["teachers"]
                       for s in spans["train.train_student_pretrain"])
        out["models.teacher_infer.rows"] = rows["models.teacher_infer"]
        out["models.teacher_infer.rows_per_distinct"] = (
            rows["models.teacher_infer"] / distinct if distinct else 0.0)
        out["models.predict.rows"] = rows["models.predict"]
        backward = spans["tensor.backward"]
        out["tensor.backward_s"] = time_s["tensor.backward"]
        out["tensor.backward.calls"] = len(backward)
        out["tensor.backward.nodes_per_call"] = (
            sum(s["nodes"] for s in backward) / len(backward) if backward else 0.0)
        for fn in DISTILL_FNS:
            out[f"distill.{fn}_s"] = time_s[f"distill.{fn}"]
            out[f"distill.{fn}.calls"] = calls[f"distill.{fn}"]
        out["train.adam_step_s"] = time_s["train.adam_step"]
        out["train.early_stop_update_s"] = time_s["train.early_stop_update"]
        out["train.embedding_grad_useful_ratio"] = (
            self.useful_rows / self.table_rows if self.table_rows else 0.0)
        for model in TEACHER_MODELS:
            ctx = f"train_teacher.{model}"
            runs = [s for s in spans["train.train_teacher"] if s["ctx"] == ctx]
            epochs = [e for s in runs for e in s["epoch_s"]]
            out[f"train.train_teacher_s.{model}"] = by_ctx["train.train_teacher", ctx]
            out[f"train.epoch_s.{model}"] = float(np.median(epochs)) if epochs else 0.0
        out["train.train_student_pretrain_s"] = time_s["train.train_student_pretrain"]
        for name in BROKEN_DOWN:
            for ctx in CONTEXTS:
                out[f"{name}_s.{ctx}"] = by_ctx[name, ctx]
        out["metrics.auc_s"] = time_s["metrics.auc"]
        out["metrics.logloss_s"] = time_s["metrics.logloss"]
        out["persist.save_s"] = time_s["persist.save"]
        out["persist.save.calls"] = calls["persist.save"]
        out["persist.load_s"] = time_s["persist.load"]
        out["persist.load.calls"] = calls["persist.load"]
        out["persist.bytes_written"] = sum(s["bytes"] for s in spans["persist.save"])
        for stage in STAGES.values():
            out[f"experiment.{stage}_s"] = time_s[f"experiment.{stage}"]
        return out

    def counts(self) -> dict[str, int]:
        """Work counts seen by the wrappers; they must equal the untraced ones."""
        runs = [s for s in self.spans if s["name"] in TRAIN_CALLS]
        return {
            "epochs": sum(s["epochs"] for s in runs),
            "rows_trained": sum(s["epochs"] * s["rows"] for s in runs),
            "batches": self.batches,
            "backward_calls": sum(s["name"] == "tensor.backward" for s in self.spans),
            "teacher_rows_inferred": sum(s.get("rows", 0) for s in self.spans
                                         if s["name"] == "models.teacher_infer"),
        }

    def write(self, f) -> None:
        """Append every span as one JSON line to an open text file."""
        for s in self.spans:
            f.write(json.dumps({k: v for k, v in s.items() if k != "vocab"}) + "\n")
