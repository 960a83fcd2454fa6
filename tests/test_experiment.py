import csv
import os
import re
from pathlib import Path

import numpy as np
import pytest

from ctrkd import cli, experiment, persist
from ctrkd.config import ConfigError, load_config, parse_config_text
from ctrkd.data import EncodedDataset
from ctrkd.models import Model
from ctrkd.report import ReportRow
from ctrkd.synth import SyntheticSpec, write_synthetic_file
from ctrkd.train import KD_LOSS_MIN, train_student_cotrain, train_student_pretrain

TINY = SyntheticSpec(n_cat=4, vocab=12, n_num=2, latent_dim=2)


def tiny_config(tmp_path, extra="", rows=600, seeds="1"):
    data = tmp_path / "clicks.txt"
    write_synthetic_file(data, rows, seed=3, spec=TINY)
    text = f"""
data.path = clicks.txt
data.numeric_columns = 1-2
data.categorical_columns = 3-6
data.min_count = 2
output.dir = out
teacher.model = fm
teacher.embedding_dim = 4
student.model = dnn
student.embedding_dim = 4
student.hidden = 8
train.batch_size = 200
train.max_epochs = 2
train.patience = 3
train.seeds = {seeds}
distill.tau = 2.0
distill.beta = 0.5
distill.gamma = 0.5
{extra}
"""
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def load_cfg(path):
    return parse_config_text(path.read_text(), base_dir=str(path.parent))


def meta_path(cfg, kind):
    return experiment._layout(cfg.output_dir, kind)[1]


def test_preprocess_writes_artifacts(tmp_path):
    cfg = load_cfg(tiny_config(tmp_path))
    art = experiment.stage_preprocess(cfg)
    out = tmp_path / "out"
    for name in ("vocab.tsv", "train.npz", "val.npz", "test.npz", "data_meta.txt"):
        assert (out / name).exists()
    assert len(art.train) + len(art.val) + len(art.test) == 600
    reloaded = experiment.DataArtifacts.load(str(out))
    assert reloaded.dims == art.dims
    assert reloaded.fingerprint == art.fingerprint


def test_a_split_from_another_run_is_refused(tmp_path):
    ours, other = tmp_path / "ours", tmp_path / "other"
    ours.mkdir()
    other.mkdir()
    cfg = load_cfg(tiny_config(ours))
    art = experiment.stage_preprocess(cfg)
    other_art = experiment.stage_preprocess(load_cfg(tiny_config(other, rows=500)))
    assert len(other_art.val) != len(art.val)
    (other / "out" / "val.npz").replace(ours / "out" / "val.npz")
    message = f"the val split has {len(other_art.val)} rows, but data_meta.txt records {len(art.val)}"
    with pytest.raises(ValueError, match=message):
        experiment.DataArtifacts.load(cfg.output_dir)
    with pytest.raises(experiment.StageError, match=message):
        experiment.run_stage("teachers", cfg)
    assert not (ours / "out" / "teachers").exists()


def test_run_produces_report_with_expected_cardinality(tmp_path):
    cfg = load_cfg(tiny_config(tmp_path, seeds="1,2,3"))
    report = experiment.run(cfg)
    by_model = {}
    for row in report.rows:
        by_model.setdefault(row.model, []).append(row)
    assert len(by_model["student_plain"]) == 3
    assert len(by_model["student_kd"]) == 3
    assert len(by_model["teacher/fm"]) == 1
    out = tmp_path / "out"
    runs = (out / "runs.csv").read_text().splitlines()
    assert runs[0] == "model,seed,auc,logloss,best_epoch,seconds"
    assert len(runs) == 1 + len(report.rows)
    assert (out / "report.csv").exists()
    assert (out / "report.txt").exists()
    assert (out / "status.txt").read_text().strip() == "ok"
    agg = {a.model: a for a in report.aggregates()}
    assert agg["student_plain"].auc_delta_permille == 0.0


CSV_COLUMNS = {
    "teachers_meta.csv": "model,seed,ckpt,best_epoch,seconds",
    "students_meta.csv": "model,seed,ckpt,best_epoch,seconds",
    "runs.csv": "model,seed,auc,logloss,best_epoch,seconds",
    "report.csv": "model,n_seeds,auc_mean,auc_std,logloss_mean,logloss_std,"
                  "auc_delta_permille,logloss_delta_permille",
    ".record.csv": "epoch,loss,monitor_value,seconds,stopped",
}


def test_every_text_artifact_ends_its_lines_in_one_newline(tmp_path):
    assert cli.main(["run", "-c", str(tiny_config(tmp_path))]) == 0
    out = tmp_path / "out"
    texts = [p for p in sorted(out.rglob("*"))
             if p.is_file() and p.suffix not in (".npz", ".ckpt")]
    assert {p.name for p in texts} >= {"status.txt", "data_meta.txt", "vocab.tsv",
                                       "report.txt", *CSV_COLUMNS} - {".record.csv"}
    records = [p for p in texts if p.name.endswith(".record.csv")]
    assert len(records) == 3  # the teacher, the plain and the KD student
    for path in texts:
        raw = path.read_bytes()
        assert b"\r" not in raw, path.name
        assert raw.endswith(b"\n"), path.name
        if path.suffix != ".csv":
            continue
        kind = ".record.csv" if path in records else path.name
        header, *lines = raw.decode("utf-8").splitlines()
        assert header == CSV_COLUMNS[kind]
        with open(path, newline="", encoding="utf-8") as f:
            assert [list(row.values()) for row in csv.DictReader(f)] == \
                [line.split(",") for line in lines]
    for kind in ("teachers_meta.csv", "students_meta.csv", "runs.csv"):
        rows = experiment._read_records(str(out / kind))
        assert rows and all(isinstance(r["seed"], int) for r in rows)


def test_run_twice_is_deterministic(tmp_path):
    cfg = load_cfg(tiny_config(tmp_path, seeds="1,2"))
    r1 = experiment.run(cfg)
    r2 = experiment.run(cfg)
    assert [(w.model, w.seed, w.auc, w.logloss) for w in r1.rows] == \
           [(w.model, w.seed, w.auc, w.logloss) for w in r2.rows]


def test_distill_preflight_catches_missing_teachers(tmp_path):
    cfg = load_cfg(tiny_config(tmp_path))
    experiment.stage_preprocess(cfg)
    with pytest.raises(experiment.StageError) as err:
        experiment.run_stage("distill", cfg)
    assert err.value.stage == "distill"
    # now train teachers but delete the checkpoint behind the meta file
    experiment.stage_teachers_from_disk(cfg)
    ckpt = experiment._read_records(meta_path(cfg, "teachers"))[0]["ckpt"]
    os.remove(ckpt)
    with pytest.raises(experiment.StageError):
        experiment.run_stage("distill", cfg)
    # no student outputs were produced by either failed attempt
    assert not os.path.exists(meta_path(cfg, "students"))


def test_truncated_teacher_fails_distill_before_any_student_is_written(tmp_path):
    cfg = load_cfg(tiny_config(tmp_path))
    experiment.stage_preprocess(cfg)
    experiment.stage_teachers_from_disk(cfg)
    ckpt = experiment._read_records(meta_path(cfg, "teachers"))[0]["ckpt"]
    data = Path(ckpt).read_bytes()
    Path(ckpt).write_bytes(data[:len(data) // 2])
    with pytest.raises(experiment.StageError, match="stage 'distill'"):
        experiment.run_stage("distill", cfg)
    students, _ = experiment._layout(cfg.output_dir, "students")
    assert not os.path.exists(students) or os.listdir(students) == []
    assert not os.path.exists(meta_path(cfg, "students"))


def test_failed_stage_flags_status(tmp_path):
    cfg_path = tiny_config(tmp_path)
    cfg = load_cfg(cfg_path)
    os.remove(tmp_path / "clicks.txt")
    with pytest.raises(experiment.StageError) as err:
        experiment.run(cfg)
    assert err.value.stage == "preprocess"
    assert (tmp_path / "out" / "status.txt").read_text().startswith("failed: preprocess")


def test_cli_run_refuses_an_empty_split_before_any_teacher(tmp_path, capsys):
    path = tiny_config(tmp_path, extra="data.split_ratios = 0.9,0.1,0.0")
    assert cli.main(["run", "-c", str(path)]) == 1
    assert "the test split has 0 of 600 rows" in capsys.readouterr().err
    out = tmp_path / "out"
    assert (out / "status.txt").read_text().strip() == "failed: preprocess"
    assert not (out / "teachers").exists()
    assert not (out / "vocab.tsv").exists()


def test_default_teacher_stage_is_mode_m(tmp_path):
    # no ensemble key at all trains what ensemble.mode = M alone trains
    outputs = []
    for name, extra in (("default", ""), ("mode_m", "ensemble.mode = M\n")):
        (tmp_path / name).mkdir()
        cfg = load_cfg(tiny_config(tmp_path / name, extra=extra))
        experiment.stage_preprocess(cfg)
        experiment.stage_teachers_from_disk(cfg)
        meta = experiment._read_records(meta_path(cfg, "teachers"))
        outputs.append([({**row, "ckpt": os.path.relpath(row["ckpt"], cfg.output_dir),
                          "seconds": None}, Path(row["ckpt"]).read_bytes())
                        for row in meta])
    assert [row["model"] for row, _ in outputs[0]] == ["teacher/fm"]
    assert outputs[0] == outputs[1]


def test_make_ensemble_mode_m_architectures(tmp_path):
    # the 3T combination: three architectures over the same split
    cfg = load_cfg(tiny_config(tmp_path, extra=(
        "ensemble.mode = M\nensemble.teachers = deepfm,dcn,xdeepfm\n"
        "teacher.hidden = 6\nteacher.cross_layers = 2\nteacher.cin_maps = 3\n")))
    experiment.stage_preprocess(cfg)
    entries = experiment.stage_teachers_from_disk(cfg)
    assert [e["model"] for e in entries] == \
        ["teacher/deepfm", "teacher/dcn", "teacher/xdeepfm"]
    for e in entries:
        assert os.path.exists(e["ckpt"])
    specs = [persist.load(e["ckpt"]).spec for e in entries]
    assert [s.wide for s in specs] == ["fm", "cross", "cin"]


def test_make_ensemble_mode_m_seed_multiplier(tmp_path):
    cfg = load_cfg(tiny_config(tmp_path, extra=(
        "ensemble.mode = M\nensemble.teachers = fm\nensemble.seeds = 5,6\n")))
    experiment.stage_preprocess(cfg)
    entries = experiment.stage_teachers_from_disk(cfg)
    assert len(entries) == 2
    a = persist.load(entries[0]["ckpt"])
    b = persist.load(entries[1]["ckpt"])
    assert a.spec == b.spec
    diffs = [not np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors]
    assert any(diffs), "different seeds must give different parameters"


def test_make_ensemble_mode_d_partitions(tmp_path):
    cfg = load_cfg(tiny_config(tmp_path, extra=(
        "ensemble.mode = D\nensemble.partitions = 3\n")))
    art = experiment.stage_preprocess(cfg)
    entries = experiment.stage_teachers_from_disk(cfg)
    assert len(entries) == 3
    parts = []
    for i in range(3):
        with np.load(tmp_path / "out" / "teachers" / f"fm-p{i}.partition.npz") as z:
            parts.append((set(z["train"].tolist()), set(z["val"].tolist())))
    pool_size = len(art.train) + len(art.val)
    for train_idx, val_idx in parts:
        assert train_idx.isdisjoint(val_idx)
        assert len(train_idx | val_idx) == pool_size  # test rows never enter the pool
    for i in range(3):
        for j in range(i + 1, 3):
            assert parts[i][0] != parts[j][0], "training partitions must differ"


def test_make_ensemble_mode_d_needs_two_partitions(tmp_path):
    with pytest.raises(ConfigError, match="ensemble.partitions >= 2"):
        load_cfg(tiny_config(tmp_path, extra="ensemble.mode = D\nensemble.partitions = 1\n"))


def _text_artifact(tmp_path):
    path = tmp_path / "status.txt"
    return path, lambda: experiment._write(str(path), "ok\n")


def _split(tmp_path):
    path = tmp_path / "train.npz"
    ds = EncodedDataset(np.zeros((3, 1)), np.zeros((3, 0)), np.zeros(3))
    return path, lambda: ds.save_npz(path)


def _partition(tmp_path):
    # the mode-D teacher stage writes partition 0 before it trains anything
    cfg = load_cfg(tiny_config(tmp_path, extra="ensemble.mode = D\nensemble.partitions = 2\n"))
    experiment.stage_preprocess(cfg)
    (tmp_path / "out" / "teachers").mkdir()
    path = tmp_path / "out" / "teachers" / "fm-p0.partition.npz"
    return path, lambda: experiment.stage_teachers_from_disk(cfg)


@pytest.mark.parametrize("prepare", [_text_artifact, _split, _partition],
                         ids=["text", "split", "partition"])
def test_a_failed_write_keeps_the_previous_artifact(tmp_path, monkeypatch, prepare):
    path, write = prepare(tmp_path)
    path.write_bytes(b"previous")
    before = sorted(os.listdir(path.parent))

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write()
    assert path.read_bytes() == b"previous"
    assert sorted(os.listdir(path.parent)) == before  # no temporary file is left


def test_evaluate_adds_teacher_average_row(tmp_path):
    cfg = load_cfg(tiny_config(tmp_path, extra=(
        "ensemble.mode = M\nensemble.teachers = fm,lr\n")))
    experiment.run(cfg)
    rows = experiment._read_records(os.path.join(cfg.output_dir, "runs.csv"))
    names = [r["model"] for r in rows]
    assert "teachers_avg" in names
    t_rows = [r for r in rows if r["model"].startswith("teacher/")]
    avg = next(r for r in rows if r["model"] == "teachers_avg")
    assert avg["auc"] == pytest.approx(np.mean([r["auc"] for r in t_rows]), abs=1e-12)


def test_prediction_average_mode(tmp_path):
    cfg = load_cfg(tiny_config(tmp_path, extra=(
        "ensemble.mode = M\nensemble.teachers = fm,lr\n"
        "report.ensemble_metric = prediction_average\n")))
    experiment.run(cfg)
    rows = experiment._read_records(os.path.join(cfg.output_dir, "runs.csv"))
    avg = next(r for r in rows if r["model"] == "teachers_avg")
    t_rows = [r for r in rows if r["model"].startswith("teacher/")]
    # averaging predictions is not the same as averaging metrics
    assert avg["auc"] != pytest.approx(np.mean([r["auc"] for r in t_rows]), abs=1e-12)


@pytest.mark.parametrize("overrides, prefix", [
    ({"ensemble.mode": "M", "ensemble.teachers": "fm,xdeepfm", "distill.gating": "true"},
     "gate."),
    ({"distill.method": "hint", "distill.beta": "0.001", "distill.gamma": "1"}, "hintproj."),
    ({"distill.scheme": "cotrain", "distill.method": "hint", "distill.beta": "0.001",
      "distill.gamma": "1"}, "hintproj."),
], ids=["gated-fm-xdeepfm", "hint", "cotrain-hint"])
def test_kd_student_checkpoint_keeps_the_trained_extras(tmp_path, overrides, prefix):
    cfg = load_config(tiny_config(tmp_path), overrides)
    experiment.run(cfg)
    outdir = cfg.output_dir
    art = experiment.DataArtifacts.load(outdir)
    teachers = [persist.load(row["ckpt"]).build_model()
                for row in experiment._read_records(meta_path(cfg, "teachers"))]
    student = Model(cfg.student_spec, art.dims, seed=1)
    if cfg["distill.scheme"] == "cotrain":
        # the distill stage's cotrain run, repeated: a fresh teacher beside
        # the student on the train split
        co_teacher = Model(teachers[0].spec, art.dims, seed=cfg["train.teacher_seed"])
        _, result = train_student_cotrain(co_teacher, student, cfg.distill, art.train,
                                          cfg.hyper, seed=1)
    else:
        # the distill stage's pretrain run, repeated: KD-loss stop on merged
        # train+val
        result = train_student_pretrain(student, teachers, cfg.distill,
                                        EncodedDataset.concatenate([art.train, art.val]),
                                        cfg.hyper, seed=1, stop_mode=KD_LOSS_MIN)
    trained = result.parts
    assert trained, "the run trains no gate or projector"
    ckpt = persist.load(os.path.join(outdir, "students", "student_kd-s1.ckpt"))
    assert sorted(name for name in ckpt.tensors if name.startswith(prefix)) == \
        sorted(p.name for p in trained)
    for p in trained:
        assert ckpt.tensors[p.name].tobytes() == p.values.tobytes(), p.name
    loaded = ckpt.build_model(expected_fingerprint=art.fingerprint)
    assert all(loaded.state()[k].tobytes() == v.tobytes() for k, v in student.state().items())
    runs = experiment._read_records(os.path.join(outdir, "runs.csv"))
    evaluated = {row["model"] for row in runs}
    assert {"student_kd", *(f"teacher/{t}" for t in
                            overrides.get("ensemble.teachers", "fm").split(","))} <= evaluated


def test_cotrain_scheme_through_pipeline(tmp_path):
    cfg = load_cfg(tiny_config(tmp_path, extra="distill.scheme = cotrain\n"))
    report = experiment.run(cfg)
    assert any(r.model == "student_kd" for r in report.rows)


def test_cotrain_with_two_teachers_fails_before_any_student_is_trained(tmp_path):
    # parse time refuses a cotrain config with two teachers, so the two come
    # from a pretrain config that wrote the same output directory first
    pretrain = load_cfg(tiny_config(tmp_path, extra=(
        "ensemble.mode = M\nensemble.teachers = fm,lr\n")))
    experiment.stage_preprocess(pretrain)
    experiment.stage_teachers_from_disk(pretrain)
    cfg = load_cfg(tiny_config(tmp_path, extra="distill.scheme = cotrain\n"))
    with pytest.raises(experiment.StageError, match="exactly one teacher"):
        experiment.run_stage("distill", cfg)
    students, _ = experiment._layout(cfg.output_dir, "students")
    assert not os.path.exists(students) or os.listdir(students) == []


def test_cli_full_cycle(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    for verb in ("preprocess", "train-teacher", "distill", "evaluate", "report"):
        assert cli.main([verb, "-c", str(cfg_path)]) == 0, verb
    out = capsys.readouterr().out
    assert "student_kd" in out
    assert "baseline" in out


def test_cli_verbs_print_pinned_lines(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    out = str(tmp_path / "out")

    def verb(*argv):
        assert cli.main([argv[0], "-c", str(cfg_path), *argv[1:]]) == 0, argv
        return capsys.readouterr().out.splitlines()

    [encoded] = verb("preprocess")
    sizes = re.fullmatch(r"encoded (\d+)/(\d+)/(\d+) rows \(train/val/test\) into (.+)",
                         encoded)
    assert sum(map(int, sizes.groups()[:3])) == 600 and sizes[4] == out
    # the two "trained" formats differ: a teacher's seed is in parentheses
    teacher = [f"trained teacher/fm (seed 100) -> {out}/teachers/fm.ckpt"]
    assert verb("train-teacher") == teacher
    assert verb("make-ensemble", "--set", "ensemble.mode=M") == teacher
    assert verb("distill") == [f"trained {m} seed 1 -> {out}/students/{m}-s1.ckpt"
                               for m in ("student_plain", "student_kd")]
    scored = [re.fullmatch(r"(\S+) seed (\d+): auc=0\.\d{4} logloss=\d\.\d{4}", line)
              for line in verb("evaluate")]
    assert [m.groups() for m in scored] == \
        [("teacher/fm", "100"), ("student_plain", "1"), ("student_kd", "1")]
    table = verb("report")
    assert table == (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert table[0].split() == ["model", "seeds", "AUC", "(mean+/-std)", "logloss",
                                "(mean+/-std)", "dAUC", "permille", "dLL", "permille"]
    assert [line.split()[0] for line in table[2:-1]] == \
        ["teacher/fm", "student_plain", "student_kd"]
    assert table[-1] == "* baseline; deltas are (model - baseline) x 1000"
    assert verb("run") == table


def test_records_read_back_as_written(tmp_path):
    cfg = load_cfg(tiny_config(tmp_path))
    experiment.stage_preprocess(cfg)
    teachers = experiment.stage_teachers_from_disk(cfg)
    students = experiment.stage_distill(cfg)
    runs = experiment.stage_evaluate(cfg)
    assert experiment._read_records(meta_path(cfg, "teachers")) == teachers
    assert experiment._read_records(meta_path(cfg, "students")) == students
    assert [ReportRow(**r) for r in experiment._read_records(
        os.path.join(cfg.output_dir, "runs.csv"))] == runs


def test_cli_run_and_overrides(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    # a key repeated across --set flags takes its last value
    assert cli.main(["run", "-c", str(cfg_path), "--set", "train.seeds=1,1",
                     "--set", " train.seeds = 4 "]) == 0
    meta = experiment._read_records(str(tmp_path / "out" / "students_meta.csv"))
    assert {r["seed"] for r in meta} == {4}


def test_evaluate_after_train_teacher_scores_the_teachers_only(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    for verb in ("preprocess", "train-teacher", "evaluate"):
        assert cli.main([verb, "-c", str(cfg_path)]) == 0, verb
    assert not (tmp_path / "out" / "students_meta.csv").exists()
    runs = experiment._read_records(str(tmp_path / "out" / "runs.csv"))
    assert [(r["model"], r["seed"]) for r in runs] == [("teacher/fm", 100)]
    assert capsys.readouterr().out.splitlines()[-1].startswith("teacher/fm seed 100: auc=")


def test_cli_error_paths(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    assert cli.main(["run", "-c", str(tmp_path / "missing.cfg")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert cli.main(["distill", "-c", str(cfg_path)]) == 1  # no teachers yet
    assert cli.main(["run", "-c", str(cfg_path), "--set", "data.format=parquet"]) == 2
    assert cli.main(["make-ensemble", "-c", str(cfg_path)]) == 2  # no ensemble.mode
    err = capsys.readouterr().err
    assert "stage 'distill'" in err
