import pytest

from ctrkd import cli
from ctrkd.config import (ConfigError, ExperimentConfig, format_kv, load_config,
                          parse_config_text, parse_kv)
from ctrkd.data import RandomRatioSplit, SequentialSplit
from ctrkd.synth import write_synthetic_file


MINIMAL = """
# toy experiment
data.path = data.txt
data.numeric_columns = 1-2
data.categorical_columns = 3-8
output.dir = out
"""


def test_parse_minimal_with_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg["data.min_count"] == 10
    assert cfg["train.batch_size"] == 2000
    assert cfg["train.lr"] == 0.001
    assert cfg["distill.scheme"] == "pretrain"
    schema = cfg.schema
    assert len(schema.numeric_columns) == 2
    assert len(schema.categorical_fields) == 6


def test_kv_codec_rules():
    text = "  # comment\n\nb =  2 \na=x = y\nempty =\n"
    assert parse_kv(text) == {"b": "2", "a": "x = y", "empty": ""}
    pairs = [("z", "1"), ("a", ""), ("m", "p q")]
    assert format_kv(pairs) == "z = 1\na = \nm = p q\n"  # given order, no sorting
    assert list(parse_kv(format_kv(pairs)).items()) == pairs
    with pytest.raises(ConfigError, match="line 3: duplicate key 'a'"):
        parse_kv("a = 1\n\na = 2\n")
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        parse_kv("a = 1\nno equals sign\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\ntrain.warp_speed = 9\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\ndata.path = twice.txt\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\ntrain.batch_size = many\n")
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\ndistill.gating = maybe\n")


@pytest.mark.parametrize("line", ["data.label_column = -1",
                                  "data.split = sequential\ndata.day_column = -1\n"
                                  "data.train_days = 2"], ids=["label", "day"])
def test_negative_column_numbers_rejected(line):
    with pytest.raises(ConfigError, match="bad value for data.(label|day)_column"):
        parse_config_text(MINIMAL + line + "\n")


@pytest.mark.parametrize("key,value", [("lr", "-0.01"), ("lr", "nan"), ("batch_size", "0"),
                                       ("max_epochs", "-1"), ("patience", "0"),
                                       ("l2_embedding", "-1"), ("kd_monitor_rows", "0")])
def test_bad_train_settings_fail_at_parse_time(key, value):
    with pytest.raises(ConfigError, match=f"^train.{key} must be"):
        parse_config_text(MINIMAL + f"\ntrain.{key} = {value}\n")


def test_distill_weights_validated_at_parse_time():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\ndistill.beta = 0.9\ndistill.gamma = 0.9\n")


def test_split_strategies():
    cfg = parse_config_text(MINIMAL)
    assert cfg.split == RandomRatioSplit((0.8, 0.1, 0.1), 2020)
    cfg = parse_config_text(MINIMAL + "\ndata.split = sequential\n"
                            "data.day_column = 9\ndata.train_days = 7\n")
    assert cfg.split == SequentialSplit(9, 7)
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\ndata.split = sequential\n")


@pytest.mark.parametrize("split", ["data.split_ratios = 0.5,0.5,0.5",
                                   "data.split_ratios = 0.5,0.5",
                                   "data.split_ratios = nan,0.5,0.5",
                                   "data.split_ratios = 0.5,0.5,nan",
                                   "data.split_ratios = inf,0.5,-inf",
                                   "data.split = sequential\ndata.train_days = 0\n"
                                   "data.day_column = 1",
                                   "data.split = sequential"],
                         ids=["ratio-sum", "two-ratios", "nan-ratio", "nan-sum", "inf-ratios",
                              "no-train-day", "no-day-column"])
def test_bad_split_settings_fail_at_parse_time(tmp_path, split):
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + split + "\n")
    (tmp_path / "data.txt").write_text("1\t0.5\t2\ta\tb\tc\td\te\tf\n" * 20)
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL + split + "\n")
    assert cli.main(["preprocess", "-c", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_model_specs_from_config():
    cfg = parse_config_text(MINIMAL + "\nteacher.model = dcn\nteacher.cross_layers = 4\n"
                            "student.hidden = 32,16\n")
    [(name, teacher, seed)] = cfg.teachers
    assert (name, seed) == ("dcn", 100)
    assert teacher.wide == "cross" and teacher.cross_layers == 4
    student = cfg.student_spec
    assert student.deep == (32, 16) and student.wide == "none"


def test_criteo_recipe_defaults():
    cfg = parse_config_text("data.path = x\ndata.format = criteo\noutput.dir = o\n")
    schema = cfg.schema
    assert len(schema.numeric_columns) == 13
    assert len(schema.categorical_fields) == 26
    assert schema.delimiter == "\t"
    assert cfg["data.min_count"] == 10
    assert cfg["teacher.embedding_dim"] == 20
    ratios = cfg["data.split_ratios"]
    assert ratios[0] == pytest.approx(5 / 7)


def test_avazu_recipe_defaults():
    cfg = parse_config_text("data.path = x\ndata.format = avazu\noutput.dir = o\n")
    schema = cfg.schema
    assert len(schema.categorical_fields) == 22
    assert len(schema.numeric_columns) == 0
    assert schema.delimiter == ","
    assert schema.label_column == 1
    assert cfg["data.min_count"] == 5
    assert cfg["teacher.embedding_dim"] == 40
    assert cfg["data.split_ratios"] == (0.8, 0.1, 0.1)


def test_recipe_keys_can_be_overridden():
    cfg = parse_config_text("data.path = x\ndata.format = criteo\n"
                            "data.min_count = 99\noutput.dir = o\n")
    assert cfg["data.min_count"] == 99


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL)
    cfg = load_config(path, {"train.batch_size": "128"})
    assert cfg["train.batch_size"] == 128
    # relative paths resolve against the config directory
    assert cfg.resolve_path("data.path") == str(tmp_path / "data.txt")


def test_overrides_are_validated_with_the_file_not_after_it(tmp_path):
    # the file alone breaks beta + gamma = 1; the override mends the sum
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL + "\ndistill.beta = 0.9\ndistill.gamma = 0.9\n")
    with pytest.raises(ConfigError):
        load_config(path)
    cfg = load_config(path, {"distill.gamma": "0.1"})
    assert (cfg["distill.beta"], cfg["distill.gamma"]) == (0.9, 0.1)


def test_invalid_choices_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\ndata.format = parquet\n")
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\nteacher.model = resnet\n")
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\nensemble.mode = X\n")
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\ntrain.seeds = -3\n")
    for bad in ("data.delimiter = pipe", "data.split = daily", "distill.stop = never",
                "report.ensemble_metric = median_average", "distill.method = attention",
                "distill.scheme = online"):
        with pytest.raises(ConfigError, match="expected one of"):
            parse_config_text(MINIMAL + f"\n{bad}\n")


def test_hint_with_beta_zero_cannot_stop_on_kd_loss():
    hint = MINIMAL + "\ndistill.method = hint\ndistill.beta = 0\ndistill.gamma = 1\n"
    with pytest.raises(ConfigError, match="distill.stop = val_auc"):
        parse_config_text(hint)
    cfg = parse_config_text(hint + "distill.stop = val_auc\n")
    assert cfg["distill.stop"] == "val_auc"
    # co-training has no early stop, so distill.stop does not apply
    assert parse_config_text(hint + "distill.scheme = cotrain\n")["distill.beta"] == 0.0


def test_plain_student_baseline_needs_the_plain_student():
    no_plain = MINIMAL + "\nreport.include_plain_student = false\n"
    with pytest.raises(ConfigError, match="report.include_plain_student = true"):
        parse_config_text(no_plain)
    cfg = parse_config_text(no_plain + "report.baseline = student_kd\n")
    assert cfg["report.baseline"] == "student_kd"


def test_model_shapes_checked_at_parse_time():
    for bad in ("student.dropout = 1.5", "teacher.hidden = 0", "student.embedding_dim = 0",
                "ensemble.mode = M\nensemble.teachers = fm,tabnet"):
        with pytest.raises(ConfigError, match="bad (teacher|student) model"):
            parse_config_text(MINIMAL + f"\n{bad}\n")
    # an ensemble preset takes the teacher's shape keys
    with pytest.raises(ConfigError, match="bad teacher model"):
        parse_config_text(MINIMAL + "\nteacher.model = lr\nteacher.cin_maps = 0\n"
                          "ensemble.mode = M\nensemble.teachers = xdeepfm\n")


def test_baseline_must_be_a_reported_model():
    ok = [("teacher.model = fm", "teacher/fm"),
          ("ensemble.mode = M\nensemble.teachers = fm,lr", "teacher/lr"),
          ("ensemble.mode = M\nensemble.teachers = fm,lr", "teachers_avg"),
          ("ensemble.mode = M\nensemble.teachers = fm\nensemble.seeds = 5,6", "teacher/fm-s6"),
          ("ensemble.mode = D\nensemble.partitions = 3", "teacher/deepfm-p2"),
          ("", "student_kd"), ("", "student_plain")]
    for extra, baseline in ok:
        cfg = parse_config_text(MINIMAL + f"\n{extra}\nreport.baseline = {baseline}\n")
        assert cfg["report.baseline"] == baseline
    bad = [("teacher.model = fm", "teacher/dcn"),
           ("", "student_kdd"),
           ("teacher.model = fm", "teachers_avg"),  # one teacher, no average
           ("ensemble.mode = M\nensemble.teachers = fm\nensemble.seeds = 5,6", "teacher/fm"),
           ("ensemble.mode = D\nensemble.partitions = 3", "teacher/deepfm-p3")]
    for extra, baseline in bad:
        with pytest.raises(ConfigError, match="not a model this run reports"):
            parse_config_text(MINIMAL + f"\n{extra}\nreport.baseline = {baseline}\n")


def test_repeated_teacher_names_rejected():
    for extra, name in [("ensemble.teachers = fm,dcn,fm", "fm"),
                        ("ensemble.teachers = fm\nensemble.seeds = 3,4,3", "fm-s3")]:
        with pytest.raises(ConfigError, match=f"teacher name {name} is listed more than once"):
            parse_config_text(MINIMAL + f"\nensemble.mode = M\n{extra}\n")


# (config lines added to MINIMAL, --set flags, a fragment of the error)
PARSE_TIME_REFUSALS = {
    "no-equals-sign": ("no equals sign", [], "expected 'key = value'"),
    "unknown-key": ("train.warp_speed = 9", [], "unknown config key"),
    "duplicate-key": ("data.path = twice.txt", [], "duplicate key"),
    "bad-number": ("train.batch_size = many", [], "bad value for train.batch_size"),
    "bad-choice": ("distill.scheme = online", [], "expected one of"),
    "negative-column": ("data.label_column = -1", [], "bad value for data.label_column"),
    "label-is-feature": ("data.label_column = 3", [], "label column cannot also be"),
    "column-gap": ("", ["--set", "data.categorical_columns=4-9"], "must be contiguous"),
    "reversed-span": ("", ["--set", "data.numeric_columns=2-1"],
                      "bad value for data.numeric_columns"),
    "no-feature-columns": ("", ["--set", "data.numeric_columns=",
                                "--set", "data.categorical_columns="], "no feature columns"),
    "repeated-seed": ("train.seeds = 1,1", [], "bad value for train.seeds"),
    "negative-split-seed": ("data.split_seed = -1", [], "bad value for data.split_seed"),
    "negative-teacher-seed": ("train.teacher_seed = -1", [],
                              "bad value for train.teacher_seed"),
    "negative-ensemble-seed": ("ensemble.mode = M\nensemble.seeds = -1", [],
                               "bad value for ensemble.seeds"),
    "negative-partition-seed": ("ensemble.mode = D\nensemble.partitions = 2\n"
                                "ensemble.partition_seed = -1", [],
                                "bad value for ensemble.partition_seed"),
    "no-seed": ("train.seeds =", [], "bad value for train.seeds"),
    "cotrain-two-teachers": ("distill.scheme = cotrain\nensemble.mode = M\n"
                             "ensemble.teachers = fm,lr", [], "exactly one teacher"),
    "cotrain-gating": ("distill.scheme = cotrain\ndistill.gating = true", [],
                       "needs distill.scheme = pretrain"),
    "train-setting": ("train.lr = -0.01", [], "train.lr must be"),
    "distill-weights": ("distill.beta = 0.9\ndistill.gamma = 0.9", [], "beta + gamma = 1"),
    "tau-nan": ("distill.tau = nan", [], "tau must be finite"),
    "tau-inf": ("distill.tau = inf", [], "tau must be finite"),
    "split-ratios": ("data.split_ratios = 0.5,0.5,0.5", [], "split ratios"),
    "overlapping-columns": ("", ["--set", "data.numeric_columns=1-3"],
                            "field positions must be unique"),
    "sequential-no-day": ("data.split = sequential", [], "needs data.day_column"),
    "model-shape": ("student.dropout = 1.5", [], "bad student model"),
    "unknown-preset": ("ensemble.mode = M\nensemble.teachers = fm,tabnet", [],
                       "bad teacher model"),
    "hint-beta-zero": ("distill.method = hint\ndistill.beta = 0\ndistill.gamma = 1", [],
                       "distill.stop = val_auc"),
    "plain-baseline": ("report.include_plain_student = false", [],
                       "report.include_plain_student = true"),
    "one-partition": ("ensemble.mode = D\nensemble.partitions = 1", [], "partitions >= 2"),
    "repeated-teacher": ("ensemble.mode = M\nensemble.teachers = fm,fm", [],
                         "listed more than once"),
    "unreported-baseline": ("report.baseline = teacher/dcn", [], "not a model this run"),
    "mode-d-teachers": ("ensemble.mode = D\nensemble.partitions = 2\n"
                        "ensemble.teachers = dcn,fm", [], "ensemble.mode = D ignores"),
    "mode-d-seeds": ("ensemble.mode = D\nensemble.partitions = 2",
                     ["--set", "ensemble.seeds=3,4"], "ensemble.mode = D ignores ensemble.seeds"),
    "partitions-without-mode": ("ensemble.partitions = 5", [],
                                "ensemble.mode = M ignores ensemble.partitions"),
    "partition-seed-mode-m": ("ensemble.mode = M\nensemble.partition_seed = 7", [],
                              "ensemble.mode = M ignores ensemble.partition_seed"),
    "set-bad-value": ("", ["--set", "data.format=parquet"], "expected one of"),
    "set-no-equals": ("", ["--set", "train.lr"], "--set expects one key=value"),
    "set-empty": ("", ["--set", ""], "--set expects one key=value"),
    "set-two-pairs": ("", ["--set", "train.lr=0.1\ntrain.seeds=2"],
                      "--set expects one key=value"),
}


@pytest.mark.parametrize("lines, flags, error", PARSE_TIME_REFUSALS.values(),
                         ids=PARSE_TIME_REFUSALS.keys())
def test_cli_run_refuses_at_parse_time(tmp_path, capsys, lines, flags, error):
    write_synthetic_file(tmp_path / "data.txt", 200, seed=1)
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL + "train.max_epochs = 1\n" + lines + "\n")
    assert cli.main(["run", "-c", str(path), *flags]) == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["run", "preprocess"])
@pytest.mark.parametrize("flags, error", [([], "needs data.path"),
                                          (["--set", "data.path="], "bad value for data.path")],
                         ids=["absent", "empty"])
def test_cli_refuses_a_config_without_data_path(tmp_path, capsys, verb, flags, error):
    write_synthetic_file(tmp_path / "data.txt", 200, seed=1)
    text = MINIMAL.replace("data.path = data.txt\n", "")
    # the later verbs never read the key, so parsing does not require it
    assert parse_config_text(text).get("data.path") is None
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    assert cli.main([verb, "-c", str(path), *flags]) == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_refuses_an_empty_output_dir(tmp_path, capsys):
    # an empty output.dir would resolve to the config file's own directory
    write_synthetic_file(tmp_path / "data.txt", 200, seed=1)
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL)
    assert cli.main(["preprocess", "-c", str(path), "--set", "output.dir="]) == 2
    assert "bad value for output.dir" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.txt", "exp.cfg"]
