import math
import os
from dataclasses import asdict, fields

import numpy as np
import pytest

from ctrkd import experiment
from ctrkd.config import parse_config_text
from ctrkd.report import Aggregate, ExperimentReport, ReportRow


def rows_for(model, aucs, lls=None, seed0=1):
    lls = lls or [0.5] * len(aucs)
    return [ReportRow(model, seed0 + i, a, l, 5, 1.0)
            for i, (a, l) in enumerate(zip(aucs, lls))]


def test_baseline_delta_zero():
    report = ExperimentReport(rows_for("m", [0.75, 0.75]), baseline="m")
    agg = report.aggregates()[0]
    assert agg.auc_delta_permille == 0.0
    assert agg.logloss_delta_permille == 0.0


def test_permille_delta_arithmetic():
    rows = rows_for("base", [0.7500]) + rows_for("cand", [0.7512])
    report = ExperimentReport(rows, baseline="base")
    cand = {a.model: a for a in report.aggregates()}["cand"]
    assert cand.auc_delta_permille == pytest.approx(1.2, abs=1e-9)


def test_aggregate_matches_spreadsheet_oracle():
    aucs = [0.71, 0.72, 0.705, 0.718, 0.709]
    lls = [0.52, 0.51, 0.53, 0.515, 0.525]
    report = ExperimentReport(rows_for("m", aucs, lls), baseline="m")
    agg = report.aggregates()[0]
    assert agg.n_seeds == 5
    assert agg.auc_mean == pytest.approx(np.mean(aucs), rel=1e-12)
    assert agg.auc_std == pytest.approx(np.std(aucs, ddof=1), rel=1e-12)
    assert agg.logloss_mean == pytest.approx(np.mean(lls), rel=1e-12)
    assert agg.logloss_std == pytest.approx(np.std(lls, ddof=1), rel=1e-12)


def test_single_seed_std_is_zero():
    report = ExperimentReport(rows_for("m", [0.7]), baseline="m")
    assert report.aggregates()[0].auc_std == 0.0


def test_unknown_baseline_rejected():
    with pytest.raises(ValueError):
        ExperimentReport(rows_for("m", [0.7]), baseline="ghost")
    with pytest.raises(ValueError, match="at least one row"):
        ExperimentReport([], baseline="m")


def test_csv_and_table_shapes(tmp_path):
    # stage_report reads runs.csv and writes report.csv and report.txt
    cfg = parse_config_text("data.path = clicks.txt\ndata.format = criteo\n"
                            "output.dir = out\n", base_dir=str(tmp_path))
    rows = rows_for("student_plain", [0.70, 0.71]) + rows_for("student_kd", [0.72, 0.73])
    os.makedirs(cfg.output_dir)
    experiment._write_csv(os.path.join(cfg.output_dir, "runs.csv"),
                          [f.name for f in fields(ReportRow)], [asdict(r) for r in rows])
    report = experiment.stage_report(cfg)
    out = tmp_path / "out"
    summary = (out / "report.csv").read_bytes().decode("utf-8").split("\n")
    assert summary[0] == ("model,n_seeds,auc_mean,auc_std,logloss_mean,logloss_std,"
                          "auc_delta_permille,logloss_delta_permille")
    assert len(summary) == 4 and summary[-1] == ""
    plain, _ = report.aggregates()
    assert summary[1] == (f"student_plain,2,{plain.auc_mean!r},{plain.auc_std!r},"
                          f"{plain.logloss_mean!r},{plain.logloss_std!r},0.0000,0.0000")
    # candidate delta +20 permille, four decimals in the CSV
    assert summary[2].startswith("student_kd,2,") and summary[2].endswith(",20.0000,0.0000")
    table = (out / "report.txt").read_text()
    assert table == report.text_table()
    assert "student_plain *" in table
    assert "student_kd" in table
    assert "+20.0" in table
