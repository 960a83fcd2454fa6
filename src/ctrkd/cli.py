"""Command-line experiment harness.

Verbs: preprocess, train-teacher, make-ensemble, distill, evaluate,
report, run. Every verb takes a config file; --set flags override single
config values but never replace the file. Exit code 0 only on full
success.
"""
from __future__ import annotations

import argparse
import sys

from . import experiment
from .config import ConfigError, load_config, parse_kv


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", required=True, help="experiment config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config value")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ctrkd",
        description="knowledge-distillation experiments for CTR prediction")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("preprocess", "train-teacher", "make-ensemble", "distill",
                 "evaluate", "report", "run"):
        _add_common(sub.add_parser(verb))
    args = parser.parse_args(argv)

    try:
        overrides = {}  # a key repeated across flags takes its last value
        for pair in args.overrides:
            kv = parse_kv(pair) if "=" in pair else {}
            if len(kv) != 1:
                raise ConfigError(f"--set expects one key=value, got {pair!r}")
            overrides.update(kv)
        cfg = load_config(args.config, overrides)
        if args.verb == "preprocess":
            art = experiment._run_stage("preprocess", experiment.stage_preprocess, cfg)
            print(f"encoded {len(art.train)}/{len(art.val)}/{len(art.test)} rows "
                  f"(train/val/test) into {cfg.output_dir}")
        elif args.verb in ("train-teacher", "make-ensemble"):
            if args.verb == "make-ensemble" and "ensemble.mode" not in cfg.values:
                raise ConfigError("make-ensemble needs ensemble.mode = M or D")
            entries = experiment._run_stage(
                "teachers", experiment.stage_teachers_from_disk, cfg)
            for e in entries:
                print(f"trained {e['model']} (seed {e['seed']}) -> {e['ckpt']}")
        elif args.verb == "distill":
            rows = experiment._run_stage("distill", experiment.stage_distill, cfg)
            for r in rows:
                print(f"trained {r['model']} seed {r['seed']} -> {r['ckpt']}")
        elif args.verb == "evaluate":
            rows = experiment._run_stage("evaluate", experiment.stage_evaluate, cfg)
            for r in rows:
                print(f"{r.model} seed {r.seed}: auc={r.auc:.4f} logloss={r.logloss:.4f}")
        elif args.verb == "report":
            report = experiment._run_stage("report", experiment.stage_report, cfg)
            print(report.text_table(), end="")
        else:
            report = experiment.run(cfg)
            print(report.text_table(), end="")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except experiment.StageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
