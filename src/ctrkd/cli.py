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


# each verb but ``run`` runs one stage, named by its tag
_VERB_STAGES = {"preprocess": "preprocess", "train-teacher": "teachers",
                "make-ensemble": "teachers", "distill": "distill",
                "evaluate": "evaluate", "report": "report"}
# the keys without a default that a verb reads
_VERB_NEEDS = {"preprocess": "data.path", "run": "data.path",
               "make-ensemble": "ensemble.mode"}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", required=True, help="experiment config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config value")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ctrkd",
        description="knowledge-distillation experiments for CTR prediction")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in (*_VERB_STAGES, "run"):
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
        need = _VERB_NEEDS.get(args.verb)
        if need is not None and cfg.get(need) is None:
            raise ConfigError(f"{args.verb} needs {need}")
        stage = _VERB_STAGES.get(args.verb)
        result = experiment.run(cfg) if stage is None else experiment.run_stage(stage, cfg)
        if stage == "preprocess":
            print(f"encoded {len(result.train)}/{len(result.val)}/{len(result.test)} rows "
                  f"(train/val/test) into {cfg.output_dir}")
        elif stage == "teachers":
            for e in result:
                print(f"trained {e['model']} (seed {e['seed']}) -> {e['ckpt']}")
        elif stage == "distill":
            for r in result:
                print(f"trained {r['model']} seed {r['seed']} -> {r['ckpt']}")
        elif stage == "evaluate":
            for r in result:
                print(f"{r.model} seed {r.seed}: auc={r.auc:.4f} logloss={r.logloss:.4f}")
        else:  # report, or the whole run
            print(result.text_table(), end="")
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
