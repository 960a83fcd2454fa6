"""Experiment reports: per-seed rows, aggregates, per-mille deltas.

Deltas against the baseline are absolute differences scaled by 1000
(1 per-mille = 0.001 AUC/logloss), the usual unit for CTR model
comparisons where a 1.0 delta is already practically significant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ReportRow:
    model: str
    seed: int
    auc: float
    logloss: float
    best_epoch: int
    seconds: float


@dataclass(frozen=True)
class Aggregate:
    model: str
    n_seeds: int
    auc_mean: float
    auc_std: float
    logloss_mean: float
    logloss_std: float
    auc_delta_permille: float
    logloss_delta_permille: float


def _mean(xs):
    return sum(xs) / len(xs)


def _std(xs):
    # sample standard deviation, 0 for a single run
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


class ExperimentReport:
    def __init__(self, rows: list[ReportRow], baseline: str):
        if not rows:
            raise ValueError("report needs at least one row")
        names = {r.model for r in rows}
        if baseline not in names:
            raise ValueError(f"baseline {baseline!r} not among models {sorted(names)}")
        self.rows = list(rows)
        self.baseline = baseline

    def models(self) -> list[str]:
        seen = []
        for r in self.rows:
            if r.model not in seen:
                seen.append(r.model)
        return seen

    def aggregates(self) -> list[Aggregate]:
        by_model = {m: [r for r in self.rows if r.model == m] for m in self.models()}
        base_auc = _mean([r.auc for r in by_model[self.baseline]])
        base_ll = _mean([r.logloss for r in by_model[self.baseline]])
        out = []
        for model, rows in by_model.items():
            aucs = [r.auc for r in rows]
            lls = [r.logloss for r in rows]
            out.append(Aggregate(
                model=model,
                n_seeds=len(rows),
                auc_mean=_mean(aucs),
                auc_std=_std(aucs),
                logloss_mean=_mean(lls),
                logloss_std=_std(lls),
                auc_delta_permille=(_mean(aucs) - base_auc) * 1000.0,
                logloss_delta_permille=(_mean(lls) - base_ll) * 1000.0,
            ))
        return out

    def text_table(self) -> str:
        headers = ["model", "seeds", "AUC (mean+/-std)", "logloss (mean+/-std)",
                   "dAUC permille", "dLL permille"]
        rows = []
        for a in self.aggregates():
            rows.append([
                a.model + (" *" if a.model == self.baseline else ""),
                str(a.n_seeds),
                f"{a.auc_mean:.4f} +/- {a.auc_std:.4f}",
                f"{a.logloss_mean:.4f} +/- {a.logloss_std:.4f}",
                f"{a.auc_delta_permille:+.1f}",
                f"{a.logloss_delta_permille:+.1f}",
            ])
        widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
        def fmt(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        lines = [fmt(headers), fmt(["-" * w for w in widths])]
        lines += [fmt(r) for r in rows]
        lines.append("* baseline; deltas are (model - baseline) x 1000")
        return "\n".join(lines) + "\n"
