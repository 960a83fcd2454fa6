"""Synthetic click-log generator with a known second-order ground truth.

Labels are Bernoulli draws from sigmoid(logit), where the logit mixes
per-token weights, pairwise interactions between per-token latent vectors,
and a small numeric contribution. Factorization-style teachers can model
this family directly, which makes it a good benchmark for distillation
experiments at desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EncodedDataset, transform_numeric
from .tensor import sigmoid_values


@dataclass(frozen=True)
class SyntheticSpec:
    n_cat: int = 6
    vocab: int = 50
    n_num: int = 2
    latent_dim: int = 4
    weight_std: float = 0.25
    latent_std: float = 0.4
    numeric_coef: float = 0.3
    bias: float = -1.0
    zipf_exponent: float = 1.2


# rows per block of the pairwise term, so no (rows, fields, latent) array
# spans the whole draw
_BLOCK_ROWS = 4096


def _token_probs(spec: SyntheticSpec) -> np.ndarray:
    ranks = np.arange(1, spec.vocab + 1, dtype=np.float64)
    p = ranks ** -spec.zipf_exponent
    return p / p.sum()


def _draw(spec: SyntheticSpec, n: int, seed: int):
    """Token ids, raw numeric values, true probabilities, sampled labels."""
    rng = np.random.default_rng(np.random.SeedSequence([0x5E7, seed]))
    w = rng.normal(0.0, spec.weight_std, size=(spec.n_cat, spec.vocab))
    u = rng.normal(0.0, spec.latent_std, size=(spec.n_cat, spec.vocab, spec.latent_dim))
    probs = _token_probs(spec)
    tokens = np.stack([rng.choice(spec.vocab, size=n, p=probs)
                       for _ in range(spec.n_cat)], axis=1)
    raw_num = np.round(rng.lognormal(mean=1.0, sigma=1.0, size=(n, spec.n_num)), 3)

    logit = np.full(n, spec.bias)
    for lo in range(0, n, _BLOCK_ROWS):  # rows are independent: any block size, same bits
        block = tokens[lo:lo + _BLOCK_ROWS]
        vecs = np.stack([u[f, block[:, f]] for f in range(spec.n_cat)], axis=1)  # rows,F,k
        logit[lo:lo + _BLOCK_ROWS] += 0.5 * (np.square(vecs.sum(axis=1)).sum(axis=1)
                                             - np.square(vecs).sum(axis=(1, 2)))
    for f in range(spec.n_cat):
        logit += w[f, tokens[:, f]]
    z = transform_numeric(raw_num)
    logit += spec.numeric_coef * (z - z.mean(axis=0)).sum(axis=1)

    true_p = sigmoid_values(logit)
    labels = (rng.random(n) < true_p).astype(np.float64)
    return tokens, raw_num, true_p, labels


def synthetic_dataset(n: int, seed: int,
                      spec: SyntheticSpec = SyntheticSpec()) -> tuple[EncodedDataset, np.ndarray]:
    """Directly encoded dataset plus the generating probabilities."""
    tokens, raw_num, true_p, labels = _draw(spec, n, seed)
    ds = EncodedDataset(tokens.astype(np.int32), transform_numeric(raw_num), labels)
    return ds, true_p


def write_synthetic_file(path, n: int, seed: int,
                         spec: SyntheticSpec = SyntheticSpec()) -> None:
    """Criteo-style raw file: label, numeric columns, categorical tokens."""
    tokens, raw_num, _, labels = _draw(spec, n, seed)
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n):
            cols = [str(int(labels[i]))]
            cols += [repr(float(x)) for x in raw_num[i]]
            cols += [f"c{t}" for t in tokens[i]]
            f.write("\t".join(cols) + "\n")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="write a synthetic click log")
    parser.add_argument("path")
    parser.add_argument("--rows", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    write_synthetic_file(args.path, args.rows, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
