"""Wide+deep CTR model zoo built on the tensor engine.

Every model computes a logit as the sum of an optional wide part and an
optional deep MLP part, both reading a single shared set of per-field
embedding tables:

    wide&deep = LR + MLP        deepfm = FM + MLP
    dcn       = CrossNet + MLP  xdeepfm = CIN + MLP
    dnn       = MLP only        lr / fm = wide only

Numeric features feed the MLP and CrossNet as raw (already transformed)
scalars; FM and CIN need field vectors, so each numeric field gets a
learned d-dimensional projection of its scalar value.

Every model with embeddings gathers one input row per batch with one
``tensor.field_row`` node, and all its parts read that row: the MLP, the
CrossNet, and FM and CIN through ``tensor.fm_pair`` and
``tensor.cin_maps``, which take the row's d-wide field slices and the
projected numerics. ``tensor.linear_sum`` is the LR/FM linear logit in one
node. Each op gives the bits of the per-field chain it replaces: sums run
slice by slice in field order, and ``fm_pair`` and ``cin_maps`` hand the
row one unbuilt adjoint that adds their terms to the MLP's in the chain's
order, so a row that feeds both sums its terms as before. Whole-tensor FM
and CIN ops that reduced over a (B, F, d) view summed in another order:
they changed the trained bits and were slower at prediction.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

EMBED_INIT_STD = 0.05

WIDE_KINDS = ("none", "lr", "fm", "cross", "cin")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip() != "")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative architecture: which wide part, deep sizes, embedding dim."""

    wide: str = "none"
    deep: tuple[int, ...] = ()
    embedding_dim: int = 10
    cross_layers: int = 3
    cin_maps: tuple[int, ...] = (4,)
    dropout: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "deep", tuple(int(h) for h in self.deep))
        object.__setattr__(self, "cin_maps", tuple(int(h) for h in self.cin_maps))
        if self.wide not in WIDE_KINDS:
            raise ValueError(f"unknown wide part {self.wide!r}")
        if self.wide == "none" and not self.deep:
            raise ValueError("model needs at least one of a wide or deep part")
        if any(h < 1 for h in self.deep):
            raise ValueError("hidden sizes must be positive")
        if self.needs_embeddings and self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.wide == "cross" and self.cross_layers < 1:
            raise ValueError("cross_layers must be >= 1")
        if self.wide == "cin" and (not self.cin_maps or any(h < 1 for h in self.cin_maps)):
            raise ValueError("cin_maps must be a non-empty list of positive sizes")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def needs_embeddings(self) -> bool:
        return bool(self.deep) or self.wide in ("fm", "cross", "cin")

    # -- the zoo ----------------------------------------------------------
    @classmethod
    def lr(cls) -> "ModelSpec":
        return cls(wide="lr")

    @classmethod
    def fm(cls, embedding_dim: int = 10) -> "ModelSpec":
        return cls(wide="fm", embedding_dim=embedding_dim)

    @classmethod
    def dnn(cls, hidden=(64, 64), embedding_dim: int = 10, dropout: float = 0.0) -> "ModelSpec":
        return cls(deep=tuple(hidden), embedding_dim=embedding_dim, dropout=dropout)

    @classmethod
    def wide_deep(cls, hidden=(64, 64), embedding_dim: int = 10, dropout: float = 0.0) -> "ModelSpec":
        return cls(wide="lr", deep=tuple(hidden), embedding_dim=embedding_dim, dropout=dropout)

    @classmethod
    def deepfm(cls, hidden=(64, 64), embedding_dim: int = 10, dropout: float = 0.0) -> "ModelSpec":
        return cls(wide="fm", deep=tuple(hidden), embedding_dim=embedding_dim, dropout=dropout)

    @classmethod
    def dcn(cls, cross_layers: int = 3, hidden=(64, 64), embedding_dim: int = 10,
            dropout: float = 0.0) -> "ModelSpec":
        return cls(wide="cross", cross_layers=cross_layers, deep=tuple(hidden),
                   embedding_dim=embedding_dim, dropout=dropout)

    @classmethod
    def xdeepfm(cls, cin_maps=(4, 4), hidden=(64, 64), embedding_dim: int = 10,
                dropout: float = 0.0) -> "ModelSpec":
        return cls(wide="cin", cin_maps=tuple(cin_maps), deep=tuple(hidden),
                   embedding_dim=embedding_dim, dropout=dropout)

    # -- config/checkpoint serialization ----------------------------------
    def to_kv(self) -> dict[str, str]:
        return {
            "wide": self.wide,
            "deep": ",".join(str(h) for h in self.deep),
            "embedding_dim": str(self.embedding_dim),
            "cross_layers": str(self.cross_layers),
            "cin_maps": ",".join(str(h) for h in self.cin_maps),
            "dropout": repr(self.dropout),
            # the hidden activation is always ReLU; the key keeps the layout
            "activation": "relu",
        }

    @classmethod
    def from_kv(cls, kv: dict[str, str]) -> "ModelSpec":
        if kv.get("activation", "relu") != "relu":
            raise ValueError(f"unsupported activation {kv['activation']!r}")
        return cls(wide=kv["wide"], deep=_ints(kv["deep"]),
                   embedding_dim=int(kv["embedding_dim"]),
                   cross_layers=int(kv["cross_layers"]),
                   cin_maps=_ints(kv["cin_maps"]),
                   dropout=float(kv["dropout"]))


PRESETS = ("lr", "fm", "dnn", "wide_deep", "deepfm", "dcn", "xdeepfm")


def spec_from_preset(name: str, *, embedding_dim: int = 10, hidden=(64, 64),
                     dropout: float = 0.0, cross_layers: int = 3,
                     cin_maps=(4, 4)) -> ModelSpec:
    """The ``ModelSpec`` classmethod ``name``, given the shape keys it takes."""
    if name not in PRESETS:
        raise ValueError(f"unknown model preset {name!r}; choose one of {PRESETS}")
    make = getattr(ModelSpec, name)
    shape = dict(embedding_dim=embedding_dim, hidden=hidden, dropout=dropout,
                 cross_layers=cross_layers, cin_maps=cin_maps)
    takes = inspect.signature(make).parameters
    return make(**{key: value for key, value in shape.items() if key in takes})


@dataclass(frozen=True)
class FieldDims:
    """Input geometry: vocabulary size per categorical field + numeric count."""

    vocab_sizes: tuple[int, ...]
    n_numeric: int = 0

    def __post_init__(self):
        object.__setattr__(self, "vocab_sizes", tuple(int(v) for v in self.vocab_sizes))
        if any(v < 1 for v in self.vocab_sizes):
            raise ValueError("vocabulary sizes must be >= 1")
        if self.n_numeric < 0:
            raise ValueError("n_numeric must be >= 0")

    # -- checkpoint/data_meta serialization -------------------------------
    def to_kv(self) -> dict[str, str]:
        return {"vocab_sizes": ",".join(str(v) for v in self.vocab_sizes),
                "n_numeric": str(self.n_numeric)}

    @classmethod
    def from_kv(cls, kv: dict[str, str]) -> "FieldDims":
        return cls(_ints(kv["vocab_sizes"]), int(kv["n_numeric"]))


class Model:
    """One zoo instance: parameters plus the forward graph builders.

    A fresh model draws its parameters from ``seed``. Given ``tensors`` (name
    to float64 array, such as a checkpoint's), it draws nothing: it takes each
    parameter's array out of ``tensors`` after a shape check, without a copy,
    and leaves every other entry there."""

    def __init__(self, spec: ModelSpec, dims: FieldDims, seed: int = 0,
                 tensors: dict[str, np.ndarray] | None = None):
        self.spec = spec
        self.dims = dims
        n_cat = len(dims.vocab_sizes)
        if n_cat + dims.n_numeric == 0:
            raise ValueError("model needs at least one input field")
        self._params: list[Tensor] = []
        rng = np.random.default_rng(seed)
        d = spec.embedding_dim

        def param(name: str, shape: tuple[int, ...], init) -> Tensor:
            """Declare one parameter: drawn by ``init(shape)``, or taken out
            of ``tensors``."""
            if tensors is None:
                values = init(shape)
            elif name not in tensors:
                raise ValueError(f"lacks parameters [{name!r}]")
            elif tensors[name].shape != shape:
                raise ValueError(f"shape mismatch for {name}: {tensors[name].shape} vs {shape}")
            else:
                values = tensors.pop(name)
            self._params.append(T.parameter(values, name=name))
            return self._params[-1]

        def normal(std):
            return lambda shape: rng.normal(0.0, std, size=shape)

        def xavier(shape):
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            return rng.uniform(-limit, limit, size=shape)

        # shared embedding tables, one per categorical field
        self.embeddings = ([param(f"embed.{i}", (v, d), normal(EMBED_INIT_STD))
                            for i, v in enumerate(dims.vocab_sizes)]
                           if spec.needs_embeddings else [])

        # learned d-dim projection of each numeric scalar, for FM/CIN fields
        self.numeric_proj = ([param(f"numproj.{j}", (1, d), normal(EMBED_INIT_STD))
                              for j in range(dims.n_numeric)]
                             if spec.wide in ("fm", "cin") else [])

        concat_dim = n_cat * d + dims.n_numeric

        # each part sets hint_dim, the width of its hint; the deep part is last
        if spec.wide in ("lr", "fm"):
            prefix = spec.wide
            self.hint_dim = 1 if prefix == "lr" else d  # lr: the logit itself
            self.linear_cat = [param(f"{prefix}.cat.{i}", (v, 1), np.zeros)
                               for i, v in enumerate(dims.vocab_sizes)]
            self.linear_num = (param(f"{prefix}.num", (dims.n_numeric, 1), np.zeros)
                               if dims.n_numeric else None)
            self.linear_bias = param(f"{prefix}.bias", (1, 1), np.zeros)

        if spec.wide == "cross":
            cross = normal(1.0 / np.sqrt(concat_dim))
            self.cross_w = [param(f"cross.{l}.w", (concat_dim, 1), cross)
                            for l in range(spec.cross_layers)]
            self.cross_b = [param(f"cross.{l}.b", (1, concat_dim), np.zeros)
                            for l in range(spec.cross_layers)]
            self.cross_head_w = param("cross.head.w", (concat_dim, 1), xavier)
            self.cross_head_b = param("cross.head.b", (1, 1), np.zeros)
            self.hint_dim = concat_dim

        if spec.wide == "cin":
            m = n_cat + len(self.numeric_proj)
            fan_ins = [prev * m for prev in (m, *spec.cin_maps[:-1])]
            self.cin_w = [param(f"cin.{k}.w", (h, fan_in), normal(np.sqrt(2.0 / (fan_in + h))))
                          for k, (h, fan_in) in enumerate(zip(spec.cin_maps, fan_ins))]
            total = sum(spec.cin_maps)
            self.cin_head_w = param("cin.head.w", (total, 1), xavier)
            self.cin_head_b = param("cin.head.b", (1, 1), np.zeros)
            self.hint_dim = total

        if spec.deep:
            widths = (concat_dim, *spec.deep)
            self.mlp = [(param(f"mlp.{l}.w", (fan_in, h), xavier),
                         param(f"mlp.{l}.b", (1, h), np.zeros))
                        for l, (fan_in, h) in enumerate(zip(widths, spec.deep))]
            self.mlp_head_w = param("mlp.head.w", (widths[-1], 1), xavier)
            self.mlp_head_b = param("mlp.head.b", (1, 1), np.zeros)
            self.hint_dim = widths[-1]

    # -- parameter access -------------------------------------------------
    def parameters(self) -> list[Tensor]:
        return list(self._params)

    def embedding_parameters(self) -> list[Tensor]:
        """The feature-embedding parameters, the only L2-regularized ones."""
        return list(self.embeddings) + list(self.numeric_proj)

    # -- forward ----------------------------------------------------------
    def _inputs(self, cat, num):
        cat = np.asarray(cat)
        num = np.asarray(num, dtype=np.float64)
        if cat.ndim != 2 or cat.shape[1] != len(self.dims.vocab_sizes):
            raise ValueError(f"expected cat of shape (B, {len(self.dims.vocab_sizes)})")
        if num.ndim != 2 or num.shape[1] != self.dims.n_numeric:
            raise ValueError(f"expected num of shape (B, {self.dims.n_numeric})")
        if cat.shape[0] != num.shape[0]:
            raise ValueError("cat and num batch sizes differ")
        return cat, num

    def _linear_logit(self, cat, num):
        return T.linear_sum(self.linear_cat, cat, num, self.linear_num, self.linear_bias)

    def _fm(self, cat, num, row):
        linear = self._linear_logit(cat, num)
        # sum_{i<j} <v_i, v_j> via 0.5 * ((sum v)^2 - sum v^2)
        pair = T.fm_pair(row, num, self.numeric_proj, self.spec.embedding_dim)
        logit = T.add(linear, T.reduce_sum(pair, axis=1, keepdims=True))
        return logit, pair

    def _cross(self, row):
        # A no-op node in front of the cross layers sums their adjoint terms
        # before the deep part's term joins them: the order in which the
        # tables' gradients add the two parts is part of the trained bits.
        x0 = T.reshape(row, row.shape)
        x = x0
        for w, b in zip(self.cross_w, self.cross_b):
            # x_{l+1} = x0 * (x_l . w_l) + b_l + x_l
            x = T.cross_layer(x0, x, w, b)
        logit = T.linear(x, self.cross_head_w, self.cross_head_b)
        return logit, x

    def _cin(self, num, row):
        b = row.shape[0]
        d = self.spec.embedding_dim
        # columns of fmat are the base feature maps X^0, flattened over (b, d)
        fmat = T.cin_maps(row, num, self.numeric_proj, d)
        prev = fmat
        pooled = []
        for w, h in zip(self.cin_w, self.spec.cin_maps):
            # map h: sum_{i,j} W[h, i*m+j] * (X^{k-1}_i o X^0_j)
            prev = T.cin_layer(prev, fmat, w)                 # (B*d, h)
            pooled.append(T.reduce_sum(T.reshape(prev, (b, d, h)), axis=1))
        vec = T.concat(pooled, axis=1) if len(pooled) > 1 else pooled[0]
        logit = T.linear(vec, self.cin_head_w, self.cin_head_b)
        return logit, vec

    def _deep(self, x, training, rng):
        for w, b in self.mlp:
            x = T.relu(T.linear(x, w, b))
            if self.spec.dropout > 0.0:
                x = T.dropout(x, self.spec.dropout, training, rng)
        logit = T.linear(x, self.mlp_head_w, self.mlp_head_b)
        return logit, x

    def forward(self, cat, num, training: bool = False,
                rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
        """Logit = wide + deep; hint = last hidden activation when a deep
        part exists, else the wide part's pre-head vector."""
        cat, num = self._inputs(cat, num)
        wide = self.spec.wide
        if self.spec.needs_embeddings:
            row = T.field_row(self.embeddings, cat, num)
        parts = []  # (logit, vector) of the wide part, then of the deep part
        if wide == "lr":
            linear = self._linear_logit(cat, num)
            parts.append((linear, linear))
        elif wide == "fm":
            parts.append(self._fm(cat, num, row))
        elif wide == "cross":
            parts.append(self._cross(row))
        elif wide == "cin":
            parts.append(self._cin(num, row))
        if self.spec.deep:
            parts.append(self._deep(row, training, rng))
        logit = parts[0][0] if len(parts) == 1 else T.add(parts[0][0], parts[1][0])
        return logit, parts[-1][1]

    def logit_values(self, cat, num) -> np.ndarray:
        """Inference-mode logits as a raw (B, 1) array, outside any graph."""
        with T.no_grad():
            return self.forward(cat, num, training=False)[0].values

    def hint_values(self, cat, num) -> tuple[np.ndarray, np.ndarray]:
        """Inference-mode (logit, hint) value arrays, outside any graph."""
        with T.no_grad():
            logit, hint = self.forward(cat, num, training=False)
        return logit.values, hint.values

    def predict_proba(self, cat, num) -> np.ndarray:
        """sigmoid(logit) as a flat probability array."""
        return T.sigmoid_values(self.logit_values(cat, num)).reshape(-1)

    # -- state ------------------------------------------------------------
    def state(self) -> dict[str, np.ndarray]:
        return {p.name: p.values.copy() for p in self._params}
