"""Minimal dense tensors with reverse-mode gradient accumulation.

Every op checks its inputs, computes its value and hands ``_from_op`` one
adjoint per input: a function from the output's adjoint to that input's.
Only ``_from_op`` looks at ``requires_grad``: it records the inputs and a
backward closure on the output that runs the adjoints of the inputs that
need a gradient, in input order.

``Tensor.backward()`` replays the recorded ops in exact reverse execution
order and accumulates adjoints, so a tensor used several times receives
the sum of the gradients from all of its uses, and calling backward twice
without clearing grads yields exactly twice the single-pass gradient.
Only leaves (tensors no op produced, such as parameters) keep a ``.grad``;
an intermediate adjoint is handed to the op's inputs and then dropped.

``rows`` gathers from a table whose adjoint is mostly zero when the
vocabulary dwarfs the batch, and ``field_row`` gathers one such table per
field into one row. When a table has at least twice as many rows as there
are indices, its adjoint is a ``RowGrad``: the sorted touched rows and
their summed gradients. A leaf that has no gradient yet keeps it as
``row_grad``, which ``train.Adam`` reads without building the dense
table-sized array. Everything else densifies it first: a second backward
into the same leaf, two adjoints meeting at one node, a table an op
produced. Reading ``.grad`` densifies too, so every reader sees the same
dense ndarray, bit for bit, as the dense scatter would have given; smaller
tables get that scatter directly. ``fm_pair`` and ``cin_maps`` leave their
adjoint of a row unbuilt in the same way, as a ``_RowAdjoint`` of their
terms per field slice, and ``field_row`` builds it one field at a time.

Inside a ``no_grad()`` block ops record nothing: they compute the same
values, but their outputs have no parents and ``requires_grad`` False, so
inference builds no graph.

Shape discipline is deliberately strict: elementwise ops accept equal
shapes or a size-1 operand, nothing else. Structural ops (``concat``,
``reshape``, ...) make every shape change explicit; the fused ops
``linear`` and ``cross_layer`` add a (1, width) bias row to every row.
Gathers check every index first and raise ``IndexError`` naming it.
"""
from __future__ import annotations

import contextlib
import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

# Monotonic creation counter; creation order is execution order, so
# descending order is the replay order for adjoints.
_seq_counter = itertools.count()

# False inside no_grad(): ops then record no parents and no backward closure.
_grad_enabled = True

GradFn = Callable[[np.ndarray], list[tuple["Tensor", np.ndarray]]]
Adjoint = Callable[[np.ndarray], np.ndarray]


def _as_values(data) -> np.ndarray:
    if isinstance(data, Tensor):
        raise TypeError("expected raw array data, got a Tensor")
    return np.asarray(data, dtype=np.float64)


class RowGrad(NamedTuple):
    """Row-sparse gradient of a 2-d table: row ``rows[k]`` has gradient
    ``values[k]``; ``rows`` is sorted and unique, and every other row's
    gradient is zero."""

    rows: np.ndarray
    values: np.ndarray

    def dense(self, like: np.ndarray) -> np.ndarray:
        out = np.zeros_like(like)
        out[self.rows] = self.values
        return out


def _dense(g, like: np.ndarray) -> np.ndarray:
    return g.dense(like) if isinstance(g, (RowGrad, _RowAdjoint)) else g


def _sum(acc, g, like: np.ndarray):
    """Two adjoints of one tensor added: ``acc + g``, dense, or for a
    ``_RowAdjoint`` g the same sum, still unbuilt."""
    acc = _dense(acc, like)
    return g._replace(acc=acc) if isinstance(g, _RowAdjoint) else acc + _dense(g, like)


class Tensor:
    """Dense numeric array with shape, values, and an optional grad slot."""

    __slots__ = ("values", "_grad", "_row_grad", "requires_grad", "name",
                 "_parents", "_grad_fn", "_op", "_seq")

    def __init__(self, data, requires_grad: bool = False,
                 name: str | None = None):
        self.values = _as_values(data)
        self._grad: np.ndarray | None = None
        self._row_grad: RowGrad | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: GradFn | None = None
        self._op: str | None = None
        self._seq = next(_seq_counter)

    @property
    def grad(self) -> np.ndarray | None:
        """The dense gradient; reading it densifies a stored ``row_grad``."""
        if self._row_grad is not None:
            self._grad = self._row_grad.dense(self.values)
            self._row_grad = None
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value
        self._row_grad = None

    @property
    def row_grad(self) -> RowGrad | None:
        """The gradient while it is still row-sparse, else None."""
        return self._row_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def backward(self) -> None:
        """Accumulate d(self)/d(t) into ``t.grad`` for every leaf t it reaches."""
        if self.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward on a tensor that records no graph: no parameter "
                             "reaches it, or it was computed inside no_grad()")
        record = ComputationRecord.trace(self)
        adjoints: dict[int, np.ndarray] = {id(self): np.ones_like(self.values)}
        for t in reversed(record.nodes):
            g = adjoints.pop(id(t), None)
            if g is None:
                continue
            if t._grad_fn is None:
                t._accumulate(g)
            else:
                for parent, pg in t._grad_fn(g):
                    acc = adjoints.get(id(parent))
                    adjoints[id(parent)] = pg if acc is None else _sum(acc, pg, parent.values)

    def _accumulate(self, g) -> None:
        if isinstance(g, RowGrad) and self._grad is None and self._row_grad is None:
            self._row_grad = g
            return
        grad = self.grad
        if grad is None:
            # zeros plus g rather than a copy of g: 0.0 + -0.0 is +0.0
            grad = self._grad = np.zeros_like(self.values)
        grad += _dense(g, self.values)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{tag})"


class ComputationRecord:
    """Executed ops reachable from one output, in execution order.

    Replaying the record backwards visits ops in exact reverse execution
    order; inputs are always created before their outputs, so this is a
    valid adjoint schedule.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationRecord":
        seen = {id(root)}
        nodes = [root]
        stack = [root]
        while stack:
            t = stack.pop()
            for p in t._parents:
                if p.requires_grad and id(p) not in seen:
                    seen.add(id(p))
                    nodes.append(p)
                    stack.append(p)
        nodes.sort(key=lambda t: t._seq)
        return cls(nodes)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name: str | None = None) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


@contextlib.contextmanager
def no_grad():
    """Run a block without recording a graph; nesting and exceptions restore
    the previous state. The flag is one per process, shared by its threads."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _from_op(values, op: str, *inputs: tuple[Tensor, Adjoint],
             takes_row_adjoint: bool = False) -> Tensor:
    """Output of ``op`` on ``inputs``, each an (input, adjoint) pair whose
    adjoint maps the output's adjoint to that input's. Records a graph only
    when grad mode is on and some input requires a gradient; backward then
    runs the adjoints of those inputs only, in input order. Each adjoint
    gets the output's adjoint as a dense array; an op built with
    ``takes_row_adjoint`` gets a ``_RowAdjoint`` as it is."""
    out = Tensor(values)
    live = [(t, adjoint) for t, adjoint in inputs if t.requires_grad] if _grad_enabled else ()
    if live:
        def grad_fn(g):
            if not (takes_row_adjoint and isinstance(g, _RowAdjoint)):
                g = _dense(g, values)
            return [(t, adjoint(g)) for t, adjoint in live]

        out.requires_grad = True
        out._parents = tuple([t for t, _ in inputs])
        out._grad_fn = grad_fn
        out._op = op
    return out


def _check_elementwise(a, b, op: str) -> tuple[Tensor, Tensor]:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return a, b
    raise ValueError(f"{op}: shapes {a.shape} and {b.shape} are neither equal nor scalar")


def _fit(g: np.ndarray, ref: np.ndarray) -> np.ndarray:
    # Collapse the adjoint of a size-1 operand back to its shape.
    if g.shape == ref.shape:
        return g
    return np.asarray(np.sum(g)).reshape(ref.shape)


# -- elementwise ---------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _check_elementwise(a, b, "add")
    return _from_op(a.values + b.values, "add",
                    (a, lambda g: _fit(g, a.values)),
                    (b, lambda g: _fit(g, b.values)))


def sub(a, b) -> Tensor:
    a, b = _check_elementwise(a, b, "sub")
    return _from_op(a.values - b.values, "sub",
                    (a, lambda g: _fit(g, a.values)),
                    (b, lambda g: _fit(-g, b.values)))


def mul(a, b) -> Tensor:
    a, b = _check_elementwise(a, b, "mul")
    return _from_op(a.values * b.values, "mul",
                    (a, lambda g: _fit(g * b.values, a.values)),
                    (b, lambda g: _fit(g * a.values, b.values)))


def div(a, b) -> Tensor:
    a, b = _check_elementwise(a, b, "div")
    values = a.values / b.values
    return _from_op(values, "div",
                    (a, lambda g: _fit(g / b.values, a.values)),
                    (b, lambda g: _fit(-g * values / b.values, b.values)))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _from_op(np.maximum(a.values, 0.0), "relu", (a, lambda g: g * (a.values > 0)))


def sigmoid_values(x) -> np.ndarray:
    """Graph-free stable sigmoid on raw arrays."""
    # Branch on sign so exp never overflows; sigmoid(0) is exactly 0.5.
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    values = sigmoid_values(a.values)
    return _from_op(values, "sigmoid", (a, lambda g: g * values * (1.0 - values)))


def square(a) -> Tensor:
    a = as_tensor(a)
    return _from_op(np.square(a.values), "square", (a, lambda g: g * 2.0 * a.values))


def exp(a) -> Tensor:
    a = as_tensor(a)
    values = np.exp(a.values)
    return _from_op(values, "exp", (a, lambda g: g * values))


def bce_with_logits(z, target) -> Tensor:
    """Mean binary cross-entropy of sigmoid(z) against (possibly soft)
    targets of the same shape: mean(softplus(z) - target * z).

    softplus is max(z, 0) + log1p(exp(-|z|)), so the loss is finite and its
    gradient (sigmoid(z) - target) / n never vanishes on a confident
    mistake. A live ``target`` receives -z / n.
    """
    z, target = as_tensor(z), as_tensor(target)
    if z.shape != target.shape:
        raise ValueError(f"bce_with_logits: target shape {target.shape} "
                         f"!= logit shape {z.shape}")
    n = z.size
    softplus = np.maximum(z.values, 0.0) + np.log1p(np.exp(-np.abs(z.values)))
    return _from_op(np.sum(softplus - target.values * z.values) / n, "bce_with_logits",
                    (z, lambda g: g * (sigmoid_values(z.values) - target.values) / n),
                    (target, lambda g: g * -z.values / n))


# -- linear algebra and structure ----------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    return _from_op(a.values @ b.values, "matmul",
                    (a, lambda g: g @ b.values.T),
                    (b, lambda g: a.values.T @ g))


def _shared(build):
    """``build(g)`` for several adjoints of one op, built once per backward
    pass: ``get(g)`` builds it for a new adjoint ``g``, and ``take(g)``, for
    the op's last adjoint, also lets it go so the graph does not keep it."""
    memo = []

    def get(g):
        if not memo or memo[0] is not g:
            memo[:] = [g, build(g)]
        return memo[1]

    def take(g):
        value = get(g)
        memo.clear()
        return value

    return get, take


def _check_bias_row(b: Tensor, width: int, op: str) -> None:
    if b.shape != (1, width):
        raise ValueError(f"{op}: bias shape {b.shape} is not (1, {width})")


def linear(x, w, b) -> Tensor:
    """x @ w + b for a (1, width) bias row: one node for matmul plus bias."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"linear: cannot multiply {x.shape} by {w.shape}")
    _check_bias_row(b, w.shape[1], "linear")
    return _from_op(x.values @ w.values + b.values, "linear",
                    (x, lambda g: g @ w.values.T),
                    (w, lambda g: x.values.T @ g),
                    (b, lambda g: g.sum(axis=0, keepdims=True)))


def cross_layer(x0, x, w, b) -> Tensor:
    """One DCN cross layer, x0 * (x @ w) + b + x, for (n, D) rows ``x0`` and
    ``x``, a (D, 1) weight column ``w`` and a (1, D) bias row ``b``.

    The adjoints come in the order the unfused chain of matmul, broadcasts,
    mul and adds delivered them, ``x`` twice: in a first layer ``x`` is
    ``x0``, and this order sums its three terms as that chain did.
    """
    x0, x, w, b = as_tensor(x0), as_tensor(x), as_tensor(w), as_tensor(b)
    if x0.ndim != 2 or x.shape != x0.shape:
        raise ValueError(f"cross_layer expects equal 2-d rows, got {x0.shape} and {x.shape}")
    width = x0.shape[1]
    if w.shape != (width, 1):
        raise ValueError(f"cross_layer: weight shape {w.shape} is not ({width}, 1)")
    _check_bias_row(b, width, "cross_layer")
    s = x.values @ w.values
    # d out / d s, shared by the last two adjoints
    g_s, take_g_s = _shared(lambda g: (g * x0.values).sum(axis=1, keepdims=True))
    # x0 * s + b + x, in that order, with one (n, D) allocation
    out = x0.values * s
    out += b.values
    out += x.values
    return _from_op(out, "cross_layer",
                    (x, lambda g: g),
                    (b, lambda g: g.sum(axis=0, keepdims=True)),
                    (x0, lambda g: g * s),
                    (x, lambda g: g_s(g) @ w.values.T),
                    (w, lambda g: x.values.T @ take_g_s(g)))


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError(f"transpose expects a 2-d tensor, got shape {a.shape}")
    return _from_op(a.values.T, "transpose", (a, lambda g: g.T))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _from_op(np.reshape(a.values, shape), "reshape",
                    (a, lambda g: g.reshape(a.shape)))


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of zero tensors")
    values = np.concatenate([t.values for t in tensors], axis=axis)
    axis %= values.ndim
    stops = np.cumsum([t.shape[axis] for t in tensors])

    def piece(start, stop):
        index = (slice(None),) * axis + (slice(start, stop),)
        return lambda g: g[index]

    return _from_op(values, "concat", *((t, piece(stop - t.shape[axis], stop))
                                        for t, stop in zip(tensors, stops)))


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is not None:
        if not -a.ndim <= axis < a.ndim:
            raise ValueError(f"reduce_sum: axis {axis} out of range for shape {a.shape}")
        axis = axis % a.ndim

    def adjoint(g):
        gg = np.asarray(g)
        if not keepdims:
            if axis is None:
                gg = gg.reshape((1,) * a.ndim)
            else:
                gg = np.expand_dims(gg, axis)
        return np.broadcast_to(gg, a.shape)

    return _from_op(_axis_sum(a.values, axis, keepdims), "reduce_sum", (a, adjoint))


def _axis_sum(x: np.ndarray, axis: int | None, keepdims: bool) -> np.ndarray:
    """``np.sum(x, axis, keepdims=keepdims)``, bit for bit. Over an axis of a
    C-contiguous array with more than one element after it, numpy adds the
    axis's slices in order onto 0.0, with an inner loop only as long as the
    elements after the axis (4 for xDeepFM's pooled maps); whole-slice adds
    in the same order run about 3x faster. Any other reduction may sum
    pairwise, so numpy keeps it."""
    if (axis is None or not x.flags.c_contiguous or x.shape[axis] == 0
            or math.prod(x.shape[axis + 1:]) < 2):
        return np.sum(x, axis=axis, keepdims=keepdims)
    lead = (slice(None),) * axis
    out = x[lead + (0,)] + 0.0  # -0.0 + 0.0 is 0.0, as numpy's start gives
    for k in range(1, x.shape[axis]):
        out += x[lead + (k,)]
    return np.expand_dims(out, axis) if keepdims else out


def _scatter_add(index: np.ndarray, g: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, width) sums of the rows of ``g`` by ``index``, as
    ``np.add.at`` gives them: one ``bincount`` over the flat cell numbers
    adds each cell's terms in index order, from +0.0."""
    width = g.shape[1]
    cells = (index.astype(np.intp)[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(cells, weights=g.ravel(), minlength=n_rows * width)
    # an empty index gives integer zeros
    return out.astype(np.float64, copy=False).reshape(n_rows, width)


def _checked_index(indices, n_rows: int, where: str) -> np.ndarray:
    """``indices`` as a 1-d integer array, every entry a row of an
    ``n_rows``-row table. Checked before anything is gathered: ``np.take``
    would wrap a negative index round to the table's end."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError(f"{where} needs a 1-d integer index array")
    if idx.size:
        low, high = idx.min(), idx.max()
        if low < 0 or high >= n_rows:
            bad = low if low < 0 else high
            position = int(np.argmax(idx == bad))
            raise IndexError(f"{where}: index {bad} at position {position} is out of "
                             f"range for a table of {n_rows} rows")
    return idx


def _scatter(idx: np.ndarray, n_rows: int) -> Adjoint:
    """The adjoint of gathering rows ``idx`` from an ``n_rows``-row table.

    A table with at least twice as many rows as indices gets a ``RowGrad``,
    any other table the dense scatter. Each touched row sums the same terms
    in the same order from +0.0 either way, so the two agree bit for bit.
    """
    def adjoint(g):
        if 2 * idx.size > n_rows:
            return _scatter_add(idx, g, n_rows)
        # one slot per table row: mark the touched rows, then number them
        slot = np.zeros(n_rows, dtype=np.intp)
        slot[idx] = 1
        touched = np.flatnonzero(slot)
        slot[touched] = np.arange(touched.size)
        return RowGrad(touched, _scatter_add(slot[idx], g, touched.size))

    return adjoint


def _check_table(table: Tensor, op: str) -> None:
    if table.ndim != 2:
        raise ValueError(f"{op} expects a 2-d table, got shape {table.shape}")


def rows(table, indices) -> Tensor:
    """Gather rows of a 2-d table; backward scatter-adds into the table."""
    table = as_tensor(table)
    _check_table(table, "rows")
    idx = _checked_index(indices, table.shape[0], "rows")
    return _from_op(np.take(table.values, idx, axis=0), "rows",
                    (table, _scatter(idx, table.shape[0])))


def _field_inputs(tables, cat, num, op: str):
    """``tables`` as tensors, ``num`` as float64 and each field's checked
    index column, for an op that gathers row ``cat[:, i]`` of table i."""
    tables = [as_tensor(t) for t in tables]
    cat = np.asarray(cat)
    num = np.asarray(num, dtype=np.float64)
    if cat.ndim != 2 or cat.shape[1] != len(tables):
        raise ValueError(f"{op}: cat of shape {cat.shape} does not have "
                         f"one column per table ({len(tables)})")
    if num.ndim != 2 or num.shape[0] != cat.shape[0]:
        raise ValueError(f"{op}: num of shape {num.shape} does not have "
                         f"{cat.shape[0]} rows")
    for t in tables:
        _check_table(t, op)
    index = [_checked_index(cat[:, i], t.shape[0], f"{op} field {i}")
             for i, t in enumerate(tables)]
    return tables, num, index


def field_row(tables, cat, num) -> Tensor:
    """One input row per example: field i's row ``cat[:, i]`` of ``tables[i]``
    in its own column slice, then the numeric columns ``num``.

    It is one node for what per-field ``rows`` and a ``concat`` compute, and
    each table's adjoint is the scatter ``rows`` gives that table's column
    slice of the output's adjoint, so values and gradients agree bit for bit.
    """
    tables, num, index = _field_inputs(tables, cat, num, "field_row")
    stops = np.cumsum([0] + [t.shape[1] for t in tables])
    fields = list(zip(tables, index, stops[:-1], stops[1:]))
    out = np.empty((cat.shape[0], stops[-1] + num.shape[1]))
    for t, idx, start, stop in fields:
        # a gather then a copy: np.take straight into the strided slice is slower
        out[:, start:stop] = np.take(t.values, idx, axis=0)
    out[:, stops[-1]:] = num

    def piece(scatter, start, stop):
        return lambda g: scatter(g.columns(start, stop) if isinstance(g, _RowAdjoint)
                                 else g[:, start:stop])

    return _from_op(out, "field_row", *((t, piece(_scatter(idx, t.shape[0]), start, stop))
                                        for t, idx, start, stop in fields), takes_row_adjoint=True)


def linear_sum(tables, cat, num, w, b) -> Tensor:
    """The logit column b + sum_i tables[i][cat[:, i]] + num @ w of an LR part,
    for (v_i, 1) tables, an (n, 1) weight ``w`` (None when there are no
    numerics) and a (1, 1) bias ``b``.

    One node for the chain of per-field ``rows`` and ``add`` nodes: the value
    adds the terms in that chain's order, and every input's adjoint is the
    one the chain gave it (the scatter of ``rows``, ``num.T @ g``, the sum of
    ``g``)."""
    tables, num, index = _field_inputs(tables, cat, num, "linear_sum")
    b = as_tensor(b)
    if b.shape != (1, 1) or any(t.shape[1] != 1 for t in tables):
        raise ValueError("linear_sum expects (v, 1) tables and a (1, 1) bias")
    if w is not None:
        w = as_tensor(w)
        if w.shape != (num.shape[1], 1):
            raise ValueError(f"linear_sum: weight shape {w.shape} is not ({num.shape[1]}, 1)")
    elif num.shape[1]:
        raise ValueError("linear_sum: numeric columns need a weight")
    if not tables and w is None:
        raise ValueError("linear_sum of no inputs")
    terms = [np.take(t.values, idx, axis=0) for t, idx in zip(tables, index)]
    if w is not None:
        terms.append(num @ w.values)
    out = b.values + terms[0]
    for term in terms[1:]:
        out += term
    inputs = [(b, lambda g: _fit(g, b.values))]
    inputs += [(t, _scatter(idx, t.shape[0])) for t, idx in zip(tables, index)]
    if w is not None:
        inputs.append((w, lambda g: num.T @ g))
    return _from_op(out, "linear_sum", *inputs)


def _field_vectors(row, num, projs, width: int, op: str):
    """The m field vectors that FM and CIN read: the d-wide column slices of
    the first F·d columns of a ``field_row`` row, then num[:, j:j+1] @
    projs[j] for each numeric column, as views and fresh arrays."""
    row, projs = as_tensor(row), [as_tensor(p) for p in projs]
    num = np.asarray(num, dtype=np.float64)
    if row.ndim != 2 or num.ndim != 2 or num.shape != (row.shape[0], len(projs)):
        raise ValueError(f"{op}: num of shape {num.shape} needs {row.shape[0]} rows "
                         f"and one column per projection ({len(projs)})")
    fields, rest = divmod(row.shape[1] - num.shape[1], max(width, 1))
    if width < 1 or fields < 0 or rest:
        raise ValueError(f"{op}: a row of width {row.shape[1]} is not d = {width} wide "
                         f"fields then {num.shape[1]} numerics")
    if any(p.shape != (1, width) for p in projs):
        raise ValueError(f"{op}: every projection must have shape (1, {width})")
    if fields + len(projs) == 0:
        raise ValueError(f"{op} of no fields")
    vectors = [row.values[:, i * width:(i + 1) * width] for i in range(fields)]
    vectors += [num[:, j:j + 1] @ p.values for j, p in enumerate(projs)]
    return row, projs, num, fields, vectors


class _RowAdjoint(NamedTuple):
    """An op's adjoint of the (B, W) row it reads as d-wide field slices,
    left unbuilt. ``terms(i)`` gives field slice i's terms in the order the
    per-field chain added them; the numeric columns are zero. After ``acc``,
    an adjoint the row received before it, each slice is acc's slice plus
    the terms, left to right. ``field_row`` asks for one field's columns at
    a time, so the sum is never built as a row-sized array; ``dense``
    builds it for any other reader."""

    terms: Callable[[int], tuple[np.ndarray, ...]]
    shape: tuple[int, int]
    width: int
    fields: int
    acc: np.ndarray | None = None

    def columns(self, start: int, stop: int) -> np.ndarray:
        """Columns start:stop of the sum, never written to: built alone when
        they are one field slice, else cut from the whole row."""
        field, rest = divmod(start, self.width)
        if rest or stop != start + self.width or field >= self.fields:
            return self.dense(None)[:, start:stop]
        terms = self.terms(field)
        if self.acc is not None:
            terms = (self.acc[:, start:stop], *terms)
        out = terms[0] if len(terms) == 1 else terms[0] + terms[1]
        for term in terms[2:]:
            out += term
        return out

    def dense(self, like) -> np.ndarray:
        out = np.zeros(self.shape)
        span = self.fields * self.width
        for start in range(0, span, self.width):
            out[:, start:start + self.width] = self.columns(start, start + self.width)
        if self.acc is not None:
            out[:, span:] += self.acc[:, span:]
        return out


def fm_pair(row, num, projs, width: int) -> Tensor:
    """The FM pair term 0.5 * ((sum v)^2 - sum v^2), shape (B, d), over the
    field vectors v of a ``field_row`` row with d = ``width``: its F field
    slices, then num[:, j:j+1] @ projs[j] for each (1, d) projection. The
    row's numeric columns are not read.

    One node for the chain of ``add``, ``square``, ``sub`` and ``mul`` nodes
    over per-field vectors, with its bits. Each sum is built slice by slice,
    in place and in field order. A vector's adjoint is g·S − g·v, with S the
    sum; the row's is a ``_RowAdjoint`` whose terms in field slice i are
    −g·vᵢ then g·S (field 0: g·S then −g·v₀), the order the chain added
    them to the row's other adjoint.
    """
    row, projs, num, fields, vectors = _field_vectors(row, num, projs, width, "fm_pair")
    total = vectors[0].copy()
    total_sq = np.square(vectors[0])
    square = np.empty_like(total)
    for v in vectors[1:]:
        total += v
        total_sq += np.square(v, out=square)
    pair = np.square(total)
    pair -= total_sq
    pair *= 0.5

    def build(g):
        # −g and g·S as the chain rounded them, through its 0.5 and 2.0
        g = g * 0.5 * 2.0
        return -g, g * total

    terms, take_terms = _shared(build)

    def proj_adjoint(j: int):
        def adjoint(g):
            g_minus, g_total = terms(g)
            return num[:, j:j + 1].T @ (g_minus * vectors[fields + j] + g_total)
        return adjoint

    def row_adjoint(g):
        g_minus, g_total = take_terms(g)
        return _RowAdjoint(lambda i: (g_total, g_minus * vectors[0]) if i == 0
                           else (g_minus * vectors[i], g_total), row.shape, width, fields)

    return _from_op(pair, "fm_pair", *((p, proj_adjoint(j)) for j, p in enumerate(projs)),
                    (row, row_adjoint))


def cin_maps(row, num, projs, width: int) -> Tensor:
    """xDeepFM's base feature maps X^0 as one (B·d, m) matrix: column k is
    field vector k (as in ``fm_pair``) flattened over (B, d). One node for
    the per-field ``reshape`` nodes and their ``concat``, with their bits.
    The row's adjoint is a ``_RowAdjoint``: in field slice i, g's column i."""
    row, projs, num, fields, vectors = _field_vectors(row, num, projs, width, "cin_maps")
    n, m, span = row.shape[0], len(vectors), fields * width
    out = np.empty((n * width, m))
    maps = out.reshape(n, width, m)
    maps[:, :, :fields] = row.values[:, :span].reshape(n, fields, width).transpose(0, 2, 1)
    for j in range(len(projs)):
        maps[:, :, fields + j] = vectors[fields + j]

    def row_adjoint(g):
        g = g.reshape(n, width, m)
        return _RowAdjoint(lambda i: (g[:, :, i],), row.shape, width, fields)

    def proj_adjoint(j: int):
        k = fields + j
        return lambda g: num[:, j:j + 1].T @ g[:, k:k + 1].reshape(n, width)

    return _from_op(out, "cin_maps", (row, row_adjoint),
                    *((p, proj_adjoint(j)) for j, p in enumerate(projs)))


def cin_layer(prev, fmat, w) -> Tensor:
    """One compressed-interaction (CIN) layer over rows of field vectors.

    out[:, k] = sum_{i,j} w[k, i*m + j] * prev[:, i] * fmat[:, j] for
    ``prev`` with H columns (the previous layer's maps), ``fmat`` with m
    columns (the base maps) and ``w`` of shape (h, H*m). ``w`` meets the
    base maps first, V = fmat @ W' with W'[j, k*H + i] = w[k, i*m + j], and
    V*prev is then summed over H, so no (rows, H*m) product is built.
    """
    prev, fmat, w = as_tensor(prev), as_tensor(fmat), as_tensor(w)
    if prev.ndim != 2 or fmat.ndim != 2 or prev.shape[0] != fmat.shape[0]:
        raise ValueError(f"cin_layer expects equal-row 2-d maps, "
                         f"got {prev.shape} and {fmat.shape}")
    n, H = prev.shape
    m = fmat.shape[1]
    if w.ndim != 2 or w.shape[1] != H * m:
        raise ValueError(f"cin_layer: weight shape {w.shape} is not (h, {H * m})")
    h = w.shape[0]
    w_prime = w.values.reshape(h, H, m).transpose(2, 0, 1).reshape(m, h * H)
    v = (fmat.values @ w_prime).reshape(n, h, H)

    # d out / d V: g outer prev, flattened like V; shared by the last two adjoints
    g_v, take_g_v = _shared(
        lambda g: (g[:, :, None] * prev.values[:, None, :]).reshape(n, h * H))
    return _from_op(np.einsum("nki,ni->nk", v, prev.values), "cin_layer",
                    (prev, lambda g: np.einsum("nk,nki->ni", g, v)),
                    (fmat, lambda g: g_v(g) @ w_prime.T),
                    (w, lambda g: (fmat.values.T @ take_g_v(g)).reshape(m, h, H)
                     .transpose(1, 2, 0).reshape(h, H * m)))


def dropout(a, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: kept entries scale by 1/(1-rate); eval is identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    a = as_tensor(a)
    if not training or rate == 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in training mode needs an explicit rng")
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return _from_op(a.values * mask, "dropout", (a, lambda g: g * mask))
