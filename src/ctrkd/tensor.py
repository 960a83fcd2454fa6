"""Minimal dense tensors with reverse-mode gradient accumulation.

Every op records its inputs and a backward closure on the output tensor.
``Tensor.backward()`` replays the recorded ops in exact reverse execution
order and accumulates adjoints, so a tensor used several times receives
the sum of the gradients from all of its uses, and calling backward twice
without clearing grads yields exactly twice the single-pass gradient.
Only leaves (tensors no op produced, such as parameters) keep a ``.grad``;
an intermediate adjoint is handed to the op's inputs and then dropped.

Inside a ``no_grad()`` block ops record nothing: they compute the same
values, but their outputs have no parents and ``requires_grad`` False, so
inference builds no graph.

Shape discipline is deliberately strict: elementwise ops accept equal
shapes or a size-1 operand, nothing else. Structural ops (``expand``,
``concat``, ``reshape``, ...) make every shape change explicit.
"""
from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Sequence

import numpy as np

# Monotonic creation counter; creation order is execution order, so
# descending order is the replay order for adjoints.
_seq_counter = itertools.count()

# False inside no_grad(): ops then record no parents and no backward closure.
_grad_enabled = True

GradFn = Callable[[np.ndarray], list[tuple["Tensor", np.ndarray]]]


def _as_values(data) -> np.ndarray:
    if isinstance(data, Tensor):
        raise TypeError("expected raw array data, got a Tensor")
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """Dense numeric array with shape, values, and an optional grad slot."""

    __slots__ = ("values", "grad", "requires_grad", "name",
                 "_parents", "_grad_fn", "_op", "_seq")

    def __init__(self, data, requires_grad: bool = False,
                 name: str | None = None):
        self.values = _as_values(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: GradFn | None = None
        self._op: str | None = None
        self._seq = next(_seq_counter)

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
        return float(self.values.reshape(-1)[0]) if self.size == 1 else _scalar_err(self)

    def zero_grad(self) -> None:
        self.grad = None

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
                # zeros plus g rather than a copy of g: 0.0 + -0.0 is +0.0
                if t.grad is None:
                    t.grad = np.zeros_like(t.values)
                t.grad += g
            else:
                for parent, pg in t._grad_fn(g):
                    acc = adjoints.get(id(parent))
                    adjoints[id(parent)] = pg if acc is None else acc + pg

    # -- operators -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{tag})"


def _scalar_err(t):
    raise ValueError(f"item() requires a single-element tensor, got shape {t.shape}")


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


def _from_op(values, parents: Sequence[Tensor], grad_fn: GradFn, op: str) -> Tensor:
    out = Tensor(values)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
        out._op = op
    return out


def _check_elementwise(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ValueError(f"{op}: shapes {a.shape} and {b.shape} are neither equal nor scalar")


def _fit(g: np.ndarray, ref: np.ndarray) -> np.ndarray:
    # Collapse the adjoint of a size-1 operand back to its shape.
    if g.shape == ref.shape:
        return g
    return np.asarray(np.sum(g)).reshape(ref.shape)


# -- elementwise ---------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a, b, "add")
    values = a.values + b.values

    def grad_fn(g):
        out = []
        if a.requires_grad:
            out.append((a, _fit(g, a.values)))
        if b.requires_grad:
            out.append((b, _fit(g, b.values)))
        return out

    return _from_op(values, (a, b), grad_fn, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a, b, "sub")
    values = a.values - b.values

    def grad_fn(g):
        out = []
        if a.requires_grad:
            out.append((a, _fit(g, a.values)))
        if b.requires_grad:
            out.append((b, _fit(-g, b.values)))
        return out

    return _from_op(values, (a, b), grad_fn, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a, b, "mul")
    values = a.values * b.values

    def grad_fn(g):
        out = []
        if a.requires_grad:
            out.append((a, _fit(g * b.values, a.values)))
        if b.requires_grad:
            out.append((b, _fit(g * a.values, b.values)))
        return out

    return _from_op(values, (a, b), grad_fn, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_elementwise(a, b, "div")
    values = a.values / b.values

    def grad_fn(g):
        out = []
        if a.requires_grad:
            out.append((a, _fit(g / b.values, a.values)))
        if b.requires_grad:
            out.append((b, _fit(-g * values / b.values, b.values)))
        return out

    return _from_op(values, (a, b), grad_fn, "div")


def neg(a) -> Tensor:
    a = as_tensor(a)

    def grad_fn(g):
        return [(a, -g)] if a.requires_grad else []

    return _from_op(-a.values, (a,), grad_fn, "neg")


def relu(a) -> Tensor:
    a = as_tensor(a)
    values = np.maximum(a.values, 0.0)

    def grad_fn(g):
        return [(a, g * (a.values > 0))] if a.requires_grad else []

    return _from_op(values, (a,), grad_fn, "relu")


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # Branch on sign so exp never overflows; sigmoid(0) is exactly 0.5.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    values = _sigmoid_values(a.values)

    def grad_fn(g):
        return [(a, g * values * (1.0 - values))] if a.requires_grad else []

    return _from_op(values, (a,), grad_fn, "sigmoid")


def sigmoid_values(x) -> np.ndarray:
    """Graph-free stable sigmoid on raw arrays."""
    return _sigmoid_values(np.asarray(x, dtype=np.float64))


def square(a) -> Tensor:
    a = as_tensor(a)

    def grad_fn(g):
        return [(a, g * 2.0 * a.values)] if a.requires_grad else []

    return _from_op(np.square(a.values), (a,), grad_fn, "square")


def exp(a) -> Tensor:
    a = as_tensor(a)
    values = np.exp(a.values)

    def grad_fn(g):
        return [(a, g * values)] if a.requires_grad else []

    return _from_op(values, (a,), grad_fn, "exp")


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
    values = np.sum(softplus - target.values * z.values) / n

    def grad_fn(g):
        out = []
        if z.requires_grad:
            out.append((z, g * (_sigmoid_values(z.values) - target.values) / n))
        if target.requires_grad:
            out.append((target, g * -z.values / n))
        return out

    return _from_op(values, (z, target), grad_fn, "bce_with_logits")


# -- linear algebra and structure ----------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    values = a.values @ b.values

    def grad_fn(g):
        out = []
        if a.requires_grad:
            out.append((a, g @ b.values.T))
        if b.requires_grad:
            out.append((b, a.values.T @ g))
        return out

    return _from_op(values, (a, b), grad_fn, "matmul")


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError(f"transpose expects a 2-d tensor, got shape {a.shape}")

    def grad_fn(g):
        return [(a, g.T)] if a.requires_grad else []

    return _from_op(a.values.T, (a,), grad_fn, "transpose")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    values = np.reshape(a.values, shape)

    def grad_fn(g):
        return [(a, g.reshape(a.shape))] if a.requires_grad else []

    return _from_op(values, (a,), grad_fn, "reshape")


def expand(a, shape) -> Tensor:
    """Explicit broadcast of size-1 axes up to ``shape``."""
    a = as_tensor(a)
    shape = tuple(shape)
    if len(shape) != a.ndim or any(
            s != d and d != 1 for s, d in zip(shape, a.shape)):
        raise ValueError(f"cannot expand shape {a.shape} to {shape}")
    axes = tuple(i for i, (s, d) in enumerate(zip(shape, a.shape)) if d == 1 and s != 1)
    values = np.broadcast_to(a.values, shape)

    def grad_fn(g):
        return [(a, g.sum(axis=axes, keepdims=True))] if a.requires_grad else []

    return _from_op(values, (a,), grad_fn, "expand")


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of zero tensors")
    values = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        pieces = np.split(g, offsets, axis=axis)
        return [(t, p) for t, p in zip(tensors, pieces) if t.requires_grad]

    return _from_op(values, tuple(tensors), grad_fn, "concat")


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError(f"slice_cols expects a 2-d tensor, got shape {a.shape}")
    if not (0 <= start < stop <= a.shape[1]):
        raise ValueError(f"slice_cols: [{start}:{stop}] out of range for {a.shape}")
    values = a.values[:, start:stop]

    def grad_fn(g):
        if not a.requires_grad:
            return []
        full = np.zeros_like(a.values)
        full[:, start:stop] = g
        return [(a, full)]

    return _from_op(values, (a,), grad_fn, "slice_cols")


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is not None:
        if not -a.ndim <= axis < a.ndim:
            raise ValueError(f"reduce_sum: axis {axis} out of range for shape {a.shape}")
        axis = axis % a.ndim
    values = np.sum(a.values, axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if not a.requires_grad:
            return []
        gg = np.asarray(g)
        if not keepdims:
            if axis is None:
                gg = gg.reshape((1,) * a.ndim)
            else:
                gg = np.expand_dims(gg, axis)
        return [(a, np.broadcast_to(gg, a.shape))]

    return _from_op(values, (a,), grad_fn, "reduce_sum")


def rows(table, indices) -> Tensor:
    """Gather rows of a 2-d table; backward scatter-adds into the table."""
    table = as_tensor(table)
    if table.ndim != 2:
        raise ValueError(f"rows expects a 2-d table, got shape {table.shape}")
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError("rows expects a 1-d integer index array")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"row index out of range for table with {table.shape[0]} rows")
    values = table.values[idx]

    def grad_fn(g):
        if not table.requires_grad:
            return []
        full = np.zeros_like(table.values)
        np.add.at(full, idx, g)
        return [(table, full)]

    return _from_op(values, (table,), grad_fn, "rows")


def pairwise_mul(a, b) -> Tensor:
    """All column products of two equal-row matrices.

    out[:, i*m + j] = a[:, i] * b[:, j] for a with h columns and b with m
    columns; the workhorse of compressed-interaction layers.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError(f"pairwise_mul expects equal-row 2-d tensors, "
                         f"got {a.shape} and {b.shape}")
    n, h = a.shape
    m = b.shape[1]
    values = (a.values[:, :, None] * b.values[:, None, :]).reshape(n, h * m)

    def grad_fn(g):
        g3 = g.reshape(n, h, m)
        out = []
        if a.requires_grad:
            # Not einsum or matmul: both sum the last axis in another order
            # than numpy's pairwise sum, which changes low bits and with
            # them xDeepFM's training trajectory.
            out.append((a, (g3 * b.values[:, None, :]).sum(axis=2)))
        if b.requires_grad:
            # Both forms add the h products in order; with m == 1 the summed
            # axis is the innermost one, which numpy sums pairwise and
            # einsum does not, so that case keeps the reference form.
            out.append((b, np.einsum("nij,ni->nj", g3, a.values) if m > 1
                        else (g3 * a.values[:, :, None]).sum(axis=1)))
        return out

    return _from_op(values, (a, b), grad_fn, "pairwise_mul")


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
    values = a.values * mask

    def grad_fn(g):
        return [(a, g * mask)] if a.requires_grad else []

    return _from_op(values, (a,), grad_fn, "dropout")
