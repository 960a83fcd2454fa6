import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctrkd import tensor as T
from ctrkd.tensor import Tensor, parameter

from gradcheck import check_grads, max_rel_err, numeric_grad


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(T.matmul(a, b).values, b.values)


def test_matmul_hand_value():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.values.tolist() == [[11.0]]


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_matmul_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = parameter(rng.normal(size=(3, 4)), "a")
    b = parameter(rng.normal(size=(4, 2)), "b")
    check_grads(lambda: T.reduce_sum(T.matmul(a, b)), [a, b], tol=1e-6)


def test_sigmoid_exact_points():
    assert T.sigmoid(Tensor([0.0])).values[0] == 0.5
    assert T.sigmoid(Tensor([np.log(3.0)])).values[0] == pytest.approx(0.75, abs=1e-15)


def test_sigmoid_saturation_is_finite():
    v = T.sigmoid(Tensor([-1000.0, 1000.0])).values
    assert np.all(np.isfinite(v))
    assert v[0] == 0.0 and v[1] == 1.0


def test_relu_values():
    out = T.relu(Tensor([-3.0, 3.0]))
    assert out.values.tolist() == [0.0, 3.0]


def test_elementwise_rejects_incompatible_shapes():
    with pytest.raises(ValueError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ValueError):
        T.mul(Tensor(np.zeros((4, 1))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ValueError):
        T.bce_with_logits(Tensor(np.zeros((4, 1))), Tensor(np.zeros(4)))


def test_scalar_broadcast_both_sides():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(T.mul(t, 2.0).values, t.values * 2)
    np.testing.assert_array_equal(T.sub(10.0, t).values, 10.0 - t.values)
    w = parameter([[2.0]], "w")
    out = T.reduce_sum(T.mul(t, w))
    out.backward()
    assert w.grad[0, 0] == t.values.sum()


def test_reduce_sum_values_and_axis():
    t = Tensor([1.0, 2.0, 3.0])
    assert T.reduce_sum(t).item() == 6.0
    assert T.reduce_sum(Tensor(np.zeros(5))).item() == 0.0
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(T.reduce_sum(m, axis=1).values, [3.0, 7.0])
    with pytest.raises(ValueError):
        T.reduce_sum(m, axis=2)


def test_reduce_sum_backward_broadcasts():
    w = parameter(np.arange(6, dtype=float).reshape(2, 3), "w")
    T.reduce_sum(T.reduce_sum(w, axis=0)).backward()
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


@pytest.mark.parametrize("shape", [(2000, 8, 4), (7, 1, 3), (7, 2, 3), (5, 2, 1),
                                   (6, 40, 1), (6, 40, 2), (1, 130, 3), (3, 5, 2, 4),
                                   (4, 9, 1, 1), (0, 3, 4), (3, 0, 4)])
def test_reduce_sum_over_a_middle_axis_is_bitwise_np_sum(shape):
    # magnitudes over 16 decades make the summation order show in the bits;
    # a slice of all -0.0 sums to +0.0 from numpy's start value
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    x[rng.random(shape) < 0.2] = -0.0
    x[:1] = -0.0
    # the last layout keeps axis 1 innermost in memory, where numpy sums pairwise
    inner = np.swapaxes(np.swapaxes(x, 1, -1).copy(), 1, -1)
    for values in (x, np.asfortranarray(x), x[::-1], inner):
        for axis in range(1, len(shape) - 1):
            for keepdims in (False, True):
                want = np.sum(values, axis=axis, keepdims=keepdims)
                got = T.reduce_sum(Tensor(values), axis=axis, keepdims=keepdims).values
                with T.no_grad():
                    again = T.reduce_sum(Tensor(values), axis=axis, keepdims=keepdims).values
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert again.tobytes() == want.tobytes()


def test_reduce_sum_over_a_middle_axis_gradcheck():
    rng = np.random.default_rng(3)
    w = parameter(rng.normal(size=(3, 4, 2)), "w")
    for keepdims in (False, True):
        mix = Tensor(rng.normal(size=(3, 1, 2) if keepdims else (3, 2)))
        check_grads(lambda: T.reduce_sum(T.square(T.mul(
            T.reduce_sum(w, axis=1, keepdims=keepdims), mix))), [w], tol=1e-6)


def test_dropout_rate_zero_and_eval_are_identity():
    t = Tensor(np.ones((3, 3)))
    assert T.dropout(t, 0.0, training=True, rng=np.random.default_rng(0)) is t
    assert T.dropout(t, 0.5, training=False) is t


def test_dropout_rejects_bad_rate():
    t = Tensor(np.ones(2))
    with pytest.raises(ValueError):
        T.dropout(t, 1.0, training=True, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="explicit rng"):
        T.dropout(t, 0.5, training=True)


def test_dropout_preserves_mean():
    # Law of large numbers: inverted scaling keeps the expectation at 1.
    rng = np.random.default_rng(123)
    t = Tensor(np.ones(100_000))
    out = T.dropout(t, 0.5, training=True, rng=rng)
    assert abs(out.values.mean() - 1.0) < 0.02


def test_dropout_backward_uses_same_mask():
    rng = np.random.default_rng(5)
    w = parameter(np.ones(1000), "w")
    out = T.dropout(w, 0.3, training=True, rng=rng)
    T.reduce_sum(out).backward()
    np.testing.assert_array_equal(w.grad, out.values)


def test_backward_sum_gives_ones():
    w = parameter([1.0, 2.0, 3.0], "w")
    T.reduce_sum(w).backward()
    np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    w = parameter([1.0, 2.0], "w")
    T.reduce_sum(T.square(w)).backward()
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    w = parameter([1.0, 2.0], "w")
    with pytest.raises(ValueError):
        T.square(w).backward()
    with pytest.raises(ValueError, match="single-element"):
        w.item()


def test_a_tensor_is_built_from_raw_values_only():
    t = Tensor([1.0])
    with pytest.raises(TypeError, match="got a Tensor"):
        Tensor(t)
    assert T.as_tensor(t) is t


def test_backward_accumulates_exactly_twice():
    rng = np.random.default_rng(11)
    w = parameter(rng.normal(size=(4, 3)), "w")
    x = Tensor(rng.normal(size=(2, 4)))

    def loss():
        return T.reduce_sum(T.sigmoid(T.matmul(x, w)))

    loss().backward()
    once = w.grad.copy()
    loss().backward()
    np.testing.assert_array_equal(w.grad, 2.0 * once)


def test_backward_without_a_graph_raises():
    # no parameter reaches the output, so there is nothing to differentiate
    with pytest.raises(ValueError, match="no_grad"):
        T.reduce_sum(Tensor(np.ones(3))).backward()
    w = parameter([1.0, 2.0], "w")
    with T.no_grad():
        loss = T.reduce_sum(T.square(w))
    with pytest.raises(ValueError, match="no_grad"):
        loss.backward()
    assert w.grad is None


def test_no_grad_records_no_graph():
    rng = np.random.default_rng(2)
    w = parameter(rng.normal(size=(4, 3)), "w")
    x = Tensor(rng.normal(size=(2, 4)))
    c = parameter(rng.normal(size=(2, 9)), "c")
    live = T.sigmoid(T.matmul(x, w))
    with T.no_grad():
        outs = [T.matmul(x, w), T.add(w, w), T.square(w), T.rows(w, np.array([0, 2])),
                T.field_row([w], np.array([[1], [3]]), np.ones((2, 1))),
                T.cin_layer(w, w, c), T.reduce_sum(w), T.sigmoid(T.matmul(x, w))]
    for out in outs:
        assert not out.requires_grad
        assert out._parents == () and out._grad_fn is None
    np.testing.assert_array_equal(outs[-1].values, live.values)
    assert T.matmul(x, w).requires_grad


def test_no_grad_restores_the_flag_after_nesting_and_errors():
    w = parameter([1.0], "w")
    with T.no_grad():
        with T.no_grad():
            assert not T.mul(w, 2.0).requires_grad
        assert not T.mul(w, 2.0).requires_grad
    assert T.mul(w, 2.0).requires_grad
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("inside")
    assert T.mul(w, 2.0).requires_grad


def _replayed_leaf_grads(root):
    """Reference replay that stores a gradient on every node it reaches."""
    grads = {}
    adjoints = {id(root): np.ones_like(root.values)}
    for t in reversed(T.ComputationRecord.trace(root).nodes):
        g = adjoints.pop(id(t), None)
        if g is None:
            continue
        grads.setdefault(id(t), np.zeros_like(t.values))
        grads[id(t)] += g
        if t._grad_fn is not None:
            for parent, pg in t._grad_fn(g):
                acc = adjoints.get(id(parent))
                adjoints[id(parent)] = pg if acc is None else acc + pg
    return grads


def test_only_leaves_keep_grad():
    rng = np.random.default_rng(4)
    a = parameter(rng.normal(size=(5, 3)), "a")
    b = parameter(rng.normal(size=(5, 4)), "b")
    w = parameter(rng.normal(size=(2, 12)), "w")
    v = parameter(rng.normal(size=(3, 2)), "v")
    c = parameter(rng.normal(size=(1, 2)), "c")
    z = T.cin_layer(a, b, w)
    h = T.relu(T.add(z, T.linear(a, v, c)))
    loss = T.reduce_sum(T.mul(T.sigmoid(h), h))
    intermediates = [z, h, loss]
    expected = _replayed_leaf_grads(loss)
    loss.backward()
    assert all(t.grad is None for t in intermediates)
    for p in (a, b, w, v, c):
        assert p.grad.tobytes() == expected[id(p)].tobytes(), p.name


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 3, 4), (6, 1, 4), (6, 3, 1), (2, 9, 1),
                                   (7, 5, 6), (16000, 8, 8), (16000, 4, 8)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_cin_layer_matches_the_product_form(shape):
    # rows x previous maps x base maps; the layer has 3 output maps
    n, H, m = shape
    rng = np.random.default_rng(n * 100 + H * 10 + m)
    prev, fmat = rng.normal(size=(n, H)), rng.normal(size=(n, m))
    w = rng.normal(size=(3, H * m))
    g = rng.normal(size=(n, 3))
    out = T.cin_layer(parameter(prev), parameter(fmat), parameter(w))
    [(_, g_prev), (_, g_fmat), (_, g_w)] = out._grad_fn(g)
    z = (prev[:, :, None] * fmat[:, None, :]).reshape(n, H * m)  # column i*m + j
    gz = (g @ w).reshape(n, H, m)
    close = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.values, z @ w.T, **close)
    np.testing.assert_allclose(g_prev, (gz * fmat[:, None, :]).sum(axis=2), **close)
    np.testing.assert_allclose(g_fmat, (gz * prev[:, :, None]).sum(axis=1), **close)
    np.testing.assert_allclose(g_w, g.T @ z, **close)


def test_multi_input_ops_run_the_adjoints_of_live_inputs_only():
    # (op, input shapes); size-1 operands exercise the elementwise reduction
    ops = {
        "add": (T.add, [(3, 4), (3, 4)]),
        "sub": (T.sub, [(3, 4), (1, 1)]),
        "mul": (T.mul, [(1, 1), (3, 4)]),
        "div": (T.div, [(3, 4), (3, 4)]),
        "matmul": (T.matmul, [(3, 4), (4, 2)]),
        "linear": (T.linear, [(3, 4), (4, 2), (1, 2)]),
        "bce_with_logits": (T.bce_with_logits, [(3, 1), (3, 1)]),
        "concat": (lambda *ts: T.concat(ts, axis=1), [(3, 2), (3, 1), (3, 3)]),
        "cin_layer": (T.cin_layer, [(3, 2), (3, 4), (5, 8)]),
    }
    rng = np.random.default_rng(8)
    for name, (op, shapes) in ops.items():
        arrays = [rng.uniform(0.5, 1.5, size=shape) for shape in shapes]
        g = np.asarray(rng.normal(size=op(*map(Tensor, arrays)).shape))

        def adjoints(live):
            inputs = [parameter(x) if i in live else Tensor(x) for i, x in enumerate(arrays)]
            pairs = op(*inputs)._grad_fn(g)
            assert [id(t) for t, _ in pairs] == [id(inputs[i]) for i in live], (name, live)
            return dict(zip(live, (pg for _, pg in pairs)))

        everything = adjoints(tuple(range(len(arrays))))
        for k in range(1, len(arrays)):
            for live in itertools.combinations(range(len(arrays)), k):
                for i, pg in adjoints(live).items():
                    assert pg.shape == shapes[i], (name, live, i)
                    assert pg.tobytes() == everything[i].tobytes(), (name, live, i)


def test_grad_sums_over_all_uses():
    w = parameter([2.0], "w")
    out = T.add(T.mul(w, w), w)  # w*w + w -> d/dw = 2w + 1
    T.reduce_sum(out).backward()
    assert w.grad[0] == 5.0


def test_determinism_same_seed_bitwise():
    def run():
        rng = np.random.default_rng(42)
        w = parameter(rng.normal(size=(5, 4)), "w")
        x = Tensor(rng.normal(size=(3, 5)))
        h = T.dropout(T.relu(T.matmul(x, w)), 0.25, training=True, rng=rng)
        loss = T.reduce_sum(T.square(h))
        loss.backward()
        return loss.item(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


def test_structural_ops_gradcheck():
    rng = np.random.default_rng(3)
    w = parameter(rng.normal(size=(4, 3)), "w")
    b = parameter(rng.normal(size=(1, 3)), "b")

    def loss(axis):
        h = T.linear(Tensor(rng_x), w, b)
        h = T.concat([h, T.square(h)], axis=axis)
        h = T.reshape(h, (2, 3, 2))
        return T.reduce_sum(T.exp(T.mul(T.reduce_sum(h, axis=2), 0.1)))

    rng_x = rng.normal(size=(2, 4))
    for axis in (1, 0, -1):
        check_grads(lambda: loss(axis), [w, b], tol=1e-6)
    with pytest.raises(ValueError, match="zero tensors"):
        T.concat([])
    with pytest.raises(ValueError, match="2-d tensor"):
        T.transpose(w.values[0])


def _bytes(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _linear_chain(x, w, b, g):
    """Value and adjoints of matmul, a broadcast of the bias row and add,
    in the order that chain delivered them: b, then x and w."""
    value = x @ w + np.broadcast_to(b, (x.shape[0], w.shape[1]))
    return value, [g.sum(axis=(0,), keepdims=True), g @ w.T, x.T @ g]


def _cross_chain(x0, x, w, b, g):
    """Value and adjoints of the unfused cross layer: s = x @ w, broadcast,
    mul by x0, add the broadcast bias row, add x. Adjoints in delivery
    order: x (last add), b, x0 (mul), x and w (matmul)."""
    s = np.broadcast_to(x @ w, x0.shape)
    value = x0 * s + np.broadcast_to(b, x0.shape) + x
    g_s = (g * x0).sum(axis=(1,), keepdims=True)
    return value, [g, g.sum(axis=(0,), keepdims=True), g * s, g_s @ w.T, x.T @ g_s]


@pytest.mark.parametrize("n,width,out", [(5, 4, 3), (1, 4, 3), (5, 1, 1), (1, 1, 1)],
                         ids=lambda v: str(v))
def test_linear_is_bitwise_the_matmul_broadcast_add_chain(n, width, out):
    rng = np.random.default_rng(n * 10 + width)
    x, w = rng.normal(size=(n, width)), rng.normal(size=(width, out))
    b, g = rng.normal(size=(1, out)), rng.normal(size=(n, out))
    xt, wt, bt = parameter(x), parameter(w), parameter(b)
    y = T.linear(xt, wt, bt)
    value, (g_b, g_x, g_w) = _linear_chain(x, w, b, g)
    assert y.values.tobytes() == value.tobytes()
    pairs = y._grad_fn(g)
    assert [t for t, _ in pairs] == [xt, wt, bt]
    assert _bytes(pg for _, pg in pairs) == _bytes([g_x, g_w, g_b])
    with pytest.raises(ValueError):
        T.linear(xt, wt, parameter(np.zeros((out,))))
    with pytest.raises(ValueError, match="cannot multiply"):
        T.linear(xt, parameter(np.zeros((width + 1, out))), bt)


# (2000, 221): DCN's width on the benchmark's Criteo shape
@pytest.mark.parametrize("n,width", [(6, 5), (1, 5), (6, 1), (1, 1), (2000, 221)],
                         ids=lambda v: str(v))
def test_cross_layer_is_bitwise_the_unfused_chain(n, width):
    rng = np.random.default_rng(n * 10 + width)
    x0, x = rng.normal(size=(n, width)), rng.normal(size=(n, width))
    w, b, g = rng.normal(size=(width, 1)), rng.normal(size=(1, width)), rng.normal(size=(n, width))
    x0t, xt, wt, bt = parameter(x0), parameter(x), parameter(w), parameter(b)
    y = T.cross_layer(x0t, xt, wt, bt)
    value, adjoints = _cross_chain(x0, x, w, b, g)
    assert y.values.tobytes() == value.tobytes()
    pairs = y._grad_fn(g)
    assert [t for t, _ in pairs] == [xt, bt, x0t, xt, wt]
    assert _bytes(pg for _, pg in pairs) == _bytes(adjoints)
    with pytest.raises(ValueError):
        T.cross_layer(x0t, xt, parameter(np.zeros((width + 1, 1))), bt)
    with pytest.raises(ValueError, match="equal 2-d rows"):
        T.cross_layer(x0t, parameter(np.zeros((n, width + 1))), wt, bt)


@pytest.mark.parametrize("n,width", [(6, 5), (1, 5), (6, 1)], ids=lambda v: str(v))
def test_stacked_cross_layers_accumulate_like_the_unfused_chain(n, width):
    # two layers from a leaf x0: the first reads x0 as x as well, so x0's
    # gradient sums four terms, in the order the unfused chain added them
    rng = np.random.default_rng(n + width)
    x0, g = rng.normal(size=(n, width)), rng.normal(size=(n, width))
    w1, w2 = rng.normal(size=(width, 1)), rng.normal(size=(width, 1))
    b1, b2 = rng.normal(size=(1, width)), rng.normal(size=(1, width))
    params = [parameter(a) for a in (x0, w1, b1, w2, b2)]
    x0t, w1t, b1t, w2t, b2t = params
    out = T.cross_layer(x0t, T.cross_layer(x0t, x0t, w1t, b1t), w2t, b2t)
    T.reduce_sum(T.mul(out, Tensor(g))).backward()

    x1, _ = _cross_chain(x0, x0, w1, b1, g)
    value, (g_x1, g_b2, g_x0, g_x1_mm, g_w2) = _cross_chain(x0, x1, w2, b2, g)
    g1 = g_x1 + g_x1_mm
    _, (h_x, g_b1, h_x0, h_x_mm, g_w1) = _cross_chain(x0, x0, w1, b1, g1)
    want_x0 = ((g_x0 + h_x) + h_x0) + h_x_mm
    assert out.values.tobytes() == value.tobytes()
    assert _bytes(p.grad for p in params) == _bytes(
        np.zeros_like(a) + a for a in (want_x0, g_w1, g_b1, g_w2, g_b2))


def _scatter_cases():
    rng = np.random.default_rng(12)
    yield "duplicates", np.array([3, 0, 3, 3, 7]), rng.normal(size=(5, 3))
    yield "empty", np.array([], dtype=np.int64), np.zeros((0, 3))
    yield "d=1", np.array([2, 2, 9, 0]), rng.normal(size=(4, 1))
    yield "negative zeros", np.array([1, 1, 4]), np.full((3, 2), -0.0)
    mixed = rng.normal(size=(6, 2))
    mixed[::2] = -0.0
    yield "mixed zeros", np.array([5, 5, 2, 8, 2, 2]), mixed


@pytest.mark.parametrize("n_rows", [10, 400], ids=["dense", "row-sparse"])
def test_rows_gradients_are_bitwise_np_add_at(n_rows):
    for case, idx, g in _scatter_cases():
        table = parameter(np.ones((n_rows, g.shape[1])))
        [(_, adjoint)] = T.rows(table, idx)._grad_fn(g)
        expected = np.zeros((n_rows, g.shape[1]))
        np.add.at(expected, idx, g)
        if isinstance(adjoint, T.RowGrad):
            assert adjoint.rows.tolist() == sorted(set(idx.tolist())), case
            assert adjoint.values.tobytes() == expected[adjoint.rows].tobytes(), case
            adjoint = adjoint.dense(table.values)
        else:
            assert n_rows == 10, case  # only the small table scatters densely
        assert adjoint.dtype == np.float64 and adjoint.tobytes() == expected.tobytes(), case


def test_rows_gather_and_scatter():
    table = parameter(np.arange(12, dtype=float).reshape(4, 3), "emb")
    idx = np.array([1, 1, 3])
    out = T.rows(table, idx)
    np.testing.assert_array_equal(out.values, table.values[idx])
    T.reduce_sum(out).backward()
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)
    with pytest.raises(IndexError):
        T.rows(table, np.array([4]))


def _dense_scatter(n_rows, d, idx, g):
    full = np.zeros((n_rows, d))
    np.add.at(full, idx, g)
    return full


def _weighted_rows_loss(table, idx, weights):
    return T.reduce_sum(T.mul(T.rows(table, idx), Tensor(weights)))


def test_rows_gradient_row_sparse_when_table_has_twice_the_indices():
    rng = np.random.default_rng(5)
    table = parameter(rng.normal(size=(50, 3)), "emb")
    for idx in (np.array([7, 3, 7, 49, 0, 3, 3, 12]), np.array([], dtype=np.int64),
                rng.integers(0, 50, size=25)):
        weights = rng.normal(size=(idx.size, 3))
        _weighted_rows_loss(table, idx, weights).backward()
        touched, _ = table.row_grad
        np.testing.assert_array_equal(touched, np.unique(idx))
        expected = _dense_scatter(50, 3, idx, weights)
        assert table.grad.tobytes() == expected.tobytes()
        assert table.row_grad is None  # reading .grad densified it
        table.grad = None
    # more than half as many indices as rows: the dense scatter directly
    idx = rng.integers(0, 50, size=26)
    weights = rng.normal(size=(26, 3))
    _weighted_rows_loss(table, idx, weights).backward()
    assert table.row_grad is None
    assert table.grad.tobytes() == _dense_scatter(50, 3, idx, weights).tobytes()


def test_two_rows_of_one_table_sum_like_dense_scatters():
    rng = np.random.default_rng(6)
    table = parameter(rng.normal(size=(40, 2)), "emb")
    i1, i2 = np.array([1, 5, 5, 30]), np.array([5, 2, 39])
    w1, w2 = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))

    def loss():  # two gathers from one table in one graph
        return T.add(_weighted_rows_loss(table, i1, w1), _weighted_rows_loss(table, i2, w2))

    once = _dense_scatter(40, 2, i1, w1) + _dense_scatter(40, 2, i2, w2)
    loss().backward()
    assert table.row_grad is None  # the two adjoints met as dense arrays
    assert table.grad.tobytes() == once.tobytes()
    loss().backward()
    assert table.grad.tobytes() == (once + once).tobytes()


def test_rows_second_backward_into_row_sparse_leaf_doubles_gradient():
    rng = np.random.default_rng(7)
    table = parameter(rng.normal(size=(30, 4)), "emb")
    idx = np.array([3, 3, 11, 29, 0])
    weights = rng.normal(size=(5, 4))
    _weighted_rows_loss(table, idx, weights).backward()
    assert table.row_grad is not None
    _weighted_rows_loss(table, idx, weights).backward()
    single = _dense_scatter(30, 4, idx, weights)
    assert table.grad.tobytes() == (single + single).tobytes()


def test_rows_on_a_table_an_op_produced():
    rng = np.random.default_rng(8)
    base = parameter(rng.normal(size=(20, 3)), "base")
    idx = np.array([4, 0, 4])
    weights = rng.normal(size=(3, 3))
    _weighted_rows_loss(T.mul(base, 3.0), idx, weights).backward()
    assert base.row_grad is None
    expected = _dense_scatter(20, 3, idx, weights) * 3.0
    assert base.grad.tobytes() == expected.tobytes()


def test_rows_refuses_a_negative_index_before_gathering(monkeypatch):
    table = parameter(np.arange(12, dtype=float).reshape(4, 3), "emb")

    def no_gather(*args, **kwargs):
        raise AssertionError("gathered before the index check")

    # np.take would wrap -1 round to the last row
    monkeypatch.setattr(np, "take", no_gather)
    with pytest.raises(IndexError, match="index -1 at position 2 .* 4 rows"):
        T.rows(table, np.array([0, 3, -1, 1]))
    with pytest.raises(IndexError, match="index 4 at position 1 "):
        T.rows(table, np.array([0, 4]))


def test_field_row_names_the_field_and_the_bad_index_before_gathering(monkeypatch):
    tables = [parameter(np.ones((5, 2))), parameter(np.ones((3, 2)))]
    num = np.zeros((3, 1))

    def no_gather(*args, **kwargs):
        raise AssertionError("gathered before the index check")

    monkeypatch.setattr(np, "take", no_gather)
    for column, message in [([0, -2, 1], "field 1: index -2 at position 1 "),
                            ([2, 1, 3], "field 1: index 3 at position 2 .* 3 rows")]:
        cat = np.stack([np.array([4, 0, 1]), np.array(column)], axis=1)
        with pytest.raises(IndexError, match=message):
            T.field_row(tables, cat, num)
    with pytest.raises(ValueError, match="one column per table"):
        T.field_row(tables, np.zeros((3, 1), dtype=int), num)
    with pytest.raises(ValueError, match="1-d integer"):
        T.field_row(tables, np.zeros((3, 2)), num)
    cat = np.zeros((3, 2), dtype=int)
    with pytest.raises(ValueError, match="does not have 3 rows"):
        T.field_row(tables, cat, np.zeros((2, 1)))
    with pytest.raises(ValueError, match="2-d table"):
        T.field_row([tables[0], parameter(np.ones((3, 2, 1)))], cat, num)


def _field_tables(rng, vocab_sizes, d):
    return [parameter(rng.normal(size=(v, d)), f"embed.{i}") for i, v in enumerate(vocab_sizes)]


def _field_batch(rng, vocab_sizes, batch, n_numeric):
    cat = np.stack([rng.integers(0, v, size=batch) for v in vocab_sizes], axis=1)
    return cat.astype(np.int32), rng.normal(size=(batch, n_numeric))


def _chain_row(tables, cat, num):
    """The per-field ``rows`` and ``concat`` that ``field_row`` fuses."""
    parts = [T.rows(t, cat[:, i]) for i, t in enumerate(tables)]
    if num.shape[1]:
        parts.append(Tensor(num))
    return T.concat(parts, axis=1) if len(parts) > 1 else parts[0]


def _grad_state(tables):
    """Each table's gradient as bytes, and whether it was still row-sparse."""
    return [(t.row_grad is not None, t.grad.tobytes()) for t in tables]


@pytest.mark.parametrize("vocab_sizes,n_numeric", [
    ((40, 50, 60), 2),  # every table has twice the batch's rows: RowGrad
    ((5, 7, 4), 2),  # smaller tables: the dense scatter
    ((40, 3), 2),  # one of each
    ((40, 50), 0),  # no numerics
    ((40,), 0),  # one field and nothing else
    ((6,), 3),  # one field
], ids=["row-sparse", "dense", "mixed", "no-numerics", "one-field-alone", "one-field"])
def test_field_row_is_bitwise_the_rows_concat_chain(vocab_sizes, n_numeric):
    rng = np.random.default_rng(sum(vocab_sizes) + n_numeric)
    batch, d = 12, 3
    cat, num = _field_batch(rng, vocab_sizes, batch, n_numeric)
    width = len(vocab_sizes) * d + n_numeric
    w, b = rng.normal(size=(width, 2)), rng.normal(size=(1, 2))
    results = []
    for build in (_chain_row, T.field_row):
        tables = _field_tables(np.random.default_rng(1), vocab_sizes, d)
        row = build(tables, cat, num)
        T.reduce_sum(T.square(T.linear(row, Tensor(w), Tensor(b)))).backward()
        results.append((row.values.tobytes(), _grad_state(tables)))
    assert results[0] == results[1]
    assert results[1][1][0][0] == (vocab_sizes[0] >= 2 * batch)


def test_field_row_read_twice_is_bitwise_dcn_s_two_concats():
    # DCN: the cross layers read the row through a no-op node, the MLP
    # directly; the reference builds one concat for each part
    rng = np.random.default_rng(4)
    vocab_sizes, batch, d, n_numeric = (40, 5, 30), 10, 2, 1
    cat, num = _field_batch(rng, vocab_sizes, batch, n_numeric)
    width = len(vocab_sizes) * d + n_numeric
    cw, cb = rng.normal(size=(2, width, 1)), rng.normal(size=(2, 1, width))
    mw, mb = rng.normal(size=(width, 3)), rng.normal(size=(1, 3))

    def loss(cross_in, deep_in):
        x = cross_in
        for w, b in zip(cw, cb):
            x = T.cross_layer(cross_in, x, Tensor(w), Tensor(b))
        deep = T.relu(T.linear(deep_in, Tensor(mw), Tensor(mb)))
        return T.add(T.reduce_sum(T.square(x)), T.reduce_sum(deep))

    results = []
    for fused in (False, True):
        tables = _field_tables(np.random.default_rng(2), vocab_sizes, d)
        if fused:
            row = T.field_row(tables, cat, num)
            out = loss(T.reshape(row, row.shape), row)
        else:
            parts = [T.rows(t, cat[:, i]) for i, t in enumerate(tables)] + [Tensor(num)]
            out = loss(T.concat(parts, axis=1), T.concat(parts, axis=1))
        out.backward()
        results.append((out.values.tobytes(), _grad_state(tables)))
    assert results[0] == results[1]


def test_field_row_with_numerics_only_records_no_graph():
    num = np.random.default_rng(3).normal(size=(4, 3))
    row = T.field_row([], np.zeros((4, 0), dtype=np.int32), num)
    assert row.values.tobytes() == num.tobytes()
    assert not row.requires_grad


def test_field_row_gradcheck():
    rng = np.random.default_rng(9)
    vocab_sizes = (4, 30, 3)
    tables = _field_tables(rng, vocab_sizes, 2)
    cat, num = _field_batch(rng, vocab_sizes, 6, 2)
    w = parameter(rng.normal(size=(8, 1)), "w")
    check_grads(lambda: T.reduce_sum(T.square(T.matmul(T.field_row(tables, cat, num), w))),
                [*tables, w], tol=1e-6)


# -- fm_pair, cin_maps and linear_sum: the FM family's fused ops ------------

def _fm_inputs(vocab_sizes, n_numeric, d, batch, seed):
    """Embedding tables, (v, 1) linear tables, (1, d) projections, a numeric
    weight and a batch, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    tables = _field_tables(rng, vocab_sizes, d)
    linear = [parameter(rng.normal(size=(v, 1)), f"lin.{i}") for i, v in enumerate(vocab_sizes)]
    projs = [parameter(rng.normal(size=(1, d)), f"proj.{j}") for j in range(n_numeric)]
    w = parameter(rng.normal(size=(n_numeric, 1)), "w") if n_numeric else None
    b = parameter(rng.normal(size=(1, 1)), "b")
    if vocab_sizes:
        cat, num = _field_batch(rng, vocab_sizes, batch, n_numeric)
    else:
        cat, num = np.zeros((batch, 0), dtype=np.int32), rng.normal(size=(batch, n_numeric))
    return tables, linear, projs, w, b, cat, num


def _chain_vectors(tables, cat, num, projs):
    """The per-field vectors the FM and CIN chains read: one ``rows`` node per
    field, then one ``matmul`` per numeric column."""
    return ([T.rows(t, cat[:, i]) for i, t in enumerate(tables)]
            + [T.matmul(Tensor(num[:, j:j + 1]), p) for j, p in enumerate(projs)])


def _chain_fm_pair(vectors):
    """The add/square/sub/mul chain that ``fm_pair`` fuses."""
    total, total_sq = vectors[0], T.square(vectors[0])
    for v in vectors[1:]:
        total = T.add(total, v)
        total_sq = T.add(total_sq, T.square(v))
    return T.mul(T.sub(T.square(total), total_sq), 0.5)


def _chain_cin_maps(vectors, d):
    """The per-field reshapes and the concat that ``cin_maps`` fuses."""
    b = vectors[0].shape[0]
    return T.concat([T.reshape(v, (b * d, 1)) for v in vectors], axis=1)


def _chain_linear_sum(tables, cat, num, w, b):
    """The per-field ``rows`` and ``add`` chain that ``linear_sum`` fuses."""
    out = b
    for i, t in enumerate(tables):
        out = T.add(T.rows(t, cat[:, i]), out)
    if w is not None:
        out = T.add(out, T.matmul(Tensor(num), w))
    return out


def _chain_mlp_row(vectors, tables, num):
    """The MLP input the chain concatenated from the same per-field vectors."""
    parts = vectors[:len(tables)] + ([Tensor(num)] if num.shape[1] else [])
    return T.concat(parts, axis=1) if len(parts) > 1 else parts[0]


FIELD_CASES = pytest.mark.parametrize("vocab_sizes,n_numeric", [
    ((40, 50, 60), 2),  # every table has twice the batch's rows: RowGrad
    ((5, 7, 4), 2),  # smaller tables: the dense scatter
    ((40, 3), 2),  # one of each
    ((40, 50), 0),  # no numerics
    ((40,), 0),  # one field and nothing else
    ((6,), 3),  # one field
    ((), 3),  # numerics only
], ids=["row-sparse", "dense", "mixed", "no-numerics", "one-field-alone", "one-field",
        "numerics-only"])


def _fm_family_loss(fused, vocab_sizes, n_numeric, part):
    """A DeepFM- or xDeepFM-shaped loss over one draw of the inputs, built
    with the fused ops or with the chains they replace; returns the loss
    value and every gradient as bytes. The FM or CIN part is built first
    and an MLP layer then reads the same row, as in the models; in part
    "fm-after-mlp" the MLP layer comes first, so the row's adjoint gets the
    FM terms before the MLP's."""
    d, batch = 3, 12
    tables, linear, projs, w, b, cat, num = _fm_inputs(vocab_sizes, n_numeric, d, batch,
                                                          seed=sum(vocab_sizes) + n_numeric)
    rng = np.random.default_rng(5)
    width = len(vocab_sizes) * d + n_numeric
    mw, mb = Tensor(rng.normal(size=(width, 2))), Tensor(rng.normal(size=(1, 2)))
    if fused:
        row = T.field_row(tables, cat, num)
        make_row = lambda: row
        make_wide = lambda: (T.cin_maps if part == "cin" else T.fm_pair)(row, num, projs, d)
    else:
        vectors = _chain_vectors(tables, cat, num, projs)
        make_row = lambda: _chain_mlp_row(vectors, tables, num)
        make_wide = lambda: (_chain_cin_maps(vectors, d) if part == "cin"
                             else _chain_fm_pair(vectors))
    if part == "fm-after-mlp":
        deep = T.reduce_sum(T.relu(T.linear(make_row(), mw, mb)))
        wide = make_wide()
    else:
        wide = make_wide()
        deep = T.reduce_sum(T.relu(T.linear(make_row(), mw, mb)))
    if part == "cin":
        cw0, cw1 = (Tensor(rng.normal(size=shape)) for shape in [(2, wide.shape[1] ** 2),
                                                                 (2, 2 * wide.shape[1])])
        first = T.cin_layer(wide, wide, cw0)
        wide = T.add(T.reduce_sum(T.square(first)), T.reduce_sum(T.cin_layer(first, wide, cw1)))
    logit = (_chain_linear_sum if not fused else T.linear_sum)(linear, cat, num, w, b)
    loss = T.add(T.add(T.reduce_sum(T.square(wide)), T.reduce_sum(T.square(logit))), deep)
    loss.backward()
    params = [*tables, *linear, *projs, b] + ([w] if w is not None else [])
    return loss.values.tobytes(), _grad_state(params)


@FIELD_CASES
@pytest.mark.parametrize("part", ["fm", "fm-after-mlp", "cin"])
def test_fm_family_ops_are_bitwise_the_chains_they_replace(vocab_sizes, n_numeric, part):
    chain = _fm_family_loss(False, vocab_sizes, n_numeric, part)
    fused = _fm_family_loss(True, vocab_sizes, n_numeric, part)
    assert fused == chain


@FIELD_CASES
def test_fm_pair_alone_is_bitwise_its_chain(vocab_sizes, n_numeric):
    # FM without an MLP: each field vector sums just the two FM terms
    results = []
    for fused in (False, True):
        tables, _, projs, _, _, cat, num = _fm_inputs(vocab_sizes, n_numeric, 2, 9, seed=3)
        pair = (T.fm_pair(T.field_row(tables, cat, num), num, projs, 2) if fused
                else _chain_fm_pair(_chain_vectors(tables, cat, num, projs)))
        T.reduce_sum(T.mul(T.reduce_sum(pair, axis=1, keepdims=True), Tensor(num[:, :1] + 1.0)
                           if n_numeric else 1.0)).backward()
        results.append((pair.values.tobytes(), _grad_state([*tables, *projs])))
    assert results[0] == results[1]


FIELD_SHAPES = st.tuples(st.lists(st.integers(1, 30), max_size=3),  # vocabulary sizes
                         st.integers(0, 2),  # numerics
                         st.integers(1, 3),  # d
                         st.integers(1, 6),  # batch
                         st.integers(0, 2**31 - 1)).filter(lambda s: s[0] or s[1])


@given(shape=FIELD_SHAPES)
def test_fm_family_ops_gradcheck_and_no_grad_values(shape):
    vocab_sizes, n_numeric, d, batch, seed = shape
    tables, linear, projs, w, b, cat, num = _fm_inputs(vocab_sizes, n_numeric, d, batch, seed)
    # the ops read a row as a parameter too: its numeric columns get no gradient
    row = parameter(np.random.default_rng(seed).normal(size=(batch, len(tables) * d + n_numeric)),
                    "row")
    ops = {
        "fm_pair": (lambda: T.fm_pair(row, num, projs, d), [row, *projs]),
        "fm_pair_of_field_row": (lambda: T.fm_pair(T.field_row(tables, cat, num), num, projs, d),
                                 [*tables, *projs]),
        "cin_maps": (lambda: T.cin_maps(row, num, projs, d), [row, *projs]),
        "linear_sum": (lambda: T.linear_sum(linear, cat, num, w, b),
                       [*linear, b] + ([w] if w is not None else [])),
    }
    weights = np.random.default_rng(seed + 1)
    for name, (build, params) in ops.items():
        out = build()
        with T.no_grad():
            again = build()
        assert not again.requires_grad and again.values.tobytes() == out.values.tobytes(), name
        mix = Tensor(weights.normal(size=out.shape))
        check_grads(lambda: T.reduce_sum(T.square(T.mul(build(), mix))), params, tol=1e-4)


def test_fm_pair_over_tables_wider_than_its_fields_gradcheck():
    # a 4-wide table holds two 2-wide FM fields: field_row then asks the
    # FM adjoint for columns that span two fields
    rng = np.random.default_rng(12)
    tables = [parameter(rng.normal(size=(9, 4)), "wide"), parameter(rng.normal(size=(30, 2)), "t")]
    cat = np.stack([rng.integers(0, 9, 5), rng.integers(0, 30, 5)], axis=1)
    num = rng.normal(size=(5, 1))
    proj, mw = parameter(rng.normal(size=(1, 2)), "proj"), Tensor(rng.normal(size=(7, 1)))

    def loss():
        row = T.field_row(tables, cat, num)
        pair = T.fm_pair(row, num, [proj], 2)
        return T.add(T.reduce_sum(T.square(pair)), T.reduce_sum(T.square(T.matmul(row, mw))))

    check_grads(loss, [*tables, proj], tol=1e-6)


def test_fm_family_ops_refuse_bad_shapes():
    rng = np.random.default_rng(0)
    row, num = parameter(rng.normal(size=(4, 7))), rng.normal(size=(4, 1))
    proj = parameter(rng.normal(size=(1, 3)))
    for op in (T.fm_pair, T.cin_maps):
        with pytest.raises(ValueError, match="not d = 4 wide"):
            op(row, num, [parameter(rng.normal(size=(1, 4)))], 4)
        with pytest.raises(ValueError, match="one column per projection"):
            op(row, num, [], 3)
        with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
            op(parameter(rng.normal(size=(4, 5))), num, [proj], 2)
        with pytest.raises(ValueError, match="no fields"):
            op(parameter(rng.normal(size=(4, 0))), np.zeros((4, 0)), [], 3)
    table, bias = parameter(np.zeros((5, 1))), parameter(np.zeros((1, 1)))
    cat = np.array([[0], [4], [1], [2]])
    with pytest.raises(ValueError, match="need a weight"):
        T.linear_sum([table], cat, num, None, bias)
    with pytest.raises(ValueError, match=r"is not \(1, 1\)"):
        T.linear_sum([table], cat, num, parameter(np.zeros((2, 1))), bias)
    with pytest.raises(ValueError, match=r"\(v, 1\) tables"):
        T.linear_sum([parameter(np.zeros((5, 2)))], cat, np.zeros((4, 0)), None, bias)
    with pytest.raises(ValueError, match="no inputs"):
        T.linear_sum([], np.zeros((4, 0), dtype=int), np.zeros((4, 0)), None, bias)
    with pytest.raises(IndexError, match="field 0: index 5 at position 1"):
        T.linear_sum([table], np.array([[0], [5]]), np.zeros((2, 0)), None, bias)


def test_cin_layer_values_and_gradcheck():
    rng = np.random.default_rng(21)
    prev = parameter(rng.normal(size=(6, 3)), "prev")
    fmat = parameter(rng.normal(size=(6, 4)), "fmat")
    w = parameter(rng.normal(size=(2, 12)), "w")
    out = T.cin_layer(prev, fmat, w)
    assert out.shape == (6, 2)
    for k in range(2):
        expected = sum(w.values[k, i * 4 + j] * prev.values[:, i] * fmat.values[:, j]
                       for i in range(3) for j in range(4))
        np.testing.assert_allclose(out.values[:, k], expected, rtol=1e-12)
    check_grads(lambda: T.reduce_sum(T.square(T.cin_layer(prev, fmat, w))),
                [prev, fmat, w], tol=1e-6)
    # a first layer reads the base maps twice
    w0 = parameter(rng.normal(size=(2, 16)), "w0")
    check_grads(lambda: T.reduce_sum(T.square(T.cin_layer(fmat, fmat, w0))),
                [fmat, w0], tol=1e-6)
    with pytest.raises(ValueError):
        T.cin_layer(prev, parameter(np.zeros((5, 4))), w)
    with pytest.raises(ValueError):
        T.cin_layer(prev, fmat, parameter(np.zeros((2, 11))))


def test_transpose_roundtrip_gradient():
    w = parameter(np.random.default_rng(0).normal(size=(3, 2)), "w")
    T.reduce_sum(T.square(T.transpose(w))).backward()
    np.testing.assert_allclose(w.grad, 2.0 * w.values, rtol=1e-15)


def test_every_primitive_against_finite_differences():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 4)) + 0.1
    y = rng.normal(size=(3, 4)) + 2.0  # keeps div away from zero
    c = parameter(rng.normal(size=(2, 16)), "c")  # weights of a 2-map CIN layer
    bias = parameter(rng.normal(size=(1, 3)), "bias")
    cw, cb = parameter(rng.normal(size=(4, 1)), "cw"), parameter(rng.normal(size=(1, 4)), "cb")
    cases = {
        "add": lambda a, b: T.add(a, b),
        "sub": lambda a, b: T.sub(a, b),
        "mul": lambda a, b: T.mul(a, b),
        "div": lambda a, b: T.div(a, b),
        "relu": lambda a, b: T.relu(a),
        "sigmoid": lambda a, b: T.sigmoid(a),
        "square": lambda a, b: T.square(a),
        "exp": lambda a, b: T.exp(a),
        "bce_with_logits": lambda a, b: T.bce_with_logits(a, T.sigmoid(b)),
        "matmul": lambda a, b: T.matmul(a, T.transpose(b)),
        "reduce0": lambda a, b: T.reduce_sum(a, axis=0),
        "cin_layer": lambda a, b: T.cin_layer(a, b, c),
        "linear": lambda a, b: T.linear(a, T.transpose(b), bias),
        "cross_layer": lambda a, b: T.cross_layer(a, b, cw, cb),
        "cross_layer_first": lambda a, b: T.cross_layer(a, a, cw, cb),
    }
    for name, build in cases.items():
        a = parameter(x.copy(), "a")
        b = parameter(y.copy(), "b")
        err = check_grads(lambda: T.mul(T.reduce_sum(T.square(build(a, b))), 0.25),
                          [a, b, c, bias, cw, cb], tol=1e-4)
        assert err < 1e-4, name


def test_no_nan_inf_on_finite_inputs():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(scale=50.0, size=(8, 8)))
    out = T.sigmoid(T.matmul(x, T.relu(x)))
    assert np.all(np.isfinite(out.values))
