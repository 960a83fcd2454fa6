import numpy as np
import pytest

from ctrkd import distill as KD
from ctrkd.distill import (DistillConfig, HintProjector, TeacherGate, bce_loss,
                           cross_entropy, ensemble_teacher_logit, gate_weights,
                           hint_loss, soft_label_loss, student_loss)
from ctrkd.models import FieldDims, Model, ModelSpec
from ctrkd.tensor import ComputationRecord, Tensor, parameter, sigmoid_values

from gradcheck import check_grads

LN2 = float(np.log(2.0))


def test_config_validation():
    DistillConfig(method="soft_label", tau=2.0, beta=0.3, gamma=0.7)
    DistillConfig(method="hint", beta=1e-4, gamma=1.0)
    with pytest.raises(ValueError):
        DistillConfig(method="soft_label", beta=0.3, gamma=0.3)
    with pytest.raises(ValueError):
        DistillConfig(method="soft_label", tau=0.5, beta=0.5, gamma=0.5)
    with pytest.raises(ValueError):
        DistillConfig(method="hint", beta=0.5, gamma=1.0)
    with pytest.raises(ValueError):
        DistillConfig(method="hint", beta=1e-4, gamma=0.9)
    with pytest.raises(ValueError):
        DistillConfig(method="hint", beta=1e-4, gamma=1.0, gating=True)
    with pytest.raises(ValueError):
        DistillConfig(method="osmosis")
    with pytest.raises(ValueError, match="lie in \\[0, 1\\]"):
        DistillConfig(method="soft_label", beta=1.5, gamma=-0.5)
    with pytest.raises(ValueError, match="at least one teacher"):
        TeacherGate(0)


def test_bce_known_values():
    assert bce_loss([[1.0]], Tensor([[0.0]])).item() == LN2
    assert bce_loss([[0.0]], Tensor([[-16.0]])).item() == pytest.approx(0.0, abs=1e-6)


def test_bce_batch_matches_per_sample_oracle():
    y = np.array([[1.0], [0.0], [1.0]])
    p = np.array([[0.8], [0.3], [0.6]])
    z = np.log(p / (1.0 - p))
    expected = np.mean([-np.log(0.8), -np.log(0.7), -np.log(0.6)])
    assert bce_loss(y, Tensor(z)).item() == pytest.approx(expected, rel=1e-12)


def test_bce_rejects_soft_labels():
    with pytest.raises(ValueError):
        bce_loss([[0.4]], Tensor([[0.5]]))


def test_bce_gradient_flows_to_logits():
    logits = parameter([[0.3], [-0.2]], "z")
    loss = bce_loss([[1.0], [0.0]], logits)
    loss.backward()
    # d/dz mean BCE(sigmoid(z)) = (p - y)/B
    p = sigmoid_values(logits.values)
    np.testing.assert_allclose(logits.grad, (p - [[1.0], [0.0]]) / 2.0, rtol=1e-12)


def test_soft_label_equal_zero_logits_gives_ln2():
    for tau in (1.0, 2.0, 10.0):
        loss = soft_label_loss(np.zeros((1, 1)), Tensor(np.zeros((1, 1))), tau)
        assert loss.item() == pytest.approx(LN2, abs=1e-12)


def test_soft_label_matched_logits_entropy_value():
    # z_T = z_S = 2, tau = 2 -> binary entropy of sigmoid(1)
    p = 1.0 / (1.0 + np.exp(-1.0))
    expected = -(p * np.log(p) + (1 - p) * np.log(1 - p))
    loss = soft_label_loss(np.full((1, 1), 2.0), Tensor(np.full((1, 1), 2.0)), 2.0)
    assert loss.item() == pytest.approx(expected, abs=1e-12)
    assert loss.item() == pytest.approx(0.5822, abs=5e-5)


def test_soft_label_large_tau_approaches_ln2():
    z_t = np.array([[3.0], [-4.0]])
    z_s = Tensor(np.array([[1.0], [2.0]]))
    assert soft_label_loss(z_t, z_s, 1e6).item() == pytest.approx(LN2, abs=1e-9)


def test_soft_label_tau1_equals_bce_on_sigmoids_bitwise():
    rng = np.random.default_rng(3)
    z_t = rng.normal(size=(8, 1))
    z_s = Tensor(rng.normal(size=(8, 1)))
    kd = soft_label_loss(z_t, z_s, 1.0).item()
    ce = cross_entropy(sigmoid_values(z_t), z_s).item()
    assert kd == ce  # exact, same code path
    # and cross_entropy is bitwise the bce_loss computation on hard labels
    y = (z_t > 0).astype(float)
    assert bce_loss(y, z_s).item() == cross_entropy(y, z_s).item()


def test_confident_mistakes_keep_their_gradient():
    z = parameter([[-20.0], [0.3], [-0.4]], "z")
    bce_loss([[1.0], [0.0], [1.0]], z).backward()
    assert z.grad[0, 0] == pytest.approx(-1.0 / 3.0, rel=1e-8)
    z_s = parameter([[-20.0]], "zs")
    soft_label_loss(np.array([[20.0]]), z_s, 1.0).backward()
    assert z_s.grad[0, 0] == pytest.approx(-1.0, rel=1e-8)


def test_extreme_logits_give_finite_loss_and_gradients():
    z = parameter([[1000.0], [-1000.0], [1000.0], [-1000.0]], "z")
    loss = bce_loss([[0.0], [1.0], [1.0], [0.0]], z)
    loss.backward()
    assert loss.item() == 500.0  # two mistakes of 1000 each, two exact hits
    np.testing.assert_array_equal(z.grad, [[0.25], [-0.25], [0.0], [0.0]])
    z_s = parameter([[-1000.0], [1000.0]], "zs")
    loss = soft_label_loss(np.array([[1000.0], [1000.0]]), z_s, 2.0)
    loss.backward()
    assert np.isfinite(loss.item()) and np.all(np.isfinite(z_s.grad))


def test_bce_loss_is_one_graph_node():
    z = parameter([[0.3], [-0.2]], "z")
    nodes = ComputationRecord.trace(bce_loss([[1.0], [0.0]], z)).nodes
    assert [t._op for t in nodes] == [None, "bce_with_logits"]  # leaf, loss


def test_soft_label_gradient_reaches_student_only():
    z_s = parameter(np.array([[0.7]]), "zs")
    loss = soft_label_loss(np.array([[1.3]]), z_s, 2.0)
    loss.backward()
    assert z_s.grad is not None and z_s.grad[0, 0] != 0.0


def test_soft_label_rejects_small_tau():
    with pytest.raises(ValueError):
        soft_label_loss(np.zeros((1, 1)), Tensor(np.zeros((1, 1))), 0.9)


@pytest.mark.parametrize("tau", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_tau_must_be_finite(tau):
    # nan would train to a nan loss, inf to a constant KD term of ln 2
    with pytest.raises(ValueError, match="tau must be finite"):
        DistillConfig(method="soft_label", tau=tau, beta=0.5, gamma=0.5)
    with pytest.raises(ValueError, match="tau must be finite"):
        soft_label_loss(np.zeros((1, 1)), Tensor(np.zeros((1, 1))), tau)


def test_hint_loss_identity_projector_zero():
    proj = HintProjector(3, 3)
    v = np.array([[0.4, -1.0, 2.0]])
    assert hint_loss(v, Tensor(v), proj).item() == 0.0


def test_hint_loss_hand_value():
    proj = HintProjector(2, 2)
    loss = hint_loss(np.array([[1.0, 0.0]]), Tensor(np.array([[0.0, 1.0]])), proj)
    assert loss.item() == 2.0


def test_hint_loss_matches_componentwise_oracle():
    rng = np.random.default_rng(5)
    proj = HintProjector(4, 3, rng=rng)
    proj.w.values[:] = rng.normal(size=(3, 4))
    v_t = rng.normal(size=(6, 4))
    v_s = rng.normal(size=(6, 3))
    expected = np.mean(np.sum((v_t @ proj.w.values.T - v_s) ** 2, axis=1))
    got = hint_loss(v_t, Tensor(v_s), proj).item()
    assert got == pytest.approx(expected, abs=1e-12)


def test_hint_loss_gradients_to_student_and_projector_only():
    rng = np.random.default_rng(1)
    proj = HintProjector(3, 2, rng=rng)
    v_s = parameter(rng.normal(size=(4, 2)), "vs")
    loss = hint_loss(rng.normal(size=(4, 3)), v_s, proj)
    loss.backward()
    assert v_s.grad is not None
    assert proj.w.grad is not None


def test_hint_loss_dim_mismatch():
    proj = HintProjector(3, 2)
    with pytest.raises(ValueError):
        hint_loss(np.zeros((2, 4)), Tensor(np.zeros((2, 2))), proj)
    with pytest.raises(ValueError):
        hint_loss(np.zeros((2, 3)), Tensor(np.zeros((2, 3))), proj)


def test_gate_symmetry_gives_uniform():
    gate = TeacherGate(4)
    z = [np.full((5, 1), 0.8)] * 4
    alphas = gate_weights(z, gate)
    for a in alphas:
        np.testing.assert_allclose(a.values, np.full((5, 1), 0.25), atol=1e-15)


def test_gate_analytic_softmax():
    gate = TeacherGate(2)  # w=1, b=0 by construction
    alphas = gate_weights([np.array([[np.log(2.0)]]), np.array([[0.0]])], gate)
    assert alphas[0].values[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert alphas[1].values[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_gate_normalization_and_positivity():
    rng = np.random.default_rng(9)
    gate = TeacherGate(3)
    for w, b in zip(gate.w, gate.b):
        w.values[:] = rng.normal()
        b.values[:] = rng.normal()
    z = [rng.normal(size=(100, 1)) * 10 for _ in range(3)]
    alphas = gate_weights(z, gate)
    total = sum(a.values for a in alphas)
    np.testing.assert_allclose(total, np.ones((100, 1)), atol=1e-12)
    assert all((a.values > 0).all() for a in alphas)


def test_gate_shift_invariance():
    rng = np.random.default_rng(2)
    gate = TeacherGate(3)
    z = [rng.normal(size=(10, 1)) for _ in range(3)]
    base = [a.values.copy() for a in gate_weights(z, gate)]
    for b in gate.b:
        b.values += 123.456  # adds the same constant to every score
    shifted = [a.values for a in gate_weights(z, gate)]
    for a, s in zip(base, shifted):
        np.testing.assert_allclose(a, s, atol=1e-12)


def test_gate_gradients_reach_parameters():
    gate = TeacherGate(2)
    z = [np.array([[1.0]]), np.array([[-1.0]])]
    alphas = gate_weights(z, gate)
    ens = ensemble_teacher_logit(z, alphas)
    loss = soft_label_loss(ens, Tensor(np.array([[0.3]])), 2.0)
    # the ensemble side is live: gate parameters must receive gradients
    loss.backward()
    assert gate.w[0].grad is not None and gate.w[0].grad[0, 0] != 0.0


def test_gated_soft_label_loss_gradcheck():
    rng = np.random.default_rng(12)
    gate = TeacherGate(3)
    for w, b in zip(gate.w, gate.b):
        w.values[:] = rng.normal()
        b.values[:] = rng.normal()
    z = [rng.normal(size=(5, 1)) * 2.0 for _ in range(3)]
    z_s = parameter(rng.normal(size=(5, 1)), "zs")

    def loss():
        ens = ensemble_teacher_logit(z, gate_weights(z, gate))
        return soft_label_loss(ens, z_s, 2.0)

    check_grads(loss, gate.parameters() + [z_s], tol=1e-8)


def test_ensemble_single_teacher_is_identity():
    z = [np.array([[0.37], [-2.0]])]
    out = ensemble_teacher_logit(z, [1.0 / len(z)] * len(z))
    np.testing.assert_array_equal(out.values, z[0])
    gate = TeacherGate(1)
    out = ensemble_teacher_logit(z, gate_weights(z, gate))
    np.testing.assert_array_equal(out.values, z[0])


def test_ensemble_uniform_average():
    z = [np.array([[1.0]]), np.array([[3.0]])]
    out = ensemble_teacher_logit(z, [1.0 / len(z)] * len(z))
    assert out.values[0, 0] == pytest.approx(2.0, abs=1e-15)


def test_ensemble_matches_dot_product_oracle():
    rng = np.random.default_rng(8)
    z = [rng.normal(size=(6, 1)) for _ in range(4)]
    raw = rng.random(4)
    weights = raw / raw.sum()
    alphas = [Tensor(np.full((6, 1), w)) for w in weights]
    out = ensemble_teacher_logit(z, alphas)
    expected = sum(w * zi for w, zi in zip(weights, z))
    np.testing.assert_allclose(out.values, expected, atol=1e-12)
    with pytest.raises(ValueError):
        ensemble_teacher_logit(z, alphas[:-1])
    with pytest.raises(ValueError, match="at least one teacher"):
        ensemble_teacher_logit([], [])
    with pytest.raises(ValueError, match="3 logit columns for 4 teachers"):
        gate_weights(z[:3], TeacherGate(4))


def test_ensemble_averaging_fallback_equals_mean():
    rng = np.random.default_rng(4)
    z = [rng.normal(size=(50, 1)) for _ in range(5)]
    out = ensemble_teacher_logit(z, [1.0 / len(z)] * len(z))
    np.testing.assert_allclose(out.values, np.mean(z, axis=0), atol=1e-12)


def test_student_loss_beta_zero_is_bce_bitwise():
    y = np.array([[1.0], [0.0]])
    z = Tensor(np.array([[0.7], [-1.2]]))
    assert student_loss(y, z, None, beta=0.0, gamma=1.0).item() == bce_loss(y, z).item()


def test_student_loss_pure_mimicry():
    z = Tensor(np.array([[0.7]]))
    kd = Tensor(np.array(0.42))
    assert student_loss([[1.0]], z, kd, beta=1.0, gamma=0.0).item() == 0.42


def test_student_loss_weighted_arithmetic():
    # CE = 0.5 via sigmoid(z) = exp(-0.5), KD = 0.3 -> 0.4*0.5 + 0.6*0.3 = 0.38
    p = np.exp(-0.5)
    z = Tensor(np.array([[np.log(p / (1.0 - p))]]))
    kd = Tensor(np.array(0.3))
    loss = student_loss([[1.0]], z, kd, beta=0.6, gamma=0.4)
    assert loss.item() == pytest.approx(0.38, abs=1e-12)


def test_student_loss_requires_kd_term_when_weighted():
    with pytest.raises(ValueError):
        student_loss([[1.0]], Tensor([[0.5]]), None, beta=0.5, gamma=0.5)


def test_teacher_parameters_get_no_gradient_through_distillation():
    # full-path gradient isolation: teacher model -> detached logits -> losses
    dims = FieldDims((4, 4), 1)
    teacher = Model(ModelSpec.deepfm((6,), embedding_dim=3), dims, seed=0)
    student_logit = parameter(np.array([[0.2], [0.1]]), "zs")
    cat = np.array([[1, 2], [0, 3]])
    num = np.array([[0.5], [1.0]])
    z_t = teacher.logit_values(cat, num)
    loss = soft_label_loss(z_t, student_logit, 3.0)
    loss.backward()
    assert all(p.grad is None for p in teacher.parameters())
    assert student_logit.grad is not None
