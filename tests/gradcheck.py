"""Central finite-difference gradient oracle, independent of the engine's
backward pass. Perturbs raw parameter entries and re-runs the forward
closure, so it exercises none of the adjoint code it checks."""
import numpy as np

H = 1e-5


def numeric_grad(loss_fn, param, h=H):
    """d loss_fn() / d param by central differences, entry by entry."""
    base = param.values
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = loss_fn()
        flat[i] = keep - h
        down = loss_fn()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric):
    """Max over entries of |a-n| / max(1, |a|, |n|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def check_grads(loss_fn, params, tol=1e-4, h=H):
    """Backward-vs-finite-difference check over a list of parameter tensors.

    ``loss_fn()`` must rebuild the graph from current parameter values and
    return the scalar loss tensor. Returns the worst relative error seen.
    """
    for p in params:
        p.grad = None
    loss = loss_fn()
    loss.backward()
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.values)
        numeric = numeric_grad(lambda: loss_fn().item(), p, h=h)
        err = max_rel_err(analytic, numeric)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch for {p.name or p}: rel err {err:.3e}"
    return worst
