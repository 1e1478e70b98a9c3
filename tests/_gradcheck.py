"""Finite-difference gradient checking against the tape's analytic gradients."""

from __future__ import annotations

import numpy as np

from _oracles import fd_gradient, rel_err
from sitsgraph.neural.autograd import Tape, Tensor, no_grad


def check_gradients(build_loss, params: list[Tensor], h: float = 1e-4) -> float:
    """Max relative error between tape gradients and central differences.

    ``build_loss`` must rebuild the forward pass from the params' current
    ``data`` on every call and return the scalar loss tensor.
    """
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    def f() -> float:
        with no_grad():
            return float(build_loss().data[0, 0])

    numeric = fd_gradient(f, [p.data for p in params], h=h)
    return max(rel_err(a, n) for a, n in zip(analytic, numeric))


def weighted_sum(out: Tensor, weights: np.ndarray) -> Tensor:
    """Scalar probe sum(out * weights) expressed through tape ops."""
    from sitsgraph.neural import autograd as ag

    return ag.mean_all(ag.mul(out, Tensor(weights * out.data.size)))


def randomize_biases(params: list[Tensor], rng, scale: float = 0.1) -> None:
    """Move zero-initialized biases among ``params`` off 0 so no ReLU sits
    exactly on its kink (finite differences are ill-defined there)."""
    for p in params:
        if p.data.shape[0] == 1 and np.all(p.data == 0):
            p.data = rng.normal(scale=scale, size=p.data.shape).astype(p.data.dtype)
