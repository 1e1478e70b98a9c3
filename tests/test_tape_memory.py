"""What a tape keeps for the backward pass: gradient slots and the arrays each
backward reads, never a tensor. An activation that no backward reads is freed
as soon as the forward code drops it, so a training step's tape holds less
than one that kept every op's output and inputs until backward."""

import tracemalloc
import weakref

import numpy as np
import pytest

from sitsgraph.forecast.model import ForecastConfig, Forecaster, huber
from sitsgraph.forecast.train import _window_mesh
from sitsgraph.neural import autograd as ag
from sitsgraph.neural.autograd import Tape, Tensor
from sitsgraph.neural.classifier import ClassifierConfig, STClassifier
from sitsgraph.neural.nn import MLP, Linear, Parameters, cross_entropy, relation
from test_neural import _ALIASING, _leaf_grads


def _held(loss_fn) -> int:
    """Bytes allocated by a taped ``loss_fn()`` and still held when it
    returns, which is what the tape keeps for the backward pass; the tape is
    then replayed."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            loss = loss_fn()
            held = tracemalloc.get_traced_memory()[0] - base
            tape.backward(loss)
        return held
    finally:
        tracemalloc.stop()


def _forecaster_step(size=64, hidden=64, segments=128):
    cfg = ForecastConfig(input_len=6, n_segments=segments, hidden=hidden, processor_rounds=4)
    model = Forecaster(cfg)
    rng = np.random.default_rng(0)
    window = rng.uniform(-1, 1, size=(6, size, size)).astype(np.float32)
    target = rng.uniform(-1, 1, size=(size * size, 1)).astype(np.float32)
    pos = rng.uniform(-1, 1, size=(size * size, 4)).astype(np.float32)
    mesh = _window_mesh(window, cfg)
    return lambda: huber(model.forward(window, mesh, pos), target)


def _classifier_step(conv: str, n: int = 2000):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, 8)).astype(np.float32)
    es = relation(rng.integers(0, n, (2, 3 * n)), n)
    est = relation(rng.integers(0, n, (2, n)), n)
    labels = rng.integers(-1, 4, n)
    model = STClassifier(ClassifierConfig(n_classes=4, conv=conv, hidden=64, n_layers=4), 8)
    return lambda: cross_entropy(model.forward(Tensor(x), es, est, train=True), labels)


def test_forecaster_step_tape_keeps_only_what_backward_reads():
    # the instance of test_one_training_step_tape_holds_no_dead_copies: its
    # tape held 50.0 MB while every record kept its output and inputs
    # (the enc_* outputs, concat inputs, aggregates, residual outputs and
    # slices among them), and holds 30.8 MB with slots on the tape
    step = _forecaster_step()
    _held(step)  # plans the mesh's ranks
    assert _held(step) <= 33e6


# tape bytes of one classifier step on _classifier_step's graph while every
# record kept its output and inputs: sage 11.45, gcn 14.59, mlp 6.23 MB; with
# slots on the tape 5.78, 4.32 and 4.15 MB. An mlp layer must still keep two
# of its three (rows, hidden) arrays, batch norm's xhat and the ReLU output
# that the next linear reads, so its bound is two thirds, not three fifths
KEPT_BEFORE = {"sage": 11.45e6, "gcn": 14.59e6, "mlp": 6.23e6}
SHARE = {"sage": 0.6, "gcn": 0.6, "mlp": 0.7}


@pytest.mark.parametrize("conv", sorted(KEPT_BEFORE))
def test_classifier_step_tape_shrinks(conv):
    step = _classifier_step(conv)
    _held(step)  # composes the relations' passes
    assert _held(step) <= SHARE[conv] * KEPT_BEFORE[conv]


def test_an_activation_no_backward_reads_dies_before_backward():
    rng = np.random.default_rng(1)
    params = Parameters()
    mlp = MLP(rng, [4, 8, 8], params=params)
    lin = Linear(rng, 4, 8, params=params)
    x = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
    with Tape() as tape:
        out = mlp(x)  # its last linear has no ReLU, so no backward reads its output
        masked = ag.linear(x, lin.weight, lin.bias, relu=True)  # backward masks g with it
        dead, alive = weakref.ref(out.data), weakref.ref(masked.data)
        loss = ag.mean_all(ag.concat_rows([out, masked]))
        del out, masked
        assert dead() is None and alive() is not None
        tape.backward(loss)
    assert alive() is None  # the replay frees what the closures kept
    assert all(p.grad is not None for p in params.tensors)


def _tensors_in_closures(tape: Tape) -> int:
    """Tensors that the tape's backward closures hold, in their cells or in
    a list or tuple inside one."""
    count = 0
    for _, fn in tape._records:
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            items = value if isinstance(value, (list, tuple)) else [value]
            count += sum(isinstance(v, Tensor) for v in items)
    return count


MODELS = {
    "sage": lambda: _classifier_step("sage", 40),
    "gcn": lambda: _classifier_step("gcn", 40),
    "mlp": lambda: _classifier_step("mlp", 40),
    "forecaster": lambda: _forecaster_step(size=12, hidden=4, segments=6),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_no_backward_closure_holds_a_tensor(name):
    # while closures captured tensors, the sage, gcn, mlp and forecaster
    # tapes here held 51, 53, 33 and 190 of them
    step = MODELS[name]()
    with Tape() as tape:
        loss = step()
        assert len(tape._records) > 0 and _tensors_in_closures(tape) == 0
        tape.backward(loss)


def _always_copy(self, grad):
    """``Grad.accumulate`` that stores every first gradient as a fresh
    ``grad + 0.0``, op outputs included."""
    if self.grad is None:
        self.grad = np.add(grad, 0.0, out=np.empty(self.shape, self.dtype), casting="same_kind")
    else:
        self.grad += grad


@pytest.mark.parametrize("case", sorted(_ALIASING))
def test_slot_gradients_match_always_copy(case, monkeypatch):
    # the ops accumulate through the slots, so the reference patches the slot
    got = _leaf_grads(case)
    monkeypatch.setattr(ag.Grad, "accumulate", _always_copy)
    want = _leaf_grads(case)
    assert [k for k, g in got.items() if g is not None] == [k for k, g in want.items() if g is not None]
    for k, g in want.items():
        if g is not None:
            assert got[k].dtype == g.dtype and got[k].tobytes() == g.tobytes(), k
