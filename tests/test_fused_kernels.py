"""The classifier's fused kernels against their unfused references, byte for
byte: ``propagate`` against ``np.add.at`` over gathered rows, in the sage
form and with gcn's per-edge coefficient; batch norm with its ReLU against
``x.mean``/``x.var`` and a separate ReLU; and whole training runs through
the fused ops against a model built from the separate records."""

import numpy as np
import pytest

from _gradcheck import check_gradients, randomize_biases, weighted_sum
from _oracles import (
    addat_gather_rows_backward,
    addat_scatter_add_rows,
    reference_batchnorm,
    unfused_gcn_conv,
    unfused_sage_conv,
)
from sitsgraph.errors import ShapeMismatch
from sitsgraph.neural import autograd as ag
from sitsgraph.neural import classifier
from sitsgraph.neural.autograd import Relation, ScatterPlan, Tape, Tensor, no_grad
from sitsgraph.neural.classifier import ClassifierConfig, STClassifier
from sitsgraph.neural.nn import Adam, BatchNorm, Parameters, cross_entropy, relation


def _relations():
    """(relation, src, dst, n): an empty edge set, random directed edge sets
    whose last rows receive no message, a hub of in-degree above 500, and
    symmetrized relations built by ``nn.relation``."""
    rng = np.random.default_rng(0)
    out = [(Relation(ScatterPlan(np.zeros(0), 4), ScatterPlan(np.zeros(0), 4)), np.zeros(0, int), np.zeros(0, int), 4)]
    for _ in range(30):
        n = int(rng.integers(1, 30))
        e = int(rng.integers(1, 200))
        src, dst = rng.integers(0, n, e), rng.integers(0, max(1, n - 3), e)
        out.append((Relation(ScatterPlan(src, n), ScatterPlan(dst, n)), src, dst, n))
    n = 40
    dst = rng.permutation(np.concatenate([np.full(600, 3), rng.integers(0, 20, 200)]))
    src = rng.integers(0, n, dst.size)
    out.append((Relation(ScatterPlan(src, n), ScatterPlan(dst, n)), src, dst, n))
    for _ in range(10):
        n = int(rng.integers(2, 40))
        pairs = rng.integers(0, n - 1, (2, int(rng.integers(0, 80))))  # node n - 1 is isolated
        rel = relation(pairs, n)
        out.append((rel, rel.src.idx, rel.dst.idx, n))
    return out


def _rows(rng, n, k, dtype):
    """Random rows with signed zeros and one NaN row."""
    x = rng.standard_normal((n, k)).astype(dtype)
    x[rng.random(x.shape) < 0.2] = -0.0
    x[rng.integers(0, n)] = np.nan
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("form", ["sage", "gcn"])
def test_propagate_forward_matches_add_at_bytes(dtype, form):
    rng = np.random.default_rng(1)
    for rel, src, dst, n in _relations():
        x = _rows(rng, n, int(rng.integers(1, 6)), dtype)
        coeff = None if form == "sage" else rng.uniform(0.1, 2.0, src.size).astype(dtype)
        msg = x[src] if coeff is None else x[src] * coeff[:, None]
        want = addat_scatter_add_rows(msg, dst, n)
        got = ag.propagate(Tensor(x), rel, coeff).data
        assert got.dtype == dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("form", ["sage", "gcn"])
def test_propagate_backward_matches_add_at_bytes(dtype, form):
    rng = np.random.default_rng(2)
    for rel, src, dst, n in _relations():
        k = int(rng.integers(1, 6))
        x = Tensor(rng.standard_normal((n, k)).astype(dtype), requires_grad=True)
        g = _rows(rng, n, k, dtype)
        coeff = None if form == "sage" else rng.uniform(0.1, 2.0, src.size).astype(dtype)
        with Tape() as tape:
            ag.propagate(x, rel, coeff)
        ((_, backward),) = tape._records
        backward(g.copy())  # the upstream gradient of the output
        msg = g[dst] if coeff is None else g[dst] * coeff[:, None]
        want = np.zeros_like(x.data)
        want += addat_gather_rows_backward(x.data, src, msg)  # as Tensor.accumulate adds it
        assert x.grad.tobytes() == want.tobytes()


def test_propagate_checks_its_rows_and_coefficients():
    rel = relation((np.array([0, 1]), np.array([1, 2])), 3)
    with pytest.raises(ShapeMismatch, match="plan over 3 rows used for 4"):
        ag.propagate(Tensor(np.ones((4, 2))), rel)
    with pytest.raises(ShapeMismatch, match="3 coefficients for 4 edges"):
        ag.propagate(Tensor(np.ones((3, 2))), rel, np.ones(3))


def test_relation_composes_its_passes_once_on_first_use():
    rel = relation((np.array([0, 1, 1]), np.array([1, 2, 0])), 3)
    assert rel._passes is None  # a relation that only gathers and scatters never composes them
    x = Tensor(np.arange(6.0).reshape(3, 2))
    first = ag.propagate(x, rel).data
    passes = rel.passes()
    assert ag.propagate(x, rel).data.tobytes() == first.tobytes() and rel.passes() is passes


@pytest.mark.parametrize("coeff", [False, True])
def test_propagate_gradients(coeff):
    rng = np.random.default_rng(3)
    rel = relation((np.array([0, 1, 2, 0, 4]), np.array([1, 2, 3, 3, 0])), 6)  # node 5 is isolated
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    c = rng.uniform(0.5, 2.0, rel.src.size) if coeff else None
    probe = rng.normal(size=(6, 3))
    assert check_gradients(lambda: weighted_sum(ag.propagate(x, rel, c), probe), [x]) < 1e-6


# rows x columns, from one row to the benchmark's scale and beyond
_BN_SHAPES = [
    (1, 1), (1, 64), (2, 3), (5, 1), (7, 8), (16, 64), (17, 5), (100, 64), (255, 3), (1000, 16), (2304, 64), (4097, 7), (10000, 64),
]


def _bn_case(rng, shape, dtype, train):
    """(x, gamma, beta, running mean, running var, probe) for one shape."""
    rows, cols = shape
    x = (rng.standard_normal(shape) * rng.uniform(0.1, 10.0, cols) + rng.uniform(-5.0, 5.0, cols)).astype(dtype)
    x[rng.random(shape) < 0.05] = -0.0
    gamma = rng.normal(1.0, 0.5, (1, cols)).astype(dtype)
    beta = rng.normal(0.0, 0.5, (1, cols)).astype(dtype)
    mean = rng.normal(size=cols).astype(dtype) if not train else np.zeros(cols, dtype=dtype)
    var = rng.uniform(0.5, 2.0, cols).astype(dtype) if not train else np.ones(cols, dtype=dtype)
    return x, gamma, beta, mean, var, rng.normal(size=shape).astype(dtype)


def _bn_run(norm, case, train, relu):
    """Output, running statistics and leaf gradients of one taped step."""
    x, gamma, beta, mean, var, probe = (a.copy() for a in case)
    leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    with Tape() as tape:
        out = norm(*leaves, mean, var, train, relu)
        tape.backward(weighted_sum(out, probe))
    return [out.data, mean, var] + [t.grad for t in leaves]


def _fused(x, gamma, beta, mean, var, train, relu):
    return ag.batchnorm(x, gamma, beta, mean, var, train=train, relu=relu)


def _reference(x, gamma, beta, mean, var, train, relu):
    out = reference_batchnorm(x, gamma, beta, mean, var, train)
    return ag.relu(out) if relu else out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("relu", [True, False], ids=["relu", "plain"])
def test_batchnorm_matches_mean_var_and_a_separate_relu_bytes(dtype, train, relu):
    rng = np.random.default_rng(4)
    for shape in _BN_SHAPES:
        case = _bn_case(rng, shape, dtype, train)
        got, want = _bn_run(_fused, case, train, relu), _bn_run(_reference, case, train, relu)
        for name, a, b in zip(["out", "running_mean", "running_var", "x.grad", "gamma.grad", "beta.grad"], got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (shape, name)


def test_batchnorm_relu_is_one_record():
    bn = BatchNorm(4, params=Parameters())
    x = Tensor(np.random.default_rng(5).normal(size=(6, 4)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        out = bn(x, train=True, relu=True)
    assert len(tape) == 1 and (out.data >= 0).all()


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
def test_batchnorm_relu_gradients(train):
    rng = np.random.default_rng(6)
    params = Parameters()
    bn = BatchNorm(3, dtype=np.float64, params=params)
    bn.running_mean = rng.normal(size=3)
    bn.running_var = rng.uniform(0.5, 2.0, size=3)
    bn.gamma.data = rng.normal(1.0, 0.5, size=(1, 3))
    randomize_biases(params.tensors, rng, scale=0.5)
    x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    probe = rng.normal(size=(7, 3))
    stats = bn.running_mean.copy(), bn.running_var.copy()

    def out(relu):
        bn.running_mean[:], bn.running_var[:] = stats  # train mode moves them on every call
        return bn(x, train=train, relu=relu)

    with no_grad():
        pre = out(False).data
    assert (pre < 0).any() and np.abs(pre).min() > 1e-3  # the ReLU masks some outputs, none on its kink
    assert check_gradients(lambda: weighted_sum(out(True), probe), [x, bn.gamma, bn.beta]) < 1e-6


def _unfused_norm(norm, x, train, relu=False):
    out = reference_batchnorm(x, norm.gamma, norm.beta, norm.running_mean, norm.running_var, train)
    return ag.relu(out) if relu else out


@pytest.mark.parametrize("conv", ["sage", "gcn"])
def test_training_through_fused_ops_matches_the_unfused_model(conv, monkeypatch):
    """Three epochs of Adam steps on one graph give the same ``state()`` and
    eval logits, byte for byte, through the fused ops and through a model of
    ``gather_rows``, ``scatter_add_rows``, ``scale_rows``, the reference
    batch norm and a separate ReLU."""
    rng = np.random.default_rng(7)
    n = 60
    x = rng.normal(size=(n, 5)).astype(np.float32)
    es = relation(rng.integers(0, n - 4, (2, 90)), n)  # the last four nodes have no spatial neighbour
    est = relation(rng.integers(0, n, (2, 40)), n)
    labels = rng.integers(-1, 3, n)
    cfg = ClassifierConfig(n_classes=3, conv=conv, hidden=8, n_layers=4, lr=1e-2, epochs=3, seed=0)

    def train():
        model = STClassifier(cfg, x.shape[1])
        opt = Adam(model.parameters(), lr=cfg.lr)
        for _ in range(cfg.epochs):
            with Tape() as tape:
                tape.backward(cross_entropy(model.forward(Tensor(x), es, est, train=True), labels))
            opt.step()
            opt.zero_grad()
        with no_grad():
            logits = model.forward(Tensor(x), es, est, train=False).data
        return [a.tobytes() for a in model.state()], logits.tobytes(), len(tape)

    fused = train()
    monkeypatch.setattr(classifier, "sage_conv", unfused_sage_conv)
    monkeypatch.setattr(classifier, "gcn_conv", unfused_gcn_conv)
    monkeypatch.setattr(BatchNorm, "__call__", _unfused_norm)
    unfused = train()
    assert fused[2] < unfused[2]  # the unfused model did run its own records
    assert fused[:2] == unfused[:2]
