import ast
import math

import numpy as np
import pytest

from _gradcheck import check_gradients, weighted_sum
from _oracles import OracleEdge as Edge
from _oracles import OracleNode as Node
from _oracles import graph_from_objects, graph_objects
from test_one_search import PACKAGE
from sitsgraph.errors import AllIgnored, ConfigMismatch, Diverged, NoLabels, ShapeMismatch, SitsGraphError
from sitsgraph.neural import autograd as ag
from sitsgraph.neural.autograd import Tape, Tensor, no_grad
from sitsgraph.neural.classifier import (
    ClassifierConfig,
    STClassifier,
    classifier_from_checkpoint,
    graph_arrays,
    predict_nodes,
    train_classifier,
)
from sitsgraph.neural.nn import (
    MLP,
    Adam,
    BatchNorm,
    Linear,
    Parameters,
    PlateauScheduler,
    cross_entropy,
    gcn_conv,
    relation,
    relu,
    sage_conv,
    softmax,
)
from sitsgraph.stgraph import SPATIOTEMPORAL
from sitsgraph.features import FeatureMatrix


class TestPrimitives:
    def test_linear_identity(self):
        lin = Linear(None, 3, 3, params=Parameters())
        lin.weight.data = np.eye(3, dtype=np.float32)
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert np.array_equal(lin(Tensor(x)).data, x)

    def test_relu_values(self):
        out = relu(Tensor(np.array([[-3.0, 2.0]])))
        assert out.data.tolist() == [[0.0, 2.0]]

    def test_grad_accumulates_across_uses(self):
        w = Tensor(np.array([[2.0]]), requires_grad=True)
        x = Tensor(np.array([[1.0]]))
        with Tape() as tape:
            a = ag.linear(x, w)
            b = ag.linear(x, w)
            loss = ag.mean_all(ag.add(a, b))
            tape.backward(loss)
        assert w.grad[0, 0] == pytest.approx(2.0)

    def test_backward_frees_the_tape_and_replays_once(self):
        w = Tensor(np.array([[2.0, -1.0]]), requires_grad=True)
        x = Tensor(np.array([[1.0], [3.0]]))
        with Tape() as tape:
            h = ag.linear(x, w)
            a = relu(h)
            loss = ag.mean_all(a)
            tape.backward(loss)
        assert len(tape) == 3 and not tape._records
        assert h.grad is None and a.grad is None and loss.grad is None
        assert w.grad.tolist() == [[1.0, 0.0]] and x.grad is None
        with pytest.raises(SitsGraphError):
            tape.backward(loss)

    @pytest.mark.parametrize(
        "dtype, grads",
        [
            (np.float32, [np.array([[-0.0, 1.5], [-2.0, -0.0]], dtype=np.float32)]),
            (np.float32, [np.array([[-0.0, 1e-40], [0.1, -3.0]], dtype=np.float64)]),
            (np.float64, [np.array([[-0.0, 0.1]], dtype=np.float32)]),
            (np.float32, [np.array([[-0.0, 2.0]], dtype=np.float32), np.array([[-0.0, 0.1]], dtype=np.float64)]),
            (np.float32, [np.array([[-0.0, -0.0]], dtype=np.float32), np.array([[-0.0, 0.0]], dtype=np.float32)]),
        ],
        ids=["negative_zero", "float64_into_float32", "float32_into_float64", "second_gradient", "second_of_zeros"],
    )
    def test_accumulate_matches_zero_initialized_sum(self, dtype, grads):
        t = Tensor(np.ones((grads[0].shape[0], 2), dtype=dtype), requires_grad=True)
        want = np.zeros_like(t.data)
        for g in grads:
            sent = g.copy()
            t.slot.accumulate(sent)
            sent[...] = 7.0  # the stored gradient is no view of the argument
            want += g
        assert t.grad.dtype == t.data.dtype and t.grad.shape == t.data.shape
        assert t.grad.tobytes() == want.tobytes()

    def test_mlp_records_one_entry_per_layer(self):
        mlp = MLP(np.random.default_rng(0), [3, 5, 2], params=Parameters())
        x = Tensor(np.ones((4, 3), dtype=np.float32))
        with Tape() as tape:
            out = mlp(x)
        assert len(tape) == 2
        with no_grad():
            want = mlp.layers[1](relu(mlp.layers[0](x)))
        assert out.data.tobytes() == want.data.tobytes()

    def test_backward_needs_scalar(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        with Tape() as tape:
            out = relu(t)
            with pytest.raises(ShapeMismatch):
                tape.backward(out)


class TestBatchNorm:
    def test_two_point_column(self):
        bn = BatchNorm(1, params=Parameters())
        out = bn(Tensor(np.array([[1.0], [3.0]], dtype=np.float32)), train=True)
        assert out.data[:, 0] == pytest.approx([-1.0, 1.0], abs=1e-2)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(1, params=Parameters())
        x = Tensor(np.array([[1.0], [3.0]], dtype=np.float32))
        for _ in range(200):
            bn(x, train=True)
        out_eval = bn(x, train=False)
        assert out_eval.data[:, 0] == pytest.approx([-1.0, 1.0], abs=1e-2)

    def test_affine_params_applied(self):
        bn = BatchNorm(1, params=Parameters())
        bn.gamma.data[:] = 2.0
        bn.beta.data[:] = 0.5
        out = bn(Tensor(np.array([[1.0], [3.0]], dtype=np.float32)), train=True)
        assert out.data[:, 0] == pytest.approx([-2 + 0.5, 2 + 0.5], abs=2e-2)


class TestGcnConv:
    def test_empty_edges_identity(self):
        x = np.arange(4, dtype=np.float64).reshape(2, 2)
        w = Tensor(np.eye(2))
        out = gcn_conv(Tensor(x), relation((np.array([], dtype=int), np.array([], dtype=int)), 2), w)
        assert np.allclose(out.data, x)

    def test_two_node_hand_computation(self):
        x = Tensor(np.array([[1.0], [0.0]]))
        out = gcn_conv(x, relation((np.array([0]), np.array([1])), 2), Tensor(np.eye(1)))
        assert out.data[:, 0] == pytest.approx([0.5, 0.5])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 2))
        edges = (np.array([0, 1, 2]), np.array([1, 3, 4]))
        out = gcn_conv(Tensor(x), relation(edges, 5), Tensor(w)).data
        perm = rng.permutation(5)
        inv = np.argsort(perm)
        pedges = (inv[edges[0]], inv[edges[1]])
        pout = gcn_conv(Tensor(x[perm]), relation(pedges, 5), Tensor(w)).data
        assert np.allclose(pout, out[perm], atol=1e-12)


class TestSageConv:
    def test_isolated_node_self_term_only(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 2))
        ws, wn = Tensor(rng.normal(size=(2, 2))), Tensor(rng.normal(size=(2, 2)))
        out = sage_conv(Tensor(x), relation((np.array([0]), np.array([1])), 3), ws, wn)
        assert np.allclose(out.data[2], x[2] @ ws.data)

    def test_identical_neighbors(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        ws = Tensor(np.zeros((2, 2)))
        wn = Tensor(np.eye(2))
        out = sage_conv(Tensor(x), relation((np.array([0, 1]), np.array([2, 2])), 3), ws, wn)
        assert np.allclose(out.data[2], [1.0, 2.0])

    def test_four_node_fixture_matches_loop(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3))
        ws = rng.normal(size=(3, 2))
        wn = rng.normal(size=(3, 2))
        edges = (np.array([0, 1, 2]), np.array([1, 2, 3]))
        out = sage_conv(Tensor(x), relation(edges, 4), Tensor(ws), Tensor(wn)).data
        neigh = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
        for i in range(4):
            mean = np.mean([x[j] for j in neigh[i]], axis=0)
            assert np.allclose(out[i], x[i] @ ws + mean @ wn)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 3))
        ws = Tensor(rng.normal(size=(3, 2)))
        wn = Tensor(rng.normal(size=(3, 2)))
        edges = (np.array([0, 2, 4]), np.array([1, 3, 5]))
        out = sage_conv(Tensor(x), relation(edges, 6), ws, wn).data
        perm = rng.permutation(6)
        inv = np.argsort(perm)
        pout = sage_conv(Tensor(x[perm]), relation((inv[edges[0]], inv[edges[1]]), 6), ws, wn).data
        assert np.allclose(pout, out[perm], atol=1e-12)


class TestCrossEntropy:
    def test_uniform_logits(self):
        k = 5
        logits = Tensor(np.zeros((3, k)))
        loss = cross_entropy(logits, np.array([0, 2, 4]))
        assert loss.data[0, 0] == pytest.approx(math.log(k))

    def test_confident_correct_logit(self):
        logits = Tensor(np.array([[100.0, 0.0]]))
        loss = cross_entropy(logits, np.array([0]))
        assert loss.data[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_ignored_row_hand_computation(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 1.0], [5.0, 5.0]]))
        labels = np.array([0, -1, 1])
        loss = cross_entropy(logits, labels)
        l0 = -math.log(math.exp(2) / (math.exp(2) + 1))
        l2 = math.log(2.0)
        assert loss.data[0, 0] == pytest.approx((l0 + l2) / 2, rel=1e-6)

    def test_all_ignored(self):
        with pytest.raises(AllIgnored):
            cross_entropy(Tensor(np.zeros((2, 2))), np.array([-1, -1]))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = softmax(rng.normal(size=(7, 4)) * 10)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)


def _adam_step(opt: Adam, *grads) -> None:
    for p, g in zip(opt.params, grads):
        p.grad = None if g is None else np.array(g, dtype=np.float64).reshape(p.data.shape)
    opt.step()


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = Tensor(np.array([[1.0, -2.0, 0.5]]), requires_grad=True)
        _adam_step(Adam([p], lr=0.1), [0.3, -0.01, 2.0])
        assert p.data[0] == pytest.approx([1.0 - 0.1, -2.0 + 0.1, 0.5 - 0.1], abs=1e-4)

    def test_zero_grad_keeps_params(self):
        p, q = Tensor(np.array([[1.0, 2.0]]), requires_grad=True), Tensor(np.array([[3.0]]), requires_grad=True)
        opt = Adam([p, q], lr=0.1)
        _adam_step(opt, [0.0, 0.0], None)
        assert p.data[0] == pytest.approx([1.0, 2.0]) and q.data[0] == pytest.approx([3.0])
        assert opt.steps == 1

    def test_quadratic_descent(self):
        w = Tensor(np.array([[1.0]]), requires_grad=True)
        opt = Adam([w], lr=0.1)
        seen = [abs(w.data[0, 0])]
        for _ in range(10):
            _adam_step(opt, 2.0 * w.data)
            seen.append(abs(w.data[0, 0]))
        assert all(a > b for a, b in zip(seen, seen[1:]))

    def test_plateau_scheduler(self):
        opt = Adam([Tensor(np.zeros((1, 1)), requires_grad=True)], lr=1.0)
        sched = PlateauScheduler(opt)
        sched.step(1.0)
        for _ in range(4):
            assert not sched.step(2.0)
        assert sched.step(2.0)  # fifth stale epoch fires
        assert opt.lr == pytest.approx(0.1)


class TestGradients:
    def test_linear_relu_chain(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        probe = rng.normal(size=(4, 2))

        def loss():
            return weighted_sum(relu(ag.add(ag.linear(x, w), b)), probe)

        assert check_gradients(loss, [w, b]) < 1e-6

    def test_slices_of_one_tensor(self):
        # the tape replays the slices last to first: rows 1:5 first, then
        # 0:2 and 4:6 add into the stored gradient
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        probe = rng.normal(size=(8, 3))

        def loss():
            parts = [ag.slice_rows(x, 4, 6), ag.slice_rows(x, 0, 2), ag.slice_rows(x, 1, 5)]
            return weighted_sum(ag.concat_rows(parts), probe)

        assert check_gradients(loss, [x]) < 1e-6

    @pytest.mark.parametrize("taped", [True, False], ids=["taped", "untaped"])
    def test_a_slice_views_its_input(self, taped):
        x = Tensor(np.arange(12.0).reshape(6, 2), requires_grad=True)
        with Tape() if taped else no_grad():
            part = ag.slice_rows(x, 1, 4)
        assert np.shares_memory(part.data, x.data) and part.requires_grad

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("with_relu", [True, False])
    def test_fused_linear(self, bias, with_relu):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 4)), requires_grad=True) if bias else None
        probe = rng.normal(size=(5, 4))

        def loss():
            return weighted_sum(ag.linear(x, w, b, relu=with_relu), probe)

        assert check_gradients(loss, [x, w] + ([b] if bias else [])) < 1e-6

    def test_tensor_read_by_relu_and_linear(self):
        # each use adds its own share; a mask on one share must not reach the other
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w0, w1 = (Tensor(rng.normal(size=(3, 3)), requires_grad=True) for _ in range(2))
        b1 = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        probe = rng.normal(size=(5, 6))

        def loss():
            p = ag.linear(x, w0)
            return weighted_sum(ag.concat_cols([relu(p), ag.linear(p, w1, b1, relu=True)]), probe)

        assert check_gradients(loss, [x, w0, w1, b1]) < 1e-6

    def test_batchnorm_train_mode(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm(3, dtype=np.float64, params=Parameters())
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        probe = rng.normal(size=(6, 3))

        def loss():
            return weighted_sum(bn(x, train=True), probe)

        assert check_gradients(loss, [x, bn.gamma, bn.beta]) < 1e-6

    def test_batchnorm_eval_mode(self):
        rng = np.random.default_rng(5)
        bn = BatchNorm(3, dtype=np.float64, params=Parameters())
        bn.running_mean = rng.normal(size=3)
        bn.running_var = rng.uniform(0.5, 2.0, size=3)
        bn.gamma.data = rng.normal(size=(1, 3))
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        probe = rng.normal(size=(6, 3))

        def loss():
            return weighted_sum(bn(x, train=False), probe)

        assert check_gradients(loss, [x, bn.gamma, bn.beta]) < 1e-6

    def test_mul_both_inputs(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        probe = rng.normal(size=(4, 3))

        def loss():
            return weighted_sum(ag.mul(a, b), probe)

        assert check_gradients(loss, [a, b]) < 1e-6

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        labels = np.array([0, 1, 2, -1, 1])

        def loss():
            return cross_entropy(logits, labels)

        assert check_gradients(loss, [logits]) < 1e-6


_LEAF_SHAPES = {"x": (6, 4), "x2": (6, 4), "w0": (4, 4), "b0": (1, 4), "w1": (4, 4), "b1": (1, 4), "w2": (8, 4)}


def _branch(t, L):
    return ag.linear(t, L["w1"], L["b1"], relu=True)


# each case hands one gradient array, or views of it, to several receivers;
# h is an op output whose own backward masks its gradient in place, p one
# with no mask of its own (an op that feeds nothing receives no gradient)
_ALIASING = {
    "add_same_tensor": lambda L, h, p: ag.add(h, h),
    "add_same_leaf": lambda L, h, p: ag.add(L["x"], L["x"]),
    "add_broadcast_row": lambda L, h, p: _branch(ag.add(p, L["b1"]), L),
    "concat_cols_same_tensor": lambda L, h, p: ag.linear(ag.concat_cols([h, h]), L["w2"], relu=True),
    "concat_cols_leaves": lambda L, h, p: ag.linear(ag.concat_cols([L["x"], L["x2"]]), L["w2"], relu=True),
    "concat_rows_same_tensor": lambda L, h, p: _branch(ag.concat_rows([h, h]), L),
    "read_by_two_ops": lambda L, h, p: ag.concat_cols([relu(p), _branch(p, L)]),
    "residual_add": lambda L, h, p: ag.add(p, _branch(p, L)),
    "residual_add_branch_first": lambda L, h, p: ag.add(_branch(p, L), p),
    "residual_add_clamped": lambda L, h, p: ag.clamp(ag.add(p, _branch(p, L)), -0.5, 0.5),
    "slice_rows_twice": lambda L, h, p: ag.concat_rows([_branch(ag.slice_rows(h, 0, 4), L), ag.slice_rows(h, 2, 6)]),
    "slice_rows_disjoint": lambda L, h, p: ag.concat_rows([_branch(ag.slice_rows(h, 3, 6), L), ag.slice_rows(h, 0, 3)]),
    "relu_of_leaf": lambda L, h, p: relu(L["x"]),
    "linear": lambda L, h, p: ag.linear(L["x"], L["w0"]),
    "linear_bias": lambda L, h, p: ag.linear(L["x"], L["w0"], L["b0"]),
    "linear_relu": lambda L, h, p: ag.linear(L["x"], L["w0"], relu=True),
    "linear_bias_relu": lambda L, h, p: ag.linear(L["x"], L["w0"], L["b0"], relu=True),
}


def _leaf_grads(case: str) -> dict:
    rng = np.random.default_rng(7)
    leaves = {k: Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for k, s in _LEAF_SHAPES.items()}
    with Tape() as tape:
        h = ag.linear(leaves["x"], leaves["w0"], leaves["b0"], relu=True)
        p = ag.linear(leaves["x"], leaves["w0"], leaves["b0"])
        out = _ALIASING[case](leaves, h, p)
        tape.backward(weighted_sum(out, rng.normal(size=out.shape).astype(np.float32)))
    return {k: t.grad for k, t in leaves.items()}


class TestGradientOwnership:
    """Op outputs adopt their first gradient; leaves copy theirs."""

    @pytest.mark.parametrize("case", sorted(_ALIASING))
    def test_leaf_gradients_own_their_memory(self, case):
        grads = [g for g in _leaf_grads(case).values() if g is not None]
        assert grads
        for g in grads:
            assert g.base is None and g.flags.owndata
        for i, a in enumerate(grads):
            for b in grads[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_op_output_adopts_its_first_gradient(self):
        leaf = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        with Tape():
            out = ag.add(leaf, leaf)
        g = np.full((2, 2), -0.0, dtype=np.float32)
        out.slot.accumulate(g)
        assert out.grad is g
        leaf.slot.accumulate(g)
        assert leaf.grad is not g and not np.signbit(leaf.grad).any()


def _tiny_graph(seed=0, n_per_date=4, n_dates=2, n_feats=3, n_classes=2):
    rng = np.random.default_rng(seed)
    nodes = []
    nid = 0
    for t in range(n_dates):
        for _ in range(n_per_date):
            nodes.append(Node(nid, t, 1, (float(rng.uniform(0, 4)), float(rng.uniform(0, 4))), label=int(rng.integers(0, n_classes))))
            nid += 1
    es = []
    for t in range(n_dates):
        base = t * n_per_date
        for i in range(n_per_date - 1):
            es.append(Edge(base + i, base + i + 1, "S", 1.0))
    est = [
        Edge(i, i + n_per_date, SPATIOTEMPORAL, 1.0)
        for i in range((n_dates - 1) * n_per_date)
    ]
    fm = FeatureMatrix(values=rng.normal(size=(len(nodes), n_feats)), names=[f"f{i}" for i in range(n_feats)])
    return graph_from_objects(nodes, es, est, features=fm)


class TestClassifier:
    def test_rejects_out_of_scope_convs(self):
        for conv in ("gatv2", "resgatedgcn"):
            with pytest.raises(ConfigMismatch):
                ClassifierConfig(n_classes=2, conv=conv)

    def test_odd_layers_rejected_for_edge_typed(self):
        with pytest.raises(ConfigMismatch):
            ClassifierConfig(n_classes=2, conv="sage", n_layers=3)
        ClassifierConfig(n_classes=2, conv="mlp", n_layers=3)  # fine without edges

    def test_mlp_is_edge_invariant(self):
        g = _tiny_graph()
        bare = graph_from_objects(graph_objects(g).nodes, [], [], features=g.features)
        cfg = ClassifierConfig(n_classes=2, conv="mlp", hidden=8, n_layers=2, seed=3)
        model = STClassifier(cfg, in_dim=g.features.dim)
        a = predict_nodes(model, g)
        b = predict_nodes(model, bare)
        xa, es, est, _ = graph_arrays(g)
        with no_grad():
            logits_a = model.forward(Tensor(xa), es, est, train=False).data
        xb, es0, est0, _ = graph_arrays(bare)
        with no_grad():
            logits_b = model.forward(Tensor(xb), es0, est0, train=False).data
        assert np.array_equal(logits_a, logits_b)
        assert np.array_equal(a, b)

    def test_single_node_graph_runs_all_convs(self):
        fm = FeatureMatrix(values=np.array([[0.3, -0.2]]), names=["a", "b"])
        g = graph_from_objects([Node(0, 0, 1, (0, 0), label=0)], [], [], features=fm)
        for conv in ("gcn", "sage", "mlp"):
            cfg = ClassifierConfig(n_classes=2, conv=conv, hidden=4, n_layers=2, seed=0)
            model = STClassifier(cfg, in_dim=2)
            assert predict_nodes(model, g).shape == (1,)

    def test_head_softmax_rows_sum_to_one(self):
        from sitsgraph.neural.classifier import node_probabilities

        g = _tiny_graph(seed=8)
        cfg = ClassifierConfig(n_classes=3, conv="sage", hidden=8, n_layers=2, seed=2)
        model = STClassifier(cfg, in_dim=g.features.dim)
        probs = node_probabilities(model, g)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_forward_deterministic_across_runs(self):
        g = _tiny_graph(seed=5)
        cfg = ClassifierConfig(n_classes=2, conv="sage", hidden=8, n_layers=2, seed=7)
        a = STClassifier(cfg, in_dim=g.features.dim)
        b = STClassifier(cfg, in_dim=g.features.dim)
        x, es, est, _ = graph_arrays(g)
        with no_grad():
            la = a.forward(Tensor(x), es, est, train=False).data
            lb = b.forward(Tensor(x), es, est, train=False).data
        assert np.array_equal(la, lb)

    def test_zero_lr_keeps_params(self):
        g = _tiny_graph(seed=1)
        cfg = ClassifierConfig(n_classes=2, conv="sage", hidden=8, n_layers=2, lr=0.0, epochs=3, seed=0)
        reference = STClassifier(cfg, in_dim=g.features.dim)
        n_trainable = len(reference.parameters())
        before = reference.state()[:n_trainable]
        ckpt, _ = train_classifier([g], [g], cfg)
        # trainable parameters untouched (batchnorm running stats may move)
        for a, b in zip(before, ckpt["state"][:n_trainable]):
            assert np.array_equal(a, b)

    def test_no_labels_raises(self):
        g = _tiny_graph()
        v = graph_objects(g)
        unlabeled = graph_from_objects(
            [Node(n.id, n.t, n.pixel_count, n.centroid, label=None) for n in v.nodes],
            v.edges_spatial,
            v.edges_st,
            features=g.features,
        )
        with pytest.raises(NoLabels):
            train_classifier([unlabeled], [unlabeled], ClassifierConfig(n_classes=2, conv="mlp", hidden=4, n_layers=2, epochs=1))

    def test_validation_split_without_labels_raises_up_front(self):
        g = _tiny_graph()
        none = np.zeros(g.n_nodes, dtype=bool)
        cfg = ClassifierConfig(n_classes=2, conv="mlp", hidden=4, n_layers=2, epochs=1)
        with pytest.raises(NoLabels, match="validation split"):
            train_classifier([g], [g], cfg, train_masks=[~none], val_masks=[none])

    def test_unlabeled_training_graph_is_skipped(self):
        # a graph with no labeled node takes no step: the run is that of the
        # labeled graph alone
        g = _tiny_graph(seed=3)
        v = graph_objects(g)
        unlabeled = graph_from_objects(
            [Node(n.id, n.t, n.pixel_count, n.centroid, label=None) for n in v.nodes],
            v.edges_spatial,
            v.edges_st,
            features=g.features,
        )
        cfg = ClassifierConfig(n_classes=2, conv="sage", hidden=4, n_layers=2, lr=1e-2, epochs=3, seed=0)
        alone, log_alone = train_classifier([g], [g], cfg)
        both, log_both = train_classifier([unlabeled, g], [g], cfg)
        assert log_both == log_alone
        assert [a.tobytes() for a in both["state"]] == [a.tobytes() for a in alone["state"]]

    def test_divergence_raises(self):
        # at a learning rate near float32's ceiling no epoch has finite
        # validation logits; the overflow stays silent under filterwarnings=error
        g = _tiny_graph(seed=1)
        cfg = ClassifierConfig(n_classes=2, conv="sage", hidden=4, n_layers=2, lr=3e38, epochs=3, seed=0)
        with pytest.raises(Diverged, match="no epoch of 3 gave finite validation logits"):
            train_classifier([g], [g], cfg)

    def test_linearly_separable_mlp(self):
        rng = np.random.default_rng(0)
        n = 40
        feats = rng.normal(size=(n, 2))
        labels = (feats[:, 0] + feats[:, 1] > 0).astype(int)
        feats += 0.02 * rng.normal(size=feats.shape)
        nodes = [Node(i, 0, 1, (0.0, float(i)), label=int(labels[i])) for i in range(n)]
        fm = FeatureMatrix(values=feats, names=["a", "b"])
        g = graph_from_objects(nodes, [], [], features=fm)
        cfg = ClassifierConfig(n_classes=2, conv="mlp", hidden=16, n_layers=2, lr=1e-2, epochs=100, seed=0)
        ckpt, _ = train_classifier([g], [g], cfg)
        model = classifier_from_checkpoint(ckpt)
        acc = (predict_nodes(model, g) == labels).mean()
        assert acc >= 0.95

    def test_loss_trajectory_deterministic(self):
        g = _tiny_graph(seed=2)
        cfg = ClassifierConfig(n_classes=2, conv="gcn", hidden=8, n_layers=2, lr=1e-3, epochs=5, seed=11)
        _, log_a = train_classifier([g], [g], cfg)
        _, log_b = train_classifier([g], [g], cfg)
        assert log_a == log_b

    @pytest.mark.parametrize("conv", ["sage", "gcn"])
    def test_scatter_plans_built_once_per_graph(self, conv, monkeypatch):
        built = []
        init = ag.ScatterPlan.__init__

        def counting_init(plan, idx, n):
            built.append(n)
            init(plan, idx, n)

        monkeypatch.setattr(ag.ScatterPlan, "__init__", counting_init)
        g = _tiny_graph(seed=3)
        counts = []
        for epochs in (1, 5):
            built.clear()
            cfg = ClassifierConfig(n_classes=2, conv=conv, hidden=8, n_layers=2, lr=1e-2, epochs=epochs, seed=0)
            train_classifier([g], [g], cfg)
            counts.append(len(built))
        # src and dst plans of both relations, built once for the graph both splits share
        assert counts == [4, 4]

    @pytest.mark.parametrize("conv", ["sage", "gcn"])
    def test_one_inference_per_distinct_graph_per_epoch(self, conv, monkeypatch):
        forward = STClassifier.forward
        inferences = []

        def counting_forward(model, x, es, est, train):
            if not train:
                inferences.append(x.shape[0])
            return forward(model, x, es, est, train)

        monkeypatch.setattr(STClassifier, "forward", counting_forward)
        g = _tiny_graph(seed=5)
        v = graph_objects(g)
        twin = graph_from_objects(v.nodes, v.edges_spatial, v.edges_st, features=g.features)  # same content, another object
        mask = np.arange(g.n_nodes) % 3 == 0
        cfg = ClassifierConfig(n_classes=2, conv=conv, hidden=8, n_layers=2, lr=1e-2, epochs=4, seed=0)
        shared = train_classifier([g], [g], cfg, train_masks=[~mask], val_masks=[mask])
        assert len(inferences) == cfg.epochs
        inferences.clear()
        separate = train_classifier([g], [twin], cfg, train_masks=[~mask], val_masks=[mask])
        assert len(inferences) == 2 * cfg.epochs
        # sharing one inference between the splits changes no result
        assert shared[1] == separate[1]
        assert {k: v for k, v in shared[0].items() if k != "state"} == {k: v for k, v in separate[0].items() if k != "state"}
        assert [a.tobytes() for a in shared[0]["state"]] == [a.tobytes() for a in separate[0]["state"]]

    def test_checkpoint_roundtrip_preserves_predictions(self, tmp_path):
        from sitsgraph.checkpoint import load_checkpoint, save_checkpoint

        g = _tiny_graph(seed=4)
        cfg = ClassifierConfig(n_classes=2, conv="sage", hidden=8, n_layers=2, lr=1e-3, epochs=3, seed=1)
        ckpt, _ = train_classifier([g], [g], cfg)
        model = classifier_from_checkpoint(ckpt)
        before = predict_nodes(model, g)
        header = {k: v for k, v in ckpt.items() if k != "state"}
        save_checkpoint(tmp_path / "c.bin", header, ckpt["state"])
        header2, params = load_checkpoint(tmp_path / "c.bin")
        model2 = classifier_from_checkpoint(
            {"config": header2["config"], "in_dim": header2["in_dim"], "state": params}
        )
        assert np.array_equal(predict_nodes(model2, g), before)


def test_only_the_forecaster_asks_whether_a_tape_records():
    # row_wise and gn_nodes run other blocks without a tape, for bytes and
    # memory; every op runs one path with or without one
    def calls_recording(tree: ast.Module) -> bool:
        return any(
            isinstance(n, ast.Call) and "recording" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
            for n in ast.walk(tree)
        )

    callers = sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py") if calls_recording(ast.parse(p.read_text())))
    assert callers == ["forecast/model.py"]
