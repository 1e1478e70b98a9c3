"""Node classifier over the two edge relations: first half of the encoder
layers aggregates spatial neighbors only, the second half temporal neighbors
(symmetrized for propagation), each followed by batch norm + ReLU, then a
linear head."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..checkpoint import check_state, config_from_dict
from ..errors import ConfigMismatch, NoLabels
from ..metrics import ConfusionMatrix, confusion, iou_oa
from ..stgraph import StGraph
from . import autograd as ag
from .autograd import Tape, Tensor, no_grad
from .nn import Adam, BatchNorm, Linear, cross_entropy, gcn_conv, glorot, relation, sage_conv, softmax

_SUPPORTED = ("gcn", "sage", "mlp")


@dataclass
class ClassifierConfig:
    n_classes: int
    conv: str = "sage"
    hidden: int = 64
    n_layers: int = 4
    lr: float = 1e-4
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.conv not in _SUPPORTED:
            raise ConfigMismatch(f"unknown convolution {self.conv!r}; pick one of {_SUPPORTED}")
        if self.hidden < 1:
            raise ConfigMismatch(f"hidden must be >= 1, got {self.hidden}")
        if self.n_layers < 2:
            raise ConfigMismatch(f"need at least 2 encoder layers, got {self.n_layers}")
        if self.conv != "mlp" and self.n_layers % 2:
            raise ConfigMismatch("edge-typed encoders need an even layer count")
        if self.n_classes < 2:
            raise ConfigMismatch(f"need at least 2 classes, got {self.n_classes}")


class _ConvLayer:
    def __init__(self, rng, kind: str, fan_in: int, fan_out: int, dtype):
        self.kind = kind
        if kind == "gcn":
            self.w = Tensor(glorot(rng, fan_in, fan_out, dtype), requires_grad=True)
            self.b = Tensor(np.zeros((1, fan_out), dtype=dtype), requires_grad=True)
        elif kind == "sage":
            self.w_self = Tensor(glorot(rng, fan_in, fan_out, dtype), requires_grad=True)
            self.w_neigh = Tensor(glorot(rng, fan_in, fan_out, dtype), requires_grad=True)
        else:  # mlp: edge-free
            self.lin = Linear(rng, fan_in, fan_out, dtype=dtype)

    def __call__(self, x: Tensor, edges) -> Tensor:
        if self.kind == "gcn":
            return gcn_conv(x, edges, self.w, self.b)
        if self.kind == "sage":
            return sage_conv(x, edges, self.w_self, self.w_neigh)
        return self.lin(x)

    def parameters(self):
        if self.kind == "gcn":
            return [self.w, self.b]
        if self.kind == "sage":
            return [self.w_self, self.w_neigh]
        return self.lin.parameters()


class STClassifier:
    def __init__(self, cfg: ClassifierConfig, in_dim: int, dtype=np.float32):
        self.cfg = cfg
        self.in_dim = in_dim
        rng = np.random.default_rng(cfg.seed)
        dims = [in_dim] + [cfg.hidden] * cfg.n_layers
        self.convs = [
            _ConvLayer(rng, cfg.conv, dims[i], dims[i + 1], dtype) for i in range(cfg.n_layers)
        ]
        self.norms = [BatchNorm(cfg.hidden, dtype=dtype) for _ in range(cfg.n_layers)]
        self.head = Linear(rng, cfg.hidden, cfg.n_classes, dtype=dtype)

    def parameters(self) -> list[Tensor]:
        out = []
        for conv in self.convs:
            out.extend(conv.parameters())
        for norm in self.norms:
            out.extend(norm.parameters())
        out.extend(self.head.parameters())
        return out

    def forward(self, x: Tensor, edges_spatial, edges_st, train: bool) -> Tensor:
        half = len(self.convs) // 2
        for i, (conv, norm) in enumerate(zip(self.convs, self.norms)):
            edges = edges_spatial if i < half else edges_st
            x = conv(x, edges)
            x = norm(x, train=train)
            x = ag.relu(x)
        return self.head(x)

    def state(self) -> list[np.ndarray]:
        arrays = [p.data.copy() for p in self.parameters()]
        for norm in self.norms:
            arrays.append(norm.running_mean.copy().reshape(1, -1))
            arrays.append(norm.running_var.copy().reshape(1, -1))
        return arrays

    def load_state(self, arrays: list[np.ndarray]) -> None:
        check_state(arrays, [a.shape for a in self.state()], "classifier")
        params = self.parameters()
        for p, a in zip(params, arrays):
            p.data = np.asarray(a, dtype=p.data.dtype)
        rest = arrays[len(params) :]
        for i, norm in enumerate(self.norms):
            norm.running_mean = np.asarray(rest[2 * i], dtype=norm.running_mean.dtype).ravel()
            norm.running_var = np.asarray(rest[2 * i + 1], dtype=norm.running_var.dtype).ravel()


def graph_arrays(g: StGraph, dtype=np.float32):
    """(features, spatial ``Relation``, temporal ``Relation``, labels) for
    training; the relations carry the scatter plans every layer, epoch and
    evaluation on this graph reuses."""
    x = np.asarray(g.features.values, dtype=dtype)
    n = x.shape[0]
    es = relation((g.spatial.src, g.spatial.dst), n)
    est = relation((g.st.src, g.st.dst), n)
    return x, es, est, g.label_array()


def _logits(model: STClassifier, arrays) -> np.ndarray:
    """Inference-mode logits from ``graph_arrays`` output."""
    x, es, est, _ = arrays
    with no_grad():
        return model.forward(Tensor(x), es, est, train=False).data


def predict_nodes(model: STClassifier, g: StGraph) -> np.ndarray:
    return _logits(model, graph_arrays(g)).argmax(axis=1)


def node_probabilities(model: STClassifier, g: StGraph) -> np.ndarray:
    return softmax(_logits(model, graph_arrays(g)))


def _masked_arrays(graphs: list[StGraph], masks) -> list[tuple]:
    """``graph_arrays`` per graph, with the labels outside ``masks[i]`` set to -1."""
    out = []
    for gi, g in enumerate(graphs):
        x, es, est, labels = graph_arrays(g)
        if masks is not None:
            labels[~masks[gi]] = -1
        out.append((x, es, est, labels))
    return out


def _miou(model: STClassifier, split: list[tuple]) -> float:
    cms = None
    for arrays in split:
        cm = confusion(arrays[3], _logits(model, arrays).argmax(axis=1), model.cfg.n_classes)
        cms = cm.counts if cms is None else cms + cm.counts
    if cms is None or cms.sum() == 0:
        return float("nan")
    return iou_oa(ConfusionMatrix(cms))["miou"]


def train_classifier(
    train_graphs: list[StGraph],
    val_graphs: list[StGraph],
    cfg: ClassifierConfig,
    train_masks: list[np.ndarray] | None = None,
    val_masks: list[np.ndarray] | None = None,
) -> tuple[dict, list[dict]]:
    """Full-graph training, one graph per optimizer step.

    Returns the checkpoint of the epoch with the highest validation mIoU and
    the per-epoch metric log. ``*_masks`` optionally restrict which nodes of
    each graph count as labeled for that split (node-level splits on a single
    graph).
    """
    if not train_graphs:
        raise NoLabels("no training graphs")
    train_split = _masked_arrays(train_graphs, train_masks)
    val_split = _masked_arrays(val_graphs, val_masks)
    if not any((labels >= 0).any() for *_, labels in train_split):
        raise NoLabels("no labeled node in the training split")

    in_dim = train_graphs[0].features.dim
    model = STClassifier(cfg, in_dim)
    opt = Adam(model.parameters(), lr=cfg.lr)

    log: list[dict] = []
    best = (-np.inf, 0, None)
    for epoch in range(cfg.epochs):
        for x, es, est, labels in train_split:
            if not (labels >= 0).any():
                continue
            with Tape() as tape:
                logits = model.forward(Tensor(x), es, est, train=True)
                loss = cross_entropy(logits, labels)
                tape.backward(loss)
            opt.step()
            opt.zero_grad()
        train_miou = _miou(model, train_split)
        val_miou = _miou(model, val_split) if val_split else train_miou
        log.append({"epoch": epoch, "train_miou": train_miou, "val_miou": val_miou})
        if val_miou > best[0]:
            best = (val_miou, epoch, model.state())

    model.load_state(best[2])
    checkpoint = {
        "kind": "classifier",
        "config": asdict(cfg),
        "in_dim": in_dim,
        "best_epoch": best[1],
        "best_val_miou": float(best[0]),
        "state": best[2],
    }
    return checkpoint, log


def classifier_from_checkpoint(checkpoint: dict) -> STClassifier:
    cfg = config_from_dict(ClassifierConfig, checkpoint.get("config"))
    in_dim = checkpoint.get("in_dim")
    if not isinstance(in_dim, int) or in_dim < 1:
        raise ConfigMismatch(f"classifier checkpoint needs a positive integer in_dim, got {in_dim!r}")
    model = STClassifier(cfg, in_dim)
    model.load_state(checkpoint["state"])
    return model
