"""A node classifier over the two edge relations: first half of the encoder
layers aggregates spatial neighbors only, the second half temporal neighbors
(symmetrized for propagation), each followed by batch norm + ReLU, then a
linear head."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..checkpoint import config_from_dict
from ..errors import ConfigMismatch, DimMismatch, Diverged, NoData, NoLabels
from ..metrics import ConfusionMatrix, confusion, iou_oa
from ..stgraph import StGraph
from . import autograd as ag
from .autograd import Relation, Tape, Tensor, no_grad
from .nn import Adam, BatchNorm, Linear, StateReader, cross_entropy, gcn_conv, parameter, relation, sage_conv, softmax

# the encoder layer kinds
CONVS = ("gcn", "sage", "mlp")


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
        if self.conv not in CONVS:
            raise ConfigMismatch(f"unknown convolution {self.conv!r}; pick one of {CONVS}")
        if self.hidden < 1:
            raise ConfigMismatch(f"hidden must be >= 1, got {self.hidden}")
        if self.n_layers < 2:
            raise ConfigMismatch(f"need at least 2 encoder layers, got {self.n_layers}")
        if self.conv != "mlp" and self.n_layers % 2:
            raise ConfigMismatch("edge-typed encoders need an even layer count")
        if self.n_classes < 2:
            raise ConfigMismatch(f"need at least 2 classes, got {self.n_classes}")
        if self.epochs < 1:
            raise ConfigMismatch(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.lr < np.inf:
            raise ConfigMismatch(f"lr must be finite and >= 0, got {self.lr}")


class _ConvLayer:
    def __init__(self, rng, kind: str, fan_in: int, fan_out: int, dtype, state: StateReader | None):
        self.kind = kind
        if kind == "gcn":
            self.w = parameter((fan_in, fan_out), dtype, state, rng)
            self.b = parameter((1, fan_out), dtype, state)
        elif kind == "sage":
            self.w_self = parameter((fan_in, fan_out), dtype, state, rng)
            self.w_neigh = parameter((fan_in, fan_out), dtype, state, rng)
        else:  # mlp: edge-free
            self.lin = Linear(rng, fan_in, fan_out, dtype=dtype, state=state)

    def __call__(self, x: Tensor, rel: Relation) -> Tensor:
        if self.kind == "gcn":
            return gcn_conv(x, rel, self.w, self.b)
        if self.kind == "sage":
            return sage_conv(x, rel, self.w_self, self.w_neigh)
        return self.lin(x)

    def parameters(self):
        if self.kind == "gcn":
            return [self.w, self.b]
        if self.kind == "sage":
            return [self.w_self, self.w_neigh]
        return self.lin.parameters()


class STClassifier:
    """The classifier of ``cfg`` over ``in_dim`` node features: fresh weights
    drawn from ``cfg.seed``, or the arrays of a saved ``state()``, each
    checked as its layer takes it, so a state for another model fails at its
    first differing array before any later layer is built."""

    def __init__(self, cfg: ClassifierConfig, in_dim: int, state: list[np.ndarray] | None = None):
        dtype = np.float32
        self.cfg = cfg
        self.in_dim = in_dim
        rng = np.random.default_rng(cfg.seed)
        reader = None if state is None else StateReader(state, "classifier")
        h = cfg.hidden
        self.convs = [
            _ConvLayer(rng, cfg.conv, in_dim if i == 0 else h, h, dtype, reader) for i in range(cfg.n_layers)
        ]
        self.norms = [BatchNorm(h, dtype=dtype, state=reader) for _ in range(cfg.n_layers)]
        self.head = Linear(rng, h, cfg.n_classes, dtype=dtype, state=reader)
        if reader is not None:
            for norm in self.norms:  # the running statistics follow the head, as state() lists them
                norm.running_mean = reader.take((1, h), dtype).ravel()
                norm.running_var = reader.take((1, h), dtype).ravel()
            reader.close()

    def parameters(self) -> list[Tensor]:
        out = []
        for conv in self.convs:
            out.extend(conv.parameters())
        for norm in self.norms:
            out.extend(norm.parameters())
        out.extend(self.head.parameters())
        return out

    def forward(self, x: Tensor, es: Relation, est: Relation, train: bool) -> Tensor:
        half = len(self.convs) // 2
        for i, (conv, norm) in enumerate(zip(self.convs, self.norms)):
            x = conv(x, es if i < half else est)
            x = norm(x, train=train)
            x = ag.relu(x)
        return self.head(x)

    def state(self) -> list[np.ndarray]:
        arrays = [p.data.copy() for p in self.parameters()]
        for norm in self.norms:
            arrays.append(norm.running_mean.copy().reshape(1, -1))
            arrays.append(norm.running_var.copy().reshape(1, -1))
        return arrays


def graph_arrays(g: StGraph):
    """(float32 features, spatial ``Relation``, temporal ``Relation``,
    labels) for training. Each relation is planned here, once per graph, and
    every layer, epoch and evaluation on the graph passes messages over it."""
    if g.features is None:
        raise DimMismatch("graph carries no node features for the classifier")
    x = np.asarray(g.features.values, dtype=np.float32)
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


def _split(graphs: list[StGraph], masks, arrays: dict[int, tuple]) -> list[tuple[int, np.ndarray]]:
    """(key of the graph in ``arrays``, its labels with those outside
    ``masks[i]`` set to -1) per graph. ``arrays`` holds ``graph_arrays`` per
    distinct graph, keyed by ``id``, and gains the graphs it lacks, so a graph
    that appears in two splits is converted once."""
    out = []
    for gi, g in enumerate(graphs):
        if id(g) not in arrays:
            arrays[id(g)] = graph_arrays(g)
        labels = arrays[id(g)][3].copy()
        if masks is not None:
            labels[~masks[gi]] = -1
        out.append((id(g), labels))
    return out


def _miou(split: list[tuple[int, np.ndarray]], preds: dict[int, np.ndarray], n_classes: int) -> float:
    """mIoU over the labeled nodes of a split, from the predicted classes
    per distinct graph."""
    cms = sum(confusion(labels, preds[key], n_classes).counts for key, labels in split)
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
    the per-epoch metric log. An epoch whose validation logits are not all
    finite is never the best one. ``*_masks`` optionally restrict which nodes
    of each graph count as labeled for that split (node-level splits on a
    single graph). A graph passed in both splits, or twice in one, is
    converted to arrays once, and each epoch's evaluation runs one inference
    per distinct graph.
    """
    if not train_graphs or not val_graphs:
        raise NoData("train and val graph lists must both be non-empty")
    arrays: dict[int, tuple] = {}
    train_split = _split(train_graphs, train_masks, arrays)
    val_split = _split(val_graphs, val_masks, arrays)
    if not any((labels >= 0).any() for _, labels in train_split):
        raise NoLabels("no labeled node in the training split")
    if not any((labels >= 0).any() for _, labels in val_split):
        raise NoLabels("no labeled node in the validation split")

    in_dim = train_graphs[0].features.dim
    model = STClassifier(cfg, in_dim)
    opt = Adam(model.parameters(), lr=cfg.lr)

    log: list[dict] = []
    best = (-np.inf, 0, None)
    # a learning rate near float32's ceiling overflows the weights; that shows
    # as the Diverged error below, not as NumPy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            for key, labels in train_split:
                if not (labels >= 0).any():
                    continue
                x, es, est, _ = arrays[key]
                with Tape() as tape:
                    logits = model.forward(Tensor(x), es, est, train=True)
                    loss = cross_entropy(logits, labels)
                    tape.backward(loss)
                opt.step()
                opt.zero_grad()
            scores = {key: _logits(model, a) for key, a in arrays.items()}
            preds = {key: z.argmax(axis=1) for key, z in scores.items()}
            train_miou = _miou(train_split, preds, cfg.n_classes)
            val_miou = _miou(val_split, preds, cfg.n_classes)
            log.append({"epoch": epoch, "train_miou": train_miou, "val_miou": val_miou})
            finite = all(np.isfinite(scores[key]).all() for key, _ in val_split)
            if finite and val_miou > best[0]:
                best = (val_miou, epoch, model.state())

    if best[2] is None:
        raise Diverged(f"no epoch of {cfg.epochs} gave finite validation logits")
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
    return STClassifier(cfg, in_dim, checkpoint["state"])
