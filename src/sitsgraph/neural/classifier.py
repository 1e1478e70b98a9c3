"""A node classifier over the two edge relations: first half of the encoder
layers aggregates spatial neighbors only, the second half temporal neighbors
(symmetrized for propagation), each followed by batch norm + ReLU, then a
linear head."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..checkpoint import config_from_dict
from ..errors import ConfigMismatch, DimMismatch, NoData, NoLabels, int_column
from ..metrics import ConfusionMatrix, confusion, iou_oa
from ..stgraph import StGraph
from .autograd import Relation, Tensor, no_grad
from .nn import Adam, BatchNorm, Linear, Parameters, cross_entropy, fit, gcn_conv, relation, sage_conv, softmax

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


def _conv(rng, kind: str, fan_in: int, fan_out: int, dtype, params: Parameters):
    """The encoder layer of ``kind``, as a closure ``(x, rel) -> out`` over
    the tensors it declares in ``params``."""
    if kind == "mlp":  # edge-free
        lin = Linear(rng, fan_in, fan_out, dtype=dtype, params=params)
        return lambda x, rel: lin(x)
    w = params.tensor((fan_in, fan_out), dtype, rng)
    if kind == "gcn":
        b = params.tensor((1, fan_out), dtype)
        return lambda x, rel: gcn_conv(x, rel, w, b)
    w_neigh = params.tensor((fan_in, fan_out), dtype, rng)
    return lambda x, rel: sage_conv(x, rel, w, w_neigh)


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
        self.registry = params = Parameters(state, "classifier")
        h = cfg.hidden
        self.convs = [_conv(rng, cfg.conv, in_dim if i == 0 else h, h, dtype, params) for i in range(cfg.n_layers)]
        self.norms = [BatchNorm(h, dtype=dtype, params=params) for _ in range(cfg.n_layers)]
        self.head = Linear(rng, h, cfg.n_classes, dtype=dtype, params=params)
        params.close()

    def parameters(self) -> list[Tensor]:
        return list(self.registry.tensors)

    def forward(self, x: Tensor, es: Relation, est: Relation, train: bool) -> Tensor:
        half = len(self.convs) // 2
        for i, (conv, norm) in enumerate(zip(self.convs, self.norms)):
            x = norm(conv(x, es if i < half else est), train=train, relu=True)
        return self.head(x)

    def state(self) -> list[np.ndarray]:
        return self.registry.state()


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
    finite is never the best one and logs null mIoUs. ``*_masks`` optionally
    restrict which nodes of each graph count as labeled for that split
    (node-level splits on a single graph). A graph passed in both splits, or
    twice in one, is converted to arrays once, and each epoch's evaluation
    runs one inference per distinct graph.
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

    def steps(epoch):
        for key, labels in train_split:
            if (labels >= 0).any():
                x, es, est, _ = arrays[key]
                yield lambda: cross_entropy(model.forward(Tensor(x), es, est, train=True), labels)

    def evaluate(epoch):
        scores = {key: _logits(model, a) for key, a in arrays.items()}
        if not all(np.isfinite(scores[key]).all() for key, _ in val_split):
            return None, {"train_miou": None, "val_miou": None}
        preds = {key: z.argmax(axis=1) for key, z in scores.items()}
        train_miou, val_miou = (_miou(split, preds, cfg.n_classes) for split in (train_split, val_split))
        return -val_miou, {"train_miou": train_miou, "val_miou": val_miou}

    opt = Adam(model.parameters(), lr=cfg.lr)
    best, state, log = fit(model, opt, cfg.epochs, steps, evaluate, "finite validation logits")
    checkpoint = {
        "kind": "classifier",
        "config": asdict(cfg),
        "in_dim": in_dim,
        "best_epoch": best,
        "best_val_miou": float(log[best]["val_miou"]),
        "state": state,
    }
    return checkpoint, log


def classifier_from_checkpoint(checkpoint: dict) -> STClassifier:
    cfg = config_from_dict(ClassifierConfig, checkpoint.get("config"))
    in_dim = checkpoint.get("in_dim")
    if int_column([in_dim], "classifier checkpoint in_dim", ConfigMismatch)[0] < 1:
        raise ConfigMismatch(f"classifier checkpoint needs a positive integer in_dim, got {in_dim!r}")
    return STClassifier(cfg, in_dim, checkpoint["state"])
