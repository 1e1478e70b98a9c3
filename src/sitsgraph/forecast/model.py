"""Encode-process-decode forecaster for next-frame index prediction.

Per-pixel embeddings (series MLP + positional MLP -> mixing MLP) are pushed
onto the mesh by a grid-to-mesh graph-network block, the processor runs a
configurable number of blocks on the region adjacency graph, a mesh-to-grid
block brings latents back to pixels, and a linear head emits a residual over
the last input frame, clamped to the physical [-1, 1] range. With all
parameters zero the network is exactly the persistence baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigMismatch, LengthMismatch, MeshMismatch, ShapeMismatch
from ..features import pixel_pos_encoding  # noqa: F401 - the forecaster's pixel encoding
from ..neural import autograd as ag
from ..neural.autograd import Tensor, no_grad
from ..neural.nn import MLP, Linear, Parameters
from .mesh import MeshGraph

huber = ag.huber

# the image SLIC segments into the mesh: the window's last frame or its whole stack
MESH_SOURCES = ("last", "stack")


@dataclass
class ForecastConfig:
    input_len: int = 6
    n_segments: int = 256
    compactness: float = 0.1
    slic_iters: int = 10
    hidden: int = 64
    processor_rounds: int = 4
    lr: float = 1e-4
    epochs: int = 50
    huber_delta: float = 1.0
    seed: int = 0
    mesh_from: str = "last"      # one of MESH_SOURCES

    def __post_init__(self):
        if self.input_len < 1:
            raise ConfigMismatch(f"input_len must be >= 1, got {self.input_len}")
        if self.n_segments < 1:
            raise ConfigMismatch(f"n_segments must be >= 1, got {self.n_segments}")
        if not self.compactness > 0:
            raise ConfigMismatch(f"compactness must be > 0, got {self.compactness}")
        if self.slic_iters < 1:
            raise ConfigMismatch(f"slic_iters must be >= 1, got {self.slic_iters}")
        # checkpoint headers come from outside: the ceiling bars an endless SLIC run
        if self.slic_iters > 100:
            raise ConfigMismatch(f"slic_iters must be <= 100, got {self.slic_iters}")
        if self.processor_rounds < 1:
            raise ConfigMismatch(f"processor_rounds must be >= 1, got {self.processor_rounds}")
        if self.hidden < 2 or self.hidden % 2:
            raise ConfigMismatch(f"hidden must be even and >= 2, got {self.hidden}")
        if self.mesh_from not in MESH_SOURCES:
            raise ConfigMismatch(f"mesh_from must be {' or '.join(map(repr, MESH_SOURCES))}, got {self.mesh_from!r}")
        if self.epochs < 1:
            raise ConfigMismatch(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.lr < np.inf:
            raise ConfigMismatch(f"lr must be finite and >= 0, got {self.lr}")


# ---------------------------------------------------------------------------
# functional pieces

# rows per block of a row-wise stage run without a tape: bounds the stage's
# temporaries (edge MLP inputs are 3 x hidden wide) whatever the scene size
ROW_BLOCK = 4096


class _Rows:
    """The rows ``[lo, hi)`` of a row-wise stage's inputs, or all of them
    (``hi is None``) as the tensors themselves, so a taped run records the
    same ops as a direct call."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int = 0, hi: int | None = None):
        self.lo, self.hi = lo, hi

    def __call__(self, t: Tensor) -> Tensor:
        return t if self.hi is None else Tensor(t.data[self.lo : self.hi])


def _blocks(n: int) -> list[tuple[int, int]]:
    """The ``[lo, hi)`` row blocks of ``row_wise`` over ``n >= 2`` rows."""
    bounds = list(range(0, n, ROW_BLOCK))
    if n - bounds[-1] == 1:
        bounds.pop()
    return list(zip(bounds, bounds[1:] + [n]))


def row_wise(stage, n: int, out: np.ndarray | None = None) -> Tensor:
    """``stage(rows)`` for a stage that maps each of its ``n`` output rows from
    the same rows of its inputs (matmuls, adds, ReLUs, clamps; no sum over
    rows), where ``rows`` takes the stage's inputs.

    While a tape records, or over at most ``ROW_BLOCK`` rows, the stage runs
    once over all rows. Otherwise it runs over blocks of ``ROW_BLOCK`` rows
    into one output array, ``out`` when given, with the same bytes as one
    pass: blocks start at multiples of ``ROW_BLOCK``, a power of two, so
    every row keeps its place in BLAS's unrolled loops, and a 1-row remainder
    joins the block before it, since a single row would take BLAS's vector
    path, which rounds differently. ``out`` may be an input of the stage: a
    block reads only its own rows, and is written over them once computed."""
    if ag.recording() or n <= ROW_BLOCK:
        return stage(_Rows())
    for lo, hi in _blocks(n):
        part = stage(_Rows(lo, hi)).data
        if out is None:
            out = np.empty((n,) + part.shape[1:], dtype=part.dtype)
        out[lo:hi] = part
    return Tensor(out)


def _edge_update(x: Tensor, e: Tensor, rel: ag.Relation, mlp_e: MLP, enc: Linear | None):
    """The row-wise edge stage of a relational block, e + MLP_e([e, x_src,
    x_dst]), with ``e`` first encoded by ``enc`` when one is given. The
    residual is added inside the MLP's last layer."""
    n = x.data.shape[0]
    if rel.dst.n != n:
        raise ShapeMismatch(f"relation over {rel.dst.n} nodes used for {n}")
    if e.data.shape[0] != rel.src.size:
        raise ShapeMismatch(f"{e.data.shape[0]} edge features for {rel.src.size} edges")

    def stage(rows):
        e_rows = rows(e) if enc is None else enc(rows(e))
        return mlp_e(ag.edge_inputs(e_rows, x, rel, rows.lo), residual=e_rows)

    return stage


def _node_update(x: Tensor, agg: Tensor, mlp_v: MLP) -> Tensor:
    """x + MLP_v([x, agg]). Without a tape, a node set of more than one
    block is updated in place: each block is written over its own rows of
    ``x``, which no later block reads."""

    def stage(rows):
        x_rows = rows(x)
        return mlp_v(ag.concat_cols([x_rows, rows(agg)]), residual=x_rows)

    return row_wise(stage, x.data.shape[0], x.data)


def gn_block(x: Tensor, e: Tensor, rel: ag.Relation, mlp_e: MLP, mlp_v: MLP) -> tuple[Tensor, Tensor]:
    """Residual relational block over the edges of ``rel`` on x's rows:
    e' = e + MLP_e([e, x_src, x_dst]); x' = x + MLP_v([x, sum of incoming e']).
    Nodes without incoming edges aggregate zero.
    The edge and node updates run through ``row_wise``; the sum stays whole.
    Without a tape, a node set of more than ``ROW_BLOCK`` rows is updated in
    place, so x' holds x's array. Returns (x', e')."""
    e2 = row_wise(_edge_update(x, e, rel, mlp_e, None), rel.src.size)
    return _node_update(x, ag.scatter_add_rows(e2, rel.dst), mlp_v), e2


def gn_nodes(x: Tensor, e: Tensor, rel: ag.Relation, mlp_e: MLP, mlp_v: MLP, enc: Linear) -> Tensor:
    """x' of ``gn_block`` over the raw edge features ``e``, which ``enc``
    encodes inside the edge stage, for a block whose e' no caller reads.

    Without a tape, and with more edges than node rows, e' would be the
    block's largest array, so it is never built: the edge update runs over
    ``row_wise``'s blocks of edges, and each block is added into the
    aggregate as it comes (``ScatterPlan.add_to``). Each block's rows are
    those ``row_wise`` computes, and each node still adds its edges from zero
    in edge order, so the bytes are those of one whole pass. The node update
    is ``gn_block``'s: over more than ``ROW_BLOCK`` rows, x' is written over
    x's array."""
    edge_update = _edge_update(x, e, rel, mlp_e, enc)
    n_edges = rel.src.size
    if ag.recording() or n_edges <= x.data.shape[0]:
        return _node_update(x, ag.scatter_add_rows(row_wise(edge_update, n_edges), rel.dst), mlp_v)
    agg = None
    for lo, hi in _blocks(n_edges):
        part = edge_update(_Rows(lo, hi)).data
        if agg is None:
            agg = np.zeros((rel.dst.n,) + part.shape[1:], dtype=part.dtype)
        rel.dst.add_to(agg, part, lo)
    return _node_update(x, Tensor(agg), mlp_v)


def pixel_embedding(series: Tensor, pos: Tensor, mlp_ts: MLP, mlp_pos: MLP, mlp_mix: MLP) -> Tensor:
    """Embed each pixel from its value series and positional encoding."""
    a = mlp_ts(series)
    b = mlp_pos(pos)
    return mlp_mix(ag.concat_cols([a, b]))


def baseline_persistence(window: np.ndarray) -> np.ndarray:
    window = np.asarray(window)
    if window.ndim != 3 or window.shape[0] < 1:
        raise ShapeMismatch(f"window must be (N,H,W), got {window.shape}")
    return window[-1].copy()


def baseline_average(window: np.ndarray) -> np.ndarray:
    window = np.asarray(window)
    if window.ndim != 3 or window.shape[0] < 1:
        raise ShapeMismatch(f"window must be (N,H,W), got {window.shape}")
    return window.mean(axis=0)


# ---------------------------------------------------------------------------
# model


class _Block:
    def __init__(self, rng, hidden: int, dtype, params: Parameters):
        # zero output layers: blocks start as identities, so an untrained
        # network stays at the persistence point instead of saturating the
        # output clamp
        self.mlp_e = MLP(rng, [3 * hidden, hidden, hidden], dtype=dtype, zero_last=True, params=params)
        self.mlp_v = MLP(rng, [2 * hidden, hidden, hidden], dtype=dtype, zero_last=True, params=params)

    def __call__(self, x, e, rel):
        return gn_block(x, e, rel, self.mlp_e, self.mlp_v)

    def nodes(self, x, e, rel, enc):
        return gn_nodes(x, e, rel, self.mlp_e, self.mlp_v, enc)


class Forecaster:
    """The forecaster of ``cfg``: fresh weights drawn from ``cfg.seed``, or
    the arrays of a saved ``state()``, each checked as its layer takes it, so
    a state for another model fails at its first differing array before any
    later layer is built."""

    def __init__(self, cfg: ForecastConfig, dtype=np.float32, state: list[np.ndarray] | None = None):
        self.cfg = cfg
        self.dtype = dtype
        rng = np.random.default_rng(cfg.seed)
        self.registry = params = Parameters(state, "forecaster")
        h = cfg.hidden
        half = h // 2
        self.mlp_ts = MLP(rng, [cfg.input_len, half, half], dtype=dtype, params=params)
        self.mlp_pos = MLP(rng, [4, half, half], dtype=dtype, params=params)
        self.mlp_mix = MLP(rng, [h, h, h], dtype=dtype, params=params)
        self.enc_g2m = Linear(rng, 2, h, dtype=dtype, params=params)
        self.enc_proc = Linear(rng, 2, h, dtype=dtype, params=params)
        self.enc_m2g = Linear(rng, 2, h, dtype=dtype, params=params)
        self.block_g2m = _Block(rng, h, dtype, params)
        self.blocks_proc = [_Block(rng, h, dtype, params) for _ in range(cfg.processor_rounds)]
        self.block_m2g = _Block(rng, h, dtype, params)
        self.head = Linear(None, h, 1, dtype=dtype, params=params)  # residual head starts at zero
        params.close()

    def parameters(self) -> list[Tensor]:
        return list(self.registry.tensors)

    def state(self) -> list[np.ndarray]:
        return self.registry.state()

    def forward(self, window: np.ndarray, mesh: MeshGraph, pos: np.ndarray) -> Tensor:
        """Flat (H*W, 1) prediction tensor for one window. Without a tape,
        the row-wise stages run in blocks of rows (``row_wise``)."""
        window = np.asarray(window, dtype=self.dtype)
        if window.ndim != 3:
            raise ShapeMismatch(f"window must be (N,H,W), got {window.shape}")
        n, h, w = window.shape
        if n != self.cfg.input_len:
            raise LengthMismatch(f"window holds {n} frames, model expects {self.cfg.input_len}")
        if mesh.shape != (h, w):
            raise MeshMismatch(f"mesh over {mesh.shape} for frames of {(h, w)}")
        p = h * w
        m = mesh.n_regions

        series = Tensor(window.reshape(n, p).T.astype(self.dtype))
        pos_t = Tensor(np.asarray(pos, dtype=self.dtype))

        def embed(rows):
            return pixel_embedding(rows(series), rows(pos_t), self.mlp_ts, self.mlp_pos, self.mlp_mix)

        # encoder: pixels push messages onto zero-initialized mesh nodes
        nodes = ag.concat_rows([row_wise(embed, p), Tensor(np.zeros((m, self.cfg.hidden), dtype=self.dtype))])
        g2m_feat = Tensor(mesh.g2m_feat.astype(self.dtype))
        nodes = self.block_g2m.nodes(nodes, g2m_feat, mesh.g2m, self.enc_g2m)
        px_latent = ag.slice_rows(nodes, 0, p)
        mesh_latent = ag.slice_rows(nodes, p, p + m)
        del nodes  # without a tape, the two slices are all that is read

        # processor on the region adjacency graph
        e_proc = self.enc_proc(Tensor(mesh.proc_feat.astype(self.dtype)))
        for block in self.blocks_proc:
            mesh_latent, e_proc = block(mesh_latent, e_proc, mesh.proc)

        # decoder: 3 nearest mesh nodes per pixel
        nodes = ag.concat_rows([mesh_latent, px_latent])
        del px_latent  # without a tape, nothing else holds these pixel rows
        m2g_feat = Tensor(mesh.m2g_feat.astype(self.dtype))
        nodes = self.block_m2g.nodes(nodes, m2g_feat, mesh.m2g, self.enc_m2g)
        px_out = ag.slice_rows(nodes, m, m + p)

        last = Tensor(window[-1].reshape(p, 1))
        return row_wise(lambda rows: ag.clamp(self.head(rows(px_out), residual=rows(last)), -1.0, 1.0), p)

    def predict(self, window: np.ndarray, mesh: MeshGraph, pos: np.ndarray) -> np.ndarray:
        with no_grad():
            out = self.forward(window, mesh, pos)
        h, w = mesh.shape
        return out.data.reshape(h, w).astype(np.float32)
