"""Layers, graph convolutions, optimizer, schedulers and the training loop on top of the tape."""

from __future__ import annotations

import ctypes
import os

import numpy as np

from ..errors import Diverged, ShapeMismatch
from . import autograd as ag
from .autograd import Relation, Tape, Tensor

relu = ag.relu
cross_entropy = ag.cross_entropy


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class Parameters:
    """The one declaration of a model's arrays, in construction order: each
    layer creates its trainable tensors here, and registers those it keeps
    off the tape (batch norm's running statistics) as buffers. That order is
    the optimizer's list and the saved state's.

    Given ``saved`` arrays, each tensor is the next one, its shape checked as
    it is taken, so a state for another model fails at its first differing
    array before a later layer is built; ``close`` fills the buffers from the
    arrays after the tensors and checks that none is left over."""

    def __init__(self, saved: list[np.ndarray] | None = None, kind: str = "model"):
        self.saved = saved
        self.kind = kind
        self.taken = 0
        self.tensors: list[Tensor] = []
        self.buffers: list[tuple[object, str]] = []  # (owner, attribute), so a rebound array stays visible

    def tensor(self, shape: tuple[int, int], dtype, rng=None, fill: float = 0.0) -> Tensor:
        """A trainable ``shape`` tensor: the next saved array when loading,
        else a glorot draw from ``rng``, else ``fill`` everywhere."""
        if self.saved is not None:
            data = self._take(shape, dtype)
        elif rng is not None:
            data = glorot(rng, *shape, dtype)
        else:
            data = np.full(shape, fill, dtype=dtype)
        self.tensors.append(Tensor(data, requires_grad=True))
        return self.tensors[-1]

    def buffer(self, owner, name: str, value: np.ndarray) -> None:
        """Set ``owner.name`` to the 1-D ``value``, which the state holds as
        one row after the tensors."""
        setattr(owner, name, value)
        self.buffers.append((owner, name))

    def close(self) -> None:
        if self.saved is None:
            return
        for owner, name in self.buffers:
            value = getattr(owner, name)
            setattr(owner, name, self._take((1, value.size), value.dtype).ravel())
        if self.taken < len(self.saved):
            self._mismatch(tuple(np.shape(self.saved[self.taken])), None)

    def state(self) -> list[np.ndarray]:
        """Copies of the tensors' arrays, then of the buffers' as rows."""
        return [t.data.copy() for t in self.tensors] + [getattr(o, n).copy().reshape(1, -1) for o, n in self.buffers]

    def _take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        i = self.taken
        got = tuple(np.shape(self.saved[i])) if i < len(self.saved) else None
        if got != shape:
            self._mismatch(got, shape)
        self.taken += 1
        return np.asarray(self.saved[i], dtype=dtype)

    def _mismatch(self, got, want):
        raise ShapeMismatch(
            f"{self.kind} state array {self.taken}: {'missing' if got is None else f'shape {got}'},"
            f" the model expects {'none' if want is None else f'shape {want}'} ({len(self.saved)} arrays in the state)"
        )


class Linear:
    def __init__(
        self,
        rng: np.random.Generator | None,
        fan_in: int,
        fan_out: int,
        dtype=np.float32,
        *,
        params: Parameters,
    ):
        self.weight = params.tensor((fan_in, fan_out), dtype, rng)
        self.bias = params.tensor((1, fan_out), dtype)

    def __call__(self, x: Tensor, relu: bool = False, residual: Tensor | None = None) -> Tensor:
        """``x @ weight + bias``, plus ``residual`` when given, then a ReLU
        when ``relu``: one tape record."""
        return ag.linear(x, self.weight, self.bias, relu, residual)


class MLP:
    """Stack of linears with ReLU between (none after the last).

    ``zero_last`` zeroes only the output layer, making the MLP start as the
    zero map while keeping trainable signal in the hidden layer; residual
    branches built this way begin as identities. An ``rng`` of None draws
    nothing and zeroes every layer.
    """

    def __init__(
        self,
        rng,
        dims: list[int],
        dtype=np.float32,
        zero_last: bool = False,
        *,
        params: Parameters,
    ):
        if len(dims) < 2:
            raise ShapeMismatch("an MLP needs at least input and output dims")
        last = len(dims) - 2
        self.layers = [
            Linear(None if zero_last and i == last else rng, a, b, dtype=dtype, params=params)
            for i, (a, b) in enumerate(zip(dims[:-1], dims[1:]))
        ]

    def __call__(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        """The stack's output, plus ``residual`` when given, which the last
        layer adds inside its record."""
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x, relu=i < last, residual=residual if i == last else None)
        return x


class BatchNorm:
    """Batch norm over rows. The running statistics are buffers of
    ``params``, which a loaded model fills when it closes the registry."""

    def __init__(self, dim: int, dtype=np.float32, *, params: Parameters):
        self.gamma = params.tensor((1, dim), dtype, fill=1.0)
        self.beta = params.tensor((1, dim), dtype)
        params.buffer(self, "running_mean", np.zeros(dim, dtype=dtype))
        params.buffer(self, "running_var", np.ones(dim, dtype=dtype))

    def __call__(self, x: Tensor, train: bool, relu: bool = False) -> Tensor:
        """The normalized rows, then a ReLU when ``relu``: one tape record."""
        return ag.batchnorm(x, self.gamma, self.beta, self.running_mean, self.running_var, train=train, relu=relu)


# ---------------------------------------------------------------------------
# graph convolutions; messages pass over a ``Relation`` planned once per
# edge set, which ``relation`` builds from an undirected edge list, through
# the one ``propagate`` record


def relation(edges, n: int) -> Relation:
    """The ``Relation`` of the undirected (src, dst) pairs ``edges`` over
    ``n`` nodes, listed once per pair and symmetrized: messages flow src ->
    dst along both orientations of every pair."""
    src, dst = (np.asarray(e, dtype=np.int64) for e in edges)
    if src.shape != dst.shape:
        raise ShapeMismatch(f"{src.shape[0]} sources for {dst.shape[0]} targets")
    return Relation(
        ag.ScatterPlan(np.concatenate([src, dst]), n), ag.ScatterPlan(np.concatenate([dst, src]), n)
    )


def gcn_conv(x: Tensor, rel: Relation, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Symmetric-normalized propagation with self-loops: D^-1/2 (A+I) D^-1/2 X W.

    Each row adds its neighbour terms in edge order and its self-loop last."""
    deg = (rel.dst.counts + 1).astype(x.data.dtype)
    h = ag.linear(x, w)
    neigh = ag.propagate(h, rel, 1.0 / np.sqrt(deg[rel.src.idx] * deg[rel.dst.idx]))
    out = ag.add(neigh, ag.scale_rows(h, 1.0 / np.sqrt(deg * deg)))
    if bias is not None:
        out = ag.add(out, bias)
    return out


def sage_conv(x: Tensor, rel: Relation, w_self: Tensor, w_neigh: Tensor) -> Tensor:
    """out_i = x_i W_self + mean_{j in N(i)} x_j W_neigh; empty neighborhoods
    contribute a zero mean. The self term is the neighbour linear's
    residual, so the sum takes no record of its own."""
    deg = rel.dst.counts.astype(x.data.dtype)
    neigh_mean = ag.scale_rows(ag.propagate(x, rel), 1.0 / np.maximum(deg, 1.0))
    return ag.linear(neigh_mean, w_neigh, residual=ag.linear(x, w_self))


# ---------------------------------------------------------------------------
# optimizer


# Adam's moment decay rates and the denominator's guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam, updating the parameters' arrays in place."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.steps = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.steps += 1
        bc1 = 1.0 - ADAM_BETA1**self.steps
        bc2 = 1.0 - ADAM_BETA2**self.steps
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


# the plateau schedule multiplies the learning rate by this factor after
# this many epochs without improvement
PLATEAU_FACTOR = 0.1
PLATEAU_PATIENCE = 5


class PlateauScheduler:
    """Multiplies the learning rate by ``PLATEAU_FACTOR`` when the monitored
    value fails to improve for ``PLATEAU_PATIENCE`` consecutive epochs."""

    def __init__(self, optimizer: Adam):
        self.optimizer = optimizer
        self.best = np.inf
        self.stale = 0

    def step(self, value: float) -> bool:
        if value < self.best:
            self.best = value
            self.stale = 0
            return False
        self.stale += 1
        if self.stale >= PLATEAU_PATIENCE:
            self.optimizer.lr *= PLATEAU_FACTOR
            self.stale = 0
            return True
        return False


# glibc mallopt parameters and the values set for them: the 64-bit ceiling of
# glibc's dynamic mmap threshold, and twice it for the trim threshold, which
# is where glibc's own rule moves them once large blocks have been freed
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for this process.

    Left to glibc's dynamic rule, every training step frees its
    activations, glibc returns the freed top of the heap to the OS, and the
    next step page-faults the same working set in again. With the thresholds
    fixed, blocks below 32 MiB come from the heap and up to 64 MiB of free
    heap is kept for reuse. Both are set, since setting either one stops the
    dynamic rule and would leave the other at its 128 KiB start. A no-op on
    any C library other than glibc.

    ``fit`` pins before its first step, so every trainer runs pinned
    whoever calls it. A process that runs no step loop keeps the dynamic
    rule, under which a large freed block goes back to the OS: a pinned
    ``forecast predict`` kept its freed node arrays on the heap and peaked
    at 115 MB on the benchmark's 256x256 scene, where it peaks at 105 MB
    unpinned.
    """
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}):
        return
    if not os.confstr("CS_GNU_LIBC_VERSION"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def fit(model, opt: Adam, epochs: int, steps, evaluate, diverged: str) -> tuple[int, list[np.ndarray], list[dict]]:
    """The one training loop. Each epoch takes a taped Adam step per loss
    closure of ``steps(epoch)``, then logs the record of ``evaluate(epoch)``,
    which returns (score, record); a score of None marks an epoch that is not
    finite. Returns the first lowest-scoring epoch, its ``model.state()`` and
    the log, or raises ``Diverged`` naming ``diverged`` if no epoch is finite.
    Pins glibc's malloc thresholds (``_pin_malloc_thresholds``) first."""
    _pin_malloc_thresholds()
    log: list[dict] = []
    best = None  # (score, epoch, state)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as a None score, not as warnings
        for epoch in range(epochs):
            for loss in steps(epoch):  # each closure runs before the next is drawn
                with Tape() as tape:
                    tape.backward(loss())
                opt.step()
                opt.zero_grad()
            score, record = evaluate(epoch)
            log.append({"epoch": epoch, **record})
            if score is not None and (best is None or score < best[0]):
                best = (score, epoch, model.state())
    if best is None:
        raise Diverged(f"no epoch of {epochs} gave {diverged}")
    return best[1], best[2], log
