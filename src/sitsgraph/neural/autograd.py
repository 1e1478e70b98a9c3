"""Minimal reverse-mode autodiff over dense 2-D arrays.

Forward ops append (output, backward closure) records to the active tape in
execution order; ``Tape.backward`` replays them in exact reverse order, and
every gradient accumulates (``Tensor.accumulate``) so parameters reused across
ops collect contributions from every use. The replay frees each record and each
intermediate gradient once consumed, so a tape replays once. A tensor keeps
the float array it is given: the models pass float32, and building the
graph in float64 (for finite-difference checks) just means passing float64
data in.

Gradient arrays have one owner at a time, so the replay copies none it need
not:

- a backward closure owns the ``g`` it receives (``Tape.backward`` detaches
  it from the output's ``.grad`` first) and may overwrite it, as the ReLU
  and clamp masks do;
- an array passed to ``accumulate`` becomes the receiver's, and the caller
  neither reads nor writes it afterwards. An op output (a tensor that
  ``_emit`` recorded) stores its first gradient as is; a leaf (a parameter
  or input) stores a ``+ 0.0`` copy, so leaf gradients never alias one
  another or a tape temporary;
- ``add`` is the one op that hands one array to two inputs, so its second
  input gets a copy when the first stored the array as its ``.grad``, or the
  row sum for a broadcast row.

An intermediate gradient may therefore hold ``-0.0`` where a
zero-initialized sum holds ``+0.0``. No nonzero value downstream depends on
the sign of a zero, and leaf gradients pass through ``+ 0.0``, so the leaf
gradients are the same bytes as with a copy on every first gradient.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import AllIgnored, ShapeMismatch, TapeReplayed


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "recorded")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ShapeMismatch(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.recorded = False  # an op output on a tape, set by _emit

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` to ``.grad``, in the dtype and shape of ``.data``.

        ``grad`` becomes this tensor's: the caller neither reads nor writes
        it afterwards. An op output stores its first gradient as is when
        the dtype and shape match. Any other first gradient, and every
        first gradient of a leaf, is stored in one pass as ``grad + 0.0``
        into a fresh array, never as an alias of ``grad``; adding ``+0.0``
        turns a ``-0.0`` into ``+0.0``, as ``zeros_like(data) + grad`` does,
        so the stored bytes are those of a zero-initialized sum. Later
        gradients are added with ``+=``.
        """
        if self.grad is not None:
            self.grad += grad
        elif self.recorded and grad.dtype == self.data.dtype and grad.shape == self.data.shape:
            self.grad = grad
        else:
            self.grad = np.add(grad, 0.0, out=np.empty_like(self.data), casting="same_kind")

    def zero_grad(self) -> None:
        self.grad = None


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Operation record in execution order.

    ``backward`` drops each record once it has replayed it and clears the
    ``.grad`` of each op output once that gradient has been passed on, so
    activations and intermediate gradients are freed in reverse order while
    the replay runs; leaf and parameter gradients are kept. A tape therefore
    replays once. ``len`` counts the recorded ops, before and after.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, callable]] = []
        self._replayed: int | None = None  # records freed by backward

    def __enter__(self):
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        return False

    def __len__(self):
        return len(self._records) + (self._replayed or 0)

    def backward(self, loss: Tensor) -> None:
        if self._replayed is not None:
            raise TapeReplayed(f"this tape has already replayed its {self._replayed} ops; record a new one")
        if loss.data.size != 1:
            raise ShapeMismatch(f"backward needs a scalar loss, got shape {loss.shape}")
        records = self._records
        self._replayed = len(records)
        loss.grad = np.ones_like(loss.data)
        while records:
            out, fn = records.pop()
            g, out.grad = out.grad, None
            if g is not None:
                fn(g)


@contextlib.contextmanager
def no_grad():
    global _ACTIVE_TAPE
    prev = _ACTIVE_TAPE
    _ACTIVE_TAPE = None
    try:
        yield
    finally:
        _ACTIVE_TAPE = prev


def recording() -> bool:
    """Whether a tape is active, so ops on tensors that need a gradient are
    recorded."""
    return _ACTIVE_TAPE is not None


def _emit(out: Tensor, fn) -> Tensor:
    # only outputs that need a gradient are recorded, so the backward of an
    # op with one tensor input never checks that input's requires_grad
    if out.requires_grad and _ACTIVE_TAPE is not None:
        out.recorded = True
        _ACTIVE_TAPE._records.append((out, fn))
    return out


def _needs(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


# ---------------------------------------------------------------------------
# primitives


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, relu: bool = False) -> Tensor:
    """``x @ w + b``, then a ReLU when ``relu``, as one tape record. The bias
    and the ReLU are applied in place on the matmul's output, and backward
    masks its ``g`` in place, so the layer makes one activation and one
    gradient array where separate ops make up to three of each."""
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeMismatch(f"matmul {x.shape} @ {w.shape}")
    if b is not None and b.data.shape != (1, w.data.shape[1]):
        raise ShapeMismatch(f"add {(x.data.shape[0], w.data.shape[1])} + {b.shape}")
    y = x.data @ w.data
    if b is not None:
        y += b.data
    if relu:
        np.maximum(y, 0, out=y)
    out = Tensor(y, requires_grad=_needs(x, w) or (b is not None and b.requires_grad))

    def backward(g):
        if relu:
            np.multiply(g, out.data > 0, out=g)
        if b is not None and b.requires_grad:
            b.accumulate(g.sum(axis=0, keepdims=True))
        if x.requires_grad:
            x.accumulate(g @ w.data.T)
        if w.requires_grad:
            w.accumulate(x.data.T @ g)

    return _emit(out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a (1, k) row broadcast over a's rows."""
    if a.data.shape != b.data.shape and not (b.data.shape == (1, a.data.shape[1])):
        raise ShapeMismatch(f"add {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data, requires_grad=_needs(a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            if b.data.shape != g.shape:
                b.accumulate(g.sum(axis=0, keepdims=True))
            else:
                b.accumulate(g.copy() if a.grad is g else g)

    return _emit(out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"mul {a.shape} * {b.shape}")
    out = Tensor(a.data * b.data, requires_grad=_needs(a, b))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * b.data)
        if b.requires_grad:
            b.accumulate(g * a.data)

    return _emit(out, backward)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0), requires_grad=x.requires_grad)
    mask = x.data > 0

    def backward(g):
        x.accumulate(np.multiply(g, mask, out=g))

    return _emit(out, backward)


def concat_cols(parts: list[Tensor]) -> Tensor:
    rows = {p.data.shape[0] for p in parts}
    if len(rows) != 1:
        raise ShapeMismatch(f"concat over mismatched row counts {rows}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1), requires_grad=_needs(*parts))
    widths = [p.data.shape[1] for p in parts]

    def backward(g):
        off = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p.accumulate(g[:, off : off + w])
            off += w

    return _emit(out, backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    cols = {p.data.shape[1] for p in parts}
    if len(cols) != 1:
        raise ShapeMismatch(f"concat over mismatched column counts {cols}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0), requires_grad=_needs(*parts))
    heights = [p.data.shape[0] for p in parts]

    def backward(g):
        off = 0
        for p, h in zip(parts, heights):
            if p.requires_grad:
                p.accumulate(g[off : off + h])
            off += h

    return _emit(out, backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= x.data.shape[0]):
        raise ShapeMismatch(f"slice [{start}:{stop}] outside {x.data.shape[0]} rows")
    out = Tensor(x.data[start:stop].copy(), requires_grad=x.requires_grad)

    def backward(g):
        if x.grad is None:
            acc = np.zeros_like(x.data)
            acc[start:stop] = g
            x.accumulate(acc)
        else:
            # a later gradient touches only the sliced rows
            x.grad[start:stop] += g

    return _emit(out, backward)


class ScatterPlan:
    """Row sums over one index array ``idx`` into ``n`` rows, planned once.

    ``sum(rows)[j]`` adds the rows whose index is ``j`` in their order in
    ``idx``, starting from zero, exactly as ``np.add.at`` does, so the bytes
    are the same. The edges are stable-sorted by target row and grouped by
    their rank among the edges that share it; no row repeats within a rank,
    so one fancy-indexed ``+=`` per rank adds every term, and the loop runs
    max-in-degree times. One plan serves a scatter's forward pass and the
    backward pass of the gather over the same indices.
    """

    __slots__ = ("idx", "n", "counts", "_ranks")

    def __init__(self, idx: np.ndarray, n: int):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 1:
            raise ShapeMismatch(f"indices are 1-D, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            bad = idx[(idx < 0) | (idx >= n)][0]
            raise ShapeMismatch(f"row index {bad} outside [0, {n})")
        self.idx = idx
        self.n = n
        self.counts = np.bincount(idx, minlength=n)
        order = np.argsort(idx, kind="stable")
        first = np.cumsum(self.counts) - self.counts  # first sorted position of each row
        rank = np.arange(idx.size) - first[idx[order]]
        by_rank = np.argsort(rank, kind="stable")
        perm = order[by_rank]
        bounds = np.cumsum(np.bincount(rank))
        self._ranks = [(_run(idx[p]), _run(p)) for p in np.split(perm, bounds[:-1])]

    @property
    def size(self) -> int:
        return self.idx.shape[0]

    def sum(self, rows: np.ndarray) -> np.ndarray:
        if rows.shape[0] != self.size:
            raise ShapeMismatch(f"{rows.shape[0]} rows for {self.size} indices")
        out = np.zeros((self.n,) + rows.shape[1:], dtype=rows.dtype)
        for dst, src in self._ranks:
            out[dst] += rows[src]  # no row repeats within a rank
        return out


def _run(a: np.ndarray):
    """``a`` as a slice when it is a run of consecutive indices (a view instead
    of a fancy-indexed copy), else ``a`` itself."""
    if a.size and a[-1] - a[0] == a.size - 1 and (np.diff(a) == 1).all():
        return slice(int(a[0]), int(a[-1]) + 1)
    return a


class Relation:
    """A directed edge set over one node set, planned once: ``src`` gathers
    each edge's source row, ``dst`` scatters its message onto the target row.
    Both plans cover the same ``n`` rows and the same edges."""

    __slots__ = ("src", "dst")

    def __init__(self, src: ScatterPlan, dst: ScatterPlan):
        if src.n != dst.n or src.size != dst.size:
            raise ShapeMismatch(f"src plan of {src.size} edges over {src.n} rows, dst plan of {dst.size} over {dst.n}")
        self.src = src
        self.dst = dst


def gather_rows(x: Tensor, plan: ScatterPlan) -> Tensor:
    """out[i] = x[plan.idx[i]]."""
    if plan.n != x.data.shape[0]:
        raise ShapeMismatch(f"plan over {plan.n} rows used for {x.data.shape[0]}")
    out = Tensor(x.data[plan.idx], requires_grad=x.requires_grad)

    def backward(g):
        x.accumulate(plan.sum(g))

    return _emit(out, backward)


def scatter_add_rows(x: Tensor, plan: ScatterPlan) -> Tensor:
    """out[j] = sum of x rows whose plan index equals j (zero rows if none),
    over ``plan.n`` rows."""
    out = Tensor(plan.sum(x.data), requires_grad=x.requires_grad)

    def backward(g):
        x.accumulate(g[plan.idx])

    return _emit(out, backward)


def scale_rows(x: Tensor, coeff: np.ndarray) -> Tensor:
    """Multiply each row by a constant coefficient."""
    coeff = np.asarray(coeff, dtype=x.data.dtype).reshape(-1, 1)
    if coeff.shape[0] != x.data.shape[0]:
        raise ShapeMismatch(f"{coeff.shape[0]} coefficients for {x.data.shape[0]} rows")
    out = Tensor(x.data * coeff, requires_grad=x.requires_grad)

    def backward(g):
        x.accumulate(g * coeff)

    return _emit(out, backward)


def mean_all(x: Tensor) -> Tensor:
    out = Tensor(np.array([[x.data.mean()]], dtype=x.data.dtype), requires_grad=x.requires_grad)
    n = x.data.size

    def backward(g):
        x.accumulate(np.full_like(x.data, float(g[0, 0]) / n))

    return _emit(out, backward)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    out = Tensor(np.clip(x.data, lo, hi), requires_grad=x.requires_grad)
    mask = (x.data >= lo) & (x.data <= hi)

    def backward(g):
        x.accumulate(np.multiply(g, mask, out=g))

    return _emit(out, backward)


# ---------------------------------------------------------------------------
# fused losses and normalization

# batch norm's running-statistics momentum and its variance guard
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    train: bool,
) -> Tensor:
    """Column-wise batch normalization over the row (node) batch.

    Train mode normalizes with batch moments (population variance) and updates
    the running stats in place with momentum ``BN_MOMENTUM``; eval mode uses
    the running stats. ``BN_EPS`` guards the variance.
    """
    if gamma.data.shape != (1, x.data.shape[1]) or beta.data.shape != (1, x.data.shape[1]):
        raise ShapeMismatch("gamma/beta must be (1, dim) rows")
    if train:
        mean = x.data.mean(axis=0, keepdims=True)
        var = x.data.var(axis=0, keepdims=True)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean[0]
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var[0]
    else:
        mean = running_mean[None, :]
        var = running_var[None, :]
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mean) * inv
    out = Tensor(xhat * gamma.data + beta.data, requires_grad=_needs(x, gamma, beta))
    n = x.data.shape[0]

    def backward(g):
        if gamma.requires_grad:
            gamma.accumulate((g * xhat).sum(axis=0, keepdims=True))
        if beta.requires_grad:
            beta.accumulate(g.sum(axis=0, keepdims=True))
        if x.requires_grad:
            gy = g * gamma.data
            if train:
                x.accumulate(
                    inv * (gy - gy.mean(axis=0, keepdims=True) - xhat * (gy * xhat).mean(axis=0, keepdims=True))
                )
            else:
                x.accumulate(gy * inv)

    return _emit(out, backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over the labeled rows, max-stabilized;
    a row labeled -1 is unlabeled and ignored."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.shape[0] != logits.data.shape[0]:
        raise ShapeMismatch(f"{labels.shape[0]} labels for {logits.data.shape[0]} rows")
    keep = labels != -1
    n_valid = int(keep.sum())
    if n_valid == 0:
        raise AllIgnored("every row is ignored")
    if labels[keep].min() < 0 or labels[keep].max() >= logits.data.shape[1]:
        raise ShapeMismatch("label outside [0, n_classes)")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    rows = np.nonzero(keep)[0]
    nll = -logp[rows, labels[rows]]
    out = Tensor(np.array([[nll.mean()]], dtype=logits.data.dtype), requires_grad=logits.requires_grad)
    softmax_data = np.exp(logp)

    def backward(g):
        grad = softmax_data.copy()
        grad[rows, labels[rows]] -= 1.0
        grad[~keep] = 0.0
        logits.accumulate(grad * (float(g[0, 0]) / n_valid))

    return _emit(out, backward)


def huber(pred: Tensor, target: np.ndarray, delta: float = 1.0) -> Tensor:
    """Mean Huber loss: 0.5 r^2 inside |r| <= delta, linear outside."""
    target = np.asarray(target, dtype=pred.data.dtype)
    if target.shape != pred.data.shape:
        raise ShapeMismatch(f"target {target.shape} vs pred {pred.shape}")
    r = pred.data - target
    absr = np.abs(r)
    quad = absr <= delta
    vals = np.where(quad, 0.5 * r * r, delta * (absr - 0.5 * delta))
    out = Tensor(np.array([[vals.mean()]], dtype=pred.data.dtype), requires_grad=pred.requires_grad)
    n = pred.data.size

    def backward(g):
        dr = np.where(quad, r, delta * np.sign(r))
        pred.accumulate(dr * (float(g[0, 0]) / n))

    return _emit(out, backward)
