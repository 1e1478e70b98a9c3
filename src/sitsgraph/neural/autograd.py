"""Minimal reverse-mode autodiff over dense 2-D arrays.

Forward ops append (gradient slot, backward closure) records to the active
tape in execution order; ``Tape.backward`` replays them in exact reverse
order, and every gradient accumulates (``Grad.accumulate``) so parameters
reused across ops collect contributions from every use. The replay frees each
record and each intermediate gradient once consumed, so a tape replays once.
A tensor keeps the float array it is given: the models pass float32, and
building the graph in float64 (for finite-difference checks) just means
passing float64 data in.

A tensor is its ``data`` and its gradient slot (``Grad``): the gradient, the
flags and the shape and dtype the gradient takes. The tape and the backward
closures hold slots, never tensors, and a closure keeps only the arrays its
backward reads: ``linear`` keeps its input when the weight needs a gradient,
its weight when the input does and its output only for the ReLU mask, ``mul``
its operands, ``batchnorm`` ``xhat``, the inverse deviation, ``gamma`` and
its output for the ReLU mask, and the other ops masks, plans and shapes. An
activation that no backward reads is freed as soon as the forward code
drops it.

Gradient arrays have one owner at a time, so the replay copies none it need
not:

- a backward closure owns the ``g`` it receives (``Tape.backward`` detaches
  it from the output's slot first) and may overwrite it, as the ReLU and
  clamp masks do;
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


class Grad:
    """A tensor's gradient slot: its gradient, whether it needs one, whether
    an op recorded it on a tape, and the shape and dtype of its data, without
    the data itself."""

    __slots__ = ("grad", "requires_grad", "recorded", "shape", "dtype")

    def __init__(self, requires_grad: bool):
        self.grad = None
        self.requires_grad = requires_grad
        self.recorded = False  # an op output on a tape, set by _emit

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` to ``.grad``, in the dtype and shape of the data.

        ``grad`` becomes this slot's: the caller neither reads nor writes it
        afterwards. An op output stores its first gradient as is when the
        dtype and shape match. Any other first gradient, and every first
        gradient of a leaf, is stored in one pass as ``grad + 0.0`` into a
        fresh array, never as an alias of ``grad``; adding ``+0.0`` turns a
        ``-0.0`` into ``+0.0``, as ``zeros_like(data) + grad`` does, so the
        stored bytes are those of a zero-initialized sum. Later gradients
        are added with ``+=``.
        """
        if self.grad is not None:
            self.grad += grad
        elif self.recorded and grad.dtype == self.dtype and grad.shape == self.shape:
            self.grad = grad
        else:
            self.grad = np.add(grad, 0.0, out=np.empty(self.shape, self.dtype), casting="same_kind")


class Tensor:
    """A 2-D array and its gradient slot; ``grad`` and ``requires_grad`` are
    the slot's."""

    __slots__ = ("_data", "slot")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ShapeMismatch(f"tensors are 2-D, got shape {arr.shape}")
        self.slot = Grad(bool(requires_grad))
        self.data = arr

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, arr: np.ndarray) -> None:
        self._data = arr
        self.slot.shape, self.slot.dtype = arr.shape, arr.dtype

    @property
    def shape(self):
        return self._data.shape

    @property
    def requires_grad(self) -> bool:
        return self.slot.requires_grad

    @property
    def grad(self) -> np.ndarray | None:
        return self.slot.grad

    @grad.setter
    def grad(self, grad: np.ndarray | None) -> None:
        self.slot.grad = grad

    def zero_grad(self) -> None:
        self.slot.grad = None


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Operation record in execution order.

    A record is an op output's gradient slot and the op's backward closure.
    ``backward`` drops each record once it has replayed it and clears the
    gradient of each op output once it has been passed on, so the arrays a
    closure keeps and the intermediate gradients are freed in reverse order
    while the replay runs; leaf and parameter gradients are kept. A tape
    therefore replays once. ``len`` counts the recorded ops, before and after.
    """

    def __init__(self):
        self._records: list[tuple[Grad, callable]] = []
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
            slot, fn = records.pop()
            g, slot.grad = slot.grad, None
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
    slot = out.slot
    if slot.requires_grad and _ACTIVE_TAPE is not None:
        slot.recorded = True
        _ACTIVE_TAPE._records.append((slot, fn))
    return out


def _needs(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


# ---------------------------------------------------------------------------
# primitives


def linear(
    x: Tensor, w: Tensor, b: Tensor | None = None, relu: bool = False, residual: Tensor | None = None
) -> Tensor:
    """``x @ w + b``, plus ``residual`` when given, then a ReLU when
    ``relu``, as one tape record. The bias, the residual and the ReLU are
    applied in place on the matmul's output, and backward masks its ``g`` in
    place, so the layer makes one activation and one gradient array where
    separate ops make up to four of each. Adding the residual last gives the
    bytes of ``add(residual, linear(x, w, b))``, since ``y + r`` is ``r + y``,
    and backward hands ``g`` to the residual first, as that ``add`` did."""
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeMismatch(f"matmul {x.shape} @ {w.shape}")
    if b is not None and b.data.shape != (1, w.data.shape[1]):
        raise ShapeMismatch(f"add {(x.data.shape[0], w.data.shape[1])} + {b.shape}")
    if residual is not None and residual.data.shape != (x.data.shape[0], w.data.shape[1]):
        raise ShapeMismatch(f"add {residual.shape} + {(x.data.shape[0], w.data.shape[1])}")
    y = x.data @ w.data
    if b is not None:
        y += b.data
    if residual is not None:
        y += residual.data
    if relu:
        np.maximum(y, 0, out=y)
    out = Tensor(
        y,
        requires_grad=_needs(x, w)
        or (b is not None and b.requires_grad)
        or (residual is not None and residual.requires_grad),
    )
    xs, ws = x.slot, w.slot
    bs = None if b is None else b.slot
    rs = None if residual is None else residual.slot
    x_data = x.data if ws.requires_grad else None
    w_data = w.data if xs.requires_grad else None
    relu_out = y if relu else None

    def backward(g):
        if relu_out is not None:
            np.multiply(g, relu_out > 0, out=g)
        if rs is not None and rs.requires_grad:
            rs.accumulate(g)
            if rs.grad is g and (rs is xs or rs is bs):
                g = g.copy()  # the accumulate below would add into the residual's g
        if bs is not None and bs.requires_grad:
            bs.accumulate(g.sum(axis=0, keepdims=True))
        if xs.requires_grad:
            xs.accumulate(g @ w_data.T)
        if ws.requires_grad:
            ws.accumulate(x_data.T @ g)

    return _emit(out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a (1, k) row broadcast over a's rows."""
    if a.data.shape != b.data.shape and not (b.data.shape == (1, a.data.shape[1])):
        raise ShapeMismatch(f"add {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data, requires_grad=_needs(a, b))
    sa, sb = a.slot, b.slot

    def backward(g):
        if sa.requires_grad:
            sa.accumulate(g)
        if sb.requires_grad:
            if sb.shape != g.shape:
                sb.accumulate(g.sum(axis=0, keepdims=True))
            else:
                sb.accumulate(g.copy() if sa.grad is g else g)

    return _emit(out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"mul {a.shape} * {b.shape}")
    out = Tensor(a.data * b.data, requires_grad=_needs(a, b))
    sa, sb, a_data, b_data = a.slot, b.slot, a.data, b.data

    def backward(g):
        if sa.requires_grad:
            sa.accumulate(g * b_data)
        if sb.requires_grad:
            sb.accumulate(g * a_data)

    return _emit(out, backward)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0), requires_grad=x.requires_grad)
    xs, mask = x.slot, x.data > 0

    def backward(g):
        xs.accumulate(np.multiply(g, mask, out=g))

    return _emit(out, backward)


def concat_cols(parts: list[Tensor]) -> Tensor:
    rows = {p.data.shape[0] for p in parts}
    if len(rows) != 1:
        raise ShapeMismatch(f"concat over mismatched row counts {rows}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1), requires_grad=_needs(*parts))
    slots = [p.slot for p in parts]

    def backward(g):
        off = 0
        for s in slots:
            w = s.shape[1]
            if s.requires_grad:
                s.accumulate(g[:, off : off + w])
            off += w

    return _emit(out, backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    cols = {p.data.shape[1] for p in parts}
    if len(cols) != 1:
        raise ShapeMismatch(f"concat over mismatched column counts {cols}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0), requires_grad=_needs(*parts))
    slots = [p.slot for p in parts]

    def backward(g):
        off = 0
        for s in slots:
            h = s.shape[0]
            if s.requires_grad:
                s.accumulate(g[off : off + h])
            off += h

    return _emit(out, backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= x.data.shape[0]):
        raise ShapeMismatch(f"slice [{start}:{stop}] outside {x.data.shape[0]} rows")
    out = Tensor(x.data[start:stop].copy(), requires_grad=x.requires_grad)
    xs = x.slot

    def backward(g):
        if xs.grad is None:
            acc = np.zeros(xs.shape, xs.dtype)
            acc[start:stop] = g
            xs.accumulate(acc)
        else:
            # a later gradient touches only the sliced rows
            xs.grad[start:stop] += g

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
        self._ranks = None

    @property
    def ranks(self) -> list:
        """(target rows, edge positions) per rank, planned on first use: a
        plan whose whole edge set is never summed (an untaped pass's gather
        plans, or one summed only in blocks) never holds them."""
        if self._ranks is None:
            self._ranks = _plan_ranks(self.idx, self.counts)
        return self._ranks

    @property
    def size(self) -> int:
        return self.idx.shape[0]

    def sum(self, rows: np.ndarray) -> np.ndarray:
        if rows.shape[0] != self.size:
            raise ShapeMismatch(f"{rows.shape[0]} rows for {self.size} indices")
        out = np.zeros((self.n,) + rows.shape[1:], dtype=rows.dtype)
        self.add_to(out, rows)
        return out

    def add_to(self, out: np.ndarray, rows: np.ndarray, lo: int = 0) -> None:
        """``out[j] +=`` the rows whose index is ``j``, in edge order, where
        ``rows`` holds the messages of edges ``[lo, lo + len(rows))``. Adding
        consecutive blocks of the edges in turn into a zeroed ``out`` gives the
        bytes of ``sum``: each row still adds its terms in edge order from
        zero. A block of the edges is planned over its own target range, so
        its cost grows with the block, not with ``n``."""
        hi = lo + rows.shape[0]
        if out.shape[0] != self.n or not 0 <= lo <= hi <= self.size:
            raise ShapeMismatch(f"edges [{lo}, {hi}) into {out.shape[0]} rows for a plan of {self.size} edges over {self.n}")
        if lo == 0 and hi == self.size:
            ranks, base = self.ranks, 0
        else:
            idx = self.idx[lo:hi]
            base = int(idx.min(initial=self.n))  # n: an empty block adds nothing
            idx = idx - base
            ranks = _plan_ranks(idx, np.bincount(idx))
        view = out[base:]
        for dst, src in ranks:
            view[dst] += rows[src]  # no row repeats within a rank


def _plan_ranks(idx: np.ndarray, counts: np.ndarray) -> list:
    """(target rows, edge positions) per rank: the edges stable-sorted by
    target row and grouped by their rank among the edges that share it."""
    order = np.argsort(idx, kind="stable")
    first = np.cumsum(counts) - counts  # first sorted position of each row
    rank = np.arange(idx.size) - first[idx[order]]
    by_rank = np.argsort(rank, kind="stable")
    perm = order[by_rank]
    bounds = np.cumsum(np.bincount(rank))
    return [(_run(idx[p]), _run(p)) for p in np.split(perm, bounds[:-1])]


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

    __slots__ = ("src", "dst", "_passes")

    def __init__(self, src: ScatterPlan, dst: ScatterPlan):
        if src.n != dst.n or src.size != dst.size:
            raise ShapeMismatch(f"src plan of {src.size} edges over {src.n} rows, dst plan of {dst.size} over {dst.n}")
        self.src = src
        self.dst = dst
        self._passes = None

    def passes(self) -> tuple[list, list]:
        """``propagate``'s composed plans: each rank of the dst plan composed
        with ``src.idx`` into (target rows, source rows, edge positions) for
        the forward pass, and each rank of the src plan with ``dst.idx`` for
        the backward pass, so a pass reads its rows straight from the node
        array. They are composed once, on first use; a relation that only
        gathers and scatters (the forecaster's) never holds them."""
        if self._passes is None:
            self._passes = (_compose(self.dst.ranks, self.src.idx), _compose(self.src.ranks, self.dst.idx))
        return self._passes


def _compose(ranks: list, idx: np.ndarray) -> list:
    """(rows written, rows of ``idx`` read, edge positions) per rank of a
    plan."""
    return [(rows, _run(idx[edges]), edges) for rows, edges in ranks]


def gather_rows(x: Tensor, plan: ScatterPlan) -> Tensor:
    """out[i] = x[plan.idx[i]]."""
    if plan.n != x.data.shape[0]:
        raise ShapeMismatch(f"plan over {plan.n} rows used for {x.data.shape[0]}")
    out = Tensor(x.data[plan.idx], requires_grad=x.requires_grad)
    xs = x.slot

    def backward(g):
        xs.accumulate(plan.sum(g))

    return _emit(out, backward)


def scatter_add_rows(x: Tensor, plan: ScatterPlan) -> Tensor:
    """out[j] = sum of x rows whose plan index equals j (zero rows if none),
    over ``plan.n`` rows."""
    out = Tensor(plan.sum(x.data), requires_grad=x.requires_grad)
    xs = x.slot

    def backward(g):
        xs.accumulate(g[plan.idx])

    return _emit(out, backward)


def edge_inputs(e: Tensor, x: Tensor, rel: Relation, lo: int = 0) -> Tensor:
    """``[e, x[src], x[dst]]`` for the edges ``[lo, lo + len(e))`` of ``rel``,
    each row an edge's features then its source and target node rows: the
    bytes of ``concat_cols([e, gather_rows(x, rel.src), gather_rows(x,
    rel.dst)])`` over those edges, as one record and one array. Each node
    third is fancy-indexed from ``x`` and assigned into its columns.

    Backward hands the edge third to ``e``, then adds the target third and
    then the source third into ``x``, each summed over its plan, in the
    order in which the concat's and the two gathers' records replayed."""
    k = e.data.shape[0]
    if rel.src.n != x.data.shape[0]:
        raise ShapeMismatch(f"relation over {rel.src.n} nodes used for {x.data.shape[0]}")
    if not 0 <= lo <= lo + k <= rel.src.size:
        raise ShapeMismatch(f"{k} edge features from edge {lo} for {rel.src.size} edges")
    we, h = e.data.shape[1], x.data.shape[1]
    out = np.empty((k, we + 2 * h), dtype=np.result_type(e.data, x.data))
    out[:, :we] = e.data
    out[:, we : we + h] = x.data[rel.src.idx[lo : lo + k]]
    out[:, we + h :] = x.data[rel.dst.idx[lo : lo + k]]
    out = Tensor(out, requires_grad=_needs(e, x))
    es, xs = e.slot, x.slot

    def backward(g):
        if es.requires_grad:
            es.accumulate(g[:, :we])
        if xs.requires_grad:
            for plan, col in ((rel.dst, we + h), (rel.src, we)):
                acc = np.zeros((plan.n, h), dtype=g.dtype)
                plan.add_to(acc, g[:, col : col + h], lo)
                xs.accumulate(acc)

    return _emit(out, backward)


def propagate(x: Tensor, rel: Relation, coeff: np.ndarray | None = None) -> Tensor:
    """out[j] = sum of x[src] over the edges of ``rel`` into j, in edge order,
    each term times its edge's ``coeff`` when given: the bytes of
    ``scatter_add_rows(gather_rows(x, rel.src), rel.dst)``, with
    ``scale_rows`` by ``coeff`` between them, as one record with no per-edge
    array. Each pass is one loop over the ranks of a composed plan
    (``Relation.passes``) that adds the same terms in the same order."""
    if rel.src.n != x.data.shape[0]:
        raise ShapeMismatch(f"plan over {rel.src.n} rows used for {x.data.shape[0]}")
    if coeff is not None:
        coeff = np.asarray(coeff, dtype=x.data.dtype).reshape(-1, 1)
        if coeff.shape[0] != rel.src.size:
            raise ShapeMismatch(f"{coeff.shape[0]} coefficients for {rel.src.size} edges")
    push, pull = rel.passes()
    out = Tensor(_pass(push, x.data, coeff), requires_grad=x.requires_grad)
    xs = x.slot

    def backward(g):
        xs.accumulate(_pass(pull, g, coeff))

    return _emit(out, backward)


def _pass(ranks: list, rows: np.ndarray, coeff: np.ndarray | None) -> np.ndarray:
    out = np.zeros(rows.shape, dtype=rows.dtype)
    for dst, src, edges in ranks:  # no row repeats within a rank
        if coeff is None:
            out[dst] += rows[src]
        else:
            out[dst] += rows[src] * coeff[edges]
    return out


def scale_rows(x: Tensor, coeff: np.ndarray) -> Tensor:
    """Multiply each row by a constant coefficient."""
    coeff = np.asarray(coeff, dtype=x.data.dtype).reshape(-1, 1)
    if coeff.shape[0] != x.data.shape[0]:
        raise ShapeMismatch(f"{coeff.shape[0]} coefficients for {x.data.shape[0]} rows")
    out = Tensor(x.data * coeff, requires_grad=x.requires_grad)
    xs = x.slot

    def backward(g):
        xs.accumulate(g * coeff)

    return _emit(out, backward)


def mean_all(x: Tensor) -> Tensor:
    out = Tensor(np.array([[x.data.mean()]], dtype=x.data.dtype), requires_grad=x.requires_grad)
    xs, n = x.slot, x.data.size

    def backward(g):
        xs.accumulate(np.full(xs.shape, float(g[0, 0]) / n, xs.dtype))

    return _emit(out, backward)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    out = Tensor(np.clip(x.data, lo, hi), requires_grad=x.requires_grad)
    xs, mask = x.slot, (x.data >= lo) & (x.data <= hi)

    def backward(g):
        xs.accumulate(np.multiply(g, mask, out=g))

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
    relu: bool = False,
) -> Tensor:
    """Column-wise batch normalization over the row (node) batch, then a ReLU
    when ``relu``, as one tape record.

    Train mode normalizes with batch moments (population variance) and updates
    the running stats in place with momentum ``BN_MOMENTUM``; eval mode uses
    the running stats. ``BN_EPS`` guards the variance. The batch mean is
    taken once, as ``np.mean`` takes it (``np.add.reduce``, then
    ``true_divide`` by the row count), and the variance and ``xhat`` come
    from the one centred array, so the bytes are those of ``x.mean`` and
    ``x.var``. The affine step and the ReLU work in place, and backward
    reuses two buffers.
    """
    if gamma.data.shape != (1, x.data.shape[1]) or beta.data.shape != (1, x.data.shape[1]):
        raise ShapeMismatch("gamma/beta must be (1, dim) rows")
    buf = None
    if train:
        rows = np.intp(x.data.shape[0])
        mean = np.add.reduce(x.data, axis=0, keepdims=True)
        np.true_divide(mean, rows, out=mean, casting="unsafe")
        d = x.data - mean
        buf = np.square(d)
        var = np.add.reduce(buf, axis=0, keepdims=True)
        np.true_divide(var, rows, out=var, casting="unsafe")
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean[0]
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var[0]
    else:
        d = x.data - running_mean[None, :]
        var = running_var[None, :]
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = np.multiply(d, inv, out=d)
    y = np.multiply(xhat, gamma.data, out=buf)
    y += beta.data
    if relu:
        np.maximum(y, 0, out=y)
    out = Tensor(y, requires_grad=_needs(x, gamma, beta))
    xs, gs, bs, gamma_data = x.slot, gamma.slot, beta.slot, gamma.data
    relu_out = y if relu else None

    def backward(g):
        if relu_out is not None:
            np.multiply(g, relu_out > 0, out=g)
        tmp = np.multiply(g, xhat)
        if gs.requires_grad:
            gs.accumulate(tmp.sum(axis=0, keepdims=True))
        if bs.requires_grad:
            bs.accumulate(g.sum(axis=0, keepdims=True))
        if xs.requires_grad:
            gy = np.multiply(g, gamma_data, out=g)
            if train:
                m1 = gy.mean(axis=0, keepdims=True)
                m2 = np.multiply(gy, xhat, out=tmp).mean(axis=0, keepdims=True)
                gy -= m1
                gy -= np.multiply(xhat, m2, out=tmp)
            gy *= inv
            xs.accumulate(gy)

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
    ls = logits.slot

    def backward(g):
        grad = softmax_data.copy()
        grad[rows, labels[rows]] -= 1.0
        grad[~keep] = 0.0
        ls.accumulate(grad * (float(g[0, 0]) / n_valid))

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
    ps, n = pred.slot, pred.data.size

    def backward(g):
        dr = np.where(quad, r, delta * np.sign(r))
        ps.accumulate(dr * (float(g[0, 0]) / n))

    return _emit(out, backward)
