"""The oracle engine: generic ops the library no longer records, and the
bag head and losses written in them.

The library computes pooling, fusion, head and losses as coarse nodes
(models._head_node, bce_loss, relevance_loss), each a numpy forward with
its VJP written out. Here the same computations are compositions of
generic engine ops, each op with its own small VJP, so that the engine's
chain rule gives an independent gradient to check the coarse nodes
against. The ops make their nodes through autodiff.first_order, as any
caller's node is made.

The ops: clamp, log, broadcast_to, reshape, transpose, reduce_sum,
rows_max, softmax and concat, with the semantics the engine's own ops
(add, sub, mul, matmul, take, ...) follow: float64 throughout, a python
float or numpy array operand is a constant Tensor, and VJPs return plain
arrays.
"""

import itertools

import numpy as np

from relexpl import autodiff as ad
from relexpl import kernels
from relexpl.autodiff import ShapeMismatchError, Tensor, _as_tensor, _put, _sum_to
from relexpl.models import BCE_EPS, KIND_DIRECTSUP


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip into [lo, hi]; gradient passes only where lo <= x <= hi."""
    a = _as_tensor(a)
    mask = ((a.data >= lo) & (a.data <= hi)).astype(np.float64)
    return ad.first_order(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,), "clamp")


def log(a) -> Tensor:
    a = _as_tensor(a)
    return ad.first_order(np.log(a.data), (a,), lambda g: (g * (1.0 / a.data),), "log")


def broadcast_to(a, shape) -> Tensor:
    """Copy a out to `shape` by numpy's broadcasting rules."""
    a = _as_tensor(a)
    shape = tuple(shape)
    try:
        out = np.broadcast_to(a.data, shape).copy()
    except ValueError:
        raise ShapeMismatchError("broadcast_to", a.shape, shape) from None
    return ad.first_order(out, (a,), lambda g: (_sum_to(g, a.shape),), "broadcast_to")


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    src = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeMismatchError("reshape", src, tuple(shape)) from None
    return ad.first_order(out, (a,), lambda g: (g.reshape(src),), "reshape")


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeMismatchError("transpose", a.shape, ("m", "n"))
    return ad.first_order(np.ascontiguousarray(a.data.T), (a,),
                          lambda g: (np.ascontiguousarray(g.T),), "transpose")


def reduce_sum(a, axis: int | None = None) -> Tensor:
    """np.sum(a, axis): the sum of all entries, or the sum along one axis."""
    a = _as_tensor(a)
    shape = a.shape
    if axis is not None:
        if not -a.ndim <= axis < a.ndim:
            raise ShapeMismatchError("reduce_sum", shape, (axis,))
        axis %= a.ndim
    # g lines up with the trailing axes of a unless an axis before the summed one survives
    kept = shape[:axis] + (1,) + shape[axis + 1:] if axis else None
    return ad.first_order(np.sum(a.data, axis=axis), (a,),
                          lambda g: (np.broadcast_to(g if kept is None else g.reshape(kept),
                                                     shape).copy(),), "reduce_sum")


def rows_max(m) -> Tensor:
    """Columnwise max over rows of a nonempty (n, d), ties to the lowest row;
    the winner selection is constant during differentiation."""
    m = _as_tensor(m)
    if m.ndim != 2 or m.shape[0] == 0:
        raise ShapeMismatchError("rows_max", m.shape, ("n>=1", "d"))
    vals, idx = kernels.rows_max(np.ascontiguousarray(m.data))
    index = (idx, np.arange(m.shape[1]))
    shape = m.shape
    return ad.first_order(vals, (m,), lambda g: (_put(g, index, shape),), "rows_max")


def softmax(a) -> Tensor:
    """Softmax along the sentence axis: 1-d vectors, or axis 0 of a 2-d matrix."""
    a = _as_tensor(a)
    if a.size == 0 or a.ndim not in (1, 2):
        raise ShapeMismatchError("softmax", a.shape, (0,))
    e = np.exp(a.data - a.data.max(axis=0, keepdims=True))
    y = e / e.sum(axis=0, keepdims=True)
    return ad.first_order(y, (a,), lambda g: (y * (g - np.sum(g * y, axis=0)),), "softmax")


def concat(parts, axis: int = 0) -> Tensor:
    """Join tensors along an existing axis."""
    parts = [_as_tensor(p) for p in parts]
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeMismatchError("concat", (axis,), tuple(p.shape for p in parts)) from None
    lead = (slice(None),) * (axis % out.ndim)
    bounds = list(itertools.accumulate((p.shape[len(lead)] for p in parts), initial=0))
    index = [lead + (slice(lo, hi),) for lo, hi in zip(bounds, bounds[1:])]
    return ad.first_order(out, parts, lambda g: tuple(g[i].copy() for i in index), "concat")


# ---------------------------------------------------------------------------
# the bag head and the losses, op by op
# ---------------------------------------------------------------------------

def bag_logits(model, X: Tensor, entity_i: int, entity_j: int) -> tuple[Tensor, Tensor, Tensor]:
    """(alphas, pre-fusion reps, logits) of RelationModel._bag_logits, in engine ops."""
    p = model.params
    if model.cfg.kind == KIND_DIRECTSUP:
        alphas = ad.sigmoid(ad.add(ad.matmul(X, p["rel.w"]), p["rel.b"]))
        rep = rows_max(ad.mul(X, reshape(alphas, (X.shape[0], 1))))
        reps = reshape(rep, (1, X.shape[1]))
    else:  # column k of alphas is the softmax over sentences for relation k
        alphas = softmax(ad.matmul(X, transpose(ad.mul(p["att.query"], p["att.diag"]))))
        reps = transpose(ad.matmul(transpose(X), alphas))  # row k = rep for k
    return alphas, reps, head(model, reps, entity_i, entity_j)


def head(model, reps: Tensor, entity_i: int, entity_j: int) -> Tensor:
    """(K,) logits from (R, d) bag rows, R = K or 1, in engine ops."""
    p = model.params
    if model.cfg.fusion:
        reps = fuse(model, reps, entity_i, entity_j)
    return ad.add(reduce_sum(ad.mul(reps, p["head.rel"]), 1), p["head.bias"])


def fuse(model, reps: Tensor, entity_i: int, entity_j: int) -> Tensor:
    """(R, d) fused rows: relu([rep, v_i - v_j, v_i * v_j] @ fuse.proj + fuse.bias)."""
    p = model.params
    table = p["fuse.entities"]
    vi, vj = ad.take(table, entity_i), ad.take(table, entity_j)
    shape = (reps.shape[0], model.cfg.d_e)
    z = concat([reps, broadcast_to(ad.sub(vi, vj), shape),
                broadcast_to(ad.mul(vi, vj), shape)], axis=1)
    return ad.relu(ad.add(ad.matmul(z, p["fuse.proj"]), p["fuse.bias"]))


def clamped_bce(p: Tensor, y: np.ndarray) -> Tensor:
    """-sum(y log p + (1 - y) log(1 - p)), with p clamped to [eps, 1-eps] before the logs."""
    p = clamp(p, BCE_EPS, 1.0 - BCE_EPS)
    pos = reduce_sum(ad.mul(log(p), y))
    neg = reduce_sum(ad.mul(log(ad.sub(1.0, p)), 1.0 - y))
    return ad.mul(ad.add(pos, neg), -1.0)


def bce_loss(logits: Tensor, labels) -> Tensor:
    return clamped_bce(ad.sigmoid(logits), np.asarray(labels, dtype=np.float64))


def relevance_loss(alphas: Tensor, labels) -> Tensor:
    return clamped_bce(alphas, np.array([1.0 if v else 0.0 for v in labels]))
