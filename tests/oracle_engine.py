"""The oracle engine: generic ops the library no longer records, and the
bag head, the losses and the distractor term written in them.

The library computes pooling, fusion, head, losses, the logit direction
of gradient×input and the distractor objective as coarse nodes
(models._head_node, bce_loss, relevance_loss, explain.gi_vector,
distractor.distractor_loss, distractor.combined_loss), each a numpy
forward with its VJP written out. Here the same computations are
compositions of generic engine ops, each op with its own small VJP, so
that the engine's chain rule gives an independent gradient to check the
coarse nodes against. The ops make their nodes through
autodiff.first_order, as any caller's node is made.

The ops: sub, mul, relu, absolute, clamp, log, broadcast_to, reshape,
transpose, reduce_sum, rows_max, softmax and concat, with the semantics
the engine's own ops (add, sigmoid, matmul, take) follow: float64
throughout, a python float or numpy array operand is a constant Tensor,
and VJPs return plain arrays.
"""

import itertools

import numpy as np

from relexpl import autodiff as ad
from relexpl import kernels
from relexpl.autodiff import ShapeMismatchError, Tensor, _as_tensor, _broadcast, _put, _sum_to
from relexpl.models import BCE_EPS, KIND_DIRECTSUP


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    ra, rb = a.requires_grad, b.requires_grad
    return ad.first_order(_broadcast(np.subtract, "sub", a, b), (a, b),
                          lambda g: (_sum_to(g, sa) if ra else None,
                                     _sum_to(g, sb) * -1.0 if rb else None), "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return ad.first_order(_broadcast(np.multiply, "mul", a, b), (a, b),
                          lambda g: (_sum_to(g * b.data, a.shape) if a.requires_grad else None,
                                     _sum_to(g * a.data, b.shape) if b.requires_grad else None),
                          "mul")


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = (a.data > 0.0).astype(np.float64)
    return ad.first_order(a.data * mask, (a,), lambda g: (g * mask,), "relu")


def absolute(a) -> Tensor:
    a = _as_tensor(a)
    sign = np.sign(a.data)
    return ad.first_order(np.abs(a.data), (a,), lambda g: (g * sign,), "absolute")


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
        rep = rows_max(mul(X, reshape(alphas, (X.shape[0], 1))))
        reps = reshape(rep, (1, X.shape[1]))
    else:  # column k of alphas is the softmax over sentences for relation k
        alphas = softmax(ad.matmul(X, transpose(mul(p["att.query"], p["att.diag"]))))
        reps = transpose(ad.matmul(transpose(X), alphas))  # row k = rep for k
    return alphas, reps, head(model, reps, entity_i, entity_j)


def head(model, reps: Tensor, entity_i: int, entity_j: int) -> Tensor:
    """(K,) logits from (R, d) bag rows, R = K or 1, in engine ops."""
    p = model.params
    if model.cfg.fusion:
        reps = fuse(model, reps, entity_i, entity_j)
    return ad.add(reduce_sum(mul(reps, p["head.rel"]), 1), p["head.bias"])


def fuse(model, reps: Tensor, entity_i: int, entity_j: int) -> Tensor:
    """(R, d) fused rows: relu([rep, v_i - v_j, v_i * v_j] @ fuse.proj + fuse.bias)."""
    p = model.params
    table = p["fuse.entities"]
    vi, vj = ad.take(table, entity_i), ad.take(table, entity_j)
    shape = (reps.shape[0], model.cfg.d_e)
    z = concat([reps, broadcast_to(sub(vi, vj), shape),
                broadcast_to(mul(vi, vj), shape)], axis=1)
    return relu(ad.add(ad.matmul(z, p["fuse.proj"]), p["fuse.bias"]))


def clamped_bce(p: Tensor, y: np.ndarray) -> Tensor:
    """-sum(y log p + (1 - y) log(1 - p)), with p clamped to [eps, 1-eps] before the logs."""
    p = clamp(p, BCE_EPS, 1.0 - BCE_EPS)
    pos = reduce_sum(mul(log(p), y))
    neg = reduce_sum(mul(log(sub(1.0, p)), 1.0 - y))
    return mul(ad.add(pos, neg), -1.0)


def bce_loss(logits: Tensor, labels) -> Tensor:
    return clamped_bce(ad.sigmoid(logits), np.asarray(labels, dtype=np.float64))


def relevance_loss(alphas: Tensor, labels) -> Tensor:
    return clamped_bce(alphas, np.array([1.0 if v else 0.0 for v in labels]))


# ---------------------------------------------------------------------------
# the distractor term, op by op
# ---------------------------------------------------------------------------

def logit_direction(model, rep: np.ndarray, k: int, entity_i: int, entity_j: int) -> Tensor:
    """explain._logit_direction's u_k = d o_k / d rep as a recorded (d,) tensor:
    head.rel[k], or with fusion fuse.proj[:d] @ (m * head.rel[k]), the
    fused row's ReLU mask m a constant."""
    p = model.params
    r = ad.take(p["head.rel"], k)
    if not model.cfg.fusion:
        return r
    mask = model._fuse(rep[None], entity_i, entity_j)[2][0]
    return ad.matmul(ad.take(p["fuse.proj"], slice(0, rep.shape[0])), mul(r, mask))


def distractor_loss(gi: Tensor, gamma: float) -> Tensor:
    """distractor.distractor_loss over (N + 1,) attributions, distractor last:
    max(0, gamma + GI_d - max_n GI_n) + |GI_d|."""
    n = gi.shape[0] - 1
    base, d = ad.take(gi, slice(0, n)), ad.take(gi, n)
    top = ad.take(base, int(np.argmax(base.data)))  # ties: lowest index
    return ad.add(relu(ad.add(sub(d, top), float(gamma))), absolute(d))


def combined_loss(base_loss: Tensor, distractor_terms, lam: float) -> Tensor:
    """distractor.combined_loss: base + lam * the terms' sum, summed in order."""
    total = distractor_terms[0]
    for t in distractor_terms[1:]:
        total = ad.add(total, t)
    return ad.add(base_loss, mul(total, float(lam)))
