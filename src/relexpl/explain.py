"""Sentence-importance scoring over a frozen model.

Four mechanisms, all returning one score per sentence of a bag for a
chosen relation k:

  attention  the model's own sentence weights
  saliency   L1 norm of the gradient of the logit o_k w.r.t. each
             sentence encoding
  gi         gradient-times-input: the first-order contribution of each
             encoding to o_k
  loo        logit drop when the sentence is removed and the bag is
             re-scored without it

Attribution happens at the sentence-encoding level (the vectors the bag
pooling consumes), not at token embeddings. Scoring never mutates the
model: gradients are taken functionally.

explain_corpus runs each positive bag forward once and every (relation,
method) pair reads that forward: attention its weights, saliency and gi
one gradient per relation, taken on its graph, and loo one re-pooling of
its cached encoding stack per dropped sentence, whose K logits serve
every relation. The forward memoizes both (BagForward.memo). Sentence
encodings do not interact, so the re-pooled logits are exactly those of a
fresh forward over the remaining sentences, and leave-one-out costs one
pooling per sentence rather than a re-encoding of the bag per sentence.

Distractor training needs gradient×input as a differentiable value, and
the engine differentiates once. gi_vector gives it in closed form for the
two poolings, as one engine node whose VJP is the form's derivative
written out in numpy, so the training loss's parameter gradient is an
ordinary backward. The node's parents are the encoding stack and the
parameters themselves: the weighting's (att.query and att.diag, or rel.w
and rel.b) and the logit direction's (head.rel, and fuse.proj with
fusion), so nothing of the form is recorded op by op. The test suite
checks the values against encoding_gradient times the encodings, and the
VJP against the engine's gradient of the same form written in its oracle
engine's ops.

Past the encoder's node, a forward records one node for cnns-att (its bag
head) and four for directsup (the sigmoid weights' matmul, add and
sigmoid, then the head), so the gradients saliency and gi take run few
VJPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import jsonio, kernels
from .autodiff import Tensor, _put, _sigmoid_np
from .corpus import Bag
from .models import KIND_DIRECTSUP, BagForward, RelationModel

METHODS = ("attention", "saliency", "gi", "loo")


@dataclass(frozen=True)
class ImportanceScores:
    bag_id: str
    relation: int
    method: str
    scores: tuple[float, ...]


def encoding_gradient(fwd: BagForward, k: int) -> Tensor:
    """(N, d) gradient of the logit o_k w.r.t. the encoding stack, a bare tensor."""
    if fwd.X is None:
        raise ValueError("forward pass has no sentence encodings")
    (gX,) = ad.grad(ad.take(fwd.logits, k), [fwd.X])
    return gX


def _logit_direction(model: RelationModel, rep: np.ndarray, k: int,
                     entity_i: int, entity_j: int):
    """(u_k, its parameters, VJP): u_k = d o_k / d rep for the pre-fusion bag row rep.

    Without fusion u_k is head.rel[k]; with it, fuse.proj[:d] @ (m * head.rel[k]),
    where m, the ReLU mask of rep's fused row (RelationModel._fuse), is a
    constant. The VJP maps u_k's gradient to head.rel's (and fuse.proj's),
    formed as the engine's take, mul and matmul would form them.
    """
    p = model.params
    rel = p["head.rel"]
    r = rel.data[k]
    if not model.cfg.fusion:
        return r, (rel,), lambda g: (_put(g, k, rel.shape),)
    proj = p["fuse.proj"]
    d = rep.shape[0]
    top = proj.data[:d]
    mask = model._fuse(rep[None], entity_i, entity_j)[2][0]
    rm = r * mask
    return top @ rm, (rel, proj), lambda g: (
        _put((np.ascontiguousarray(top.T) @ g) * mask, k, rel.shape),
        _put(g.reshape((d, 1)) * rm, slice(0, d), proj.shape))


def gi_vector(model: RelationModel, X: Tensor, k: int, entity_i: int, entity_j: int) -> Tensor:
    """Per-sentence gradient×input of o_k over the (N, d) encoding stack X, in closed form.

    Its values are those of encoding_gradient(...) times X, row by row, on a
    forward over X. With s = X u_k (see `_logit_direction`):

      cnns-att   q = att.query[k] * att.diag, alpha = softmax(X q),
                 GI_n = alpha_n (s_n + (s_n - alpha . s)(x_n . q))
      directsup  alpha = sigmoid(X rel.w + rel.b), M the one-hot winner mask of
                 the max-pool (ties to the lowest row, as the bag head's),
                 t = (X * M) u_k, GI_n = alpha_n t_n (1 + (1 - alpha_n)(x_n . rel.w))

    The result is one engine node over X, the weighting parameters
    (att.query and att.diag, or rel.w and rel.b) and u_k's parameters
    (head.rel, and fuse.proj with fusion), whose VJP is the derivative of
    these formulas in numpy; the max-pool winners and the fusion mask are
    constants to it, as they are to the engine's own gradients. The --ld
    loss's parameter gradient is thus an ordinary backward.
    """
    model._check_k(k)
    p = model.params
    x = X.data
    if model.cfg.kind == KIND_DIRECTSUP:
        w, b = p["rel.w"], p["rel.b"]
        xw = x @ w.data
        a = _sigmoid_np(xw + b.data)
        rep, winners = kernels.rows_max(x * a.reshape(-1, 1))
        mask = np.zeros(x.shape)
        mask[winners, np.arange(x.shape[1])] = 1.0
        u, u_params, u_vjp = _logit_direction(model, rep, k, entity_i, entity_j)
        xm = x * mask
        t = xm @ u
        h = 1.0 + (1.0 - a) * xw

        def ds_vjp(g):
            g_pre = g * t * (h - a * xw) * a * (1.0 - a)  # through alpha's sigmoid
            g_xw = g_pre + g * a * t * (1.0 - a)
            g_t = g * a * h
            return (np.outer(g_xw, w.data) + mask * np.outer(g_t, u),
                    x.T @ g_xw, g_pre.sum(), *u_vjp(xm.T @ g_t))

        return ad.first_order(a * t * h, (X, w, b, *u_params), ds_vjp, "gi_vector")
    query, diag = p["att.query"], p["att.diag"]
    q = query.data[k] * diag.data
    z = x @ q
    e = np.exp(z - z.max())
    a = e / e.sum()
    u, u_params, u_vjp = _logit_direction(model, a @ x, k, entity_i, entity_j)
    s = x @ u
    c = s - a @ s

    def att_vjp(g):
        g_mean = -(g * a * z).sum()  # through alpha . s
        g_a = g * (s + c * z) + g_mean * s
        g_s = g * a * (1.0 + z) + g_mean * a
        g_z = g * a * c + a * (g_a - a @ g_a)  # through the softmax
        g_q = x.T @ g_z
        return (np.outer(g_z, q) + np.outer(g_s, u), _put(g_q * diag.data, k, query.shape),
                g_q * query.data[k], *u_vjp(x.T @ g_s))

    return ad.first_order(a * (s + c * z), (X, query, diag, *u_params), att_vjp, "gi_vector")


def _shared_forward(model: RelationModel, bag: Bag, k: int,
                    fwd: BagForward | None) -> BagForward:
    """Check k, then reuse the bag's forward, running it only if none is given."""
    model._check_k(k)
    return model.forward_bag(bag) if fwd is None else fwd


def _gradient_once(fwd: BagForward, k: int) -> np.ndarray:
    """encoding_gradient(fwd, k) as an array, taken once per forward and
    relation: saliency and gi both read it."""
    key = ("encoding_gradient", k)
    if key not in fwd.memo:
        fwd.memo[key] = encoding_gradient(fwd, k).data
    return fwd.memo[key]


def saliency(model: RelationModel, bag: Bag, k: int,
             fwd: BagForward | None = None) -> np.ndarray:
    gX = _gradient_once(_shared_forward(model, bag, k, fwd), k)
    return np.sum(np.abs(gX), axis=1)


def grad_input(model: RelationModel, bag: Bag, k: int,
               fwd: BagForward | None = None) -> np.ndarray:
    fwd = _shared_forward(model, bag, k, fwd)
    return (_gradient_once(fwd, k) * fwd.X.data).sum(axis=1)


def _dropped_logits(model: RelationModel, bag: Bag, fwd: BagForward) -> np.ndarray:
    """(N, K): row n holds every logit of the bag re-pooled without sentence n.

    The cached encoding stack is re-pooled without row n; a singleton bag
    falls back to the empty selection. Each re-pool yields all K logits,
    so it runs once per sentence and forward, whichever relations are read.
    """
    if "leave_one_out" not in fwd.memo:
        n = len(bag.sentences)
        if n == 1:
            rows = [model._empty_logits(bag.entity_i, bag.entity_j).data]
        else:
            rows = [model._bag_logits(ad.take(fwd.X, np.delete(np.arange(n), drop)),
                                      bag.entity_i, bag.entity_j)[2].data
                    for drop in range(n)]
        fwd.memo["leave_one_out"] = np.stack(rows)
    return fwd.memo["leave_one_out"]


def leave_one_out(model: RelationModel, bag: Bag, k: int,
                  fwd: BagForward | None = None) -> np.ndarray:
    """o_k minus the logit of the bag re-pooled without each sentence.

    Sentence encodings do not depend on each other, so each re-pool
    (`_dropped_logits`) equals a fresh forward pass over the other
    sentences bit for bit, at one pooling per sentence instead of one
    re-encoding of the bag.
    """
    fwd = _shared_forward(model, bag, k, fwd)
    return float(fwd.logits.data[k]) - _dropped_logits(model, bag, fwd)[:, k]


def attention_explanation(model: RelationModel, bag: Bag, k: int,
                          fwd: BagForward | None = None) -> np.ndarray:
    alphas = _shared_forward(model, bag, k, fwd).alphas
    if model.cfg.kind == KIND_DIRECTSUP:
        return alphas.data.copy()  # relation-independent weights
    return alphas.data[:, k].copy()


_DISPATCH = {
    "attention": attention_explanation,
    "saliency": saliency,
    "gi": grad_input,
    "loo": leave_one_out,
}


def explain_bag(model: RelationModel, bag: Bag, k: int, method: str,
                fwd: BagForward | None = None) -> ImportanceScores:
    """Scores of one method for (bag, k); fwd, if given, is model.forward_bag(bag)."""
    if method not in _DISPATCH:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    scores = _DISPATCH[method](model, bag, k, fwd)
    return ImportanceScores(
        bag_id=bag.bag_id, relation=k, method=method,
        scores=tuple(float(v) for v in scores),
    )


def explain_corpus(model: RelationModel, bags: Sequence[Bag],
                   methods: Sequence[str] = METHODS) -> list[ImportanceScores]:
    """Scores for every (positive bag, labeled relation, method).

    Each positive bag is run forward once; every relation and method reads
    that forward.
    """
    out = []
    for bag in bags:
        if not bag.relations:
            continue
        fwd = model.forward_bag(bag)
        for k in sorted(bag.relations):
            for method in methods:
                out.append(explain_bag(model, bag, k, method, fwd))
    return out


def write_scores(path: str, scores: Sequence[ImportanceScores], meta: dict | None = None):
    jsonio.write_jsonl(path, ({"bag_id": s.bag_id, "relation": s.relation, "method": s.method,
                               "scores": list(s.scores)} for s in scores), header=meta)


# field -> (check, what the field must be)
_ROW_FIELDS = {"bag_id": jsonio.STR, "relation": jsonio.INT, "method": jsonio.STR,
               "scores": jsonio.FINITE_NUMBERS}


def load_scores(path: str) -> list[ImportanceScores]:
    """Read a scores file; a malformed row, or a second row for one (bag_id,
    relation, method), raises ValueError naming its line."""
    out = []
    seen: set[tuple[str, int, str]] = set()
    for where, obj in jsonio.read_rows(path):
        jsonio.check_fields(obj, where, _ROW_FIELDS)
        key = (obj["bag_id"], obj["relation"], obj["method"])
        if key in seen:
            raise ValueError(f"{where}: duplicate (bag_id, relation, method) row {key}")
        seen.add(key)
        out.append(ImportanceScores(
            bag_id=obj["bag_id"],
            relation=obj["relation"],
            method=obj["method"],
            scores=tuple(float(v) for v in obj["scores"]),
        ))
    return out
