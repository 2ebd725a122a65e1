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
one first-order gradient per relation, taken on its graph without
recording a graph of its own (create_graph=False), and loo one re-pooling
of its cached encoding stack per dropped sentence, whose K logits serve
every relation. The forward memoizes both (BagForward.memo). Sentence
encodings do not interact, so the re-pooled logits are exactly those of a
fresh forward over the remaining sentences, and leave-one-out costs one
pooling per sentence rather than a re-encoding of the bag per sentence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import jsonio
from .autodiff import Tensor
from .corpus import Bag
from .models import KIND_DIRECTSUP, BagForward, RelationModel

METHODS = ("attention", "saliency", "gi", "loo")


@dataclass(frozen=True)
class ImportanceScores:
    bag_id: str
    relation: int
    method: str
    scores: tuple[float, ...]


def encoding_gradient(fwd: BagForward, k: int, create_graph: bool = True) -> Tensor:
    """(N, d) gradient of the logit o_k w.r.t. the encoding stack.

    With create_graph it is a graph node that training can differentiate;
    the explanation scores take it with create_graph=False, same values.
    """
    if fwd.X is None:
        raise ValueError("forward pass has no sentence encodings")
    (gX,) = ad.grad(ad.take(fwd.logits, k), [fwd.X], create_graph=create_graph)
    return gX


def gi_vector(fwd: BagForward, k: int) -> Tensor:
    """Per-sentence gradient-times-input as a differentiable (N,) tensor."""
    gX = encoding_gradient(fwd, k)
    return ad.reduce_sum(ad.mul(gX, fwd.X), 1)


def _shared_forward(model: RelationModel, bag: Bag, k: int,
                    fwd: BagForward | None) -> BagForward:
    """Check k, then reuse the bag's forward, running it only if none is given."""
    model._check_k(k)
    return model.forward_bag(bag) if fwd is None else fwd


def _gradient_once(fwd: BagForward, k: int) -> np.ndarray:
    """encoding_gradient(fwd, k, create_graph=False) as an array, taken once per
    forward and relation: saliency and gi both read it."""
    key = ("encoding_gradient", k)
    if key not in fwd.memo:
        fwd.memo[key] = encoding_gradient(fwd, k, create_graph=False).data
    return fwd.memo[key]


def saliency(model: RelationModel, bag: Bag, k: int,
             fwd: BagForward | None = None) -> np.ndarray:
    gX = _gradient_once(_shared_forward(model, bag, k, fwd), k)
    return np.sum(np.abs(gX), axis=1)


def grad_input(model: RelationModel, bag: Bag, k: int,
               fwd: BagForward | None = None) -> np.ndarray:
    fwd = _shared_forward(model, bag, k, fwd)
    return (_gradient_once(fwd, k) * fwd.X.data).sum(axis=1)  # gi_vector's numpy ops


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
