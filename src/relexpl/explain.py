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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Bag
from .models import BagForward, DirectSupModel, RelationModel

METHODS = ("attention", "saliency", "gi", "loo")


@dataclass(frozen=True)
class ImportanceScores:
    bag_id: str
    relation: int
    method: str
    scores: tuple[float, ...]


def encoding_gradient(fwd: BagForward, k: int) -> Tensor:
    """In-graph (N, d) gradient of the logit o_k w.r.t. the encoding stack."""
    if fwd.X is None:
        raise ValueError("forward pass has no sentence encodings")
    (gX,) = ad.grad(ad.take(fwd.logits, k), [fwd.X])
    return gX


def gi_vector(fwd: BagForward, k: int) -> Tensor:
    """Per-sentence gradient-times-input as a differentiable (N,) tensor."""
    gX = encoding_gradient(fwd, k)
    return ad.sum_axis(ad.mul(gX, fwd.X), 1)


def saliency(model: RelationModel, bag: Bag, k: int) -> np.ndarray:
    model._check_k(k)
    fwd = model.forward_bag(bag)
    gX = encoding_gradient(fwd, k)
    return np.sum(np.abs(gX.data), axis=1)


def grad_input(model: RelationModel, bag: Bag, k: int) -> np.ndarray:
    model._check_k(k)
    fwd = model.forward_bag(bag)
    return gi_vector(fwd, k).data.copy()


def leave_one_out(model: RelationModel, bag: Bag, k: int) -> np.ndarray:
    """o_k minus the logit of a fresh forward pass without each sentence."""
    model._check_k(k)
    n = len(bag.sentences)
    o_full = float(model.forward_bag(bag).logits.data[k])
    scores = np.zeros(n)
    for drop in range(n):
        keep = [i for i in range(n) if i != drop]
        o_minus = float(model.forward_bag(bag, include=keep).logits.data[k])
        scores[drop] = o_full - o_minus
    return scores


def attention_explanation(model: RelationModel, bag: Bag, k: int) -> np.ndarray:
    model._check_k(k)
    alphas = model.forward_bag(bag).alphas
    if isinstance(model, DirectSupModel):
        return alphas.data.copy()  # relation-independent weights
    return alphas.data[:, k].copy()


_DISPATCH = {
    "attention": attention_explanation,
    "saliency": saliency,
    "gi": grad_input,
    "loo": leave_one_out,
}


def explain_bag(model: RelationModel, bag: Bag, k: int, method: str) -> ImportanceScores:
    if method not in _DISPATCH:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    scores = _DISPATCH[method](model, bag, k)
    return ImportanceScores(
        bag_id=bag.bag_id, relation=k, method=method,
        scores=tuple(float(v) for v in scores),
    )


def explain_corpus(model: RelationModel, bags: Sequence[Bag],
                   methods: Sequence[str] = METHODS) -> list[ImportanceScores]:
    """Scores for every (positive bag, labeled relation, method)."""
    out = []
    for bag in bags:
        for k in sorted(bag.relations):
            for method in methods:
                out.append(explain_bag(model, bag, k, method))
    return out


def write_scores(path: str, scores: Sequence[ImportanceScores], meta: dict | None = None):
    with open(path, "w") as fh:
        if meta is not None:
            fh.write(json.dumps({"_header": meta}, sort_keys=True) + "\n")
        for s in scores:
            fh.write(json.dumps(
                {"bag_id": s.bag_id, "relation": s.relation, "method": s.method,
                 "scores": list(s.scores)},
                sort_keys=True,
            ) + "\n")


def load_scores(path: str) -> list[ImportanceScores]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "_header" in obj:
                continue
            out.append(ImportanceScores(
                bag_id=str(obj["bag_id"]),
                relation=int(obj["relation"]),
                method=str(obj["method"]),
                scores=tuple(float(v) for v in obj["scores"]),
            ))
    return out
