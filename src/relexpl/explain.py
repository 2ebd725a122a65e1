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
a first-order gradient taken on its graph without recording a graph of
its own (create_graph=False), and loo a re-pooling of its cached
encoding stack without each sentence. Sentence encodings do not interact,
so the re-pooled logits are exactly those of a fresh forward over the
remaining sentences, and leave-one-out costs one encoding per sentence
(linear in bag size) rather than a re-encoding of the bag per sentence.
"""

from __future__ import annotations

import json
import math
import reprlib
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


def saliency(model: RelationModel, bag: Bag, k: int,
             fwd: BagForward | None = None) -> np.ndarray:
    gX = encoding_gradient(_shared_forward(model, bag, k, fwd), k, create_graph=False)
    return np.sum(np.abs(gX.data), axis=1)


def grad_input(model: RelationModel, bag: Bag, k: int,
               fwd: BagForward | None = None) -> np.ndarray:
    fwd = _shared_forward(model, bag, k, fwd)
    gX = encoding_gradient(fwd, k, create_graph=False)
    return (gX.data * fwd.X.data).sum(axis=1)  # gi_vector's numpy ops, unrecorded


def leave_one_out(model: RelationModel, bag: Bag, k: int,
                  fwd: BagForward | None = None) -> np.ndarray:
    """o_k minus the logit of the bag re-pooled without each sentence.

    The cached encoding stack is re-pooled without row n; a singleton bag
    falls back to the empty selection. Sentence encodings do not depend on
    each other, so this equals a fresh forward pass over the other
    sentences bit for bit, at one pooling per sentence instead of one
    re-encoding of the bag.
    """
    fwd = _shared_forward(model, bag, k, fwd)
    n = len(bag.sentences)
    o_full = float(fwd.logits.data[k])
    scores = np.zeros(n)
    for drop in range(n):
        if n == 1:
            logits = model._empty_logits(bag.entity_i, bag.entity_j)
        else:
            keep = np.delete(np.arange(n), drop)
            _, _, logits = model._bag_logits(ad.take(fwd.X, keep), bag.entity_i, bag.entity_j)
        scores[drop] = o_full - float(logits.data[k])
    return scores


def attention_explanation(model: RelationModel, bag: Bag, k: int,
                          fwd: BagForward | None = None) -> np.ndarray:
    alphas = _shared_forward(model, bag, k, fwd).alphas
    if isinstance(model, DirectSupModel):
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
    with open(path, "w") as fh:
        if meta is not None:
            fh.write(json.dumps({"_header": meta}, sort_keys=True) + "\n")
        for s in scores:
            fh.write(json.dumps(
                {"bag_id": s.bag_id, "relation": s.relation, "method": s.method,
                 "scores": list(s.scores)},
                sort_keys=True, allow_nan=False,
            ) + "\n")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true is no relation id


# field -> (check, what the field must be)
_ROW_FIELDS = {
    "bag_id": (lambda v: isinstance(v, str), "a string"),
    "relation": (_is_int, "an integer"),
    "method": (lambda v: isinstance(v, str), "a string"),
    "scores": (lambda v: isinstance(v, list) and all(
        (_is_int(x) or isinstance(x, float)) and math.isfinite(x) for x in v),
        "a list of finite numbers"),
}


def load_scores(path: str) -> list[ImportanceScores]:
    """Read a scores file; a malformed row raises ValueError naming its line and field."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path} line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: not JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{where}: a score row must be a JSON object")
            if "_header" in obj:
                continue
            for name, (ok, what) in _ROW_FIELDS.items():
                if name not in obj:
                    raise ValueError(f"{where}: missing field {name!r}")
                if not ok(obj[name]):
                    raise ValueError(f"{where}: field {name!r} must be {what}, "
                                     f"got {reprlib.repr(obj[name])}")
            out.append(ImportanceScores(
                bag_id=obj["bag_id"],
                relation=obj["relation"],
                method=obj["method"],
                scores=tuple(float(v) for v in obj["scores"]),
            ))
    return out
