"""Distractor sampling and the attribution-margin training loss.

A distractor for (bag, relation k) is a sentence that mentions entities of
the same fine-grained types but comes from a bag not labeled with k, so it
carries no evidence for k. Its mention spans are rewritten to the base
bag's mention tokens and it is appended to the bag during training.

The loss pushes the model to attribute less to the distractor than to the
most-attributed original sentence (hinge with margin gamma) and to keep
the distractor's attribution near zero (absolute-value term):

    l_d = max(0, gamma + GI_distractor - max_n GI_n) + |GI_distractor|

GI here is gradient-times-input, which itself contains a gradient of the
logit; training on this loss therefore differentiates through that
gradient, which the tensor engine supports.

The augmented forward reuses the base bag's encodings: augmented_bag_loss
takes the BagForward that the BCE loss ran, encodes only the distractor,
appends its row to the cached stack and pools the N + 1 rows again. A
training step on a bag of N sentences with R labeled relations thus
encodes N + R sentences, and the backward pass crosses each base
encoding once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Bag, Sentence
from .explain import gi_vector
from .models import BagForward, RelationModel


class DistractorError(RuntimeError):
    """No way to sample a distractor: no type-matching bags and no negative bags."""

    def __init__(self, bag_id: str, relation: int, fget: tuple[int, int]):
        self.bag_id = bag_id
        self.relation = relation
        self.fget = fget
        super().__init__(
            f"no distractor available for bag {bag_id!r}, relation {relation}: "
            f"no sentence outside relation {relation} with FGET pair {fget} "
            f"and no negative bags to fall back on"
        )


@dataclass
class DistractorIndex:
    """Sentence lookup over the training split, built once per run."""

    bags: Sequence[Bag]
    by_fget: dict[tuple[int, int], list[tuple[int, int]]]
    negative_pool: list[tuple[int, int]]


@dataclass(frozen=True)
class AugmentedBag:
    base: Bag
    relation: int
    distractor: Sentence

    def to_bag(self) -> Bag:
        """The base bag with the distractor appended, for inspection output."""
        return Bag(
            bag_id=self.base.bag_id,
            entity_i=self.base.entity_i,
            entity_j=self.base.entity_j,
            fget_i=self.base.fget_i,
            fget_j=self.base.fget_j,
            relations=self.base.relations,
            sentences=self.base.sentences + (self.distractor,),
        )


def build_index(bags: Sequence[Bag]) -> DistractorIndex:
    by_fget: dict[tuple[int, int], list[tuple[int, int]]] = {}
    negative_pool: list[tuple[int, int]] = []
    for bi, bag in enumerate(bags):
        key = (bag.fget_i, bag.fget_j)
        for si in range(len(bag.sentences)):
            by_fget.setdefault(key, []).append((bi, si))
            if not bag.relations:
                negative_pool.append((bi, si))
    return DistractorIndex(bags=bags, by_fget=by_fget, negative_pool=negative_pool)


def _substitute_mentions(donor: Sentence, base: Bag) -> Sentence:
    """Rewrite the donor's mention spans with the base bag's mention tokens.

    Mention surface tokens come from the base bag's first sentence; the
    FGET pair becomes the base bag's, so type substitution under FGET
    representation modes uses the base types as well.
    """
    source = base.sentences[0]
    repl = {
        "i": list(source.tokens[source.mention_i[0]:source.mention_i[1]]),
        "j": list(source.tokens[source.mention_j[0]:source.mention_j[1]]),
    }
    spans = [("i", donor.mention_i), ("j", donor.mention_j)]
    spans.sort(key=lambda item: item[1][0])
    tokens: list[int] = []
    new_spans: dict[str, tuple[int, int]] = {}
    cursor = 0
    for name, (start, end) in spans:
        tokens.extend(donor.tokens[cursor:start])
        block = repl[name]
        new_spans[name] = (len(tokens), len(tokens) + len(block))
        tokens.extend(block)
        cursor = end
    tokens.extend(donor.tokens[cursor:])
    return Sentence(
        tokens=tuple(tokens),
        mention_i=new_spans["i"],
        mention_j=new_spans["j"],
        fget_i=base.fget_i,
        fget_j=base.fget_j,
        relevance_label=None,
        rationale_for=None,
        distractor=True,
    )


def sample_distractor(bag: Bag, k: int, index: DistractorIndex,
                      rng: np.random.Generator) -> Sentence:
    """Uniform draw over type-matching sentences from bags not labeled k;
    falls back to a random sentence of a random negative bag."""
    if k not in bag.relations:
        raise ValueError(f"relation {k} is not a label of bag {bag.bag_id!r}")
    key = (bag.fget_i, bag.fget_j)
    candidates = [
        (bi, si) for bi, si in index.by_fget.get(key, ())
        if k not in index.bags[bi].relations
    ]
    if candidates:
        bi, si = candidates[int(rng.integers(0, len(candidates)))]
    elif index.negative_pool:
        bi, si = index.negative_pool[int(rng.integers(0, len(index.negative_pool)))]
    else:
        raise DistractorError(bag.bag_id, k, key)
    return _substitute_mentions(index.bags[bi].sentences[si], bag)


def distractor_loss(gi_original: Tensor, gi_distractor: Tensor, gamma: float) -> Tensor:
    """Margin-plus-magnitude penalty on the distractor's attribution.

    gi_original: (N,) attributions of the bag's own sentences (from the
    augmented forward pass); gi_distractor: 0-d attribution of the
    injected sentence. Differentiable end to end.
    """
    if gi_original.ndim != 1 or gi_original.shape[0] == 0:
        raise ValueError("distractor loss needs a nonempty base bag")
    if gi_distractor.ndim != 0:
        raise ValueError("gi_distractor must be a scalar")
    top = ad.take(gi_original, int(np.argmax(gi_original.data)))  # ties: lowest index
    hinge = ad.relu(ad.add(ad.sub(gi_distractor, top), float(gamma)))
    return ad.add(hinge, ad.absolute(gi_distractor))


def augmented_bag_loss(model: RelationModel, aug: AugmentedBag, gamma: float,
                       fwd: BagForward | None = None) -> Tensor:
    """Distractor loss for one (bag, relation) from the base bag's encodings.

    fwd, if given, is model.forward_bag(aug.base), the forward the BCE loss
    already ran; without it the base bag is run forward here. Only the
    distractor is encoded: its row is appended to the cached stack fwd.X
    and the N + 1 rows are pooled again. Sentence encodings do not
    interact, so the logits and the loss equal those of one forward over
    the augmented bag bit for bit, while the base encodings are computed,
    and backpropagated, once per training step.
    """
    base = aug.base
    if fwd is None:
        fwd = model.forward_bag(base)
    n = len(base.sentences)
    if fwd.X is None:
        raise ValueError("distractor loss needs a nonempty base bag")
    if fwd.X.shape[0] != n:
        raise ValueError(f"forward holds {fwd.X.shape[0]} encodings, "
                         f"bag {base.bag_id!r} has {n} sentences")
    X = ad.concat([fwd.X, model.encode_bag([aug.distractor])])
    gi = gi_vector(model.forward_encodings(X, base.entity_i, base.entity_j), aug.relation)
    return distractor_loss(ad.take(gi, slice(0, n)), ad.take(gi, n), gamma)


def combined_loss(base_loss: Tensor, distractor_terms: Sequence[Tensor], lam: float) -> Tensor:
    """base + lam * sum of distractor terms; lam = 0 short-circuits exactly."""
    if lam < 0:
        raise ValueError(f"distractor weight must be nonnegative, got {lam}")
    if lam == 0.0 or not distractor_terms:
        return base_loss
    total = distractor_terms[0]
    for t in distractor_terms[1:]:
        total = ad.add(total, t)
    return ad.add(base_loss, ad.mul(total, float(lam)))
