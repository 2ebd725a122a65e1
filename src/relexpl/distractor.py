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
logit, so the loss's parameter gradient is a second derivative of the
logits. The engine differentiates once; for the two poolings GI has a
closed form (explain.gi_vector), one node whose VJP is that form's
derivative written out, so that second derivative is an ordinary
backward.

A training step encodes the bag and all its distractors in one encoder
call. The classification loss reads the bag's N rows of that stack; the
term for distractor j reads the N rows and row N + j. A step on a bag of
N sentences with R labeled relations thus encodes N + R sentences once
each, and its backward crosses the encoder once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Bag, Sentence, splice_mentions
from .explain import gi_vector
from .models import RelationModel


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
        return replace(self.base, sentences=self.base.sentences + (self.distractor,))


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
    tokens, mention_i, mention_j = splice_mentions(
        donor, source.tokens[source.mention_i[0]:source.mention_i[1]],
        source.tokens[source.mention_j[0]:source.mention_j[1]])
    return Sentence(
        tokens=tokens,
        mention_i=mention_i,
        mention_j=mention_j,
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
                       X: Tensor) -> Tensor:
    """Distractor loss for one (bag, relation) over the augmented bag's encodings.

    X is the (N + 1, d) stack of the base bag's encodings with the
    distractor's last, as training takes it out of the step's one encoder
    call.
    """
    base = aug.base
    n = len(base.sentences)
    if n == 0:
        raise ValueError("distractor loss needs a nonempty base bag")
    if X.shape[0] != n + 1:
        raise ValueError(f"stack holds {X.shape[0]} encodings, bag {base.bag_id!r} "
                         f"has {n} sentences and one distractor")
    gi = gi_vector(model, X, aug.relation, base.entity_i, base.entity_j)
    return distractor_loss(ad.take(gi, slice(0, n)), ad.take(gi, n), gamma)


def combined_loss(base_loss: Tensor, distractor_terms: Sequence[Tensor], lam: float) -> Tensor:
    """base + lam * sum of one or more distractor terms."""
    if lam < 0:
        raise ValueError(f"distractor weight must be nonnegative, got {lam}")
    total = distractor_terms[0]
    for t in distractor_terms[1:]:
        total = ad.add(total, t)
    return ad.add(base_loss, ad.mul(total, float(lam)))
