"""Training: per-bag optimization with validation-based checkpoint selection.

Each run splits the provided bags 90/10 (seeded shuffle), iterates bags in
a fresh random order every epoch, and applies one Adam step per bag. The
parameters kept at the end are the ones from the epoch with the best
validation ranking score, not the last epoch. A non-finite loss stops the
run with a ValueError naming the epoch and the bag.

With distractor training enabled, every positive bag gets one freshly
sampled distractor per labeled relation at the start of each epoch, and
the margin penalty is added to the objective. Such a step encodes the
bag and its distractors in one encoder call: the BCE forward reads the
bag's rows of that stack, and each distractor term the bag's rows and its
own. A weight of zero skips all distractor machinery entirely, so such a
run consumes exactly the same random draws as one with the feature off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Bag
from .distractor import AugmentedBag, augmented_bag_loss, build_index, combined_loss, sample_distractor
from .evaluation import pr_auc, score_bags
from .models import KIND_DIRECTSUP, RelationModel, bce_loss, label_vector, relevance_loss
from .optim import Adam, restore_params


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    lr: float = 0.001
    seed: int = 0
    val_fraction: float = 0.1
    ld: bool = False
    lam: float = 1.0
    gamma: float = 1e-5
    neg_keep: float = 1.0  # fraction of negative bags visited per epoch

    def validate(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam, the distractor weight, must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma, the margin, must be finite and >= 0, got {self.gamma}")
        if not 0.0 < self.neg_keep <= 1.0:
            raise ValueError("neg_keep must be in (0, 1]")


@dataclass
class TrainResult:
    best_epoch: int
    best_val_auc: float
    history: list[dict] = field(default_factory=list)


def _snapshot(model: RelationModel) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in model.params.items()}


def _validation_auc(model: RelationModel, bags: Sequence[Bag]) -> float | None:
    """Ranking score on the validation split; None when it carries no signal."""
    if not bags or not any(bag.relations for bag in bags):
        return None
    return pr_auc(score_bags(model, bags)).auc_04


def _step_loss(model: RelationModel, bag: Bag, augs: Sequence[AugmentedBag],
               gamma: float, lam: float) -> Tensor:
    """The objective of one training step on bag; augs holds its distractors, if any.

    With distractors, the bag and they are encoded in one call: the BCE
    forward reads the bag's N rows of the stack, and the term for
    distractor j the N rows and row N + j.
    """
    n = len(bag.sentences)
    if augs:
        X = model.encode_bag(bag.sentences + tuple(aug.distractor for aug in augs))
        fwd = model.forward_encodings(ad.take(X, slice(0, n)), bag.entity_i, bag.entity_j)
    else:
        fwd = model.forward_bag(bag)
    loss = bce_loss(fwd.logits, label_vector(bag, model.cfg.n_relations))
    if model.cfg.kind == KIND_DIRECTSUP:
        loss = ad.add(loss, relevance_loss(
            fwd.alphas, [s.relevance_label for s in bag.sentences]))
    if not augs:
        return loss
    terms = [augmented_bag_loss(model, aug, gamma, ad.take(X, np.append(np.arange(n), n + j)))
             for j, aug in enumerate(augs)]
    return combined_loss(loss, terms, lam)


def train_model(model: RelationModel, bags: Sequence[Bag], cfg: TrainConfig) -> TrainResult:
    cfg.validate()
    if not bags:
        raise ValueError("cannot train on an empty corpus")
    if model.cfg.kind == KIND_DIRECTSUP:
        for bag in bags:
            for s in bag.sentences:
                if s.relevance_label is None:
                    raise ValueError(
                        f"sentence-level relevance labels required: bag {bag.bag_id!r} "
                        f"has an unlabeled sentence"
                    )

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(bags))
    n_val = round(cfg.val_fraction * len(bags))
    val_bags = [bags[i] for i in perm[:n_val]]
    train_bags = [bags[i] for i in perm[n_val:]]
    if not train_bags:
        raise ValueError("split left no training bags")

    use_ld = cfg.ld and cfg.lam > 0.0
    index = build_index(train_bags) if use_ld else None

    params = model.trainable_params()
    opt = Adam(params, lr=cfg.lr)
    best = _snapshot(model)  # stands until the first epoch completes
    best_auc = -np.inf
    best_epoch = -1
    history: list[dict] = []

    pos_idx = [i for i, b in enumerate(train_bags) if b.relations]
    neg_idx = [i for i, b in enumerate(train_bags) if not b.relations]

    for epoch in range(cfg.epochs):
        augments: dict[int, list[AugmentedBag]] = {}
        if use_ld:
            for i in pos_idx:
                bag = train_bags[i]
                augments[i] = [
                    AugmentedBag(bag, k, sample_distractor(bag, k, index, rng))
                    for k in sorted(bag.relations)
                ]

        if cfg.neg_keep < 1.0 and neg_idx:
            kept = rng.choice(len(neg_idx), size=round(cfg.neg_keep * len(neg_idx)),
                              replace=False)
            epoch_idx = pos_idx + [neg_idx[int(i)] for i in kept]
        else:
            epoch_idx = pos_idx + neg_idx
        order = rng.permutation(len(epoch_idx))

        total_loss = 0.0
        for oi in order:
            i = epoch_idx[int(oi)]
            bag = train_bags[i]
            loss = _step_loss(model, bag, augments.get(i, ()), cfg.gamma, cfg.lam)
            value = float(loss.data)
            if not math.isfinite(value):
                raise ValueError(f"training loss is {value} in epoch {epoch} at bag "
                                 f"{bag.bag_id!r}; the parameters diverged")
            grads = ad.backward(loss, params.values())
            opt.step(dict(zip(params, grads)))
            total_loss += value

        val_auc = _validation_auc(model, val_bags)
        history.append({
            "epoch": epoch,
            "train_loss": total_loss / max(len(epoch_idx), 1),
            "val_auc": val_auc,
        })
        # No validation signal: keep the latest epoch instead of the best one.
        if val_auc is None or val_auc > best_auc:
            best_auc = -np.inf if val_auc is None else val_auc
            best = _snapshot(model)
            best_epoch = epoch

    restore_params(model.params, best)
    return TrainResult(
        best_epoch=best_epoch,
        best_val_auc=float(best_auc) if np.isfinite(best_auc) else float("nan"),
        history=history,
    )
