"""Evaluation: precision-recall ranking quality and explanation agreement.

Extraction quality: every (bag, relation) pair gets one probability; pairs
are ranked and the area under the precision-recall curve is integrated up
to recall 0.4 (reported x100, so a perfect ranking scores 40.0).

Explanation quality: a Kendall correlation over ground-truth ordering
constraints, each demanding that a rationale sentence outscore an
irrelevant one. Constraints are additionally bucketed by the model's
confidence in the relation (high [0.76, 1], low [0, 0.25]) to measure
whether explanations are better where the model is surer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Bag, ExplEvalTuple
from .models import RelationModel, label_vector

H_INTERVAL = (0.76, 1.0)
L_INTERVAL = (0.0, 0.25)


@dataclass(frozen=True)
class ScoredPair:
    """One ranked prediction: probability that bag expresses relation."""

    bag_id: str
    relation: int
    prob: float
    label: bool


@dataclass
class PRCurve:
    recalls: np.ndarray
    precisions: np.ndarray
    auc_04: float


@dataclass(frozen=True)
class KendallReport:
    method: str
    tau_overall: float
    tau_h: float
    tau_l: float
    n_total: int
    n_h: int
    n_l: int


def score_bags(model: RelationModel, bags: Sequence[Bag]) -> list[ScoredPair]:
    """One probability per (bag, relation) over all K relations; a label k >= K raises."""
    K = model.cfg.n_relations
    pairs = []
    for bag in bags:
        labels = label_vector(bag, K)
        probs = model.forward_bag(bag).probs
        for k in range(K):
            pairs.append(ScoredPair(bag.bag_id, k, float(probs[k]), bool(labels[k])))
    return pairs


def pr_auc(pairs: Sequence[ScoredPair], recall_cutoff: float = 0.4) -> PRCurve:
    """Ranked precision-recall with trapezoidal area up to the recall cutoff.

    Ties in probability break by (bag_id, relation) so the ranking is
    stable and reruns are bit-identical. The area is scaled x100. A
    non-finite probability raises ValueError naming its bag and relation.
    """
    for p in pairs:
        if not math.isfinite(p.prob):
            raise ValueError(f"cannot rank: probability {p.prob} for bag {p.bag_id!r}, "
                             f"relation {p.relation}")
    n_pos = sum(1 for p in pairs if p.label)
    if n_pos == 0:
        raise ValueError("cannot rank: no positive labels in the prediction set")
    ranked = sorted(pairs, key=lambda p: (-p.prob, p.bag_id, p.relation))
    tp = 0
    recalls = np.zeros(len(ranked))
    precisions = np.zeros(len(ranked))
    for i, p in enumerate(ranked):
        tp += 1 if p.label else 0
        recalls[i] = tp / n_pos
        precisions[i] = tp / (i + 1)

    cutoff = min(recall_cutoff, float(recalls[-1]))
    area = 0.0
    prev_r, prev_p = 0.0, float(precisions[0])
    for r, p in zip(recalls, precisions):
        r, p = float(r), float(p)
        if r >= cutoff:
            if r > prev_r:  # interpolate precision linearly at the cutoff
                frac = (cutoff - prev_r) / (r - prev_r)
                p_cut = prev_p + frac * (p - prev_p)
                area += (cutoff - prev_r) * (prev_p + p_cut) / 2.0
            break
        area += (r - prev_r) * (prev_p + p) / 2.0
        prev_r, prev_p = r, p
    return PRCurve(recalls=recalls, precisions=precisions, auc_04=100.0 * area)


def shuffled_baseline_auc(pairs: Sequence[ScoredPair], seed: int,
                          n_rounds: int = 5, recall_cutoff: float = 0.4) -> float:
    """Label-shuffle oracle: mean AUC after permuting labels against scores."""
    rng = np.random.default_rng(seed)
    labels = np.array([p.label for p in pairs])
    total = 0.0
    for _ in range(n_rounds):
        perm = rng.permutation(len(pairs))
        shuffled = [
            ScoredPair(p.bag_id, p.relation, p.prob, bool(labels[perm[i]]))
            for i, p in enumerate(pairs)
        ]
        total += pr_auc(shuffled, recall_cutoff).auc_04
    return total / n_rounds


# ---------------------------------------------------------------------------
# explanation agreement
# ---------------------------------------------------------------------------

ScoreLookup = Mapping[tuple[str, int], Sequence[float]]


def kendall_tau(scores: ScoreLookup, tuples: Sequence[ExplEvalTuple]) -> float:
    """(concordant - discordant) / total over the ordering constraints.

    A constraint is concordant when the rationale sentence scores strictly
    higher than the irrelevant one, discordant when strictly lower; ties
    count in the denominator only.
    """
    if not tuples:
        raise ValueError("kendall_tau needs at least one tuple")
    concordant = 0
    discordant = 0
    for t in tuples:
        key = (t.bag_id, t.relation)
        if key not in scores:
            raise ValueError(
                f"no importance scores for bag {t.bag_id!r}, relation {t.relation}"
            )
        s = scores[key]
        if max(t.rationale_idx, t.irrelevant_idx) >= len(s):
            raise ValueError(
                f"scores for bag {t.bag_id!r}, relation {t.relation} cover "
                f"{len(s)} sentences; tuple needs index "
                f"{max(t.rationale_idx, t.irrelevant_idx)}"
            )
        a, b = s[t.rationale_idx], s[t.irrelevant_idx]
        if a > b:
            concordant += 1
        elif a < b:
            discordant += 1
    return (concordant - discordant) / len(tuples)


def confidence_split(probs: Mapping[tuple[str, int], float]) -> tuple[set, set]:
    """Bucket (bag, relation) pairs by model confidence; both intervals closed."""
    high = {key for key, p in probs.items() if H_INTERVAL[0] <= p <= H_INTERVAL[1]}
    low = {key for key, p in probs.items() if L_INTERVAL[0] <= p <= L_INTERVAL[1]}
    return high, low


def positive_pair_probs(model: RelationModel, bags: Sequence[Bag]) -> dict[tuple[str, int], float]:
    """Model probability for every (positive bag, labeled relation) pair.

    A label k >= K or a non-finite probability raises ValueError naming its
    bag: the confidence buckets would drop it silently.
    """
    out: dict[tuple[str, int], float] = {}
    for bag in bags:
        if not bag.relations:
            continue
        label_vector(bag, model.cfg.n_relations)  # raises for a relation k >= K
        probs = model.forward_bag(bag).probs
        for k in sorted(bag.relations):
            p = float(probs[k])
            if not math.isfinite(p):
                raise ValueError(f"cannot bucket by confidence: probability {p} for bag "
                                 f"{bag.bag_id!r}, relation {k}")
            out[(bag.bag_id, k)] = p
    return out


def kendall_report(method: str, scores: ScoreLookup, tuples: Sequence[ExplEvalTuple],
                   probs: Mapping[tuple[str, int], float]) -> KendallReport:
    """Overall tau plus the high/low confidence buckets for one method."""
    high, low = confidence_split(probs)
    h_tuples = [t for t in tuples if (t.bag_id, t.relation) in high]
    l_tuples = [t for t in tuples if (t.bag_id, t.relation) in low]
    return KendallReport(
        method=method,
        tau_overall=kendall_tau(scores, tuples),
        tau_h=kendall_tau(scores, h_tuples) if h_tuples else math.nan,
        tau_l=kendall_tau(scores, l_tuples) if l_tuples else math.nan,
        n_total=len(tuples),
        n_h=len(h_tuples),
        n_l=len(l_tuples),
    )
