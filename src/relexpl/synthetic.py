"""Synthetic corpus generator with a planted, learnable relation signal.

Token id layout inside the vocabulary:

    [0, 2K)            trigger tokens; relation k owns the bigram (2k, 2k+1)
    [2K, 2K+M)         mention surface tokens
    [2K+M, vocab_size) filler

A rationale sentence for relation k contains both entity mentions plus k's
trigger bigram; an irrelevant sentence contains the mentions and filler
only. Filler and mention tokens can never form a trigger bigram, so the
signal is unambiguous and a trained model has something real to find.

"Hard" positive bags carry a degraded signal: their rationale sentences
contain only the first trigger token. They exist to produce low-confidence
predictions so the low-probability evaluation bucket is populated.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import jsonio
from .corpus import Bag, Sentence


@dataclass(frozen=True)
class GenConfig:
    n_relations: int = 5
    vocab_size: int = 200
    n_fget: int = 4
    n_mention_tokens: int = 50
    n_train_bags: int = 200
    n_test_bags: int = 50
    sentences_per_bag: tuple[int, int] = (2, 5)
    sentence_len: tuple[int, int] = (5, 9)
    irrelevant_rate: float = 0.4
    negative_rate: float = 0.5
    test_negative_rate: float = 0.0
    hard_rate: float = 0.0
    multi_relation_rate: float = 0.1

    def validate(self):
        if self.n_relations < 1:
            raise ValueError("n_relations must be >= 1")
        if self.n_fget < 1:
            raise ValueError("n_fget must be >= 1")
        if self.n_mention_tokens < 1:
            raise ValueError("n_mention_tokens must be >= 1")
        filler_start = 2 * self.n_relations + self.n_mention_tokens
        if self.vocab_size <= filler_start:
            raise ValueError(
                f"vocab_size {self.vocab_size} leaves no filler tokens; "
                f"need > {filler_start}"
            )
        for name in ("irrelevant_rate", "negative_rate", "test_negative_rate",
                     "hard_rate", "multi_relation_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        lo, hi = self.sentences_per_bag
        if not 1 <= lo <= hi:
            raise ValueError(f"bad sentences_per_bag range {self.sentences_per_bag}")
        lo, hi = self.sentence_len
        # 2 mention positions + a 2-token trigger need at least 4 slots
        if not 4 <= lo <= hi:
            raise ValueError(f"sentence_len must start at >= 4, got {self.sentence_len}")
        if self.n_train_bags < 0 or self.n_test_bags < 0:
            raise ValueError("bag counts must be nonnegative")

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "GenConfig":
        """A validated config from a JSON object holding any of the fields.

        Values are kept as given, with no coercion between int and float:
        counts must be ints, rates ints or floats, and the two ranges lists
        of two ints (JSON true is none of these). An unknown key or an
        ill-typed value raises ValueError naming the key.
        """
        jsonio.check_fields(d, "generator config", {}, _FIELD_CHECKS, exact=True)
        cfg = cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})
        cfg.validate()
        return cfg


# GenConfig field -> (check of its JSON value, what the value must be), chosen by
# the field's annotation, a string under `from __future__ import annotations`
_FIELD_CHECKS = {name: {"int": jsonio.INT, "float": jsonio.NUMBER,
                        "tuple[int, int]": jsonio.INT_PAIR}[f.type]
                 for name, f in GenConfig.__dataclass_fields__.items()}


def _filler_range(cfg: GenConfig) -> tuple[int, int]:
    return 2 * cfg.n_relations + cfg.n_mention_tokens, cfg.vocab_size


def _mention_token(cfg: GenConfig, entity: int) -> int:
    return 2 * cfg.n_relations + entity % cfg.n_mention_tokens


def _make_sentence(cfg: GenConfig, rng: np.random.Generator,
                   entity_i: int, entity_j: int, fget_i: int, fget_j: int,
                   trigger_for: int | None, hard: bool,
                   annotate: bool) -> Sentence:
    lo, hi = cfg.sentence_len
    length = int(rng.integers(lo, hi + 1))
    f_lo, f_hi = _filler_range(cfg)
    tokens = rng.integers(f_lo, f_hi, size=length).tolist()

    taken: set[int] = set()
    if trigger_for is not None:
        width = 1 if hard else 2
        start = int(rng.integers(0, length - width + 1))
        tokens[start] = 2 * trigger_for
        if width == 2:
            tokens[start + 1] = 2 * trigger_for + 1
        taken.update(range(start, start + width))

    free = [p for p in range(length) if p not in taken]
    pi, pj = (int(p) for p in rng.choice(len(free), size=2, replace=False))
    pos_i, pos_j = free[pi], free[pj]
    tokens[pos_i] = _mention_token(cfg, entity_i)
    tokens[pos_j] = _mention_token(cfg, entity_j)

    rationale_for = None
    if annotate:
        rationale_for = frozenset() if trigger_for is None else frozenset({trigger_for})
    return Sentence(
        tokens=tuple(int(t) for t in tokens),
        mention_i=(pos_i, pos_i + 1),
        mention_j=(pos_j, pos_j + 1),
        fget_i=fget_i,
        fget_j=fget_j,
        relevance_label=trigger_for is not None,
        rationale_for=rationale_for,
    )


def _make_bag(cfg: GenConfig, rng: np.random.Generator, bag_id: str,
              entity_i: int, entity_j: int, relations: frozenset[int],
              hard: bool, annotate: bool) -> Bag:
    fget_i = int(rng.integers(0, cfg.n_fget))
    fget_j = int(rng.integers(0, cfg.n_fget))
    lo, hi = cfg.sentences_per_bag
    n_sent = max(int(rng.integers(lo, hi + 1)), len(relations))

    # deterministic composition: one rationale per labeled relation first,
    # then a rounded share of irrelevant sentences, rationales for the rest
    labels = sorted(relations)
    plan: list[int | None] = list(labels)
    n_rest = n_sent - len(labels)
    n_irr = min(n_rest, round(cfg.irrelevant_rate * n_sent)) if labels else n_rest
    plan.extend([None] * n_irr)
    for _ in range(n_rest - n_irr):
        plan.append(labels[int(rng.integers(0, len(labels)))])
    order = rng.permutation(len(plan))

    sentences = tuple(
        _make_sentence(cfg, rng, entity_i, entity_j, fget_i, fget_j,
                       trigger_for=plan[int(p)], hard=hard, annotate=annotate)
        for p in order
    )
    return Bag(
        bag_id=bag_id,
        entity_i=entity_i,
        entity_j=entity_j,
        fget_i=fget_i,
        fget_j=fget_j,
        relations=relations,
        sentences=sentences,
    )


def _pick_relations(cfg: GenConfig, rng: np.random.Generator, multi: bool) -> frozenset[int]:
    if multi and cfg.n_relations >= 2:
        pair = rng.choice(cfg.n_relations, size=2, replace=False)
        return frozenset(int(k) for k in pair)
    return frozenset({int(rng.integers(0, cfg.n_relations))})


def _make_split(cfg: GenConfig, rng: np.random.Generator, prefix: str,
                n_bags: int, negative_rate: float, annotate: bool,
                entity_start: int) -> list[Bag]:
    n_neg = round(negative_rate * n_bags)
    n_pos = n_bags - n_neg
    n_hard = round(cfg.hard_rate * n_pos)
    n_multi = round(cfg.multi_relation_rate * n_pos)
    bags = []
    for i in range(n_bags):
        entity_i = entity_start + 2 * i
        entity_j = entity_start + 2 * i + 1
        positive = i < n_pos
        if positive:
            relations = _pick_relations(cfg, rng, multi=i < n_multi)
            hard = (n_pos - i) <= n_hard  # hard bags are the tail of the positives
        else:
            relations = frozenset()
            hard = False
        bags.append(
            _make_bag(cfg, rng, f"{prefix}{i:05d}", entity_i, entity_j,
                      relations, hard=hard, annotate=annotate)
        )
    return bags


def generate_synthetic_corpus(cfg: GenConfig, seed: int) -> tuple[list[Bag], list[Bag]]:
    """Build (train bags, annotated test bags), deterministic under seed.

    Train sentences carry relevance labels; test sentences additionally
    carry per-relation rationale annotations.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    train = _make_split(cfg, rng, "tr", cfg.n_train_bags, cfg.negative_rate,
                        annotate=False, entity_start=0)
    test = _make_split(cfg, rng, "te", cfg.n_test_bags, cfg.test_negative_rate,
                       annotate=True, entity_start=2 * cfg.n_train_bags)
    return train, test
