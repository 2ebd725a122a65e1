"""Data model and file formats for bag-level relation extraction corpora.

A corpus is a set of bags. A bag collects every sentence that mentions a
fixed ordered entity pair and carries the relation labels the knowledge
base assigns to that pair (which makes some sentences irrelevant to some
labels; that mismatch is the whole point of the sentence-importance
machinery built on top).

File format: JSONL (see jsonio), one bag per line. An optional first line
of the form {"_header": {...}} carries run metadata (seed, sizes, config
hash) and is skipped by the loader. All ids are 0-based integers;
mention spans are half-open [start, end) token index ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import jsonio


class CorpusError(ValueError):
    """Raised for corpus invariant violations; jsonio raises ValueError for
    a line that is not a well-formed bag object."""


class ReprMode(Enum):
    """How entity mentions are presented to the encoder."""

    RAW = "raw"
    FGET = "fget"
    FGET_MENTION = "fget-mention"


@dataclass(frozen=True)
class Sentence:
    """One sentence with both mention spans marked.

    tokens are vocabulary ids; fget_i / fget_j are the fine-grained type
    ids of the two mentions (identical across a bag). relevance_label, when
    present, says whether the sentence expresses any relation at all;
    rationale_for, when present, lists the relation ids this sentence
    supports (empty set = annotated as supporting none).
    """

    tokens: tuple[int, ...]
    mention_i: tuple[int, int]
    mention_j: tuple[int, int]
    fget_i: int
    fget_j: int
    relevance_label: bool | None = None
    rationale_for: frozenset[int] | None = None
    distractor: bool = False


@dataclass(frozen=True)
class Bag:
    """All sentences for one ordered entity pair, with its KB relation labels."""

    bag_id: str
    entity_i: int
    entity_j: int
    fget_i: int
    fget_j: int
    relations: frozenset[int]
    sentences: tuple[Sentence, ...]


@dataclass(frozen=True)
class ExplEvalTuple:
    """Ground-truth ordering constraint: for relation k in this bag, the
    rationale sentence should outrank the irrelevant one."""

    bag_id: str
    relation: int
    rationale_idx: int
    irrelevant_idx: int


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _spans_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def _validate_sentence(s: Sentence, bag_id: str, idx: int, relations: frozenset[int]):
    n = len(s.tokens)
    if n == 0:
        raise CorpusError(f"bag {bag_id!r} sentence {idx}: empty token sequence")
    if any(type(t) is not int or t < 0 for t in s.tokens):
        raise CorpusError(f"bag {bag_id!r} sentence {idx}: token ids must be nonnegative integers")
    for name, (start, end) in (("mention_i", s.mention_i), ("mention_j", s.mention_j)):
        if not (0 <= start < end <= n):
            raise CorpusError(
                f"bag {bag_id!r} sentence {idx}: {name} span [{start}, {end}) "
                f"out of bounds for {n} tokens"
            )
    if _spans_overlap(s.mention_i, s.mention_j):
        raise CorpusError(f"bag {bag_id!r} sentence {idx}: mention spans overlap")
    if s.fget_i < 0 or s.fget_j < 0:
        raise CorpusError(f"bag {bag_id!r} sentence {idx}: FGET ids must be nonnegative")
    if s.rationale_for is not None and not s.rationale_for <= relations:
        extra = sorted(s.rationale_for - relations)
        raise CorpusError(
            f"bag {bag_id!r} sentence {idx}: rationale_for {extra} not in bag relations"
        )


def validate_bag(bag: Bag):
    """Check every structural invariant; raises CorpusError naming the bag."""
    if not bag.sentences:
        raise CorpusError(f"bag {bag.bag_id!r}: must contain at least one sentence")
    if any((not isinstance(k, int)) or k < 0 for k in bag.relations):
        raise CorpusError(f"bag {bag.bag_id!r}: relation ids must be nonnegative integers")
    for idx, s in enumerate(bag.sentences):
        if (s.fget_i, s.fget_j) != (bag.fget_i, bag.fget_j):
            raise CorpusError(
                f"bag {bag.bag_id!r} sentence {idx}: FGET pair ({s.fget_i}, {s.fget_j}) "
                f"differs from the bag's ({bag.fget_i}, {bag.fget_j})"
            )
        _validate_sentence(s, bag.bag_id, idx, bag.relations)


# ---------------------------------------------------------------------------
# JSONL I/O
# ---------------------------------------------------------------------------

def _sentence_to_json(s: Sentence) -> dict:
    d: dict = {
        "tokens": list(s.tokens),
        "mention_i": list(s.mention_i),
        "mention_j": list(s.mention_j),
    }
    if s.relevance_label is not None:
        d["relevance_label"] = bool(s.relevance_label)
    if s.rationale_for is not None:
        d["rationale_for"] = sorted(s.rationale_for)
    if s.distractor:
        d["distractor"] = True
    return d


def _bag_to_json(bag: Bag) -> dict:
    return {
        "bag_id": bag.bag_id,
        "entity_i": bag.entity_i,
        "entity_j": bag.entity_j,
        "fget_i": bag.fget_i,
        "fget_j": bag.fget_j,
        "relations": sorted(bag.relations),
        "sentences": [_sentence_to_json(s) for s in bag.sentences],
    }


# field -> (check, what the field must be); validate_bag checks each token
_BAG_FIELDS = {"bag_id": jsonio.STR, "entity_i": jsonio.INT, "entity_j": jsonio.INT,
               "fget_i": jsonio.INT, "fget_j": jsonio.INT, "relations": jsonio.INTS,
               "sentences": jsonio.LIST}
_SENTENCE_FIELDS = {"tokens": jsonio.LIST, "mention_i": jsonio.INT_PAIR,
                    "mention_j": jsonio.INT_PAIR}
_OPTIONAL_FIELDS = {"relevance_label": jsonio.BOOL, "rationale_for": jsonio.INTS,
                    "distractor": jsonio.BOOL}


def _bag_from_json(obj: dict, where: str) -> Bag:
    jsonio.check_fields(obj, where, _BAG_FIELDS)
    sentences = []
    for idx, raw in enumerate(obj["sentences"]):
        jsonio.check_fields(raw, f"{where} sentence {idx}", _SENTENCE_FIELDS, _OPTIONAL_FIELDS)
        rationale = raw.get("rationale_for")
        sentences.append(Sentence(
            tokens=tuple(raw["tokens"]),
            mention_i=tuple(raw["mention_i"]),
            mention_j=tuple(raw["mention_j"]),
            fget_i=obj["fget_i"],
            fget_j=obj["fget_j"],
            relevance_label=raw.get("relevance_label"),
            rationale_for=None if rationale is None else frozenset(rationale),
            distractor=raw.get("distractor", False),
        ))
    bag = Bag(
        bag_id=obj["bag_id"],
        entity_i=obj["entity_i"],
        entity_j=obj["entity_j"],
        fget_i=obj["fget_i"],
        fget_j=obj["fget_j"],
        relations=frozenset(obj["relations"]),
        sentences=tuple(sentences),
    )
    validate_bag(bag)
    return bag


def load_corpus(path: str) -> list[Bag]:
    """Read and validate a JSONL corpus; the header line is skipped."""
    bags: list[Bag] = []
    seen: set[str] = set()
    for where, obj in jsonio.read_rows(path):
        bag_id = obj.get("bag_id")
        if isinstance(bag_id, str):
            where = f"{where}: bag {bag_id!r}"
            if bag_id in seen:
                raise CorpusError(f"{where}: duplicate bag_id")
            seen.add(bag_id)
        bags.append(_bag_from_json(obj, where))
    return bags


def read_corpus_meta(path: str) -> dict:
    """Return the {"_header": ...} payload of a corpus file, or {}."""
    return jsonio.read_header(path)


def write_corpus(path: str, bags: Sequence[Bag], meta: dict | None = None):
    """Write bags as JSONL, optionally preceded by a header line. Byte-stable."""
    jsonio.write_jsonl(path, map(_bag_to_json, bags), header=meta)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def corpus_stats(bags: Sequence[Bag]) -> dict:
    """Sizes inferred from the data: vocab, FGET, relation and entity extents."""
    n_tokens = 0
    n_fget = 0
    n_relations = 0
    n_entities = 0
    n_sentences = 0
    for bag in bags:
        n_fget = max(n_fget, bag.fget_i + 1, bag.fget_j + 1)
        n_entities = max(n_entities, bag.entity_i + 1, bag.entity_j + 1)
        for k in bag.relations:
            n_relations = max(n_relations, k + 1)
        for s in bag.sentences:
            n_sentences += 1
            if s.tokens:
                n_tokens = max(n_tokens, max(s.tokens) + 1)
    return {
        "vocab_size": n_tokens,
        "n_fget": n_fget,
        "n_relations": n_relations,
        "n_entities": n_entities,
        "n_bags": len(bags),
        "n_sentences": n_sentences,
    }


# ---------------------------------------------------------------------------
# mention representation modes
# ---------------------------------------------------------------------------

def fget_token_id(fget: int, vocab_size: int) -> int:
    """Type tokens live in the shared embedding table after the word rows."""
    return vocab_size + fget


def apply_repr_mode(sentence: Sentence, mode: ReprMode, vocab_size: int, n_fget: int
                    ) -> tuple[tuple[int, ...], tuple[int, int], tuple[int, int]]:
    """Produce the encoder-facing token sequence and recomputed mention spans.

    RAW leaves the sentence untouched. FGET replaces each mention span with
    the single type token of that entity. FGET_MENTION replaces each span
    with the type token followed by the original mention tokens. Tokens
    outside the spans are never changed.
    """
    if mode is ReprMode.RAW:
        return sentence.tokens, sentence.mention_i, sentence.mention_j
    for fget in (sentence.fget_i, sentence.fget_j):
        if not (0 <= fget < n_fget):
            raise CorpusError(f"unknown FGET type {fget} (inventory size {n_fget})")

    def block(span: tuple[int, int], fget: int) -> list[int]:
        type_tok = fget_token_id(fget, vocab_size)
        if mode is ReprMode.FGET:
            return [type_tok]
        return [type_tok] + list(sentence.tokens[span[0]:span[1]])

    return splice_mentions(sentence, block(sentence.mention_i, sentence.fget_i),
                           block(sentence.mention_j, sentence.fget_j))


def splice_mentions(sentence: Sentence, block_i: Sequence[int], block_j: Sequence[int]
                    ) -> tuple[tuple[int, ...], tuple[int, int], tuple[int, int]]:
    """The sentence's tokens with mention_i replaced by block_i and mention_j by
    block_j, and the two spans that now cover the blocks.

    Tokens outside the mention spans keep their order; the spans may come
    in either order but must not overlap.
    """
    spans = sorted([(sentence.mention_i, block_i, 0), (sentence.mention_j, block_j, 1)],
                   key=lambda item: item[0][0])
    tokens: list[int] = []
    new_spans: list[tuple[int, int]] = [(0, 0), (0, 0)]
    cursor = 0
    for (start, end), block, which in spans:
        tokens.extend(sentence.tokens[cursor:start])
        new_spans[which] = (len(tokens), len(tokens) + len(block))
        tokens.extend(block)
        cursor = end
    tokens.extend(sentence.tokens[cursor:])
    return tuple(tokens), new_spans[0], new_spans[1]


# ---------------------------------------------------------------------------
# explanation ground truth
# ---------------------------------------------------------------------------

def build_expl_eval(bags: Sequence[Bag]) -> list[ExplEvalTuple]:
    """Enumerate (bag, relation, rationale, irrelevant) ordering constraints.

    For every bag, every labeled relation k, and every pair of one sentence
    annotated as supporting k with one annotated sentence that does not,
    emit one tuple. Sentences without an annotation (and injected
    distractors) take no part. Output is deduplicated and sorted.
    """
    tuples: set[ExplEvalTuple] = set()
    for bag in bags:
        annotated = [
            (idx, s.rationale_for)
            for idx, s in enumerate(bag.sentences)
            if s.rationale_for is not None and not s.distractor
        ]
        for k in sorted(bag.relations):
            pos = [idx for idx, r in annotated if k in r]
            neg = [idx for idx, r in annotated if k not in r]
            for p in pos:
                for n in neg:
                    tuples.add(ExplEvalTuple(bag.bag_id, k, p, n))
    return sorted(tuples, key=lambda t: (t.bag_id, t.relation, t.rationale_idx, t.irrelevant_idx))
