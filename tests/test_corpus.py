"""Corpus data model: validation, JSONL round trips, representation modes,
the shared mention splice, and ordering-constraint enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relexpl.corpus import (
    Bag,
    CorpusError,
    ExplEvalTuple,
    ReprMode,
    Sentence,
    apply_repr_mode,
    build_expl_eval,
    corpus_stats,
    fget_token_id,
    load_corpus,
    read_corpus_meta,
    write_corpus,
)
from relexpl.distractor import _substitute_mentions


def make_sentence(tokens=(10, 11, 12, 13), mi=(0, 1), mj=(2, 3), fget=(0, 1), **kw):
    return Sentence(tokens=tuple(tokens), mention_i=mi, mention_j=mj,
                    fget_i=fget[0], fget_j=fget[1], **kw)


def make_bag(bag_id="b0", relations=frozenset({1}), sentences=None, fget=(0, 1)):
    if sentences is None:
        sentences = (make_sentence(fget=fget),)
    return Bag(bag_id=bag_id, entity_i=0, entity_j=1, fget_i=fget[0], fget_j=fget[1],
               relations=frozenset(relations), sentences=tuple(sentences))


class TestRoundTrip:
    def test_empty_file_is_empty_corpus(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        assert load_corpus(str(p)) == []

    def test_write_then_load_is_identity(self, tmp_path):
        bags = [
            make_bag("b0", relations={0, 2}, sentences=(
                make_sentence(rationale_for=frozenset({0}), relevance_label=True),
                make_sentence(tokens=(9, 8, 7, 6, 5), mi=(1, 2), mj=(3, 5),
                              rationale_for=frozenset(), relevance_label=False),
            )),
            make_bag("b1", relations=frozenset(), sentences=(
                make_sentence(relevance_label=False),
                make_sentence(distractor=True),
            )),
        ]
        path = str(tmp_path / "c.jsonl")
        write_corpus(path, bags, meta={"seed": 3})
        assert load_corpus(path) == bags
        assert read_corpus_meta(path) == {"seed": 3}

    def test_header_skipped_and_meta_absent_is_empty(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        write_corpus(path, [make_bag()])
        assert read_corpus_meta(path) == {}
        assert len(load_corpus(path)) == 1

    def test_write_is_byte_deterministic(self, tmp_path):
        bags = [make_bag("b0", relations={3, 1, 2})]
        p1, p2 = str(tmp_path / "1.jsonl"), str(tmp_path / "2.jsonl")
        write_corpus(p1, bags)
        write_corpus(p2, bags)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestValidation:
    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"bag_id": "ok"\n')
        with pytest.raises(ValueError, match="c.jsonl line 1: malformed JSON"):
            load_corpus(str(p))

    def test_out_of_bounds_span_names_bag(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        write_corpus(path, [make_bag("bad")])
        text = open(path).read().replace('"mention_j": [2, 3]', '"mention_j": [2, 9]')
        open(path, "w").write(text)
        with pytest.raises(CorpusError, match="bad"):
            load_corpus(str(path))

    def test_overlap_via_loader(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        write_corpus(path, [make_bag("bx")])
        text = open(path).read().replace('"mention_i": [0, 1]', '"mention_i": [0, 3]')
        open(path, "w").write(text)
        with pytest.raises(CorpusError, match="overlap"):
            load_corpus(path)

    def test_duplicate_bag_id_rejected(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        write_corpus(path, [make_bag("same")])
        line = open(path).read()
        open(path, "w").write(line + line)
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path)

    def test_rationale_outside_relations_rejected(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        write_corpus(path, [make_bag("br", relations={1}, sentences=(
            make_sentence(rationale_for=frozenset({1})),))])
        text = open(path).read().replace('"rationale_for": [1]', '"rationale_for": [7]')
        open(path, "w").write(text)
        with pytest.raises(CorpusError, match="rationale_for"):
            load_corpus(path)

    def test_header_after_the_first_line_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(str(path), [make_bag("b0"), make_bag("b1"), make_bag("b2")],
                     meta={"seed": 3})
        lines = path.read_text().splitlines()
        lines[3] = lines[3][:-1] + ', "_header": {"seed": 3}}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="c.jsonl line 4: a _header line must be the first"):
            load_corpus(str(path))

    def test_sentence_fget_must_match_bag(self):
        from relexpl.corpus import validate_bag
        bag = make_bag(sentences=(make_sentence(fget=(5, 1)),), fget=(0, 1))
        with pytest.raises(CorpusError, match="FGET pair"):
            validate_bag(bag)


class TestReprMode:
    def sentence(self):
        # [w1, mA, w2, mB] with single-token mentions
        return make_sentence(tokens=(100, 7, 101, 8), mi=(1, 2), mj=(3, 4), fget=(2, 0))

    def test_raw_is_identity(self):
        s = self.sentence()
        tokens, mi, mj = apply_repr_mode(s, ReprMode.RAW, vocab_size=200, n_fget=4)
        assert tokens == s.tokens and mi == s.mention_i and mj == s.mention_j

    def test_fget_substitution(self):
        s = self.sentence()
        tokens, mi, mj = apply_repr_mode(s, ReprMode.FGET, vocab_size=200, n_fget=4)
        assert tokens == (100, fget_token_id(2, 200), 101, fget_token_id(0, 200))
        assert mi == (1, 2) and mj == (3, 4)

    def test_fget_mention_substitution(self):
        s = self.sentence()
        tokens, mi, mj = apply_repr_mode(s, ReprMode.FGET_MENTION, vocab_size=200, n_fget=4)
        assert tokens == (100, 202, 7, 101, 200, 8)
        assert mi == (1, 3) and mj == (4, 6)

    def test_mention_j_before_i(self):
        s = make_sentence(tokens=(100, 8, 101, 7), mi=(3, 4), mj=(1, 2), fget=(2, 0))
        tokens, mi, mj = apply_repr_mode(s, ReprMode.FGET_MENTION, vocab_size=200, n_fget=4)
        assert tokens == (100, 200, 8, 101, 202, 7)
        assert mj == (1, 3) and mi == (4, 6)

    def test_tokens_outside_spans_unchanged(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(4, 12))
            toks = [int(t) for t in rng.integers(100, 200, size=n)]
            starts = rng.choice(n - 1, size=2, replace=False)
            starts.sort()
            si, sj = int(starts[0]), int(starts[1])
            if si + 1 > sj:  # keep spans disjoint
                continue
            s = make_sentence(tokens=toks, mi=(si, si + 1), mj=(sj, sj + 1), fget=(1, 3))
            tokens, mi, mj = apply_repr_mode(s, ReprMode.FGET, vocab_size=300, n_fget=5)
            outside_before = [t for p, t in enumerate(toks) if p not in (si, sj)]
            outside_after = [t for p, t in enumerate(tokens) if p not in (mi[0], mj[0])]
            assert outside_before == outside_after

    def test_unknown_fget_rejected(self):
        s = self.sentence()
        with pytest.raises(CorpusError, match="unknown FGET"):
            apply_repr_mode(s, ReprMode.FGET, vocab_size=200, n_fget=2)


@st.composite
def two_mention_sentences(draw):
    """A sentence whose disjoint mentions of 1-3 tokens come in either order,
    0-2 tokens apart and 0-2 tokens from each edge (adjacent and at the edges included)."""
    lengths = [draw(st.integers(1, 3)) for _ in range(2)]
    gaps = [draw(st.integers(0, 2)) for _ in range(3)]  # before, between, after
    first = (gaps[0], gaps[0] + lengths[0])
    second = (first[1] + gaps[1], first[1] + gaps[1] + lengths[1])
    n = second[1] + gaps[2]
    mi, mj = (second, first) if draw(st.booleans()) else (first, second)
    tokens = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n))
    return make_sentence(tokens=tokens, mi=mi, mj=mj, fget=(draw(st.integers(0, 3)), draw(st.integers(0, 3))))


def assert_spliced(old, tokens, mi, mj, block_i, block_j):
    """tokens is old's tokens with mention_i replaced by block_i and mention_j by
    block_j, and the new spans mi, mj cover the blocks."""
    assert tokens[mi[0]:mi[1]] == tuple(block_i) and tokens[mj[0]:mj[1]] == tuple(block_j)
    (s1, e1), (s2, e2) = sorted([old.mention_i, old.mention_j])
    (n1, m1), (n2, m2) = sorted([mi, mj])
    assert (mi[0] < mj[0]) == (old.mention_i[0] < old.mention_j[0])
    t = old.tokens
    assert tokens[:n1] == t[:s1] and tokens[m1:n2] == t[e1:s2] and tokens[m2:] == t[e2:]


class TestSpliceMentions:
    """Both callers of corpus.splice_mentions: FGET representation modes and
    the distractor's mention substitution."""

    @given(two_mention_sentences(), st.sampled_from([ReprMode.FGET, ReprMode.FGET_MENTION]))
    @settings(max_examples=150, deadline=None)
    def test_repr_modes(self, s, mode):
        tokens, mi, mj = apply_repr_mode(s, mode, vocab_size=100, n_fget=4)
        blocks = []
        for (start, end), fget in ((s.mention_i, s.fget_i), (s.mention_j, s.fget_j)):
            mention = s.tokens[start:end] if mode is ReprMode.FGET_MENTION else ()
            blocks.append((fget_token_id(fget, 100), *mention))
        assert_spliced(s, tokens, mi, mj, *blocks)

    @given(two_mention_sentences(), two_mention_sentences())
    @settings(max_examples=150, deadline=None)
    def test_distractor_substitution(self, donor, source):
        base = make_bag(sentences=(source,), fget=(source.fget_i, source.fget_j))
        out = _substitute_mentions(donor, base)
        assert_spliced(donor, out.tokens, out.mention_i, out.mention_j,
                       source.tokens[source.mention_i[0]:source.mention_i[1]],
                       source.tokens[source.mention_j[0]:source.mention_j[1]])
        assert out.distractor and (out.fget_i, out.fget_j) == (base.fget_i, base.fget_j)


class TestExplEval:
    def annotated_bag(self, bag_id, relations, per_sentence):
        sentences = tuple(
            make_sentence(rationale_for=frozenset(r)) for r in per_sentence
        )
        return make_bag(bag_id, relations=frozenset(relations), sentences=sentences)

    def test_two_rationales_one_irrelevant(self):
        bag = self.annotated_bag("b", {4}, [{4}, {4}, set()])
        tuples = build_expl_eval([bag])
        assert len(tuples) == 2
        assert {(t.rationale_idx, t.irrelevant_idx) for t in tuples} == {(0, 2), (1, 2)}
        assert all(t.relation == 4 for t in tuples)

    def test_all_rationales_yield_nothing(self):
        bag = self.annotated_bag("b", {1}, [{1}, {1}])
        assert build_expl_eval([bag]) == []

    def test_unannotated_sentences_ignored(self):
        bag = make_bag("b", relations={0}, sentences=(
            make_sentence(rationale_for=frozenset({0})),
            make_sentence(),  # no annotation: contributes nothing
        ))
        assert build_expl_eval([bag]) == []

    def test_multi_relation_per_k_counts(self):
        bag = self.annotated_bag("b", {0, 1}, [{0}, {1}, set()])
        tuples = build_expl_eval([bag])
        # k=0: rationale 0 vs irrelevant {1, 2}; k=1: rationale 1 vs {0, 2}
        assert len(tuples) == 4

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n_rel = int(rng.integers(1, 4))
            relations = set(int(k) for k in rng.choice(5, size=n_rel, replace=False))
            n_sent = int(rng.integers(1, 6))
            per_sentence = [
                {k for k in relations if rng.random() < 0.5} for _ in range(n_sent)
            ]
            bag = self.annotated_bag("b", relations, per_sentence)
            got = set(build_expl_eval([bag]))
            expected = set()
            for k in relations:
                for p in range(n_sent):
                    for n in range(n_sent):
                        if k in per_sentence[p] and k not in per_sentence[n]:
                            expected.add(ExplEvalTuple("b", k, p, n))
            assert got == expected
            # size identity: sum over k of |rationales| x |irrelevants|
            assert len(got) == sum(
                sum(1 for r in per_sentence if k in r) * sum(1 for r in per_sentence if k not in r)
                for k in relations
            )


def test_corpus_stats():
    bags = [
        make_bag("b0", relations={3}, sentences=(make_sentence(tokens=(10, 99, 12, 13)),)),
        make_bag("b1", relations=frozenset(), fget=(2, 1),
                 sentences=(make_sentence(fget=(2, 1)),)),
    ]
    stats = corpus_stats(bags)
    assert stats["vocab_size"] == 100
    assert stats["n_fget"] == 3
    assert stats["n_relations"] == 4
    assert stats["n_entities"] == 2
    assert stats["n_bags"] == 2 and stats["n_sentences"] == 2
