"""Generator checks: planted signal, rates, annotations, determinism."""

import json

import pytest

from relexpl.cli import EXIT_OK, main
from relexpl.corpus import load_corpus, read_corpus_meta, validate_bag, write_corpus
from relexpl.synthetic import GenConfig, generate_synthetic_corpus


def small_cfg(**kw):
    defaults = dict(n_relations=3, vocab_size=60, n_fget=2, n_mention_tokens=10,
                    n_train_bags=30, n_test_bags=12, hard_rate=0.0)
    defaults.update(kw)
    return GenConfig(**defaults)


def has_trigger(tokens, k, hard=False):
    if hard:
        return 2 * k in tokens
    return any(tokens[t] == 2 * k and tokens[t + 1] == 2 * k + 1 for t in range(len(tokens) - 1))


class TestSignal:
    def test_rationales_carry_triggers_irrelevants_do_not(self):
        train, test = generate_synthetic_corpus(small_cfg(), seed=5)
        for bag in test:
            for s in bag.sentences:
                assert s.rationale_for is not None
                for k in range(3):
                    assert has_trigger(s.tokens, k) == (k in s.rationale_for)

    def test_mentions_present_in_every_sentence(self):
        cfg = small_cfg()
        train, test = generate_synthetic_corpus(cfg, seed=5)
        for bag in train + test:
            for s in bag.sentences:
                for span in (s.mention_i, s.mention_j):
                    tok = s.tokens[span[0]]
                    assert 2 * cfg.n_relations <= tok < 2 * cfg.n_relations + cfg.n_mention_tokens

    def test_every_labeled_relation_has_a_rationale(self):
        _, test = generate_synthetic_corpus(small_cfg(multi_relation_rate=0.5), seed=2)
        for bag in test:
            for k in bag.relations:
                assert any(k in s.rationale_for for s in bag.sentences)

    def test_train_not_annotated_test_annotated(self):
        train, test = generate_synthetic_corpus(small_cfg(), seed=1)
        assert all(s.rationale_for is None for b in train for s in b.sentences)
        assert all(s.rationale_for is not None for b in test for s in b.sentences)
        assert all(s.relevance_label is not None for b in train for s in b.sentences)

    def test_hard_bags_have_single_token_triggers(self):
        cfg = small_cfg(hard_rate=1.0, negative_rate=0.0, test_negative_rate=0.0)
        _, test = generate_synthetic_corpus(cfg, seed=3)
        for bag in test:
            for s in bag.sentences:
                for k in s.rationale_for:
                    assert has_trigger(s.tokens, k, hard=True)
                    assert not has_trigger(s.tokens, k, hard=False)


class TestRates:
    def test_negative_rate_zero_all_positive(self):
        train, _ = generate_synthetic_corpus(small_cfg(negative_rate=0.0), seed=0)
        assert all(b.relations for b in train)

    def test_negative_rate_one_all_negative(self):
        train, _ = generate_synthetic_corpus(small_cfg(negative_rate=1.0), seed=0)
        assert all(not b.relations for b in train)

    def test_negative_counts_deterministic(self):
        train, _ = generate_synthetic_corpus(small_cfg(negative_rate=0.5, n_train_bags=31), seed=0)
        assert sum(1 for b in train if not b.relations) == round(0.5 * 31)

    def test_irrelevant_rate_zero_means_all_rationales(self):
        cfg = small_cfg(irrelevant_rate=0.0, negative_rate=0.0, test_negative_rate=0.0)
        _, test = generate_synthetic_corpus(cfg, seed=4)
        for bag in test:
            for s in bag.sentences:
                assert s.rationale_for  # nonempty: every sentence supports something

    def test_irrelevant_share_near_rate(self):
        cfg = small_cfg(n_test_bags=200, irrelevant_rate=0.4, test_negative_rate=0.0,
                        sentences_per_bag=(4, 6), multi_relation_rate=0.0)
        _, test = generate_synthetic_corpus(cfg, seed=9)
        sents = [s for b in test for s in b.sentences]
        share = sum(1 for s in sents if not s.rationale_for) / len(sents)
        assert 0.3 < share < 0.5


class TestDeterminismAndValidity:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = small_cfg(hard_rate=0.3, multi_relation_rate=0.2)
        files = []
        for run in (1, 2):
            train, test = generate_synthetic_corpus(cfg, seed=11)
            ptr, pte = tmp_path / f"tr{run}", tmp_path / f"te{run}"
            write_corpus(str(ptr), train)
            write_corpus(str(pte), test)
            files.append((ptr.read_bytes(), pte.read_bytes()))
        assert files[0] == files[1]

    def test_different_seeds_differ(self):
        a, _ = generate_synthetic_corpus(small_cfg(), seed=1)
        b, _ = generate_synthetic_corpus(small_cfg(), seed=2)
        assert a != b

    def test_output_passes_validation_and_round_trips(self, tmp_path):
        train, test = generate_synthetic_corpus(small_cfg(multi_relation_rate=0.3), seed=8)
        for bag in train + test:
            validate_bag(bag)
        path = str(tmp_path / "c.jsonl")
        write_corpus(path, test)
        assert load_corpus(path) == test


class TestConfig:
    def test_zero_filler_vocab_rejected(self):
        with pytest.raises(ValueError, match="filler"):
            small_cfg(vocab_size=16).validate()  # 2*3 + 10 = 16 leaves nothing

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="negative_rate"):
            small_cfg(negative_rate=1.5).validate()

    def test_short_sentences_rejected(self):
        with pytest.raises(ValueError, match="sentence_len"):
            small_cfg(sentence_len=(3, 6)).validate()

    def test_dict_round_trip(self):
        cfg = small_cfg(hard_rate=0.25)
        assert GenConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_file_round_trip(self, tmp_path):
        cfg = small_cfg(hard_rate=0.25)
        p = tmp_path / "gen.json"
        p.write_text(json.dumps(cfg.to_dict()))
        assert main(["gen-data", "--config", str(p), "--out", str(tmp_path / "d")]) == EXIT_OK
        header = read_corpus_meta(str(tmp_path / "d" / "train.jsonl"))
        assert GenConfig.from_dict(header["gen_config"]) == cfg
