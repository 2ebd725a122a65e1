"""Training-loop checks: determinism, checkpoint-selection semantics,
input validation, the exact zero-weight short circuit, and learning
signal on a synthetic corpus."""

import dataclasses

import numpy as np
import pytest

from relexpl.corpus import Bag, ReprMode, Sentence
from relexpl.encoder import EncoderConfig
from relexpl.evaluation import pr_auc, score_bags, shuffled_baseline_auc
from relexpl.models import build_model, ModelConfig
from relexpl.synthetic import GenConfig, generate_synthetic_corpus
from relexpl.training import TrainConfig, TrainResult, train_model


GEN = GenConfig(
    n_relations=2,
    vocab_size=80,
    n_fget=3,
    n_mention_tokens=12,
    n_train_bags=160,
    n_test_bags=40,
    sentences_per_bag=(2, 3),
    sentence_len=(5, 7),
    irrelevant_rate=0.4,
    negative_rate=0.5,
    test_negative_rate=0.5,
)


def model_cfg(kind="cnns-att", fusion=False, n_entities=0):
    return ModelConfig(
        kind=kind,
        n_relations=GEN.n_relations,
        encoder=EncoderConfig(
            vocab_size=GEN.vocab_size, n_fget=GEN.n_fget,
            d_w=8, d_p=2, pos_clip=6, widths=(2, 3), channels=3,
        ),
        repr_mode=ReprMode.RAW,
        fusion=fusion,
        d_e=4,
        n_entities=n_entities,
    )


@pytest.fixture(scope="module")
def corpus():
    train, test = generate_synthetic_corpus(GEN, seed=13)
    return train, test


def param_bytes(model):
    return {n: p.data.tobytes() for n, p in model.params.items()}


class TestDeterminism:
    def test_same_seed_bit_identical(self, corpus):
        train, _ = corpus
        runs = []
        for _ in range(2):
            model = build_model(model_cfg(), seed=3)
            result = train_model(model, train, TrainConfig(epochs=2, seed=3))
            runs.append((param_bytes(model), result))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_different_seed_differs(self, corpus):
        train, _ = corpus
        outs = []
        for seed in (0, 1):
            model = build_model(model_cfg(), seed=0)
            train_model(model, train, TrainConfig(epochs=1, seed=seed))
            outs.append(param_bytes(model))
        assert outs[0] != outs[1]

    def test_zero_weight_equals_feature_off(self, corpus):
        train, _ = corpus
        outs = []
        for cfg in (TrainConfig(epochs=2, seed=5, ld=False),
                    TrainConfig(epochs=2, seed=5, ld=True, lam=0.0)):
            model = build_model(model_cfg(), seed=5)
            train_model(model, train, cfg)
            outs.append(param_bytes(model))
        assert outs[0] == outs[1]

    def test_distractor_terms_change_the_run(self, corpus):
        train, _ = corpus
        outs = []
        for cfg in (TrainConfig(epochs=1, seed=5, ld=False),
                    TrainConfig(epochs=1, seed=5, ld=True, lam=1.0)):
            model = build_model(model_cfg(), seed=5)
            train_model(model, train, cfg)
            outs.append(param_bytes(model))
        assert outs[0] != outs[1]


class TestCheckpointSelection:
    def test_zero_epochs_keeps_initialization(self, corpus):
        train, _ = corpus
        fresh = build_model(model_cfg(), seed=8)
        trained = build_model(model_cfg(), seed=8)
        result = train_model(trained, train, TrainConfig(epochs=0, seed=0))
        assert param_bytes(trained) == param_bytes(fresh)
        assert result.best_epoch == -1
        assert result.history == []

    def test_best_val_auc_is_running_maximum(self, corpus):
        train, _ = corpus
        model = build_model(model_cfg(), seed=1)
        result = train_model(model, train, TrainConfig(epochs=3, seed=2))
        assert len(result.history) == 3
        seen = [h["val_auc"] for h in result.history]
        assert all(v is not None for v in seen)
        assert result.best_val_auc == max(seen)
        assert result.best_epoch == seen.index(max(seen))  # ties keep earliest

    def test_restored_params_reproduce_best_val_auc(self, corpus):
        train, _ = corpus
        model = build_model(model_cfg(), seed=1)
        cfg = TrainConfig(epochs=3, seed=2)
        result = train_model(model, train, cfg)
        # rebuild the same validation split and rescore with the kept params
        rng = np.random.default_rng(cfg.seed)
        perm = rng.permutation(len(train))
        n_val = round(cfg.val_fraction * len(train))
        val_bags = [train[i] for i in perm[:n_val]]
        auc = pr_auc(score_bags(model, val_bags)).auc_04
        assert abs(auc - result.best_val_auc) < 1e-12


class TestValidation:
    def test_empty_corpus_rejected(self):
        model = build_model(model_cfg(), seed=0)
        with pytest.raises(ValueError, match="empty"):
            train_model(model, [], TrainConfig(epochs=1))

    def test_directsup_requires_relevance_labels(self):
        model = build_model(model_cfg(kind="directsup"), seed=0)
        s = Sentence(tokens=(1, 2, 3, 4), mention_i=(0, 1), mention_j=(2, 3),
                     fget_i=0, fget_j=1, relevance_label=None)
        bags = [Bag("b0", 0, 1, 0, 1, frozenset({0}), (s,))]
        with pytest.raises(ValueError, match="relevance labels"):
            train_model(model, bags, TrainConfig(epochs=1))

    def test_attention_model_accepts_unlabeled_sentences(self):
        model = build_model(model_cfg(), seed=0)
        s = Sentence(tokens=(1, 2, 3, 4), mention_i=(0, 1), mention_j=(2, 3),
                     fget_i=0, fget_j=1, relevance_label=None)
        bags = [Bag(f"b{i}", 0, 1, 0, 1, frozenset({0}), (s,)) for i in range(10)]
        result = train_model(model, bags, TrainConfig(epochs=1, seed=0))
        assert isinstance(result, TrainResult)

    def test_bad_hyperparameters_rejected(self, corpus):
        train, _ = corpus
        model = build_model(model_cfg(), seed=0)
        for bad in (TrainConfig(epochs=-1), TrainConfig(val_fraction=1.0),
                    TrainConfig(lam=-1.0), TrainConfig(gamma=-1.0),
                    TrainConfig(neg_keep=0.0)):
            with pytest.raises(ValueError):
                train_model(model, train, bad)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("ld", [False, True])
    def test_non_finite_loss_names_epoch_and_bag(self, corpus, ld):
        train, _ = corpus
        model = build_model(model_cfg(), seed=0)
        with pytest.raises(ValueError, match=r"training loss is nan in epoch 0 at bag '"):
            train_model(model, train, TrainConfig(epochs=2, lr=1e300, ld=ld))


class TestLearning:
    @pytest.mark.parametrize("kind", ["cnns-att", "directsup"])
    def test_beats_label_shuffle_baseline(self, corpus, kind):
        train, test = corpus
        model = build_model(model_cfg(kind=kind), seed=0)
        train_model(model, train, TrainConfig(epochs=8, seed=0, lr=0.01))
        pairs = score_bags(model, test)
        auc = pr_auc(pairs).auc_04
        baseline = shuffled_baseline_auc(pairs, seed=0)
        assert auc > baseline

    def test_distractor_training_still_learns(self, corpus):
        train, test = corpus
        model = build_model(model_cfg(), seed=0)
        train_model(model, train,
                    TrainConfig(epochs=8, seed=0, lr=0.01,
                                ld=True, lam=1.0, gamma=1e-5))
        pairs = score_bags(model, test)
        assert pr_auc(pairs).auc_04 > shuffled_baseline_auc(pairs, seed=0)

    def test_negative_subsampling_runs(self, corpus):
        train, _ = corpus
        model = build_model(model_cfg(), seed=0)
        result = train_model(model, train,
                             TrainConfig(epochs=1, seed=0, neg_keep=0.5))
        assert len(result.history) == 1
