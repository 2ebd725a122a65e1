"""Model checks: weighting formulas, bag representations, prediction,
losses, fusion, serialization. Hand values first, then numpy oracles over
the model's own forward pass, then finite differences end to end."""

import math

import numpy as np
import pytest

from relexpl import autodiff as ad
from relexpl.autodiff import Tensor
from relexpl.corpus import Bag, ReprMode, Sentence
from relexpl.encoder import EncoderConfig
from relexpl.models import (
    BCE_EPS,
    CnnsAttModel,
    DirectSupModel,
    ModelConfig,
    bce_loss,
    build_model,
    label_vector,
    load_model,
    relevance_loss,
)

from conftest import check_param_grads


def tiny_model_cfg(kind="directsup", K=3, fusion=False, n_entities=0, **enc_kw):
    enc_defaults = dict(vocab_size=30, n_fget=2, d_w=6, d_p=2, pos_clip=4,
                        widths=(2, 3), channels=3)
    enc_defaults.update(enc_kw)
    return ModelConfig(
        kind=kind,
        n_relations=K,
        encoder=EncoderConfig(**enc_defaults),
        repr_mode=ReprMode.RAW,
        fusion=fusion,
        d_e=4,
        n_entities=n_entities,
    )


def make_sentence(tokens, fget=(0, 1)):
    return Sentence(tokens=tuple(tokens), mention_i=(0, 1), mention_j=(2, 3),
                    fget_i=fget[0], fget_j=fget[1], relevance_label=True)


def make_bag(bag_id="b0", n_sent=2, relations=frozenset({1}), seed=0, entities=(0, 1)):
    rng = np.random.default_rng(seed)
    sentences = tuple(
        make_sentence([int(t) for t in rng.integers(0, 30, size=5)]) for _ in range(n_sent)
    )
    return Bag(bag_id=bag_id, entity_i=entities[0], entity_j=entities[1],
               fget_i=0, fget_j=1, relations=frozenset(relations), sentences=sentences)


class TestRelevanceWeights:
    def test_zero_classifier_gives_half(self):
        model = DirectSupModel(tiny_model_cfg(), seed=0)
        model.params["rel.w"].data[...] = 0.0
        model.params["rel.b"].data[...] = 0.0
        fwd = model.forward_bag(make_bag(n_sent=3))
        np.testing.assert_allclose(fwd.alphas.data, [0.5, 0.5, 0.5], rtol=1e-12)

    def test_identical_sentences_identical_weights(self):
        model = DirectSupModel(tiny_model_cfg(), seed=0)
        s = make_sentence([1, 2, 3, 4, 5])
        bag = Bag("b", 0, 1, 0, 1, frozenset({0}), (s, s, s))
        fwd = model.forward_bag(bag)
        assert fwd.alphas.data[0] == fwd.alphas.data[1] == fwd.alphas.data[2]

    def test_sigmoid_hand_value(self):
        # scores of ln 3 must give weight 0.75
        model = DirectSupModel(tiny_model_cfg(), seed=0)
        X = Tensor(np.ones((1, 6)))
        model.params["rel.w"].data[...] = 0.0
        model.params["rel.b"].data[...] = math.log(3.0)
        alphas = model.relevance_alphas(X)
        np.testing.assert_allclose(alphas.data, [0.75], rtol=1e-12)


class TestDirectSupBagRep:
    def test_hand_elementwise_max(self):
        # weighted rows (2,0) and (2,2) -> max (2,2)
        weighted = ad.mul(Tensor([[2.0, 0.0], [4.0, 4.0]]), Tensor([[1.0], [0.5]]))
        rep = ad.rows_max(weighted)
        np.testing.assert_allclose(rep.data, [2.0, 2.0], rtol=1e-12)

    def test_single_sentence_rep_is_weighted_encoding(self):
        model = DirectSupModel(tiny_model_cfg(), seed=1)
        fwd = model.forward_bag(make_bag(n_sent=1))
        np.testing.assert_allclose(
            fwd.reps.data, fwd.alphas.data[0] * fwd.X.data[0], rtol=1e-12
        )

    def test_rep_matches_numpy_oracle(self):
        model = DirectSupModel(tiny_model_cfg(), seed=2)
        fwd = model.forward_bag(make_bag(n_sent=4, seed=5))
        expected = np.max(fwd.alphas.data[:, None] * fwd.X.data, axis=0)
        np.testing.assert_allclose(fwd.reps.data, expected, rtol=1e-12)

    def test_permutation_invariance_exact(self):
        model = DirectSupModel(tiny_model_cfg(), seed=2)
        bag = make_bag(n_sent=4, seed=6)
        flipped = Bag(bag.bag_id, bag.entity_i, bag.entity_j, bag.fget_i, bag.fget_j,
                      bag.relations, tuple(reversed(bag.sentences)))
        a = model.forward_bag(bag).logits.data
        b = model.forward_bag(flipped).logits.data
        np.testing.assert_array_equal(np.sort(a), np.sort(b))
        np.testing.assert_array_equal(a, b)

    def test_duplicate_sentence_changes_nothing(self):
        model = DirectSupModel(tiny_model_cfg(), seed=2)
        bag = make_bag(n_sent=3, seed=7)
        doubled = Bag(bag.bag_id, bag.entity_i, bag.entity_j, bag.fget_i, bag.fget_j,
                      bag.relations, bag.sentences + (bag.sentences[0],))
        np.testing.assert_array_equal(
            model.forward_bag(bag).reps.data, model.forward_bag(doubled).reps.data
        )


class TestAttention:
    def test_singleton_bag_weight_one(self):
        model = CnnsAttModel(tiny_model_cfg(kind="cnns-att"), seed=0)
        fwd = model.forward_bag(make_bag(n_sent=1))
        np.testing.assert_allclose(fwd.alphas.data, np.ones((1, 3)), rtol=1e-12)

    def test_identical_sentences_split_evenly(self):
        model = CnnsAttModel(tiny_model_cfg(kind="cnns-att"), seed=0)
        s = make_sentence([1, 2, 3, 4, 5])
        bag = Bag("b", 0, 1, 0, 1, frozenset({0}), (s, s))
        fwd = model.forward_bag(bag)
        np.testing.assert_allclose(fwd.alphas.data, np.full((2, 3), 0.5), rtol=1e-12)

    def test_hand_softmax(self):
        # scores (ln 2, 0) -> weights (2/3, 1/3)
        model = CnnsAttModel(tiny_model_cfg(kind="cnns-att", K=1), seed=0)
        model.params["att.diag"].data[...] = 1.0
        model.params["att.query"].data[...] = np.array([[1.0, 0, 0, 0, 0, 0]])
        X = Tensor(np.array([[math.log(2.0), 0, 0, 0, 0, 0], [0.0, 0, 0, 0, 0, 0]]))
        alphas = model.attention_alphas(X)
        np.testing.assert_allclose(alphas.data[:, 0], [2 / 3, 1 / 3], rtol=1e-12)

    def test_weights_sum_to_one_per_relation(self):
        model = CnnsAttModel(tiny_model_cfg(kind="cnns-att", K=4), seed=1)
        fwd = model.forward_bag(make_bag(n_sent=5, seed=3))
        np.testing.assert_allclose(fwd.alphas.data.sum(axis=0), np.ones(4), atol=1e-6)

    def test_rep_matches_numpy_oracle_and_convexity(self):
        model = CnnsAttModel(tiny_model_cfg(kind="cnns-att", K=4), seed=1)
        fwd = model.forward_bag(make_bag(n_sent=5, seed=4))
        X, A = fwd.X.data, fwd.alphas.data
        for k in range(4):
            expected = A[:, k] @ X
            np.testing.assert_allclose(fwd.reps.data[k], expected, rtol=1e-10)
            assert np.all(fwd.reps.data[k] >= X.min(axis=0) - 1e-12)
            assert np.all(fwd.reps.data[k] <= X.max(axis=0) + 1e-12)

    def test_selecting_weight_selects_sentence(self):
        # alpha = (1, 0) -> rep equals the first encoding
        rep = ad.matmul(ad.transpose(Tensor([[1.0, 2.0], [3.0, 4.0]])), Tensor([1.0, 0.0]))
        np.testing.assert_allclose(rep.data, [1.0, 2.0], rtol=1e-12)

    def test_permutation_invariance(self):
        model = CnnsAttModel(tiny_model_cfg(kind="cnns-att"), seed=2)
        bag = make_bag(n_sent=4, seed=8)
        flipped = Bag(bag.bag_id, bag.entity_i, bag.entity_j, bag.fget_i, bag.fget_j,
                      bag.relations, tuple(reversed(bag.sentences)))
        np.testing.assert_allclose(
            model.forward_bag(bag).logits.data,
            model.forward_bag(flipped).logits.data,
            rtol=1e-12,
        )


class TestPredict:
    def test_zero_logit_is_half(self):
        model = DirectSupModel(tiny_model_cfg(), seed=0)
        model.params["head.rel"].data[...] = 0.0
        model.params["head.bias"].data[...] = 0.0
        p, o = model.predict_k(make_bag(), 1)
        assert o == 0.0 and p == 0.5

    def test_degenerate_head_gives_bias_sigmoid(self):
        model = DirectSupModel(tiny_model_cfg(), seed=0)
        model.params["head.rel"].data[...] = 0.0
        model.params["head.bias"].data[...] = np.array([0.0, math.log(9.0), -1.0])
        for seed in (1, 2, 3):
            p, o = model.predict_k(make_bag(seed=seed), 1)
            np.testing.assert_allclose(p, 0.9, rtol=1e-12)  # sigmoid(ln 9)

    def test_k_out_of_range(self):
        model = DirectSupModel(tiny_model_cfg(K=3), seed=0)
        with pytest.raises(ValueError, match="out of range"):
            model.predict_k(make_bag(), 3)

    def test_logits_linear_in_rep(self):
        model = CnnsAttModel(tiny_model_cfg(kind="cnns-att"), seed=3)
        fwd = model.forward_bag(make_bag(n_sent=2, seed=9))
        R = model.params["head.rel"].data
        b = model.params["head.bias"].data
        expected = np.sum(fwd.reps.data * R, axis=1) + b
        np.testing.assert_allclose(fwd.logits.data, expected, rtol=1e-10)

    def test_empty_selection_uses_zero_rep(self):
        model = DirectSupModel(tiny_model_cfg(), seed=0)
        fwd = model.forward_bag(make_bag(), include=[])
        np.testing.assert_allclose(fwd.logits.data, model.params["head.bias"].data, rtol=1e-12)
        assert fwd.X is None and fwd.alphas is None


class TestFusion:
    def fused_model(self, kind="directsup", seed=0):
        return build_model(tiny_model_cfg(kind=kind, fusion=True, n_entities=6), seed=seed)

    def test_equal_entities_zero_difference_block(self):
        model = self.fused_model()
        table = model.params["fuse.entities"].data
        table[3] = table[2]
        rep = Tensor(np.zeros(6))
        fused_same = model._fuse_vec(rep, 2, 3)
        # difference block zero: fused value driven by rep and product block only
        z = np.concatenate([np.zeros(6), np.zeros(4), table[2] * table[3]])
        expected = np.maximum(z @ model.params["fuse.proj"].data + model.params["fuse.bias"].data, 0.0)
        np.testing.assert_allclose(fused_same.data, expected, rtol=1e-12)

    def test_output_nonnegative(self):
        model = self.fused_model()
        fwd = model.forward_bag(make_bag(entities=(4, 5)))
        assert np.all(model._fuse_vec(fwd.reps, 4, 5).data >= 0.0)

    def test_missing_entity_row(self):
        model = self.fused_model()
        with pytest.raises(ValueError, match="entity id 9"):
            model.forward_bag(make_bag(entities=(9, 0)))

    def test_fusion_changes_with_entities_and_no_fusion_does_not(self):
        fused = self.fused_model(seed=1)
        plain = build_model(tiny_model_cfg(), seed=1)
        bag_a, bag_b = make_bag(entities=(0, 1)), make_bag(entities=(2, 3))
        assert not np.allclose(
            fused.forward_bag(bag_a).logits.data, fused.forward_bag(bag_b).logits.data
        )
        np.testing.assert_array_equal(
            plain.forward_bag(bag_a).logits.data, plain.forward_bag(bag_b).logits.data
        )

    def test_att_fused_rows_match_vector_path(self):
        model = self.fused_model(kind="cnns-att", seed=2)
        fwd = model.forward_bag(make_bag(n_sent=3, entities=(1, 2)))
        for k in range(3):
            via_vec = model._fuse_vec(ad.take(fwd.reps, k), 1, 2)
            via_logit = (via_vec.data @ model.params["head.rel"].data[k]
                         + model.params["head.bias"].data[k])
            np.testing.assert_allclose(fwd.logits.data[k], via_logit, rtol=1e-10)

    def test_fusion_gradients_match_finite_differences(self):
        model = self.fused_model(seed=3)
        bag = make_bag(n_sent=2, entities=(0, 1))
        y = label_vector(bag, 3)

        def forward():
            return bce_loss(model.forward_bag(bag).logits, y)

        check_param_grads(
            forward,
            {n: model.params[n] for n in ("fuse.proj", "fuse.bias")},
        )


class TestLosses:
    def test_bce_hand_values(self):
        # label 1 at p = 0.5 -> ln 2
        l = bce_loss(Tensor(np.zeros(1)), np.array([1.0]))
        np.testing.assert_allclose(l.data, math.log(2.0), rtol=1e-12)
        # labels (1, 0) at p = (0.5, 0.5) -> 2 ln 2
        l2 = bce_loss(Tensor(np.zeros(2)), np.array([1.0, 0.0]))
        np.testing.assert_allclose(l2.data, 2 * math.log(2.0), rtol=1e-12)

    def test_bce_perfect_prediction_vanishes(self):
        l = bce_loss(Tensor(np.array([60.0, -60.0])), np.array([1.0, 0.0]))
        assert 0.0 <= float(l.data) < 1e-9

    def test_bce_confident_mistake_is_clamped_finite(self):
        l = bce_loss(Tensor(np.array([60.0])), np.array([0.0]))
        assert np.isfinite(l.data)
        np.testing.assert_allclose(float(l.data), -math.log(BCE_EPS), rtol=1e-6)

    def test_relevance_loss_hand_value(self):
        l = relevance_loss(Tensor(np.array([0.5, 0.5])), [True, False])
        np.testing.assert_allclose(l.data, 2 * math.log(2.0), rtol=1e-12)

    def test_label_vector(self):
        y = label_vector(make_bag(relations={0, 2}), 4)
        np.testing.assert_array_equal(y, [1.0, 0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="K=1"):
            label_vector(make_bag(relations={3}), 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels shape"):
            bce_loss(Tensor(np.zeros(3)), np.zeros(2))


class TestEndToEndGradients:
    @pytest.mark.parametrize("kind", ["directsup", "cnns-att"])
    def test_loss_gradients_all_trainable_params(self, kind):
        model = build_model(tiny_model_cfg(kind=kind, fusion=True, n_entities=4), seed=4)
        bag = make_bag(n_sent=3, relations={0, 2}, entities=(1, 2))
        y = label_vector(bag, 3)

        def forward():
            fwd = model.forward_bag(bag)
            loss = bce_loss(fwd.logits, y)
            if kind == "directsup":
                loss = ad.add(loss, relevance_loss(
                    fwd.alphas, [s.relevance_label for s in bag.sentences]))
            return loss

        check_param_grads(forward, model.trainable_params())


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        cfg = tiny_model_cfg(kind="cnns-att", fusion=True, n_entities=5)
        model = build_model(cfg, seed=9)
        bag = make_bag(entities=(0, 4))
        before = model.forward_bag(bag).logits.data.copy()
        path = str(tmp_path / "m.json")
        model.save(path, extra={"seed": 9})
        loaded, meta = load_model(path)
        assert meta["seed"] == 9
        assert loaded.cfg == cfg
        np.testing.assert_array_equal(loaded.forward_bag(bag).logits.data, before)

    def test_config_round_trip(self):
        cfg = tiny_model_cfg(kind="cnns-att", fusion=True, n_entities=5)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            tiny_model_cfg(kind="mystery").validate()
