"""Model checks: weighting formulas, bag representations, prediction,
losses, fusion, serialization. Hand values first, then numpy oracles over
the model's own forward pass, then finite differences end to end."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relexpl import autodiff as ad
from relexpl import optim
from relexpl.autodiff import Tensor
from relexpl.corpus import Bag, ReprMode, Sentence
from relexpl.encoder import EncoderConfig
from relexpl.explain import explain_bag
from relexpl.models import (
    BCE_EPS,
    ModelConfig,
    RelationModel,
    bce_loss,
    build_model,
    label_vector,
    load_model,
    relevance_loss,
)

from conftest import check_grads, check_param_grads, predict_k, rel_err
import oracle_engine as oe


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
        model = RelationModel(tiny_model_cfg(), seed=0)
        model.params["rel.w"].data[...] = 0.0
        model.params["rel.b"].data[...] = 0.0
        fwd = model.forward_bag(make_bag(n_sent=3))
        np.testing.assert_allclose(fwd.alphas.data, [0.5, 0.5, 0.5], rtol=1e-12)

    def test_identical_sentences_identical_weights(self):
        model = RelationModel(tiny_model_cfg(), seed=0)
        s = make_sentence([1, 2, 3, 4, 5])
        bag = Bag("b", 0, 1, 0, 1, frozenset({0}), (s, s, s))
        fwd = model.forward_bag(bag)
        assert fwd.alphas.data[0] == fwd.alphas.data[1] == fwd.alphas.data[2]

    def test_sigmoid_hand_value(self):
        # scores of ln 3 must give weight 0.75
        model = RelationModel(tiny_model_cfg(), seed=0)
        model.params["rel.w"].data[...] = 0.0
        model.params["rel.b"].data[...] = math.log(3.0)
        fwd = model.forward_bag(make_bag(n_sent=2))
        np.testing.assert_allclose(fwd.alphas.data, [0.75, 0.75], rtol=1e-12)


class TestDirectSupBagRep:
    def test_hand_elementwise_max(self):
        # weighted rows (2,0) and (2,2) -> max (2,2)
        weighted = oe.mul(Tensor([[2.0, 0.0], [4.0, 4.0]]), Tensor([[1.0], [0.5]]))
        rep = oe.rows_max(weighted)
        np.testing.assert_allclose(rep.data, [2.0, 2.0], rtol=1e-12)

    def test_single_sentence_rep_is_weighted_encoding(self):
        model = RelationModel(tiny_model_cfg(), seed=1)
        fwd = model.forward_bag(make_bag(n_sent=1))
        assert fwd.reps.shape == (1, 6)  # one row serves every relation
        np.testing.assert_allclose(fwd.reps.data, fwd.alphas.data[0] * fwd.X.data[:1], rtol=1e-12)

    def test_rep_matches_numpy_oracle(self):
        model = RelationModel(tiny_model_cfg(), seed=2)
        fwd = model.forward_bag(make_bag(n_sent=4, seed=5))
        expected = np.max(fwd.alphas.data[:, None] * fwd.X.data, axis=0, keepdims=True)
        np.testing.assert_allclose(fwd.reps.data, expected, rtol=1e-12)

    def test_permutation_invariance_exact(self):
        model = RelationModel(tiny_model_cfg(), seed=2)
        bag = make_bag(n_sent=4, seed=6)
        flipped = Bag(bag.bag_id, bag.entity_i, bag.entity_j, bag.fget_i, bag.fget_j,
                      bag.relations, tuple(reversed(bag.sentences)))
        a = model.forward_bag(bag).logits.data
        b = model.forward_bag(flipped).logits.data
        np.testing.assert_array_equal(np.sort(a), np.sort(b))
        np.testing.assert_array_equal(a, b)

    def test_duplicate_sentence_changes_nothing(self):
        model = RelationModel(tiny_model_cfg(), seed=2)
        bag = make_bag(n_sent=3, seed=7)
        doubled = Bag(bag.bag_id, bag.entity_i, bag.entity_j, bag.fget_i, bag.fget_j,
                      bag.relations, bag.sentences + (bag.sentences[0],))
        np.testing.assert_array_equal(
            model.forward_bag(bag).reps.data, model.forward_bag(doubled).reps.data
        )


class TestAttention:
    def test_singleton_bag_weight_one(self):
        model = RelationModel(tiny_model_cfg(kind="cnns-att"), seed=0)
        fwd = model.forward_bag(make_bag(n_sent=1))
        np.testing.assert_allclose(fwd.alphas.data, np.ones((1, 3)), rtol=1e-12)

    def test_identical_sentences_split_evenly(self):
        model = RelationModel(tiny_model_cfg(kind="cnns-att"), seed=0)
        s = make_sentence([1, 2, 3, 4, 5])
        bag = Bag("b", 0, 1, 0, 1, frozenset({0}), (s, s))
        fwd = model.forward_bag(bag)
        np.testing.assert_allclose(fwd.alphas.data, np.full((2, 3), 0.5), rtol=1e-12)

    def test_hand_softmax(self):
        # scores (ln 2, 0) -> weights (2/3, 1/3)
        model = RelationModel(tiny_model_cfg(kind="cnns-att", K=1), seed=0)
        model.params["att.diag"].data[...] = 1.0
        model.params["att.query"].data[...] = np.array([[1.0, 0, 0, 0, 0, 0]])
        X = Tensor(np.array([[math.log(2.0), 0, 0, 0, 0, 0], [0.0, 0, 0, 0, 0, 0]]))
        alphas = model.forward_encodings(X, 0, 1).alphas
        np.testing.assert_allclose(alphas.data[:, 0], [2 / 3, 1 / 3], rtol=1e-12)

    def test_weights_sum_to_one_per_relation(self):
        model = RelationModel(tiny_model_cfg(kind="cnns-att", K=4), seed=1)
        fwd = model.forward_bag(make_bag(n_sent=5, seed=3))
        np.testing.assert_allclose(fwd.alphas.data.sum(axis=0), np.ones(4), atol=1e-6)

    def test_rep_matches_numpy_oracle_and_convexity(self):
        model = RelationModel(tiny_model_cfg(kind="cnns-att", K=4), seed=1)
        fwd = model.forward_bag(make_bag(n_sent=5, seed=4))
        X, A = fwd.X.data, fwd.alphas.data
        for k in range(4):
            expected = A[:, k] @ X
            np.testing.assert_allclose(fwd.reps.data[k], expected, rtol=1e-10)
            assert np.all(fwd.reps.data[k] >= X.min(axis=0) - 1e-12)
            assert np.all(fwd.reps.data[k] <= X.max(axis=0) + 1e-12)

    def test_selecting_weight_selects_sentence(self):
        # alpha = (1, 0) -> rep equals the first encoding
        rep = ad.matmul(oe.transpose(Tensor([[1.0, 2.0], [3.0, 4.0]])), Tensor([1.0, 0.0]))
        np.testing.assert_allclose(rep.data, [1.0, 2.0], rtol=1e-12)

    def test_permutation_invariance(self):
        model = RelationModel(tiny_model_cfg(kind="cnns-att"), seed=2)
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
        model = RelationModel(tiny_model_cfg(), seed=0)
        model.params["head.rel"].data[...] = 0.0
        model.params["head.bias"].data[...] = 0.0
        p, o = predict_k(model, make_bag(), 1)
        assert o == 0.0 and p == 0.5

    def test_degenerate_head_gives_bias_sigmoid(self):
        model = RelationModel(tiny_model_cfg(), seed=0)
        model.params["head.rel"].data[...] = 0.0
        model.params["head.bias"].data[...] = np.array([0.0, math.log(9.0), -1.0])
        for seed in (1, 2, 3):
            p, o = predict_k(model, make_bag(seed=seed), 1)
            np.testing.assert_allclose(p, 0.9, rtol=1e-12)  # sigmoid(ln 9)

    def test_k_out_of_range(self):
        model = RelationModel(tiny_model_cfg(K=3), seed=0)
        with pytest.raises(ValueError, match="out of range"):
            explain_bag(model, make_bag(), 3, "attention")

    def test_logits_linear_in_rep(self):
        model = RelationModel(tiny_model_cfg(kind="cnns-att"), seed=3)
        fwd = model.forward_bag(make_bag(n_sent=2, seed=9))
        R = model.params["head.rel"].data
        b = model.params["head.bias"].data
        expected = np.sum(fwd.reps.data * R, axis=1) + b
        np.testing.assert_allclose(fwd.logits.data, expected, rtol=1e-10)

    def test_empty_selection_uses_zero_rep(self):
        model = RelationModel(tiny_model_cfg(), seed=0)
        fwd = model.forward_bag(make_bag(), include=[])
        np.testing.assert_allclose(fwd.logits.data, model.params["head.bias"].data, rtol=1e-12)
        assert fwd.X is None and fwd.alphas is None


def head_reference(model, reps, entity_i, entity_j):
    """numpy logits of the model's head over (R, d) bag rows, R = K or 1."""
    p = {name: t.data for name, t in model.params.items()}
    if model.cfg.fusion:
        vi, vj = p["fuse.entities"][entity_i], p["fuse.entities"][entity_j]
        pair = np.broadcast_to(np.concatenate([vi - vj, vi * vj]), (reps.shape[0], 8))
        reps = np.maximum(np.concatenate([reps, pair], axis=1) @ p["fuse.proj"]
                          + p["fuse.bias"], 0.0)
    return np.sum(reps * p["head.rel"], axis=1) + p["head.bias"]


class TestFusion:
    def fused_model(self, kind="directsup", seed=0):
        return build_model(tiny_model_cfg(kind=kind, fusion=True, n_entities=6), seed=seed)

    @pytest.mark.parametrize("kind", ["directsup", "cnns-att"])
    @pytest.mark.parametrize("fusion", [False, True])
    def test_head_matches_numpy_reference(self, kind, fusion):
        model = build_model(tiny_model_cfg(kind=kind, fusion=fusion, n_entities=6), seed=4)
        fwd = model.forward_bag(make_bag(n_sent=3, entities=(1, 4)))
        assert fwd.reps.shape == ((1, 6) if kind == "directsup" else (3, 6))
        np.testing.assert_allclose(fwd.logits.data, head_reference(model, fwd.reps.data, 1, 4),
                                   rtol=1e-12)
        empty = model.forward_bag(make_bag(entities=(1, 4)), include=[])
        np.testing.assert_allclose(empty.logits.data,
                                   head_reference(model, np.zeros((1, 6)), 1, 4), rtol=1e-12)

    def test_equal_entities_zero_difference_block(self):
        model = self.fused_model()
        table = model.params["fuse.entities"].data
        table[3] = table[2]
        p = {name: t.data for name, t in model.params.items()}
        fwd = model.forward_bag(make_bag(entities=(2, 3)))
        # difference block zero: fused value driven by rep and product block only
        z = np.concatenate([fwd.reps.data, np.zeros((1, 4)), (table[2] * table[3])[None]], axis=1)
        fused = np.maximum(z @ p["fuse.proj"] + p["fuse.bias"], 0.0)
        expected = np.sum(fused * p["head.rel"], axis=1) + p["head.bias"]
        np.testing.assert_allclose(fwd.logits.data, expected, rtol=1e-12)

    def test_output_nonnegative(self):
        # a fused row is a ReLU: pushed below zero it is all zeros, and the logits are the bias
        for kind in ("directsup", "cnns-att"):
            model = self.fused_model(kind=kind)
            model.params["fuse.bias"].data[...] = -1e6
            fwd = model.forward_bag(make_bag(entities=(4, 5)))
            np.testing.assert_array_equal(fwd.logits.data, model.params["head.bias"].data)

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
        table = model.params["fuse.entities"].data
        pair = np.concatenate([table[1] - table[2], table[1] * table[2]])
        for k in range(3):
            fused = np.maximum(np.concatenate([fwd.reps.data[k], pair])
                               @ model.params["fuse.proj"].data + model.params["fuse.bias"].data,
                               0.0)
            via_logit = fused @ model.params["head.rel"].data[k] + model.params["head.bias"].data[k]
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


# the coarse nodes against the oracle engine: relative error of values and VJPs
ORACLE_RTOL = 1e-12
KINDS = ["cnns-att", "directsup"]


def node_case(kind, fusion, n, seed, tie=False):
    """A model, an (n, d) encoding stack, a cotangent for the K logits and an
    entity pair. tie copies row 0 into row 1, so that every column of
    directsup's max-pool ties."""
    model = build_model(tiny_model_cfg(kind=kind, fusion=fusion, n_entities=6), seed=seed)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, model.cfg.encoder.out_dim))
    if tie:
        X[1] = X[0]
    w = rng.normal(size=model.cfg.n_relations)
    return model, X, w, tuple(int(e) for e in rng.integers(0, 6, size=2))


def head_values_and_grads(bag_logits, model, X, w, entities):
    """([alphas, reps, logits], {name: gradient of logits . w}) for X and
    every trainable parameter, through bag_logits(X tensor, i, j)."""
    Xt = Tensor(X.copy(), requires_grad=True)
    alphas, reps, logits = bag_logits(Xt, *entities)
    params = model.trainable_params()
    grads = ad.grad(oe.reduce_sum(oe.mul(logits, w)), [Xt, *params.values()])
    return [alphas.data, reps.data, logits.data], dict(zip(["X", *params], (g.data for g in grads)))


def assert_matches_oracle(got, want):
    """Values and gradients of a coarse node and of its oracle composition agree."""
    for name in want:
        assert rel_err(got[name], want[name]) < ORACLE_RTOL, name


class TestCoarseNodes:
    """The bag head node (pooling, fusion and head) and the two loss nodes:
    values and VJPs against the same computation op by op in the oracle
    engine, to 1e-12 relative, and against central differences."""

    @staticmethod
    def check_head(kind, fusion, n, seed, tie=False):
        model, X, w, entities = node_case(kind, fusion, n, seed, tie)
        got = head_values_and_grads(model._bag_logits, model, X, w, entities)
        want = head_values_and_grads(lambda X, i, j: oe.bag_logits(model, X, i, j),
                                     model, X, w, entities)
        assert_matches_oracle(dict(enumerate(got[0])), dict(enumerate(want[0])))
        assert_matches_oracle(got[1], want[1])
        return got

    @given(kind=st.sampled_from(KINDS), fusion=st.booleans(), n=st.integers(1, 6),
           seed=st.integers(0, 10 ** 4), tie=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_head_node_matches_oracle(self, kind, fusion, n, seed, tie):
        self.check_head(kind, fusion, n, seed, tie and kind == "directsup" and n > 1)

    @pytest.mark.parametrize("fusion", [False, True])
    def test_directsup_max_pool_ties_go_to_the_lowest_row(self, fusion):
        _, grads = self.check_head("directsup", fusion, 4, seed=5, tie=True)
        # row 1 loses every column to row 0, so no gradient reaches it
        assert np.abs(grads["X"][0]).max() > 0.0
        np.testing.assert_array_equal(grads["X"][1], 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("fusion", [False, True])
    def test_empty_selection_node_matches_oracle(self, kind, fusion):
        model, _, w, entities = node_case(kind, fusion, 1, seed=2)
        zero = Tensor(np.zeros((1, model.cfg.encoder.out_dim)))
        got = model._empty_logits(*entities)
        want = oe.head(model, zero, *entities)
        assert rel_err(got.data, want.data) < ORACLE_RTOL
        params = list(model.trainable_params().values())
        for g, h in zip(ad.grad(oe.reduce_sum(oe.mul(got, w)), params),
                        ad.grad(oe.reduce_sum(oe.mul(want, w)), params)):
            assert rel_err(g.data, h.data) < ORACLE_RTOL

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("fusion", [False, True])
    @pytest.mark.parametrize("n", [1, 3])
    def test_head_node_matches_finite_differences(self, kind, fusion, n):
        model, X, w, entities = node_case(kind, fusion, n, seed=7)
        Xt = Tensor(X, requires_grad=True)
        reads = {"X": Xt, **{name: p for name, p in model.trainable_params().items()
                             if not name.startswith(("enc.", "embed."))}}
        check_param_grads(
            lambda: oe.reduce_sum(oe.mul(model._bag_logits(Xt, *entities)[2], w)), reads)

    @staticmethod
    def loss_case(seed, size):
        """Logits with some saturated past the clamp, labels, relevance weights
        with some at or past the clamp's bounds, and a loss cotangent."""
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=3.0, size=size)
        logits[rng.random(size) < 0.3] *= 40.0
        labels = rng.random(size) < 0.5
        alphas = rng.uniform(0.01, 0.99, size=size)
        edges = np.array([BCE_EPS, 1.0 - BCE_EPS, 1e-14, 1.0 - 1e-14])
        pick = rng.random(size) < 0.3
        alphas[pick] = rng.choice(edges, size=int(pick.sum()))
        return logits, labels, alphas, float(rng.normal())

    @given(size=st.integers(1, 6), seed=st.integers(0, 10 ** 4))
    @settings(max_examples=60, deadline=None)
    def test_loss_nodes_match_oracle(self, size, seed):
        logits, labels, alphas, c = self.loss_case(seed, size)
        cases = [(bce_loss, oe.bce_loss, logits, labels.astype(float)),
                 (relevance_loss, oe.relevance_loss, alphas, list(labels))]
        for node, oracle, x, y in cases:
            got, want = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
            lg, lw = node(got, y), oracle(want, y)
            assert rel_err(lg.data, lw.data) < ORACLE_RTOL
            (g,), (h,) = ad.grad(oe.mul(lg, c), [got]), ad.grad(oe.mul(lw, c), [want])
            assert rel_err(g.data, h.data) < ORACLE_RTOL

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loss_nodes_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        logits, labels = rng.normal(scale=3.0, size=5), rng.random(5) < 0.5
        check_grads(lambda t: bce_loss(t, labels.astype(float)), [logits])
        check_grads(lambda t: relevance_loss(t, list(labels)), [rng.uniform(0.05, 0.95, 5)])


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

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        cfg = tiny_model_cfg(kind="cnns-att", fusion=True, n_entities=5)
        model = build_model(cfg, seed=9)
        path = str(tmp_path / "m.json")
        model.save(path)

        class NoDraws(np.random.Generator):
            def normal(self, *args, **kwargs):
                raise AssertionError("Generator.normal called")

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: NoDraws(np.random.PCG64(seed)))
        with pytest.raises(AssertionError, match="normal called"):
            build_model(cfg, seed=9)  # the patch reaches the model's generator
        loaded, _ = load_model(path)
        assert list(loaded.params) == list(model.params)
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()
            assert loaded.params[name].requires_grad == p.requires_grad

    # sha256 over sorted names of "name:shape:requires_grad;" and the bytes,
    # for build_model(cfg, seed=11): the draw order and every value stay pinned
    SEEDED_INIT = {
        ("directsup", False): "49475f849466df73aaa70b39b164862aef5a041256bfcc72ebd1cdb21587be5c",
        ("directsup", True): "fca40d7323b8ee8270a2325508bcd393a31946b45f0caf00aaedf37864f237e1",
        ("cnns-att", False): "9af6114ffb9ca054c19134e588240886e53629be549b2e4e78f129845f885f2c",
        ("cnns-att", True): "c2d6128ef944b54bf9cf58f0436aacd1e6e06d0be0e076a6c400e119277ee1ff",
    }

    @pytest.mark.parametrize("kind, fusion", SEEDED_INIT)
    def test_seeded_init_is_pinned(self, kind, fusion):
        model = build_model(tiny_model_cfg(kind=kind, fusion=fusion,
                                           n_entities=5 if fusion else 0), seed=11)
        h = hashlib.sha256()
        for name in sorted(model.params):
            p = model.params[name]
            h.update(f"{name}:{p.data.shape}:{p.requires_grad};".encode())
            h.update(p.data.tobytes())
        assert h.hexdigest() == self.SEEDED_INIT[(kind, fusion)]

    @pytest.mark.parametrize("edit, cause", [
        (lambda p: {**p, "zz": Tensor(np.ones(2))}, r"does not: \['zz'\]"),
        (lambda p: {k: v for k, v in p.items() if k != "head.bias"},
         "no parameter 'head.bias'"),
        (lambda p: {**p, "head.bias": Tensor(np.zeros(4))},
         r"'head.bias': checkpoint shape \(4,\) != model \(3,\)"),
    ])
    def test_load_checks_names_and_shapes(self, tmp_path, edit, cause):
        model = build_model(tiny_model_cfg(), seed=0)
        path = str(tmp_path / "m.json")
        optim.save_checkpoint(path, edit(model.params), extra={"config": model.cfg.to_dict()})
        with pytest.raises(ValueError, match=cause):
            load_model(path)

    @pytest.mark.parametrize("kind", ["directsup", "cnns-att"])
    def test_each_kind_reloads_with_equal_logits(self, tmp_path, kind):
        model = RelationModel(tiny_model_cfg(kind=kind), seed=3)
        bag = make_bag(n_sent=3, entities=(0, 4))
        path = str(tmp_path / "m.json")
        model.save(path)
        loaded, _ = load_model(path)
        assert loaded.cfg == model.cfg
        assert (loaded.forward_bag(bag).logits.data == model.forward_bag(bag).logits.data).all()

    def test_model_needs_one_source_of_parameters(self):
        with pytest.raises(ValueError, match="seed or from checkpoint arrays"):
            RelationModel(tiny_model_cfg())
        with pytest.raises(ValueError, match="seed or from checkpoint arrays"):
            RelationModel(tiny_model_cfg(), seed=0, arrays={})

    def test_config_round_trip(self):
        cfg = tiny_model_cfg(kind="cnns-att", fusion=True, n_entities=5)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            tiny_model_cfg(kind="mystery").validate()
