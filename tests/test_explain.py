"""Explanation checks: analytic hand values on surgically linear models,
finite-difference oracles for the gradient methods, an independent
two-pass oracle for leave-one-out, the no-mutation guarantee, and the
one-forward-per-bag sharing of explain_corpus."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relexpl import autodiff as ad
from relexpl.autodiff import Tensor
from relexpl.corpus import Bag, ReprMode, Sentence
from relexpl.distractor import AugmentedBag, augmented_bag_loss
from relexpl.encoder import EncoderConfig, SentenceEncoder
from relexpl.explain import (
    METHODS,
    ImportanceScores,
    attention_explanation,
    encoding_gradient,
    explain_bag,
    explain_corpus,
    gi_vector,
    grad_input,
    leave_one_out,
    load_scores,
    saliency,
    write_scores,
)
from relexpl.models import BagForward, ModelConfig, RelationModel

from conftest import engine_gi, predict_k, recorded_gi
import oracle_engine as oe

# Test ids keep the names of the classes each kind once had, so that every
# test's history carries over to the one model class.
CLASS_NAMES = {"directsup": "DirectSupModel", "cnns-att": "CnnsAttModel"}
KINDS = [pytest.param(kind, id=f"{name}-{kind}") for kind, name in CLASS_NAMES.items()]


def model_cfg(kind="cnns-att", K=2, fusion=False, n_entities=0,
              widths=(2,), channels=3):
    return ModelConfig(
        kind=kind,
        n_relations=K,
        encoder=EncoderConfig(vocab_size=30, n_fget=2, d_w=6, d_p=2, pos_clip=4,
                              widths=widths, channels=channels),
        repr_mode=ReprMode.RAW,
        fusion=fusion,
        d_e=4,
        n_entities=n_entities,
    )


def make_sentence(tokens):
    return Sentence(tokens=tuple(tokens), mention_i=(0, 1), mention_j=(2, 3),
                    fget_i=0, fget_j=1, relevance_label=True)


def make_bag(n_sent=3, relations=frozenset({0}), seed=0, bag_id="b0"):
    rng = np.random.default_rng(seed)
    sentences = tuple(
        make_sentence([int(t) for t in rng.integers(0, 30, size=6)])
        for _ in range(n_sent)
    )
    return Bag(bag_id=bag_id, entity_i=0, entity_j=1, fget_i=0, fget_j=1,
               relations=frozenset(relations), sentences=sentences)


class TestAnalyticLinearHead:
    """Single-sentence attention bag with fusion off: the softmax weight is
    the constant 1, so o_k = w_k . x + b_k exactly, with w_k the head row.
    Saliency and gradient-times-input then have closed forms."""

    def linear_model(self):
        model = RelationModel(model_cfg(), seed=0)  # encoder out_dim = 3
        model.params["head.rel"].data[0] = [1.0, -2.0, 3.0]
        model.params["head.rel"].data[1] = [0.5, 0.0, -1.0]
        return model

    def test_saliency_is_l1_of_head_row(self):
        model = self.linear_model()
        bag = make_bag(n_sent=1)
        assert abs(saliency(model, bag, 0)[0] - 6.0) < 1e-12
        assert abs(saliency(model, bag, 1)[0] - 1.5) < 1e-12

    def test_gi_is_head_row_dot_encoding(self):
        model = self.linear_model()
        bag = make_bag(n_sent=1)
        x = model.encode_bag(bag.sentences[:1]).data[0]
        for k, w in ((0, np.array([1.0, -2.0, 3.0])), (1, np.array([0.5, 0.0, -1.0]))):
            assert abs(grad_input(model, bag, k)[0] - float(w @ x)) < 1e-12

    def test_gi_equals_logit_minus_bias_in_linear_case(self):
        model = self.linear_model()
        model.params["head.bias"].data[...] = [0.25, -0.5]
        bag = make_bag(n_sent=1)
        for k in (0, 1):
            _, o_k = predict_k(model, bag, k)
            b_k = model.params["head.bias"].data[k]
            assert abs(grad_input(model, bag, k)[0] - (o_k - b_k)) < 1e-12


class TestHandBuiltGraph:
    """The gradient×input oracle and encoding_gradient on a hand-assembled
    forward record simple enough that the answer reduces to a dot product."""

    def summed_forward(self, rows):
        # o_0 = w . (x_0 + x_1 + ...): each sentence's gradient is w itself
        X = Tensor(np.array(rows, dtype=np.float64), requires_grad=True)
        W = Tensor(np.array([[1.0, -2.0, 3.0]]))
        logits = ad.matmul(W, oe.reduce_sum(X, 0))
        return BagForward(X=X, alphas=None, reps=None, logits=logits)

    def test_zero_row_gets_zero_attribution(self):
        fwd = self.summed_forward([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        np.testing.assert_allclose(engine_gi(fwd, 0), [0.0, 2.0], atol=1e-15)

    def test_gradient_rows_equal_weight_vector(self):
        fwd = self.summed_forward([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        gX = encoding_gradient(fwd, 0)
        np.testing.assert_allclose(gX.data, [[1.0, -2.0, 3.0]] * 2, atol=1e-15)

    def test_empty_forward_rejected(self):
        fwd = BagForward(X=None, alphas=None, reps=None, logits=Tensor(np.zeros(1)))
        with pytest.raises(ValueError):
            encoding_gradient(fwd, 0)


def _oracle_ld_loss(model, aug, gamma, X):
    """The --ld loss in oracle-engine ops, on gradient×input from the recorded oracle."""
    gi = recorded_gi(model, X, aug.relation, aug.base.entity_i, aug.base.entity_j)
    return oe.distractor_loss(gi, gamma)


def _assert_relatively_close(got, want, tol=1e-12):
    scale = np.abs(want).max(initial=0.0)
    assert np.abs(got - want).max(initial=0.0) <= tol * scale, (got, want)


class TestClosedFormGI:
    """gi_vector's closed form against two oracles on the same (N + 1, d)
    stack, to 1e-12 relative: for every relation its values against the
    engine's gradient of the logit times the encodings (engine_gi); for
    every relation the gradients of a random weighting of its rows, w.r.t.
    the stack and every parameter (head.rel, fuse.proj, att.query,
    att.diag, rel.w, rel.b among them), against those of the same form in
    oracle-engine ops (recorded_gi), whose VJPs the engine derives; and the
    parameter gradients of the --ld loss built on it against those of the
    loss built in oracle-engine ops."""

    @staticmethod
    def case(kind, fusion, n_base, seed, relation, duplicate=False):
        """A model and a base bag of n_base sentences with one distractor; with
        duplicate the second row repeats the first, so max-pooling ties."""
        cfg = model_cfg(kind=kind, K=3, fusion=fusion, n_entities=4 if fusion else 0,
                        widths=(2, 3), channels=3)
        model = RelationModel(cfg, seed=seed)
        sentences = list(make_bag(n_sent=n_base + 1, seed=seed).sentences)
        if duplicate:
            sentences[1] = sentences[0]
        base = Bag(bag_id="b", entity_i=seed % 4, entity_j=(seed + 1) % 4, fget_i=0,
                   fget_j=1, relations=frozenset({0, 2}), sentences=tuple(sentences[:-1]))
        return model, AugmentedBag(base, relation, sentences[-1]), model.encode_bag(sentences)

    @staticmethod
    def check(model, aug, X):
        ei, ej = aug.base.entity_i, aug.base.entity_j
        fwd = model.forward_encodings(X, ei, ej)
        params = list(model.trainable_params().values())
        for k in range(model.cfg.n_relations):
            gi = gi_vector(model, X, k, ei, ej)
            want = recorded_gi(model, X, k, ei, ej)
            _assert_relatively_close(gi.data, engine_gi(fwd, k))
            _assert_relatively_close(want.data, gi.data)
            w = np.random.default_rng(k).standard_normal(X.shape[0])
            for g, h in zip(ad.grad(oe.reduce_sum(oe.mul(gi, w)), [X, *params]),
                            ad.grad(oe.reduce_sum(oe.mul(want, w)), [X, *params])):
                _assert_relatively_close(g.data, h.data)
        got = ad.grad(augmented_bag_loss(model, aug, 0.5, X), params)
        want = ad.grad(_oracle_ld_loss(model, aug, 0.5, X), params)
        for g, w in zip(got, want):
            _assert_relatively_close(g.data, w.data)

    @given(kind=st.sampled_from(list(CLASS_NAMES)), fusion=st.booleans(),
           n_base=st.integers(1, 6), seed=st.integers(0, 10 ** 4),
           relation=st.sampled_from([0, 2]), duplicate=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_first_order_oracles(self, kind, fusion, n_base, seed, relation, duplicate):
        # duplicated rows are drawn for directsup, whose max-pool breaks their ties
        self.check(*self.case(kind, fusion, n_base, seed, relation,
                              duplicate and kind == "directsup"))

    @pytest.mark.parametrize("fusion", [False, True])
    def test_directsup_max_pool_ties(self, fusion):
        model, aug, X = self.case("directsup", fusion, 4, seed=3, relation=2, duplicate=True)
        np.testing.assert_array_equal(X.data[0], X.data[1])  # every column ties
        self.check(model, aug, X)

    @pytest.mark.parametrize("kind", list(CLASS_NAMES))
    def test_fusion_mask_partly_off(self, kind):
        model, aug, X = self.case(kind, True, 4, seed=1, relation=0)
        reps = model.forward_encodings(X, aug.base.entity_i, aug.base.entity_j).reps
        row = reps.data[:1] if kind == "directsup" else reps.data[aug.relation][None]
        _, _, mask = model._fuse(row, aug.base.entity_i, aug.base.entity_j)
        assert 0 < mask.sum() < mask.size
        self.check(model, aug, X)


class TestFiniteDifferenceOracle:
    """Saliency and GI against central differences of o_k w.r.t. the
    post-encoder sentence encodings, on untouched random models."""

    @pytest.mark.parametrize("kind,fusion", [
        pytest.param(kind, fusion, id=f"{kind}-{name}-{fusion}")
        for fusion in (False, True) for kind, name in CLASS_NAMES.items()
    ])
    def test_matches_fd_through_bag_pooling(self, kind, fusion):
        cfg = model_cfg(kind=kind, K=3, fusion=fusion,
                        n_entities=4 if fusion else 0, widths=(2, 3), channels=2)
        model = RelationModel(cfg, seed=7)
        bag = make_bag(n_sent=4, relations=frozenset({0, 2}), seed=3)
        X0 = model.encode_bag(bag.sentences).data.copy()

        for k in (0, 2):
            def logit_of(Xarr):
                _, _, logits = model._bag_logits(Tensor(Xarr), bag.entity_i,
                                                 bag.entity_j)
                return float(logits.data[k])

            h = 1e-5
            gX_fd = np.zeros_like(X0)
            it = np.nditer(X0, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                orig = X0[ix]
                X0[ix] = orig + h
                fp = logit_of(X0)
                X0[ix] = orig - h
                fm = logit_of(X0)
                X0[ix] = orig
                gX_fd[ix] = (fp - fm) / (2.0 * h)
                it.iternext()

            s_fd = np.abs(gX_fd).sum(axis=1)
            gi_fd = (gX_fd * X0).sum(axis=1)
            s = saliency(model, bag, k)
            gi = grad_input(model, bag, k)
            assert np.linalg.norm(s - s_fd) / max(np.linalg.norm(s_fd), 1e-12) < 1e-4
            assert np.linalg.norm(gi - gi_fd) / max(np.linalg.norm(gi_fd), 1e-12) < 1e-4


class TestLeaveOneOut:
    def test_equals_fresh_bag_oracle_exactly(self):
        # independent route: rebuild a bag object without sentence n
        for kind in CLASS_NAMES:
            model = RelationModel(model_cfg(kind=kind, K=2, widths=(2, 3), channels=2), seed=1)
            bag = make_bag(n_sent=4, seed=5)
            o_full = predict_k(model, bag, 1)[1]
            scores = leave_one_out(model, bag, 1)
            for n in range(4):
                reduced = Bag(
                    bag_id=bag.bag_id, entity_i=bag.entity_i, entity_j=bag.entity_j,
                    fget_i=bag.fget_i, fget_j=bag.fget_j, relations=bag.relations,
                    sentences=tuple(s for i, s in enumerate(bag.sentences) if i != n),
                )
                o_minus = predict_k(model, reduced, 1)[1]
                assert scores[n] == o_full - o_minus

    def test_duplicate_sentence_scores_zero_under_max_pooling(self):
        model = RelationModel(model_cfg(kind="directsup"), seed=0)
        s = make_sentence([1, 2, 3, 4, 5, 6])
        bag = Bag("b", 0, 1, 0, 1, frozenset({0}), (s, s))
        np.testing.assert_array_equal(leave_one_out(model, bag, 0), [0.0, 0.0])

    def test_singleton_bag_without_fusion(self):
        # empty selection scores b_k, so the score is o_k - b_k
        model = RelationModel(model_cfg(), seed=2)
        model.params["head.bias"].data[...] = [0.3, -0.7]
        bag = make_bag(n_sent=1)
        for k in (0, 1):
            o_k = predict_k(model, bag, k)[1]
            b_k = model.params["head.bias"].data[k]
            assert abs(leave_one_out(model, bag, k)[0] - (o_k - b_k)) < 1e-12

    def test_singleton_bag_with_fusion_numpy_oracle(self):
        # empty selection: zero representation still passes through fusion
        model = RelationModel(model_cfg(fusion=True, n_entities=4), seed=2)
        bag = make_bag(n_sent=1)
        d = model.cfg.encoder.out_dim
        vi = model.params["fuse.entities"].data[bag.entity_i]
        vj = model.params["fuse.entities"].data[bag.entity_j]
        z = np.concatenate([np.zeros(d), vi - vj, vi * vj])
        fused = np.maximum(model.params["fuse.proj"].data.T @ z
                           + model.params["fuse.bias"].data, 0.0)
        for k in (0, 1):
            o_empty = model.params["head.rel"].data[k] @ fused \
                + model.params["head.bias"].data[k]
            o_k = predict_k(model, bag, k)[1]
            assert abs(leave_one_out(model, bag, k)[0] - (o_k - o_empty)) < 1e-12


class TestAttentionExplanation:
    def test_attention_column_sums_to_one(self):
        model = RelationModel(model_cfg(K=3), seed=4)
        bag = make_bag(n_sent=5)
        for k in range(3):
            scores = attention_explanation(model, bag, k)
            assert scores.shape == (5,)
            assert abs(scores.sum() - 1.0) < 1e-6

    def test_relevance_weights_identical_across_relations(self):
        model = RelationModel(model_cfg(kind="directsup", K=3), seed=4)
        bag = make_bag(n_sent=4)
        base = attention_explanation(model, bag, 0)
        for k in (1, 2):
            np.testing.assert_array_equal(attention_explanation(model, bag, k), base)

    def test_single_sentence_attention_is_one(self):
        model = RelationModel(model_cfg(), seed=4)
        scores = attention_explanation(model, make_bag(n_sent=1), 0)
        np.testing.assert_allclose(scores, [1.0], rtol=1e-12)


class TestNoMutation:
    @pytest.mark.parametrize("kind", KINDS)
    def test_parameters_bit_identical_after_all_methods(self, kind):
        model = RelationModel(model_cfg(kind=kind, fusion=True, n_entities=4), seed=9)
        before = {n: p.data.tobytes() for n, p in model.params.items()}
        bag = make_bag(n_sent=3)
        for method in METHODS:
            explain_bag(model, bag, 0, method)
        for n, p in model.params.items():
            assert p.data.tobytes() == before[n]


class TestDispatchAndIO:
    def test_explain_bag_records_provenance(self):
        model = RelationModel(model_cfg(), seed=0)
        bag = make_bag(n_sent=3, bag_id="b7")
        for method in METHODS:
            out = explain_bag(model, bag, 1, method)
            assert isinstance(out, ImportanceScores)
            assert (out.bag_id, out.relation, out.method) == ("b7", 1, method)
            assert len(out.scores) == 3

    def test_unknown_method_rejected(self):
        model = RelationModel(model_cfg(), seed=0)
        with pytest.raises(ValueError, match="unknown method"):
            explain_bag(model, make_bag(), 0, "lime")

    def test_relation_out_of_range_rejected(self):
        model = RelationModel(model_cfg(K=2), seed=0)
        for method in METHODS:
            with pytest.raises(ValueError, match="out of range"):
                explain_bag(model, make_bag(), 5, method)

    def test_explain_corpus_covers_positive_pairs_only(self):
        model = RelationModel(model_cfg(K=3), seed=0)
        bags = [
            make_bag(n_sent=2, relations=frozenset({2, 0}), bag_id="a"),
            make_bag(n_sent=2, relations=frozenset(), bag_id="neg"),
            make_bag(n_sent=1, relations=frozenset({1}), bag_id="c"),
        ]
        out = explain_corpus(model, bags)
        keys = [(s.bag_id, s.relation, s.method) for s in out]
        expected = [("a", k, m) for k in (0, 2) for m in METHODS] \
            + [("c", 1, m) for m in METHODS]
        assert keys == expected

    def test_scores_round_trip(self, tmp_path):
        model = RelationModel(model_cfg(kind="directsup"), seed=0)
        scores = explain_corpus(model, [make_bag(n_sent=3)])
        path = str(tmp_path / "scores.jsonl")
        write_scores(path, scores, meta={"seed": 0})
        loaded = load_scores(path)
        assert loaded == scores

    def test_non_finite_scores_not_written(self, tmp_path):
        with pytest.raises(ValueError):
            write_scores(str(tmp_path / "scores.jsonl"),
                         [ImportanceScores("b0", 0, "gi", (math.nan, 1.0))])

    def test_scores_file_without_header_loads(self, tmp_path):
        path = str(tmp_path / "scores.jsonl")
        scores = [ImportanceScores("b0", 1, "gi", (0.5, -0.25))]
        write_scores(path, scores)
        assert load_scores(path) == scores


def without(bag, n):
    """An independently rebuilt bag missing sentence n."""
    return Bag(bag_id=bag.bag_id, entity_i=bag.entity_i, entity_j=bag.entity_j,
               fget_i=bag.fget_i, fget_j=bag.fget_j, relations=bag.relations,
               sentences=tuple(s for i, s in enumerate(bag.sentences) if i != n))


def shaped_bag(shape):
    """Bags of 1, 2 and 16 sentences; "16dup" repeats sentence 0 as sentence 9."""
    bag = make_bag(n_sent=16 if shape == "16dup" else int(shape),
                   relations=frozenset({0, 2}), seed=13)
    if shape == "16dup":
        sentences = list(bag.sentences)
        sentences[9] = sentences[0]
        bag = Bag(bag.bag_id, bag.entity_i, bag.entity_j, bag.fget_i, bag.fget_j,
                  bag.relations, tuple(sentences))
    return bag


SHARED_CASES = [
    pytest.param(kind, fusion, shape, id=f"{kind}-fusion{int(fusion)}-{shape}")
    for kind in CLASS_NAMES
    for fusion in (False, True)
    for shape in ("1", "2", "16", "16dup")
]


class TestSharedForward:
    """explain_corpus runs one forward per bag; every method reading it must
    give exactly what a standalone call, and for loo a fresh forward over
    the remaining sentences, gives."""

    def model(self, kind, fusion):
        cfg = model_cfg(kind=kind, K=3, fusion=fusion, n_entities=4 if fusion else 0,
                        widths=(2, 3), channels=2)
        return RelationModel(cfg, seed=11)

    @pytest.mark.parametrize("kind,fusion,shape", SHARED_CASES)
    def test_loo_equals_fresh_bag_oracle(self, kind, fusion, shape):
        model = self.model(kind, fusion)
        bag = shaped_bag(shape)
        fwd = model.forward_bag(bag)
        for k in range(3):
            o_full = predict_k(model, bag, k)[1]
            oracle = [o_full - predict_k(model, without(bag, n), k)[1]
                      for n in range(len(bag.sentences))]
            assert leave_one_out(model, bag, k, fwd).tolist() == oracle
            assert leave_one_out(model, bag, k).tolist() == oracle

    @pytest.mark.parametrize("kind,fusion,shape", SHARED_CASES)
    def test_corpus_rows_equal_standalone_calls(self, kind, fusion, shape):
        model = self.model(kind, fusion)
        bag = shaped_bag(shape)
        before = {n: p.data.tobytes() for n, p in model.params.items()}
        rows = explain_corpus(model, [bag])
        standalone = {"attention": attention_explanation, "saliency": saliency,
                      "gi": grad_input, "loo": leave_one_out}
        assert [(r.relation, r.method) for r in rows] == \
            [(k, m) for k in (0, 2) for m in METHODS]
        for r in rows:
            np.testing.assert_array_equal(
                r.scores, standalone[r.method](model, bag, r.relation))
        for n, p in model.params.items():
            assert p.data.tobytes() == before[n]

    def test_relation_out_of_range_rejected_with_shared_forward(self):
        model = RelationModel(model_cfg(K=2), seed=0)
        bag = make_bag(n_sent=3, relations=frozenset({5}))
        with pytest.raises(ValueError, match="out of range"):
            explain_corpus(model, [bag])
        fwd = model.forward_bag(bag)
        for method in METHODS:
            with pytest.raises(ValueError, match="out of range"):
                explain_bag(model, bag, 5, method, fwd)

    def test_one_forward_and_one_encoding_per_sentence(self, monkeypatch):
        # all four methods on a 16-sentence, single-relation bag: quadratic
        # leave-one-out would re-encode the bag once per sentence
        calls = {"encode": 0, "sentences": 0, "forward": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        encode = SentenceEncoder.encode

        def encode_counting_sentences(self, items):
            calls["sentences"] += len(items)
            return encode(self, items)

        monkeypatch.setattr(SentenceEncoder, "encode",
                            counted("encode", encode_counting_sentences))
        monkeypatch.setattr(RelationModel, "forward_sentences",
                            counted("forward", RelationModel.forward_sentences))
        model = RelationModel(model_cfg(K=2), seed=0)
        explain_corpus(model, [make_bag(n_sent=16, relations=frozenset({1}))])
        assert calls == {"encode": 1, "sentences": 16, "forward": 1}

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_gradient_per_relation_and_one_repool_per_sentence(self, monkeypatch, kind):
        # all four methods on a bag of N = 5 sentences labeled with R = 2
        # relations: saliency and gi share each relation's gradient, and both
        # relations read their loo logits from the same N re-pools
        calls = {"grad": 0, "pool": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ad, "grad", counted("grad", ad.grad))
        monkeypatch.setattr(RelationModel, "_bag_logits",
                            counted("pool", RelationModel._bag_logits))
        model = RelationModel(model_cfg(kind=kind, K=3), seed=0)
        rows = explain_corpus(model, [make_bag(n_sent=5, relations=frozenset({0, 2}))])
        assert len(rows) == 2 * len(METHODS)
        assert calls == {"grad": 2, "pool": 1 + 5}  # the bag's forward, then the N re-pools

    @pytest.mark.parametrize("kind", KINDS)
    def test_explain_pass_leaves_no_reference_cycles(self, kind):
        # graphs are freed by reference counting alone
        model = RelationModel(model_cfg(kind=kind, fusion=True, n_entities=4), seed=9)
        bag = make_bag(n_sent=4, relations=frozenset({0, 1}))
        gc.collect()
        gc.disable()
        try:
            explain_corpus(model, [bag])
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDegenerateSaliency:
    def test_sentence_on_zero_weight_path_scores_zero(self):
        # head row of zeros: the logit ignores the encodings entirely
        model = RelationModel(model_cfg(K=2), seed=3)
        model.params["head.rel"].data[1] = 0.0
        bag = make_bag(n_sent=2)
        np.testing.assert_allclose(saliency(model, bag, 1), [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(grad_input(model, bag, 1), [0.0, 0.0], atol=1e-15)
