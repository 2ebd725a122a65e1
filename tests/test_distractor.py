"""Distractor checks: hand-evaluated loss cases, a finite-difference pass
through the loss's second derivatives of the logits, sampling distribution
statistics, and mention-substitution postconditions."""

import gc

import numpy as np
import pytest

from relexpl import autodiff as ad
from relexpl.autodiff import Tensor
from relexpl.corpus import Bag, ReprMode, Sentence, apply_repr_mode, fget_token_id
from relexpl.distractor import (
    AugmentedBag,
    DistractorError,
    _substitute_mentions,
    augmented_bag_loss,
    build_index,
    combined_loss,
    distractor_loss,
    sample_distractor,
)
from relexpl.encoder import EncoderConfig, SentenceEncoder
from relexpl.models import (
    KIND_DIRECTSUP,
    ModelConfig,
    RelationModel,
    bce_loss,
    label_vector,
    relevance_loss,
)
from relexpl.optim import Adam
from relexpl.training import TrainConfig, _step_loss, train_model

from conftest import check_param_grads, engine_gi
import oracle_engine as oe


def sent(tokens, mi=(0, 1), mj=(2, 3), fget=(0, 1), relevance=True):
    return Sentence(tokens=tuple(tokens), mention_i=mi, mention_j=mj,
                    fget_i=fget[0], fget_j=fget[1], relevance_label=relevance)


def bag(bag_id, relations, sentences, fget=(0, 1), entities=(0, 1)):
    return Bag(bag_id=bag_id, entity_i=entities[0], entity_j=entities[1],
               fget_i=fget[0], fget_j=fget[1], relations=frozenset(relations),
               sentences=tuple(sentences))


def stack(model, aug):
    """The (N + 1, d) encodings of the augmented bag, from one encoder call."""
    return model.encode_bag(aug.base.sentences + (aug.distractor,))


def model_cfg(kind="cnns-att", K=2, widths=(2,), channels=2, fusion=False):
    return ModelConfig(
        kind=kind,
        n_relations=K,
        encoder=EncoderConfig(vocab_size=30, n_fget=2, d_w=4, d_p=2, pos_clip=4,
                              widths=widths, channels=channels),
        repr_mode=ReprMode.RAW,
        fusion=fusion,
        d_e=4,
        n_entities=2 if fusion else 0,
    )


class TestLossHandValues:
    GAMMA = 1e-5

    def loss(self, originals, distractor, gamma=GAMMA):
        return float(distractor_loss(Tensor(np.array(originals)),
                                     Tensor(np.float64(distractor)), gamma).data)

    def test_well_separated_distractor_costs_nothing(self):
        # hinge max(0, 1e-5 + 0 - 1) = 0, magnitude |0| = 0
        assert abs(self.loss([1.0, 0.3], 0.0)) < 1e-9

    def test_distractor_above_maximum(self):
        # hinge 1e-5 + 0.5 - 0.2 = 0.30001, plus magnitude 0.5
        assert abs(self.loss([0.2], 0.5) - 0.80001) < 1e-9

    def test_distractor_at_exact_maximum(self):
        for m in (0.7, -0.4):
            originals = [m, m - 0.5]
            assert abs(self.loss(originals, m) - (self.GAMMA + abs(m))) < 1e-9

    def test_empty_base_bag_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            distractor_loss(Tensor(np.zeros(0)), Tensor(np.float64(0.0)), 1e-5)

    def test_vector_distractor_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            distractor_loss(Tensor(np.ones(2)), Tensor(np.ones(2)), 1e-5)


class TestCombinedLoss:
    def test_zero_weight_returns_base_untouched(self):
        base = Tensor(np.float64(1.25))
        terms = [Tensor(np.float64(9.0))]
        assert float(combined_loss(base, terms, 0.0).data) == 1.25

    def test_unit_weight_adds_terms(self):
        got = combined_loss(Tensor(np.float64(1.0)), [Tensor(np.float64(0.5))], 1.0)
        assert abs(float(got.data) - 1.5) < 1e-12

    def test_weight_scales_sum(self):
        got = combined_loss(Tensor(np.float64(1.0)),
                            [Tensor(np.float64(0.15)), Tensor(np.float64(0.05))],
                            10.0)
        assert abs(float(got.data) - 3.0) < 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            combined_loss(Tensor(np.float64(1.0)), [], -0.5)


class TestIndex:
    def test_groups_by_type_pair_and_collects_negatives(self):
        bags = [
            bag("a", {0}, [sent([1, 2, 3, 4]), sent([5, 6, 7, 8])], fget=(0, 1)),
            bag("b", set(), [sent([9, 10, 11, 12], fget=(2, 3))], fget=(2, 3)),
            bag("c", {1}, [sent([13, 14, 15, 16])], fget=(0, 1)),
        ]
        index = build_index(bags)
        assert index.by_fget[(0, 1)] == [(0, 0), (0, 1), (2, 0)]
        assert index.by_fget[(2, 3)] == [(1, 0)]
        assert index.negative_pool == [(1, 0)]


class TestSampling:
    def base_bag(self):
        return bag("base", {0}, [sent([20, 21, 22, 23, 24])], fget=(0, 1))

    def test_single_eligible_candidate_always_drawn(self):
        donor = sent([1, 2, 3, 4, 99], fget=(0, 1))
        bags = [self.base_bag(), bag("other", {1}, [donor])]
        index = build_index(bags)
        rng = np.random.default_rng(0)
        for _ in range(50):
            got = sample_distractor(bags[0], 0, index, rng)
            assert 99 in got.tokens  # the donor's marker survives substitution
            assert got.distractor

    def test_own_sentences_never_drawn(self):
        # the base bag is itself indexed, but carries the target relation
        marker_own = 77
        base = bag("base", {0}, [sent([20, 21, 22, 23, marker_own])], fget=(0, 1))
        donor = sent([1, 2, 3, 4, 99], fget=(0, 1))
        index = build_index([base, bag("other", {1}, [donor])])
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert marker_own not in sample_distractor(base, 0, index, rng).tokens

    def test_fallback_to_negative_pool(self):
        # the only type-matching bag carries the relation, so no candidates
        base = self.base_bag()
        bags = [
            base,
            bag("pos-match", {0}, [sent([1, 2, 3, 4], fget=(0, 1))]),
            bag("neg", set(), [sent([30, 31, 32, 33, 88], fget=(4, 5))], fget=(4, 5)),
        ]
        index = build_index(bags)
        rng = np.random.default_rng(2)
        got = sample_distractor(base, 0, index, rng)
        assert 88 in got.tokens
        assert got.distractor

    def test_structured_error_when_nothing_available(self):
        base = self.base_bag()
        index = build_index([base])
        with pytest.raises(DistractorError) as exc:
            sample_distractor(base, 0, index, np.random.default_rng(0))
        assert exc.value.bag_id == "base"
        assert exc.value.relation == 0
        assert exc.value.fget == (0, 1)

    def test_unlabeled_relation_rejected(self):
        base = self.base_bag()
        index = build_index([base])
        with pytest.raises(ValueError, match="not a label"):
            sample_distractor(base, 1, index, np.random.default_rng(0))

    def test_candidates_drawn_uniformly(self):
        markers = (91, 92, 93, 94)
        bags = [self.base_bag()] + [
            bag(f"d{t}", {1}, [sent([1, 2, 3, 4, t], fget=(0, 1))])
            for t in markers
        ]
        index = build_index(bags)
        rng = np.random.default_rng(3)
        n = 10_000
        counts = dict.fromkeys(markers, 0)
        for _ in range(n):
            got = sample_distractor(bags[0], 0, index, rng)
            hit = [t for t in markers if t in got.tokens]
            assert len(hit) == 1
            counts[hit[0]] += 1
        expected = n / len(markers)
        sigma = (n * (1 / len(markers)) * (1 - 1 / len(markers))) ** 0.5
        for t in markers:
            assert abs(counts[t] - expected) <= 3 * sigma

    def test_same_seed_same_draws(self):
        bags = [self.base_bag()] + [
            bag(f"d{t}", {1}, [sent([1, 2, 3, 4, t], fget=(0, 1))])
            for t in (50, 51, 52)
        ]
        index = build_index(bags)
        draws_a = [sample_distractor(bags[0], 0, index, np.random.default_rng(7)).tokens
                   for _ in range(1)]
        draws_b = [sample_distractor(bags[0], 0, index, np.random.default_rng(7)).tokens
                   for _ in range(1)]
        assert draws_a == draws_b


class TestSubstitution:
    def test_hand_worked_example(self):
        donor = sent([10, 11, 12, 13, 14, 15], mi=(1, 2), mj=(4, 6), fget=(5, 6))
        base = bag("b", {0}, [sent([20, 21, 22, 23], mi=(0, 2), mj=(3, 4))],
                   fget=(0, 1))
        got = _substitute_mentions(donor, base)
        assert got.tokens == (10, 20, 21, 12, 13, 23)
        assert got.mention_i == (1, 3)
        assert got.mention_j == (5, 6)
        assert (got.fget_i, got.fget_j) == (0, 1)
        assert got.distractor
        assert got.relevance_label is None and got.rationale_for is None

    def test_mention_j_before_mention_i(self):
        donor = sent([10, 11, 12, 13, 14], mi=(3, 4), mj=(0, 1), fget=(5, 6))
        base = bag("b", {0}, [sent([20, 21, 22, 23], mi=(0, 1), mj=(2, 4))],
                   fget=(0, 1))
        got = _substitute_mentions(donor, base)
        # j's block lands first, i's block after, both with base surface forms
        assert got.tokens == (22, 23, 11, 12, 20, 14)
        assert got.mention_j == (0, 2)
        assert got.mention_i == (4, 5)

    def test_mention_tokens_match_base_first_sentence(self):
        donor = sent([1, 2, 3, 4, 5, 6, 7], mi=(2, 3), mj=(5, 7), fget=(8, 9))
        base = bag("b", {0}, [sent([20, 21, 22, 23, 24], mi=(0, 2), mj=(3, 5))],
                   fget=(0, 1))
        got = _substitute_mentions(donor, base)
        s, e = got.mention_i
        assert got.tokens[s:e] == (20, 21)
        s, e = got.mention_j
        assert got.tokens[s:e] == (23, 24)

    def test_type_mode_places_base_type_tokens(self):
        vocab_size, n_fget = 30, 10
        donor = sent([1, 2, 3, 4, 5], mi=(0, 2), mj=(3, 4), fget=(8, 9))
        base = bag("b", {0}, [sent([20, 21, 22, 23], mi=(0, 1), mj=(2, 3))],
                   fget=(4, 7))
        got = _substitute_mentions(donor, base)
        tokens, span_i, span_j = apply_repr_mode(got, ReprMode.FGET,
                                                 vocab_size=vocab_size,
                                                 n_fget=n_fget)
        assert tokens[span_i[0]] == fget_token_id(4, vocab_size)
        assert tokens[span_j[0]] == fget_token_id(7, vocab_size)
        assert span_i[1] - span_i[0] == 1 and span_j[1] - span_j[0] == 1


class TestAugmentedLoss:
    def fixtures(self, kind="cnns-att", seed=0):
        model = RelationModel(model_cfg(kind=kind), seed=seed)
        rng = np.random.default_rng(11)
        sentences = [sent([int(t) for t in rng.integers(0, 30, size=6)])
                     for _ in range(3)]
        base = bag("base", {0}, sentences[:2])
        donor = sentences[2]
        aug = AugmentedBag(base=base, relation=0,
                           distractor=_substitute_mentions(donor, base))
        return model, aug

    @pytest.mark.parametrize("kind", ["cnns-att", "directsup"])
    def test_matches_numpy_recombination(self, kind):
        model, aug = self.fixtures(kind=kind)
        gamma = 0.01
        got = float(augmented_bag_loss(model, aug, gamma, stack(model, aug)).data)
        fwd = model.forward_sentences(
            list(aug.base.sentences) + [aug.distractor],
            aug.base.entity_i, aug.base.entity_j)
        gi = engine_gi(fwd, aug.relation)
        want = max(0.0, gamma + gi[-1] - gi[:-1].max()) + abs(gi[-1])
        assert abs(got - want) < 1e-12

    def test_augmentation_leaves_base_bag_loss_alone(self):
        from relexpl.models import bce_loss, label_vector
        model, aug = self.fixtures()
        y = label_vector(aug.base, model.cfg.n_relations)
        before = float(bce_loss(model.forward_bag(aug.base).logits, y).data)
        augmented_bag_loss(model, aug, 0.5, stack(model, aug))
        after = float(bce_loss(model.forward_bag(aug.base).logits, y).data)
        assert before == after

    def test_to_bag_appends_flagged_sentence(self):
        _, aug = self.fixtures()
        whole = aug.to_bag()
        assert len(whole.sentences) == len(aug.base.sentences) + 1
        assert whole.sentences[-1].distractor
        assert not any(s.distractor for s in whole.sentences[:-1])
        assert whole.relations == aug.base.relations


class TestSecondOrderGradients:
    """The loss contains gradient-times-input, so its parameter gradient is
    a second derivative of the logits, here taken by a first-order backward
    through the closed form; finite differences of the loss must agree."""

    @pytest.mark.parametrize("kind,seed", [("cnns-att", 0), ("directsup", 4)])
    def test_parameter_gradients_match_fd(self, kind, seed):
        model = RelationModel(model_cfg(kind=kind), seed=seed)
        rng = np.random.default_rng(21)
        sentences = [sent([int(t) for t in rng.integers(0, 30, size=5)])
                     for _ in range(3)]
        base = bag("base", {1}, sentences[:2])
        aug = AugmentedBag(base=base, relation=1,
                           distractor=_substitute_mentions(sentences[2], base))

        # large margin keeps the hinge strictly active under FD probes
        probe = {n: model.params[n] for n in
                 ("head.rel", "head.bias", "enc.w2.filters", "enc.w2.bias")}
        check_param_grads(lambda: augmented_bag_loss(model, aug, 0.5, stack(model, aug)),
                          probe, tol=1e-3)

    def test_training_signal_reaches_weighting_parameters(self):
        model = RelationModel(model_cfg(), seed=2)
        rng = np.random.default_rng(5)
        sentences = [sent([int(t) for t in rng.integers(0, 30, size=5)])
                     for _ in range(3)]
        base = bag("base", {0}, sentences[:2])
        aug = AugmentedBag(base=base, relation=0,
                           distractor=_substitute_mentions(sentences[2], base))
        loss = augmented_bag_loss(model, aug, 0.5, stack(model, aug))
        targets = [model.params["att.query"], model.params["att.diag"]]
        grads = ad.grad(loss, targets)
        assert any(np.abs(g.data).max() > 0 for g in grads)


class TestNoReferenceCycles:
    @pytest.mark.parametrize("kind", ["cnns-att", "directsup"])
    def test_ld_training_step_leaves_no_cycles(self, kind):
        # the step of training.train_model under --ld: its graph is freed
        # by reference counting alone
        model, aug = TestAugmentedLoss().fixtures(kind=kind)
        base = aug.base
        params = model.trainable_params()
        opt = Adam(params, lr=0.01)
        gc.collect()
        gc.disable()
        try:
            loss = _step_loss(model, base, [aug], 1e-5, 1.0)
            opt.step(dict(zip(params, ad.backward(loss, params.values()))))
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()


def _separate_encoding_loss(model, aug, gamma):
    """Reference: the distractor loss over the base bag and the distractor
    encoded in two encoder calls."""
    X = oe.concat([model.encode_bag(aug.base.sentences), model.encode_bag([aug.distractor])])
    return augmented_bag_loss(model, aug, gamma, X)


def _separate_step_loss(model, base, augs, gamma):
    """Reference: one --ld step objective that encodes the base bag for its
    BCE forward and again, with the distractor, for each term."""
    fwd = model.forward_bag(base)
    loss = bce_loss(fwd.logits, label_vector(base, model.cfg.n_relations))
    if model.cfg.kind == KIND_DIRECTSUP:
        loss = ad.add(loss, relevance_loss(
            fwd.alphas, [s.relevance_label for s in base.sentences]))
    return combined_loss(loss, [_separate_encoding_loss(model, aug, gamma) for aug in augs], 1.0)


def _two_relation_case(kind, fusion, seed):
    model = RelationModel(model_cfg(kind=kind, fusion=fusion), seed=seed)
    rng = np.random.default_rng(100 + seed)
    sentences = [sent([int(t) for t in rng.integers(0, 30, size=int(rng.integers(4, 8)))],
                      relevance=bool(i % 2)) for i in range(5)]
    base = bag("base", {0, 1}, sentences[:3])
    augs = [AugmentedBag(base, k, _substitute_mentions(sentences[3 + k], base))
            for k in (0, 1)]
    return model, base, augs


KINDS = [("cnns-att", False), ("cnns-att", True), ("directsup", False), ("directsup", True)]


class TestSharedEncodings:
    """A --ld step encodes the base bag and all its distractors in one
    encoder call, and each term reads its rows of that stack."""

    @pytest.mark.parametrize("kind,fusion", KINDS)
    def test_shared_loss_equals_standalone_and_separate(self, kind, fusion):
        model, base, augs = _two_relation_case(kind, fusion, seed=3)
        n = len(base.sentences)
        X = model.encode_bag(base.sentences + tuple(aug.distractor for aug in augs))
        for j, aug in enumerate(augs):
            rows = ad.take(X, np.append(np.arange(n), n + j))
            shared = float(augmented_bag_loss(model, aug, 0.05, rows).data)
            assert shared == float(augmented_bag_loss(model, aug, 0.05, stack(model, aug)).data)
            assert shared == float(_separate_encoding_loss(model, aug, 0.05).data)

    @pytest.mark.parametrize("kind,fusion", KINDS)
    def test_parameter_gradients_match_separate_encodings(self, kind, fusion):
        # the same terms summed in another order: equal up to rounding
        model, base, augs = _two_relation_case(kind, fusion, seed=5)
        params = list(model.trainable_params().values())
        shared = ad.grad(_step_loss(model, base, augs, 0.5, 1.0), params)
        separate = ad.grad(_separate_step_loss(model, base, augs, 0.5), params)
        for a, b in zip(shared, separate):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind,seed", [("cnns-att", 0), ("directsup", 4)])
    def test_step_gradients_match_fd(self, kind, seed):
        model, base, augs = _two_relation_case(kind, False, seed)
        probe = {n: model.params[n] for n in
                 ("head.rel", "head.bias", "enc.w2.filters", "embed.pos_i")}
        check_param_grads(lambda: _step_loss(model, base, augs, 0.5, 1.0),
                          probe, tol=1e-3)

    def test_rejects_a_forward_of_another_bag(self):
        model, base, augs = _two_relation_case("cnns-att", False, seed=1)
        X = model.encode_bag(base.sentences)  # the distractor's row is missing
        with pytest.raises(ValueError, match="3 encodings"):
            augmented_bag_loss(model, augs[0], 0.5, X)

    def test_ld_step_encodes_each_sentence_once(self, monkeypatch):
        # N = 3 sentences, R = 2 relations: N + R encoded sentences (not
        # N + R (N + 1)), in one encoder call for the bag and its
        # distractors; the negative bag's M = 2 sentences are its own step
        _, base, _ = _two_relation_case("cnns-att", False, seed=2)
        negative = bag("neg", set(), [sent([5, 6, 7, 8]), sent([9, 10, 11, 12])])
        calls = []
        encode = SentenceEncoder.encode

        def counting(self, items):
            calls.append(len(items))
            return encode(self, items)

        monkeypatch.setattr(SentenceEncoder, "encode", counting)
        model = RelationModel(model_cfg(), seed=0)
        train_model(model, [base, negative],
                    TrainConfig(epochs=1, lr=0.01, val_fraction=0.0, ld=True))
        assert sum(calls) == (3 + 2) + 2
        assert len(calls) == 1 + 1


class TestFirstOrderStep:
    @pytest.mark.parametrize("kind,fusion", KINDS)
    def test_ld_epoch_runs_no_vjp_while_recording(self, monkeypatch, kind, fusion):
        # a VJP that made graph nodes would record a gradient of a gradient;
        # over one --ld epoch, distractor terms included, no node is made
        # while grad or backward runs
        running, made_inside, runs = [], [], []
        node = ad._node

        def spy_node(data, parents, vjp, op):
            if running:
                made_inside.append(op)
            return node(data, parents, vjp, op)

        def spy(name):
            fn = getattr(ad, name)

            def run(*args):
                runs.append(name)
                running.append(name)
                try:
                    return fn(*args)
                finally:
                    running.pop()
            monkeypatch.setattr(ad, name, run)

        monkeypatch.setattr(ad, "_node", spy_node)
        spy("grad")
        spy("backward")
        model, base, _ = _two_relation_case(kind, fusion, seed=2)
        negative = bag("neg", set(), [sent([5, 6, 7, 8], relevance=False)])
        train_model(model, [base, negative],
                    TrainConfig(epochs=1, lr=0.01, val_fraction=0.0, ld=True))
        assert runs.count("backward") == 2 and runs.count("grad") == 2
        assert made_inside == []


class TestGraphSize:
    """Graph nodes recorded for one tiny bag, pinned exactly, so an engine or
    model change that grows the graph shows here. Three sentences labelled
    {0, 2}, one 6-token distractor per relation."""

    # (kind, fusion) -> nodes of the forward, of the forward and loss, and of
    # the whole --ld step objective. The encoder and the bag head are one node
    # each, directsup adds its sigmoid weights' matmul, add and sigmoid, and
    # each loss is one node; the --ld step encodes the bag and its
    # distractors in one node, and each distractor term records 13 nodes,
    # 16 with fusion (its logit direction's take, slice and product).
    NODES = {
        ("cnns-att", False): (2, 3, 33),
        ("cnns-att", True): (2, 3, 39),
        ("directsup", False): (5, 8, 34),
        ("directsup", True): (5, 8, 40),
    }
    # the budget: a cnns-att forward with its BCE records at most this many
    ATT_STEP_BUDGET = 6

    @pytest.mark.parametrize("kind,fusion", list(NODES))
    def test_recorded_nodes(self, monkeypatch, kind, fusion):
        cfg = ModelConfig(
            kind=kind, n_relations=3,
            encoder=EncoderConfig(vocab_size=30, n_fget=2, d_w=6, d_p=2, pos_clip=4,
                                  widths=(2, 3), channels=2),
            fusion=fusion, d_e=4, n_entities=4 if fusion else 0)
        model = RelationModel(cfg, seed=0)
        rng = np.random.default_rng(0)
        tokens = [[int(t) for t in rng.integers(0, 30, size=6)] for _ in range(5)]
        base = bag("base", {0, 2}, [sent(t) for t in tokens[:3]])
        augs = [AugmentedBag(base, k, sent(t)) for k, t in zip((0, 2), tokens[3:])]
        recorded = []
        node = ad._node

        def counting(data, parents, vjp, op):
            recorded.append(op)
            return node(data, parents, vjp, op)

        monkeypatch.setattr(ad, "_node", counting)
        fwd = model.forward_bag(base)
        counts = [len(recorded)]
        loss = bce_loss(fwd.logits, label_vector(base, 3))
        if kind == "directsup":
            loss = ad.add(loss, relevance_loss(fwd.alphas,
                                               [s.relevance_label for s in base.sentences]))
        counts.append(len(recorded))
        recorded.clear()
        _step_loss(model, base, augs, 1e-5, 1.0)
        counts.append(len(recorded))
        assert tuple(counts) == self.NODES[(kind, fusion)]
        if kind == "cnns-att":
            assert counts[1] <= self.ATT_STEP_BUDGET
