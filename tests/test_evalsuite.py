"""Evaluation checks: hand-computed PR areas, a label-shuffle oracle for
random rankings, brute-force pairwise verification of the rank
correlation, and the confidence-bucket boundaries."""

import math

import numpy as np
import pytest

from relexpl.corpus import Bag, ExplEvalTuple, ReprMode, Sentence
from relexpl.encoder import EncoderConfig
from relexpl.evaluation import (
    H_INTERVAL,
    L_INTERVAL,
    KendallReport,
    ScoredPair,
    confidence_split,
    kendall_report,
    kendall_tau,
    positive_pair_probs,
    pr_auc,
    score_bags,
    shuffled_baseline_auc,
)
from relexpl.models import ModelConfig, RelationModel

from conftest import predict_k


def pairs_from(rows):
    return [ScoredPair(bag_id=b, relation=k, prob=p, label=y) for b, k, p, y in rows]


def brute_force_tau(scores, tuples):
    """Sign-sum restatement of the correlation, written independently."""
    total = 0.0
    for t in tuples:
        s = scores[(t.bag_id, t.relation)]
        total += np.sign(s[t.rationale_idx] - s[t.irrelevant_idx])
    return total / len(tuples)


class TestPRAuc:
    def test_perfect_ranking_scores_forty(self):
        rows = [(f"p{i}", 0, 0.9 - i * 0.01, True) for i in range(10)]
        rows += [(f"n{i}", 0, 0.1 - i * 0.001, False) for i in range(10)]
        curve = pr_auc(pairs_from(rows))
        assert abs(curve.auc_04 - 40.0) < 1e-12

    def test_hand_worked_cutoff_interpolation(self):
        rows = [("a", 0, 0.9, True), ("b", 0, 0.8, False), ("c", 0, 0.7, True)]
        # positives at ranks 1 and 3: precision 1 on recall [0, 0.5],
        # then 1/2 at 0.5, interpolated to 7/12 at recall 0.75
        curve = pr_auc(pairs_from(rows), recall_cutoff=0.75)
        assert abs(curve.auc_04 - 100.0 * 61.0 / 96.0) < 1e-12

    def test_cutoff_inside_first_segment(self):
        rows = [("a", 0, 0.9, True), ("b", 0, 0.8, False), ("c", 0, 0.7, True)]
        curve = pr_auc(pairs_from(rows), recall_cutoff=0.4)
        assert abs(curve.auc_04 - 40.0) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        rows = [(f"b{i}", int(k), float(p), bool(y))
                for i, (k, p, y) in enumerate(zip(
                    rng.integers(0, 3, size=200),
                    rng.random(200),
                    rng.random(200) < 0.3))]
        if not any(r[3] for r in rows):
            rows[0] = (rows[0][0], rows[0][1], rows[0][2], True)
        base = pr_auc(pairs_from(rows)).auc_04
        for transform in (lambda p: 2.0 * p + 1.0, lambda p: p ** 3):
            moved = pr_auc(pairs_from(
                [(b, k, transform(p), y) for b, k, p, y in rows])).auc_04
            assert moved == base

    def test_random_scores_approach_base_rate_area(self):
        rng = np.random.default_rng(1)
        base_rate = 0.3
        rows = [(f"b{i}", 0, float(rng.random()), bool(rng.random() < base_rate))
                for i in range(2000)]
        auc = pr_auc(pairs_from(rows)).auc_04
        want = 100.0 * 0.4 * base_rate
        assert 0.75 * want < auc < 1.25 * want

    def test_shuffle_oracle_matches_base_rate(self):
        rng = np.random.default_rng(2)
        base_rate = 0.25
        rows = [(f"b{i}", 0, float(i), bool(rng.random() < base_rate))
                for i in range(2000)]
        shuffled = shuffled_baseline_auc(pairs_from(rows), seed=5)
        want = 100.0 * 0.4 * base_rate
        assert 0.75 * want < shuffled < 1.25 * want

    def test_shuffle_oracle_deterministic(self):
        rows = [("a", 0, 0.9, True), ("b", 0, 0.8, False),
                ("c", 0, 0.7, True), ("d", 0, 0.6, False)]
        a = shuffled_baseline_auc(pairs_from(rows), seed=9)
        b = shuffled_baseline_auc(pairs_from(rows), seed=9)
        assert a == b

    def test_ties_ranked_by_identity_for_stability(self):
        rows = [("b", 0, 0.5, False), ("a", 0, 0.5, True),
                ("c", 1, 0.5, False), ("c", 0, 0.5, True)]
        curve_a = pr_auc(pairs_from(rows))
        curve_b = pr_auc(pairs_from(list(reversed(rows))))
        assert curve_a.auc_04 == curve_b.auc_04
        np.testing.assert_array_equal(curve_a.recalls, curve_b.recalls)
        np.testing.assert_array_equal(curve_a.precisions, curve_b.precisions)

    def test_recall_nondecreasing_precision_bounded(self):
        rng = np.random.default_rng(3)
        rows = [(f"b{i}", 0, float(rng.random()), bool(rng.random() < 0.4))
                for i in range(300)]
        curve = pr_auc(pairs_from(rows))
        assert np.all(np.diff(curve.recalls) >= 0)
        assert np.all((curve.precisions >= 0) & (curve.precisions <= 1))

    def test_no_positive_labels_rejected(self):
        with pytest.raises(ValueError, match="no positive labels"):
            pr_auc(pairs_from([("a", 0, 0.5, False)]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_rejected(self, bad):
        rows = [("a", 0, 0.9, True), ("b", 1, bad, False), ("c", 0, 0.2, False)]
        with pytest.raises(ValueError, match=r"probability .* for bag 'b', relation 1"):
            pr_auc(pairs_from(rows))


class TestKendallTau:
    def scores_one_bag(self, values):
        return {("b0", 0): list(values)}

    def tuples_one_bag(self, pairs):
        return [ExplEvalTuple("b0", 0, r, i) for r, i in pairs]

    def test_all_concordant(self):
        scores = self.scores_one_bag([3.0, 2.0, 1.0])
        tuples = self.tuples_one_bag([(0, 1), (0, 2), (1, 2)])
        assert kendall_tau(scores, tuples) == 1.0

    def test_all_discordant(self):
        scores = self.scores_one_bag([1.0, 2.0, 3.0])
        tuples = self.tuples_one_bag([(0, 1), (0, 2), (1, 2)])
        assert kendall_tau(scores, tuples) == -1.0

    def test_three_concordant_one_discordant(self):
        scores = self.scores_one_bag([4.0, 3.0, 2.0, 5.0])
        tuples = self.tuples_one_bag([(0, 1), (0, 2), (1, 2), (2, 3)])
        assert kendall_tau(scores, tuples) == 0.5

    def test_ties_dilute_the_denominator(self):
        scores = self.scores_one_bag([2.0, 2.0, 1.0, 3.0])
        # tie, concordant, discordant, tie
        tuples = self.tuples_one_bag([(0, 1), (0, 2), (2, 3), (1, 0)])
        assert kendall_tau(scores, tuples) == 0.0
        assert kendall_tau(scores, self.tuples_one_bag([(0, 2), (0, 1)])) == 0.5

    def test_negating_scores_negates_tau(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            vals = np.round(rng.random(n), 1)  # coarse grid forces ties
            scores = {("b0", 0): vals.tolist()}
            tuples = [
                ExplEvalTuple("b0", 0, int(rng.integers(0, n)), int(rng.integers(0, n)))
                for _ in range(int(rng.integers(1, 12)))
            ]
            neg = {("b0", 0): (-vals).tolist()}
            assert kendall_tau(neg, tuples) == -kendall_tau(scores, tuples)

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n_bags = int(rng.integers(1, 4))
            scores = {}
            keys = []
            for b in range(n_bags):
                k = int(rng.integers(0, 3))
                n = int(rng.integers(2, 7))
                scores[(f"b{b}", k)] = np.round(rng.random(n), 1).tolist()
                keys.append((f"b{b}", k, n))
            tuples = []
            for _ in range(int(rng.integers(1, 15))):
                b, k, n = keys[int(rng.integers(0, len(keys)))]
                tuples.append(ExplEvalTuple(
                    b, k, int(rng.integers(0, n)), int(rng.integers(0, n))))
            assert kendall_tau(scores, tuples) == brute_force_tau(scores, tuples)

    def test_empty_tuple_set_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            kendall_tau({}, [])

    def test_missing_scores_named_in_error(self):
        tuples = [ExplEvalTuple("ghost", 2, 0, 1)]
        with pytest.raises(ValueError, match="ghost"):
            kendall_tau({("b0", 0): [1.0, 2.0]}, tuples)

    def test_out_of_range_index_rejected(self):
        tuples = [ExplEvalTuple("b0", 0, 0, 5)]
        with pytest.raises(ValueError, match="cover"):
            kendall_tau({("b0", 0): [1.0, 2.0]}, tuples)


class TestConfidenceSplit:
    def test_boundaries_are_inclusive(self):
        probs = {
            ("h-low", 0): 0.76, ("h-top", 0): 1.0, ("h-mid", 0): 0.9,
            ("l-top", 0): 0.25, ("l-bot", 0): 0.0, ("l-mid", 0): 0.1,
            ("gap-mid", 0): 0.5, ("gap-lo", 0): 0.2500001, ("gap-hi", 0): 0.7599,
        }
        high, low = confidence_split(probs)
        assert high == {("h-low", 0), ("h-top", 0), ("h-mid", 0)}
        assert low == {("l-top", 0), ("l-bot", 0), ("l-mid", 0)}

    def test_interval_constants(self):
        assert H_INTERVAL == (0.76, 1.0)
        assert L_INTERVAL == (0.0, 0.25)


class TestKendallReport:
    def test_buckets_and_counts(self):
        scores = {("hi", 0): [2.0, 1.0], ("lo", 0): [1.0, 2.0]}
        tuples = [ExplEvalTuple("hi", 0, 0, 1), ExplEvalTuple("lo", 0, 0, 1)]
        probs = {("hi", 0): 0.9, ("lo", 0): 0.1}
        report = kendall_report("gi", scores, tuples, probs)
        assert report == KendallReport(method="gi", tau_overall=0.0,
                                       tau_h=1.0, tau_l=-1.0,
                                       n_total=2, n_h=1, n_l=1)

    def test_empty_bucket_reports_nan(self):
        scores = {("mid", 0): [2.0, 1.0]}
        tuples = [ExplEvalTuple("mid", 0, 0, 1)]
        report = kendall_report("gi", scores, tuples, {("mid", 0): 0.5})
        assert report.tau_overall == 1.0
        assert math.isnan(report.tau_h) and math.isnan(report.tau_l)
        assert (report.n_h, report.n_l) == (0, 0)


class TestModelScoring:
    def make_model_and_bags(self):
        cfg = ModelConfig(
            kind="cnns-att", n_relations=2,
            encoder=EncoderConfig(vocab_size=30, n_fget=2, d_w=4, d_p=2,
                                  pos_clip=4, widths=(2,), channels=2),
            repr_mode=ReprMode.RAW, fusion=False, d_e=4, n_entities=0,
        )
        model = RelationModel(cfg, seed=0)
        rng = np.random.default_rng(6)

        def mk_bag(bid, relations):
            sentences = tuple(
                Sentence(tokens=tuple(int(t) for t in rng.integers(0, 30, size=5)),
                         mention_i=(0, 1), mention_j=(2, 3), fget_i=0, fget_j=1)
                for _ in range(2)
            )
            return Bag(bid, 0, 1, 0, 1, frozenset(relations), sentences)

        return model, [mk_bag("a", {0}), mk_bag("neg", set()), mk_bag("c", {0, 1})]

    def test_score_bags_covers_every_pair(self):
        model, bags = self.make_model_and_bags()
        pairs = score_bags(model, bags)
        assert len(pairs) == len(bags) * 2
        labels = {(p.bag_id, p.relation): p.label for p in pairs}
        assert labels[("a", 0)] and not labels[("a", 1)]
        assert not labels[("neg", 0)] and not labels[("neg", 1)]
        assert labels[("c", 0)] and labels[("c", 1)]
        assert all(0.0 < p.prob < 1.0 for p in pairs)

    def test_positive_pair_probs_matches_forward(self):
        model, bags = self.make_model_and_bags()
        probs = positive_pair_probs(model, bags)
        assert set(probs) == {("a", 0), ("c", 0), ("c", 1)}
        for (bid, k), p in probs.items():
            bag = next(b for b in bags if b.bag_id == bid)
            assert p == predict_k(model, bag, k)[0]
