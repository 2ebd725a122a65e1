"""The benchmark's workloads: generator configs, encoders and stage lists.

Both draw from one generator family (5 relations, vocab 400, hard_rate
0.25) and run the same pipeline: for each of cnns-att, directsup and
cnns-att --ld in turn, train one epoch, eval, explain and expl-eval.
They differ in encoder size and bag shape, so that different
layers dominate. Sizes are set so that every model ranks test pairs at
least twice as well as the label-shuffle baseline after one epoch, and a
run holds three or more pipeline repeats on a 2-vCPU machine.

Each workload generates three corpora with one seed: a training corpus,
an evaluation corpus and a separate corpus for explain and expl-eval.
"""

from __future__ import annotations

from dataclasses import dataclass

GEN_FAMILY = {
    "n_relations": 5,
    "vocab_size": 400,
    "n_fget": 4,
    "n_mention_tokens": 40,
    "irrelevant_rate": 0.2,
    "negative_rate": 0.2,
    "test_negative_rate": 0.0,
    "hard_rate": 0.25,
    "multi_relation_rate": 0.1,
}

DESK_ENCODER = ["--d-w", "16", "--d-p", "2", "--pos-clip", "8",
                "--widths", "2,3", "--channels", "8"]
PAPER_ENCODER = ["--d-w", "300", "--d-p", "5", "--pos-clip", "50",
                 "--widths", "2,3,4,5", "--channels", "64"]

# model tag -> `relexpl train` flags
MODELS = {
    "att": ["--model", "cnns-att"],
    "ds": ["--model", "directsup"],
    "ld": ["--model", "cnns-att", "--ld", "--lam", "1.0", "--gamma", "1e-5"],
}
# share of the training corpus `train` holds out for validation; the
# benchmark passes it, and training.py steps the other n - round(0.1 n) bags
VAL_FRACTION = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    encoder: list[str]
    lr: float                    # one epoch at this Adam step size
    corpora: dict                # "train" / "test" / "explain" -> GenConfig
    loo_spot_checks: int         # loo rows re-derived by the two-forward oracle

    def train_flags(self) -> list[str]:
        return ["--epochs", "1", "--lr", str(self.lr), "--val-fraction", str(VAL_FRACTION)]

    def bags_stepped(self) -> int:
        n = self.corpora["train"]["n_train_bags"]
        return n - round(VAL_FRACTION * n)


def _corpora(n_train: int, n_test: int, n_explain: int,
             train_shape, test_shape, explain_shape) -> dict:
    """GenConfigs keyed by split; each fills only the split it is read from."""
    def gen(split, n, shape):
        sentences, length = shape
        return dict(GEN_FAMILY, n_train_bags=n if split == "train" else 0,
                    n_test_bags=0 if split == "train" else n,
                    sentences_per_bag=list(sentences), sentence_len=list(length))
    return {"train": gen("train", n_train, train_shape),
            "test": gen("test", n_test, test_shape),
            "explain": gen("explain", n_explain, explain_shape)}


_DESK_BAGS = ((2, 4), (6, 10))     # sentences per bag, tokens per sentence
_PAPER_BAGS = ((2, 5), (8, 30))
# Leave-one-out re-encodes the bag once per sentence, so its cost is
# quadratic in bag size. Every explained paper bag has 16 sentences (the
# low end of 16-48, to keep a repeat short) of 19 tokens (the middle of
# 8-30), so that with only two bags this cost does not swing with the seed.
_WIDE_BAGS = ((16, 16), (19, 19))

WORKLOADS = {
    # tiny tensors: per-node Python overhead in autodiff dominates a step
    "desk": Workload("desk", DESK_ENCODER, lr=0.02,
                     corpora=_corpora(400, 240, 80, _DESK_BAGS, _DESK_BAGS, _DESK_BAGS),
                     loo_spot_checks=3),
    # paper encoder: matmul, convolution, Adam, checkpoint IO and, in
    # explain, the quadratic leave-one-out over wide bags
    "paper": Workload("paper", PAPER_ENCODER, lr=0.01,
                      corpora=_corpora(60, 48, 2, _PAPER_BAGS, _PAPER_BAGS, _WIDE_BAGS),
                      loo_spot_checks=1),
}

# the engine ops whose forward and VJP time the traced run reports: the
# ones that took the most time on the workloads
TRACED_OPS = ("matmul", "gather_rows", "add", "rows_max", "concat_cols", "transpose",
              "im2col", "concat1d", "add_rowvec", "conv1d", "pad_rows", "sum_axis")

# spans every traced repeat must contain; a missing wrapper would otherwise
# read as a layer that got infinitely fast
REQUIRED_SPANS = (
    "cli.train", "cli.eval", "cli.explain", "cli.expl-eval",
    "training.train_model", "optim.adam_step", "optim.save_checkpoint",
    "optim.load_checkpoint", "models.load_model", "models.forward", "models.bce_loss",
    "models.relevance_loss", "encoder.encode", "corpus.load",
    "distractor.build_index", "distractor.sample_distractor",
    "distractor.augmented_bag_loss", "distractor.combined_loss",
    "autodiff.backward", "autodiff.grad", "autodiff.op.matmul",
    "kernels.im2col", "kernels.col2im", "kernels.rows_max", "kernels.scatter_add_rows",
    "explain.explain_corpus", "explain.explain_bag", "explain.attention_explanation",
    "explain.saliency", "explain.grad_input", "explain.leave_one_out",
    "explain.gi_vector", "explain.encoding_gradient", "explain.write_scores",
    "evaluation.score_bags", "evaluation.pr_auc", "evaluation.kendall_report",
    "evaluation.positive_pair_probs",
)
