"""Command-line entry point: the experiment pipeline as subcommands.

  gen-data   synthesize a train/test corpus pair from a JSON config
  train      fit a model on a corpus and save a checkpoint
  eval       rank (bag, relation) pairs and report ranking quality
  explain    score sentence importance for every positive pair
  expl-eval  correlate importance scores with annotated orderings
  augment    write distractor-augmented bags for inspection
  avg        average metrics.json files across seeded runs

Every command writes a manifest.json recording the resolved options, the
seed, a hash of the canonical option JSON, and the package version; CSV
outputs repeat seed and hash in a leading comment line so artifacts are
self-identifying. Exit codes: 0 success, 2 missing input, 3 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__, jsonio
from .corpus import (
    ReprMode,
    build_expl_eval,
    corpus_stats,
    load_corpus,
    read_corpus_meta,
    write_corpus,
)
from .distractor import AugmentedBag, DistractorError, build_index, sample_distractor
from .encoder import EncoderConfig
from .evaluation import (
    kendall_report,
    positive_pair_probs,
    pr_auc,
    score_bags,
    shuffled_baseline_auc,
)
from .explain import METHODS, explain_corpus, load_scores, write_scores
from .models import ModelConfig, build_model, load_model
from .optim import data_path
from .synthetic import GenConfig, generate_synthetic_corpus
from .training import TrainConfig, train_model

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_INVALID = 3


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _run_options(args: argparse.Namespace) -> dict:
    # the output location is where the run lands, not what the run is:
    # leaving it out keeps artifacts byte-identical across destinations
    return {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "command", "out")}


def _stamp(args: argparse.Namespace) -> dict:
    """The seed and the hash of the run's options, which every artifact repeats."""
    config = _run_options(args)
    return {"seed": config.get("seed"), "config_hash": _config_hash(config)}


def _write_manifest(args: argparse.Namespace, stamp: dict, outputs: list[str],
                    metrics: dict | None = None):
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": _run_options(args),
        "outputs": outputs,
        **stamp,
    }
    if metrics is not None:
        manifest["metrics"] = metrics
    jsonio.write_json(os.path.join(args.out, "manifest.json"), manifest)


def _csv_comment(stamp: dict) -> str:
    return f"# seed={stamp['seed']} config_hash={stamp['config_hash']}"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args, stamp: dict) -> int:
    gen_cfg = GenConfig.from_dict(jsonio.read_object(args.config))

    train, test = generate_synthetic_corpus(gen_cfg, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    base_meta = {
        **stamp,
        "gen_config": gen_cfg.to_dict(),
        "vocab_size": gen_cfg.vocab_size,
        "n_fget": gen_cfg.n_fget,
        "n_relations": gen_cfg.n_relations,
        "n_entities": corpus_stats(train + test)["n_entities"],
    }
    write_corpus(os.path.join(args.out, "train.jsonl"), train,
                 meta={**base_meta, "split": "train"})
    write_corpus(os.path.join(args.out, "test.jsonl"), test,
                 meta={**base_meta, "split": "test"})
    _write_manifest(args, stamp, ["train.jsonl", "test.jsonl"],
                    metrics={"n_train_bags": len(train), "n_test_bags": len(test)})
    return EXIT_OK


def _corpus_dims(bags, meta: dict) -> dict:
    """Each size the larger of the header's and the one the bags need."""
    found = corpus_stats(bags)
    keys = ("vocab_size", "n_fget", "n_relations", "n_entities")
    jsonio.check_fields(meta, "corpus header", {}, dict.fromkeys(keys, jsonio.INT))
    return {key: max(meta.get(key, 0), found[key]) for key in keys}


def cmd_train(args, stamp: dict) -> int:
    bags = load_corpus(args.corpus)
    dims = _corpus_dims(bags, read_corpus_meta(args.corpus))
    if dims["n_relations"] < 1:
        raise ValueError("corpus carries no relation labels to train on")

    model_cfg = ModelConfig(
        kind=args.model,
        n_relations=dims["n_relations"],
        encoder=EncoderConfig(
            vocab_size=dims["vocab_size"],
            n_fget=dims["n_fget"],
            d_w=args.d_w,
            d_p=args.d_p,
            pos_clip=args.pos_clip,
            widths=tuple(int(w) for w in args.widths.split(",")),
            channels=args.channels,
        ),
        repr_mode=ReprMode(args.repr),
        fusion=args.fusion,
        d_e=args.d_e,
        n_entities=dims["n_entities"] if args.fusion else 0,
    )
    train_cfg = TrainConfig(
        epochs=args.epochs, lr=args.lr, seed=args.seed,
        val_fraction=args.val_fraction, ld=args.ld, lam=args.lam,
        gamma=args.gamma, neg_keep=args.neg_keep,
    )
    model = build_model(model_cfg, seed=args.seed)
    result = train_model(model, bags, train_cfg)

    os.makedirs(args.out, exist_ok=True)
    checkpoint = os.path.join(args.out, "checkpoint.json")
    model.save(checkpoint, extra={"seed": args.seed, "train_config": asdict(train_cfg)})
    metrics = {
        "best_epoch": result.best_epoch,
        "best_val_auc": result.best_val_auc,
        "history": result.history,
    }
    outputs = [os.path.basename(p) for p in (checkpoint, data_path(checkpoint))]
    _write_manifest(args, stamp, outputs, metrics=metrics)
    return EXIT_OK


def cmd_eval(args, stamp: dict) -> int:
    model, _ = load_model(args.checkpoint)
    bags = load_corpus(args.corpus)
    pairs = score_bags(model, bags)
    curve = pr_auc(pairs)
    shuffled = shuffled_baseline_auc(pairs, seed=args.seed)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "pr_curve.csv"), "w", newline="") as fh:
        fh.write(_csv_comment(stamp) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["recall", "precision"])
        for r, p in zip(curve.recalls, curve.precisions):
            writer.writerow([repr(float(r)), repr(float(p))])

    metrics = {
        "auc_04": curve.auc_04,
        "shuffled_auc_04": shuffled,
        "n_pairs": len(pairs),
        "n_positive": sum(1 for p in pairs if p.label),
        **stamp,
    }
    jsonio.write_json(os.path.join(args.out, "metrics.json"), metrics)
    _write_manifest(args, stamp, ["pr_curve.csv", "metrics.json"],
                    metrics={"auc_04": curve.auc_04, "shuffled_auc_04": shuffled})
    return EXIT_OK


def cmd_explain(args, stamp: dict) -> int:
    model, _ = load_model(args.checkpoint)
    bags = load_corpus(args.corpus)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")

    scores = explain_corpus(model, bags, methods)
    os.makedirs(args.out, exist_ok=True)
    write_scores(os.path.join(args.out, "scores.jsonl"), scores,
                 meta={**stamp, "methods": list(methods)})
    _write_manifest(args, stamp, ["scores.jsonl"],
                    metrics={"n_scores": len(scores)})
    return EXIT_OK


def cmd_expl_eval(args, stamp: dict) -> int:
    model, _ = load_model(args.checkpoint)
    bags = load_corpus(args.corpus)
    tuples = build_expl_eval(bags)
    if not tuples:
        raise ValueError("corpus carries no annotated ordering constraints")

    by_method: dict[str, dict[tuple[str, int], list[float]]] = {}
    for s in load_scores(args.scores):
        by_method.setdefault(s.method, {})[(s.bag_id, s.relation)] = list(s.scores)
    if not by_method:
        raise ValueError(f"no importance scores found in {args.scores}")

    probs = positive_pair_probs(model, bags)
    reports = [kendall_report(m, by_method[m], tuples, probs)
               for m in sorted(by_method)]

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "kendall.csv"), "w", newline="") as fh:
        fh.write(_csv_comment(stamp) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["method", "bucket", "tau", "n_tuples"])
        for rep in reports:
            rows = [("overall", rep.tau_overall, rep.n_total),
                    ("high", rep.tau_h, rep.n_h),
                    ("low", rep.tau_l, rep.n_l)]
            for bucket, tau, n in rows:
                writer.writerow([rep.method, bucket,
                                 "nan" if math.isnan(tau) else repr(float(tau)), n])
    _write_manifest(args, stamp, ["kendall.csv"],
                    metrics={"n_tuples": len(tuples),
                             "methods": sorted(by_method)})
    return EXIT_OK


def cmd_augment(args, stamp: dict) -> int:
    bags = load_corpus(args.corpus)
    index = build_index(bags)
    rng = np.random.default_rng(args.seed)
    augmented = []
    for bag in bags:
        for k in sorted(bag.relations):
            aug = AugmentedBag(bag, k, sample_distractor(bag, k, index, rng))
            augmented.append(replace(aug.to_bag(), bag_id=f"{bag.bag_id}#k{k}"))

    os.makedirs(args.out, exist_ok=True)
    write_corpus(os.path.join(args.out, "augmented.jsonl"), augmented,
                 meta={**stamp, "source": args.corpus})
    _write_manifest(args, stamp, ["augmented.jsonl"],
                    metrics={"n_augmented": len(augmented)})
    return EXIT_OK


def cmd_avg(args, stamp: dict) -> int:
    paths = [p if p.endswith(".json") else os.path.join(p, "metrics.json")
             for p in args.runs]
    runs = [jsonio.read_object(p) for p in paths]
    shared = set(runs[0])
    for m in runs[1:]:
        shared &= set(m)
    mean = {}
    for key in sorted(shared - set(stamp)):  # the stamp names a run; it is no metric
        values = [m[key] for m in runs]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values):
            mean[key] = float(np.mean(values))

    os.makedirs(args.out, exist_ok=True)
    jsonio.write_json(os.path.join(args.out, "metrics.json"),
                      {"n_runs": len(runs), "mean": mean, "sources": paths})
    _write_manifest(args, stamp, ["metrics.json"],
                    metrics={"n_runs": len(runs)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relexpl",
        description="Bag-level relation extraction with sentence-importance "
                    "explanations.",
    )
    parser.add_argument("--version", action="version",
                        version=f"relexpl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a train/test corpus pair")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="fit a model and save a checkpoint")
    p.add_argument("--corpus", required=True, help="training corpus JSONL")
    p.add_argument("--out", required=True)
    p.add_argument("--model", choices=["cnns-att", "directsup"],
                   default="cnns-att")
    p.add_argument("--repr", choices=[m.value for m in ReprMode], default="raw")
    p.add_argument("--fusion", action="store_true",
                   help="fuse entity embeddings into the bag representation")
    p.add_argument("--ld", action="store_true",
                   help="add the distractor attribution penalty")
    p.add_argument("--lam", type=float, default=1.0,
                   help="distractor penalty weight")
    p.add_argument("--gamma", type=float, default=1e-5,
                   help="distractor margin")
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--neg-keep", type=float, default=1.0,
                   help="fraction of negative bags visited per epoch")
    p.add_argument("--d-w", type=int, default=300, help="token embedding width")
    p.add_argument("--d-p", type=int, default=5, help="position embedding width")
    p.add_argument("--pos-clip", type=int, default=50)
    p.add_argument("--widths", default="2,3,4,5",
                   help="comma-separated convolution widths")
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--d-e", type=int, default=64, help="entity embedding width")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank pairs and report ranking quality")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the label-shuffle baseline")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain",
                       help="score sentence importance for positive pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("expl-eval",
                       help="correlate importance scores with annotations")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--scores", required=True, help="scores JSONL from explain")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_expl_eval)

    p = sub.add_parser("augment",
                       help="write distractor-augmented bags for inspection")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("avg", help="average metrics.json across runs")
    p.add_argument("--runs", nargs="+", required=True,
                   help="run directories or metrics.json paths")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_avg)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _stamp(args))
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"relexpl: missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (DistractorError, ValueError, KeyError) as exc:
        print(f"relexpl: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
