"""Output checks: artifact hashes, ranking quality, finiteness, LOO oracle.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from relexpl.corpus import load_corpus
from relexpl.evaluation import score_bags
from relexpl.explain import load_scores
from relexpl.models import load_model

# the deterministic artifacts whose bytes must repeat for one seed
ARTIFACTS = ("checkpoint.json", "pr_curve.csv", "metrics.json", "scores.jsonl",
             "kendall.csv")
LOO_RTOL = 1e-9


def digest_tree(root: str) -> dict[str, str]:
    """sha256 of every deterministic artifact under root, by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name in ARTIFACTS or name.endswith(".jsonl"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def same_digests(first: dict, again: dict, what: str) -> list[str]:
    if first == again:
        return []
    changed = sorted(k for k in set(first) | set(again) if first.get(k) != again.get(k))
    return [f"{what}: bytes differ between repeats of one seed: {changed}"]


def read_csv_rows(path: str) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def ranking_quality(metrics_path: str, tag: str) -> list[str]:
    with open(metrics_path) as fh:
        m = json.load(fh)
    auc, shuffled = m["auc_04"], m["shuffled_auc_04"]
    if not (math.isfinite(auc) and math.isfinite(shuffled)):
        return [f"{tag}: non-finite AUC {auc!r} / shuffled {shuffled!r}"]
    if auc < 2.0 * shuffled:
        return [f"{tag}: auc_04 {auc:.3f} below twice the shuffled baseline {shuffled:.3f}"]
    return []


def finite_outputs(model_dir: str, tag: str) -> list[str]:
    bad = []
    for row in read_csv_rows(os.path.join(model_dir, "eval", "pr_curve.csv")):
        if not all(math.isfinite(float(v)) for v in row.values()):
            bad.append(f"{tag}: non-finite point in pr_curve.csv: {row}")
            break
    for s in load_scores(os.path.join(model_dir, "explain", "scores.jsonl")):
        if not all(math.isfinite(v) for v in s.scores):
            bad.append(f"{tag}: non-finite {s.method} score for {s.bag_id}/{s.relation}")
            break
    for row in read_csv_rows(os.path.join(model_dir, "expl-eval", "kendall.csv")):
        if row["bucket"] == "overall" and not math.isfinite(float(row["tau"])):
            bad.append(f"{tag}: non-finite overall tau for {row['method']}")
    return bad


def finite_probabilities(checkpoint: str, corpus: str, tag: str) -> list[str]:
    model, _ = load_model(checkpoint)
    for pair in score_bags(model, load_corpus(corpus)):
        if not (math.isfinite(pair.prob) and 0.0 <= pair.prob <= 1.0):
            return [f"{tag}: probability {pair.prob!r} for {pair.bag_id}/{pair.relation}"]
    return []


def score_rows(scores_path: str, corpus: str, n_methods: int, tag: str) -> list[str]:
    expected = n_methods * sum(len(b.relations) for b in load_corpus(corpus))
    got = len(load_scores(scores_path))
    if got != expected:
        return [f"{tag}: scores.jsonl has {got} rows, expected {expected}"]
    return []


def loo_oracle(checkpoint: str, corpus: str, scores_path: str, n_rows: int,
               tag: str) -> list[str]:
    """Re-derive the smallest-bag loo rows with fresh forward passes."""
    model, _ = load_model(checkpoint)
    bags = {b.bag_id: b for b in load_corpus(corpus)}
    rows = [s for s in load_scores(scores_path) if s.method == "loo"]
    rows.sort(key=lambda s: (len(bags[s.bag_id].sentences), s.bag_id, s.relation))
    for s in rows[:n_rows]:
        bag, k = bags[s.bag_id], s.relation
        n = len(bag.sentences)
        o_full = float(model.forward_bag(bag).logits.data[k])
        oracle = np.array([
            o_full - float(model.forward_bag(
                bag, include=[i for i in range(n) if i != drop]).logits.data[k])
            for drop in range(n)])
        if not np.allclose(np.array(s.scores), oracle, rtol=LOO_RTOL, atol=0.0):
            return [f"{tag}: loo scores for {s.bag_id}/{k} differ from the "
                    f"two-forward oracle: {list(s.scores)} vs {oracle.tolist()}"]
    if not rows:
        return [f"{tag}: no loo rows to check"]
    return []
