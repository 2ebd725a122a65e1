"""Acceptance gate: seven go/no-go checks, one verdict line each.

Every test ends by printing `ACCEPTANCE <n> (<name>): PASS|FAIL — evidence`
and asserting, so `pytest tests/test_acceptance.py -v -s` reads as a
checklist. The synthetic end-to-end check is the slow one; it carries a
ten-minute wall-clock budget and typically finishes in under two.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from relexpl import autodiff as ad
from relexpl.autodiff import Tensor
from relexpl.cli import main as cli_main
from relexpl.corpus import (
    Bag,
    ExplEvalTuple,
    ReprMode,
    Sentence,
    build_expl_eval,
    load_corpus,
)
from relexpl.distractor import (
    AugmentedBag,
    _substitute_mentions,
    augmented_bag_loss,
    distractor_loss,
)
from relexpl.encoder import EncoderConfig
from relexpl.evaluation import confidence_split, kendall_tau
from relexpl.explain import grad_input, leave_one_out, saliency
from relexpl.models import ModelConfig, RelationModel, bce_loss, label_vector, relevance_loss

from conftest import check_grads, check_param_grads
import oracle_engine as oe

N_TRIALS = 20
FD_TOL = 1e-4


def _verdict(num, name, failures, detail):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {status} — {detail}"
    if failures:
        line += " | " + "; ".join(failures)
    print(line, flush=True)
    assert not failures, line


# ---------------------------------------------------------------------------
# shared constructors
# ---------------------------------------------------------------------------

def model_cfg(kind="cnns-att", K=3, fusion=False, n_entities=0,
              widths=(2,), channels=2):
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


def make_sentence(tokens, rationale_for=None, distractor=False):
    return Sentence(tokens=tuple(tokens), mention_i=(0, 1), mention_j=(2, 3),
                    fget_i=0, fget_j=1, relevance_label=True,
                    rationale_for=rationale_for, distractor=distractor)


def make_bag(n_sent=3, relations=frozenset({0}), seed=0, bag_id="b0",
             entities=(0, 1)):
    rng = np.random.default_rng(seed)
    sentences = tuple(
        make_sentence([int(t) for t in rng.integers(0, 30, size=6)])
        for _ in range(n_sent)
    )
    return Bag(bag_id=bag_id, entity_i=entities[0], entity_j=entities[1],
               fget_i=0, fget_j=1, relations=frozenset(relations),
               sentences=sentences)


# ---------------------------------------------------------------------------
# 1. gradient integrity: every differentiable kernel + end-to-end d o_k / d x_n
# ---------------------------------------------------------------------------

def _away_from(a, points, margin=0.05, push=0.15):
    """Nudge entries that sit within `margin` of any kink point."""
    a = np.asarray(a, dtype=np.float64).copy()
    for p in points:
        mask = np.abs(a - p) < margin
        a[mask] += push
    return a


def _op_cases(rng):
    """One (name, build, arrays) triple per differentiable graph op.

    Every matrix/vector output is contracted against a fixed random weight
    before summing, so a wrong gradient cannot hide behind an all-ones
    downstream gradient.
    """
    n, m, c = 3, 4, 2
    A = rng.standard_normal((n, m))
    B = rng.standard_normal((n, m))
    Mm = rng.standard_normal((m, c))
    u = rng.standard_normal(n)
    v = rng.standard_normal(m)
    w = rng.standard_normal(m)
    s0 = np.float64(rng.standard_normal())
    pos = rng.uniform(0.5, 2.0, (n, m))
    off = _away_from(rng.uniform(0.2, 1.4, (n, m)) * rng.choice([-1.0, 1.0], (n, m)), [0.0])
    clampable = _away_from(rng.uniform(-1, 1, (n, m)), [-0.5, 0.5])
    vmax = rng.standard_normal(m)
    vmax[rng.integers(m)] += 1.0
    rmax = rng.standard_normal((n, m))
    rmax[np.arange(n), rng.integers(0, m, n)] += 1.0
    col_idx = rng.integers(0, n, size=m)
    row_ids = rng.integers(0, 5, size=n)          # repeats allowed: take's VJP adds

    def wsum(shape):
        # drawn once per case, then bound as a lambda default: the builder
        # must stay a fixed function across the FD probe evaluations
        W = rng.standard_normal(shape)
        return lambda t: oe.reduce_sum(oe.mul(t, W))

    def retired(shape):
        # a case that left the list still draws its weights, so that the
        # cases after it keep theirs
        rng.standard_normal(shape)
        return []

    WA = wsum((n, m))
    return [
        ("add", lambda a, b: WA(ad.add(a, b)), [A, B]),
        ("sub", lambda a, b: WA(oe.sub(a, b)), [A, B]),
        ("mul", lambda a, b: WA(oe.mul(a, b)), [A, B]),
        ("scale", lambda a: WA(oe.mul(a, 1.7)), [A]),
        ("neg", lambda a: WA(oe.mul(a, -1.0)), [A]),
        ("cadd", lambda a: WA(ad.add(a, 0.3)), [A]),
        ("cmul", lambda a: WA(oe.mul(a, B)), [A]),
        ("relu", lambda a: WA(oe.relu(a)), [off]),
        ("absolute", lambda a: WA(oe.absolute(a)), [off]),
        ("clamp", lambda a: WA(oe.clamp(a, -0.5, 0.5)), [clampable]),
        ("sigmoid", lambda a: WA(ad.sigmoid(a)), [A]),
        ("log", lambda a: WA(oe.log(a)), [pos]),
        ("transpose", lambda a, _w=wsum((m, n)): _w(oe.transpose(a)), [A]),
        ("matmul", lambda a, b, _w=wsum((n, c)): _w(ad.matmul(a, b)), [A, Mm]),
        ("matvec", lambda a, x, _w=wsum((n,)): _w(ad.matmul(a, x)), [A, v]),
        ("outer", lambda a, b, _w=wsum((n, m)): _w(oe.mul(oe.reshape(a, (n, 1)), b)), [u, v]),
        ("dot", lambda a, b: oe.reduce_sum(oe.mul(a, b)), [v, w]),
        ("add_row_broadcast", lambda a, x: WA(ad.add(a, x)), [A, v]),
        ("sub_row_broadcast", lambda a, x: WA(oe.sub(a, x)), [A, v]),
        ("mul_row_broadcast", lambda a, x: WA(oe.mul(a, x)), [A, v]),
        ("mul_col_broadcast", lambda a, x: WA(oe.mul(a, oe.reshape(x, (n, 1)))), [A, u]),
        ("add_scalar_broadcast", lambda a, t: WA(ad.add(a, t)), [A, s0]),
        ("sub_scalar_broadcast", lambda a, t: WA(oe.sub(a, t)), [A, s0]),
        ("broadcast_to_scalar", lambda t: WA(oe.broadcast_to(t, (n, m))), [s0]),
        ("broadcast_to_row", lambda x: WA(oe.broadcast_to(x, (n, m))), [v]),
        ("sum_all", lambda a: oe.reduce_sum(a), [A]),
        ("sum_axis0", lambda a, _w=wsum((m,)): _w(oe.reduce_sum(a, 0)), [A]),
        ("sum_axis1", lambda a, _w=wsum((n,)): _w(oe.reduce_sum(a, 1)), [A]),
        ("l1norm", lambda a: oe.reduce_sum(oe.absolute(a)), [off]),
        ("vec_max", lambda x: ad.take(x, int(np.argmax(x.data))), [vmax]),
        ("rows_max", lambda a, _w=wsum((m,)): _w(oe.rows_max(a)), [rmax]),
        *retired((n, m)),
        ("take_colwise",
         lambda a, _w=wsum((m,)): _w(ad.take(a, (col_idx, np.arange(m)))), [A]),
        ("softmax_cols", lambda a: WA(oe.softmax(a)), [A]),
        ("softmax_vec", lambda x, _w=wsum((m,)): _w(oe.softmax(x)), [v]),
        ("take_slice", lambda x, _w=wsum((2,)): _w(ad.take(x, slice(1, 3))), [v]),
        *retired((m + 3,)),
        ("concat_axis0", lambda a, b, _w=wsum((n + m,)): _w(oe.concat([a, b])), [u, v]),
        ("concat_axis1",
         lambda a, b, _w=wsum((n, 2 * m)): _w(oe.concat([a, b], axis=1)), [A, B]),
        ("take_cols",
         lambda a, _w=wsum((n, 2)): _w(ad.take(a, (slice(None), slice(1, 3)))), [A]),
        *retired((n, m + 3)),
        ("stack_rows",
         lambda a, b, _w=wsum((2, m)): _w(oe.concat([oe.reshape(a, (1, m)),
                                                     oe.reshape(b, (1, m))])),
         [v, w]),
        ("take_int_row", lambda a, _w=wsum((m,)): _w(ad.take(a, 1)), [A]),
        *retired((n, m)),
        ("take_int", lambda x: ad.take(x, 2), [v]),
        *retired((m,)),
        ("take_int_array",
         lambda a, _w=wsum((n, m)): _w(ad.take(a, row_ids)),
         [rng.standard_normal((5, m))]),
        *retired((5, m)),
        *retired((n + 3, m)),
        ("take_rows", lambda a, _w=wsum((2, m)): _w(ad.take(a, slice(1, 3))), [A]),
        *retired((m,)),
        *retired((n, 1)),
        ("reshape", lambda a, _w=wsum((m, n)): _w(oe.reshape(a, (m, n))), [A]),
    ]


def _end_to_end_grad_check(seed):
    """FD-check d o_k / d x_n through bag pooling, fusion, and the head."""
    rng = np.random.default_rng(seed)
    kind = ("cnns-att", "directsup")[seed % 2]
    fusion = bool((seed // 2) % 2)
    cfg = model_cfg(kind=kind, fusion=fusion, n_entities=4 if fusion else 0)
    model = RelationModel(cfg, seed=seed)
    bag = make_bag(n_sent=3, relations=frozenset({0, 2}), seed=seed,
                   entities=(seed % 4, (seed + 1) % 4))
    k = int(rng.integers(cfg.n_relations))

    X0 = model.encode_bag(bag.sentences).data.copy()
    Xt = Tensor(X0.copy(), requires_grad=True)
    _, _, logits = model._bag_logits(Xt, bag.entity_i, bag.entity_j)
    engine = ad.grad(ad.take(logits, k), [Xt])[0].data

    def logit_of(Xarr):
        _, _, lg = model._bag_logits(Tensor(Xarr), bag.entity_i, bag.entity_j)
        return float(lg.data[k])

    h = 1e-5
    fd = np.zeros_like(X0)
    it = np.nditer(X0, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = X0[ix]
        X0[ix] = orig + h
        fp = logit_of(X0)
        X0[ix] = orig - h
        fm = logit_of(X0)
        X0[ix] = orig
        fd[ix] = (fp - fm) / (2.0 * h)
        it.iternext()
    err = np.linalg.norm(engine - fd) / max(np.linalg.norm(fd), 1e-12)
    assert err < FD_TOL, f"end-to-end gradient mismatch at seed {seed}: {err:.3e}"


def _coarse_node_grad_check(seed):
    """FD-check the loss's gradient w.r.t. every parameter the bag head and
    loss nodes read, over a fixed random stack of 1-4 encodings (the tiny
    encoder's rows are near alike, which leaves the attention gradients
    too small for a finite difference to resolve)."""
    kind = ("cnns-att", "directsup")[seed % 2]
    fusion = bool((seed // 2) % 2)
    cfg = model_cfg(kind=kind, fusion=fusion, n_entities=4 if fusion else 0)
    model = RelationModel(cfg, seed=seed)
    bag = make_bag(n_sent=1 + seed % 4, relations=frozenset({0, 2}), seed=seed,
                   entities=(seed % 4, (seed + 1) % 4))
    X = Tensor(np.random.default_rng(seed).normal(size=(len(bag.sentences), cfg.encoder.out_dim)))
    y = label_vector(bag, cfg.n_relations)
    relevant = [i % 2 == 0 for i in range(len(bag.sentences))]

    def loss():
        alphas, _, logits = model._bag_logits(X, bag.entity_i, bag.entity_j)
        out = bce_loss(logits, y)
        return ad.add(out, relevance_loss(alphas, relevant)) if kind == "directsup" else out

    read = {name: p for name, p in model.trainable_params().items()
            if not name.startswith(("enc.", "embed."))}
    try:
        check_param_grads(loss, read, tol=FD_TOL)
    except AssertionError as exc:
        raise AssertionError(f"head and loss nodes at seed {seed} ({kind}, fusion "
                             f"{fusion}): {exc}") from None


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    failures = []
    n_ops = 0
    for seed in range(N_TRIALS):
        rng = np.random.default_rng(seed)
        cases = _op_cases(rng)
        n_ops = len(cases)
        for name, build, arrays in cases:
            try:
                check_grads(build, arrays, tol=FD_TOL)
            except AssertionError as exc:
                failures.append(f"{name}@seed{seed}: {exc}")
    for seed in range(N_TRIALS):
        for check in (_end_to_end_grad_check, _coarse_node_grad_check):
            try:
                check(seed)
            except AssertionError as exc:
                failures.append(str(exc))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 60s budget")
    _verdict(1, "gradient integrity", failures,
             f"{n_ops} kernels x {N_TRIALS} seeded trials + {N_TRIALS} "
             f"end-to-end bag-gradient trials + {N_TRIALS} head-and-loss "
             f"parameter-gradient trials, rel err < {FD_TOL:g}, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. definitional oracles: loo two-pass equality; linear-head closed forms
# ---------------------------------------------------------------------------

def _loo_oracle(model, bag, k):
    """Independent two-forward-pass oracle: score the full bag, then rebuild
    a reduced Bag without sentence n and score it again."""
    full = float(model.forward_bag(bag).logits.data[k])
    drops = []
    for n in range(len(bag.sentences)):
        reduced = Bag(
            bag_id=bag.bag_id, entity_i=bag.entity_i, entity_j=bag.entity_j,
            fget_i=bag.fget_i, fget_j=bag.fget_j, relations=bag.relations,
            sentences=tuple(s for i, s in enumerate(bag.sentences) if i != n),
        )
        drops.append(full - float(model.forward_bag(reduced).logits.data[k]))
    return np.array(drops)


def test_criterion_2_definitional_oracles():
    failures = []

    for kind in ("cnns-att", "directsup"):
        for seed in range(5):
            model = RelationModel(model_cfg(kind=kind), seed=seed)
            bag = make_bag(n_sent=4, relations=frozenset({0, 2}), seed=seed)
            for k in (0, 2):
                got = leave_one_out(model, bag, k)
                want = _loo_oracle(model, bag, k)
                if not np.array_equal(got, want):
                    failures.append(
                        f"loo differs from the two-pass oracle ({kind}, seed "
                        f"{seed}, k={k}): max diff {np.abs(got - want).max():.3e}")

    # single-sentence attention bag, fusion off: o_k = w_k . x + b_k exactly
    model = RelationModel(model_cfg(widths=(2,), channels=3), seed=0)
    model.params["head.rel"].data[0] = [1.0, -2.0, 3.0]
    model.params["head.rel"].data[1] = [0.5, 0.0, -1.0]
    bag = make_bag(n_sent=1)
    x = model.encode_bag(bag.sentences[:1]).data[0]
    for k, w in ((0, np.array([1.0, -2.0, 3.0])), (1, np.array([0.5, 0.0, -1.0]))):
        gi = grad_input(model, bag, k)[0]
        sal = saliency(model, bag, k)[0]
        if abs(gi - float(w @ x)) > 1e-12:
            failures.append(f"GI != w.x at k={k}: |{gi} - {w @ x}| > 1e-12")
        if abs(sal - float(np.abs(w).sum())) > 1e-12:
            failures.append(f"saliency != |w|_1 at k={k}: {sal}")

    _verdict(2, "definitional oracles", failures,
             "loo == two-pass oracle exactly (2 models x 5 seeds x 2 relations); "
             "linear-head GI = w.x and S = |w|_1 to 1e-12")


# ---------------------------------------------------------------------------
# 3. margin-loss hand cases + finite differences of the --ld loss
# ---------------------------------------------------------------------------

def _hand_loss(originals, distractor, gamma):
    return float(distractor_loss(Tensor(np.append(originals, distractor)), gamma).data)


def test_criterion_3_margin_loss():
    failures = []
    gamma = 1e-5
    cases = [
        ("separated", [1.0, 0.3], 0.0, 0.0),
        ("violating", [0.2], 0.5, 0.80001),
        ("at-margin", [0.7, 0.1], 0.7, gamma + 0.7),
    ]
    for name, originals, gi_d, want in cases:
        got = _hand_loss(originals, gi_d, gamma)
        if abs(got - want) > 1e-9:
            failures.append(f"{name}: loss {got!r} != {want!r}")

    # parameter gradients of the augmented loss are second derivatives of
    # the logits, taken by a first-order backward through the closed-form
    # gradient×input; finite differences of the loss must agree
    for kind, seed, fusion in (("cnns-att", 0, False), ("directsup", 4, False),
                               ("cnns-att", 0, True), ("directsup", 4, True)):
        model = RelationModel(model_cfg(kind=kind, K=2, fusion=fusion,
                                        n_entities=2 if fusion else 0), seed=seed)
        rng = np.random.default_rng(21)
        sents = [make_sentence([int(t) for t in rng.integers(0, 30, size=5)])
                 for _ in range(3)]
        base = Bag(bag_id="base", entity_i=0, entity_j=1, fget_i=0, fget_j=1,
                   relations=frozenset({1}), sentences=tuple(sents[:2]))
        aug = AugmentedBag(base=base, relation=1,
                           distractor=_substitute_mentions(sents[2], base))
        names = ("head.rel", "head.bias", "enc.w2.filters", "enc.w2.bias")
        probe = {n: model.params[n] for n in names + (("fuse.proj",) if fusion else ())}
        try:
            # a wide margin keeps the hinge strictly active under FD probes
            check_param_grads(lambda: augmented_bag_loss(
                model, aug, 0.5, model.encode_bag(base.sentences + (aug.distractor,))),
                probe, tol=1e-3)
        except AssertionError as exc:
            failures.append(f"--ld loss FD ({kind}, fusion={fusion}): {exc}")

    _verdict(3, "margin-loss fidelity", failures,
             "3 hand-evaluated loss cases to 1e-9; --ld loss parameter gradients "
             "(closed-form GI, first-order backward) FD-checked at rel err < 1e-3 "
             "for both model kinds, fusion off and on")


# ---------------------------------------------------------------------------
# 4. rank-correlation oracle
# ---------------------------------------------------------------------------

def _brute_force_tau(scores, tuples):
    conc = disc = 0
    for t in tuples:
        s = scores[(t.bag_id, t.relation)]
        a, b = s[t.rationale_idx], s[t.irrelevant_idx]
        if a > b:
            conc += 1
        elif a < b:
            disc += 1
    return (conc - disc) / len(tuples)


def test_criterion_4_kendall_oracle():
    failures = []
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 1000:
        n_sent = int(rng.integers(2, 7))
        # coarse grid forces ties; ties must dilute, not count
        scores = {("b", 0): (rng.integers(0, 4, size=n_sent) / 2.0).tolist()}
        pairs = set()
        for _ in range(int(rng.integers(1, 9))):
            r, i = rng.integers(n_sent, size=2)
            if r != i:
                pairs.add((int(r), int(i)))
        if not pairs:
            continue
        tuples = [ExplEvalTuple("b", 0, r, i) for r, i in sorted(pairs)]
        got = kendall_tau(scores, tuples)
        want = _brute_force_tau(scores, tuples)
        if got != want:
            failures.append(f"set {checked}: engine {got!r} != brute {want!r}")
        checked += 1

    # boundary cases: all constraints satisfied / all violated
    up = {("u", 1): [0.1, 0.9, 0.5]}
    t_up = [ExplEvalTuple("u", 1, 1, 0), ExplEvalTuple("u", 1, 1, 2),
            ExplEvalTuple("u", 1, 2, 0)]
    if kendall_tau(up, t_up) != 1.0:
        failures.append("all-concordant set did not give exactly +1")
    down = {("d", 0): [0.9, 0.1]}
    if kendall_tau(down, [ExplEvalTuple("d", 0, 1, 0)]) != -1.0:
        failures.append("all-discordant set did not give exactly -1")

    _verdict(4, "rank-correlation oracle", failures,
             f"{checked} random tie-heavy tuple sets match brute-force "
             "counting exactly; +1/-1 boundary sets exact")


# ---------------------------------------------------------------------------
# 5. synthetic end-to-end at desk scale
# ---------------------------------------------------------------------------

DESK_GEN = {
    "n_relations": 5,
    "vocab_size": 400,
    "n_fget": 4,
    "n_mention_tokens": 40,
    "n_train_bags": 4000,          # 2,000 positive + 2,000 negative
    "n_test_bags": 400,            # all positive, all annotated
    "sentences_per_bag": [2, 4],
    "sentence_len": [6, 10],
    "irrelevant_rate": 0.4,
    "negative_rate": 0.5,
    "test_negative_rate": 0.0,
    "hard_rate": 0.25,
    "multi_relation_rate": 0.1,
}
DESK_SEED = "7"
ENCODER_FLAGS = ["--d-w", "16", "--d-p", "2", "--pos-clip", "8",
                 "--widths", "2,3", "--channels", "8"]
TRAIN_FLAGS = ["--epochs", "3", "--lr", "0.01", "--neg-keep", "0.5",
               "--seed", DESK_SEED]


def _cli(*args):
    argv = [str(a) for a in args]
    rc = cli_main(argv)
    assert rc == 0, f"pipeline command failed ({rc}): {' '.join(argv[:4])}"


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_kendall(path):
    out = {}
    with open(path) as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    for rec in csv.DictReader(rows):
        out[(rec["method"], rec["bucket"])] = float(rec["tau"])
    return out


def _gi_scores(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "bag_id" in rec and rec.get("method") == "gi":
                out[(rec["bag_id"], rec["relation"])] = rec["scores"]
    return out


def _bag_level_separation(test_bags, gi):
    """Fraction of positive test bags where, for every labeled relation,
    the mean GI of non-rationale sentences sits below the mean GI of
    rationales."""
    wins = total = 0
    for b in test_bags:
        verdicts = []
        for k in sorted(b.relations):
            scores = gi.get((b.bag_id, k))
            if scores is None:
                continue
            rat = [scores[n] for n, s in enumerate(b.sentences)
                   if s.rationale_for is not None and k in s.rationale_for]
            irr = [scores[n] for n, s in enumerate(b.sentences)
                   if s.rationale_for is not None and k not in s.rationale_for]
            if rat and irr:
                verdicts.append(float(np.mean(irr)) < float(np.mean(rat)))
        if verdicts:
            total += 1
            wins += all(verdicts)
    return wins, total


@pytest.mark.slow
def test_criterion_5_synthetic_end_to_end(tmp_path):
    failures = []
    t0 = time.perf_counter()

    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps(DESK_GEN))
    data = tmp_path / "data"
    _cli("gen-data", "--config", gen_cfg, "--seed", DESK_SEED, "--out", data)

    runs = {
        "att": ["--model", "cnns-att"],
        "ds": ["--model", "directsup"],
        "ld": ["--model", "cnns-att", "--ld", "--lam", "1.0", "--gamma", "1e-5"],
    }
    for tag, extra in runs.items():
        _cli("train", "--corpus", data / "train.jsonl", "--out", tmp_path / tag,
             *extra, *TRAIN_FLAGS, *ENCODER_FLAGS)
        ckpt = tmp_path / tag / "checkpoint.json"
        _cli("eval", "--checkpoint", ckpt, "--corpus", data / "test.jsonl",
             "--seed", DESK_SEED, "--out", tmp_path / f"eval_{tag}")
        _cli("explain", "--checkpoint", ckpt, "--corpus", data / "test.jsonl",
             "--methods", "gi,saliency", "--seed", DESK_SEED,
             "--out", tmp_path / f"expl_{tag}")
        _cli("expl-eval", "--checkpoint", ckpt, "--corpus", data / "test.jsonl",
             "--scores", tmp_path / f"expl_{tag}" / "scores.jsonl",
             "--seed", DESK_SEED, "--out", tmp_path / f"ke_{tag}")
    elapsed = time.perf_counter() - t0

    # (a) ranking quality beats the label-shuffle baseline by 2x for both models
    aucs = {}
    for tag in ("att", "ds"):
        met = _read_json(tmp_path / f"eval_{tag}" / "metrics.json")
        aucs[tag] = (met["auc_04"], met["shuffled_auc_04"])
        if not met["auc_04"] >= 2.0 * met["shuffled_auc_04"]:
            failures.append(f"{tag}: AUC {met['auc_04']:.2f} < 2x shuffle "
                            f"{met['shuffled_auc_04']:.2f}")

    # (b) explanation agreement is higher where the model is confident
    kendall = {tag: _read_kendall(tmp_path / f"ke_{tag}" / "kendall.csv")
               for tag in runs}
    for tag in ("att", "ds"):
        for method in ("gi", "saliency"):
            th, tl = kendall[tag][(method, "high")], kendall[tag][(method, "low")]
            if not (math.isfinite(th) and math.isfinite(tl) and th > tl):
                failures.append(f"{tag}/{method}: tau_H {th:.3f} !> tau_L {tl:.3f}")

    # (c) distractor-aware training pushes non-rationale importance down
    test_bags = load_corpus(data / "test.jsonl")
    wins, total = _bag_level_separation(
        test_bags, _gi_scores(tmp_path / "expl_ld" / "scores.jsonl"))
    frac = wins / max(total, 1)
    if frac < 0.70:
        failures.append(f"GI separation holds in only {wins}/{total} positive bags")
    tau_h_ld = kendall["ld"][("gi", "high")]
    tau_h_plain = kendall["att"][("gi", "high")]
    if not tau_h_ld >= tau_h_plain - 0.02:
        failures.append(f"tau_H(gi) dropped {tau_h_plain - tau_h_ld:.4f} > 0.02 "
                        "after adding the margin loss")

    if elapsed > 600.0:
        failures.append(f"pipeline took {elapsed:.0f}s > 600s budget")

    _verdict(
        5, "synthetic end-to-end", failures,
        f"AUC vs shuffle: att {aucs['att'][0]:.1f}/{aucs['att'][1]:.1f}, "
        f"ds {aucs['ds'][0]:.1f}/{aucs['ds'][1]:.1f}; "
        f"tau H>L (att gi {kendall['att'][('gi', 'high')]:.2f}>"
        f"{kendall['att'][('gi', 'low')]:.2f}, sal "
        f"{kendall['att'][('saliency', 'high')]:.2f}>"
        f"{kendall['att'][('saliency', 'low')]:.2f}); "
        f"GI separation {wins}/{total}; tau_H(gi) drift "
        f"{tau_h_plain - tau_h_ld:+.4f}; pipeline {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. determinism: byte-identical artifacts across consecutive runs
# ---------------------------------------------------------------------------

SMALL_GEN = {
    "n_relations": 2, "vocab_size": 60, "n_fget": 2, "n_mention_tokens": 8,
    "n_train_bags": 40, "n_test_bags": 12, "sentences_per_bag": [2, 3],
    "sentence_len": [5, 7], "irrelevant_rate": 0.4, "negative_rate": 0.5,
    "test_negative_rate": 0.0, "hard_rate": 0.2, "multi_relation_rate": 0.1,
}
SMALL_ENC = ["--d-w", "8", "--d-p", "2", "--pos-clip", "6",
             "--widths", "2", "--channels", "3"]


def test_criterion_6_determinism(tmp_path):
    """Rerunning every stage with the same inputs and seed — only the output
    directory moved — must reproduce each artifact byte for byte."""
    failures = []

    def compare(name, a, b):
        if a.read_bytes() != b.read_bytes():
            failures.append(f"{name} differs between consecutive identical runs")

    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps(SMALL_GEN))
    for d in ("data_a", "data_b"):
        _cli("gen-data", "--config", gen_cfg, "--seed", "3", "--out", tmp_path / d)
    for split in ("train.jsonl", "test.jsonl"):
        compare(split, tmp_path / "data_a" / split, tmp_path / "data_b" / split)

    train = tmp_path / "data_a" / "train.jsonl"
    test = tmp_path / "data_a" / "test.jsonl"
    for d in ("run1", "run2"):
        _cli("train", "--corpus", train, "--model", "cnns-att", "--ld",
             "--epochs", "2", "--lr", "0.01", "--seed", "3",
             "--out", tmp_path / d, *SMALL_ENC)
    for name in ("checkpoint.json", "checkpoint.bin"):
        compare(name, tmp_path / "run1" / name, tmp_path / "run2" / name)

    ckpt = tmp_path / "run1" / "checkpoint.json"
    for d in ("ev1", "ev2"):
        _cli("eval", "--checkpoint", ckpt, "--corpus", test, "--seed", "3",
             "--out", tmp_path / d)
    for name in ("pr_curve.csv", "metrics.json"):
        compare(name, tmp_path / "ev1" / name, tmp_path / "ev2" / name)

    for d in ("ex1", "ex2"):
        _cli("explain", "--checkpoint", ckpt, "--corpus", test,
             "--methods", "gi,loo", "--seed", "3", "--out", tmp_path / d)
    compare("scores.jsonl", tmp_path / "ex1" / "scores.jsonl",
            tmp_path / "ex2" / "scores.jsonl")

    scores = tmp_path / "ex1" / "scores.jsonl"
    for d in ("ke1", "ke2"):
        _cli("expl-eval", "--checkpoint", ckpt, "--corpus", test,
             "--scores", scores, "--seed", "3", "--out", tmp_path / d)
    compare("kendall.csv", tmp_path / "ke1" / "kendall.csv",
            tmp_path / "ke2" / "kendall.csv")

    _verdict(6, "determinism", failures,
             "8 artifacts (corpus splits, checkpoint header and data, metrics, curve, "
             "scores, correlations) byte-identical across two runs of "
             "every stage")


# ---------------------------------------------------------------------------
# 7. protocol fidelity: ordering-constraint enumeration + confidence buckets
# ---------------------------------------------------------------------------

def _annotated_sentence(seed, rationale_for, distractor=False):
    rng = np.random.default_rng(seed)
    return make_sentence([int(t) for t in rng.integers(0, 30, size=6)],
                         rationale_for=rationale_for, distractor=distractor)


def test_criterion_7_protocol_fidelity():
    failures = []
    bags = [
        # multi-relation bag: rationales for one or both labels, an
        # irrelevant sentence, an unannotated one, and a flagged distractor
        Bag(bag_id="m", entity_i=0, entity_j=1, fget_i=0, fget_j=1,
            relations=frozenset({0, 2}),
            sentences=(
                _annotated_sentence(1, frozenset({0})),
                _annotated_sentence(2, frozenset({0, 2})),
                _annotated_sentence(3, frozenset()),
                _annotated_sentence(4, None),
                _annotated_sentence(5, frozenset(), distractor=True),
            )),
        # negative bag: annotated but unlabeled, contributes nothing
        Bag(bag_id="n", entity_i=2, entity_j=3, fget_i=0, fget_j=1,
            relations=frozenset(),
            sentences=(_annotated_sentence(6, frozenset()),)),
        # all-rationale bag: no irrelevant partner, contributes nothing
        Bag(bag_id="r", entity_i=4, entity_j=5, fget_i=0, fget_j=1,
            relations=frozenset({1}),
            sentences=(_annotated_sentence(7, frozenset({1})),
                       _annotated_sentence(8, frozenset({1})))),
    ]

    got = build_expl_eval(bags)
    brute = set()
    for b in bags:
        for k in b.relations:
            for p, sp in enumerate(b.sentences):
                for q, sq in enumerate(b.sentences):
                    usable = (sp.rationale_for is not None and not sp.distractor
                              and sq.rationale_for is not None and not sq.distractor)
                    if usable and k in sp.rationale_for and k not in sq.rationale_for:
                        brute.add(ExplEvalTuple(b.bag_id, k, p, q))
    if set(got) != brute:
        failures.append(f"enumeration mismatch: engine {len(got)} tuples, "
                        f"exhaustive {len(brute)}")
    if len(got) != len(set(got)):
        failures.append("enumeration emitted duplicates")
    # relation 0: rationales 0,1 against irrelevant 2; relation 2: rationale 1
    # against sentences 0 and 2 (sentence 0 supports relation 0 only, so it
    # is an irrelevant partner for relation 2)
    if len(brute) != 4:
        failures.append(f"handcrafted case should yield 4 tuples, got {len(brute)}")

    probs = {
        ("h_lo", 0): 0.76, ("h_hi", 0): 1.0, ("h_out", 0): 0.7599999,
        ("l_hi", 0): 0.25, ("l_lo", 0): 0.0, ("l_out", 0): 0.2500001,
        ("mid", 0): 0.5,
    }
    high, low = confidence_split(probs)
    if high != {("h_lo", 0), ("h_hi", 0)}:
        failures.append(f"high bucket wrong: {sorted(high)}")
    if low != {("l_hi", 0), ("l_lo", 0)}:
        failures.append(f"low bucket wrong: {sorted(low)}")

    _verdict(7, "protocol fidelity", failures,
             "ordering-constraint enumeration matches exhaustive search on "
             "handcrafted bags; [0.76, 1] and [0, 0.25] buckets close at "
             "their boundaries exactly")
