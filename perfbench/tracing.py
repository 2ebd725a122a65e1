"""In-memory span tracing of the relexpl layers, installed from outside.

`Tracer.install()` replaces the public functions of each relexpl module
with wrappers that record one span per call: (name, start, end, parent,
nodes-at-start, nodes-at-end). Wrappers go where each function is looked
up, not only where it is defined: a name bound by `from .x import f`
in another module, and the method table in `explain._DISPATCH`, are
replaced too. Graph nodes are counted at `autodiff._node`.

Spans stay in memory; `per_layer()` reduces one traced iteration to the
per-layer figures, and `write()` dumps the spans when the run ends. Self
time is span time minus the time of the span's direct children.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from relexpl import (autodiff, corpus, distractor, encoder, evaluation, explain,
                     kernels, models, optim, synthetic, training)

_CLI_PREFIX = "cli."
GRAD = "autodiff.grad"


def _targets():
    """(owner, attribute, span name) for every function the tracer wraps."""
    out = []
    for name, fn in vars(autodiff).items():
        if (inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
                and not name.startswith("_")):
            kind = "autodiff" if name in ("grad", "backward") else "autodiff.op"
            out.append((autodiff, name, f"{kind}.{name}"))
    for name in ("im2col", "col2im", "rows_max", "scatter_add_rows"):
        out.append((kernels, name, f"kernels.{name}"))
    out += [
        (encoder.SentenceEncoder, "encode", "encoder.encode"),
        (models.RelationModel, "forward_sentences", "models.forward"),
        (models.RelationModel, "save", "models.save"),
        (models, "bce_loss", "models.bce_loss"),
        (models, "relevance_loss", "models.relevance_loss"),
        (models, "build_model", "models.build_model"),
        (models, "load_model", "models.load_model"),
        (optim.Adam, "step", "optim.adam_step"),
        (optim, "save_checkpoint", "optim.save_checkpoint"),
        (optim, "load_checkpoint", "optim.load_checkpoint"),
        (optim, "restore_params", "optim.restore_params"),
        (training, "train_model", "training.train_model"),
        (corpus, "load_corpus", "corpus.load"),
        (corpus, "write_corpus", "corpus.write"),
        (corpus, "read_corpus_meta", "corpus.read_meta"),
        (corpus, "build_expl_eval", "corpus.build_expl_eval"),
        (corpus, "corpus_stats", "corpus.stats"),
        (synthetic, "generate_synthetic_corpus", "synthetic.generate"),
    ]
    for name in ("build_index", "sample_distractor", "augmented_bag_loss",
                 "distractor_loss", "combined_loss"):
        out.append((distractor, name, f"distractor.{name}"))
    for name in ("explain_corpus", "explain_bag", "attention_explanation",
                 "saliency", "grad_input", "leave_one_out", "gi_vector",
                 "encoding_gradient", "write_scores", "load_scores"):
        out.append((explain, name, f"explain.{name}"))
    for name in ("score_bags", "pr_auc", "shuffled_baseline_auc",
                 "kendall_report", "positive_pair_probs"):
        out.append((evaluation, name, f"evaluation.{name}"))
    return out


# explain method name -> span name of the function _DISPATCH holds for it
METHOD_SPANS = {
    "attention": "explain.attention_explanation",
    "saliency": "explain.saliency",
    "gi": "explain.grad_input",
    "loo": "explain.leave_one_out",
}


def _nbytes(*arrays) -> int:
    return sum(getattr(a, "nbytes", 0) for a in arrays)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.nodes = 0
        self.root_tags: dict[int, str] = {}
        self.kernel_bytes: dict[str, int] = defaultdict(int)
        self.matmul_flops = 0
        self.fallbacks = 0
        self._fallback_memo: dict = {}
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            n0 = tracer.nodes
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, n0, tracer.nodes)
            if observe is not None:
                observe(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def root(self, name: str, tag: str = ""):
        """A root span around one CLI command; tag names the model it serves."""
        idx = len(self.spans)
        self.root_tags[idx] = tag
        self.spans.append(None)
        self.stack.append(idx)
        n0 = self.nodes
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (_CLI_PREFIX + name, t0, t1, -1, n0, self.nodes)

    def reset(self):
        self.spans.clear()
        del self.stack[1:]
        self.nodes = 0
        self.root_tags.clear()
        self.kernel_bytes.clear()
        self.matmul_flops = 0
        self.fallbacks = 0
        self._fallback_memo.clear()

    # -- observers: counts computed from shapes, outside the span -----------

    def _kernel_observer(self, name):
        def observe(args, out):
            results = out if isinstance(out, tuple) else (out,)
            self.kernel_bytes[name] += _nbytes(*args, *results)
        return observe

    def _flops_observer(self, args, out):
        # matmul and matvec: 2k flops per output element; outer: one multiply
        shape = getattr(args[0], "shape", ())
        self.matmul_flops += 2 * out.size * shape[1] if len(shape) == 2 else out.size

    def _fallback_observer(self, args, out):
        # a draw falls back when no type-matching sentence lies outside relation k;
        # the memo holds the index itself so that its id cannot be reused
        bag, k, index = args[0], args[1], args[2]
        _, memo = self._fallback_memo.setdefault(id(index), (index, {}))
        key = (bag.fget_i, bag.fget_j, k)
        if key not in memo:
            memo[key] = not any(k not in index.bags[bi].relations
                                for bi, _ in index.by_fget.get(key[:2], ()))
        self.fallbacks += memo[key]

    # -- installation -------------------------------------------------------

    def install(self):
        if self._undo:
            return
        replacement = {}
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            observe = None
            if owner is kernels:
                observe = self._kernel_observer(name)
            elif name in ("autodiff.op.matmul", "autodiff.op.matvec", "autodiff.op.outer"):
                observe = self._flops_observer
            elif name == "distractor.sample_distractor":
                observe = self._fallback_observer
            replacement[id(original)] = (original, self._wrap(name, original, observe))

        patched = set()
        owners = [m for n, m in sys.modules.items()
                  if n == "relexpl" or n.startswith("relexpl.")]
        owners += [encoder.SentenceEncoder, models.RelationModel, optim.Adam]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((owner, attr, value))
                    setattr(owner, attr, hit[1])
                    patched.add(id(value))
                elif isinstance(value, dict) and not isinstance(owner, type):
                    for key, item in list(value.items()):
                        hit = replacement.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._undo.append((value, key, item))
                            value[key] = hit[1]
                            patched.add(id(item))
        missing = [orig.__name__ for orig, _ in replacement.values()
                   if id(orig) not in patched]
        if missing:
            self.uninstall()
            raise RuntimeError(f"tracer could not place wrappers for {missing}")

        original_node = autodiff._node

        def counting_node(data, parents, vjp, op):
            self.nodes += 1
            return original_node(data, parents, vjp, op)

        self._undo.append((autodiff, "_node", original_node))
        autodiff._node = counting_node

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def write(self, path: str):
        """Dump the spans as TSV: index, name, start, end, parent, nodes."""
        with open(path, "w") as fh:
            fh.write("idx\tname\tstart_s\tend_s\tparent\tnodes\ttag\n")
            for i, (name, t0, t1, parent, n0, n1) in enumerate(self.spans):
                tag = self.root_tags.get(i, "")
                fh.write(f"{i}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{n1 - n0}\t{tag}\n")


def _p(values, q):
    """Nearest-rank percentile q (0-100) of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def per_layer(tracer: Tracer, op_names, model_tags) -> dict:
    """Reduce the spans of one traced pipeline iteration to per-layer figures."""
    spans = tracer.spans
    n = len(spans)
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] for s in spans]
    child_time = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_time[parent[i]] += dur[i]
    self_time = [dur[i] - child_time[i] for i in range(n)]

    # flags inherited from ancestors; a parent always precedes its children
    root = [0] * n
    in_grad = [False] * n
    train_child = [-1] * n     # the ancestor that is a direct child of train_model
    under = {key: [False] * n for key in ("loo", "aug", "backward", "validation")}
    marks = {"explain.leave_one_out": "loo", "distractor.augmented_bag_loss": "aug",
             "autodiff.backward": "backward"}
    for i in range(n):
        p = parent[i]
        if p < 0:
            root[i] = i
            continue
        root[i] = root[p]
        in_grad[i] = in_grad[p] or names[p] == GRAD
        train_child[i] = i if names[p] == "training.train_model" else train_child[p]
        for key, flags in under.items():
            flags[i] = flags[p]
        mark = marks.get(names[p])
        if mark:
            under[mark][i] = True
        tc = train_child[i]
        if tc >= 0 and names[tc] in ("evaluation.score_bags", "evaluation.pr_auc"):
            under["validation"][i] = True

    tag = [tracer.root_tags.get(root[i], "") for i in range(n)]
    in_train = [names[root[i]] == "cli.train" for i in range(n)]
    by_name = defaultdict(list)
    for i, name in enumerate(names):
        by_name[name].append(i)

    def total(name, pred=None):
        return sum(dur[i] for i in by_name[name] if pred is None or pred(i))

    def count(name, pred=None):
        return sum(1 for i in by_name[name] if pred is None or pred(i))

    def self_total(name):
        return sum(self_time[i] for i in by_name[name])

    m: dict = {}

    # autodiff
    steps = {t: count("optim.adam_step", lambda i, t=t: tag[i] == t) for t in model_tags}
    for t in model_tags:
        nodes = sum(spans[i][5] - spans[i][4] for i in by_name["training.train_model"]
                    if tag[i] == t)
        nodes -= sum(spans[i][5] - spans[i][4]
                     for i in by_name["evaluation.score_bags"] + by_name["evaluation.pr_auc"]
                     if tag[i] == t and train_child[i] == i)
        m[f"training.steps.{t}"] = steps[t]
        m[f"autodiff.nodes.{t}"] = nodes
        m[f"autodiff.nodes_per_step.{t}"] = nodes / steps[t] if steps[t] else 0.0
    op_stats = defaultdict(lambda: [0, 0.0, 0.0])
    for i in range(n):
        if names[i].startswith("autodiff.op."):
            st = op_stats[names[i][len("autodiff.op."):]]
            st[0] += 1
            st[2 if in_grad[i] else 1] += self_time[i]
    for op in op_names:
        calls, fwd, vjp = op_stats.get(op, (0, 0.0, 0.0))
        m[f"autodiff.op.{op}.calls"] = calls
        m[f"autodiff.op.{op}.fwd_s"] = fwd
        m[f"autodiff.op.{op}.vjp_s"] = vjp
    m["autodiff.ops_by_time"] = sorted(
        ((op, st[1] + st[2]) for op, st in op_stats.items()), key=lambda x: -x[1])
    m["autodiff.grad1.s"] = total(GRAD, lambda i: under["backward"][i])
    m["autodiff.grad2.s"] = total(GRAD, lambda i: under["aug"][i])
    m["autodiff.matmul.flops_computed"] = tracer.matmul_flops

    # kernels
    for k in ("im2col", "col2im", "rows_max", "scatter_add_rows"):
        name = f"kernels.{k}"
        m[f"{name}.calls"] = count(name)
        m[f"{name}.self_s"] = self_total(name)
        m[f"{name}.bytes_computed"] = tracer.kernel_bytes.get(name, 0)

    # encoder and models
    m["encoder.encode.calls"] = count("encoder.encode")
    m["encoder.encode.self_s"] = self_total("encoder.encode")
    ld_train = lambda i: tag[i] == "ld" and in_train[i] and not under["validation"][i]  # noqa: E731
    m["encoder.sentences.ld"] = count("encoder.encode", ld_train)
    m["encoder.sentences_per_step.ld"] = (m["encoder.sentences.ld"] / steps["ld"]
                                          if steps.get("ld") else 0.0)
    m["models.forward.calls"] = count("models.forward")
    m["models.forward.self_s"] = self_total("models.forward")
    m["models.bce_loss.s"] = total("models.bce_loss")
    m["models.relevance_loss.s"] = total("models.relevance_loss")

    # distractor
    draws = count("distractor.sample_distractor")
    m["distractor.draws"] = draws
    m["distractor.fallbacks"] = tracer.fallbacks
    m["distractor.fallback_ratio"] = tracer.fallbacks / draws if draws else 0.0
    m["distractor.sample.s"] = total("distractor.sample_distractor")
    m["distractor.augmented_loss.s"] = total("distractor.augmented_bag_loss")

    # optim
    adam = [dur[i] * 1e3 for i in by_name["optim.adam_step"]]
    m["optim.adam_step_ms.p50"] = statistics.median(adam) if adam else 0.0
    m["optim.save_checkpoint.s"] = total("optim.save_checkpoint")
    m["optim.load_checkpoint.s"] = total("optim.load_checkpoint")

    # training: step time is the gap between consecutive Adam step ends
    for t in model_tags:
        ends = [spans[i][2] for i in by_name["optim.adam_step"] if tag[i] == t]
        gaps = [(b - a) * 1e3 for a, b in zip(ends, ends[1:])]
        m[f"training.step_ms.p50.{t}"] = _p(gaps, 50) if gaps else 0.0
        m[f"training.step_ms.p90.{t}"] = _p(gaps, 90) if gaps else 0.0
    phases = defaultdict(float)
    phase_of = {"autodiff.backward": "backward", "optim.adam_step": "adam",
                "evaluation.score_bags": "validation", "evaluation.pr_auc": "validation",
                "distractor.sample_distractor": "sampling", "distractor.build_index": "sampling"}
    for i in range(n):
        if parent[i] >= 0 and names[parent[i]] == "training.train_model":
            phases[phase_of.get(names[i], "forward")] += dur[i]
    for phase in ("forward", "backward", "adam", "validation", "sampling"):
        m[f"training.{phase}_s"] = phases[phase]

    # explain
    for method, name in METHOD_SPANS.items():
        pair_ms = [dur[i] * 1e3 for i in by_name[name]]
        m[f"explain.{method}.pair_ms.p50"] = statistics.median(pair_ms) if pair_ms else 0.0
    loo_pairs = count("explain.leave_one_out")
    m["explain.loo.pairs"] = loo_pairs
    m["explain.loo.forwards"] = count("models.forward", lambda i: under["loo"][i])
    m["explain.loo.sentences_encoded"] = count("encoder.encode", lambda i: under["loo"][i])
    m["explain.loo.forwards_per_pair"] = (m["explain.loo.forwards"] / loo_pairs
                                          if loo_pairs else 0.0)
    m["explain.loo.sentences_encoded_per_pair"] = (
        m["explain.loo.sentences_encoded"] / loo_pairs if loo_pairs else 0.0)
    m["explain.write_scores.s"] = total("explain.write_scores")

    # evaluation outside training-time validation
    for k in ("score_bags", "pr_auc", "kendall_report", "positive_pair_probs"):
        m[f"evaluation.{k}.s"] = total(f"evaluation.{k}", lambda i: not in_train[i])

    m["corpus.load.s"] = total("corpus.load")
    for command in ("train", "eval", "explain", "expl-eval"):
        m[f"cli.{command}.s"] = total(f"cli.{command}")
    m["calls"] = {name: len(idx) for name, idx in by_name.items()}
    return m


def setup_layers(tracer: Tracer) -> dict:
    """Per-layer figures of one traced set-up (input generation)."""
    names = [s[0] for s in tracer.spans]
    dur = [s[2] - s[1] for s in tracer.spans]

    def total(name):
        return sum(d for nm, d in zip(names, dur) if nm == name)

    return {"synthetic.generate.s": total("synthetic.generate"),
            "corpus.write.s": total("corpus.write"),
            "cli.gen-data.s": total("cli.gen-data")}

