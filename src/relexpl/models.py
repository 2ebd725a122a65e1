"""Bag-level relation models: sentence weighting, bag pooling, prediction.

One model class serves both sentence-importance mechanisms; cfg.kind picks
the weighting and the pooling, and nothing else:

  * directsup: a sentence-level relevance classifier produces one sigmoid
    weight per sentence; the bag representation is one row, the
    elementwise max of the weighted encodings (relation-independent).
  * cnns-att: per-relation attention; row k of the bag representation is
    the attention-weighted sum of encodings for relation k.

Both kinds share one head: it scores relation k as a sigmoid over
rep_k . r_k + b_k, one row serving every relation for directsup, trained
with a multi-label binary cross entropy over every (bag, relation) pair.
Optional entity fusion concatenates each bag row with the difference and
elementwise product of two frozen entity embeddings, then projects back to
R^d with a ReLU.

Pooling, fusion and head record one graph node (`_head_node`) whose VJP
is written out in numpy, and each loss is one node too. Every such VJP
forms its gradients with the numpy calls, in the order, that the engine's
generic ops would for the same computation, so gradients and checkpoints
are bit for bit those of that composition; the test suite keeps it as the
oracle the nodes are checked against. The trade: a new pooling or head
needs its own written-out VJP, with its oracle composition in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import jsonio, kernels, optim
from .autodiff import Tensor, _sigmoid_np
from .corpus import Bag, ReprMode, Sentence, apply_repr_mode
from .encoder import EncoderConfig, SentenceEncoder, add_param

BCE_EPS = 1e-12

KIND_DIRECTSUP = "directsup"
KIND_CNNS_ATT = "cnns-att"


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    n_relations: int
    encoder: EncoderConfig
    repr_mode: ReprMode = ReprMode.RAW
    fusion: bool = False
    d_e: int = 64
    n_entities: int = 0

    def validate(self):
        if self.kind not in (KIND_DIRECTSUP, KIND_CNNS_ATT):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.n_relations < 1:
            raise ValueError("n_relations must be >= 1")
        self.encoder.validate()
        if self.fusion and (self.n_entities < 1 or self.d_e < 1):
            raise ValueError("fusion requires n_entities >= 1 and d_e >= 1")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_relations": self.n_relations,
            "encoder": self.encoder.to_dict(),
            "repr_mode": self.repr_mode.value,
            "fusion": self.fusion,
            "d_e": self.d_e,
            "n_entities": self.n_entities,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        modes = [m.value for m in ReprMode]
        jsonio.check_fields(d, "model config", {
            "kind": jsonio.STR, "n_relations": jsonio.INT, "encoder": jsonio.OBJECT,
            "repr_mode": (lambda v: v in modes, f"one of {modes}"), "fusion": jsonio.BOOL,
            "d_e": jsonio.INT, "n_entities": jsonio.INT,
        }, exact=True)
        cfg = cls(**{**d, "encoder": EncoderConfig.from_dict(d["encoder"]),
                     "repr_mode": ReprMode(d["repr_mode"])})
        cfg.validate()
        return cfg


@dataclass
class BagForward:
    """One forward pass over a bag, with the graph nodes explanations need.

    X is the (N, d) stack of sentence encodings (None for an empty
    selection); alphas holds the sentence weights ((N,) for the relevance
    classifier, a recorded tensor that relevance_loss differentiates
    through; (N, K) attention columns otherwise, a bare tensor); reps the
    pre-fusion bag rows as a bare tensor ((1, d) for the relevance
    classifier, whose one row serves every relation; (K, d) otherwise);
    logits the (K,) tensor of o_k, the bag head's node. memo holds what
    explanations derive from this forward, so that each is computed once
    per bag (see explain).
    """

    X: Tensor | None
    alphas: Tensor | None
    reps: Tensor | None
    logits: Tensor
    memo: dict = field(default_factory=dict, repr=False)


def _max_pool(x: np.ndarray, a: np.ndarray):
    """directsup pooling of (N, d) encodings under (N,) weights: the (1, d)
    columnwise max of the weighted rows, ties to the lowest row, and its VJP
    to (gradient of x, gradient of a), the winners held constant."""
    a_col = a.reshape(-1, 1)
    vals, winners = kernels.rows_max(x * a_col)
    index = (winners, np.arange(x.shape[1]))

    def vjp(g_rep):
        g_w = np.zeros(x.shape)
        g_w[index] += g_rep.reshape(-1)  # distinct (row, column) pairs: 0 + g
        return g_w * a_col, (g_w * x).sum(axis=1)

    return vals.reshape(1, -1), vjp


def _attention_pool(x: np.ndarray, query: np.ndarray, diag: np.ndarray):
    """cnns-att pooling of (N, d) encodings: (alphas (N, K), reps (K, d), VJP).

    Column k of alphas is the softmax over sentences of x (query[k] * diag)
    and row k of reps the alphas-weighted sum of the rows of x. The VJP
    maps the reps' gradient to those of x, query and diag.
    """
    q = query * diag
    qt = np.ascontiguousarray(q.T)
    s = x @ qt
    e = np.exp(s - s.max(axis=0, keepdims=True))
    a = e / e.sum(axis=0, keepdims=True)
    xt = np.ascontiguousarray(x.T)

    def vjp(g_reps):
        g_rt = np.ascontiguousarray(g_reps.T)
        g_a = x @ g_rt
        g_s = a * (g_a - np.sum(g_a * a, axis=0))  # through the softmax
        g_q = np.ascontiguousarray((xt @ g_s).T)
        g_x = g_s @ q + np.ascontiguousarray((g_rt @ np.ascontiguousarray(a.T)).T)
        return g_x, g_q * diag, (g_q * query).sum(axis=0)

    return a, np.ascontiguousarray((xt @ a).T), vjp


class RelationModel:
    """A bag relation model; cfg.kind picks the sentence weighting and pooling."""

    def __init__(self, cfg: ModelConfig, seed: int | None = None,
                 arrays: dict[str, np.ndarray] | None = None):
        """Draw the parameters from seed, or adopt a checkpoint's arrays; give exactly one.

        Adopted arrays are checked for their names and shapes (see
        `add_param`), and nothing is drawn.
        """
        cfg.validate()
        if (seed is None) == (arrays is None):
            raise ValueError("a model is built from a seed or from checkpoint arrays")
        self.cfg = cfg
        init = np.random.default_rng(seed) if arrays is None else arrays
        self.encoder = SentenceEncoder(cfg.encoder, init)
        self.params: dict[str, Tensor] = dict(self.encoder.params)
        d = cfg.encoder.out_dim
        if cfg.fusion:
            add_param(self.params, init, "fuse.entities", (cfg.n_entities, cfg.d_e),
                      requires_grad=False)
            add_param(self.params, init, "fuse.proj", (d + 2 * cfg.d_e, d))
            add_param(self.params, init, "fuse.bias", (d,), zeros=True)
        add_param(self.params, init, "head.rel", (cfg.n_relations, d))
        add_param(self.params, init, "head.bias", (cfg.n_relations,), zeros=True)
        if cfg.kind == KIND_DIRECTSUP:
            add_param(self.params, init, "rel.w", (d,))
            add_param(self.params, init, "rel.b", (), zeros=True)
        else:
            add_param(self.params, init, "att.query", (cfg.n_relations, d))
            add_param(self.params, init, "att.diag", (d,))
        if arrays is not None and len(arrays) != len(self.params):
            raise ValueError("checkpoint has parameters the model does not: "
                             f"{sorted(set(arrays) - set(self.params))}")

    # -- encoding -----------------------------------------------------------

    def encode_bag(self, sentences: Sequence[Sentence]) -> Tensor:
        """(N, d) encodings of the sentences, in one encoder graph."""
        if not sentences:
            raise ValueError("encode_bag needs at least one sentence")
        cfg = self.cfg
        return self.encoder.encode([
            apply_repr_mode(s, cfg.repr_mode, vocab_size=cfg.encoder.vocab_size,
                            n_fget=cfg.encoder.n_fget)
            for s in sentences])

    # -- pooling and prediction ---------------------------------------------

    def _bag_logits(self, X: Tensor, entity_i: int, entity_j: int) -> tuple[Tensor, Tensor, Tensor]:
        """Return (alphas, pre-fusion reps, logits) for a nonempty encoding stack.

        Pooling, fusion and head are one node (`_head_node`); directsup's
        sigmoid weights stay engine ops before it, so that relevance_loss
        differentiates through them too. The reps, and cnns-att's alphas,
        are bare tensors. Pooling reads nothing but X and the entity pair,
        so a subset of the rows of a cached stack re-pools to exactly the
        logits of a fresh forward over those sentences; leave-one-out
        explanations rely on it.
        """
        p = self.params
        if self.cfg.kind == KIND_DIRECTSUP:
            alphas = ad.sigmoid(ad.add(ad.matmul(X, p["rel.w"]), p["rel.b"]))
            reps, pool_vjp = _max_pool(X.data, alphas.data)
            pooled = (X, alphas)
        else:
            query, diag = p["att.query"], p["att.diag"]
            a, reps, pool_vjp = _attention_pool(X.data, query.data, diag.data)
            alphas = Tensor(a)
            pooled = (X, query, diag)
        return alphas, Tensor(reps), self._head_node(reps, pooled, pool_vjp, entity_i, entity_j)

    def _head_node(self, reps: np.ndarray, pooled: tuple, pool_vjp,
                   entity_i: int, entity_j: int) -> Tensor:
        """(K,) logits from (R, d) bag rows, R = K or 1, as one node; one row
        serves every relation.

        pooled are the tensors the rows were pooled from and pool_vjp maps
        the rows' gradient to theirs; the node's parents are they and the
        head's parameters. Each gradient is the one the engine's ops would
        form for the same computation, operation for operation.
        """
        p = self.params
        rel, bias = p["head.rel"], p["head.bias"]
        head = (rel, bias)
        rows = reps
        if self.cfg.fusion:
            proj, fbias = p["fuse.proj"], p["fuse.bias"]
            head += (proj, fbias)
            rows, z, mask = self._fuse(reps, entity_i, entity_j)
        logits = np.sum(rows * rel.data, axis=1) + bias.data

        def vjp(g):
            g_col = g.reshape(-1, 1)
            g_rows = g_col * rel.data
            if g_rows.shape != rows.shape:  # one row serves every relation
                g_rows = g_rows.sum(axis=0, keepdims=True)
            grads = (g_col * rows, g)
            if self.cfg.fusion:
                g_pre = g_rows * mask
                g_rows = (g_pre @ np.ascontiguousarray(proj.data.T))[:, :reps.shape[1]]
                grads += (np.ascontiguousarray(z.T) @ g_pre, g_pre.sum(axis=0))
            return (*pool_vjp(g_rows), *grads) if pooled else grads

        return ad.first_order(logits, pooled + head, vjp, "bag_head")

    def _fuse(self, reps: np.ndarray, entity_i: int,
              entity_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(fused rows, z, ReLU mask) for (R, d) rows: the fused rows are
        relu(z @ fuse.proj + fuse.bias), z = [rep, v_i - v_j, v_i * v_j]."""
        p = self.params
        table = p["fuse.entities"].data
        for entity in (entity_i, entity_j):
            if not 0 <= entity < table.shape[0]:
                raise ValueError(f"entity id {entity} has no embedding row")
        vi, vj = table[entity_i], table[entity_j]
        shape = (reps.shape[0], self.cfg.d_e)
        z = np.concatenate([reps, np.broadcast_to(vi - vj, shape),
                            np.broadcast_to(vi * vj, shape)], axis=1)
        pre = z @ p["fuse.proj"].data + p["fuse.bias"].data
        mask = (pre > 0.0).astype(np.float64)
        return pre * mask, z, mask

    def _empty_logits(self, entity_i: int, entity_j: int) -> Tensor:
        """Logits for an empty sentence selection: the head node over one zero row.
        Leave-one-out scores a singleton bag's only sentence against these."""
        return self._head_node(np.zeros((1, self.cfg.encoder.out_dim)), (), None,
                               entity_i, entity_j)

    def forward_sentences(self, sentences: Sequence[Sentence],
                          entity_i: int, entity_j: int) -> BagForward:
        if not sentences:
            return BagForward(X=None, alphas=None, reps=None,
                              logits=self._empty_logits(entity_i, entity_j))
        return self.forward_encodings(self.encode_bag(sentences), entity_i, entity_j)

    def forward_encodings(self, X: Tensor, entity_i: int, entity_j: int) -> BagForward:
        """The forward pass over a nonempty (N, d) stack of sentence encodings.

        A distractor training step encodes the bag and its distractors in
        one call and runs this on the bag's rows of that stack.
        """
        alphas, reps, logits = self._bag_logits(X, entity_i, entity_j)
        return BagForward(X=X, alphas=alphas, reps=reps, logits=logits)

    def forward_bag(self, bag: Bag, include: Sequence[int] | None = None) -> BagForward:
        if include is None:
            sentences = bag.sentences
        else:
            sentences = [bag.sentences[i] for i in include]
        return self.forward_sentences(sentences, bag.entity_i, bag.entity_j)

    def _check_k(self, k: int):
        if not 0 <= k < self.cfg.n_relations:
            raise ValueError(f"relation {k} out of range [0, {self.cfg.n_relations})")

    # -- parameters ---------------------------------------------------------

    def trainable_params(self) -> dict[str, Tensor]:
        return {name: p for name, p in self.params.items() if p.requires_grad}

    def save(self, path: str, extra: dict | None = None):
        meta = {"config": self.cfg.to_dict()}
        if extra:
            meta.update(extra)
        optim.save_checkpoint(path, self.params, extra=meta)


def build_model(cfg: ModelConfig, seed: int) -> RelationModel:
    return RelationModel(cfg, seed)


def load_model(path: str) -> tuple[RelationModel, dict]:
    """Rebuild a model from a checkpoint; returns (model, sidecar metadata).

    The model adopts the checkpoint's arrays as its parameters, checked
    for names and shapes against its config; it draws no random numbers.
    """
    arrays, extra = optim.load_checkpoint(path)
    if "config" not in extra:
        raise ValueError(f"checkpoint {path} has no model 'config' in its extra block")
    cfg = ModelConfig.from_dict(extra["config"])
    return RelationModel(cfg, arrays=arrays), extra


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def label_vector(bag: Bag, n_relations: int) -> np.ndarray:
    y = np.zeros(n_relations)
    for k in bag.relations:
        if k >= n_relations:
            raise ValueError(f"bag {bag.bag_id!r} labels relation {k} >= K={n_relations}")
        y[k] = 1.0
    return y


def _clamped_bce(p: np.ndarray, y: np.ndarray):
    """-sum(y log p + (1 - y) log(1 - p)), with p clamped to [eps, 1-eps]
    before the logs, and its VJP to the gradient of p."""
    lo, hi = BCE_EPS, 1.0 - BCE_EPS
    pc = np.clip(p, lo, hi)
    qc = np.subtract(1.0, pc)
    ny = 1.0 - y
    value = (np.sum(np.log(pc) * y) + np.sum(np.log(qc) * ny)) * -1.0

    def vjp(g):
        g_sum = g * -1.0
        g_p = g_sum * y * (1.0 / pc) + g_sum * ny * (1.0 / qc) * -1.0
        return g_p * ((p >= lo) & (p <= hi))  # the clamp passes no gradient

    return value, vjp


def bce_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Multi-label binary cross entropy over one bag's K logits, as one node."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != logits.shape:
        raise ValueError(f"labels shape {labels.shape} != logits shape {logits.shape}")
    p = _sigmoid_np(logits.data)
    value, vjp = _clamped_bce(p, labels)
    return ad.first_order(value, (logits,), lambda g: (vjp(g) * (p * (1.0 - p)),), "bce_loss")


def relevance_loss(alphas: Tensor, labels: Sequence[bool]) -> Tensor:
    """Sentence-level BCE between relevance weights and relevance labels, as one node."""
    y = np.array([1.0 if v else 0.0 for v in labels])
    if y.shape != alphas.shape:
        raise ValueError(f"{len(labels)} labels for alphas of shape {alphas.shape}")
    value, vjp = _clamped_bce(alphas.data, y)
    return ad.first_order(value, (alphas,), lambda g: (vjp(g),), "relevance_loss")
