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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import jsonio, optim
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
    classifier, (N, K) attention columns otherwise); reps the pre-fusion
    bag rows ((1, d) for the relevance classifier, whose one row serves
    every relation; (K, d) otherwise); logits the (K,) tensor of o_k;
    probs its sigmoid as a plain array. memo holds what explanations derive
    from this forward, so that each is computed once per bag (see explain).
    """

    X: Tensor | None
    alphas: Tensor | None
    reps: Tensor | None
    logits: Tensor
    probs: np.ndarray
    memo: dict = field(default_factory=dict, repr=False)


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

        Pooling reads nothing but X and the entity pair, so a subset of the
        rows of a cached stack re-pools to exactly the logits of a fresh
        forward over those sentences; leave-one-out explanations rely on it.
        """
        p = self.params
        if self.cfg.kind == KIND_DIRECTSUP:
            alphas = ad.sigmoid(ad.add(ad.matmul(X, p["rel.w"]), p["rel.b"]))
            rep = ad.rows_max(ad.mul(X, ad.reshape(alphas, (X.shape[0], 1))))
            reps = ad.reshape(rep, (1, X.shape[1]))
        else:  # column k of alphas is the softmax over sentences for relation k
            alphas = ad.softmax(ad.matmul(X, ad.transpose(ad.mul(p["att.query"], p["att.diag"]))))
            reps = ad.transpose(ad.matmul(ad.transpose(X), alphas))  # row k = rep for k
        return alphas, reps, self._head(reps, entity_i, entity_j)

    def _head(self, reps: Tensor, entity_i: int, entity_j: int) -> Tensor:
        """(K,) logits from (R, d) bag rows, R = K or 1; one row serves every relation."""
        p = self.params
        if self.cfg.fusion:
            reps = self._fuse(reps, entity_i, entity_j)
        return ad.add(ad.reduce_sum(ad.mul(reps, p["head.rel"]), 1), p["head.bias"])

    def _fuse(self, reps: Tensor, entity_i: int, entity_j: int) -> Tensor:
        """(R, d) fused rows: relu([rep, v_i - v_j, v_i * v_j] @ fuse.proj + fuse.bias)."""
        p = self.params
        table = p["fuse.entities"]
        for entity in (entity_i, entity_j):
            if not 0 <= entity < table.shape[0]:
                raise ValueError(f"entity id {entity} has no embedding row")
        vi, vj = ad.take(table, entity_i), ad.take(table, entity_j)
        shape = (reps.shape[0], self.cfg.d_e)
        z = ad.concat([reps, ad.broadcast_to(ad.sub(vi, vj), shape),
                       ad.broadcast_to(ad.mul(vi, vj), shape)], axis=1)
        return ad.relu(ad.add(ad.matmul(z, p["fuse.proj"]), p["fuse.bias"]))

    def _empty_logits(self, entity_i: int, entity_j: int) -> Tensor:
        """Logits for an empty sentence selection: the head over one zero row.
        Leave-one-out scores a singleton bag's only sentence against these."""
        return self._head(Tensor(np.zeros((1, self.cfg.encoder.out_dim))), entity_i, entity_j)

    def forward_sentences(self, sentences: Sequence[Sentence],
                          entity_i: int, entity_j: int) -> BagForward:
        if not sentences:
            logits = self._empty_logits(entity_i, entity_j)
            return BagForward(X=None, alphas=None, reps=None, logits=logits,
                              probs=_sigmoid_np(logits.data))
        return self.forward_encodings(self.encode_bag(sentences), entity_i, entity_j)

    def forward_encodings(self, X: Tensor, entity_i: int, entity_j: int) -> BagForward:
        """The forward pass over a nonempty (N, d) stack of sentence encodings.

        A distractor training step encodes the bag and its distractors in
        one call and runs this on the bag's rows of that stack.
        """
        alphas, reps, logits = self._bag_logits(X, entity_i, entity_j)
        return BagForward(X=X, alphas=alphas, reps=reps, logits=logits,
                          probs=_sigmoid_np(logits.data))

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


def _clamped_bce(p: Tensor, y: np.ndarray) -> Tensor:
    """-sum(y log p + (1 - y) log(1 - p)), with p clamped to [eps, 1-eps] before the logs."""
    p = ad.clamp(p, BCE_EPS, 1.0 - BCE_EPS)
    pos = ad.reduce_sum(ad.mul(ad.log(p), y))
    neg = ad.reduce_sum(ad.mul(ad.log(ad.sub(1.0, p)), 1.0 - y))
    return ad.mul(ad.add(pos, neg), -1.0)


def bce_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Multi-label binary cross entropy over one bag's K logits."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != logits.shape:
        raise ValueError(f"labels shape {labels.shape} != logits shape {logits.shape}")
    return _clamped_bce(ad.sigmoid(logits), labels)


def relevance_loss(alphas: Tensor, labels: Sequence[bool]) -> Tensor:
    """Sentence-level BCE between relevance weights and relevance labels."""
    y = np.array([1.0 if v else 0.0 for v in labels])
    if y.shape != alphas.shape:
        raise ValueError(f"{len(labels)} labels for alphas of shape {alphas.shape}")
    return _clamped_bce(alphas, y)
