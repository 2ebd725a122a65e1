"""Bag-level relation models: sentence weighting, bag pooling, prediction.

Two sentence-importance mechanisms are implemented:

  * DirectSupModel: a sentence-level relevance classifier produces one
    weight per sentence; the bag representation is the elementwise max of
    the weighted encodings (relation-independent).
  * CnnsAttModel: per-relation attention; the bag representation for
    relation k is the attention-weighted sum of encodings.

Both score relation k as a sigmoid over bag_rep . r_k + b_k, trained with
a multi-label binary cross entropy over every (bag, relation) pair.
Optional entity fusion concatenates the bag representation with the
difference and elementwise product of two frozen entity embeddings, then
projects back to R^d with a ReLU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import optim
from .autodiff import Tensor
from .corpus import Bag, ReprMode, Sentence, apply_repr_mode
from .encoder import EncoderConfig, SentenceEncoder, checked_fields

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
        d = checked_fields(d, "model config", {
            "kind": str, "n_relations": int, "encoder": dict, "repr_mode": str,
            "fusion": bool, "d_e": int, "n_entities": int,
        })
        modes = [m.value for m in ReprMode]
        if d["repr_mode"] not in modes:
            raise ValueError(f"model config key 'repr_mode' must be one of {modes}, "
                             f"got {d['repr_mode']!r}")
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
    bag representation ((d,) or (K, d)); logits the (K,) tensor of o_k;
    probs its sigmoid as a plain array.
    """

    X: Tensor | None
    alphas: Tensor | None
    reps: Tensor | None
    logits: Tensor
    probs: np.ndarray


class RelationModel:
    """Shared machinery: encoding, fusion, prediction, loss."""

    def __init__(self, cfg: ModelConfig, seed: int):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.encoder = SentenceEncoder(cfg.encoder, rng)
        self.params: dict[str, Tensor] = dict(self.encoder.params)
        d = cfg.encoder.out_dim
        if cfg.fusion:
            self.params["fuse.entities"] = Tensor(
                rng.normal(0.0, 0.1, size=(cfg.n_entities, cfg.d_e)), requires_grad=False
            )
            self.params["fuse.proj"] = Tensor(
                rng.normal(0.0, 0.1, size=(d + 2 * cfg.d_e, d)), requires_grad=True
            )
            self.params["fuse.bias"] = Tensor(np.zeros(d), requires_grad=True)
        self.params["head.rel"] = Tensor(
            rng.normal(0.0, 0.1, size=(cfg.n_relations, d)), requires_grad=True
        )
        self.params["head.bias"] = Tensor(np.zeros(cfg.n_relations), requires_grad=True)
        self._init_specific(rng, d)

    def _init_specific(self, rng: np.random.Generator, d: int):
        raise NotImplementedError

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

    # -- fusion -------------------------------------------------------------

    def _entity_vec(self, entity: int) -> Tensor:
        table = self.params["fuse.entities"]
        if not 0 <= entity < table.shape[0]:
            raise ValueError(f"entity id {entity} has no embedding row")
        return ad.take(table, entity)

    def _fuse_vec(self, rep: Tensor, entity_i: int, entity_j: int) -> Tensor:
        vi = self._entity_vec(entity_i)
        vj = self._entity_vec(entity_j)
        z = ad.concat([rep, ad.sub(vi, vj), ad.mul(vi, vj)])
        return ad.relu(ad.add(ad.matmul(ad.transpose(self.params["fuse.proj"]), z),
                              self.params["fuse.bias"]))

    def _fuse_rows(self, reps: Tensor, entity_i: int, entity_j: int) -> Tensor:
        shape = (reps.shape[0], self.cfg.d_e)
        vi = self._entity_vec(entity_i)
        vj = self._entity_vec(entity_j)
        z = ad.concat([
            reps,
            ad.broadcast_to(ad.sub(vi, vj), shape),
            ad.broadcast_to(ad.mul(vi, vj), shape),
        ], axis=1)
        return ad.relu(ad.add(ad.matmul(z, self.params["fuse.proj"]), self.params["fuse.bias"]))

    # -- forward ------------------------------------------------------------

    def _bag_logits(self, X: Tensor, entity_i: int, entity_j: int) -> tuple[Tensor, Tensor, Tensor]:
        """Return (alphas, pre-fusion reps, logits) for a nonempty encoding stack.

        Pooling reads nothing but X and the entity pair, so a subset of the
        rows of a cached stack re-pools to exactly the logits of a fresh
        forward over those sentences; leave-one-out explanations rely on it.
        """
        raise NotImplementedError

    def _empty_logits(self, entity_i: int, entity_j: int) -> Tensor:
        """Logits for an empty sentence selection: the bag representation is
        the zero vector (fusion still applies when enabled). Leave-one-out
        scores a singleton bag's only sentence against these."""
        rep = Tensor(np.zeros(self.cfg.encoder.out_dim))
        if self.cfg.fusion:
            rep = self._fuse_vec(rep, entity_i, entity_j)
        return ad.add(ad.matmul(self.params["head.rel"], rep), self.params["head.bias"])

    def forward_sentences(self, sentences: Sequence[Sentence],
                          entity_i: int, entity_j: int) -> BagForward:
        if not sentences:
            logits = self._empty_logits(entity_i, entity_j)
            return BagForward(X=None, alphas=None, reps=None, logits=logits,
                              probs=_sigmoid_np(logits.data))
        return self.forward_encodings(self.encode_bag(sentences), entity_i, entity_j)

    def forward_encodings(self, X: Tensor, entity_i: int, entity_j: int) -> BagForward:
        """The forward pass over a nonempty (N, d) stack of sentence encodings.

        Distractor training pools the base bag's cached stack with the
        distractor's row appended through this, instead of encoding the
        base bag again.
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

    def predict_k(self, bag: Bag, k: int) -> tuple[float, float]:
        """(probability, logit) for one relation; k must be in range."""
        self._check_k(k)
        fwd = self.forward_bag(bag)
        return float(fwd.probs[k]), float(fwd.logits.data[k])

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


class DirectSupModel(RelationModel):
    """Relevance-classifier weighting with max pooling over weighted encodings."""

    def _init_specific(self, rng: np.random.Generator, d: int):
        self.params["rel.w"] = Tensor(rng.normal(0.0, 0.1, size=d), requires_grad=True)
        self.params["rel.b"] = Tensor(np.zeros(()), requires_grad=True)

    def relevance_alphas(self, X: Tensor) -> Tensor:
        scores = ad.add(ad.matmul(X, self.params["rel.w"]), self.params["rel.b"])
        return ad.sigmoid(scores)

    def _bag_logits(self, X: Tensor, entity_i: int, entity_j: int) -> tuple[Tensor, Tensor, Tensor]:
        alphas = self.relevance_alphas(X)
        rep = ad.rows_max(ad.mul(X, ad.reshape(alphas, (X.shape[0], 1))))
        fused = self._fuse_vec(rep, entity_i, entity_j) if self.cfg.fusion else rep
        logits = ad.add(ad.matmul(self.params["head.rel"], fused), self.params["head.bias"])
        return alphas, rep, logits


class CnnsAttModel(RelationModel):
    """Per-relation attention over sentence encodings."""

    def _init_specific(self, rng: np.random.Generator, d: int):
        self.params["att.query"] = Tensor(
            rng.normal(0.0, 0.1, size=(self.cfg.n_relations, d)), requires_grad=True
        )
        self.params["att.diag"] = Tensor(rng.normal(0.0, 0.1, size=d), requires_grad=True)

    def attention_alphas(self, X: Tensor) -> Tensor:
        """(N, K): column k is the softmax over sentences for relation k."""
        keys = ad.mul(self.params["att.query"], self.params["att.diag"])
        scores = ad.matmul(X, ad.transpose(keys))
        return ad.softmax(scores, axis=0)

    def _bag_logits(self, X: Tensor, entity_i: int, entity_j: int) -> tuple[Tensor, Tensor, Tensor]:
        alphas = self.attention_alphas(X)
        reps = ad.transpose(ad.matmul(ad.transpose(X), alphas))  # (K, d), row k = rep for k
        fused = self._fuse_rows(reps, entity_i, entity_j) if self.cfg.fusion else reps
        logits = ad.add(ad.reduce_sum(ad.mul(fused, self.params["head.rel"]), 1),
                        self.params["head.bias"])
        return alphas, reps, logits


def build_model(cfg: ModelConfig, seed: int) -> RelationModel:
    cfg.validate()
    if cfg.kind == KIND_DIRECTSUP:
        return DirectSupModel(cfg, seed)
    return CnnsAttModel(cfg, seed)


def load_model(path: str) -> tuple[RelationModel, dict]:
    """Rebuild a model from a checkpoint; returns (model, sidecar metadata)."""
    arrays, extra = optim.load_checkpoint(path)
    if "config" not in extra:
        raise ValueError(f"checkpoint {path} has no model 'config' in its extra block")
    cfg = ModelConfig.from_dict(extra["config"])
    model = build_model(cfg, seed=0)
    optim.restore_params(model.params, arrays)
    return model, extra


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
