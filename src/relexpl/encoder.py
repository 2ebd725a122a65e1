"""Sentence encoder: embeddings, position features, multi-width convolutions.

Per token the encoder concatenates a word embedding with two position
embeddings (signed clipped distance to each mention span). Convolution
banks of several widths run over that sequence; each bank max-pools over
time; the pooled vectors are concatenated and passed through a ReLU, so
sentence encodings are nonnegative.

The encoder takes the sentences of a bag together and builds one graph
whose size does not grow with the bag: one gather per table, and per
width one window gather, one GEMM call per sentence, one bias add and one
per-sentence max. Each encoding is bit-identical to that of the sentence
encoded alone.

The token table is shared between words and FGET types: type t lives at
row vocab_size + t. Word/type rows stay frozen during training; position
tables and filter banks are trainable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    n_fget: int
    d_w: int = 300
    d_p: int = 5
    pos_clip: int = 50
    widths: tuple[int, ...] = (2, 3, 4, 5)
    channels: int = 64

    def validate(self):
        if self.vocab_size < 1 or self.n_fget < 0:
            raise ValueError("vocab_size must be >= 1 and n_fget >= 0")
        if self.d_w < 1 or self.d_p < 1 or self.channels < 1:
            raise ValueError("embedding and channel dimensions must be positive")
        if self.pos_clip < 1:
            raise ValueError("pos_clip must be >= 1")
        if not self.widths or any(w < 1 for w in self.widths):
            raise ValueError("widths must be a nonempty tuple of positive ints")
        if len(set(self.widths)) != len(self.widths):
            raise ValueError("widths must be distinct")

    @property
    def out_dim(self) -> int:
        return len(self.widths) * self.channels

    @property
    def token_rows(self) -> int:
        return self.vocab_size + self.n_fget

    def to_dict(self) -> dict:
        d = asdict(self)
        d["widths"] = list(self.widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        d = checked_fields(d, "encoder config", {
            "vocab_size": int, "n_fget": int, "d_w": int, "d_p": int,
            "pos_clip": int, "widths": list, "channels": int,
        })
        if not all(_is_int(w) for w in d["widths"]):
            raise ValueError(
                f"encoder config key 'widths' must be a list of ints, got {d['widths']!r}")
        cfg = cls(**{**d, "widths": tuple(d["widths"])})
        cfg.validate()
        return cfg


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def checked_fields(d, what: str, types: dict[str, type]) -> dict:
    """d itself once it is an object with exactly the keys of `types`, each of its type.

    Each fault (not an object, a missing or unknown key, an ill-typed
    value) raises ValueError naming `what` and the key.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    for key in d:
        if key not in types:
            raise ValueError(f"{what} has unknown key {key!r}")
    for key, typ in types.items():
        if key not in d:
            raise ValueError(f"{what} is missing key {key!r}")
        ok = _is_int(d[key]) if typ is int else isinstance(d[key], typ)
        if not ok:
            raise ValueError(f"{what} key {key!r} must be {typ.__name__}, got {d[key]!r}")
    return d


def relative_position(token_idx: int, span: tuple[int, int], clip: int) -> int:
    """Signed distance to the nearest token of a half-open span, clipped to [-clip, clip]."""
    start, end = span
    if start <= token_idx < end:
        return 0
    if token_idx < start:
        return max(token_idx - start, -clip)
    return min(token_idx - (end - 1), clip)


def position_ids(length: int, span: tuple[int, int], clip: int) -> np.ndarray:
    """Table row per token: offset shifted into [0, 2*clip]."""
    return _position_rows(np.arange(length), span[0], span[1], clip)


def _position_rows(t: np.ndarray, start, end, clip: int) -> np.ndarray:
    """relative_position(t, (start, end), clip) + clip, elementwise over broadcast int arrays."""
    after = np.where(t >= end, np.minimum(t - (end - 1), clip), 0)
    return np.where(t < start, np.maximum(t - start, -clip), after) + clip


class SentenceEncoder:
    """Owns the embedding tables and filter banks; encodes the sentences of a bag to R^d."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        d_in = cfg.d_w + 2 * cfg.d_p
        self.params: dict[str, Tensor] = {}
        self.params["embed.tokens"] = Tensor(
            rng.normal(0.0, 0.1, size=(cfg.token_rows, cfg.d_w)), requires_grad=False
        )
        n_pos_rows = 2 * cfg.pos_clip + 1
        self.params["embed.pos_i"] = Tensor(
            rng.normal(0.0, 0.1, size=(n_pos_rows, cfg.d_p)), requires_grad=True
        )
        self.params["embed.pos_j"] = Tensor(
            rng.normal(0.0, 0.1, size=(n_pos_rows, cfg.d_p)), requires_grad=True
        )
        for w in sorted(cfg.widths):
            self.params[f"enc.w{w}.filters"] = Tensor(
                rng.normal(0.0, 0.1, size=(w * d_in, cfg.channels)), requires_grad=True
            )
            self.params[f"enc.w{w}.bias"] = Tensor(
                np.zeros(cfg.channels), requires_grad=True
            )

    @property
    def out_dim(self) -> int:
        return self.cfg.out_dim

    def load_embeddings(self, path: str):
        """Substitute pretrained word vectors: JSON {token_id: [floats]}."""
        with open(path) as fh:
            vectors = json.load(fh)
        table = self.params["embed.tokens"].data
        for key, vec in vectors.items():
            idx = int(key)
            if not 0 <= idx < table.shape[0]:
                raise ValueError(f"embedding file refers to unknown token id {idx}")
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (self.cfg.d_w,):
                raise ValueError(
                    f"embedding for token {idx} has dimension {vec.shape[0]}, "
                    f"expected {self.cfg.d_w}"
                )
            table[idx] = vec

    def encode(self, items) -> Tensor:
        """Differentiable (N, out_dim) encodings, all >= 0, of N sentences in one graph.

        items holds one (tokens, mention_i, mention_j) triple per sentence.
        The gathered rows of all sentences sit in one layout with
        max(w // 2) zero rows before, between and after the sentences, so
        that no convolution window spans two sentences. Per width, one
        im2col takes each sentence's windows, one segment_matmul multiplies
        them by the filters in one GEMM per sentence, and one segment_max
        pools each sentence. So every row is bit-identical to the
        sentence's encoding alone, whichever bag it sits in, while the
        graph has a fixed number of nodes per bag.
        """
        cfg = self.cfg
        sizes = [len(tokens) for tokens, _, _ in items]
        if not sizes:
            raise ValueError("cannot encode an empty list of sentences")
        if min(sizes) == 0:
            raise ValueError("cannot encode an empty token sequence")
        total = sum(sizes)
        ids = np.fromiter(itertools.chain.from_iterable(tokens for tokens, _, _ in items),
                          dtype=np.int64, count=total)
        if ids.min() < 0 or ids.max() >= cfg.token_rows:
            bad = int(ids[(ids < 0) | (ids >= cfg.token_rows)][0])
            raise ValueError(f"unknown token id {bad} (table has {cfg.token_rows} rows)")
        sentence = np.repeat(np.arange(len(sizes)), sizes)
        first = np.cumsum(sizes) - sizes  # first row of each sentence
        t = (np.arange(total) - first[sentence])[:, None]  # token index within its sentence
        spans = np.array([(*mi, *mj) for _, mi, mj in items], dtype=np.int64)[sentence]
        pos = _position_rows(t, spans[:, 0::2], spans[:, 1::2], cfg.pos_clip)  # (total, 2)
        x = ad.concat([
            ad.take(self.params["embed.tokens"], ids),
            ad.take(self.params["embed.pos_i"], pos[:, 0]),
            ad.take(self.params["embed.pos_j"], pos[:, 1]),
        ], axis=1)
        gap = max(w // 2 for w in cfg.widths)  # the most zero rows a window reaches past
        rows = np.arange(total) + gap * (sentence + 1)
        layout = ad.put(x, rows, (total + gap * (len(sizes) + 1), x.shape[1]))
        pooled = []
        for w in sorted(cfg.widths):
            cols = ad.im2col(layout, w, rows - (w - 1) // 2)
            conv = ad.add(ad.segment_matmul(cols, self.params[f"enc.w{w}.filters"], sizes),
                          self.params[f"enc.w{w}.bias"])
            pooled.append(ad.segment_max(conv, sizes))
        return ad.relu(ad.concat(pooled, axis=1))
