"""Sentence encoder: embeddings, position features, multi-width convolutions.

Per token the encoder concatenates a word embedding with two position
embeddings (signed clipped distance to each mention span). Convolution
banks of several widths run over that sequence; each bank max-pools over
time; the pooled vectors are concatenated and passed through a ReLU, so
sentence encodings are nonnegative.

The token table is shared between words and FGET types: type t lives at
row vocab_size + t. Word/type rows stay frozen during training; position
tables and filter banks are trainable.
"""

from __future__ import annotations

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
    return np.array(
        [relative_position(t, span, clip) + clip for t in range(length)], dtype=np.int64
    )


class SentenceEncoder:
    """Owns the embedding tables and filter banks; encodes one sentence to R^d."""

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

    def encode(self, tokens, mention_i: tuple[int, int], mention_j: tuple[int, int]) -> Tensor:
        """Differentiable encoding of one sentence, shape (out_dim,), >= 0."""
        cfg = self.cfg
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.size == 0:
            raise ValueError("cannot encode an empty token sequence")
        if ids.min() < 0 or ids.max() >= cfg.token_rows:
            bad = int(ids[(ids < 0) | (ids >= cfg.token_rows)][0])
            raise ValueError(f"unknown token id {bad} (table has {cfg.token_rows} rows)")
        length = ids.shape[0]
        parts = [
            ad.take(self.params["embed.tokens"], ids),
            ad.take(self.params["embed.pos_i"], position_ids(length, mention_i, cfg.pos_clip)),
            ad.take(self.params["embed.pos_j"], position_ids(length, mention_j, cfg.pos_clip)),
        ]
        x = ad.concat(parts, axis=1)
        pooled = [
            ad.rows_max(ad.conv1d(x, self.params[f"enc.w{w}.filters"], self.params[f"enc.w{w}.bias"]))
            for w in sorted(cfg.widths)
        ]
        return ad.relu(ad.concat(pooled))
