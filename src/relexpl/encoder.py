"""Sentence encoder: embeddings, position features, multi-width convolutions.

Per token the encoder concatenates a word embedding with two position
embeddings (signed clipped distance to each mention span). Convolution
banks of several widths run over that sequence; each bank max-pools over
time; the pooled vectors are concatenated and passed through a ReLU, so
sentence encodings are nonnegative.

The encoder takes the sentences of a bag together and records them as one
engine node (autodiff.first_order) with its own numpy forward and VJP. The
forward is one gather per table, and per width one window gather, one GEMM
call per sentence, one bias add and one per-sentence max. Each encoding is
bit-identical to that of the sentence encoded alone. The VJP forms the
input gradient only for the columns of tables that require grad, so the
frozen token table costs no backward work.

The token table is shared between words and FGET types: type t lives at
row vocab_size + t. Word/type rows stay frozen during training; position
tables and filter banks are trainable.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import jsonio, kernels
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
        jsonio.check_fields(d, "encoder config", {
            "vocab_size": jsonio.INT, "n_fget": jsonio.INT, "d_w": jsonio.INT,
            "d_p": jsonio.INT, "pos_clip": jsonio.INT, "widths": jsonio.INTS,
            "channels": jsonio.INT,
        }, exact=True)
        cfg = cls(**{**d, "widths": tuple(d["widths"])})
        cfg.validate()
        return cfg


def checked_array(arrays: dict[str, np.ndarray], name: str,
                  shape: tuple[int, ...]) -> np.ndarray:
    """arrays[name], a checkpoint's tensor for the parameter `name`, checked to have `shape`."""
    if name not in arrays:
        raise ValueError(f"checkpoint has no parameter {name!r}")
    a = arrays[name]
    if a.shape != shape:
        raise ValueError(f"parameter {name!r}: checkpoint shape {a.shape} != model {shape}")
    return a


def add_param(params: dict[str, Tensor], init: np.random.Generator | dict[str, np.ndarray],
              name: str, shape: tuple[int, ...], zeros: bool = False,
              requires_grad: bool = True):
    """Set params[name] to a new parameter of the given shape.

    With a Generator for init the values are N(0, 0.1) draws, or zeros
    (which draw nothing), so a seed fixes every parameter through the
    order of these calls. With a checkpoint's arrays for init the
    parameter adopts arrays[name], checked by `checked_array`, and nothing
    is drawn.
    """
    if isinstance(init, np.random.Generator):
        data = np.zeros(shape) if zeros else init.normal(0.0, 0.1, size=shape)
    else:
        data = checked_array(init, name, shape)
    params[name] = Tensor(data, requires_grad=requires_grad)


def _position_rows(t: np.ndarray, start, end, clip: int) -> np.ndarray:
    """Position-table row of token t for the mention span [start, end), elementwise
    over broadcast int arrays: the signed distance to the span's nearest token
    (0 inside it), clipped to [-clip, clip], plus clip."""
    after = np.where(t >= end, np.minimum(t - (end - 1), clip), 0)
    return np.where(t < start, np.maximum(t - start, -clip), after) + clip


class SentenceEncoder:
    """Owns the embedding tables and filter banks; encodes the sentences of a bag to R^d."""

    def __init__(self, cfg: EncoderConfig, init: np.random.Generator | dict[str, np.ndarray]):
        """init draws the parameters or holds a checkpoint's arrays to adopt (see add_param)."""
        cfg.validate()
        self.cfg = cfg
        d_in = cfg.d_w + 2 * cfg.d_p
        n_pos_rows = 2 * cfg.pos_clip + 1
        self.params: dict[str, Tensor] = {}
        add_param(self.params, init, "embed.tokens", (cfg.token_rows, cfg.d_w),
                  requires_grad=False)
        add_param(self.params, init, "embed.pos_i", (n_pos_rows, cfg.d_p))
        add_param(self.params, init, "embed.pos_j", (n_pos_rows, cfg.d_p))
        for w in sorted(cfg.widths):
            add_param(self.params, init, f"enc.w{w}.filters", (w * d_in, cfg.channels))
            add_param(self.params, init, f"enc.w{w}.bias", (cfg.channels,), zeros=True)

    def load_embeddings(self, path: str):
        """Substitute pretrained word vectors: JSON {token_id: [floats]}."""
        vectors = jsonio.read_object(path)
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
        """(N, out_dim) encodings, all >= 0, of N sentences as one engine node.

        items holds one (tokens, mention_i, mention_j) triple per sentence.
        The gathered rows of all sentences sit in one layout with
        max(w // 2) zero rows before, between and after the sentences, so
        that no convolution window spans two sentences. Per width, one
        im2col takes each sentence's windows, one GEMM per sentence
        multiplies them by the filters, and one rows_max per sentence pools
        them. So every row is bit-identical to the sentence's encoding
        alone, whichever bag it sits in.

        The node's VJP (see `_encode_vjp`) is written out in numpy, as the
        engine's own VJPs are.
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
        table_rows = (ids, pos[:, 0], pos[:, 1])
        x = np.concatenate([table.data[r] for table, r in zip(self._tables(), table_rows)],
                           axis=1)
        gap = max(w // 2 for w in cfg.widths)  # the most zero rows a window reaches past
        rows = np.arange(total) + gap * (sentence + 1)
        layout = kernels.scatter_add_rows(total + gap * (len(sizes) + 1), rows, x)
        pooled, convs = [], []
        for w in sorted(cfg.widths):
            starts = rows - (w - 1) // 2
            cols = kernels.im2col(layout, w, starts)
            filters = self.params[f"enc.w{w}.filters"].data
            conv = np.empty((total, cfg.channels))
            lo = 0
            for n in sizes:
                np.matmul(cols[lo:lo + n], filters, out=conv[lo:lo + n])
                lo += n
            conv = np.add(conv, self.params[f"enc.w{w}.bias"].data)
            vals = np.empty((len(sizes), cfg.channels))
            winners = np.empty((len(sizes), cfg.channels), dtype=np.int64)
            lo = 0
            for i, n in enumerate(sizes):
                vals[i], winners[i] = kernels.rows_max(conv[lo:lo + n])
                winners[i] += lo
                lo += n
            pooled.append(vals)
            convs.append((w, starts, cols, winners))
        pooled = np.concatenate(pooled, axis=1)
        mask = (pooled > 0.0).astype(np.float64)
        layout_rows = layout.shape[0]
        banks = [self.params[f"enc.w{w}.{part}"]
                 for w in sorted(cfg.widths) for part in ("filters", "bias")]
        return ad.first_order(pooled * mask, (*self._tables(), *banks),
                              lambda g: self._encode_vjp(g * mask, convs, table_rows,
                                                         layout_rows, rows),
                              "encode")

    def _tables(self) -> tuple[Tensor, Tensor, Tensor]:
        """The embedding tables in layout column order: tokens, then both positions."""
        p = self.params
        return p["embed.tokens"], p["embed.pos_i"], p["embed.pos_j"]

    def _encode_vjp(self, g: np.ndarray, convs, table_rows, layout_rows: int,
                    rows: np.ndarray) -> list[np.ndarray | None]:
        """Gradients of encode's parents, in its parent order, from g, the gradient
        at the pooled values (the ReLU already applied).

        Per width, g goes back to the winning row of each sentence; the
        filters get cols^T g and the bias its column sums. The layout gets
        g F^T folded by col2im, computed only for the columns of the tables
        that require grad: the frozen token table's d_w columns of each
        window are never formed. Each table's rows then scatter-add into it.
        """
        c = self.cfg.channels
        tables = self._tables()
        dims = [t.shape[1] for t in tables]
        offsets = np.cumsum(dims) - dims
        live = [i for i, t in enumerate(tables) if t.requires_grad]
        keep = np.concatenate([np.arange(offsets[i], offsets[i] + dims[i]) for i in live]
                              ) if live else None  # layout columns that need a gradient
        banks, g_layout = [], None
        for j, (w, starts, cols, winners) in enumerate(convs):
            g_conv = np.zeros((cols.shape[0], c))
            g_conv[winners, np.arange(c)] += g[:, j * c:(j + 1) * c]
            banks += [cols.T @ g_conv, g_conv.sum(axis=0)]  # filters, bias
            if keep is not None:
                sel = (np.arange(w)[:, None] * sum(dims) + keep).ravel()  # filter rows
                filters = self.params[f"enc.w{w}.filters"].data
                folded = kernels.col2im(g_conv @ filters[sel].T, w, starts, layout_rows)
                g_layout = folded if g_layout is None else g_layout + folded
        out: list[np.ndarray | None] = [None] * len(tables)
        if keep is not None:
            g_x = g_layout[rows]
            lo = 0
            for i in live:
                out[i] = kernels.scatter_add_rows(tables[i].shape[0], table_rows[i],
                                                  np.ascontiguousarray(g_x[:, lo:lo + dims[i]]))
                lo += dims[i]
        return out + banks
