"""Encoder checks: position features, output contract, gradients, embeddings."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relexpl import autodiff as ad
from relexpl.encoder import EncoderConfig, SentenceEncoder, _position_rows

from conftest import check_param_grads, conv1d
import oracle_engine as oe


def tiny_cfg(**kw):
    defaults = dict(vocab_size=30, n_fget=2, d_w=6, d_p=2, pos_clip=4,
                    widths=(2, 3), channels=3)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def make_encoder(seed=0, **kw):
    return SentenceEncoder(tiny_cfg(**kw), np.random.default_rng(seed))


def relative_position(token_idx, span, clip):
    """Signed distance to the nearest token of a half-open span, clipped to [-clip, clip]:
    the reference _position_rows is checked against."""
    start, end = span
    if start <= token_idx < end:
        return 0
    if token_idx < start:
        return max(token_idx - start, -clip)
    return min(token_idx - (end - 1), clip)


def position_ids(length, span, clip):
    """Table row per token of a sentence of the given length: offset shifted into [0, 2*clip]."""
    return np.array([relative_position(t, span, clip) + clip for t in range(length)])


class TestRelativePosition:
    def test_inside_span_is_zero(self):
        assert relative_position(3, (2, 5), clip=50) == 0
        assert relative_position(2, (2, 5), clip=50) == 0
        assert relative_position(4, (2, 5), clip=50) == 0

    def test_left_of_span(self):
        assert relative_position(0, (3, 5), clip=50) == -3

    def test_right_of_span(self):
        assert relative_position(6, (3, 5), clip=50) == 2

    def test_clipping(self):
        assert relative_position(200, (3, 4), clip=50) == 50
        assert relative_position(0, (90, 95), clip=50) == -50

    def test_position_ids_shift_into_table_range(self):
        ids = position_ids(6, (2, 4), clip=4)
        np.testing.assert_array_equal(ids, [2, 3, 4, 4, 5, 6])
        assert ids.min() >= 0 and ids.max() <= 8


@given(st.integers(0, 30), st.integers(-5, 35), st.integers(-5, 35), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_position_rows_match_relative_position(t, start, end, clip):
    # every span, reversed and empty ones too
    got = _position_rows(np.array([t]), start, end, clip)
    assert got.tolist() == [relative_position(t, (start, end), clip) + clip]


# the two encoders the benchmark runs: desk and paper
DESK = dict(vocab_size=400, n_fget=4, d_w=16, d_p=2, pos_clip=8, widths=(2, 3), channels=8)
PAPER = dict(vocab_size=400, n_fget=4, d_w=300, d_p=5, pos_clip=50, widths=(2, 3, 4, 5),
             channels=64)
ENCODERS = {name: SentenceEncoder(EncoderConfig(**kw), np.random.default_rng(5))
            for name, kw in (("desk", DESK), ("paper", PAPER))}


def reference_encoding(enc, tokens, mention_i, mention_j):
    """One sentence encoded by its definition, with conv1d and rows_max."""
    p, cfg = enc.params, enc.cfg
    n = len(tokens)
    x = oe.concat([
        ad.take(p["embed.tokens"], np.asarray(tokens, dtype=np.int64)),
        ad.take(p["embed.pos_i"], position_ids(n, mention_i, cfg.pos_clip)),
        ad.take(p["embed.pos_j"], position_ids(n, mention_j, cfg.pos_clip)),
    ], axis=1)
    return ad.relu(oe.concat([
        oe.rows_max(conv1d(x, p[f"enc.w{w}.filters"], p[f"enc.w{w}.bias"]))
        for w in sorted(cfg.widths)]))


@st.composite
def sentences(draw, max_len=12):
    """(tokens, mention_i, mention_j): lengths from 1 (shorter than any
    filter) up, spans anywhere, at either edge included."""
    n = draw(st.integers(1, max_len))
    tokens = draw(st.lists(st.integers(0, 403), min_size=n, max_size=n))

    def span():
        start = draw(st.integers(0, n - 1))
        return (start, draw(st.integers(start + 1, n)))

    return tokens, span(), span()


class TestBatchInvariance:
    """A sentence's encoding has the same bits in every bag, and equals its definition."""

    @pytest.mark.parametrize("name", ["desk", "paper"])
    @given(items=st.lists(sentences(), min_size=1, max_size=6))
    @example(items=[([7], (0, 1), (0, 1))])
    @example(items=[([1, 2, 3], (0, 1), (2, 3)), ([4], (0, 1), (0, 1)),
                    ([6, 7, 8, 9, 10, 11], (5, 6), (0, 2))])
    @settings(max_examples=40, deadline=None)
    def test_each_row_equals_the_sentence_alone(self, name, items):
        enc = ENCODERS[name]
        X = enc.encode(items).data
        assert X.shape == (len(items), enc.cfg.out_dim)
        for i, item in enumerate(items):
            alone = enc.encode([item]).data
            assert np.array_equal(X[i], alone[0])
            assert np.array_equal(X[i], reference_encoding(enc, *item).data)

    @pytest.mark.parametrize("name", ["desk", "paper"])
    def test_300_sentence_bag(self, name):
        enc = ENCODERS[name]
        rng = np.random.default_rng(300)
        items = []
        for _ in range(300):
            n = int(rng.integers(1, 9))
            start = int(rng.integers(0, n))
            items.append((rng.integers(0, 404, n).tolist(), (start, n), (0, start + 1)))
        X = enc.encode(items).data
        for i, item in enumerate(items):
            assert np.array_equal(X[i], enc.encode([item]).data[0]), i

    def test_parameter_gradients_of_a_bag_match_finite_differences(self):
        enc = make_encoder(seed=4)
        items = [([3, 9, 1, 12, 5], (0, 1), (4, 5)), ([7], (0, 1), (0, 1)),
                 ([2, 4, 6], (1, 3), (0, 1))]
        weights = np.random.default_rng(6).normal(size=(3, enc.cfg.out_dim))
        trainable = {n: p for n, p in enc.params.items() if p.requires_grad}
        check_param_grads(lambda: oe.reduce_sum(ad.mul(enc.encode(items), ad.Tensor(weights))),
                          trainable)

    def test_empty_bag_rejected(self):
        with pytest.raises(ValueError, match="empty list"):
            make_encoder().encode([])


class TestEncodeContract:
    def test_output_shape_and_nonnegative(self):
        enc = make_encoder()
        x = enc.encode([([1, 2, 3, 4, 5], (1, 2), (3, 4))])
        assert x.shape == (1, enc.cfg.out_dim) == (1, 6)
        assert np.all(x.data >= 0.0)

    def test_length_one_sentence_still_encodes(self):
        # widths 2 and 3 exceed the sentence length; zero padding covers it
        enc = make_encoder()
        x = enc.encode([([7], (0, 1), (0, 1))])
        assert x.shape == (1, 6)
        assert np.all(np.isfinite(x.data))

    def test_fget_rows_addressable(self):
        enc = make_encoder()
        # type tokens live at rows vocab_size + t
        x = enc.encode([([30, 31, 3], (0, 1), (1, 2))])
        assert np.all(np.isfinite(x.data))

    def test_unknown_token_rejected(self):
        enc = make_encoder()
        with pytest.raises(ValueError, match="unknown token id 32"):
            enc.encode([([1, 32], (0, 1), (1, 2))])

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            make_encoder().encode([([], (0, 1), (0, 1))])

    def test_deterministic_given_seed(self):
        a = make_encoder(seed=3).encode([([1, 2, 3, 4], (0, 1), (2, 3))])
        b = make_encoder(seed=3).encode([([1, 2, 3, 4], (0, 1), (2, 3))])
        np.testing.assert_array_equal(a.data, b.data)

    def test_depends_on_mention_positions(self):
        enc = make_encoder()
        a = enc.encode([([1, 2, 3, 4], (0, 1), (2, 3))])
        b = enc.encode([([1, 2, 3, 4], (1, 2), (2, 3))])
        assert not np.allclose(a.data, b.data)

    def test_frozen_and_trainable_split(self):
        enc = make_encoder()
        assert not enc.params["embed.tokens"].requires_grad
        for name in ("embed.pos_i", "embed.pos_j", "enc.w2.filters", "enc.w3.bias"):
            assert enc.params[name].requires_grad, name


class TestEncoderGradients:
    def test_all_trainable_params_match_finite_differences(self):
        enc = make_encoder(seed=1)
        tokens, mi, mj = [3, 9, 1, 12, 5], (1, 2), (3, 4)
        weights = np.random.default_rng(2).normal(size=enc.cfg.out_dim)

        def forward():
            return oe.reduce_sum(ad.mul(enc.encode([(tokens, mi, mj)]), weights))

        trainable = {n: p for n, p in enc.params.items() if p.requires_grad}
        check_param_grads(forward, trainable)

    def test_frozen_table_untouched_by_backward(self):
        enc = make_encoder(seed=1)
        root = oe.reduce_sum(enc.encode([([3, 9, 1], (0, 1), (2, 3))]))
        with pytest.raises(ad.GraphError):  # frozen: no gradient to take
            ad.backward(root, [enc.params["embed.tokens"]])
        g_pos, g_filters = ad.backward(root, [enc.params["embed.pos_i"],
                                              enc.params["enc.w2.filters"]])
        assert np.any(g_pos != 0.0) and np.any(g_filters != 0.0)


def _bag(rng, n_sentences, max_len):
    """Sentences of 1 to max_len tokens with mentions anywhere, as encode takes them."""
    items = []
    for _ in range(n_sentences):
        n = int(rng.integers(1, max_len + 1))
        start = int(rng.integers(0, n))
        items.append((rng.integers(0, 404, n).tolist(), (start, n), (0, start + 1)))
    return items


class TestEncoderNode:
    """encode is one engine node with its own numpy forward and VJP."""

    def test_one_recorded_node_per_call(self, monkeypatch):
        made = []
        node = ad._node
        monkeypatch.setattr(ad, "_node", lambda *args: made.append(args[3]) or node(*args))
        for name in ("desk", "paper"):
            ENCODERS[name].encode(_bag(np.random.default_rng(1), 4, 9))
        assert made == ["encode", "encode"]

    @pytest.mark.parametrize("name", ["desk", "paper"])
    def test_every_trainable_parameter_along_a_random_direction(self, name):
        """Per parameter, <grad, v> equals the central difference of the loss along a
        random direction v; a per-coordinate check at paper size would take 278k."""
        cfg = EncoderConfig(**{"desk": DESK, "paper": PAPER}[name])
        enc = SentenceEncoder(cfg, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        items = _bag(rng, 6, 30)
        weights = ad.Tensor(rng.normal(size=(len(items), enc.cfg.out_dim)))

        def loss():
            return oe.reduce_sum(ad.mul(enc.encode(items), weights))

        trainable = {n: p for n, p in enc.params.items() if p.requires_grad}
        assert sorted(trainable) == sorted(n for n in enc.params if n != "embed.tokens")
        grads = ad.backward(loss(), trainable.values())
        h = 1e-7  # the loss is piecewise bilinear; a small step seldom crosses a max or ReLU kink
        for (n, p), g in zip(trainable.items(), grads):
            v = rng.normal(size=p.shape)
            orig = p.data.copy()
            p.data[...] = orig + h * v
            up = float(loss().data)
            p.data[...] = orig - h * v
            down = float(loss().data)
            p.data[...] = orig
            numeric = (up - down) / (2 * h)
            assert abs(np.sum(g * v) - numeric) <= 1e-6 * max(1.0, abs(numeric)), n

    def test_trainable_token_table_matches_finite_differences(self):
        """With the token table trainable its d_w columns join the input gradient."""
        enc = make_encoder(seed=2)
        enc.params["embed.tokens"].requires_grad = True
        items = [([3, 9, 1, 12, 5], (0, 1), (4, 5)), ([31], (0, 1), (0, 1)),
                 ([2, 4, 2], (1, 3), (0, 1))]
        weights = np.random.default_rng(3).normal(size=(3, enc.cfg.out_dim))
        check_param_grads(lambda: oe.reduce_sum(ad.mul(enc.encode(items), ad.Tensor(weights))),
                          enc.params)

    def test_max_pool_tie_goes_to_the_lowest_row_of_each_sentence(self):
        enc = make_encoder(seed=3, widths=(1,), channels=2)
        p = enc.params
        p["enc.w1.filters"].data[...] = 0.0  # every row of a sentence ties at the bias
        p["enc.w1.bias"].data[...] = [1.0, 2.0]
        items = [([4, 5, 6], (1, 2), (2, 3)), ([7, 8], (0, 1), (1, 2))]
        root = oe.reduce_sum(enc.encode(items))
        (g,) = ad.backward(root, [p["enc.w1.filters"]])
        first = [np.concatenate([p["embed.tokens"].data[tokens[0]],
                                 p["embed.pos_i"].data[position_ids(1, mi, 4)[0]],
                                 p["embed.pos_j"].data[position_ids(1, mj, 4)[0]]])
                 for tokens, mi, mj in items]
        np.testing.assert_array_equal(g, np.outer(first[0] + first[1], [1.0, 1.0]))


class TestEmbeddingFile:
    def test_load_replaces_rows(self, tmp_path):
        enc = make_encoder()
        vec = [float(v) for v in range(6)]
        p = tmp_path / "emb.json"
        p.write_text(json.dumps({"4": vec}))
        enc.load_embeddings(str(p))
        np.testing.assert_array_equal(enc.params["embed.tokens"].data[4], vec)

    def test_unknown_id_rejected(self, tmp_path):
        enc = make_encoder()
        p = tmp_path / "emb.json"
        p.write_text(json.dumps({"99": [0.0] * 6}))
        with pytest.raises(ValueError, match="unknown token id"):
            enc.load_embeddings(str(p))

    def test_dimension_mismatch_rejected(self, tmp_path):
        enc = make_encoder()
        p = tmp_path / "emb.json"
        p.write_text(json.dumps({"2": [0.0] * 5}))
        with pytest.raises(ValueError, match="dimension"):
            enc.load_embeddings(str(p))


def test_config_validation():
    with pytest.raises(ValueError, match="widths"):
        EncoderConfig(vocab_size=10, n_fget=1, widths=()).validate()
    with pytest.raises(ValueError, match="widths"):
        EncoderConfig(vocab_size=10, n_fget=1, widths=(2, 2)).validate()
    with pytest.raises(ValueError, match="vocab_size"):
        EncoderConfig(vocab_size=0, n_fget=1).validate()


def test_config_round_trip():
    cfg = tiny_cfg()
    assert EncoderConfig.from_dict(cfg.to_dict()) == cfg
