"""Optimizer checks: the update rule against a hand-rolled reference, plus
checkpoint round trips and the loader's refusal of damaged files."""

import hashlib
import json
import math
import re
import shutil

import numpy as np
import pytest

from relexpl import autodiff as ad
from relexpl import optim
from relexpl.autodiff import Tensor
from relexpl.cli import EXIT_INVALID, EXIT_MISSING_INPUT, EXIT_OK, main
from relexpl.optim import Adam, load_checkpoint, restore_params, save_checkpoint

import oracle_engine as oe

TINY_GEN = {"n_relations": 2, "vocab_size": 30, "n_fget": 2, "n_mention_tokens": 6,
            "n_train_bags": 12, "n_test_bags": 4, "sentences_per_bag": [2, 2],
            "sentence_len": [4, 5]}
TINY_ENCODER = ["--d-w", "3", "--d-p", "2", "--pos-clip", "4",
                "--widths", "2", "--channels", "2"]


def reference_adam(x0, grads, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Independent reference: the textbook update with bias correction."""
    x = x0.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        x = x - lr * mh / (np.sqrt(vh) + eps)
    return x


class PerParameterAdam:
    """The per-parameter step the flat state replaced, kept as the reference
    the flat step must equal bit for bit: m, v and two scratch arrays per
    parameter, the same operations in the same order."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.buf = {name: (np.empty_like(p.data), np.empty_like(p.data))
                    for name, p in params.items()}

    def step(self, grads):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name in sorted(self.params):
            g, m, v = grads[name], self.m[name], self.v[name]
            a, b = self.buf[name]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v += a
            np.divide(m, b1t, out=a)
            a *= self.lr
            np.divide(v, b2t, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            self.params[name].data -= a


# one tensor larger than a block and not a multiple of it, so that blocks
# cover its head, its tail and whole small tensors around it; a 0-d and a
# size-0 tensor
FLAT_SHAPES = {"a.w": (3, 2), "b.big": (3, optim.BLOCK // 2 + 7), "c.scalar": (),
               "d.empty": (0, 4), "e.b": (5,)}


def _flat_case(seed):
    rng = np.random.default_rng(seed)
    start = {n: rng.normal(size=s) for n, s in FLAT_SHAPES.items()}
    flat = {n: Tensor(a.copy(), requires_grad=True) for n, a in start.items()}
    ref = {n: Tensor(a.copy(), requires_grad=True) for n, a in start.items()}
    return rng, Adam(flat, lr=0.01), PerParameterAdam(ref, lr=0.01)


class TestAdamUpdate:
    def test_matches_reference_over_steps(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(7)]

        p = Tensor(x0.copy(), requires_grad=True)
        opt = Adam({"w": p}, lr=0.01)
        for g in grads:
            opt.step({"w": g})
        np.testing.assert_allclose(p.data, reference_adam(x0, grads, lr=0.01), rtol=1e-12)

    def test_in_place_update_is_bit_equal_to_expression_form(self):
        # the allocating form the in-place step replaced: same ops, same order
        rng = np.random.default_rng(3)
        shapes = {"w": (3, 2), "b": (4,), "s": ()}
        params = {n: Tensor(rng.normal(size=s), requires_grad=True) for n, s in shapes.items()}
        ref = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr)
        for t in range(1, 8):
            grads = {}
            for n, p in params.items():
                g = grads[n] = rng.normal(size=shapes[n])
                m[n] = m[n] * b1 + (1.0 - b1) * g
                v[n] = v[n] * b2 + (1.0 - b2) * g * g
                ref[n] = ref[n] - lr * (m[n] / (1.0 - b1 ** t)) / (
                    np.sqrt(v[n] / (1.0 - b2 ** t)) + eps)
            opt.step(grads)
            for n, p in params.items():
                np.testing.assert_array_equal(p.data, ref[n])

    def test_flat_step_is_bit_equal_to_per_parameter_step(self):
        rng, opt, ref = _flat_case(5)
        assert opt._m.size > optim.BLOCK and opt._m.size % optim.BLOCK
        for _ in range(6):
            grads = {n: rng.normal(size=s) for n, s in FLAT_SHAPES.items()}
            grads["a.w"] = np.asfortranarray(grads["a.w"])  # a strided gradient reads alike
            opt.step(grads)
            ref.step(grads)
            for n in FLAT_SHAPES:
                np.testing.assert_array_equal(opt.params[n].data, ref.params[n].data)
            np.testing.assert_array_equal(opt._m, np.concatenate(
                [ref.m[n].reshape(-1) for n in sorted(FLAT_SHAPES)]))
            np.testing.assert_array_equal(opt._v, np.concatenate(
                [ref.v[n].reshape(-1) for n in sorted(FLAT_SHAPES)]))

    def test_refused_step_changes_no_state(self):
        rng, opt, _ = _flat_case(6)
        opt.step({n: rng.normal(size=s) for n, s in FLAT_SHAPES.items()})
        before = (opt.t, opt._m.copy(), opt._v.copy(),
                  {n: p.data.copy() for n, p in opt.params.items()})
        good = {n: rng.normal(size=s) for n, s in FLAT_SHAPES.items()}
        for bad in ({n: g for n, g in good.items() if n != "e.b"},
                    {**good, "b.big": np.ones(3)}):
            with pytest.raises(ValueError, match="'(e.b|b.big)'"):
                opt.step(bad)
            assert opt.t == before[0]
            np.testing.assert_array_equal(opt._m, before[1])
            np.testing.assert_array_equal(opt._v, before[2])
            for n, p in opt.params.items():
                np.testing.assert_array_equal(p.data, before[3][n])

    def test_state_is_allocated_once(self):
        _, opt, _ = _flat_case(7)
        full = sum(math.prod(s) for s in FLAT_SHAPES.values())
        assert opt._m.shape == opt._v.shape == (full,)
        m, v = opt._m, opt._v
        opt.step({n: np.ones(s) for n, s in FLAT_SHAPES.items()})
        assert opt._m is m and opt._v is v

    def test_strided_parameter_rejected(self):
        data = np.zeros((2, 3)).T  # the flat state's slices of it would be copies
        with pytest.raises(ValueError, match="'w' is not C-contiguous"):
            Adam({"w": Tensor(data, requires_grad=True)})

    def test_first_step_magnitude_is_lr(self):
        # with bias correction, |first update| ~ lr for any gradient scale
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = Adam({"w": p}, lr=0.05)
        opt.step({"w": np.array([1e-3, 1.0, 1e3, -57.0])})
        np.testing.assert_allclose(np.abs(p.data), 0.05, rtol=1e-4)

    def test_step_only_reads_grads(self):
        p = Tensor(np.ones(2), requires_grad=True)
        g = np.array([1.0, -2.0])
        Adam({"w": p}).step({"w": g})
        np.testing.assert_array_equal(g, [1.0, -2.0])

    def test_missing_grad_raises(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam({"w": p, "b": Tensor(np.ones(1), requires_grad=True)})
        with pytest.raises(ValueError, match="'w' has no gradient"):
            opt.step({"b": np.ones(1)})
        with pytest.raises(ValueError, match=r"'w': gradient of shape \(3,\)"):
            opt.step({"b": np.ones(1), "w": np.ones(3)})
        assert opt.t == 0 and np.all(p.data == 1.0)  # a refused step changes nothing

    def test_bad_lr_raises(self):
        for lr in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="lr"):
                Adam({}, lr=lr)

    def test_descends_on_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam({"w": p}, lr=0.1)
        for _ in range(500):
            loss = oe.reduce_sum(oe.mul(p, p))
            (g,) = ad.backward(loss, [p])
            opt.step({"w": g})
        assert np.all(np.abs(p.data) < 1e-2)


def _entry(ckpt, name, entry):
    return {**ckpt, "params": {**ckpt["params"], name: entry}}


def _copy_checkpoint(header, dest_dir):
    """Copy a format-3 checkpoint, header and data file, into dest_dir."""
    for src in (header, header.with_suffix(".bin")):
        shutil.copy(src, dest_dir / src.name)
    return dest_dir / header.name


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    config = root / "gen.json"
    config.write_text(json.dumps(TINY_GEN))
    assert main(["gen-data", "--config", str(config), "--out", str(root / "data"),
                 "--seed", "2"]) == EXIT_OK
    assert main(["train", "--corpus", str(root / "data" / "train.jsonl"),
                 "--out", str(root / "run"), "--epochs", "1", "--seed", "2",
                 *TINY_ENCODER]) == EXIT_OK
    return root


def _truncated(text):
    return text[: len(text) // 2]


def _shape_mismatch(text):
    ckpt = json.loads(text)
    name = sorted(ckpt["params"])[0]
    entry = ckpt["params"][name]
    return json.dumps(_entry(ckpt, name, {**entry, "shape": entry["shape"] + [2]}))


# Format-3 faults. Each damage maps (header, data bytes) to a damaged pair
# and targets the first or last tensor in sorted-name order, so it applies
# to any checkpoint; {first} and {last} in the cause stand for their names.

def _names(h):
    return sorted(h["params"])


def _set(h, which, **fields):
    """h with fields of one tensor's entry replaced (None drops the field)."""
    name = _names(h)[which]
    entry = {k: v for k, v in {**h["params"][name], **fields}.items() if v is not None}
    return _entry(h, name, entry)


def _last(h, key):
    return h["params"][_names(h)[-1]][key]


def _flip_byte(h, data):
    i = _last(h, "offset") + 3
    return h, data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]


def _nan_with_digest(h, data):
    start = _last(h, "offset")
    data = data[:start] + np.array([np.nan], dtype="<f8").tobytes() + data[start + 8:]
    return _set(h, -1, sha256=hashlib.sha256(data[start:]).hexdigest()), data


def _swap_offsets(h, data):
    first, last = _names(h)[0], _names(h)[-1]
    swapped = _set(h, 0, offset=h["params"][last]["offset"])
    return _set(swapped, -1, offset=h["params"][first]["offset"]), data


def _as_text(h, data):
    return json.dumps(h, sort_keys=True), data


FORMAT_3_FAULTS = {
    "flipped-byte": (_flip_byte, "{last}: sha256 mismatch"),
    "truncated-bin": (lambda h, d: (h, d[:-8]), r"{last}: shape \[.*\] needs bytes"),
    "extended-bin": (lambda h, d: (h, d + bytes(8)), "{last}: the last tensor ends at byte"),
    "offset-skips": (lambda h, d: (_set(h, -1, offset=_last(h, "offset") + 8), d),
                     "{last}: offset"),
    "offset-overlaps": (lambda h, d: (_set(h, -1, offset=_last(h, "offset") - 8), d),
                        "{last}: offset"),
    "offsets-out-of-order": (_swap_offsets, "{first}: offset"),
    "shape-too-large": (lambda h, d: (_set(h, -1, shape=_last(h, "shape") + [2]), d),
                        r"{last}: shape \[.*, 2\] needs bytes"),
    "shape-too-small": (lambda h, d: (_set(h, -1, shape=[1]), d),
                        "{last}: the last tensor ends at byte"),
    "nan-with-digest": (_nan_with_digest, "{last} holds non-finite values"),
    "entry-not-object": (lambda h, d: (_entry(h, _names(h)[-1], [0]), d),
                         "{last} entry must be a JSON object"),
    "offset-missing": (lambda h, d: (_set(h, -1, offset=None), d),
                       "{last} entry is missing key 'offset'"),
    "offset-str": (lambda h, d: (_set(h, -1, offset="0"), d),
                   "{last} entry key 'offset' must be int"),
    "offset-bool": (lambda h, d: (_set(h, 0, offset=False), d),
                    "{first} entry key 'offset' must be int"),
    "sha256-int": (lambda h, d: (_set(h, -1, sha256=5), d),
                   "{last} entry key 'sha256' must be str"),
    "shape-str": (lambda h, d: (_set(h, -1, shape="4"), d),
                  "{last} entry key 'shape' must be list"),
    "shape-negative": (lambda h, d: (_set(h, -1, shape=[2, -2]), d),
                       "{last}: shape .* is not a list of sizes"),
    "entry-extra-field": (lambda h, d: (_set(h, -1, data="AAAA"), d),
                          "{last} entry has unknown key 'data'"),
    "extra-missing": (lambda h, d: ({k: v for k, v in h.items() if k != "extra"}, d),
                      "checkpoint header is missing key 'extra'"),
    "extra-list": (lambda h, d: ({**h, "extra": [1]}, d),
                   "checkpoint header key 'extra' must be dict"),
    "params-list": (lambda h, d: ({**h, "params": []}, d),
                    "checkpoint header key 'params' must be dict"),
    "header-extra-field": (lambda h, d: ({**h, "data": "checkpoint.bin"}, d),
                           "checkpoint header has unknown key 'data'"),
}


def _damage_checkpoint(header_path, damage):
    """Apply a FORMAT_3_FAULTS damage in place; return its cause's tensor names."""
    header = json.loads(header_path.read_text())
    names = _names(header)
    bin_path = header_path.with_suffix(".bin")
    header, data = damage(header, bin_path.read_bytes())
    header_path.write_text(json.dumps(header, sort_keys=True))
    bin_path.write_bytes(data)
    return {"first": re.escape(repr(names[0])), "last": re.escape(repr(names[-1]))}


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        params = {
            "embed.tokens": Tensor(rng.normal(size=(5, 3)), requires_grad=True),
            "head.bias": Tensor(rng.normal(size=4), requires_grad=True),
            "scalar": Tensor(rng.normal(size=()), requires_grad=True),
        }
        path = str(tmp_path / "model.json")
        save_checkpoint(path, params, extra={"seed": 7})
        arrays, extra = load_checkpoint(path)
        assert extra == {"seed": 7}
        for name, p in params.items():
            np.testing.assert_array_equal(arrays[name], p.data)

    def test_save_is_byte_deterministic(self, tmp_path):
        params = {"b": Tensor(np.array([1.0, 2.0])), "a": Tensor(np.array([[3.0]]))}
        p1, p2 = str(tmp_path / "1.json"), str(tmp_path / "2.json")
        save_checkpoint(p1, params)
        save_checkpoint(p2, dict(reversed(list(params.items()))))
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert (tmp_path / "1.bin").read_bytes() == (tmp_path / "2.bin").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["1.bin", "1.json", "2.bin", "2.json"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_not_saved(self, tmp_path, bad):
        w = np.zeros((2, 2))
        w[1, 0] = bad
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="parameter 'w' holds non-finite values"):
            save_checkpoint(str(path), {"a": Tensor(np.ones(2)), "w": Tensor(w)})
        assert list(tmp_path.iterdir()) == []

    def test_restore_checks_names_and_shapes(self, tmp_path):
        path = str(tmp_path / "m.json")
        save_checkpoint(path, {"w": Tensor(np.zeros((2, 2)))})
        arrays, _ = load_checkpoint(path)
        with pytest.raises(ValueError, match="mismatch"):
            restore_params({"other": Tensor(np.zeros((2, 2)))}, arrays)
        with pytest.raises(ValueError, match="shape"):
            restore_params({"w": Tensor(np.zeros(3))}, arrays)

    def test_format_field_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 99, "params": {}}')
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("payload", [
        {"format": 1, "params": {"w": {"shape": [2], "data": [1.0, 2.0]}}},
        {"format": 2, "params": {"w": {"shape": [1], "sha256": hashlib.sha256(
            np.zeros(1).tobytes()).hexdigest(), "data": "AAAAAAAAAAA="}}},
    ], ids=["format-1", "format-2"])
    def test_formats_1_and_2_are_unsupported(self, tiny_run, tmp_path, capsys, payload):
        """Nothing writes the inline-JSON formats 1 and 2 any more, and nothing reads them."""
        ckpt = json.loads((tiny_run / "run" / "checkpoint.json").read_text())
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**payload, "extra": ckpt["extra"]}))
        fmt = payload["format"]
        with pytest.raises(ValueError, match=f"unsupported checkpoint format {fmt}, expected 3"):
            load_checkpoint(str(path))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path),
                     "--corpus", str(tiny_run / "data" / "test.jsonl"),
                     "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert "unsupported checkpoint format" in err and "Traceback" not in err

    def test_round_trip_bit_exact_edge_values(self, tmp_path):
        params = {
            "edge": Tensor(np.array([-0.0, 5e-324, 1e308, -1e308, 0.0])),
            "scalar": Tensor(np.array(-0.0)),
            "grid": Tensor(np.arange(6.0).reshape(2, 3).T),  # non-contiguous view
        }
        path = str(tmp_path / "edge.json")
        save_checkpoint(path, params)
        arrays, extra = load_checkpoint(path)
        assert extra == {}
        for name, p in params.items():
            assert arrays[name].dtype == np.float64 and arrays[name].shape == p.data.shape
            assert arrays[name].tobytes() == np.ascontiguousarray(p.data).tobytes()

    @pytest.mark.parametrize("damage, cause", [
        (lambda c: [], "JSON object"),
        (lambda c: {k: v for k, v in c.items() if k != "params"}, "'params'"),
        (lambda c: {**c, "extra": [1]}, "'extra'"),
        (lambda c: _entry(c, "w", None), "'w'.*entry"),
        (lambda c: _entry(c, "w", {**c["params"]["w"], "shape": "4"}), "'w'.*'shape'"),
        (lambda c: _entry(c, "w", {**c["params"]["w"], "shape": [2, -2]}), "'w'.*shape"),
        (lambda c: _entry(c, "w", {**c["params"]["w"], "shape": [2, 3]}), "'w'.*bytes"),
        (lambda c: _entry(c, "w", {**c["params"]["w"], "data": [0.0] * 4}), "'w'.*'data'"),
        (lambda c: _entry(c, "w", {k: v for k, v in c["params"]["w"].items()
                                   if k != "sha256"}), "'w'.*'sha256'"),
        (lambda c: {**c, "format": True}, "format"),
    ])
    def test_structural_faults_name_their_cause(self, tmp_path, damage, cause):
        path = tmp_path / "m.json"
        save_checkpoint(str(path), {"w": Tensor(np.arange(4.0))}, extra={"seed": 1})
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=cause):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("damage", [
        lambda text, data: (_truncated(text), data),
        lambda text, data: ("[]", data),
        lambda text, data: _as_text(*_nan_with_digest(json.loads(text), data)),
        lambda text, data: (_shape_mismatch(text), data),
    ], ids=["truncated", "list", "nan", "shape"])
    def test_eval_exits_3_without_traceback(self, tiny_run, tmp_path, capsys, damage):
        ckpt = _copy_checkpoint(tiny_run / "run" / "checkpoint.json", tmp_path)
        text, data = damage(ckpt.read_text(), ckpt.with_suffix(".bin").read_bytes())
        ckpt.write_text(text)
        ckpt.with_suffix(".bin").write_bytes(data)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", str(tiny_run / "data" / "test.jsonl"),
                     "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert "invalid input" in err and "Traceback" not in err

    @pytest.mark.parametrize("damage, cause", [
        (lambda cfg: ["x"], "model config must be a JSON object"),
        (lambda cfg: {**cfg, "encoder": 5}, "'encoder' must be dict"),
        (lambda cfg: {**cfg, "encoder": [1]}, "'encoder' must be dict"),
        (lambda cfg: {k: v for k, v in cfg.items() if k != "d_e"}, "missing key 'd_e'"),
        (lambda cfg: {**cfg, "encoder": {k: v for k, v in cfg["encoder"].items()
                                         if k != "d_w"}}, "encoder config is missing key 'd_w'"),
        (lambda cfg: {**cfg, "dropout": 0.5}, "unknown key 'dropout'"),
        (lambda cfg: {**cfg, "encoder": {**cfg["encoder"], "zz": 1}},
         "encoder config has unknown key 'zz'"),
        (lambda cfg: {**cfg, "n_relations": "3"}, "'n_relations' must be int"),
        (lambda cfg: {**cfg, "fusion": 1}, "'fusion' must be bool"),
        (lambda cfg: {**cfg, "repr_mode": "words"}, "'repr_mode' must be one of"),
        (lambda cfg: {**cfg, "encoder": {**cfg["encoder"], "widths": [2, "3"]}},
         "'widths' must be a list of ints"),
        (lambda cfg: {**cfg, "encoder": {**cfg["encoder"], "channels": 4.0}},
         "'channels' must be int"),
        (None, "no model 'config'"),
    ])
    def test_eval_config_faults_exit_3(self, tiny_run, tmp_path, capsys, damage, cause):
        path = _copy_checkpoint(tiny_run / "run" / "checkpoint.json", tmp_path)
        ckpt = json.loads(path.read_text())
        if damage is None:
            del ckpt["extra"]["config"]
        else:
            ckpt["extra"]["config"] = damage(ckpt["extra"]["config"])
        path.write_text(json.dumps(ckpt))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path),
                     "--corpus", str(tiny_run / "data" / "test.jsonl"),
                     "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert "invalid input" in err and "Traceback" not in err
        assert cause in err

    def test_eval_accepts_undamaged_checkpoint(self, tiny_run, tmp_path):
        assert main(["eval", "--checkpoint", str(tiny_run / "run" / "checkpoint.json"),
                     "--corpus", str(tiny_run / "data" / "test.jsonl"),
                     "--out", str(tmp_path / "eval")]) == EXIT_OK


class TestFormat3:
    """The header-plus-data layout: what is written, in which order, and
    the refusal of every damaged pair."""

    PARAMS = {"a": np.ones(2), "w": np.arange(4.0)}

    def _save(self, path, **kw):
        save_checkpoint(str(path), {n: Tensor(a) for n, a in self.PARAMS.items()}, **kw)

    def test_layout(self, tmp_path):
        self._save(tmp_path / "m.json", extra={"seed": 1})
        header = json.loads((tmp_path / "m.json").read_text())
        data = (tmp_path / "m.bin").read_bytes()
        assert data == np.ones(2).tobytes() + np.arange(4.0).tobytes()
        assert header == {"extra": {"seed": 1}, "format": 3, "params": {
            "a": {"offset": 0, "shape": [2], "sha256": hashlib.sha256(data[:16]).hexdigest()},
            "w": {"offset": 16, "shape": [4], "sha256": hashlib.sha256(data[16:]).hexdigest()},
        }}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin", "m.json"]

    def test_header_is_renamed_into_place_last(self, tmp_path, monkeypatch):
        replaced = []
        real = optim.os.replace

        def spy(src, dst):
            replaced.append(dst)
            real(src, dst)

        monkeypatch.setattr(optim.os, "replace", spy)
        self._save(tmp_path / "m.json")
        assert replaced == [str(tmp_path / "m.bin"), str(tmp_path / "m.json")]

    def test_header_pins_its_data_file(self, tmp_path):
        # a save cut off between the two renames: new data beside the old header
        self._save(tmp_path / "m.json")
        save_checkpoint(str(tmp_path / "new.json"),
                        {"a": Tensor(np.ones(2)), "w": Tensor(np.arange(4.0) + 1.0)})
        shutil.copy(tmp_path / "new.bin", tmp_path / "m.bin")
        with pytest.raises(ValueError, match="'w': sha256 mismatch"):
            load_checkpoint(str(tmp_path / "m.json"))

    def test_header_cannot_be_its_own_data_file(self, tmp_path):
        with pytest.raises(ValueError, match="its own data file"):
            self._save(tmp_path / "m.bin")
        assert list(tmp_path.iterdir()) == []

    def test_missing_data_file_names_it(self, tmp_path):
        self._save(tmp_path / "m.json")
        (tmp_path / "m.bin").unlink()
        with pytest.raises(FileNotFoundError, match="m.bin"):
            load_checkpoint(str(tmp_path / "m.json"))

    @pytest.mark.parametrize("damage, cause", FORMAT_3_FAULTS.values(),
                             ids=FORMAT_3_FAULTS.keys())
    def test_faults_name_their_cause(self, tmp_path, damage, cause):
        path = tmp_path / "m.json"
        self._save(path, extra={"seed": 1})
        names = _damage_checkpoint(path, damage)
        with pytest.raises(ValueError, match=cause.format(**names)):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("damage, cause", FORMAT_3_FAULTS.values(),
                             ids=FORMAT_3_FAULTS.keys())
    def test_eval_faults_exit_3(self, tiny_run, tmp_path, capsys, damage, cause):
        ckpt = _copy_checkpoint(tiny_run / "run" / "checkpoint.json", tmp_path)
        names = _damage_checkpoint(ckpt, damage)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", str(tiny_run / "data" / "test.jsonl"),
                     "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert "invalid input" in err and "Traceback" not in err
        assert re.search(cause.format(**names), err)

    def test_eval_of_missing_data_file_exits_2(self, tiny_run, tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.json"
        shutil.copy(tiny_run / "run" / "checkpoint.json", ckpt)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", str(tiny_run / "data" / "test.jsonl"),
                     "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == EXIT_MISSING_INPUT
        assert "missing input" in err and "checkpoint.bin" in err and "Traceback" not in err
