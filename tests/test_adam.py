"""Optimizer checks: the update rule against a hand-rolled reference, plus
checkpoint round trips and the loader's refusal of damaged files."""

import base64
import json

import numpy as np
import pytest

from relexpl import autodiff as ad
from relexpl.autodiff import Tensor
from relexpl.cli import EXIT_INVALID, EXIT_OK, main
from relexpl.optim import Adam, load_checkpoint, restore_params, save_checkpoint

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
        with pytest.raises(ValueError, match="lr"):
            Adam({}, lr=0.0)

    def test_descends_on_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam({"w": p}, lr=0.1)
        for _ in range(500):
            loss = ad.reduce_sum(ad.mul(p, p))
            (g,) = ad.backward(loss, [p])
            opt.step({"w": g})
        assert np.all(np.abs(p.data) < 1e-2)


def _entry(ckpt, name, entry):
    return {**ckpt, "params": {**ckpt["params"], name: entry}}


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


def _nan_format_1(text):
    ckpt = json.loads(text)
    params = {}
    for name, entry in ckpt["params"].items():
        values = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").tolist()
        params[name] = {"shape": entry["shape"], "data": values}
    params[name]["data"][0] = float("nan")
    return json.dumps({**ckpt, "format": 1, "params": params})


def _shape_mismatch(text):
    ckpt = json.loads(text)
    name = sorted(ckpt["params"])[0]
    entry = ckpt["params"][name]
    return json.dumps(_entry(ckpt, name, {**entry, "shape": entry["shape"] + [2]}))


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

    def test_reads_format_1_bitwise(self, tmp_path):
        values = {"w": np.array([[0.1, -0.0], [1e-310, -2.5e300]]), "s": np.array(3.0)}
        payload = {"format": 1, "extra": {"seed": 3}, "params": {
            name: {"shape": list(a.shape), "data": a.ravel().tolist()}
            for name, a in values.items()}}
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload))
        arrays, extra = load_checkpoint(str(path))
        assert extra == {"seed": 3}
        for name, a in values.items():
            assert arrays[name].dtype == np.float64 and arrays[name].shape == a.shape
            assert arrays[name].tobytes() == a.tobytes()

    def test_round_trip_bit_exact_edge_values(self, tmp_path):
        params = {
            "edge": Tensor(np.array([-0.0, 5e-324, 1e308, -1e308, 0.0])),
            "scalar": Tensor(np.array(-0.0)),
            "grid": Tensor(np.arange(6.0).reshape(2, 3).T),  # non-contiguous view
        }
        path = str(tmp_path / "edge.json")
        save_checkpoint(path, params)
        with open(path) as fh:
            assert json.load(fh)["format"] == 2
        arrays, extra = load_checkpoint(path)
        assert extra == {}
        for name, p in params.items():
            assert arrays[name].dtype == np.float64 and arrays[name].shape == p.data.shape
            assert arrays[name].tobytes() == np.ascontiguousarray(p.data).tobytes()

    def test_flipped_base64_char_names_tensor(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(str(path), {"a": Tensor(np.ones(2)), "w": Tensor(np.arange(4.0))})
        payload = json.loads(path.read_text())
        data = payload["params"]["w"]["data"]
        payload["params"]["w"]["data"] = ("B" if data[0] == "A" else "A") + data[1:]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="'w'.*sha256"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("damage, cause", [
        (lambda c: [], "JSON object"),
        (lambda c: {k: v for k, v in c.items() if k != "params"}, "'params'"),
        (lambda c: {**c, "extra": [1]}, "'extra'"),
        (lambda c: _entry(c, "w", None), "'w'.*entry"),
        (lambda c: _entry(c, "w", {**c["params"]["w"], "shape": "4"}), "'w'.*'shape'"),
        (lambda c: _entry(c, "w", {**c["params"]["w"], "shape": [2, -2]}), "'w'.*shape"),
        (lambda c: _entry(c, "w", {**c["params"]["w"], "shape": [2, 3]}), "'w'.*bytes"),
        (lambda c: _entry(c, "w", {**c["params"]["w"], "data": [0.0] * 4}), "'w'.*'data'"),
        (lambda c: _entry(c, "w", {**c["params"]["w"], "data": "@@@@"}), "'w'.*base64"),
        (lambda c: _entry(c, "w", {k: v for k, v in c["params"]["w"].items()
                                   if k != "sha256"}), "'w'.*'sha256'"),
        (lambda c: {**c, "format": 1, "params": {"w": {"shape": [3], "data": [1.0, 2.0]}}},
         "'w'.*fit"),
        (lambda c: {**c, "format": 1, "params": {"w": {"shape": [2], "data": [1.0, "x"]}}},
         "'w'.*numbers"),
        (lambda c: {**c, "format": 1, "params": {"w": {"shape": [2], "data": [1.0, float("nan")]}}},
         "'w'.*non-finite"),
        (lambda c: {**c, "format": True}, "format"),
    ])
    def test_structural_faults_name_their_cause(self, tmp_path, damage, cause):
        path = tmp_path / "m.json"
        save_checkpoint(str(path), {"w": Tensor(np.arange(4.0))}, extra={"seed": 1})
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=cause):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("damage", [_truncated, lambda text: "[]", _nan_format_1,
                                        _shape_mismatch],
                             ids=["truncated", "list", "nan", "shape"])
    def test_eval_exits_3_without_traceback(self, tiny_run, tmp_path, capsys, damage):
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(damage((tiny_run / "run" / "checkpoint.json").read_text()))
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
        ckpt = json.loads((tiny_run / "run" / "checkpoint.json").read_text())
        if damage is None:
            del ckpt["extra"]["config"]
        else:
            ckpt["extra"]["config"] = damage(ckpt["extra"]["config"])
        path = tmp_path / "checkpoint.json"
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
