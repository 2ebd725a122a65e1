"""Command-line checks: exit codes, artifact layout, manifests, embedded
provenance comments, and byte-level determinism of reruns."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import relexpl
from relexpl import cli
from relexpl.cli import EXIT_INVALID, EXIT_MISSING_INPUT, EXIT_OK, main
from relexpl.corpus import load_corpus
from relexpl.explain import load_scores
from relexpl.models import load_model
from relexpl.training import TrainResult

GEN_CONFIG = {
    "n_relations": 2,
    "vocab_size": 80,
    "n_fget": 3,
    "n_mention_tokens": 12,
    "n_train_bags": 60,
    "n_test_bags": 16,
    "sentences_per_bag": [2, 3],
    "sentence_len": [5, 7],
    "irrelevant_rate": 0.4,
    "negative_rate": 0.5,
    "test_negative_rate": 0.0,
}

SMALL_ENCODER = ["--d-w", "8", "--d-p", "2", "--pos-clip", "6",
                 "--widths", "2,3", "--channels", "3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "gen.json"
    config.write_text(json.dumps(GEN_CONFIG))
    assert main(["gen-data", "--config", str(config),
                 "--out", str(root / "data"), "--seed", "1"]) == EXIT_OK
    assert main(["train", "--corpus", str(root / "data" / "train.jsonl"),
                 "--out", str(root / "run"), "--epochs", "2", "--lr", "0.01",
                 "--seed", "1", *SMALL_ENCODER]) == EXIT_OK
    return root


class TestGenData:
    def test_writes_valid_splits(self, workspace):
        train = load_corpus(str(workspace / "data" / "train.jsonl"))
        test = load_corpus(str(workspace / "data" / "test.jsonl"))
        assert len(train) == 60 and len(test) == 16

    def test_same_seed_identical_files(self, workspace, tmp_path):
        config = workspace / "gen.json"
        for out in ("a", "b"):
            assert main(["gen-data", "--config", str(config),
                         "--out", str(tmp_path / out), "--seed", "7"]) == EXIT_OK
        for name in ("train.jsonl", "test.jsonl", "manifest.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["gen-data", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_MISSING_INPUT

    def test_invalid_config_exits_3(self, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({**GEN_CONFIG, "n_relations": 0}))
        code = main(["gen-data", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID

    def test_unknown_config_key_exits_3(self, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({**GEN_CONFIG, "bogus_knob": 1}))
        assert main(["gen-data", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == EXIT_INVALID


class TestManifests:
    def test_manifest_records_run_identity(self, workspace):
        manifest = json.loads((workspace / "run" / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 1
        assert manifest["outputs"] == ["checkpoint.json", "checkpoint.bin"]
        assert len(manifest["config_hash"]) == 64
        assert manifest["config"]["epochs"] == 2
        assert "version" in manifest
        assert "best_val_auc" in manifest["metrics"]

    def test_every_command_writes_a_manifest(self, workspace, tmp_path):
        ckpt = str(workspace / "run" / "checkpoint.json")
        test_corpus = str(workspace / "data" / "test.jsonl")
        assert main(["eval", "--checkpoint", ckpt, "--corpus", test_corpus,
                     "--out", str(tmp_path / "e")]) == EXIT_OK
        assert main(["explain", "--checkpoint", ckpt, "--corpus", test_corpus,
                     "--out", str(tmp_path / "x")]) == EXIT_OK
        for sub in ("e", "x"):
            assert (tmp_path / sub / "manifest.json").exists()


class TestTrain:
    def test_same_seed_identical_checkpoints(self, workspace, tmp_path):
        corpus = str(workspace / "data" / "train.jsonl")
        for out in ("a", "b"):
            assert main(["train", "--corpus", corpus,
                         "--out", str(tmp_path / out), "--epochs", "1",
                         "--seed", "4", *SMALL_ENCODER]) == EXIT_OK
        a = (tmp_path / "a" / "checkpoint.json").read_bytes()
        b = (tmp_path / "b" / "checkpoint.json").read_bytes()
        assert a == b

    def test_zero_weight_distractor_flag_is_inert(self, workspace, tmp_path):
        corpus = str(workspace / "data" / "train.jsonl")
        assert main(["train", "--corpus", corpus, "--out", str(tmp_path / "plain"),
                     "--epochs", "1", "--seed", "4", *SMALL_ENCODER]) == EXIT_OK
        assert main(["train", "--corpus", corpus, "--out", str(tmp_path / "ld0"),
                     "--epochs", "1", "--seed", "4", "--ld", "--lam", "0.0",
                     *SMALL_ENCODER]) == EXIT_OK
        # checkpoint metadata records the differing flags; the learned
        # parameters and the metrics must not differ at all
        plain = json.loads((tmp_path / "plain" / "checkpoint.json").read_text())
        ld0 = json.loads((tmp_path / "ld0" / "checkpoint.json").read_text())
        assert plain["params"] == ld0["params"]
        m_plain = json.loads((tmp_path / "plain" / "manifest.json").read_text())
        m_ld0 = json.loads((tmp_path / "ld0" / "manifest.json").read_text())
        assert m_plain["metrics"] == m_ld0["metrics"]

    def test_missing_corpus_exits_2(self, tmp_path):
        assert main(["train", "--corpus", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "out")]) == EXIT_MISSING_INPUT

    def test_directsup_and_ld_paths_run(self, workspace, tmp_path):
        corpus = str(workspace / "data" / "train.jsonl")
        assert main(["train", "--corpus", corpus, "--out", str(tmp_path / "ds"),
                     "--model", "directsup", "--epochs", "1", "--seed", "0",
                     *SMALL_ENCODER]) == EXIT_OK
        assert main(["train", "--corpus", corpus, "--out", str(tmp_path / "ld"),
                     "--ld", "--epochs", "1", "--seed", "0",
                     *SMALL_ENCODER]) == EXIT_OK

    def test_fusion_flag_trains(self, workspace, tmp_path):
        corpus = str(workspace / "data" / "train.jsonl")
        assert main(["train", "--corpus", corpus, "--out", str(tmp_path / "fu"),
                     "--fusion", "--d-e", "4", "--epochs", "1", "--seed", "0",
                     *SMALL_ENCODER]) == EXIT_OK


class TestEval:
    def test_outputs_and_provenance_comment(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--corpus", str(workspace / "data" / "test.jsonl"),
                     "--out", str(out), "--seed", "3"]) == EXIT_OK
        lines = (out / "pr_curve.csv").read_text().splitlines()
        assert lines[0].startswith("# seed=3 config_hash=")
        assert lines[1] == "recall,precision"
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) >= {"auc_04", "shuffled_auc_04", "n_pairs",
                                "n_positive", "seed", "config_hash"}
        assert metrics["n_pairs"] == 16 * 2

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        argv = ["eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                "--corpus", str(workspace / "data" / "test.jsonl"), "--seed", "3"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("pr_curve.csv", "metrics.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_untrained_model_scores_near_baseline(self, workspace, tmp_path):
        corpus = str(workspace / "data" / "train.jsonl")
        assert main(["train", "--corpus", corpus, "--out", str(tmp_path / "zero"),
                     "--epochs", "0", "--seed", "0", *SMALL_ENCODER]) == EXIT_OK
        assert main(["eval", "--checkpoint", str(tmp_path / "zero" / "checkpoint.json"),
                     "--corpus", str(workspace / "data" / "test.jsonl"),
                     "--out", str(tmp_path / "ev")]) == EXIT_OK
        metrics = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert 0.4 < metrics["auc_04"] / metrics["shuffled_auc_04"] < 2.5

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "absent.json"),
                     "--corpus", str(workspace / "data" / "test.jsonl"),
                     "--out", str(tmp_path / "out")]) == EXIT_MISSING_INPUT


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFinite:
    """Numbers that stop being finite exit 3; nothing is written that looks valid."""

    def test_diverging_training_exits_3_without_checkpoint(self, workspace, tmp_path,
                                                           capsys):
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(workspace / "data" / "train.jsonl"),
                     "--out", str(out), "--epochs", "2", "--lr", "1e300",
                     "--seed", "1", *SMALL_ENCODER]) == EXIT_INVALID
        assert not out.exists()
        err = capsys.readouterr().err
        assert "training loss is nan in epoch 0 at bag '" in err

    @pytest.mark.parametrize("option,value", [
        ("lr", "nan"), ("lr", "inf"), ("lr", "0"),
        ("lam", "nan"), ("lam", "inf"), ("lam", "-1"),
        ("gamma", "nan"), ("gamma", "inf"), ("gamma", "-1"),
    ])
    def test_non_finite_or_out_of_range_option_exits_3_naming_it(self, workspace, tmp_path,
                                                                 capsys, option, value):
        # --ld --lam nan once trained without distractors and exited 0, and
        # nan or inf elsewhere was blamed on diverged parameters
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(workspace / "data" / "train.jsonl"),
                     "--out", str(out), "--epochs", "1", "--ld", f"--{option}", value,
                     *SMALL_ENCODER]) == EXIT_INVALID
        assert not out.exists()
        assert f"invalid input: {option}" in capsys.readouterr().err

    def test_eval_of_nan_probabilities_exits_3(self, workspace, tmp_path, capsys):
        # finite parameters whose attention scores overflow: inf - inf in softmax
        model, extra = load_model(str(workspace / "run" / "checkpoint.json"))
        model.params["enc.w2.bias"].data[...] = 1e308
        model.params["att.diag"].data[...] = 1e10
        checkpoint = tmp_path / "overflow.json"
        model.save(str(checkpoint), extra=extra)
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(checkpoint),
                     "--corpus", str(workspace / "data" / "test.jsonl"),
                     "--out", str(out)]) == EXIT_INVALID
        assert not (out / "metrics.json").exists()
        assert "cannot rank: probability nan for bag '" in capsys.readouterr().err

    def test_expl_eval_of_nan_probabilities_exits_3(self, workspace, tmp_path, capsys):
        # the overflow checkpoint of test_eval_of_nan_probabilities_exits_3,
        # scored against explanations of the finite model
        model, extra = load_model(str(workspace / "run" / "checkpoint.json"))
        model.params["enc.w2.bias"].data[...] = 1e308
        model.params["att.diag"].data[...] = 1e10
        checkpoint = tmp_path / "overflow.json"
        model.save(str(checkpoint), extra=extra)
        corpus = str(workspace / "data" / "test.jsonl")
        assert main(["explain", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--corpus", corpus, "--out", str(tmp_path / "x"),
                     "--methods", "gi"]) == EXIT_OK
        out = tmp_path / "k"
        assert main(["expl-eval", "--checkpoint", str(checkpoint), "--corpus", corpus,
                     "--scores", str(tmp_path / "x" / "scores.jsonl"),
                     "--out", str(out)]) == EXIT_INVALID
        assert not (out / "kendall.csv").exists()
        err = capsys.readouterr().err
        assert "cannot bucket by confidence: probability nan for bag '" in err
        assert "', relation " in err

    def test_non_finite_parameters_not_saved(self, workspace, tmp_path, capsys,
                                             monkeypatch):
        def poisoned(model, bags, cfg):
            model.params["head.bias"].data[0] = np.inf
            return TrainResult(best_epoch=0, best_val_auc=0.5)

        monkeypatch.setattr(cli, "train_model", poisoned)
        out = tmp_path / "run"
        assert main(["train", "--corpus", str(workspace / "data" / "train.jsonl"),
                     "--out", str(out), "--epochs", "1", *SMALL_ENCODER]) == EXIT_INVALID
        assert list(out.iterdir()) == []
        assert "parameter 'head.bias' holds non-finite values" in capsys.readouterr().err


class TestExplain:
    def test_scores_cover_requested_methods(self, workspace, tmp_path):
        out = tmp_path / "x"
        assert main(["explain", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--corpus", str(workspace / "data" / "test.jsonl"),
                     "--out", str(out), "--methods", "gi,loo"]) == EXIT_OK
        scores = load_scores(str(out / "scores.jsonl"))
        assert scores
        assert {s.method for s in scores} == {"gi", "loo"}

    def test_unknown_method_exits_3(self, workspace, tmp_path):
        assert main(["explain", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--corpus", str(workspace / "data" / "test.jsonl"),
                     "--out", str(tmp_path / "x"),
                     "--methods", "lime"]) == EXIT_INVALID


class TestExplEval:
    def run_explain(self, workspace, out):
        assert main(["explain", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--corpus", str(workspace / "data" / "test.jsonl"),
                     "--out", str(out)]) == EXIT_OK
        return out / "scores.jsonl"

    def test_kendall_table_layout(self, workspace, tmp_path):
        scores = self.run_explain(workspace, tmp_path / "x")
        out = tmp_path / "k"
        assert main(["expl-eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--corpus", str(workspace / "data" / "test.jsonl"),
                     "--scores", str(scores), "--out", str(out),
                     "--seed", "2"]) == EXIT_OK
        lines = (out / "kendall.csv").read_text().splitlines()
        assert lines[0].startswith("# seed=2 config_hash=")
        assert lines[1] == "method,bucket,tau,n_tuples"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == sorted(
            m for m in ("attention", "saliency", "gi", "loo") for _ in range(3))
        assert {r[1] for r in rows} == {"overall", "high", "low"}
        for r in rows:
            if r[2] != "nan":
                assert -1.0 <= float(r[2]) <= 1.0

    def test_empty_scores_exit_3(self, workspace, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["expl-eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--corpus", str(workspace / "data" / "test.jsonl"),
                     "--scores", str(empty),
                     "--out", str(tmp_path / "k")]) == EXIT_INVALID


    GOOD_ROW = '{"bag_id": "b0", "method": "gi", "relation": 0, "scores": [0.5, 1.0]}'

    @pytest.mark.parametrize("row,field", [
        ('{"bag_id": "b0", "method": "gi", "relation": 0, "scores": 5}', "scores"),
        ('{"bag_id": "b0", "method": "gi", "relation": null, "scores": [1.0]}', "relation"),
        ("[1, 2]", "object"),
        ('{"bag_id": "b0", "method": "gi", "relation": 0, "scores": [NaN, 1.0]}', "scores"),
        ('{"bag_id": "b0", "method": "gi", "relation": 0, "scores": [Infinity]}', "scores"),
        ('{"bag_id": "b0", "method": "gi", "relation": 0, "scores": ["1.0"]}', "scores"),
        ('{"bag_id": "b0", "method": "gi", "relation": true, "scores": [1.0]}', "relation"),
        ('{"bag_id": 7, "method": "gi", "relation": 0, "scores": [1.0]}', "bag_id"),
        ('{"bag_id": "b0", "relation": 0, "scores": [1.0]}', "method"),
        ('{"bag_id": "b0", "method": "gi"', "JSON"),
        ('{"_header": {"seed": 0}}', "_header line must be the first non-blank line"),
        (GOOD_ROW, "duplicate (bag_id, relation, method)"),
    ], ids=["scores-int", "relation-null", "list-row", "scores-nan", "scores-inf",
            "scores-str", "relation-bool", "bag-id-int", "method-missing", "truncated",
            "late-header", "repeated-row"])
    def test_bad_score_row_exits_3_naming_line_and_field(self, workspace, tmp_path,
                                                        capsys, row, field):
        scores = tmp_path / "scores.jsonl"
        scores.write_text(self.GOOD_ROW + "\n" + row + "\n")
        assert main(["expl-eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--corpus", str(workspace / "data" / "test.jsonl"),
                     "--scores", str(scores),
                     "--out", str(tmp_path / "k")]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "line 2" in err and field in err


def _edited_corpus(src, dst, line, edit):
    """Copy the corpus file src to dst with edit applied to the JSON object on
    the given line (0 is gen-data's header, 1 the first bag)."""
    lines = src.read_text().splitlines()
    obj = json.loads(lines[line])
    edit(obj)
    lines[line] = json.dumps(obj)
    dst.write_text("\n".join(lines) + "\n")
    return str(dst)


class TestMistypedInputs:
    """A mistyped config, corpus field or relation id exits 3 and names its cause:
    no traceback, and no value silently coerced into another."""

    @pytest.mark.parametrize("key,value", [
        ("n_relations", "5"), ("sentence_len", 7), ("n_train_bags", 2.5),
        ("n_relations", True), ("hard_rate", True), ("sentences_per_bag", [2, 3.0]),
    ], ids=["count-str", "range-int", "count-float", "count-bool", "rate-bool",
            "range-float"])
    def test_gen_data_config(self, tmp_path, capsys, key, value):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({**GEN_CONFIG, key: value}))
        assert main(["gen-data", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"generator config key {key!r} must be" in err

    @pytest.mark.parametrize("line,edit,cause", [
        (1, lambda b: b.update(sentences=[5]), "sentence 0 must be a JSON object"),
        (1, lambda b: b.update(sentences="abc"), "key 'sentences' must be list"),
        (1, lambda b: b.update(relations=[0.7]), "key 'relations' must be a list of ints"),
        (1, lambda b: b.update(entity_i=True), "key 'entity_i' must be int"),
        (1, lambda b: b.update(fget_j="1"), "key 'fget_j' must be int"),
        (1, lambda b: b["sentences"][0].update(relevance_label="yes"),
         "sentence 0 key 'relevance_label' must be bool"),
        (1, lambda b: b["sentences"][0].update(distractor=1),
         "sentence 0 key 'distractor' must be bool"),
        (1, lambda b: b["sentences"][0]["tokens"].__setitem__(0, True),
         "sentence 0: token ids must be nonnegative integers"),
        (0, lambda h: h["_header"].update(vocab_size=[3]),
         "corpus header key 'vocab_size' must be int"),
        (0, lambda h: h.update(_header=5), "c.jsonl line 1 key '_header' must be dict"),
    ], ids=["sentence-int", "sentences-str", "relation-float", "entity-bool", "fget-str",
            "relevance-str", "distractor-int", "token-bool", "header-size-list", "header-int"])
    def test_train_corpus(self, workspace, tmp_path, capsys, line, edit, cause):
        corpus = _edited_corpus(workspace / "data" / "train.jsonl", tmp_path / "c.jsonl",
                                line, edit)
        assert main(["train", "--corpus", corpus, "--out", str(tmp_path / "run"),
                     "--epochs", "1", *SMALL_ENCODER]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert cause in err
        if line:
            assert "bag 'tr00000'" in err

    @pytest.mark.parametrize("bag_id", [["tr00000", "x"], 7], ids=["list", "int"])
    def test_train_corpus_bag_id(self, workspace, tmp_path, capsys, bag_id):
        corpus = _edited_corpus(workspace / "data" / "train.jsonl", tmp_path / "c.jsonl",
                                1, lambda b: b.update(bag_id=bag_id))
        assert main(["train", "--corpus", corpus, "--out", str(tmp_path / "run"),
                     "--epochs", "1", *SMALL_ENCODER]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"c.jsonl line 2 key 'bag_id' must be str, got {bag_id!r}" in err

    @pytest.mark.parametrize("command", ["eval", "expl-eval"])
    def test_relation_the_model_lacks(self, workspace, tmp_path, capsys, command):
        checkpoint = str(workspace / "run" / "checkpoint.json")
        clean = str(workspace / "data" / "test.jsonl")
        assert main(["explain", "--checkpoint", checkpoint, "--corpus", clean,
                     "--out", str(tmp_path / "x"), "--methods", "gi"]) == EXIT_OK
        corpus = _edited_corpus(workspace / "data" / "test.jsonl", tmp_path / "c.jsonl", 1,
                                lambda b: b.update(relations=b["relations"] + [7]))
        argv = [command, "--checkpoint", checkpoint, "--corpus", corpus,
                "--out", str(tmp_path / "out")]
        if command == "expl-eval":
            argv += ["--scores", str(tmp_path / "x" / "scores.jsonl")]
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "bag 'te00000' labels relation 7 >= K=2" in err


class TestAugment:
    def test_augmented_bags_round_trip(self, workspace, tmp_path):
        out = tmp_path / "aug"
        assert main(["augment", "--corpus", str(workspace / "data" / "train.jsonl"),
                     "--out", str(out), "--seed", "5"]) == EXIT_OK
        bags = load_corpus(str(out / "augmented.jsonl"))
        originals = load_corpus(str(workspace / "data" / "train.jsonl"))
        expected = sum(len(b.relations) for b in originals)
        assert len(bags) == expected
        for bag in bags:
            assert "#k" in bag.bag_id
            assert bag.sentences[-1].distractor
            assert not any(s.distractor for s in bag.sentences[:-1])

    def test_deterministic(self, workspace, tmp_path):
        corpus = str(workspace / "data" / "train.jsonl")
        for out in ("a", "b"):
            assert main(["augment", "--corpus", corpus,
                         "--out", str(tmp_path / out), "--seed", "5"]) == EXIT_OK
        assert (tmp_path / "a" / "augmented.jsonl").read_bytes() == \
            (tmp_path / "b" / "augmented.jsonl").read_bytes()


class TestAvg:
    def test_averages_numeric_keys(self, tmp_path):
        for i, auc in enumerate((10.0, 20.0, 30.0)):
            run = tmp_path / f"run{i}"
            run.mkdir()
            (run / "metrics.json").write_text(
                json.dumps({"auc_04": auc, "n_pairs": 40, "note": "x"}))
        out = tmp_path / "avg"
        assert main(["avg", "--runs", *(str(tmp_path / f"run{i}") for i in range(3)),
                     "--out", str(out)]) == EXIT_OK
        got = json.loads((out / "metrics.json").read_text())
        assert got["n_runs"] == 3
        assert got["mean"]["auc_04"] == 20.0
        assert got["mean"]["n_pairs"] == 40.0
        assert "note" not in got["mean"]

    def test_run_stamp_is_not_averaged(self, workspace, tmp_path):
        runs = []
        for seed in ("11", "12", "13"):
            runs.append(tmp_path / f"eval{seed}")
            assert main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                         "--corpus", str(workspace / "data" / "test.jsonl"),
                         "--out", str(runs[-1]), "--seed", seed]) == EXIT_OK
        out = tmp_path / "avg"
        assert main(["avg", "--runs", *map(str, runs), "--out", str(out)]) == EXIT_OK
        mean = json.loads((out / "metrics.json").read_text())["mean"]
        assert sorted(mean) == ["auc_04", "n_pairs", "n_positive", "shuffled_auc_04"]
        shuffled = [json.loads((run / "metrics.json").read_text())["shuffled_auc_04"]
                    for run in runs]
        assert mean["shuffled_auc_04"] == float(np.mean(shuffled))

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '{"auc_04": 1.0'],
                             ids=["number", "list", "truncated"])
    def test_metrics_file_not_an_object_exits_3(self, tmp_path, capsys, text):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"auc_04": 1.0}))
        bad.write_text(text)
        assert main(["avg", "--runs", str(good), str(bad),
                     "--out", str(tmp_path / "avg")]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "bad.json" in err and "JSON" in err and "Traceback" not in err

    def test_missing_run_exits_2(self, tmp_path):
        assert main(["avg", "--runs", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "avg")]) == EXIT_MISSING_INPUT


def _run_module(*argv):
    """python -m relexpl.cli in a child that imports the package under test."""
    src = os.path.dirname(os.path.dirname(relexpl.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "relexpl.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestEntryPoint:
    def test_module_invocation_usage_error(self):
        proc = _run_module("gen-data")
        assert proc.returncode == 2
        assert "--config" in proc.stderr

    def test_version_flag(self):
        proc = _run_module("--version")
        assert proc.returncode == 0
        assert "relexpl" in proc.stdout
