"""The benchmark's tracer against the package it wraps.

perfbench/tracing.py wraps relexpl's public functions by name. A renamed
or removed function makes its install fail, and a layer that a pipeline
stops calling reads as infinitely fast; both fail here rather than in a
traced benchmark run. These tests only read perfbench.
"""

import importlib.util
import json
import os
import sys

import pytest

from relexpl import autodiff, encoder, models, optim
from relexpl.cli import EXIT_OK, main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _bindings():
    """Every function-valued name the tracer may rebind, keyed by where it lives."""
    owners = [m for n, m in sys.modules.items() if n == "relexpl" or n.startswith("relexpl.")]
    owners += [encoder.SentenceEncoder, models.RelationModel, optim.Adam]
    out = {}
    for owner in owners:
        for attr, value in vars(owner).items():
            if callable(value):
                out[(id(owner), attr)] = value
            elif isinstance(value, dict) and not isinstance(owner, type):
                out.update({(id(value), key): v for key, v in value.items() if callable(v)})
    return out


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    before = _bindings()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()
    assert _bindings() == before


def test_install_wraps_every_target_and_uninstall_restores(tracer):
    # install raises if a wrapper cannot be placed; the fixture checks uninstall
    for owner, attr, name in tracing._targets():
        assert hasattr(vars(owner)[attr], "__wrapped__"), name
    assert autodiff._node.__name__ == "counting_node"


def test_pipeline_calls_every_required_span(tracer, tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps(dict(workloads.GEN_FAMILY, n_train_bags=24, n_test_bags=8,
                                      sentences_per_bag=[2, 3], sentence_len=[5, 7])))
    data = tmp_path / "data"
    assert main(["gen-data", "--config", str(config), "--out", str(data),
                 "--seed", "3"]) == EXIT_OK
    corpus = str(data / "test.jsonl")
    for tag, flags in workloads.MODELS.items():
        run = tmp_path / tag
        checkpoint = str(run / "checkpoint.json")
        commands = [
            ["train", "--corpus", str(data / "train.jsonl"), "--out", str(run), *flags,
             *workloads.DESK_ENCODER, "--epochs", "1", "--val-fraction", "0.25", "--seed", "3"],
            ["eval", "--checkpoint", checkpoint, "--corpus", corpus, "--out", str(run / "e")],
            ["explain", "--checkpoint", checkpoint, "--corpus", corpus, "--out", str(run / "x")],
            ["expl-eval", "--checkpoint", checkpoint, "--corpus", corpus,
             "--scores", str(run / "x" / "scores.jsonl"), "--out", str(run / "k")],
        ]
        for argv in commands:
            with tracer.root(argv[0], tag):
                assert main(argv) == EXIT_OK, argv
    called = {span[0] for span in tracer.spans}
    assert [name for name in workloads.REQUIRED_SPANS if name not in called] == []
    layers = tracing.per_layer(tracer, workloads.TRACED_OPS, list(workloads.MODELS))
    assert layers["encoder.encode.calls"] > 0
    assert layers["autodiff.grad1.s"] > 0  # the training backward's grad span
