"""Every name the benchmark's layer trace patches or reads still exists
in searn.

``perfbench/tracing.py`` wraps functions by module attribute and methods
through ``cls.__dict__``, and reads a model's ``_cache``, an LR model's
``trained_epochs``, a generation result's ``cost_examples`` and the
``interner`` passed to ``policy_to_dict``; a refactor that renames one,
or moves a method to a base class, would break
``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from searn.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_functions_exist(tracing):
    for _, module, attr in (tracing.SPANNED_FUNCTIONS
                            + tracing.COUNTED_FUNCTIONS):
        assert callable(getattr(importlib.import_module(module), attr,
                                None)), f"{module}.{attr} is gone"


def test_patched_methods_are_defined_on_their_class(tracing):
    for _, module, cls_name, attr in (tracing.SPANNED_METHODS
                                      + tracing.COUNTED_METHODS):
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert cls is not None, f"{module}.{cls_name} is gone"
        assert attr in cls.__dict__, \
            f"{module}.{cls_name}.{attr} is not defined on the class"


def test_install_and_remove_restore_every_binding(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        assert patched
        for owner, key, original in patched:
            assert vars(owner)[key] is not original
    finally:
        tracer.remove()
    for owner, key, original in patched:
        assert vars(owner)[key] is original


def _traced_calls(tmp_path, task):
    """(phase, argv) of a tiny gen, train and eval of one task."""
    data, run = tmp_path / "data", tmp_path / "run"
    if task == "cluster":
        docs = data / "documents.txt"
        return [
            ("setup", ["gen", "--task", "cluster", "--documents", "12",
                       "--seed", "3", "--out", str(data)]),
            ("train", ["train", "--task", "cluster", "--method", "searn-nb",
                       "--exact", "--iterations", "2", "--data", str(docs),
                       "--out", str(run)]),
            ("decode", ["eval", "--model", str(run / "model.json"),
                        "--data", str(docs),
                        "--gold", str(data / "documents.gold.txt"),
                        "--out", str(tmp_path / "eval")])]
    if task == "sequence":
        xs = data / "sequences-run00.txt"
        return [
            ("setup", ["gen", "--task", "sequence", "--runs", "1",
                       "--seed", "6", "--out", str(data)]),
            ("train", ["train", "--task", "sequence", "--method", "searn-nb",
                       "--k", "2", "--iterations", "2", "--data", str(xs),
                       "--out", str(run)]),
            ("decode", ["eval", "--model", str(run / "model.json"),
                        "--data", str(xs),
                        "--gold", str(data / "sequences-run00.gold.txt"),
                        "--out", str(tmp_path / "eval")])]
    bank = data / "treebank.conll"
    return [
        ("setup", ["gen", "--task", "depparse", "--sentences", "12",
                   "--seed", "2", "--out", str(data)]),
        ("train", ["train", "--task", "depparse", "--method", "searn-lr",
                   "--iterations", "2", "--data", str(bank),
                   "--out", str(run)]),
        ("decode", ["eval", "--model", str(run / "model.json"),
                    "--data", str(bank), "--out", str(tmp_path / "eval")])]


@pytest.mark.parametrize("task", ["cluster", "sequence", "depparse"])
def test_traced_cli_calls_yield_layer_metrics(tracing, tmp_path, task):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for phase, argv in _traced_calls(tmp_path, task):
            assert tracer.call(phase, "cli." + argv[0], main, argv) == 0
    finally:
        tracer.remove()
    metrics = {name: value for name, (value, _) in
               tracing.layer_metrics(tracer, 0.0).items()}
    assert [name for name, _ in tracing.LAYER_METRICS] == list(metrics)
    assert metrics["core.cost_examples"] > 0
    assert metrics["core.generate_examples.calls"] == 2
    if task != "cluster":
        # the cluster model file holds (rho, theta), not a policy
        assert metrics["features.interned"] > 0
        assert metrics["classifiers.cache_entries"] > 0
    if task == "depparse":
        assert metrics["classifiers.lr_epochs"] > 0
