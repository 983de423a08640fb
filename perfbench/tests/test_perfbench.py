"""Tests of the benchmark itself, on smoke-size inputs.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace=False, seed=3):
    return harness.run_workload(ROOT, workload, seed, 0.0, trace,
                                harness.SMOKE)


@pytest.fixture(scope="module")
def runs():
    return {(w, t): _run(w, t) for w in harness.WORKLOADS
            for t in (False, True)}


def test_metric_names_and_units_follow_the_spec(runs):
    spec = _spec()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        harness.WORKLOADS)
    declared = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for (workload, trace), result in runs.items():
        record = harness.result_record(result, trace)
        printed = {n: m["unit"] for n, m in record["metrics"].items()}
        assert printed == declared[trace], workload
        for name, unit in printed.items():
            assert NAME.match(name) and UNIT.match(unit), name
        lines = "\n".join(harness.report_lines(workload, 3, result))
        for name, unit in printed.items():
            assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}",
                             lines, re.M), name


def test_smoke_runs_pass_every_check(runs):
    for key, result in runs.items():
        assert result.failed == 0, (key, result.errors)
        assert result.attempted > 1
        assert harness.result_record(result, key[1])["correct"]


def test_traced_run_reports_the_untraced_quality(runs):
    for workload in harness.WORKLOADS:
        plain, traced = runs[(workload, False)], runs[(workload, True)]
        assert traced.quality == plain.quality != {}
        assert traced.per_layer["trace.spans"][0] > 0


def test_failed_check_raises_failed_share(monkeypatch):
    monkeypatch.setattr(harness, "load_reference",
                        lambda *args: {"arc_accuracy": 0.99})
    result = _run("parse-unsup")
    record = harness.result_record(result, False)
    assert result.failed > 0 and not record["correct"]
    assert any("reference" in e for e in result.errors)
    line = [x for x in harness.report_lines("parse-unsup", 3, result)
            if x.strip().startswith("failed_share")][0]
    share = result.failed / result.attempted
    assert share > 0 and float(line.split()[1]) == pytest.approx(share, 1e-5)


def test_quality_must_equal_the_reference():
    ref = {"hamming_nb": 0.45, "arc_accuracy": 0.25}
    harness.check_quality({"hamming_nb": 0.45 + 1e-12}, ref)
    harness.check_quality({"arc_accuracy": 0.25}, ref)
    # Inside the band, and better or within 0.05 of the reference: still
    # wrong, because the value is deterministic given the seed.
    for quality in ({"hamming_nb": 0.48}, {"hamming_nb": 0.40},
                    {"arc_accuracy": 0.26}, {"hamming_lr": 0.3}):
        with pytest.raises(harness.CheckFailed):
            harness.check_quality(quality, ref)


def test_full_size_references_cover_every_input_seed():
    names = {"parse-unsup": {"arc_accuracy"},
             "seq-grid": {"hamming_em", "hamming_nb", "hamming_lr"},
             "cluster-exact": {"cluster_hamming_exact", "cluster_hamming_em",
                               "equiv_max_gap", "cli_equiv_gap"}}
    for workload in harness.WORKLOADS:
        for seed in range(harness.REFERENCE_SEEDS):
            ref = harness.load_reference(workload, seed, harness.FULL)
            assert set(ref) == names[workload], (workload, seed)
    with pytest.raises(RuntimeError):
        harness.load_reference("parse-unsup", harness.REFERENCE_SEEDS,
                               harness.FULL)


def _chance_parser(monkeypatch):
    """Decode every sentence as a left chain, whatever the model says."""
    import searn.cli
    from searn.task_depparse import DependencyTree

    def chain(task, x, policy, rng):
        heads = tuple(range(len(x.tags)))
        return types.SimpleNamespace(tree=DependencyTree(heads))
    monkeypatch.setattr(searn.cli, "run_policy", chain)


def _constant_decoder(monkeypatch):
    """Label every position of every sequence 0 in the EM arm."""
    import searn.cli
    monkeypatch.setattr(searn.cli, "hmm_posterior_decode",
                        lambda params, x: np.zeros(len(x), dtype=int))


@pytest.mark.parametrize("workload, wrong", [
    ("parse-unsup", _chance_parser), ("seq-grid", _constant_decoder)])
def test_wrong_output_makes_the_run_incorrect(runs, monkeypatch, workload,
                                              wrong):
    truth = dict(runs[(workload, False)].quality)
    monkeypatch.setattr(harness, "load_reference", lambda *args: truth)
    assert _run(workload).failed == 0
    wrong(monkeypatch)
    result = _run(workload)
    assert not harness.result_record(result, False)["correct"]
    assert any("differs from the reference" in e for e in result.errors)


def test_failed_call_is_counted_and_its_time_dropped():
    cli = harness.import_searn(ROOT)
    ops = [harness.Op("train", ["train", "--task", "depparse"])]
    rep = harness.run_rep(cli.main, ops, {})
    assert (rep.attempted, rep.failed) == (1, 1)
    assert rep.op_s == {} and rep.errors


def test_determinism_check_flags_differing_outputs():
    a, b = harness.Rep(), harness.Rep()
    a.hashes, b.hashes = {2: "x"}, {2: "y"}
    assert harness._determinism([a, b]) == ["artifact #2"]
    b.hashes = {2: "x"}
    assert harness._determinism([a, b]) == []


def test_tracer_removes_every_wrapper():
    harness.import_searn(ROOT)
    import searn.classifiers
    import searn.core
    before = (searn.core.lr_train, searn.classifiers.LRModel.predict_costs,
              searn.features.FeatureVector.__dict__["from_pairs"])
    tracer = tracing.Tracer()
    tracer.install()
    assert searn.core.lr_train is not before[0]
    tracer.remove()
    after = (searn.core.lr_train, searn.classifiers.LRModel.predict_costs,
             searn.features.FeatureVector.__dict__["from_pairs"])
    assert all(x is y for x, y in zip(before, after))


def test_inputs_are_sized_by_work(tmp_path):
    cli = harness.import_searn(ROOT)
    probe = harness.Prober(cli.main, tmp_path)
    gen = ["gen", "--task", "depparse", "--seed", "5"]
    n = probe.count(gen, "--sentences", "treebank.conll",
                    harness.treebank_lengths, 2, 200)
    assert cli.main(gen + ["--sentences", str(n), "--out",
                           str(tmp_path / "t")]) == 0
    lengths = harness.treebank_lengths(tmp_path / "t" / "treebank.conll")
    assert len(lengths) == n
    assert sum(t * t for t in lengths) >= 200 > sum(
        t * t for t in lengths[:-1])


def test_timings_are_scaled_to_full_speed():
    full = harness.PROBE_FULL_SPEED_S
    assert harness.at_full_speed(2.0, full, full) == pytest.approx(2.0)
    # The host ran 1.5 times slower around the call.
    assert harness.at_full_speed(3.0, 1.4 * full, 1.6 * full) == (
        pytest.approx(2.0))
    assert 0.0 < harness.probe_seconds() < 1.0


def test_lr_fit_tail_needs_ten_fits_beyond_it():
    assert tracing._lr_fit_stats([1.0] * 10) == (1.0, 0.0, 0.0)
    fits = [float(i) for i in range(80)]
    median, tail, pct = tracing._lr_fit_stats(fits)
    assert median == 39.5 and pct == 87.0
    assert sum(1 for f in fits if f > tail) >= 10


def test_run_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "parse-unsup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
