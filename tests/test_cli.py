"""Command-line interface tests: config handling, subcommands, exit codes."""

import json
import os

import numpy as np
import pytest

from searn.cli import (ExperimentConfig, main, merge_config, read_config_file)
from searn.errors import ConfigError


def run_cli(*argv):
    return main(list(argv))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Config files and precedence


class TestConfigFile:
    def test_parses_values_and_comments(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("# comment\ntask=sequence\nk=3\nbeta=0.25\n"
                     "exact=true\nseeds=1,2,3\n\n")
        cfg = read_config_file(p)
        assert cfg == {"task": "sequence", "k": 3, "beta": 0.25,
                       "exact": True, "seeds": (1, 2, 3)}

    def test_dashes_normalize(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("labeled-count=50\n")
        assert read_config_file(p) == {"labeled_count": 50}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("warp_factor=9\n")
        with pytest.raises(ConfigError):
            read_config_file(p)

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("task sequence\n")
        with pytest.raises(ConfigError):
            read_config_file(p)

    def test_flag_overrides_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("task=sequence\nk=3\nseed=9\n")
        import argparse
        from searn.cli import build_parser
        args = build_parser().parse_args(
            ["gen", "--config", str(p), "--k", "5"])
        cfg, _ = merge_config(args)
        assert cfg.task == "sequence"  # from file
        assert cfg.k == 5              # flag wins
        assert cfg.seed == 9           # from file


# ---------------------------------------------------------------------------
# gen


class TestGen:
    def test_sequence_corpus_files(self, tmp_path):
        out = tmp_path / "data"
        assert run_cli("gen", "--task", "sequence", "--order", "1",
                       "--k", "2", "--runs", "3", "--seed", "4",
                       "--out", str(out)) == 0
        files = sorted(os.listdir(out))
        assert files == ["sequences-run00.gold.txt", "sequences-run00.txt",
                         "sequences-run01.gold.txt", "sequences-run01.txt",
                         "sequences-run02.gold.txt", "sequences-run02.txt"]

    def test_gen_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("gen", "--task", "sequence", "--runs", "2",
                           "--seed", "11", "--out", str(out)) == 0
        for name in os.listdir(a):
            assert read_bytes(a / name) == read_bytes(b / name)

    def test_depparse_conll(self, tmp_path):
        out = tmp_path / "bank"
        assert run_cli("gen", "--task", "depparse", "--sentences", "40",
                       "--seed", "2", "--out", str(out)) == 0
        lines = [ln for ln in (out / "treebank.conll").read_text().splitlines()
                 if not ln.startswith("#")]
        blocks = [b for b in "\n".join(lines).split("\n\n") if b.strip()]
        assert len(blocks) == 40

    def test_cluster_documents(self, tmp_path):
        out = tmp_path / "docs"
        assert run_cli("gen", "--task", "cluster", "--documents", "8",
                       "--k", "2", "--seed", "3", "--out", str(out)) == 0
        assert (out / "documents.txt").exists()
        gold = (out / "documents.gold.txt").read_text().split()
        assert len(gold) == 8

    def test_cluster_k_and_clusters_conflict(self, tmp_path):
        assert run_cli("gen", "--task", "cluster", "--k", "2",
                       "--clusters", "3", "--out", str(tmp_path / "d")) == 2

    def test_cluster_equal_k_and_clusters_accepted(self, tmp_path):
        out = tmp_path / "docs"
        assert run_cli("gen", "--task", "cluster", "--k", "3",
                       "--clusters", "3", "--out", str(out)) == 0
        assert "clusters=3" in (out / "documents.txt").read_text()

    def test_cluster_k_alone_sets_clusters(self, tmp_path):
        out = tmp_path / "docs"
        assert run_cli("gen", "--task", "cluster", "--k", "3",
                       "--documents", "30", "--out", str(out)) == 0
        header = (out / "documents.txt").read_text().splitlines()[0]
        assert header.startswith("#") and "clusters=3" in header.split()


# ---------------------------------------------------------------------------
# train / eval round trips


@pytest.fixture(scope="module")
def seq_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("seqrun")
    data, run = root / "data", root / "run"
    assert run_cli("gen", "--task", "sequence", "--runs", "1", "--seed", "6",
                   "--out", str(data)) == 0
    assert run_cli("train", "--task", "sequence", "--method", "searn-nb",
                   "--data", str(data / "sequences-run00.txt"), "--k", "2",
                   "--iterations", "2", "--out", str(run)) == 0
    return data, run


class TestTrainEval:
    def test_train_outputs(self, seq_run):
        _, run = seq_run
        names = set(os.listdir(run))
        assert {"model.json", "train-log.csv", "timings.log"} <= names
        model = json.loads((run / "model.json").read_text())
        assert model["format_version"] == 1
        assert model["method"] == "searn-nb"
        log = (run / "train-log.csv").read_text().splitlines()
        assert log[0] == "iteration,dev_accuracy,loss"
        assert len(log) == 3  # header + one row per iteration

    def test_timings_segregated(self, seq_run):
        _, run = seq_run
        log = (run / "train-log.csv").read_text()
        model = (run / "model.json").read_text()
        assert "wall" not in log and "time" not in log
        assert "wall" not in model
        assert (run / "timings.log").read_text().strip()

    def test_train_rerun_byte_identical(self, seq_run, tmp_path):
        data, run = seq_run
        again = tmp_path / "again"
        assert run_cli("train", "--task", "sequence", "--method", "searn-nb",
                       "--data", str(data / "sequences-run00.txt"),
                       "--k", "2", "--iterations", "2",
                       "--out", str(again)) == 0
        assert read_bytes(run / "model.json") == \
            read_bytes(again / "model.json")
        assert read_bytes(run / "train-log.csv") == \
            read_bytes(again / "train-log.csv")

    def test_eval_outputs(self, seq_run, tmp_path):
        data, run = seq_run
        out = tmp_path / "eval"
        assert run_cli("eval", "--model", str(run / "model.json"),
                       "--data", str(data / "sequences-run00.txt"),
                       "--gold", str(data / "sequences-run00.gold.txt"),
                       "--out", str(out)) == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[0] == "metric,run,value"
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) >= {"metric", "mean", "std", "n_runs"}
        assert 0.0 <= summary["mean"] <= 1.0

    def test_eval_summary_over_two_runs(self, seq_run, tmp_path):
        _, run = seq_run
        data, out = tmp_path / "data", tmp_path / "eval"
        assert run_cli("gen", "--task", "sequence", "--runs", "2",
                       "--seed", "8", "--out", str(data)) == 0
        model = str(run / "model.json")
        assert run_cli(
            "eval", "--model", f"{model},{model}",
            "--data", ",".join(str(data / f"sequences-run{r:02d}.txt")
                               for r in range(2)),
            "--gold", ",".join(str(data / f"sequences-run{r:02d}.gold.txt")
                               for r in range(2)),
            "--out", str(out)) == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[2]) for r in rows]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_runs"] == 2 and len(values) == 2
        assert summary["metric"] == "matched_hamming"
        assert summary["single_run"] is False
        assert summary["mean"] == pytest.approx(sum(values) / 2, abs=1e-10)

    def test_em_train_loss_is_negative_ll(self, seq_run, tmp_path):
        data, _ = seq_run
        out = tmp_path / "emrun"
        assert run_cli("train", "--task", "sequence", "--method", "em",
                       "--data", str(data / "sequences-run00.txt"),
                       "--k", "2", "--iterations", "4",
                       "--out", str(out)) == 0
        rows = (out / "train-log.csv").read_text().splitlines()[1:]
        losses = [float(r.split(",")[2]) for r in rows]
        assert losses == sorted(losses, reverse=True)  # -LL non-increasing


class TestClusterEval:
    def test_gold_with_old_header_scores_the_same(self, tmp_path):
        data, run = tmp_path / "data", tmp_path / "run"
        assert run_cli("gen", "--task", "cluster", "--documents", "12",
                       "--seed", "3", "--out", str(data)) == 0
        assert run_cli("train", "--task", "cluster", "--method", "em",
                       "--data", str(data / "documents.txt"),
                       "--iterations", "5", "--out", str(run)) == 0
        gold = data / "documents.gold.txt"
        old_gold = tmp_path / "old.gold.txt"
        old_gold.write_text("# task=cluster v=5 clusters=2 documents=12 "
                            "seed=3\n" + gold.read_text())
        for name, path in (("new", gold), ("old", old_gold)):
            assert run_cli("eval", "--model", str(run / "model.json"),
                           "--data", str(data / "documents.txt"),
                           "--gold", str(path),
                           "--out", str(tmp_path / name)) == 0
        assert read_bytes(tmp_path / "new" / "metrics.csv") == \
            read_bytes(tmp_path / "old" / "metrics.csv")


class TestClusterExactTrain:
    def test_single_cluster_matches_em(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("gen", "--task", "cluster", "--documents", "12",
                       "--seed", "3", "--out", str(data)) == 0
        params = {}
        for method, extra in (("em", []), ("searn-nb", ["--exact"])):
            out = tmp_path / method
            assert run_cli("train", "--task", "cluster", "--method", method,
                           "--k", "1", "--iterations", "3",
                           "--data", str(data / "documents.txt"),
                           "--out", str(out), *extra) == 0
            params[method] = json.loads(
                (out / "model.json").read_text())["params"]
        assert params["searn-nb"]["rho"] == [1.0]
        for key in ("rho", "theta"):
            np.testing.assert_allclose(params["searn-nb"][key],
                                       params["em"][key], atol=1e-12)


class TestParseTrain:
    def test_sup_labeled_count_trains_on_first_trees(self, tmp_path):
        full, head = tmp_path / "full", tmp_path / "head"
        # a shorter draw with the same seed is a prefix of a longer one
        for out, n in ((full, "12"), (head, "5")):
            assert run_cli("gen", "--task", "depparse", "--sentences", n,
                           "--seed", "2", "--out", str(out)) == 0
        models = {}
        for name, data, extra in (
                ("first5", full, ["--labeled-count", "5"]),
                ("head", head, []), ("all", full, [])):
            out = tmp_path / name
            assert run_cli("train", "--task", "depparse", "--method",
                           "searn-lr", "--supervision", "sup",
                           "--iterations", "1",
                           "--data", str(data / "treebank.conll"),
                           "--out", str(out), *extra) == 0
            models[name] = read_bytes(out / "model.json")
        assert models["first5"] == models["head"]
        assert models["first5"] != models["all"]

    def test_labeled_count_beyond_data_rejected(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("gen", "--task", "depparse", "--sentences", "4",
                       "--out", str(data)) == 0
        assert run_cli("train", "--task", "depparse", "--method", "searn-lr",
                       "--supervision", "sup", "--labeled-count", "9",
                       "--data", str(data / "treebank.conll"),
                       "--out", str(tmp_path / "o")) == 2


# ---------------------------------------------------------------------------
# validation and exit codes


class TestExitCodes:
    def test_missing_data_is_io_error(self, tmp_path):
        assert run_cli("train", "--task", "sequence", "--method", "em",
                       "--data", str(tmp_path / "nope.txt"),
                       "--out", str(tmp_path / "o")) == 1

    def test_bad_usage_is_config_error(self, tmp_path):
        # em has no meaning for the parsing task
        assert run_cli("train", "--task", "depparse", "--method", "em",
                       "--data", str(tmp_path / "x.conll"),
                       "--out", str(tmp_path / "o")) == 2

    def test_semi_needs_labeled_count(self, tmp_path):
        assert run_cli("train", "--task", "depparse", "--method", "searn-lr",
                       "--supervision", "semi",
                       "--data", str(tmp_path / "x.conll"),
                       "--out", str(tmp_path / "o")) == 2

    def test_exact_mode_cluster_only(self, tmp_path):
        assert run_cli("train", "--task", "sequence", "--method", "searn-nb",
                       "--exact", "--data", str(tmp_path / "x.txt"),
                       "--out", str(tmp_path / "o")) == 2

    def test_bad_config_file(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("nonsense=1\n")
        assert run_cli("gen", "--config", str(p)) == 2

    @pytest.mark.parametrize("task", ["sequence", "cluster"])
    def test_malformed_vocab_header_is_data_error(self, tmp_path, task):
        data = tmp_path / "data.txt"
        data.write_text("V=abc\n0 1\n" if task == "sequence"
                        else "V=abc\n0:1\n")
        assert run_cli("train", "--task", task, "--method", "em",
                       "--data", str(data), "--out", str(tmp_path / "o")) == 1


    def test_undecodable_files(self, tmp_path):
        data, cfg = tmp_path / "data.txt", tmp_path / "bad.cfg"
        data.write_bytes(b"V=3\n0 1 \xff\n")
        cfg.write_bytes(b"task=seq\xffuence\n")
        assert run_cli("train", "--task", "sequence", "--method", "em",
                       "--data", str(data), "--out", str(tmp_path / "o")) == 1
        assert run_cli("gen", "--config", str(cfg)) == 2


_SEQ_SPEC = {"task": "sequence", "k": 2, "v": 10, "feature_mode": "nb_hmm"}


@pytest.mark.parametrize("blob", [
    {"format_version": 1, "method": "em"},
    [1, 2],
    "model",
    {"format_version": 2, "method": "em", "task": _SEQ_SPEC},
    {"format_version": 1, "method": "em", "task": "sequence"},
    {"format_version": 1, "method": "em", "task": {"task": "tagging"}},
    {"format_version": 1, "method": "svm", "task": _SEQ_SPEC},
    {"format_version": 1, "method": "em", "task": _SEQ_SPEC},
    {"format_version": 1, "method": "em", "task": _SEQ_SPEC,
     "params": {"initial": [1.0], "transition": "x", "emission": []}},
    {"format_version": 1, "method": "searn-nb", "task": _SEQ_SPEC},
    {"format_version": 1, "method": "searn-nb", "task": _SEQ_SPEC,
     "policy": []},
    {"format_version": 1, "method": "searn-nb",
     "task": {"task": "sequence", "k": 2}, "policy": {}},
    {"format_version": 1, "method": "em",
     "task": {"task": "cluster", "k": 2, "v": 10},
     "params": {"rho": [0.5, 0.5]}},
], ids=["no-task", "list", "string", "version", "task-not-object",
        "unknown-task", "unknown-method", "no-params", "bad-tables",
        "no-policy", "policy-list", "spec-fields", "no-theta"])
def test_malformed_model_is_data_error(seq_run, tmp_path, blob):
    data, _ = seq_run
    model = tmp_path / "model.json"
    model.write_text(json.dumps(blob))
    assert run_cli("eval", "--model", str(model),
                   "--data", str(data / "sequences-run00.txt"),
                   "--gold", str(data / "sequences-run00.gold.txt"),
                   "--out", str(tmp_path / "eval")) == 1


# ---------------------------------------------------------------------------
# equivalence command


class TestEquivalenceCommand:
    def test_small_sweep_passes(self, tmp_path):
        out = tmp_path / "eq"
        assert run_cli("equivalence", "--runs", "3", "--iterations", "4",
                       "--out", str(out)) == 0
        report = json.loads((out / "equivalence.json").read_text())
        assert report["all_passed"] is True
        assert report["n_corpora"] == 3
        assert report["max_diff"] < 1e-8
