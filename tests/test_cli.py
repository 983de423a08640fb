"""Command-line interface tests: config handling, subcommands, exit codes."""

import json
import os

import numpy as np
import pytest

from searn import cli
from searn.cli import configure, main, read_config_file
from searn.errors import ConfigError
from searn.task_sequence import read_sequences, write_sequences


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
        cfg = configure(["gen", "--config", str(p), "--k", "5"])
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

    # compare the sequences, not the files: each header names its seed
    def test_sequence_runs_differ(self, tmp_path):
        out = tmp_path / "data"
        assert run_cli("gen", "--task", "sequence", "--runs", "2",
                       "--seed", "4", "--out", str(out)) == 0
        assert (read_sequences(out / "sequences-run00.txt")
                != read_sequences(out / "sequences-run01.txt"))

    def test_master_seed_changes_data(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, seed in ((a, "4"), (b, "5")):
            assert run_cli("gen", "--task", "sequence", "--runs", "1",
                           "--seed", seed, "--out", str(out)) == 0
        assert (read_sequences(a / "sequences-run00.txt")
                != read_sequences(b / "sequences-run00.txt"))

    def test_sequence_order_validated(self, tmp_path, capsys):
        assert run_cli("gen", "--task", "sequence", "--order", "3",
                       "--out", str(tmp_path / "o")) == 2
        assert "order must be 1 or 2" in capsys.readouterr().err

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

    def test_smoothing_rejected_with_reason(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli("gen", "--task", "cluster", "--documents", "12",
                       "--k", "3", "--seed", "3", "--out", str(data)) == 0
        docs = str(data / "documents.txt")
        capsys.readouterr()
        assert run_cli("train", "--task", "cluster", "--method", "searn-nb",
                       "--exact", "--k", "3", "--smoothing", "0.5",
                       "--iterations", "2", "--data", docs,
                       "--out", str(tmp_path / "exact")) == 2
        err = capsys.readouterr().err
        assert "'train --task cluster --method searn-nb' reads no " \
            "--smoothing" in err
        assert not (tmp_path / "exact" / "model.json").exists()


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

    def test_capped_lr_fits_reported(self, tmp_path, capsys, monkeypatch):
        from searn import cli, core
        from searn.classifiers import LROptimizerConfig
        data, out = tmp_path / "data", tmp_path / "o"
        assert run_cli("gen", "--task", "depparse", "--sentences", "6",
                       "--seed", "2", "--out", str(data)) == 0
        train = ["train", "--task", "depparse", "--method", "searn-lr",
                 "--supervision", "sup", "--iterations", "2",
                 "--data", str(data / "treebank.conll"), "--out", str(out)]
        capsys.readouterr()
        cap = LROptimizerConfig(max_epochs=3)
        monkeypatch.setattr(core, "LR_OPTIMIZER", cap)
        monkeypatch.setattr(cli, "LR_OPTIMIZER", cap)
        assert run_cli(*train) == 0
        # one LR fit per iteration, each stopped by the cap
        assert capsys.readouterr().err == (
            "2 of 2 LR fits stopped at the 3-epoch cap\n")
        model = json.loads((out / "model.json").read_text())
        assert {m["trained_epochs"]
                for c in model["policy"]["components"]
                for m in c["models"].values()} == {3}

    def test_semi_with_no_gold_tree_trains(self, tmp_path):
        # sup with 0 is a ConfigError; semi with 0 is an unlabeled run
        data = tmp_path / "data"
        assert run_cli("gen", "--task", "depparse", "--sentences", "4",
                       "--out", str(data)) == 0
        assert run_cli("train", "--task", "depparse", "--method", "searn-lr",
                       "--supervision", "semi", "--labeled-count", "0",
                       "--iterations", "1",
                       "--data", str(data / "treebank.conll"),
                       "--out", str(tmp_path / "o")) == 0
        assert (tmp_path / "o" / "model.json").exists()

    @pytest.mark.parametrize("supervision", ["sup", "semi"])
    def test_labeled_sentence_without_tree_is_data_error(self, tmp_path,
                                                         capsys,
                                                         supervision):
        # semi on a file with no tree once trained on zero trees and
        # exited 0, where sup failed
        data = tmp_path / "bare.conll"
        data.write_text("".join(f"1\t{t}\t_\n2\t{t + 1}\t_\n\n"
                                for t in range(6)))
        capsys.readouterr()
        assert run_cli("train", "--task", "depparse", "--method", "searn-lr",
                       "--supervision", supervision, "--labeled-count", "5",
                       "--iterations", "1", "--data", str(data),
                       "--out", str(tmp_path / "o")) == 1
        assert "supervised mode requires a gold tree" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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


# the one size setting gen reads for each task
_GEN_SIZE = {"sequence": ["--runs", "1"], "depparse": ["--sentences", "6"],
             "cluster": ["--documents", "6"]}


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

    def test_unknown_sequence_method_is_config_error(self, tmp_path,
                                                     capsys):
        assert run_cli("train", "--task", "sequence", "--method",
                       "searn-svm", "--data", str(tmp_path / "x.txt"),
                       "--out", str(tmp_path / "o")) == 2
        assert "'train --task sequence --method searn-svm' is not a run" in \
            capsys.readouterr().err

    def test_semi_needs_labeled_count(self, tmp_path):
        assert run_cli("train", "--task", "depparse", "--method", "searn-lr",
                       "--supervision", "semi",
                       "--data", str(tmp_path / "x.conll"),
                       "--out", str(tmp_path / "o")) == 2

    def test_exact_mode_cluster_only(self, tmp_path):
        assert run_cli("train", "--task", "sequence", "--method", "searn-nb",
                       "--exact", "--data", str(tmp_path / "x.txt"),
                       "--out", str(tmp_path / "o")) == 2

    def test_training_failure_is_one_line(self, tmp_path, capsys):
        # the first exact iteration gives cluster 1 no weight, so the NB
        # fit fails; EM on the same file fails in its M-step
        data = tmp_path / "docs.txt"
        data.write_text("V=2\n0:100000 1:3\n0:100000 1:2\n0:90000 1:1\n")
        for method, extra, error in (
                ("searn-nb", ["--exact"], "training error: class 1 "
                 "received zero weight"),
                ("em", [], "data error: a cluster received zero "
                 "responsibility")):
            capsys.readouterr()
            assert run_cli("train", "--task", "cluster", "--method", method,
                           "--k", "2", "--iterations", "5", "--seed", "0",
                           "--data", str(data),
                           "--out", str(tmp_path / method), *extra) == 1
            err = capsys.readouterr().err
            assert err.startswith(error) and err.count("\n") == 1

    @pytest.mark.parametrize("line, error", [
        ("0:2 1:-3", "negative count in '1:-3'"),
        ("2:0", "document has no words"),
    ], ids=["negative", "empty"])
    @pytest.mark.parametrize("method, extra", [
        ("em", []), ("searn-nb", ["--exact"])], ids=["em", "exact"])
    def test_bad_document_names_its_line(self, tmp_path, capsys, method,
                                         extra, line, error):
        data = tmp_path / "docs.txt"
        data.write_text(f"V=3\n0:2 1:1\n{line}\n1:1 2:4\n")
        capsys.readouterr()
        assert run_cli("train", "--task", "cluster", "--method", method,
                       "--k", "2", "--iterations", "2", "--data", str(data),
                       "--out", str(tmp_path / "o"), *extra) == 1
        assert capsys.readouterr().err == f"data error: {data}:3: {error}\n"
        assert not (tmp_path / "o" / "model.json").exists()

    def test_model_table_not_a_distribution(self, tmp_path, capsys):
        # a hand-edited theta row that sums to 1 with a negative entry
        data = tmp_path / "docs.txt"
        data.write_text("V=3\n0:2 1:1\n2:4\n")
        gold = tmp_path / "gold.txt"
        gold.write_text("0\n0\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "format_version": 1, "method": "em",
            "task": {"task": "cluster", "k": 1, "v": 3},
            "params": {"kind": "mm", "rho": [1.0],
                       "theta": [[1.5, -0.5, 0.0]]}}))
        capsys.readouterr()
        assert run_cli("eval", "--model", str(model), "--data", str(data),
                       "--gold", str(gold),
                       "--out", str(tmp_path / "eval")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {model}: malformed model")
        assert "finite and nonnegative" in err
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    def test_overlong_sentence_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "long.conll"
        data.write_text("".join(f"{i}\t1\t_\n" for i in range(1, 12)))
        assert run_cli("train", "--task", "depparse", "--method", "searn-lr",
                       "--iterations", "1", "--data", str(data),
                       "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err == "data error: sentence exceeds 10 tokens\n"

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


    @pytest.mark.parametrize("iterations", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["train", "--task", "cluster", "--method", "em"],
        ["train", "--task", "cluster", "--method", "searn-nb", "--exact"],
        ["train", "--task", "sequence", "--method", "em"],
        ["train", "--task", "sequence", "--method", "searn-nb"],
        ["train", "--task", "sequence", "--method", "searn-lr"],
        ["train", "--task", "depparse", "--method", "searn-lr"],
        ["equivalence"],
    ], ids=["cluster-em", "cluster-exact", "sequence-em", "sequence-nb",
            "sequence-lr", "depparse-lr", "equivalence"])
    def test_iterations_below_one_is_config_error(self, tmp_path, capsys,
                                                  argv, iterations):
        # rejected before any data is read (the data file does not exist)
        # or any result is written
        out = tmp_path / "o"
        data = ([] if argv == ["equivalence"]
                else ["--data", str(tmp_path / "missing.txt")])
        assert run_cli(*argv, "--iterations", iterations, *data,
                       "--out", str(out)) == 2
        assert "need at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_vocab_header_over_cap_is_data_error(self, tmp_path):
        # 18 bytes asking for two dense rows of five million words
        import tracemalloc
        from searn.corpus_files import MAX_VOCAB_SIZE
        from searn.errors import DataError
        from searn.task_cluster import read_documents
        data = tmp_path / "docs.txt"
        data.write_text("V=5000000\n0:1\n1:1\n")
        assert data.stat().st_size == 18
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="exceeds the cap"):
                read_documents(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert run_cli("train", "--task", "cluster", "--method", "em",
                       "--data", str(data), "--out", str(tmp_path / "o")) == 1
        data.write_text(f"V={MAX_VOCAB_SIZE}\n0:1\n1:1\n")
        assert read_documents(data)[0].shape == (2, MAX_VOCAB_SIZE)

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_gen_runs_below_one_is_config_error(self, tmp_path, capsys,
                                                runs):
        out = tmp_path / "o"
        assert run_cli("gen", "--task", "sequence", "--runs", runs,
                       "--out", str(out)) == 2
        assert "need at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["depparse", "cluster"])
    def test_gen_runs_needs_sequence_task(self, tmp_path, capsys, task):
        # each of these tasks writes one dataset, so a run count would be
        # ignored; equivalence --runs (TestEquivalenceCommand) still works
        out = tmp_path / "o"
        assert run_cli("gen", "--task", task, "--runs", "3",
                       "--out", str(out)) == 2
        assert f"'gen --task {task}' reads no --runs" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--task", "sequence", "--mean-length", "nan"],
        ["--task", "sequence", "--mean-length", "inf"],
        ["--task", "cluster", "--doc-mean-length", "nan"],
    ], ids=["sequence-nan", "sequence-inf", "cluster-nan"])
    def test_gen_nonfinite_mean_length_is_config_error(self, tmp_path,
                                                       capsys, argv):
        # each once ended in numpy's Poisson sampler with a traceback
        assert run_cli("gen", *argv, "--out", str(tmp_path / "o")) == 2
        assert "mean_length must be finite and positive" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag, task", [
        ("--mean-length", "sequence"), ("--doc-mean-length", "cluster")])
    @pytest.mark.parametrize("value", ["1e19", "9223372006484771841"])
    def test_gen_mean_length_above_poisson_bound(self, tmp_path, capsys,
                                                 flag, task, value):
        # numpy's Poisson sampler once ended these in "ValueError: lam
        # value too large"; the second value is the float after its bound.
        # A sequence mean has the lower bound of the next test.
        out = tmp_path / "o"
        assert run_cli("gen", "--task", task, flag, value,
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"config error: {flag} " in err
        bound = "100000 " if task == "sequence" else "9.223372006484771e+18"
        assert f"at most {bound}" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["100000.00000000001", "1e9"])
    def test_gen_sequence_mean_length_bound(self, tmp_path, capsys, value):
        # a mean numpy accepts once grew one sequence until memory ran
        # out; no sequence is generated here
        out = tmp_path / "o"
        assert run_cli("gen", "--task", "sequence", "--mean-length", value,
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "config error: --mean-length " in err
        assert "at most 100000 (a sequence is held in memory whole)" in err
        assert not out.exists()

    @pytest.mark.parametrize("task, value, extra, error", [
        ("sequence", "nan", [], "smoothing must be finite and nonnegative"),
        ("sequence", "inf", [], "smoothing must be finite and nonnegative"),
        ("depparse", "nan", [], "smoothing must be finite and nonnegative"),
        ("cluster", "nan", ["--exact"], "reads no --smoothing"),
        ("cluster", "-1", ["--exact", "--k", "1"], "reads no --smoothing"),
        ("sequence", "0", [], "no training example would score log 0"),
        ("depparse", "0", [], "no training example would score log 0"),
    ], ids=["sequence-nan", "sequence-inf", "depparse-nan", "cluster-nan",
            "cluster-negative", "sequence-zero", "depparse-zero"])
    def test_bad_smoothing_is_config_error(self, tmp_path, capsys,
                                           task, value, extra, error):
        # a NaN smoothing once trained a NaN model that eval then scored;
        # a negative one trained a one-cluster exact model; a zero one
        # scored every class -inf on an unseen feature, so costs were NaN
        data = tmp_path / "data"
        assert run_cli("gen", "--task", task, *_GEN_SIZE[task],
                       "--out", str(data)) == 0
        path = next(p for p in sorted(data.iterdir())
                    if "gold" not in p.name)
        out = tmp_path / "o"
        capsys.readouterr()
        assert run_cli("train", "--task", task, "--method", "searn-nb",
                       "--smoothing", value, "--iterations", "1",
                       "--data", str(path), "--out", str(out), *extra) == 2
        assert error in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("task, method", [
        ("cluster", "em"), ("cluster", "searn-lr"), ("sequence", "em"),
        ("sequence", "searn-lr"), ("depparse", "searn-lr"),
    ])
    def test_unread_smoothing_is_config_error(self, tmp_path, capsys,
                                              task, method):
        # the flag was accepted and silently ignored: the model file was
        # byte-identical to the run without it
        data = tmp_path / "data"
        assert run_cli("gen", "--task", task, *_GEN_SIZE[task],
                       "--out", str(data)) == 0
        path = next(p for p in sorted(data.iterdir())
                    if "gold" not in p.name)
        out = tmp_path / "o"
        capsys.readouterr()
        assert run_cli("train", "--task", task, "--method", method,
                       "--smoothing", "0.5", "--iterations", "1",
                       "--data", str(path), "--out", str(out)) == 2
        run = f"'train --task {task} --method {method}'"
        error = ("is not a run" if (task, method) == ("cluster", "searn-lr")
                 else "reads no --smoothing")
        assert f"{run} {error}" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_nan_em_tol_is_config_error(self, tmp_path, capsys):
        # a NaN tolerance never stopped early and exited 0; -inf, which
        # runs every iteration, stays legal
        data = tmp_path / "data"
        assert run_cli("gen", "--task", "sequence", "--runs", "1",
                       "--sequences", "2", "--mean-length", "5",
                       "--out", str(data)) == 0
        train = ["train", "--task", "sequence", "--method", "em",
                 "--iterations", "2", "--data",
                 str(data / "sequences-run00.txt")]
        capsys.readouterr()
        assert run_cli(*train, "--em-tol", "nan",
                       "--out", str(tmp_path / "nan")) == 2
        assert "--em-tol nan" in capsys.readouterr().err
        assert not (tmp_path / "nan" / "model.json").exists()
        assert run_cli(*train, "--em-tol=-inf",
                       "--out", str(tmp_path / "inf")) == 0

    def test_learning_curve_empty_test_split_is_config_error(
            self, tmp_path, capsys, monkeypatch):
        # 11 sentences leave the test split empty, whatever the seed; the
        # curve says so before it trains any arm
        import searn.experiments

        def no_training(*args, **kwargs):
            raise AssertionError("an arm was trained")

        monkeypatch.setattr(searn.experiments, "searn_learn", no_training)
        assert run_cli("learning-curve", "--sentences", "11",
                       "--labeled-counts", "1",
                       "--out", str(tmp_path / "o")) == 2
        assert "test split of 11 sentences is empty" in \
            capsys.readouterr().err

    def test_gen_vocab_over_cap_is_config_error(self, tmp_path):
        from searn.corpus_files import MAX_VOCAB_SIZE
        for task in ("cluster", "sequence"):
            assert run_cli("gen", "--task", task, "--v",
                           str(MAX_VOCAB_SIZE + 1),
                           "--out", str(tmp_path / task)) == 2

    def test_undecodable_files(self, tmp_path):
        data, cfg = tmp_path / "data.txt", tmp_path / "bad.cfg"
        data.write_bytes(b"V=3\n0 1 \xff\n")
        cfg.write_bytes(b"task=seq\xffuence\n")
        assert run_cli("train", "--task", "sequence", "--method", "em",
                       "--data", str(data), "--out", str(tmp_path / "o")) == 1
        assert run_cli("gen", "--config", str(cfg)) == 2


_SEQUENCE_SPEC = {"task": "sequence", "k": 2, "v": 10,
                  "feature_mode": "nb_hmm"}


def _parse_model(**spec):
    """A parse model file with ``spec`` and a policy of no rules."""
    return {"format_version": 1, "method": "searn-lr",
            "task": {"task": "depparse", **spec},
            "policy": {"format_version": 1, "feature_names": [],
                       "components": []}}


@pytest.mark.parametrize("blob", [
    {"format_version": 1, "method": "em"},
    [1, 2],
    "model",
    {"format_version": 2, "method": "em", "task": _SEQUENCE_SPEC},
    {"format_version": 1, "method": "em", "task": "sequence"},
    {"format_version": 1, "method": "em", "task": {"task": "tagging"}},
    {"format_version": 1, "method": "svm", "task": _SEQUENCE_SPEC},
    {"format_version": 1, "method": "em", "task": _SEQUENCE_SPEC},
    {"format_version": 1, "method": "em", "task": _SEQUENCE_SPEC,
     "params": {"initial": [1.0], "transition": "x", "emission": []}},
    {"format_version": 1, "method": "searn-nb", "task": _SEQUENCE_SPEC},
    {"format_version": 1, "method": "searn-nb", "task": _SEQUENCE_SPEC,
     "policy": []},
    {"format_version": 1, "method": "searn-nb",
     "task": {"task": "sequence", "k": 2}, "policy": {}},
    {"format_version": 1, "method": "em",
     "task": {"task": "cluster", "k": 2, "v": 10},
     "params": {"rho": [0.5, 0.5]}},
    _parse_model(tagset=12, supervision="distant"),
    _parse_model(supervision="unsup"),
    _parse_model(tagset=1, supervision="unsup"),
], ids=["no-task", "list", "string", "version", "task-not-object",
        "unknown-task", "unknown-method", "no-params", "bad-tables",
        "no-policy", "policy-list", "spec-fields", "no-theta",
        "parse-supervision", "parse-no-tagset", "parse-tagset-1"])
def test_malformed_model_is_data_error(seq_run, tmp_path, blob):
    data, _ = seq_run
    model = tmp_path / "model.json"
    model.write_text(json.dumps(blob))
    assert run_cli("eval", "--model", str(model),
                   "--data", str(data / "sequences-run00.txt"),
                   "--gold", str(data / "sequences-run00.gold.txt"),
                   "--out", str(tmp_path / "eval")) == 1


def test_model_supervision_is_checked(seq_run, tmp_path, capsys):
    # no task reads the recorded mode, but eval still rejects an unknown one
    data, _ = seq_run
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_parse_model(tagset=12,
                                             supervision="distant")))
    assert run_cli("eval", "--model", str(model),
                   "--data", str(data / "sequences-run00.txt"),
                   "--out", str(tmp_path / "eval")) == 1
    assert f"data error: {model}: malformed model (ConfigError('supervision " \
        "must be unsup, sup or semi'))" in capsys.readouterr().err


@pytest.fixture(scope="module")
def parse_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("parserun")
    data, run = root / "data", root / "run"
    assert run_cli("gen", "--task", "depparse", "--sentences", "6",
                   "--seed", "3", "--out", str(data)) == 0
    assert run_cli("train", "--task", "depparse", "--method", "searn-lr",
                   "--supervision", "sup", "--iterations", "1",
                   "--data", str(data / "treebank.conll"),
                   "--out", str(run)) == 0
    return data / "treebank.conll", run / "model.json"


def _parse_three_rows(policy):
    model = policy["components"][0]["models"]["parse"]
    model["weights"] = model["weights"][:3]


def _parse_scalar_weights(policy):
    policy["components"][0]["models"]["parse"]["weights"] = 3.0


def _parse_initial_rule(policy):
    policy["components"] = [{"kind": "initial", "weight": 1.0}]


def _parse_nan_mixture_weights(policy):
    rule = policy["components"][0]
    policy["components"] = [dict(rule, weight=float("nan")),
                            dict(rule, weight=float("nan"))]


def _parse_nan_weight(policy):
    policy["components"][0]["models"]["parse"]["weights"][1][0] = \
        float("nan")


def _parse_infinite_variance(policy):
    policy["components"][0]["models"]["parse"]["l2_variance"] = \
        float("inf")


def _parse_zero_variance(policy):
    policy["components"][0]["models"]["parse"]["l2_variance"] = 0.0


def _nb_short_prior(policy):
    model = policy["components"][0]["models"]["emit"]
    model["class_log_prior"] = model["class_log_prior"][:1]


def _nb_nan_table(policy):
    policy["components"][0]["models"]["emit"]["feature_log_prob"][0][0] = \
        float("nan")


@pytest.mark.parametrize("edit, error", [
    (_parse_three_rows, "group 'parse' has a 3-class model"),
    (_parse_scalar_weights, "2-D weight table"),
    (_parse_initial_rule, "learned rules only"),
    (_parse_nan_mixture_weights, "policy weights sum to nan"),
    (_parse_nan_weight, "LR weights must be finite"),
    (_parse_infinite_variance, "l2_variance must be finite and positive"),
    (_parse_zero_variance, "l2_variance must be finite and positive"),
    (_nb_short_prior, "one prior entry per table row"),
    (_nb_nan_table, "must not be NaN"),
], ids=["parse-three-rows", "parse-scalar-weights", "parse-initial-rule",
        "parse-nan-mixture-weights", "parse-nan-weight",
        "parse-infinite-variance", "parse-zero-variance", "nb-short-prior",
        "nb-nan-table"])
def test_malformed_policy_is_data_error(seq_run, parse_run, tmp_path,
                                        capsys, edit, error):
    # hand edits of a trained model that once ended in a traceback, in a
    # score of NaN numbers, or (the initial rule) in a perfect score read
    # off the gold trees
    if edit in (_nb_short_prior, _nb_nan_table):
        data, run = seq_run
        trained, data = run / "model.json", data / "sequences-run00.txt"
        gold = ["--gold", str(data).replace(".txt", ".gold.txt")]
    else:
        data, trained = parse_run
        gold = []
    blob = json.loads(trained.read_text())
    edit(blob["policy"])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(blob))
    capsys.readouterr()
    assert run_cli("eval", "--model", str(model), "--data", str(data),
                   *gold, "--out", str(tmp_path / "eval")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {model}") and error in err


@pytest.mark.parametrize("cut", ["label", "line"])
def test_misaligned_sequence_gold_is_data_error(seq_run, tmp_path, capsys,
                                                cut):
    # eval once compared only the pooled label counts, so a label moved
    # from one gold line to the next was scored and exited 0
    data, run = seq_run
    xs, _ = read_sequences(data / "sequences-run00.txt")
    gold, k = read_sequences(data / "sequences-run00.gold.txt")
    if cut == "label":
        gold[1:3] = [gold[1][:-1], gold[1][-1:] + gold[2]]
        i, n = 2, len(xs[1]) - 1
    else:
        gold = gold[:-1]
        i, n = len(xs), 0
    path = tmp_path / "gold.txt"
    write_sequences(path, gold, k, "")
    out = tmp_path / "o"
    capsys.readouterr()
    assert run_cli("eval", "--model", str(run / "model.json"),
                   "--data", str(data / "sequences-run00.txt"),
                   "--gold", str(path), "--out", str(out)) == 1
    assert f"{path}: gold sequence {i} has {n} labels, but sequence {i} " \
        in capsys.readouterr().err
    assert not out.exists()


def test_nb_log_zero_still_loads(seq_run, tmp_path):
    # -inf is log 0, which an unsmoothed NB fit writes
    data, run = seq_run
    blob = json.loads((run / "model.json").read_text())
    blob["policy"]["components"][0]["models"]["emit"][
        "feature_log_prob"][0][0] = float("-inf")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(blob))
    assert run_cli("eval", "--model", str(model),
                   "--data", str(data / "sequences-run00.txt"),
                   "--gold", str(data / "sequences-run00.gold.txt"),
                   "--out", str(tmp_path / "eval")) == 0


def test_decode_reads_no_gold_tree(parse_run, tmp_path, monkeypatch):
    # a sup policy with no parse model acts by the initial rule at every
    # parse decision; that rule once followed the gold trees eval scores
    # against (arc accuracy 1.0), and now acts at random
    import searn.task_depparse

    def oracle(*args):
        raise AssertionError("decoding reached supervised_oracle")

    monkeypatch.setattr(searn.task_depparse, "supervised_oracle", oracle)
    data, trained = parse_run
    blob = json.loads(trained.read_text())
    del blob["policy"]["components"][0]["models"]["parse"]
    model, out = tmp_path / "model.json", tmp_path / "eval"
    model.write_text(json.dumps(blob))
    assert run_cli("eval", "--model", str(model), "--data", str(data),
                   "--out", str(out)) == 0
    assert json.loads((out / "summary.json").read_text())["mean"] < 1.0


@pytest.mark.parametrize("gold", ["data", "missing"])
def test_parse_eval_takes_no_gold(parse_run, tmp_path, capsys, gold):
    # a parse model is scored against the trees of --data; eval once
    # ignored --gold there, even a file that does not exist
    data, model = parse_run
    path = data if gold == "data" else tmp_path / "missing.gold.txt"
    out = tmp_path / "eval"
    capsys.readouterr()
    assert run_cli("eval", "--model", str(model), "--data", str(data),
                   "--gold", str(path), "--out", str(out)) == 2
    assert "takes no --gold" in capsys.readouterr().err
    assert not out.exists()


# Settings a run does not read.  Each call once exited 0, and where it
# wrote a model, the model had the md5 of the run without the setting.
_SEQUENCE_NB = ["train", "--task", "sequence", "--method", "searn-nb",
                "--iterations", "1", "--data", "{seq}"]
_PARSE_LR = ["train", "--task", "depparse", "--method", "searn-lr",
             "--iterations", "1", "--data", "{bank}"]


@pytest.mark.parametrize("argv, unread", [
    (_SEQUENCE_NB, ["--lr-variance", "0.001"]),
    (_SEQUENCE_NB, ["--em-tol", "7"]),
    (_SEQUENCE_NB, ["--supervision", "unsup"]),
    (_SEQUENCE_NB, ["--tagset", "3"]),
    (_PARSE_LR, ["--labeled-count", "5"]),
    (_PARSE_LR, ["--sentences", "3"]),
    (["gen", "--task", "depparse", "--sentences", "4"],
     ["--iterations", "9", "--lr-variance", "3"]),
    (["eval", "--model", "{model}", "--data", "{seq}", "--gold", "{gold}"],
     ["--k", "7", "--beta", "0.3"]),
], ids=["seq-nb-lr-variance", "seq-nb-em-tol", "seq-nb-supervision",
        "seq-nb-tagset", "parse-unsup-labeled-count", "parse-sentences",
        "gen-depparse-training", "eval-k-beta"])
def test_unread_setting_is_config_error(seq_run, parse_run, tmp_path,
                                        capsys, argv, unread):
    data, run = seq_run
    paths = {"{seq}": str(data / "sequences-run00.txt"),
             "{gold}": str(data / "sequences-run00.gold.txt"),
             "{model}": str(run / "model.json"), "{bank}": str(parse_run[0])}
    argv = [paths.get(arg, arg) for arg in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "base")) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    assert run_cli(*argv, *unread, "--out", str(out)) == 2
    assert "reads no " + ", ".join(sorted(unread[::2])) in \
        capsys.readouterr().err
    assert not out.exists()


def test_unread_config_key_is_config_error(seq_run, tmp_path, capsys):
    # a config file belongs to one run, as the flags it mirrors do
    data, _ = seq_run
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task=sequence\nmethod=searn-nb\nem_tol=7\n")
    out = tmp_path / "o"
    assert run_cli("train", "--config", str(cfg), "--data",
                   str(data / "sequences-run00.txt"), "--out", str(out)) == 2
    assert "'train --task sequence --method searn-nb' reads no --em-tol" \
        in capsys.readouterr().err
    assert not out.exists()


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

    @pytest.mark.parametrize("argv, error", [
        (["equivalence", "--task", "sequence"],
         "'equivalence --task sequence' is not a run"),
        (["equivalence", "--task", "depparse"],
         "'equivalence --task depparse' is not a run"),
        (["learning-curve", "--seed", "5"],
         "'learning-curve --task depparse' reads no --seed"),
    ], ids=["equivalence-sequence", "equivalence-depparse",
            "learning-curve-seed"])
    def test_one_task_command_is_config_error(self, tmp_path, capsys, argv,
                                              error):
        # the sweep once ran the cluster task with another task's
        # defaults, and the curve ignored --seed (it reads --seeds)
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()


def test_posterior_decode_needs_hmm_models(seq_run, tmp_path, capsys):
    # the flag was ignored for a searn model: both output files were
    # byte-identical to the run without it
    data, run = seq_run
    out = tmp_path / "o"
    assert run_cli("eval", "--model", str(run / "model.json"),
                   "--data", str(data / "sequences-run00.txt"),
                   "--gold", str(data / "sequences-run00.gold.txt"),
                   "--posterior-decode", "--out", str(out)) == 2
    assert "is not an HMM model" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# one table of runs: flags, help and defaults


def _command_settings(command):
    # --task and --method only where some run of the command is keyed by it
    names = {"config", "out"}
    for key, entry in cli._RUNS.items():
        if key[0] == command:
            names |= entry.keys()
            names |= {name for name, value in zip(("task", "method"), key[1:])
                      if value}
    return {"--" + name.replace("_", "-") for name in names}


@pytest.mark.parametrize("command", ["gen", "train", "eval",
                                     "learning-curve", "equivalence"])
def test_help_lists_the_command_settings(capsys, command):
    # every command once listed all 32 settings, most of them rejected
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        run_cli(command, "--help")
    assert stop.value.code == 0
    listed = {line.split()[0].rstrip(",")
              for line in capsys.readouterr().out.splitlines()
              if line.startswith("  --")}
    assert listed == _command_settings(command)


def test_top_level_help_lists_every_command(capsys):
    # only the named command gets its flags; every one is still registered
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        run_cli("--help")
    assert stop.value.code == 0
    assert "{gen,train,eval,learning-curve,equivalence}" in \
        capsys.readouterr().out


@pytest.mark.parametrize("argv, error", [
    # eval --help once listed --task and --method, and every value of
    # either was rejected as "not a run"
    (["eval", "--task", "sequence"], "'eval' reads no --task"),
    (["eval", "--method", "em"], "'eval' reads no --method"),
    (["gen", "--method", "em"], "'gen' reads no --method"),
    (["gen", "--task", "depparse", "--method", "em"],
     "'gen' reads no --method"),
    (["learning-curve", "--method", "searn-lr"],
     "'learning-curve' reads no --method"),
    (["equivalence", "--method", "em"], "'equivalence' reads no --method"),
    # numpy's seed derivation once raised a ValueError traceback, after
    # gen had made its output directory
    (["gen", "--task", "depparse", "--sentences", "5", "--seed", "-1"],
     "--seed -1: seeds are non-negative"),
    (["train", "--task", "sequence", "--method", "em", "--data",
      "missing.txt", "--seed", "-1"], "--seed -1: seeds are non-negative"),
    (["eval", "--model", "missing.json", "--data", "missing.txt",
      "--seed", "-2"], "--seed -2: seeds are non-negative"),
    (["learning-curve", "--seeds=-1"], "--seeds -1: seeds are non-negative"),
    (["learning-curve", "--seeds", "0,-3"],
     "--seeds 0,-3: seeds are non-negative"),
    (["equivalence", "--seed", "-1"], "--seed -1: seeds are non-negative"),
    # a count of 0 once trained the unsup and semi arms before an empty
    # dataset stopped it; -3 stopped after the unsup arm, naming
    # labeled_count, not the flag
    (["learning-curve", "--labeled-counts", "0", "--sentences", "60",
      "--iterations", "1"], "--labeled-counts 0: each count needs"),
    (["learning-curve", "--labeled-counts=-3,5", "--sentences", "60",
      "--iterations", "1"], "--labeled-counts -3: each count needs"),
    # once found after the treebank was read, naming labeled_count; sup
    # with 0 once ended in "data error: dataset is empty", exit 1
    (["train", "--task", "depparse", "--method", "searn-lr",
      "--supervision", "semi", "--labeled-count=-1", "--data",
      "missing.conll"], "--labeled-count -1: a count is non-negative"),
    (["train", "--task", "depparse", "--method", "searn-lr",
      "--supervision", "sup", "--labeled-count", "0", "--data",
      "missing.conll"], "--labeled-count 0: a supervised run needs"),
    # -1 once ended in a traceback from the EM start, 0 in an error about
    # rho that named no flag
    (["train", "--task", "cluster", "--method", "em", "--k", "-1",
      "--data", "missing.txt"], "--k -1: need at least 1"),
    (["train", "--task", "cluster", "--method", "em", "--k", "0",
      "--data", "missing.txt"], "--k 0: need at least 1"),
    (["gen", "--task", "sequence", "--k=-2"], "--k -2: need at least 1"),
    # the value of a flag the run does not read was once reported as a
    # flag too: "reads no --1, --k"
    (["equivalence", "--runs", "2", "--documents", "10", "--seed", "1",
      "--k", "-1"], "'equivalence --task cluster' reads no --k"),
    # each was once found by the library, after the data were read or the
    # run had begun, and named by its field: "n_samples must be >= 1",
    # "n_documents must be at least 1"
    (["train", "--task", "sequence", "--method", "searn-nb", "--data",
      "missing.txt", "--n-samples", "0"], "--n-samples 0: need at least 1"),
    (["train", "--task", "depparse", "--method", "searn-lr", "--data",
      "missing.conll", "--n-samples=-1"], "--n-samples -1: need at least 1"),
    (["gen", "--task", "depparse", "--sentences", "0"],
     "--sentences 0: need at least 1"),
    (["learning-curve", "--sentences=-1"], "--sentences -1: need at least 1"),
    (["gen", "--task", "cluster", "--documents", "0"],
     "--documents 0: need at least 1"),
    (["equivalence", "--documents=-1"], "--documents -1: need at least 1"),
    (["gen", "--task", "sequence", "--sequences", "0"],
     "--sequences 0: need at least 1"),
    (["gen", "--task", "cluster", "--clusters", "0"],
     "--clusters 0: need at least 1"),
], ids=["eval-task", "eval-method", "gen-method", "gen-depparse-method",
        "learning-curve-method", "equivalence-method", "gen-negative-seed",
        "train-negative-seed", "eval-negative-seed",
        "learning-curve-negative-seed", "learning-curve-negative-in-list",
        "equivalence-negative-seed", "learning-curve-zero-count",
        "learning-curve-negative-count", "train-negative-labeled-count",
        "train-sup-zero-labeled-count", "train-cluster-negative-k",
        "train-cluster-zero-k", "gen-sequence-negative-k",
        "equivalence-unread-negative-value", "train-sequence-n-samples",
        "train-depparse-n-samples", "gen-sentences",
        "learning-curve-sentences", "gen-documents",
        "equivalence-documents", "gen-sequences", "gen-clusters"])
def test_bad_flag_is_config_error(tmp_path, capsys, monkeypatch, argv,
                                  error):
    import searn.experiments
    learned = []
    learn = searn.experiments.searn_learn

    def counted(*args, **kwargs):
        learned.append(args)
        return learn(*args, **kwargs)

    monkeypatch.setattr(searn.experiments, "searn_learn", counted)
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert error in capsys.readouterr().err
    assert not out.exists()
    assert learned == []


@pytest.mark.parametrize("task, method, flag, value", [
    ("sequence", "searn-nb", "beta", "0"),
    ("depparse", "searn-nb", "beta", "1.5"),
    ("sequence", "searn-nb", "smoothing", "-1"),
    ("sequence", "searn-lr", "lr-variance", "0"),
    ("depparse", "searn-lr", "tree-variance", "0"),
    ("depparse", "searn-lr", "tag-variance", "-2"),
    # an infinite variance once trained and wrote "l2_variance": Infinity,
    # which is not JSON
    ("sequence", "searn-lr", "lr-variance", "inf"),
    ("depparse", "searn-lr", "tree-variance", "inf"),
    ("depparse", "searn-lr", "tag-variance", "inf"),
])
def test_bad_learning_setting_is_config_error(seq_run, parse_run, tmp_path,
                                              capsys, monkeypatch, task,
                                              method, flag, value):
    # each was once found only inside the learning loop, after examples
    # were generated, and the variance errors named no flag
    import searn.core
    generated = []
    generate = searn.core.generate_examples

    def counted(*args, **kwargs):
        generated.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(searn.core, "generate_examples", counted)
    data = (seq_run[0] / "sequences-run00.txt" if task == "sequence"
            else parse_run[0])
    out = tmp_path / "o"
    capsys.readouterr()
    assert run_cli("train", "--task", task, "--method", method,
                   f"--{flag}={value}", "--iterations", "1",
                   "--data", str(data), "--out", str(out)) == 2
    assert f"config error: --{flag} " in capsys.readouterr().err
    assert generated == []
    assert not out.exists()


def test_unkeyed_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method=em\n")
    out = tmp_path / "o"
    assert run_cli("gen", "--config", str(cfg), "--task", "depparse",
                   "--out", str(out)) == 2
    assert "'gen' reads no --method" in capsys.readouterr().err
    assert not out.exists()


def test_abbreviated_flag_is_config_error(seq_run, tmp_path, capsys):
    # --iter was once read as --iterations
    data, _ = seq_run
    out = tmp_path / "o"
    capsys.readouterr()
    assert run_cli("train", "--task", "sequence", "--method", "searn-nb",
                   "--iter", "1", "--data", str(data / "sequences-run00.txt"),
                   "--out", str(out)) == 2
    assert "'train --task sequence --method searn-nb' reads no --iter" in \
        capsys.readouterr().err
    assert not out.exists()


def test_stray_argument_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    capsys.readouterr()
    assert run_cli("gen", "stray", "--task", "depparse", "--out",
                   str(out)) == 2
    assert capsys.readouterr().err == \
        "config error: unexpected argument 'stray'\n"
    assert not out.exists()


@pytest.mark.parametrize("key", list(cli._RUNS), ids=cli._run_name)
def test_run_sets_exactly_its_defaults(key):
    argv = [key[0]]
    for flag, value in zip(("--task", "--method"), key[1:]):
        argv += [flag, value] if value else []
    cfg = configure(argv)
    set_names = {name for name in cli._KINDS if getattr(cfg, name) is not None}
    defaulted = {name for name, value in cli._RUNS[key].items()
                 if value is not None}
    assert set_names - {"out", "task", "method"} == defaulted


# Each call once left an empty --out directory behind.
@pytest.mark.parametrize("argv, code", [
    (["gen", "--task", "sequence", "--order", "3"], 2),
    (["train", "--task", "sequence", "--method", "em",
      "--data", "{missing}"], 1),
    (["equivalence", "--runs", "2", "--documents", "0"], 2),
], ids=["gen-order-3", "train-missing-data", "equivalence-no-documents"])
def test_failed_run_makes_no_out_dir(tmp_path, argv, code):
    out = tmp_path / "out"
    argv = [arg.format(missing=tmp_path / "missing.txt") for arg in argv]
    assert run_cli(*argv, "--out", str(out)) == code
    assert not out.exists()
