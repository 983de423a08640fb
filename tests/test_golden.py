"""Golden runs: fixed-seed CLI calls whose result files must not change.

Every result file written by the calls below (all but ``timings.log``,
which holds wall-clock times) is hashed and compared with the sha256
recorded in ``GOLDEN``.  A refactor that keeps behaviour passes as it
stands; a change that moves any output must declare itself by updating
the table.  A few experiment-protocol values that the CLI does not reach
are pinned the same way.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from searn.cli import main
from searn.experiments import (ParseExperiment, SequenceExperiment,
                               random_parse_baseline, run_parse,
                               run_sequence)


def _calls():
    """(step name, argv) in run order; ``{}`` stands for the run root."""
    seq = "{}/seq-data/sequences-run00.txt"
    seq1 = "{}/seq-data/sequences-run01.txt"
    gold = "{}/seq-data/sequences-run00.gold.txt"
    gold1 = "{}/seq-data/sequences-run01.gold.txt"
    docs = "{}/doc-data/documents.txt"
    doc_gold = "{}/doc-data/documents.gold.txt"
    bank = "{}/bank/treebank.conll"
    heldout = "{}/heldout/treebank.conll"
    calls = [
        ("seq-data", ["gen", "--task", "sequence", "--runs", "2",
                      "--sequences", "5", "--mean-length", "10",
                      "--seed", "5"]),
        ("doc-data", ["gen", "--task", "cluster", "--documents", "30",
                      "--k", "2", "--seed", "4"]),
        ("bank", ["gen", "--task", "depparse", "--sentences", "30",
                  "--seed", "2"]),
        ("heldout", ["gen", "--task", "depparse", "--sentences", "12",
                     "--seed", "3"]),
    ]
    for method, extra in (("em", ["--iterations", "5"]),
                          ("searn-nb", ["--iterations", "2"]),
                          ("searn-lr", ["--iterations", "2"])):
        calls.append((f"seq-{method}", [
            "train", "--task", "sequence", "--method", method,
            "--data", seq, "--seed", "1"] + extra))
        model = f"{{}}/seq-{method}/model.json"
        calls.append((f"seq-{method}-eval", [
            "eval", "--model", f"{model},{model}", "--data", f"{seq},{seq1}",
            "--gold", f"{gold},{gold1}", "--seed", "2"]))
    calls.append(("seq-em-posterior-eval", [
        "eval", "--model", "{}/seq-em/model.json", "--data", seq,
        "--gold", gold, "--posterior-decode"]))
    calls += [
        ("doc-em", ["train", "--task", "cluster", "--method", "em",
                    "--data", docs, "--iterations", "5", "--seed", "3"]),
        ("doc-exact", ["train", "--task", "cluster", "--method", "searn-nb",
                       "--exact", "--data", docs, "--iterations", "5",
                       "--seed", "3"]),
    ]
    for method in ("em", "exact"):
        calls.append((f"doc-{method}-eval", [
            "eval", "--model", f"{{}}/doc-{method}/model.json",
            "--data", docs, "--gold", doc_gold]))
    for supervision, extra in (("unsup", []), ("sup", []),
                               ("semi", ["--labeled-count", "6"])):
        calls.append((f"parse-{supervision}", [
            "train", "--task", "depparse", "--method", "searn-lr",
            "--supervision", supervision, "--iterations", "2",
            "--data", bank, "--seed", "1"] + extra))
        calls.append((f"parse-{supervision}-eval", [
            "eval", "--model", f"{{}}/parse-{supervision}/model.json",
            "--data", heldout, "--seed", "4"]))
    calls += [
        ("curve", ["learning-curve", "--sentences", "40", "--iterations",
                   "1", "--labeled-counts", "4", "--seeds", "0"]),
        ("equivalence", ["equivalence", "--runs", "3"]),
    ]
    return calls


def _run(root: Path) -> dict:
    """Run every call; returns {"step/file": sha256} over result files."""
    hashes = {}
    for step, argv in _calls():
        argv = [a.replace("{}", str(root)) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", str(root / step)])
        assert code == 0, (step, code)
        for path in sorted((root / step).iterdir()):
            if path.name != "timings.log":
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                hashes[f"{step}/{path.name}"] = digest
    return hashes


def _protocol_values() -> dict:
    """Experiment-protocol results the CLI does not reach."""
    seq = SequenceExperiment(n_datasets=2, n_sequences=3, mean_length=8.0,
                             em_iterations=3, iterations=2, master_seed=7)
    parse = ParseExperiment(n_sentences=60, train_limit=20, iterations=1,
                            master_seed=3)
    values = {method: list(run_sequence(seq, method).values)
              for method in ("em", "searn-nb", "searn-lr")}
    values["parse-sup-8"] = run_parse(parse, "sup", labeled_count=8)
    values["random-parse"] = random_parse_baseline(parse)
    return {name: hashlib.sha256(json.dumps(v).encode()).hexdigest()
            for name, v in values.items()}


GOLDEN = {
    "bank/treebank.conll":
        "7692d0e800371a5cc4c88ac508279c760c5f587a508c7a0ea1fb1e68227f8620",
    "curve/curve.csv":
        "36f5b30bb9aeaf3496a3419581ee8d01c64e0cde58a9204c97b1b4845b1e76de",
    "doc-data/documents.gold.txt":
        "0aacab417592d8ac6c71bd6d5a9cbdddbcd1ce285727dee9c675d12941b2f6da",
    "doc-data/documents.txt":
        "5e32bd4e1fb2b46a81ec4f2dc9a99af28c22ffea772986ad0c83b1481f21ccb2",
    "doc-em-eval/metrics.csv":
        "7302f4748245dd6eb1e5bed2b742135bb02f8d4d09f6f4724f7969549661ac91",
    "doc-em-eval/summary.json":
        "381749daa90ab08dd34d44e5ecf06f0140fe303b24a13e4bf1185f7cfe5ccc0b",
    "doc-em/model.json":
        "c2d993afd32a274a781a560e8eb704e2f1639869c375c67ed532b410cfdac4dc",
    "doc-em/train-log.csv":
        "145d8a9be0e112a99aefba605041b25a09dbb1f7754b0095d2eb3339f84d1ec9",
    "doc-exact-eval/metrics.csv":
        "7302f4748245dd6eb1e5bed2b742135bb02f8d4d09f6f4724f7969549661ac91",
    "doc-exact-eval/summary.json":
        "381749daa90ab08dd34d44e5ecf06f0140fe303b24a13e4bf1185f7cfe5ccc0b",
    "doc-exact/model.json":
        "7ea72ff7cab348bea6c83943df4ff6f62e87617ecdba58c4017d69a9e0242681",
    "doc-exact/train-log.csv":
        "75760363b569e69d30e0d4167ba6c63c19e13384506cdd6a00203b688ffb8871",
    "equivalence/equivalence.json":
        "cfcb09413d6421cc20e50b828c5edbd1ca9e17efd1bd5a6f85499aff20b448ad",
    "heldout/treebank.conll":
        "b06196c99a3f7cbd376e6ab976e9c137e28299edf2f13dfe9d748493edb3902c",
    "parse-semi-eval/metrics.csv":
        "8f97c5757c752691158cc95fb309014697ec0af556ea121521b4d292ccb24756",
    "parse-semi-eval/summary.json":
        "2ed1e20cadfda55112fe85fd5c9c8bedda27c5734d531e8eee022efc09fb5a25",
    "parse-semi/model.json":
        "680ca75f59fc231cfe11c088f0303298d754969eee9a0c18b2ecf0249793d457",
    "parse-semi/train-log.csv":
        "b48a1b33b4a7d9ff9f4bb98a07bf9add9fa0b167601c1bee8ca22db2104a9a91",
    "parse-sup-eval/metrics.csv":
        "3253deeb8fde94dfd07f2604415a66ee06f1e963abdc3708f82e9264a8a91a36",
    "parse-sup-eval/summary.json":
        "b2b3bf6e3c056d5c3318af4fd0ae5fa05c92ed464894976e3aea535c45ce2520",
    "parse-sup/model.json":
        "c34fe58f22a6fb428b0600e74e20e5538d867d3d50130f2e671047596772b1a4",
    "parse-sup/train-log.csv":
        "4a3643cecc0e429c47d605cecb80a710269b3cb7ac9d83246f829f872faff954",
    "parse-unsup-eval/metrics.csv":
        "f9f0f766ccd5dc002e97cdedad661fb3652bcb4521c82922a90ff755b294f7f8",
    "parse-unsup-eval/summary.json":
        "aa02b3eacdb6a001c07599ebdd4b55243c7cb3a8cd19bb18b2e922112aeba3d2",
    "parse-unsup/model.json":
        "c0927569488a793b86b01a978ea7773ea5de04e5be18059f460c921ec5aebe22",
    "parse-unsup/train-log.csv":
        "0c43d7658cc4f4bafdc144c371db55d08a2a49e7314465fe3eebd7ef35679dfb",
    "seq-data/sequences-run00.gold.txt":
        "66e30ebcd52a083274ddd506c28f57163f44d95e743e9c1b4a0d18a151716564",
    "seq-data/sequences-run00.txt":
        "a71e7563ce19652f9e7724736c020a957aea1ae8fc60eb98f2f2686b9677976d",
    "seq-data/sequences-run01.gold.txt":
        "69e8267b89223f9087adc3c8037f0582beac3b708d4490d3db8eb3024f1699a9",
    "seq-data/sequences-run01.txt":
        "030eb7f835f95fd049b70a97b2d3162cce884ea2c7bb019e84456a147b74407e",
    "seq-em-eval/metrics.csv":
        "1e407fb56610429e5f87fde5a401383e2bf5aa7911fcc7d15d55873b4c7dafab",
    "seq-em-eval/summary.json":
        "28ea165d4dd91074b16d1dd32681f44a0b066265e43910de0755820f2aba9b94",
    "seq-em-posterior-eval/metrics.csv":
        "24ff4c5350077b8b874fc4bcae125b7e0484764d285c0b58bfcaa1e5f79f5290",
    "seq-em-posterior-eval/summary.json":
        "35b94f718e8fe4195a9af3929c56444acf853c27f7c714caac8ba01a5603227a",
    "seq-em/model.json":
        "0ef4f5f98ce902081a2b0b402b0e6ec951568ba2a94362361071bad4fc52ea03",
    "seq-em/train-log.csv":
        "482648459cb30eec25ee19b6000cc8f810230ea48cb931b235bf69083203e339",
    "seq-searn-lr-eval/metrics.csv":
        "b74f5bd3c1565a2ea235d4a889b74e773486e96852f5c9c6d0d6183c33ae0055",
    "seq-searn-lr-eval/summary.json":
        "16489356a90329d52d8d4883f835978aaa8cfcb3e88ba87b8d31ee803f8a6a5f",
    "seq-searn-lr/model.json":
        "24eb9a23a6608b201f33562f284b40f7e5594ce38dfccb8ded298e0b19447942",
    "seq-searn-lr/train-log.csv":
        "6c06695ab3ab00b7daa4e0d6aaf694bad4cf274915a140a2a5779aca6a1d42ad",
    "seq-searn-nb-eval/metrics.csv":
        "b74f5bd3c1565a2ea235d4a889b74e773486e96852f5c9c6d0d6183c33ae0055",
    "seq-searn-nb-eval/summary.json":
        "16489356a90329d52d8d4883f835978aaa8cfcb3e88ba87b8d31ee803f8a6a5f",
    "seq-searn-nb/model.json":
        "95216584385c4b694ee2fe0afbd66b70d2d368eb6194f98383d9b64c6979a386",
    "seq-searn-nb/train-log.csv":
        "6c06695ab3ab00b7daa4e0d6aaf694bad4cf274915a140a2a5779aca6a1d42ad",
}

GOLDEN_PROTOCOL = {
    "em":
        "277ba4bdad0bfc9e0d32630a1eef465afc85aa4a0f49e88f316a9da76a683ed2",
    "parse-sup-8":
        "7849cb588d9489766c1f960213784f17f216fe285ec0bf9bd187a186faea8aa2",
    "random-parse":
        "a63e09e814f1704f942dcb16ec9b747bb7043c052fb71ece8b02e4df13589865",
    "searn-lr":
        "1f7fb5b60002a87b59c8ff95919b413713bc9484c15f9f232ddcb3acc8193d87",
    "searn-nb":
        "758acd4e1554965107aacd07a3c2df8395988c218c92bb4f08bd5303242967a2",
}


@pytest.fixture(scope="module")
def golden_hashes(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("golden"))


def test_same_result_files(golden_hashes):
    assert sorted(golden_hashes) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_result_file_unchanged(golden_hashes, name):
    assert golden_hashes[name] == GOLDEN[name]


def test_protocol_values_unchanged():
    assert _protocol_values() == GOLDEN_PROTOCOL
