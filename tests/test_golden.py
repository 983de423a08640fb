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
from searn.experiments import (ParseExperiment, parse_corpus,
                               random_parse_baseline, run_parse)


def _calls():
    """(step name, argv) in run order; ``{}`` stands for the run root."""
    seq = "{}/seq-data/sequences-run00.txt"
    seq1 = "{}/seq-data/sequences-run01.txt"
    gold = "{}/seq-data/sequences-run00.gold.txt"
    gold1 = "{}/seq-data/sequences-run01.gold.txt"
    seq2 = "{}/seq2-data/sequences-run00.txt"
    seq2_1 = "{}/seq2-data/sequences-run01.txt"
    gold2 = "{}/seq2-data/sequences-run00.gold.txt"
    gold2_1 = "{}/seq2-data/sequences-run01.gold.txt"
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
    # one order-2 cell of the sequence grid
    model2 = "{}/seq2-searn-nb/model.json"
    calls += [
        ("seq2-data", ["gen", "--task", "sequence", "--order", "2",
                       "--runs", "2", "--sequences", "5", "--mean-length",
                       "10", "--seed", "8"]),
        ("seq2-searn-nb", ["train", "--task", "sequence", "--method",
                           "searn-nb", "--data", seq2, "--iterations", "2",
                           "--seed", "1"]),
        ("seq2-searn-nb-eval", ["eval", "--model", f"{model2},{model2}",
                                "--data", f"{seq2},{seq2_1}",
                                "--gold", f"{gold2},{gold2_1}",
                                "--seed", "2"]),
    ]
    calls += [
        ("doc-em", ["train", "--task", "cluster", "--method", "em",
                    "--data", docs, "--iterations", "5", "--seed", "3"]),
        ("doc-exact", ["train", "--task", "cluster", "--method", "searn-nb",
                       "--exact", "--data", docs, "--iterations", "5",
                       "--seed", "3"]),
    ]
    calls += [
        # the defaults no other call covers: gen --task cluster with no
        # --k, --clusters, --documents or --v, and EM's 50 iterations
        ("doc-default-data", ["gen", "--task", "cluster", "--seed", "6"]),
        ("doc-em-default", ["train", "--task", "cluster", "--method", "em",
                            "--data", docs, "--seed", "3"]),
    ]
    # exact-mode runs whose model files depend on how the NB cluster
    # table's row sums are grouped, so on its V + K + 1 columns
    for v, k, seed in (("12", "3", "0"), ("7", "5", "1")):
        step = f"doc-v{v}-k{k}"
        calls += [
            (f"{step}-data", ["gen", "--task", "cluster", "--documents", "25",
                              "--v", v, "--k", k, "--seed", seed]),
            (f"{step}-exact", ["train", "--task", "cluster", "--method",
                               "searn-nb", "--exact", "--data",
                               f"{{}}/{step}-data/documents.txt",
                               "--iterations", "6", "--k", k,
                               "--seed", seed]),
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
    # searn-nb parsing with the CLI's default smoothing (1.0)
    calls.append(("parse-nb", [
        "train", "--task", "depparse", "--method", "searn-nb",
        "--iterations", "2", "--data", bank, "--seed", "1"]))
    calls.append(("parse-nb-eval", [
        "eval", "--model", "{}/parse-nb/model.json", "--data", heldout,
        "--seed", "4"]))
    # multi-sample rollouts, mixtures of several tag or emission models,
    # and the deterministic re-emission of beta 1
    for step, extra in (
            ("parse-unsup-mix", ["--method", "searn-lr", "--beta", "0.5",
                                 "--n-samples", "2", "--iterations", "3"]),
            ("parse-semi-mix", ["--method", "searn-lr", "--supervision",
                                "semi", "--labeled-count", "8", "--beta",
                                "0.5", "--n-samples", "2", "--iterations",
                                "3"]),
            ("parse-unsup-beta1", ["--method", "searn-lr", "--beta", "1",
                                   "--iterations", "3"]),
            ("parse-nb-mix", ["--method", "searn-nb", "--beta", "0.3",
                              "--n-samples", "3", "--iterations", "3"])):
        calls.append((step, ["train", "--task", "depparse", "--data", bank,
                             "--seed", "1"] + extra))
        calls.append((f"{step}-eval", [
            "eval", "--model", f"{{}}/{step}/model.json", "--data", heldout,
            "--seed", "4"]))
    for method in ("searn-nb", "searn-lr"):
        calls.append((f"seq-{method}-mix", [
            "train", "--task", "sequence", "--method", method, "--data", seq,
            "--beta", "0.3", "--n-samples", "3", "--iterations", "4",
            "--seed", "1"]))
        model = f"{{}}/seq-{method}-mix/model.json"
        calls.append((f"seq-{method}-mix-eval", [
            "eval", "--model", f"{model},{model}", "--data", f"{seq},{seq1}",
            "--gold", f"{gold},{gold1}", "--seed", "2"]))
    # corpora at the benchmark's sizes, so that a sampler change shows on
    # thousands of draws per table, not a few dozen
    calls += [
        ("bench-seq-data", ["gen", "--task", "sequence", "--runs", "1",
                            "--mean-length", "10", "--sequences", "40",
                            "--seed", "301"]),
        ("bench-seq2-data", ["gen", "--task", "sequence", "--order", "2",
                             "--runs", "3", "--mean-length", "10",
                             "--sequences", "15", "--seed", "302"]),
        ("bench-bank", ["gen", "--task", "depparse", "--sentences", "200",
                        "--seed", "303"]),
        ("bench-doc-data", ["gen", "--task", "cluster", "--documents",
                            "600", "--v", "20", "--k", "3", "--clusters",
                            "3", "--seed", "304"]),
    ]
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
    parse = ParseExperiment(n_sentences=60, tagset_size=12, beta=0.1,
                            n_samples=1, iterations=1, tree_variance=10.0,
                            tag_variance=10.0)
    values = {"parse-sup-8": run_parse(parse, 3, parse_corpus(parse, 3),
                                       "sup", labeled_count=8),
              "random-parse": random_parse_baseline(parse, 3)}
    return {name: hashlib.sha256(json.dumps(v).encode()).hexdigest()
            for name, v in values.items()}


GOLDEN = {
    "bank/treebank.conll":
        "7692d0e800371a5cc4c88ac508279c760c5f587a508c7a0ea1fb1e68227f8620",
    "bench-bank/treebank.conll":
        "d8d0b0f08b3d04e1d2e4a9b9c289f058fb24876c349ba959f10b1409bac7257d",
    "bench-doc-data/documents.gold.txt":
        "809ceb990d3e4c61a8cf6d752c50b81e813c4d23d3f87d3d2bed30ed209cd982",
    "bench-doc-data/documents.txt":
        "5d80d0a460c51c35ec6818b9eba80cec25e984db07234e2677e70a2153a6f80b",
    "bench-seq-data/sequences-run00.gold.txt":
        "6fa89fe8abea2ae3d23f10d1b68229242469bb12cc2bdfb1976065da51315af2",
    "bench-seq-data/sequences-run00.txt":
        "18d5febf25d042e4deef92f67f668bc53c4eeb8bca4ce22e5aa625a0f6913941",
    "bench-seq2-data/sequences-run00.gold.txt":
        "0641775d3bcfcd8692ceb44563b124e8588db03db5d1c968750af8e8ac895310",
    "bench-seq2-data/sequences-run00.txt":
        "c9561b14c2a2add0749e1bdae424a5f5190d2dbd1bee0936c65c9b5c43074a1f",
    "bench-seq2-data/sequences-run01.gold.txt":
        "c375bc67b4a202cbb00ceb12faf4ba8574a50e76f23c96eed8550b88af51fd0e",
    "bench-seq2-data/sequences-run01.txt":
        "3e3052b92d54f123a41544b7ff73c3c12fb00b00d5768a208493fcbedbaad6b0",
    "bench-seq2-data/sequences-run02.gold.txt":
        "a647b3a4a72515abd15a7d9ce6019545bc4b821488424fcd5ae177c9cc915029",
    "bench-seq2-data/sequences-run02.txt":
        "60d58e60977aaa80b083196a1b5691f98e08c9485bdfe02adc77955aa4a3526a",
    "curve/curve.csv":
        "36f5b30bb9aeaf3496a3419581ee8d01c64e0cde58a9204c97b1b4845b1e76de",
    "doc-data/documents.gold.txt":
        "0aacab417592d8ac6c71bd6d5a9cbdddbcd1ce285727dee9c675d12941b2f6da",
    "doc-data/documents.txt":
        "5e32bd4e1fb2b46a81ec4f2dc9a99af28c22ffea772986ad0c83b1481f21ccb2",
    "doc-default-data/documents.gold.txt":
        "97cc316d2cf1f38e76134a8118a732f60d55609f748b7a1e3c104ae42944755d",
    "doc-default-data/documents.txt":
        "191df622198b26900cc957a53b5e0caedd6e6d4ecf56ea33818aa008e0002fd4",
    "doc-em-default/model.json":
        "539fd5b062aa612892cb754b018a61b0750cb6904377e7bf65aee0114d9fbfe7",
    "doc-em-default/train-log.csv":
        "b70af1ac85312d098e3675c0464df8bf7ecc8175319f47ef52e1590f92983781",
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
    "doc-v12-k3-data/documents.gold.txt":
        "caad8d10235b9ceb23655fa31d360957931ba10ac1c5e497143532e2508a6f58",
    "doc-v12-k3-data/documents.txt":
        "0c63dcb46f6e5c520457d415c8d7f4d02f8bd67f15dd7aef23e80873910e5a2b",
    "doc-v12-k3-exact/model.json":
        "90bd1826ee2a084191fbfc6fd879d09ace774363f77a592799d10f5cce390131",
    "doc-v12-k3-exact/train-log.csv":
        "eade0702a8ceb7d760fb7fc6e2f7c2d1b668084b71ea043b69d726bf533eac17",
    "doc-v7-k5-data/documents.gold.txt":
        "6d5076144f7f3a7caf846ab718fba8a3ce7c6b40357bda670f91dc82773582a5",
    "doc-v7-k5-data/documents.txt":
        "9389c41792bf139e3a43114fd0199ab519ad50544b0f825a38b74463048ec4a3",
    "doc-v7-k5-exact/model.json":
        "4fef59d3515b707cf2e4af376bfd8f1cb197e0e82f7d52b7e6df7e0230cb19e4",
    "doc-v7-k5-exact/train-log.csv":
        "5b5dfe576f7590b2bb2b13137fff1e54fc186d60f469d7af047b12b4ccd969f0",
    "equivalence/equivalence.json":
        "cfcb09413d6421cc20e50b828c5edbd1ca9e17efd1bd5a6f85499aff20b448ad",
    "heldout/treebank.conll":
        "b06196c99a3f7cbd376e6ab976e9c137e28299edf2f13dfe9d748493edb3902c",
    "parse-nb-eval/metrics.csv":
        "f9f0f766ccd5dc002e97cdedad661fb3652bcb4521c82922a90ff755b294f7f8",
    "parse-nb-eval/summary.json":
        "aa02b3eacdb6a001c07599ebdd4b55243c7cb3a8cd19bb18b2e922112aeba3d2",
    "parse-nb-mix-eval/metrics.csv":
        "3253deeb8fde94dfd07f2604415a66ee06f1e963abdc3708f82e9264a8a91a36",
    "parse-nb-mix-eval/summary.json":
        "b2b3bf6e3c056d5c3318af4fd0ae5fa05c92ed464894976e3aea535c45ce2520",
    "parse-nb-mix/model.json":
        "468acc9540f631555d32b24dcf94108dea763098a91fd4eef7018c1365b6a31b",
    "parse-nb-mix/train-log.csv":
        "e7465b8c1254a5cb0194d1bf11a3042a4ae97e1e830fdf035e50d12ae8aa3af5",
    "parse-nb/model.json":
        "9815981f30d920a32b0ffd9ad277ed99bcc4b13ec20efa50bf2946d71fe407b8",
    "parse-nb/train-log.csv":
        "de321d692cdcbf57c989b3786f06dc77202599bd606f13f0836c6f16ce431aef",
    "parse-semi-eval/metrics.csv":
        "8f97c5757c752691158cc95fb309014697ec0af556ea121521b4d292ccb24756",
    "parse-semi-eval/summary.json":
        "2ed1e20cadfda55112fe85fd5c9c8bedda27c5734d531e8eee022efc09fb5a25",
    "parse-semi-mix-eval/metrics.csv":
        "63a896cc4335842104abaea2fdcdc03016694b83956fb760dce0e5e42f53445c",
    "parse-semi-mix-eval/summary.json":
        "bb61cea48929ac244a361b189da5d5e51cc5e203e6ff757272e87fd3f62afa13",
    "parse-semi-mix/model.json":
        "35e780d541e4ed9b2ce43bd58c306e3843fe3e926cf6bc2a574d61344b1a7e92",
    "parse-semi-mix/train-log.csv":
        "3937ac4acaf0b3330b3d424e4f9d9b6bf1edff56650f5009931501a0ba57f4a1",
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
    "parse-unsup-beta1-eval/metrics.csv":
        "3253deeb8fde94dfd07f2604415a66ee06f1e963abdc3708f82e9264a8a91a36",
    "parse-unsup-beta1-eval/summary.json":
        "b2b3bf6e3c056d5c3318af4fd0ae5fa05c92ed464894976e3aea535c45ce2520",
    "parse-unsup-beta1/model.json":
        "3c378076b2132f6413e78c11b772e0c17f408cecb7e17f538e0402bc63a07daf",
    "parse-unsup-beta1/train-log.csv":
        "768aa43b185b1301ba4a53a71d2a0cc9fbd50961417c3f1ca116d21ae3eb2b31",
    "parse-unsup-eval/metrics.csv":
        "f9f0f766ccd5dc002e97cdedad661fb3652bcb4521c82922a90ff755b294f7f8",
    "parse-unsup-eval/summary.json":
        "aa02b3eacdb6a001c07599ebdd4b55243c7cb3a8cd19bb18b2e922112aeba3d2",
    "parse-unsup-mix-eval/metrics.csv":
        "01bc484dd01f6b5be5ca8dcd390b66b7692915780e4816543dd971dba17d491a",
    "parse-unsup-mix-eval/summary.json":
        "51ea778c73451a90f6c4cfb2f94051b721b34e883b38fd05b9b02334ab21011d",
    "parse-unsup-mix/model.json":
        "604e17ea2846d10c3125130051c19247555a8904b31dfb7856d0dc7cef9d8c4c",
    "parse-unsup-mix/train-log.csv":
        "f1c43b865f060e9a58c7c4d0e3b249238fe8cec21d47f0358d535cc3838cfcd0",
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
    "seq-searn-lr-mix-eval/metrics.csv":
        "c73938c9ac51f85786050da2e212b6f113719ed35ea3329afec755312845a5de",
    "seq-searn-lr-mix-eval/summary.json":
        "eb6201641a81aaa036d568bba7e0baa6d6399b18c62ea13eb8bc99eaf580d1dc",
    "seq-searn-lr-mix/model.json":
        "c4c4e082510a1034e945b1bf0d3244ddaeede7a219f51eee35440985c89c2db3",
    "seq-searn-lr-mix/train-log.csv":
        "605a1ed892ffc8505401ef166fb8bcc3e6c3d533200cd0245cc17f01e1f85324",
    "seq-searn-lr/model.json":
        "24eb9a23a6608b201f33562f284b40f7e5594ce38dfccb8ded298e0b19447942",
    "seq-searn-lr/train-log.csv":
        "6c06695ab3ab00b7daa4e0d6aaf694bad4cf274915a140a2a5779aca6a1d42ad",
    "seq-searn-nb-eval/metrics.csv":
        "b74f5bd3c1565a2ea235d4a889b74e773486e96852f5c9c6d0d6183c33ae0055",
    "seq-searn-nb-eval/summary.json":
        "16489356a90329d52d8d4883f835978aaa8cfcb3e88ba87b8d31ee803f8a6a5f",
    "seq-searn-nb-mix-eval/metrics.csv":
        "cd9a130bd8381da23ad8bb063f6d37847aaed6d33f318377a72466442a384634",
    "seq-searn-nb-mix-eval/summary.json":
        "0a51e0c921e4dec8e687b45080b80f5c873612d617512e5fcad070d3e431d2c6",
    "seq-searn-nb-mix/model.json":
        "18803d2df6679f810e3c7b2131d22a4f17d6ca1c96ae45ab7aab58e79440f4ff",
    "seq-searn-nb-mix/train-log.csv":
        "9494f313680f3375dfe77ae5bfdc120532e64c03a5609b65046586735814bb1d",
    "seq-searn-nb/model.json":
        "95216584385c4b694ee2fe0afbd66b70d2d368eb6194f98383d9b64c6979a386",
    "seq-searn-nb/train-log.csv":
        "6c06695ab3ab00b7daa4e0d6aaf694bad4cf274915a140a2a5779aca6a1d42ad",
    "seq2-data/sequences-run00.gold.txt":
        "b623379dc4053c1032c8feea2fbc684905889a125233fa48493c3d3d07cd85bf",
    "seq2-data/sequences-run00.txt":
        "6cecc75d09b9df1694069f3d24998642e98cc0771549e27c895a92f2af081049",
    "seq2-data/sequences-run01.gold.txt":
        "a9f34e3b453408f99b7c311caa51a98755e8b828fad05ec497b541eacb4923a7",
    "seq2-data/sequences-run01.txt":
        "31372b2b30dc695487c98548458f4db6d138de7c6ea463e7c2f8da78bc753aa6",
    "seq2-searn-nb-eval/metrics.csv":
        "2fda59d46077ab970423538e1ba5f0d027e3987463390f3967f5b63e324e064b",
    "seq2-searn-nb-eval/summary.json":
        "27850f98eb35115ebd3973f58a8384ca08bd332490dcf9621a7122c7feb5d4e5",
    "seq2-searn-nb/model.json":
        "5d7f04fad4aebe0992911735a7e11d71a6d3ff2a11f520f45cb23b2782171929",
    "seq2-searn-nb/train-log.csv":
        "ab42e1bb981e4040dd4a7b629098365832d6d0b6ac58722809d140b8edbae19f",
}

GOLDEN_PROTOCOL = {
    "parse-sup-8":
        "7849cb588d9489766c1f960213784f17f216fe285ec0bf9bd187a186faea8aa2",
    "random-parse":
        "a63e09e814f1704f942dcb16ec9b747bb7043c052fb71ece8b02e4df13589865",
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
