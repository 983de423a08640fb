"""Workloads, output checks and the measurement loop of the benchmark.

Each workload is a fixed list of ``searn`` CLI calls made through the
public entry point ``searn.cli.main``, in one process, one call at a time
(a closed loop with one client).  A repetition runs the whole list; a run
repeats it until ``--seconds`` is spent and reports, per phase, the sum
over its calls of each call's median repetition, in seconds at the host's
full speed (see ``probe_seconds``).

Every call is checked: it must exit 0, its quality file must parse and
agree with what the call printed, quality must lie in its band and equal
the value recorded for the seed in reference.json, and the files named as
artifacts must hash identically in every repetition.  A call that fails
any check counts as failed and its time is dropped.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

OUT_DIR = ".perfbench_out"
REFERENCE_FILE = Path(__file__).with_name("reference.json")
MIN_REPS = 2
# Time of probe_seconds' loop at the host's full speed (2-vCPU VM, Python
# 3.11): in a fast phase the fastest tenth of its samples took 11.1 to
# 11.5 ms.  Timings are reported in seconds at this speed.
PROBE_FULL_SPEED_S = 0.0113

# Quality metrics: unit, and the band every value must lie in whatever
# the seed.
QUALITY = {
    "arc_accuracy": ("fraction", 0.0, 1.0),
    "hamming_em": ("fraction", 0.0, 0.5),
    "hamming_nb": ("fraction", 0.0, 0.5),
    "hamming_lr": ("fraction", 0.0, 0.5),
    "cluster_hamming_exact": ("fraction", 0.0, 1.0),
    "cluster_hamming_em": ("fraction", 0.0, 1.0),
    "equiv_max_gap": ("abs_diff", 0.0, 1e-8),
    "cli_equiv_gap": ("abs_diff", 0.0, 1e-8),
}
# Every quality value is deterministic given the seed, so it must equal
# the reference recorded for the seed, in both directions, to this
# absolute tolerance.  A fast wrong answer moves it far more.
REFERENCE_TOL = 1e-9
# reference.json holds seeds 0 .. REFERENCE_SEEDS - 1; a run draws its
# inputs from --seed modulo this, so every run has a reference.
REFERENCE_SEEDS = 40


class CheckFailed(Exception):
    """An output check rejected a call's results."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads.

    Sentence and sequence inputs are sized by work, not by count: a file
    holds the shortest prefix of the generator's stream whose summed
    cost reaches the target, so that every seed asks for about the same
    work.  Training costs grow with the square of the length (every
    decision rolls out to the end), decoding costs with the length.
    """

    parse_shards: int = 2
    parse_train_work: int = 600         # per shard: sum of squared lengths
    parse_heldout_tokens: int = 1000    # per shard: sum of lengths
    parse_iterations: int = 4
    seq_datasets: int = 10
    seq_dataset_work: int = 600         # sum of squared sequence lengths
    seq_eval_tokens: int = 300          # sum of sequence lengths
    seq_mean_length: float = 10.0
    seq_em_iterations: int = 8
    cluster_train_documents: int = 500
    cluster_eval_documents: int = 5000
    cluster_vocab: int = 20
    cluster_k: int = 3
    cluster_iterations: int = 10
    equiv_corpora: int = 20
    equiv_documents: int = 40


FULL = Sizes()
SMOKE = Sizes(parse_train_work=80, parse_heldout_tokens=40,
              parse_iterations=2, seq_datasets=2, seq_dataset_work=60,
              seq_eval_tokens=30,
              seq_mean_length=5.0, seq_em_iterations=3,
              cluster_train_documents=40, cluster_eval_documents=80,
              cluster_iterations=3, equiv_corpora=3, equiv_documents=10)


@dataclass
class Op:
    """One CLI call of a workload."""

    phase: str
    argv: list
    check: object = None      # callable(stdout) -> {quality name: value}
    artifact: Path | None = None   # must hash identically across reps
    units: int = 1            # operations the call stands for


# ---------------------------------------------------------------------------
# Output readers and checks


def _metrics_mean(out: Path, stdout: str, metric: str) -> float:
    """Mean of metrics.csv, cross-checked against the printed summary."""
    with open(out / "metrics.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    values = [float(r["value"]) for r in rows if r["metric"] == metric]
    if not values or len(values) != len(rows):
        raise CheckFailed(f"{out}/metrics.csv: expected {metric} rows")
    mean = sum(values) / len(values)
    printed = re.search(rf"^{metric}: mean ([0-9.]+)", stdout, re.M)
    # The call prints 4 decimals: allow half a unit of the last one.
    if printed is None or abs(float(printed.group(1)) - mean) > 5e-5 + 1e-12:
        raise CheckFailed(f"printed {metric} disagrees with metrics.csv")
    return mean


def eval_check(out: Path, metric: str, name: str):
    def check(stdout):
        return {name: _metrics_mean(out, stdout, metric)}
    return check


def model_check(out: Path):
    def check(stdout):
        with open(out / "model.json", encoding="utf-8") as fh:
            blob = json.load(fh)
        if "policy" not in blob and "params" not in blob:
            raise CheckFailed(f"{out}/model.json holds no model")
        return {}
    return check


def params_gap_check(a: Path, b: Path):
    """Largest gap between two mixture models' (rho, theta)."""
    def check(stdout):
        import numpy as np
        blobs = []
        for path in (a, b):
            with open(path, encoding="utf-8") as fh:
                blobs.append(json.load(fh)["params"])
        gap = max(float(np.max(np.abs(np.subtract(blobs[0][k], blobs[1][k]))))
                  for k in ("rho", "theta"))
        return {"cli_equiv_gap": gap}
    return check


def equivalence_check(out: Path, n_corpora: int):
    def check(stdout):
        with open(out / "equivalence.json", encoding="utf-8") as fh:
            blob = json.load(fh)
        per = blob["per_corpus"]
        if len(per) != n_corpora or not all(c["passed"] for c in per):
            raise CheckFailed("equivalence sweep has failing corpora")
        return {"equiv_max_gap": float(blob["max_diff"])}
    return check


# ---------------------------------------------------------------------------
# Sizing inputs by work


def treebank_lengths(path: Path) -> list:
    """Token count of every sentence in a CoNLL file."""
    from searn.task_depparse import load_conll
    sentences, rejected = load_conll(path)
    if rejected:
        raise RuntimeError(f"{path}: {rejected} sentences rejected")
    return [len(s.tags) for s in sentences]


def sequence_lengths(path: Path) -> list:
    """Length of every sequence in a sequence file."""
    from searn.task_sequence import read_sequences
    return [len(x) for x in read_sequences(path)[0]]


class Prober:
    """Finds how many items a ``gen`` call needs to reach a work target.

    ``gen`` draws items one after another from a seeded stream, so a
    shorter file is a prefix of a longer one.  The prober generates a long
    draw once, outside any timed repetition, and returns the length of the
    shortest prefix whose summed ``length ** power`` reaches the target.
    """

    def __init__(self, main, work: Path):
        self.main = main
        self.work = work
        self._draws = {}   # gen argv -> item lengths of the longest draw

    def _draw(self, gen_argv, count_flag, data_file, lengths, n) -> list:
        out = self.work / "probe"
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.main(gen_argv + [count_flag, str(n),
                                         "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"gen exited {code}: {gen_argv}")
        drawn = lengths(out / data_file)
        shutil.rmtree(out, ignore_errors=True)
        return drawn

    def count(self, gen_argv: list, count_flag: str, data_file: str,
              lengths, power: int, target: int) -> int:
        key = tuple(gen_argv)
        drawn = self._draws.get(key, [])
        while sum(n ** power for n in drawn) < target:
            drawn = self._draw(gen_argv, count_flag, data_file, lengths,
                               4 * max(4, len(drawn)))
        self._draws[key] = drawn
        total = 0
        for count, n in enumerate(drawn, start=1):
            total += n ** power
            if total >= target:
                return count


# ---------------------------------------------------------------------------
# Workloads


def parse_unsup(sizes: Sizes, seed: int, work: Path, probe: Prober) -> list:
    """Independent shards, each a training treebank and a held-out one
    drawn with another seed; one ``eval`` scores every shard's model on
    its held-out file.  Shards keep each timed call short."""
    ops, models, heldouts = [], [], []
    for j in range(sizes.parse_shards):
        shard = seed * sizes.parse_shards + j
        train, heldout = work / f"train{j}", work / f"heldout{j}"
        model = work / f"model{j}"
        gen_train = ["gen", "--task", "depparse", "--seed", str(2 * shard)]
        gen_heldout = ["gen", "--task", "depparse", "--seed",
                       str(2 * shard + 1)]
        n_train = probe.count(gen_train, "--sentences", "treebank.conll",
                              treebank_lengths, 2, sizes.parse_train_work)
        n_heldout = probe.count(gen_heldout, "--sentences", "treebank.conll",
                                treebank_lengths, 1,
                                sizes.parse_heldout_tokens)
        ops += [
            Op("setup", gen_train + ["--sentences", str(n_train),
                                     "--out", str(train)]),
            Op("setup", gen_heldout + ["--sentences", str(n_heldout),
                                       "--out", str(heldout)]),
            Op("train", ["train", "--task", "depparse", "--method",
                         "searn-lr", "--supervision", "unsup",
                         "--iterations", str(sizes.parse_iterations),
                         "--seed", str(shard),
                         "--data", str(train / "treebank.conll"),
                         "--out", str(model)],
               model_check(model), model / "model.json"),
        ]
        models.append(model / "model.json")
        heldouts.append(heldout / "treebank.conll")
    scores = work / "eval"
    ops.append(Op("decode", ["eval", "--model", ",".join(map(str, models)),
                             "--data", ",".join(map(str, heldouts)),
                             "--seed", str(seed), "--out", str(scores)],
                  eval_check(scores, "arc_accuracy", "arc_accuracy"),
                  scores / "metrics.csv"))
    return ops


SEQ_METHODS = (("em", "hamming_em"), ("searn-nb", "hamming_nb"),
               ("searn-lr", "hamming_lr"))


def seq_grid(sizes: Sizes, seed: int, work: Path, probe: Prober) -> list:
    """The sequence grid: two ``gen`` calls per dataset, so that each
    dataset can be sized by work on its own.  The evaluation file is a
    longer draw from the same chain: the training file is its prefix."""
    runs = range(sizes.seq_datasets)
    train = [work / f"data{r:02d}" for r in runs]
    evaluation = [work / f"eval-data{r:02d}" for r in runs]
    xs = [d / "sequences-run00.txt" for d in train]
    eval_xs = [d / "sequences-run00.txt" for d in evaluation]
    golds = [d / "sequences-run00.gold.txt" for d in evaluation]
    ops = []
    for r in runs:
        gen = ["gen", "--task", "sequence", "--runs", "1", "--mean-length",
               str(sizes.seq_mean_length), "--seed", str(seed * 100 + r)]
        n = probe.count(gen, "--sequences", "sequences-run00.txt",
                        sequence_lengths, 2, sizes.seq_dataset_work)
        n_eval = probe.count(gen, "--sequences", "sequences-run00.txt",
                             sequence_lengths, 1, sizes.seq_eval_tokens)
        ops.append(Op("setup", gen + ["--sequences", str(n),
                                      "--out", str(train[r])]))
        ops.append(Op("setup", gen + ["--sequences", str(max(n, n_eval)),
                                      "--out", str(evaluation[r])]))
    for method, quality in SEQ_METHODS:
        # EM runs its whole iteration budget (no early stop), so its work
        # does not depend on when a dataset happens to converge.
        extra = (["--iterations", str(sizes.seq_em_iterations),
                  "--em-tol=-inf"] if method == "em" else [])
        models = [work / method / f"run{r:02d}" for r in runs]
        for r, model in zip(runs, models):
            ops.append(Op("train", ["train", "--task", "sequence", "--method",
                                    method, "--data", str(xs[r]), "--seed",
                                    str(seed * 100 + r), "--out",
                                    str(model)] + extra,
                          model_check(model), model / "model.json"))
        scores = work / f"eval-{method}"
        decode = ["--posterior-decode"] if method == "em" else []
        ops.append(Op("decode", [
            "eval", "--model", ",".join(str(m / "model.json") for m in models),
            "--data", ",".join(map(str, eval_xs)),
            "--gold", ",".join(map(str, golds)),
            "--seed", str(seed), "--out", str(scores)] + decode,
            eval_check(scores, "matched_hamming", quality),
            scores / "metrics.csv"))
    return ops


def cluster_exact(sizes: Sizes, seed: int, work: Path,
                  probe: Prober) -> list:
    k = str(sizes.cluster_k)
    shape = ["--v", str(sizes.cluster_vocab), "--k", k, "--clusters", k,
             "--seed", str(seed)]
    train, evaluation = work / "train", work / "eval-data"
    exact, em, equiv = work / "exact", work / "em", work / "equivalence"
    fit = ["--task", "cluster", "--k", k, "--iterations",
           str(sizes.cluster_iterations), "--seed", str(seed),
           "--data", str(train / "documents.txt")]
    ops = [
        # The evaluation corpus is a longer draw from the same mixture:
        # its first documents are the training corpus.
        Op("setup", ["gen", "--task", "cluster", "--documents",
                     str(sizes.cluster_train_documents), "--out",
                     str(train)] + shape),
        Op("setup", ["gen", "--task", "cluster", "--documents",
                     str(sizes.cluster_eval_documents), "--out",
                     str(evaluation)] + shape),
        Op("train", ["train", "--method", "searn-nb", "--exact", "--out",
                     str(exact)] + fit,
           model_check(exact), exact / "model.json"),
        Op("train", ["train", "--method", "em", "--out", str(em)] + fit,
           params_gap_check(exact / "model.json", em / "model.json"),
           em / "model.json"),
        Op("train", ["equivalence", "--runs", str(sizes.equiv_corpora),
                     "--documents", str(sizes.equiv_documents),
                     "--seed", str(seed), "--out", str(equiv)],
           equivalence_check(equiv, sizes.equiv_corpora),
           equiv / "equivalence.json", units=sizes.equiv_corpora),
    ]
    for model, quality in ((exact, "cluster_hamming_exact"),
                           (em, "cluster_hamming_em")):
        scores = work / f"eval-{model.name}"
        ops.append(Op("decode", [
            "eval", "--model", str(model / "model.json"),
            "--data", str(evaluation / "documents.txt"),
            "--gold", str(evaluation / "documents.gold.txt"),
            "--out", str(scores)],
            eval_check(scores, "matched_hamming", quality),
            scores / "metrics.csv"))
    return ops


WORKLOADS = {
    "parse-unsup": parse_unsup,
    "seq-grid": seq_grid,
    "cluster-exact": cluster_exact,
}


# ---------------------------------------------------------------------------
# Checks shared by all workloads


def load_reference(workload: str, seed: int, sizes: Sizes) -> dict:
    """Quality recorded for the seed.  References exist at full size only;
    a full-size run without one cannot be checked and is refused."""
    if sizes != FULL:
        return {}
    try:
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            reference = json.load(fh)[workload][str(seed)]
    except (OSError, ValueError, KeyError):
        raise RuntimeError(f"no reference quality for {workload} seed "
                           f"{seed} in {REFERENCE_FILE.name}") from None
    return reference


def check_quality(quality: dict, reference: dict) -> None:
    """Band check for every value, and equality with the reference."""
    for name, value in quality.items():
        _, low, high = QUALITY[name]
        if not (math.isfinite(value) and low <= value <= high):
            raise CheckFailed(f"{name}={value!r} outside [{low}, {high}]")
        if not reference:
            continue
        ref = reference.get(name)
        if ref is None or abs(value - ref) > REFERENCE_TOL:
            raise CheckFailed(f"{name}={value!r} differs from the reference "
                              f"{ref!r} for this seed")


def probe_seconds() -> float:
    """Time of a fixed integer loop: a gauge of the host's speed.

    On a shared VM the CPU runs at full speed or, in phases of seconds to
    minutes, 1.3 to 1.8 times slower.  Measured there over eight 11-s
    windows, the fastest of 20 samples of one ``train`` call ranged over
    1.5x, the median of (call time / a 25 ms version of this loop timed
    before the call) over 1.14x.  So every call's time is scaled by
    PROBE_FULL_SPEED_S / (the loop's time around the call)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(150000):
        x = (x + i * i) % 1000003
    return time.perf_counter() - t0


def at_full_speed(seconds: float, probe_before: float,
                  probe_after: float) -> float:
    return seconds * 2 * PROBE_FULL_SPEED_S / (probe_before + probe_after)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Repetitions and runs


@dataclass
class Rep:
    """Outcome of one repetition of a workload's call list."""

    op_s: dict = field(default_factory=dict)   # op index -> seconds
    wall_s: float = 0.0
    import_s: float = math.inf
    quality: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def run_rep(main, ops: list, reference: dict, tracer=None) -> Rep:
    """Run every call once.  Untraced, ``op_s`` holds each passing call's
    time at full speed; traced, its wall time."""
    rep = Rep()
    probes = []
    for index, op in enumerate(ops):
        if tracer is None:
            probes.append(probe_seconds())
        rep.attempted += op.units
        stdout = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                if tracer is None:
                    code = main(op.argv)
                else:
                    code = tracer.call(op.phase, "cli." + op.argv[0], main,
                                       op.argv)
            elapsed = time.perf_counter() - t0
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            quality = op.check(stdout.getvalue()) if op.check else {}
            check_quality(quality, reference)
            if op.artifact is not None:
                rep.hashes[index] = _sha256(op.artifact)
                if tracer is not None and op.artifact.name == "model.json":
                    tracer.model_bytes += op.artifact.stat().st_size
        except Exception as exc:  # one failed call must not end the run
            rep.wall_s += time.perf_counter() - t0
            rep.failed += op.units
            rep.errors.append(f"{' '.join(op.argv[:3])}: {exc!r}")
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            continue
        rep.wall_s += elapsed
        rep.op_s[index] = elapsed
        rep.quality.update(quality)
    if tracer is None:
        probes.append(probe_seconds())
        rep.op_s = {i: at_full_speed(t, probes[i], probes[i + 1])
                    for i, t in rep.op_s.items()}
    return rep


def import_searn(root: Path):
    """Import ``searn.cli`` from the checkout's sources."""
    src = (root / "src").resolve()
    if not (src / "searn" / "__init__.py").is_file():
        raise RuntimeError(f"no searn sources under {src}")
    sys.path.insert(0, str(src))
    import searn.cli as cli
    if Path(cli.__file__).resolve().parent != src / "searn":
        raise RuntimeError(f"imported searn from {cli.__file__}, not {src}")
    return cli


_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import searn.cli; "
                 "print(time.perf_counter() - t)")


def import_seconds(root: Path) -> float:
    """Time to import ``searn.cli`` in a fresh interpreter, at full speed."""
    before = probe_seconds()
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(root / "src")],
        capture_output=True, text=True, check=True, timeout=120)
    return at_full_speed(float(proc.stdout), before, probe_seconds())


@dataclass
class RunResult:
    attempted: int
    failed: int
    end_to_end: dict      # name -> (value, unit)
    per_layer: dict       # name -> (value, unit); empty without trace
    quality: dict
    reference: dict
    reps: int
    errors: list


def _determinism(reps: list) -> list:
    """Artifacts whose hash differs across reps.  Every quality value is
    read from a hashed artifact, so this covers quality too."""
    first = reps[0]
    return sorted({f"artifact #{i}" for rep in reps[1:]
                   for i, h in first.hashes.items()
                   if rep.hashes.get(i) not in (None, h)})


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, sizes: Sizes = FULL) -> RunResult:
    """Run one workload for about ``seconds`` and gather every metric."""
    build = WORKLOADS[workload]
    out = root / OUT_DIR / workload
    shutil.rmtree(out, ignore_errors=True)
    cli = import_searn(root)
    seed %= REFERENCE_SEEDS
    reference = load_reference(workload, seed, sizes)

    probe = Prober(cli.main, out)
    reps = []

    def repeat(tracer=None):
        ops = build(sizes, seed, out / f"rep{len(reps)}", probe)
        import_s = math.inf if tracer else import_seconds(root)
        reps.append(run_rep(cli.main, ops, reference, tracer))
        reps[-1].import_s = import_s
        if len(reps) > 1:  # keep only the newest outputs on disk
            shutil.rmtree(out / f"rep{len(reps) - 2}", ignore_errors=True)
        return ops

    t0 = time.perf_counter()
    while True:
        ops = repeat()
        if len(reps) >= MIN_REPS and (
                trace or time.perf_counter() - t0
                + max(r.wall_s for r in reps) > seconds):
            break
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            repeat(tracer)
        finally:
            tracer.remove()

    # The determinism check across repetitions counts as one operation.
    attempted = sum(r.attempted for r in reps) + 1
    failed = sum(r.failed for r in reps)
    errors = [e for r in reps for e in r.errors]
    mismatched = _determinism(reps)
    if mismatched:
        failed += 1
        errors.append("outputs differ across repetitions: "
                      + ", ".join(mismatched))

    def phase_s(phase):
        """Sum over the phase's calls of each call's median repetition.
        Every repetition does identical work (the determinism check shows
        it)."""
        return sum(statistics.median(r.op_s[i] for r in reps if i in r.op_s)
                   for i, op in enumerate(ops) if op.phase == phase
                   and any(i in r.op_s for r in reps))

    end_to_end, per_layer = {}, {}
    if tracer is None:
        import resource
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        end_to_end = {
            "setup_s": (statistics.median(r.import_s for r in reps)
                        + phase_s("setup"), "s"),
            "train_s": (phase_s("train"), "s"),
            "decode_s": (phase_s("decode"), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    else:
        from tracing import layer_metrics
        # The repetition before the traced one ran warm, like it.
        per_layer = layer_metrics(tracer, reps[-1].wall_s - reps[-2].wall_s)
        tracer.write_spans(out / "spans.npz")
    return RunResult(attempted, failed, end_to_end, per_layer,
                     reps[-1].quality, reference, len(reps), errors)


def result_record(result: RunResult, trace: bool) -> dict:
    """The JSON result: end-to-end metrics, or per-layer ones when traced."""
    metrics = result.per_layer if trace else result.end_to_end
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def report_lines(workload: str, seed: int, result: RunResult) -> list:
    """Human-readable table: every metric with its unit."""
    lines = [f"workload {workload}  seed {seed} (inputs of seed "
             f"{seed % REFERENCE_SEEDS})  repetitions {result.reps}"]
    for name, (value, unit) in {**result.end_to_end,
                                **result.per_layer}.items():
        lines.append(f"  {name:<46} {value:>14.6g} {unit}")
    for name, value in sorted(result.quality.items()):
        ref = result.reference.get(name)
        note = "" if ref is None else f"  (reference {ref:.6g})"
        unit = QUALITY[name][0]
        lines.append(f"  {name:<46} {value:>14.6g} {unit}{note}")
    share = result.failed / result.attempted
    lines.append(f"  {'failed_share':<46} {share:>14.6g} fraction"
                 f"  ({result.failed} of {result.attempted})")
    lines += [f"  error: {e}" for e in result.errors]
    return lines
