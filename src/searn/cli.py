"""Command-line experiment runner.

Subcommands: ``gen`` (synthetic datasets), ``train`` (EM or mixture
training), ``eval`` (metrics over one or more runs), ``learning-curve``
(annotation-budget sweep on the treebank task), and ``equivalence``
(exact-mode mixture training vs. EM on random corpora).

Each run reads only its own settings, and its defaults, from one table
(``_RUNS``); a setting the run would not read is a configuration error.
``_RUNS`` is the only place a default value lives: the library functions
and configs it feeds take every such value from their callers.
Settings come from flags or from a flat ``key=value`` config file passed
with ``--config`` (flags take precedence).  ``searn <command> --help``
lists the flags of that command's runs (``--task`` and ``--method`` where
they pick the run); flags must be spelled in full.  Result files are
byte-identical across reruns; wall-clock times go to ``timings.log``.
A command makes ``--out`` only once its work has succeeded, so a failed
run leaves no directory behind.

The paper's sequence grid: ``gen --task sequence --runs N`` writes the
datasets (``--order 2`` for second-order chains), ``train`` runs once per
dataset and method, and one ``eval`` per method scores the comma-joined
runs (``summary.json`` holds mean and std over datasets).  The EM arm
trains with ``--iterations 8`` and scores with ``--posterior-decode``;
longer EM runs gain likelihood but drift from the generating labels.

Output files:

- ``gen --task cluster``: ``documents.txt`` (a ``#`` provenance header,
  then the documents) and ``documents.gold.txt`` (one integer label per
  document, one per line, no header).  The number of clusters is
  ``--clusters``, or ``--k`` when only that is given; two different
  values are a configuration error.
- ``gen --task sequence``: ``sequences-runNN.txt`` and
  ``sequences-runNN.gold.txt``, one pair per ``--runs``; ``gen --task
  depparse``: ``treebank.conll``.
- ``train``: ``model.json``, ``train-log.csv`` and ``timings.log``.  When
  some LR fits stop at the optimizer's epoch cap, ``train`` says how many
  on stderr.
  ``train --task depparse`` keeps gold trees per ``--supervision``:
  ``unsup`` strips them all; ``sup`` trains on the first
  ``--labeled-count`` sentences (all when not given), each with its
  tree; ``semi`` keeps the trees of the first ``--labeled-count``
  sentences and strips the rest; that is all a mode does (the parser
  reads each sentence's tree, see ``ParseTask``).  ``train --task cluster
  --method searn-nb`` is the exact-mode equivalence path (``--exact``);
  there ``--k 1`` is accepted as a boundary case.
- ``eval``: ``metrics.csv`` (``metric,run,value``, one row per run) and
  ``summary.json``, a flat object over the runs of the one metric scored:
  ``metric``, ``mean``, ``std``, ``n_runs``, ``single_run`` and
  ``values``.  A mixture-trained model decodes only the hidden half
  (the tree, or the latent labels), not the re-emission that gives
  training its loss; a parse model reads its gold trees from ``--data``
  and takes no ``--gold``.
- ``learning-curve``: ``curve.csv``; ``equivalence``:
  ``equivalence.json``.

Exit codes: 0 on success, 1 on data errors (a malformed data, gold or
model file, or a failed equivalence check) and on training failures,
2 on configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, fields
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .core import (LR_OPTIMIZER, LearnedRule, LearnerConfig, RolloutConfig,
                   derive_seed, policy_from_dict, policy_to_dict, run_policy,
                   searn_learn)
from .corpus_files import MAX_VOCAB_SIZE
from .datagen import (MAX_MEAN_LENGTH, MAX_SEQUENCE_MEAN_LENGTH,
                      MEAN_LENGTH_RULE, SEQUENCE_MEAN_LENGTH_RULE,
                      DocGenConfig, HmmGenConfig, TreebankGenConfig,
                      gen_document_corpus, gen_hmm_dataset, gen_hmm_params,
                      gen_treebank)
from .em import (HmmParams, MultinomialMixtureParams, hmm_decode,
                 hmm_em_train, hmm_posterior_decode, mm_e_step,
                 mm_em_train, mm_log_likelihood, mm_random_init)
from .errors import ConfigError, DataError, TrainingError
from .experiments import (ParseExperiment, decode, decode_trees,
                          equivalence_sweep, learning_curve,
                          parse_training_data, train_parser)
from .metrics import (corpus_arc_accuracy, matched_hamming, summarize,
                      write_runs_csv)
from .task_cluster import (ClusterTask, ClusterTaskConfig, read_documents,
                           write_documents)
from .task_depparse import ParseTask, load_conll, write_conll
from .task_sequence import (SequenceTask, SequenceTaskConfig, latent_labels,
                            read_sequences, write_sequences)

_GEN_KEY = 701
_TRAIN_KEY = 702
_EVAL_KEY = 703

_SUPERVISION = ("unsup", "sup", "semi")


# ---------------------------------------------------------------------------
# Configuration


def _parse_int_list(text) -> tuple:
    return tuple(int(part) for part in str(text).split(",") if part != "")


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    lowered = str(text).strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(text)


# Each setting's parser; flags and config-file keys are these names.
_KINDS = {
    **dict.fromkeys(("task", "method", "supervision", "data", "gold",
                     "model", "out"), str),
    **dict.fromkeys(("n_samples", "iterations", "seed", "labeled_count",
                     "order", "k", "v", "runs", "sequences", "sentences",
                     "tagset", "documents", "clusters"), int),
    **dict.fromkeys(("beta", "mean_length", "doc_mean_length", "smoothing",
                     "lr_variance", "tree_variance", "tag_variance",
                     "em_tol"), float),
    **dict.fromkeys(("exact", "posterior_decode"), _parse_bool),
    **dict.fromkeys(("seeds", "labeled_counts"), _parse_int_list),
}


def _coerce(name: str, value):
    try:
        return _KINDS[name](value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {name}: {value!r}")


def _entry(names: str) -> dict:
    """``"name=default name ..."`` -> {name: parsed default, or None}."""
    return {name: _coerce(name, default) if sep else None
            for name, sep, default in (item.partition("=")
                                       for item in names.split())}


# The settings each run reads besides --out, with their defaults, by
# (command, task, method).  What eval reads depends on its model files,
# so it has one entry.
_RUNS = {key: _entry(names) for key, names in {
    ("gen", "cluster", None):
        "seed=0 v=5 k=2 clusters=2 documents=10 doc_mean_length=20",
    ("gen", "sequence", None):
        "seed=0 runs=10 order=1 k=2 v=10 sequences=5 mean_length=40",
    ("gen", "depparse", None): "seed=0 sentences=620 tagset=12",
    ("train", "cluster", "em"): "data seed=0 iterations=50 k=2",
    ("train", "cluster", "searn-nb"):
        "data seed=0 iterations=10 k=2 exact=false",
    ("train", "sequence", "em"): "data seed=0 iterations=50 k=2 em_tol=1e-5",
    ("train", "sequence", "searn-nb"):
        "data seed=0 iterations=4 k=2 beta=0.5 n_samples=2 smoothing=1",
    ("train", "sequence", "searn-lr"):
        "data seed=0 iterations=4 k=2 beta=0.5 n_samples=2 lr_variance=10",
    # the parse runs' tree and tag variances were tuned once on dev data
    ("train", "depparse", "searn-nb"): "data seed=0 iterations=10 beta=0.1 "
        "n_samples=1 tagset=12 supervision=unsup labeled_count smoothing=1",
    ("train", "depparse", "searn-lr"): "data seed=0 iterations=10 beta=0.1 "
        "n_samples=1 tagset=12 supervision=unsup labeled_count "
        "tree_variance=10 tag_variance=10",
    ("eval", None, None): "model data gold seed=0 posterior_decode=false",
    ("learning-curve", "depparse", None):
        "seeds=0 labeled_counts=50,150,500 sentences=620 tagset=12 beta=0.1 "
        "n_samples=1 iterations=10 tree_variance=10 tag_variance=10",
    ("equivalence", "cluster", None):
        "seed=0 runs=20 documents=10 v=5 iterations=10",
}.items()}


def read_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment; keys mirror the flags."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _KINDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _coerce(key, value.strip())
    return out


def build_parser(command) -> argparse.ArgumentParser:
    """Each command takes the settings its runs read, spelled in full.
    Every command is registered, but only ``command`` (the one an argv
    names, or None) gets its flags: argparse reads no other."""
    parser = argparse.ArgumentParser(
        prog="searn", allow_abbrev=False,
        description="Structured-prediction experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, allow_abbrev=False,
                                     usage="%(prog)s [options]")
                for name in dict.fromkeys(c for c, _, _ in _RUNS)}
    if command not in commands:
        return parser
    p = commands[command]
    p.add_argument("--config", help="flat key=value settings file")
    names = dict.fromkeys((*_selectors(command), "out"))
    for key, entry in _RUNS.items():
        if key[0] == command:
            names.update(entry)
    for name in names:
        flag = "--" + name.replace("_", "-")
        if _KINDS[name] is _parse_bool:
            p.add_argument(flag, action="store_const", const=True)
        else:  # parsed by merge_config, so bad values are config errors
            p.add_argument(flag)
    return parser


def configure(argv) -> argparse.Namespace:
    """The settings of the run ``argv`` asks for (see ``merge_config``).
    A flag the command does not take counts as a given setting, so the
    run rejects it by name."""
    if argv is None:
        argv = sys.argv[1:]
    args, extras = build_parser(argv[0] if argv else None) \
        .parse_known_args(argv)
    unknown = {arg.lstrip("-").split("=")[0].replace("-", "_")
               for arg in extras
               if arg.startswith("-") and not _is_number(arg)}
    if extras and not unknown:
        raise ConfigError(f"unexpected argument {extras[0]!r}")
    return merge_config(args, unknown)


def _is_number(token: str) -> bool:
    """Whether a token is a value such as ``-1``, not a flag."""
    try:
        float(token)
    except ValueError:
        return False
    return True


def merge_config(args: argparse.Namespace,
                 unknown: set) -> argparse.Namespace:
    """--out's default < the run's defaults (``_RUNS``) < config file <
    flags.  Every setting the run does not read is None, and the run must
    read every setting given to it."""
    values = read_config_file(args.config) if args.config else {}
    values.update((name, _coerce(name, value))
                  for name, value in vars(args).items()
                  if name in _KINDS and value is not None)
    key = _check_run(args.command, values, set(values) | unknown)
    cfg = argparse.Namespace(**{**dict.fromkeys(_KINDS), "out": "runs",
                                **_RUNS[key], **values, "task": key[1],
                                "command": args.command})
    _validate(cfg)
    if key == ("gen", "cluster", None):
        _resolve_cluster_count(cfg, values)
    return cfg


def _selectors(command: str) -> tuple:
    """Which of ``task`` and ``method`` key the runs of ``command``."""
    return tuple(name for i, name in ((1, "task"), (2, "method"))
                 if any(key[i] for key in _RUNS if key[0] == command))


def _run_name(key: tuple) -> str:
    flags = zip(("", "--task ", "--method "), key)
    return "'" + " ".join(flag + value for flag, value in flags if value) + "'"


def _check_run(command: str, values: dict, provided: set) -> tuple:
    """The run's ``_RUNS`` key.  The run must have an entry, and read every
    setting given to it by flag or config file (see ``_selectors``).  A
    command that serves one task takes that task when none is given."""
    selectors = _selectors(command)
    stray = provided & {"task", "method"} - set(selectors)
    if stray:
        raise ConfigError(f"'{command}' reads no " + ", ".join(
            "--" + name for name in sorted(stray)))
    task = values.get("task")
    tasks = {t for c, t, _ in _RUNS if c == command}
    if task is None and len(tasks) == 1:
        (task,) = tasks
    key = (command, task, values.get("method"))
    if key not in _RUNS:
        runs = ", ".join(_run_name(k) for k in _RUNS if k[0] == command)
        raise ConfigError(f"{_run_name(key)} is not a run; try {runs}")
    unread = provided - _RUNS[key].keys() - {"out", *selectors}
    if {**_RUNS[key], **values}.get("supervision") == "unsup":
        unread |= provided & {"labeled_count"}  # no tree is kept
    if unread:
        raise ConfigError(f"{_run_name(key)} reads no " + ", ".join(
            "--" + name.replace("_", "-") for name in sorted(unread)))
    return key


def _validate(cfg) -> None:
    if cfg.supervision not in (None, *_SUPERVISION):
        raise ConfigError(f"unknown supervision {cfg.supervision!r}")
    if cfg.supervision == "semi" and cfg.labeled_count is None:
        raise ConfigError("semi-supervised runs need --labeled-count")
    if cfg.labeled_count is not None and cfg.labeled_count < 0:
        raise ConfigError(f"--labeled-count {cfg.labeled_count}: a count is "
                          "non-negative")
    if cfg.supervision == "sup" and cfg.labeled_count == 0:
        raise ConfigError("--labeled-count 0: a supervised run needs at "
                          "least 1 gold tree")
    if cfg.em_tol != cfg.em_tol:
        raise ConfigError("--em-tol nan: no gain is below NaN, so it would "
                          "never stop early; give a number (-inf runs every "
                          "iteration)")
    if cfg.smoothing == 0:
        raise ConfigError("--smoothing 0: a feature seen in no training "
                          "example would score log 0 for every class; give "
                          "a positive smoothing")
    if cfg.smoothing is not None and not 0 <= cfg.smoothing < np.inf:
        raise ConfigError(f"--smoothing {cfg.smoothing}: smoothing must be "
                          "finite and nonnegative")
    if cfg.beta is not None and not 0 < cfg.beta <= 1:
        raise ConfigError(f"--beta {cfg.beta}: must lie in (0, 1]")
    for flag in ("lr_variance", "tree_variance", "tag_variance"):
        value = getattr(cfg, flag)
        if value is not None and not 0 < value < np.inf:
            raise ConfigError(f"--{flag.replace('_', '-')} {value}: "
                              "must be finite and positive")
    for flag, bound, rule in (
            ("mean_length", MAX_SEQUENCE_MEAN_LENGTH,
             SEQUENCE_MEAN_LENGTH_RULE),
            ("doc_mean_length", MAX_MEAN_LENGTH, MEAN_LENGTH_RULE)):
        value = getattr(cfg, flag)
        if value is not None and not 0 < value <= bound:
            raise ConfigError(f"--{flag.replace('_', '-')} {value}: " + rule)
    for flag, seeds in (("seed", [cfg.seed]), ("seeds", cfg.seeds or ())):
        if any(seed is not None and seed < 0 for seed in seeds):
            raise ConfigError(f"--{flag} {','.join(map(str, seeds))}: seeds "
                              "are non-negative")
    for flag in ("k", "iterations", "runs", "n_samples", "sentences",
                 "documents", "sequences", "clusters"):
        value = getattr(cfg, flag)
        if value is not None and value < 1:
            raise ConfigError(f"--{flag.replace('_', '-')} {value}: "
                              "need at least 1")
    if cfg.v is not None and cfg.v > MAX_VOCAB_SIZE:
        raise ConfigError(f"--v {cfg.v} exceeds the cap of {MAX_VOCAB_SIZE}")


def _resolve_cluster_count(cfg, given: dict) -> None:
    """A generated corpus has ``--clusters`` clusters, or ``--k`` when only
    that is given; two different values are rejected."""
    if "k" in given:
        if "clusters" in given and cfg.k != cfg.clusters:
            raise ConfigError(f"--k {cfg.k} and --clusters {cfg.clusters} "
                              "disagree; give one, or equal values")
        cfg.clusters = cfg.k


def _parse_experiment(cfg) -> ParseExperiment:
    return ParseExperiment(
        n_sentences=cfg.sentences, tagset_size=cfg.tagset,
        beta=cfg.beta, n_samples=cfg.n_samples, iterations=cfg.iterations,
        tree_variance=cfg.tree_variance, tag_variance=cfg.tag_variance)


def _out_dir(cfg) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# gen


def cmd_gen(cfg) -> int:
    if cfg.task == "sequence":
        runs = []
        for run in range(cfg.runs):
            run_seed = derive_seed(cfg.seed, _GEN_KEY, run)
            gen_cfg = HmmGenConfig(order=cfg.order, K=cfg.k, V=cfg.v,
                                   n_sequences=cfg.sequences,
                                   mean_length=cfg.mean_length,
                                   seed=run_seed)
            runs.append((run_seed,
                         gen_hmm_dataset(gen_hmm_params(gen_cfg), gen_cfg)))
        out = _out_dir(cfg)
        for run, (run_seed, data) in enumerate(runs):
            header = (f"task=sequence order={cfg.order} k={cfg.k} "
                      f"v={cfg.v} run={run} seed={run_seed}")
            write_sequences(out / f"sequences-run{run:02d}.txt",
                            [x for x, _ in data], cfg.v, header)
            write_sequences(out / f"sequences-run{run:02d}.gold.txt",
                            [g for _, g in data], cfg.k, header)
        print(f"wrote {cfg.runs} sequence datasets to {out}")
    elif cfg.task == "depparse":
        bank = gen_treebank(TreebankGenConfig(
            n_sentences=cfg.sentences, tagset_size=cfg.tagset,
            seed=cfg.seed))
        out = _out_dir(cfg)
        header = (f"task=depparse tagset={cfg.tagset} "
                  f"sentences={cfg.sentences} seed={cfg.seed}")
        write_conll(out / "treebank.conll", bank, header_comment=header)
        print(f"wrote {len(bank)} sentences to {out / 'treebank.conll'}")
    else:
        corpus = gen_document_corpus(DocGenConfig(
            n_documents=cfg.documents, vocab_size=cfg.v,
            n_clusters=cfg.clusters, mean_length=cfg.doc_mean_length,
            seed=cfg.seed))
        out = _out_dir(cfg)
        header = (f"task=cluster v={cfg.v} clusters={cfg.clusters} "
                  f"documents={cfg.documents} seed={cfg.seed}")
        write_documents(out / "documents.txt", [d for d, _ in corpus],
                        cfg.v, header)
        # one integer label per line, no header
        (out / "documents.gold.txt").write_text(
            "".join(f"{int(label)}\n" for _, label in corpus),
            encoding="utf-8")
        print(f"wrote {cfg.documents} documents to {out / 'documents.txt'}")
    return 0


def _read_labels(path) -> np.ndarray:
    """Reads ``gen``'s gold labels; blank and ``#`` lines are skipped, so
    gold files that carry a provenance header still read the same."""
    labels = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed label line")
    if not labels:
        raise DataError(f"{path}: no labels")
    try:
        return np.asarray(labels, dtype=np.int64)
    except OverflowError:
        raise DataError(f"{path}: label outside the 64-bit range")


# ---------------------------------------------------------------------------
# train


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_timings(path, per_iteration, total: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, seconds in enumerate(per_iteration, start=1):
            fh.write(f"iteration {i}: {seconds:.3f}s\n")
        fh.write(f"total: {total:.3f}s\n")


def _write_json(path, blob: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _params_payload(kind: str, params) -> dict:
    """Model-file form of EM parameters ("hmm" or "mm" tables)."""
    tables = {f.name: getattr(params, f.name).tolist() for f in fields(params)}
    return {"params": {"kind": kind, **tables}}


def _params_from_payload(cls, payload: dict):
    return cls(**{f.name: payload[f.name] for f in fields(cls)})


def _read_sequence_data(path):
    xs, vocab = read_sequences(path)
    if not xs:
        raise DataError(f"{path}: no sequences")
    return xs, vocab


def _read_treebank(path) -> list:
    sentences, rejected = load_conll(path)
    if rejected:
        print(f"warning: {rejected} malformed sentences skipped",
              file=sys.stderr)
    if not sentences:
        raise DataError(f"{path}: no sentences")
    return sentences


def cmd_train(cfg) -> int:
    if cfg.data is None:
        raise ConfigError("train needs --data")
    t0 = time.perf_counter()
    if cfg.method == "em":
        spec, payload, losses = _train_em(cfg)
        seconds = []
    else:
        spec, payload, log = _train_searn(cfg)
        losses = [r["classification_loss"] for r in log]
        seconds = [r["seconds"] for r in log]
        capped = sum(r["capped_fits"] for r in log)
        if capped:
            print(f"{capped} of {sum(r['lr_fits'] for r in log)} LR fits "
                  f"stopped at the {LR_OPTIMIZER.max_epochs}-epoch cap",
                  file=sys.stderr)
    out = _out_dir(cfg)
    _write_json(out / "model.json", {"format_version": 1,
                                     "method": cfg.method, "task": spec,
                                     **payload})
    # the learning loop measures no dev metric; the empty dev_accuracy
    # column is part of the file format
    _write_csv(out / "train-log.csv", ["iteration", "dev_accuracy", "loss"],
               [(i, "", f"{loss:.12g}")
                for i, loss in enumerate(losses, start=1)])
    _write_timings(out / "timings.log", seconds, time.perf_counter() - t0)
    print(f"wrote {out / 'model.json'}")
    return 0


def _train_em(cfg) -> tuple:
    """EM baselines: (task spec, model payload, per-iteration -LL)."""
    if cfg.task == "sequence":
        xs, vocab = _read_sequence_data(cfg.data)
        params, lls = hmm_em_train(xs, cfg.k, vocab,
                                   iterations=cfg.iterations,
                                   seed=cfg.seed, tol=cfg.em_tol)
        return ({"task": "sequence", "k": cfg.k, "v": vocab},
                _params_payload("hmm", params), [-ll for ll in lls])
    docs, vocab = read_documents(cfg.data)
    params, trajectory = mm_em_train(docs, mm_random_init(cfg.k, vocab,
                                                          cfg.seed),
                                     iterations=cfg.iterations)
    return ({"task": "cluster", "k": cfg.k, "v": vocab},
            _params_payload("mm", params),
            [-mm_log_likelihood(p, docs) for p in trajectory])


def _train_searn(cfg) -> tuple:
    """Mixture training: (task spec, model payload, searn_learn's log)."""
    if cfg.task == "cluster":
        return _train_cluster_exact(cfg)
    kind = cfg.method.split("-")[1]
    seed = derive_seed(cfg.seed, _TRAIN_KEY)
    if cfg.task == "sequence":
        xs, vocab = _read_sequence_data(cfg.data)
        task = SequenceTask(SequenceTaskConfig(
            K=cfg.k, V=vocab,
            feature_mode="nb_hmm" if kind == "nb" else "lr_window"))
        policy, log = searn_learn(
            task, xs, LearnerConfig(kind=kind, smoothing=cfg.smoothing,
                                    l2_variance=cfg.lr_variance),
            beta=cfg.beta,
            cfg=RolloutConfig(seed=seed, n_samples=cfg.n_samples),
            iterations=cfg.iterations)
        spec = {"task": "sequence", "k": cfg.k, "v": vocab,
                "feature_mode": task.config.feature_mode}
    else:
        data = parse_training_data(_read_treebank(cfg.data),
                                   cfg.supervision, cfg.labeled_count)
        task, policy, log = train_parser(_parse_experiment(cfg), data, seed,
                                         kind, cfg.smoothing)
        spec = {"task": "depparse", "tagset": cfg.tagset,
                "supervision": cfg.supervision}
    return spec, {"policy": policy_to_dict(policy, task.interner)}, log


def _train_cluster_exact(cfg) -> tuple:
    if not cfg.exact:
        raise ConfigError("cluster training is the exact-mode equivalence "
                          "path; use --exact")
    docs, vocab = read_documents(cfg.data)
    task = ClusterTask(ClusterTaskConfig(K=cfg.k, V=vocab))
    # Same random initialization as the EM path with this seed, so the
    # two trainers' trajectories are directly comparable.
    start = task.policy_from_params(mm_random_init(cfg.k, vocab, cfg.seed))
    policy, log = searn_learn(
        task, docs, LearnerConfig(kind="nb", smoothing=0.0), beta=1.0,
        cfg=RolloutConfig(seed=cfg.seed), iterations=cfg.iterations,
        start=start)
    params = task.params_from_rule(policy.components[-1][0])
    return ({"task": "cluster", "k": cfg.k, "v": vocab},
            _params_payload("mm", params), log)


# ---------------------------------------------------------------------------
# eval


def _split_list(text) -> list:
    return [part for part in str(text).split(",") if part]


def _load_model(path) -> tuple:
    """(task name, model): mixture or HMM parameters, or a (task, policy)
    pair.  A file that does not hold a well-formed model is a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}")
    except ValueError as exc:
        raise DataError(f"{path}: not a model file ({exc})")
    if not isinstance(blob, dict) or blob.get("format_version") != 1:
        raise DataError(f"{path}: unsupported model format")
    try:
        spec, method = blob["task"], blob["method"]
        name = spec["task"]
        if ("train", name, method) not in _RUNS:
            raise DataError(f"{path}: no train run writes a {name!r} model "
                            f"with method {method!r}")
        if name == "cluster":
            return name, _params_from_payload(MultinomialMixtureParams,
                                              blob["params"])
        if name == "sequence" and method == "em":
            return name, _params_from_payload(HmmParams, blob["params"])
        if name == "sequence":
            task = SequenceTask(SequenceTaskConfig(
                K=spec["k"], V=spec["v"], feature_mode=spec["feature_mode"]))
        else:
            tagset, supervision = spec["tagset"], spec["supervision"]
            task = ParseTask(tagset)
            if supervision not in _SUPERVISION:
                raise ConfigError("supervision must be unsup, sup or semi")
        policy, task.interner = policy_from_dict(blob["policy"])
        groups = task.groups()
        for rule, _ in policy.components:
            if not isinstance(rule, LearnedRule):
                # the initial rule reads the gold output it is scored on
                raise DataError(f"{path}: a saved policy holds learned "
                                "rules only")
            for group, model in rule.models.items():
                if groups.get(group) != model.n_classes:
                    raise DataError(f"{path}: group {group!r} has a "
                                    f"{model.n_classes}-class model; the "
                                    f"task's groups are {groups}")
        return name, (task, policy)
    except (KeyError, TypeError, ValueError, AttributeError,
            ConfigError) as exc:
        raise DataError(f"{path}: malformed model ({exc!r})")


def _eval_one(task_name: str, model, data_path, gold_path, cfg,
              run: int) -> tuple:
    """Returns (metric_name, value) for one (model, dataset) pairing.

    Decoding goes through this module's ``run_policy`` and
    ``hmm_posterior_decode`` bindings, which perfbench's wrong-output
    checks replace."""
    if task_name == "cluster":
        docs, vocab = read_documents(data_path)
        gold = _read_labels(gold_path)
        if vocab != model.vocab_size:
            raise DataError(f"{data_path}: V={vocab}, but the model has "
                            f"V={model.vocab_size}")
        pred = np.argmax(mm_e_step(model, docs), axis=1)
        return "matched_hamming", matched_hamming(pred, gold,
                                                  model.n_clusters,
                                                  int(gold.max()) + 1)
    if task_name == "sequence":
        xs, _ = _read_sequence_data(data_path)
        gold_seqs, k_gold = _read_sequence_data(gold_path)
        for i, (x, g) in enumerate(zip_longest(xs, gold_seqs, fillvalue=()),
                                   start=1):
            if len(x) != len(g):
                raise DataError(f"{gold_path}: gold sequence {i} has "
                                f"{len(g)} labels, but sequence {i} of "
                                f"{data_path} has {len(x)} symbols")
        gold = np.concatenate([np.asarray(g) for g in gold_seqs])
        if isinstance(model, HmmParams):
            if max(max(x) for x in xs) >= model.vocab_size:
                raise DataError(f"{data_path}: symbol outside the model's "
                                f"V={model.vocab_size}")
            decoder = (hmm_posterior_decode if cfg.posterior_decode
                       else hmm_decode)
            pred = np.concatenate([decoder(model, x) for x in xs])
            k_pred = model.n_states
        else:
            task, policy = model
            states = decode(task, policy, xs, cfg.seed, _EVAL_KEY, run,
                            runner=run_policy)
            pred = np.concatenate([latent_labels(s) for s in states])
            k_pred = task.config.K
        return "matched_hamming", matched_hamming(pred, gold, k_pred, k_gold)
    sentences = _read_treebank(data_path)
    golds = [s.gold_tree for s in sentences]
    if any(g is None for g in golds):
        raise DataError("evaluation needs gold trees on every sentence")
    task, policy = model
    preds = decode_trees(task, policy, sentences, cfg.seed, _EVAL_KEY, run,
                         runner=run_policy)
    return "arc_accuracy", corpus_arc_accuracy(preds, golds)


def cmd_eval(cfg) -> int:
    if cfg.model is None or cfg.data is None:
        raise ConfigError("eval needs --model and --data")
    models = _split_list(cfg.model)
    datas = _split_list(cfg.data)
    golds = _split_list(cfg.gold) if cfg.gold else [None]
    n_runs = max(len(models), len(datas), len(golds))

    def pick(items, i):
        if len(items) == 1:
            return items[0]
        if len(items) != n_runs:
            raise ConfigError("model/data/gold lists must have equal "
                              "length (or be single)")
        return items[i]

    metric_name = None
    values = []
    for run in range(n_runs):
        task_name, model = _load_model(pick(models, run))
        if task_name != "depparse" and pick(golds, run) is None:
            raise ConfigError("eval needs --gold for this task")
        if task_name == "depparse" and pick(golds, run) is not None:
            raise ConfigError("a parse model reads its gold trees from "
                              "--data; it takes no --gold")
        if cfg.posterior_decode and not isinstance(model, HmmParams):
            raise ConfigError(f"{pick(models, run)} is not an HMM model; "
                              "only those have --posterior-decode")
        name, value = _eval_one(task_name, model, pick(datas, run),
                                pick(golds, run), cfg, run)
        if metric_name is not None and name != metric_name:
            raise ConfigError("cannot aggregate runs across metrics")
        metric_name = name
        values.append(value)
    summary = summarize(values, metric=metric_name)
    out = _out_dir(cfg)
    write_runs_csv(out / "metrics.csv", [summary])
    _write_json(out / "summary.json", asdict(summary))
    sigma = "" if summary.single_run else f" +/- {summary.std:.4f}"
    print(f"{metric_name}: mean {summary.mean:.4f}{sigma} "
          f"over {summary.n_runs} run(s)")
    return 0


# ---------------------------------------------------------------------------
# learning-curve


def cmd_learning_curve(cfg) -> int:
    t0 = time.perf_counter()
    rows = learning_curve(_parse_experiment(cfg), cfg.labeled_counts,
                          master_seeds=cfg.seeds)
    out = _out_dir(cfg)
    _write_csv(out / "curve.csv",
               ["arm", "labeled_count", "mean", "two_sigma", "values"],
               [(row.arm, row.labeled_count, f"{row.mean:.12g}",
                 f"{row.two_sigma:.12g}",
                 ";".join(f"{v:.12g}" for v in row.values))
                for row in rows])
    _write_timings(out / "timings.log", [], time.perf_counter() - t0)
    print(f"wrote {out / 'curve.csv'} "
          f"({len(rows)} points, seeds {list(cfg.seeds)})")
    return 0


# ---------------------------------------------------------------------------
# equivalence


def cmd_equivalence(cfg) -> int:
    reports = equivalence_sweep(
        n_corpora=cfg.runs, n_documents=cfg.documents, vocab_size=cfg.v,
        iterations=cfg.iterations, master_seed=cfg.seed)
    blob = {
        "n_corpora": len(reports),
        "iterations": cfg.iterations,
        "tolerance": reports[0].tolerance,
        "all_passed": all(r.passed for r in reports),
        "max_diff": max(r.max_diff for r in reports),
        "per_corpus": [{"passed": r.passed, "max_diff": r.max_diff}
                       for r in reports],
    }
    out = _out_dir(cfg)
    _write_json(out / "equivalence.json", blob)
    status = "PASS" if blob["all_passed"] else "FAIL"
    print(f"{status}: max parameter gap {blob['max_diff']:.3g} over "
          f"{blob['n_corpora']} corpora")
    return 0 if blob["all_passed"] else 1


# ---------------------------------------------------------------------------


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "learning-curve": cmd_learning_curve,
    "equivalence": cmd_equivalence,
}


def main(argv=None) -> int:
    try:
        cfg = configure(argv)
        return _COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, UnicodeDecodeError) as exc:
        # config files are decoded in read_config_file, so an undecodable
        # file here is a data or model file
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
