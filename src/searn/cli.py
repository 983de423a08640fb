"""Command-line experiment runner.

Subcommands: ``gen`` (synthetic datasets), ``train`` (EM or mixture
training), ``eval`` (metrics over one or more runs), ``learning-curve``
(annotation-budget sweep on the treebank task), and ``equivalence``
(exact-mode mixture training vs. EM on random corpora).

Every option can also come from a flat ``key=value`` config file passed
with ``--config``; command-line flags take precedence over the file.
Result files are byte-identical across reruns with the same settings;
wall-clock measurements go to a separate ``timings.log``.

Output files:

- ``gen --task cluster``: ``documents.txt`` (a ``#`` provenance header,
  then the documents) and ``documents.gold.txt`` (one integer label per
  document, one per line, no header).  The number of clusters is
  ``--clusters``, or ``--k`` when only that is given; two different
  values are a configuration error.
- ``gen --task sequence``: ``sequences-runNN.txt`` and
  ``sequences-runNN.gold.txt``; ``gen --task depparse``:
  ``treebank.conll``.
- ``train``: ``model.json``, ``train-log.csv`` and ``timings.log``.
  ``train --task depparse`` keeps gold trees per ``--supervision``:
  ``unsup`` strips them all; ``sup`` trains on the first
  ``--labeled-count`` sentences (all when not given), each with its
  tree; ``semi`` keeps the trees of the first ``--labeled-count``
  sentences and strips the rest.  ``train --task cluster --method
  searn-nb`` is the exact-mode equivalence path (``--exact``); there
  ``--k 1`` is accepted as a boundary case.
- ``eval``: ``metrics.csv`` (``metric,run,value``, one row per run) and
  ``summary.json``, a flat object over the runs of the one metric scored:
  ``metric``, ``mean``, ``std``, ``n_runs``, ``single_run`` and
  ``values``.
- ``learning-curve``: ``curve.csv``; ``equivalence``:
  ``equivalence.json``.

Exit codes: 0 on success, 1 on data errors (a malformed data, gold or
model file, or a failed equivalence check), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .core import (LearnerConfig, RolloutConfig, StoppingRule, derive_seed,
                   policy_from_dict, policy_to_dict, run_policy, searn_learn)
from .datagen import (DocGenConfig, HmmGenConfig, TreebankGenConfig,
                      gen_document_corpus, gen_hmm_dataset, gen_hmm_params,
                      gen_treebank)
from .em import (HmmParams, MultinomialMixtureParams, hmm_decode,
                 hmm_em_train, hmm_posterior_decode, mm_e_step,
                 mm_em_train, mm_log_likelihood, mm_random_init)
from .errors import ConfigError, DataError
from .experiments import (ParseExperiment, SequenceExperiment, decode_labels,
                          decode_trees, equivalence_sweep, learning_curve,
                          parse_training_data, train_parser,
                          train_sequence_searn)
from .metrics import (corpus_arc_accuracy, matched_hamming, summarize,
                      write_runs_csv)
from .task_cluster import (ClusterTask, ClusterTaskConfig, read_documents,
                           write_documents)
from .task_depparse import ParseTask, ParseTaskConfig, load_conll, write_conll
from .task_sequence import (SequenceTask, SequenceTaskConfig, read_sequences,
                            write_sequences)

_GEN_KEY = 701
_TRAIN_KEY = 702
_EVAL_KEY = 703

_TASKS = ("cluster", "sequence", "depparse")
_METHODS = ("em", "searn-nb", "searn-lr")
_SUPERVISION = ("unsup", "sup", "semi")


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class ExperimentConfig:
    """Flat bag of every option; flags and config-file keys mirror it."""

    task: str | None = None
    method: str | None = None
    supervision: str = "unsup"
    beta: float | None = None
    n_samples: int | None = None
    iterations: int | None = None
    seeds: tuple = (0,)
    seed: int = 0
    labeled_count: int | None = None
    labeled_counts: tuple = (50, 150, 500)
    data: str | None = None
    gold: str | None = None
    model: str | None = None
    out: str = "runs"
    order: int = 1
    k: int = 2
    v: int | None = None
    runs: int | None = None
    sequences: int = 5
    mean_length: float = 40.0
    sentences: int = 620
    tagset: int = 12
    documents: int = 10
    clusters: int = 2
    doc_mean_length: float = 20.0
    smoothing: float | None = None
    lr_variance: float = 10.0
    tree_variance: float = 10.0
    tag_variance: float = 10.0
    exact: bool = False
    posterior_decode: bool = False
    em_tol: float = 1e-5


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


# Each setting's parser, from its field's annotation (a string here, since
# annotations are postponed): "int | None" -> int, "tuple" -> int list.
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool,
            "tuple": _parse_int_list}
_KINDS = {f.name: f.type.split(" |")[0] for f in fields(ExperimentConfig)}


def _coerce(name: str, value):
    try:
        return _PARSERS[_KINDS[name]](value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {name}: {value!r}")


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="searn",
        description="Structured-prediction experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("gen", "train", "eval", "learning-curve", "equivalence"):
        p = sub.add_parser(command)
        p.add_argument("--config", default=None,
                       help="flat key=value settings file")
        for name, kind in _KINDS.items():
            flag = "--" + name.replace("_", "-")
            if kind == "bool":
                p.add_argument(flag, action="store_const", const=True,
                               default=None)
            else:  # parsed by merge_config, so bad values are config errors
                p.add_argument(flag, default=None)
    return parser


def merge_config(args: argparse.Namespace) -> tuple:
    """defaults < config file < explicit flags; returns (config, provided)."""
    values = {}
    provided = set()
    if args.config:
        file_values = read_config_file(args.config)
        values.update(file_values)
        provided.update(file_values)
    for name in _KINDS:
        flag_value = getattr(args, name)
        if flag_value is not None:
            values[name] = _coerce(name, flag_value)
            provided.add(name)
    cfg = ExperimentConfig(**values)
    _validate(cfg)
    if args.command == "gen" and cfg.task == "cluster":
        _resolve_cluster_count(cfg, provided)
    return cfg, provided


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.task is not None and cfg.task not in _TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}")
    if cfg.method is not None and cfg.method not in _METHODS:
        raise ConfigError(f"unknown method {cfg.method!r}")
    if cfg.supervision not in _SUPERVISION:
        raise ConfigError(f"unknown supervision {cfg.supervision!r}")
    if cfg.method == "em" and cfg.task == "depparse":
        raise ConfigError("the em method applies to cluster and sequence "
                          "tasks only")
    if cfg.supervision != "unsup" and cfg.task in ("cluster", "sequence"):
        raise ConfigError(f"the {cfg.task} task is unsupervised; "
                          "drop the supervision setting")
    if cfg.supervision == "semi" and cfg.labeled_count is None:
        raise ConfigError("semi-supervised runs need --labeled-count")
    if cfg.exact and (cfg.task, cfg.method) != ("cluster", "searn-nb"):
        raise ConfigError("--exact is the cluster-task equivalence mode "
                          "(searn-nb only)")


def _resolve_cluster_count(cfg: ExperimentConfig, provided: set) -> None:
    """A generated corpus has ``--clusters`` clusters, or ``--k`` when only
    that is given; two different values are rejected."""
    if "k" in provided and "clusters" in provided:
        if cfg.k != cfg.clusters:
            raise ConfigError(f"--k {cfg.k} and --clusters {cfg.clusters} "
                              "disagree; give one, or equal values")
    elif "k" in provided:
        cfg.clusters = cfg.k


# Settings whose default depends on the task; em training defaults to
# 50 iterations on every task.
_TASK_DEFAULTS = {
    "cluster": {"beta": 1.0, "n_samples": 1, "iterations": 10, "v": 5},
    "sequence": {"beta": 0.5, "n_samples": 2, "iterations": 4, "v": 10},
    "depparse": {"beta": 0.1, "n_samples": 1, "iterations": 10, "v": 10},
}


def _resolved(cfg: ExperimentConfig) -> ExperimentConfig:
    """Fill task-dependent defaults for settings left unset."""
    defaults = dict(_TASK_DEFAULTS[cfg.task], runs=10,
                    smoothing=0.0 if cfg.exact else 1.0)
    if cfg.method == "em":
        defaults["iterations"] = 50
    for name, value in defaults.items():
        if getattr(cfg, name) is None:
            setattr(cfg, name, value)
    return cfg


def _parse_experiment(cfg: ExperimentConfig) -> ParseExperiment:
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


def cmd_gen(cfg: ExperimentConfig) -> int:
    if cfg.task is None:
        raise ConfigError("gen needs --task")
    cfg = _resolved(cfg)
    out = _out_dir(cfg)
    if cfg.task == "sequence":
        for run in range(cfg.runs):
            run_seed = derive_seed(cfg.seed, _GEN_KEY, run)
            gen_cfg = HmmGenConfig(order=cfg.order, K=cfg.k, V=cfg.v,
                                   n_sequences=cfg.sequences,
                                   mean_length=cfg.mean_length,
                                   seed=run_seed)
            data = gen_hmm_dataset(gen_hmm_params(gen_cfg), gen_cfg)
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
        header = (f"task=depparse tagset={cfg.tagset} "
                  f"sentences={cfg.sentences} seed={cfg.seed}")
        write_conll(out / "treebank.conll", bank, header_comment=header)
        print(f"wrote {len(bank)} sentences to {out / 'treebank.conll'}")
    else:
        corpus = gen_document_corpus(DocGenConfig(
            n_documents=cfg.documents, vocab_size=cfg.v,
            n_clusters=cfg.clusters, mean_length=cfg.doc_mean_length,
            seed=cfg.seed))
        header = (f"task=cluster v={cfg.v} clusters={cfg.clusters} "
                  f"documents={cfg.documents} seed={cfg.seed}")
        write_documents(out / "documents.txt", [d for d, _ in corpus],
                        cfg.v, header)
        _write_labels(out / "documents.gold.txt",
                      [label for _, label in corpus])
        print(f"wrote {cfg.documents} documents to {out / 'documents.txt'}")
    return 0


def _write_labels(path, labels) -> None:
    """One integer label per line, no header."""
    with open(path, "w", encoding="utf-8") as fh:
        for label in labels:
            fh.write(f"{int(label)}\n")


def _read_labels(path) -> np.ndarray:
    """Reads ``_write_labels`` output; blank and ``#`` lines are skipped, so
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


def cmd_train(cfg: ExperimentConfig) -> int:
    if cfg.task is None or cfg.method is None:
        raise ConfigError("train needs --task and --method")
    if cfg.data is None:
        raise ConfigError("train needs --data")
    cfg = _resolved(cfg)
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    history, per_iter = [], []
    if cfg.method == "em":
        spec, payload, losses = _train_em(cfg)
        rows = [(i + 1, None, loss) for i, loss in enumerate(losses)]
    else:
        spec, payload = _train_searn(cfg, history, per_iter)
        rows = [(h["iteration"], h.get("dev_accuracy"),
                 h["classification_loss"]) for h in history]
    _write_json(out / "model.json", {"format_version": 1,
                                     "method": cfg.method, "task": spec,
                                     **payload})
    _write_csv(out / "train-log.csv", ["iteration", "dev_accuracy", "loss"],
               [(i, "" if dev is None else f"{dev:.12g}", f"{loss:.12g}")
                for i, dev, loss in rows])
    _write_timings(out / "timings.log", per_iter, time.perf_counter() - t0)
    print(f"wrote {out / 'model.json'}")
    return 0


def _train_em(cfg: ExperimentConfig) -> tuple:
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


def _train_searn(cfg: ExperimentConfig, history, timings) -> tuple:
    """Mixture training: (task spec, model payload)."""
    if cfg.task == "cluster":
        return _train_cluster_exact(cfg, history, timings)
    kind = cfg.method.split("-")[1]
    seed = derive_seed(cfg.seed, _TRAIN_KEY)
    if cfg.task == "sequence":
        xs, vocab = _read_sequence_data(cfg.data)
        exp = SequenceExperiment(
            n_states=cfg.k, vocab_size=vocab, beta=cfg.beta,
            n_samples=cfg.n_samples, iterations=cfg.iterations,
            smoothing=cfg.smoothing, lr_variance=cfg.lr_variance)
        task, policy = train_sequence_searn(exp, xs, kind, seed, history,
                                            timings)
        spec = {"task": "sequence", "k": cfg.k, "v": vocab,
                "feature_mode": task.config.feature_mode}
    else:
        data = parse_training_data(_read_treebank(cfg.data),
                                   cfg.supervision, cfg.labeled_count)
        task, policy = train_parser(_parse_experiment(cfg), data,
                                    cfg.supervision, seed, kind,
                                    cfg.smoothing, history, timings)
        spec = {"task": "depparse", "tagset": cfg.tagset,
                "supervision": cfg.supervision}
    return spec, {"policy": policy_to_dict(policy, task.interner)}


def _train_cluster_exact(cfg: ExperimentConfig, history, timings) -> tuple:
    if not cfg.exact or cfg.beta != 1.0:
        raise ConfigError("cluster training is the exact-mode equivalence "
                          "path; use --exact (beta stays 1)")
    docs, vocab = read_documents(cfg.data)
    task = ClusterTask(ClusterTaskConfig(K=cfg.k, V=vocab, exact_mode=True))
    # Same random initialization as the EM path with this seed, so the
    # two trainers' trajectories are directly comparable.
    start = task.policy_from_params(mm_random_init(cfg.k, vocab, cfg.seed))
    policy = searn_learn(
        task, [np.asarray(d, dtype=float) for d in docs],
        LearnerConfig(kind="nb", smoothing=cfg.smoothing), beta=1.0,
        cfg=RolloutConfig(mode="exact", seed=cfg.seed),
        stopping=StoppingRule(max_iterations=cfg.iterations, patience=None),
        start=start, history=history, timings=timings)
    params = task.params_from_rule(policy.components[-1][0])
    return ({"task": "cluster", "k": cfg.k, "v": vocab},
            _params_payload("mm", params))


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
        if name not in _TASKS or method not in _METHODS:
            raise DataError(f"{path}: unknown task {name!r} or method "
                            f"{method!r}")
        if name == "cluster":
            return name, _params_from_payload(MultinomialMixtureParams,
                                              blob["params"])
        if name == "sequence" and method == "em":
            return name, _params_from_payload(HmmParams, blob["params"])
        if name == "sequence":
            task = SequenceTask(SequenceTaskConfig(
                K=spec["k"], V=spec["v"], feature_mode=spec["feature_mode"]))
        else:
            task = ParseTask(ParseTaskConfig(
                tagset_size=spec["tagset"], supervision=spec["supervision"]))
        policy, task.interner = policy_from_dict(blob["policy"])
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
            pred = decode_labels(task, policy, xs, cfg.seed, _EVAL_KEY, run,
                                 runner=run_policy)
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


def cmd_eval(cfg: ExperimentConfig) -> int:
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

    out = _out_dir(cfg)
    metric_name = None
    values = []
    for run in range(n_runs):
        task_name, model = _load_model(pick(models, run))
        if task_name != "depparse" and pick(golds, run) is None:
            raise ConfigError("eval needs --gold for this task")
        name, value = _eval_one(task_name, model, pick(datas, run),
                                pick(golds, run), cfg, run)
        if metric_name is not None and name != metric_name:
            raise ConfigError("cannot aggregate runs across metrics")
        metric_name = name
        values.append(value)
    summary = summarize(values, metric=metric_name)
    write_runs_csv(out / "metrics.csv", [summary])
    _write_json(out / "summary.json", asdict(summary))
    sigma = "" if summary.single_run else f" +/- {summary.std:.4f}"
    print(f"{metric_name}: mean {summary.mean:.4f}{sigma} "
          f"over {summary.n_runs} run(s)")
    return 0


# ---------------------------------------------------------------------------
# learning-curve


def cmd_learning_curve(cfg: ExperimentConfig) -> int:
    if cfg.task is None:
        cfg.task = "depparse"
    if cfg.task != "depparse":
        raise ConfigError("learning curves are a depparse protocol")
    cfg = _resolved(cfg)
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    rows = learning_curve(_parse_experiment(cfg), cfg.labeled_counts,
                          master_seeds=cfg.seeds)
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


def cmd_equivalence(cfg: ExperimentConfig) -> int:
    if cfg.runs is None:
        cfg.runs = 20
    if cfg.task is None:
        cfg.task = "cluster"
    cfg = _resolved(cfg)
    out = _out_dir(cfg)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, _ = merge_config(args)
        return _COMMANDS[args.command](cfg)
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


if __name__ == "__main__":
    sys.exit(main())
