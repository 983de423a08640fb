"""Desk-scale experiment protocols and the per-task train/decode steps.

The parsing protocols and the equivalence sweep fix their data and seed
derivation so that every run is reproducible from its settings and one
master seed; the CLI's run table (``cli._RUNS``) holds their defaults.
The CLI runs the same training and decoding steps (``train_parser``,
``parse_training_data``, ``decode``); a parsing run's supervision mode
acts only in ``parse_training_data``.  The sequence grid (EM against
mixture training on HMM data) is the CLI's ``gen``, ``train`` and
``eval`` alone.  File output lives in the CLI layer.
"""

from dataclasses import dataclass

import numpy as np

from .core import (LearnerConfig, RolloutConfig, derive_seed, initial_policy,
                   run_policy, searn_learn)
from .datagen import (DocGenConfig, TreebankGenConfig, gen_document_corpus,
                      gen_treebank, split_dataset)
from .errors import ConfigError, DataError
from .metrics import corpus_arc_accuracy, summarize
from .task_cluster import run_equivalence
from .task_depparse import ParseTask, TaggedSentence

# Seed-derivation keys.  Every stream consumed by a protocol is derived
# from (master_seed, key, indices...) so runs never share randomness.
_TREEBANK_KEY = 301
_PARSE_TRAIN_KEY = 403
_PARSE_DECODE_KEY = 404
_PARSE_ITEM_KEY = 401
_PARSE_BASELINE_KEY = 405
_EQUIV_DATA_KEY = 601
_EQUIV_INIT_KEY = 602
# equivalence-sweep cluster counts (cycled) and largest passing gap
_EQUIV_CLUSTER_COUNTS = (2, 3)
_EQUIV_TOLERANCE = 1e-8
# mean document length of the equivalence-sweep corpora
_EQUIV_DOC_MEAN_LENGTH = 20.0
# parse protocols train on at most this many sentences of the training split
PARSE_TRAIN_LIMIT = 500


def decode(task, policy, inputs, seed: int, *key: int, runner) -> list:
    """The finished hidden half of one policy run per input: decoding
    draws no re-emission.  Input i runs on the stream seeded by
    ``derive_seed(seed, *key, i)``.  ``runner`` is ``run_policy`` (a
    caller may hold its own binding of it)."""
    return [runner(task, x, policy,
                   np.random.default_rng(derive_seed(seed, *key, i)))
            for i, x in enumerate(inputs)]


# ---------------------------------------------------------------------------
# Dependency-parsing protocols (synthetic treebank)


@dataclass(frozen=True)
class ParseExperiment:
    """Treebank settings plus the shared parser-training settings."""

    n_sentences: int
    tagset_size: int
    beta: float
    n_samples: int
    iterations: int
    # Separate smoothing for the two feature groups (attachment decisions
    # vs. tag decisions).
    tree_variance: float
    tag_variance: float


def parse_corpus(exp: ParseExperiment, master_seed: int):
    """Deterministic (train, dev, test) split of the synthetic treebank;
    train keeps its first ``PARSE_TRAIN_LIMIT`` sentences."""
    bank = gen_treebank(TreebankGenConfig(
        n_sentences=exp.n_sentences, tagset_size=exp.tagset_size,
        seed=derive_seed(master_seed, _TREEBANK_KEY)))
    train, dev, test = split_dataset(bank)
    return train[:PARSE_TRAIN_LIMIT], dev, test


def _strip_gold(sentences):
    return [TaggedSentence(s.tags) for s in sentences]


def parse_training_data(sentences, supervision: str,
                        labeled_count: int | None) -> list:
    """Training inputs for one supervision mode: ``ParseTask`` reads
    only which sentences keep their gold tree.

    "unsup" strips every gold tree; "sup" keeps the first
    ``labeled_count`` sentences (all when None); "semi" keeps them and
    strips the gold trees of the rest.  Each kept sentence must have its
    gold tree.
    """
    if supervision == "unsup":
        return _strip_gold(sentences)
    if supervision not in ("sup", "semi"):
        raise ConfigError(f"unknown supervision {supervision!r}")
    if labeled_count is None:
        if supervision == "semi":
            raise ConfigError("semi-supervised runs need labeled_count")
        labeled_count = len(sentences)
    if not 0 <= labeled_count <= len(sentences):
        raise ConfigError(f"labeled_count must lie in [0, {len(sentences)}]"
                          " (the training set size)")
    labeled = list(sentences[:labeled_count])
    if any(s.gold_tree is None for s in labeled):
        raise DataError("supervised mode requires a gold tree")
    if supervision == "semi":
        return labeled + _strip_gold(sentences[labeled_count:])
    return labeled


def train_parser(exp: ParseExperiment, data, seed: int, kind: str = "lr",
                 smoothing: float = 0.0):
    """Mixture-train a parser on prepared inputs (see
    ``parse_training_data``) with the settings of ``exp``; returns
    (task, policy, searn_learn's log)."""
    task = ParseTask(exp.tagset_size)
    learner = LearnerConfig(kind=kind, smoothing=smoothing,
                            l2_variance={"parse": exp.tree_variance,
                                         "tag": exp.tag_variance})
    policy, log = searn_learn(
        task, data, learner, beta=exp.beta,
        cfg=RolloutConfig(seed=seed, n_samples=exp.n_samples),
        iterations=exp.iterations)
    return task, policy, log


def decode_trees(task: ParseTask, policy, sentences, seed: int, *key: int,
                 runner=None) -> list:
    """Predicted trees of the sentences with their gold trees stripped, so
    that no decode can read one: a group the policy has no model for
    falls back to random legal actions, never to the gold-tree oracle.
    ``runner`` is ``decode``'s, this module's ``run_policy`` when None."""
    return [state.tree for state in decode(task, policy,
                                           _strip_gold(sentences), seed,
                                           *key, runner=runner or run_policy)]


def run_parse(exp: ParseExperiment, master_seed: int, corpus,
              supervision: str, labeled_count: int | None = None) -> float:
    """Train one parsing arm on ``corpus`` (``parse_corpus(exp,
    master_seed)``) and return held-out arc accuracy.

    ``supervision`` and ``labeled_count`` select the training inputs as in
    ``parse_training_data``.
    """
    train, _, test = corpus
    data = parse_training_data(train, supervision, labeled_count)
    task, policy, _ = train_parser(exp, data,
                                   derive_seed(master_seed, _PARSE_TRAIN_KEY))
    preds = decode_trees(task, policy, test,
                         derive_seed(master_seed, _PARSE_DECODE_KEY),
                         _PARSE_ITEM_KEY)
    return corpus_arc_accuracy(preds, [s.gold_tree for s in test])


def random_parse_baseline(exp: ParseExperiment, master_seed: int) -> float:
    """Arc accuracy of the untrained policy (random legal actions)."""
    _, _, test = parse_corpus(exp, master_seed)
    task = ParseTask(exp.tagset_size)
    preds = decode_trees(task, initial_policy(), test,
                         derive_seed(master_seed, _PARSE_BASELINE_KEY),
                         _PARSE_ITEM_KEY)
    return corpus_arc_accuracy(preds, [s.gold_tree for s in test])


@dataclass(frozen=True)
class CurvePoint:
    """One learning-curve point: accuracy mean +/- two sigma over seeds."""

    arm: str
    labeled_count: int
    mean: float
    two_sigma: float
    values: tuple


def learning_curve(exp: ParseExperiment, labeled_counts,
                   master_seeds) -> list:
    """Unsup / semi / sup arms across annotation budgets.

    For each count c the semi arm trains with c gold trees (rest
    unlabeled) and the sup arm trains on the c gold trees alone; the
    unsup arm ignores the budget.  Values aggregate over master seeds.
    Errors name the CLI flags that give these arguments.
    """
    counts = sorted(set(int(c) for c in labeled_counts))
    if not counts:
        raise ConfigError("--labeled-counts names no count")
    if counts[0] < 1:
        raise ConfigError(f"--labeled-counts {counts[0]}: each count needs "
                          "at least 1 gold tree")
    if not master_seeds:
        raise ConfigError("--seeds names no seed")
    if len(set(master_seeds)) < len(master_seeds):
        raise ConfigError(f"--seeds {','.join(map(str, master_seeds))}: "
                          "runs that repeat a seed add no spread")
    corpora = {m: parse_corpus(exp, m) for m in master_seeds}
    for train, _, test in corpora.values():
        if not test:
            raise ConfigError(f"the test split of {exp.n_sentences} "
                              "sentences is empty: no arm could be scored")
        if counts[-1] > len(train):
            raise ConfigError(f"--labeled-counts {counts[-1]} exceeds the "
                              f"{len(train)}-sentence training split")

    def point(arm, count, values):
        s = summarize(values, metric="arc_accuracy")
        return CurvePoint(arm=arm, labeled_count=count, mean=s.mean,
                          two_sigma=2.0 * s.std, values=s.values)

    rows = [point("unsup", 0, [run_parse(exp, m, corpora[m], "unsup")
                               for m in master_seeds])]
    for c in counts:
        for arm in ("semi", "sup"):
            rows.append(point(arm, c, [run_parse(exp, m, corpora[m], arm, c)
                                       for m in master_seeds]))
    return rows


# ---------------------------------------------------------------------------
# Mixture-trainer equivalence sweep (cluster task)


def equivalence_sweep(n_corpora: int, n_documents: int, vocab_size: int,
                      iterations: int, master_seed: int) -> list:
    """Exact-mode mixture training vs. EM on random document corpora.

    Returns one ``EquivalenceReport`` per corpus; cluster counts cycle
    through ``_EQUIV_CLUSTER_COUNTS``.
    """
    if n_corpora < 1:
        raise ConfigError("n_corpora must be at least 1")
    reports = []
    for c in range(n_corpora):
        K = _EQUIV_CLUSTER_COUNTS[c % len(_EQUIV_CLUSTER_COUNTS)]
        corpus = gen_document_corpus(DocGenConfig(
            n_documents=n_documents, vocab_size=vocab_size, n_clusters=K,
            seed=derive_seed(master_seed, _EQUIV_DATA_KEY, c),
            mean_length=_EQUIV_DOC_MEAN_LENGTH))
        docs = [doc for doc, _ in corpus]
        reports.append(run_equivalence(
            docs, K, iterations, derive_seed(master_seed, _EQUIV_INIT_KEY, c),
            _EQUIV_TOLERANCE))
    return reports
