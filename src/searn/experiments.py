"""Desk-scale experiment protocols and the per-task train/decode steps.

Each protocol fixes a dataset grid, per-method training settings, and a
seed-derivation scheme so that every run is reproducible from a single
master seed.  The training and decoding steps (``train_sequence_searn``,
``train_parser``, ``parse_training_data``, ``decode``) are the ones the
CLI runs too.  The functions return plain values or ``RunSummary`` rows;
file output lives in the CLI layer.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import (LearnerConfig, RolloutConfig, StoppingRule, derive_seed,
                   initial_policy, run_policy, searn_learn)
from .datagen import (DocGenConfig, HmmGenConfig, TreebankGenConfig,
                      gen_document_corpus, gen_hmm_dataset, gen_hmm_params,
                      gen_treebank, split_dataset)
from .em import hmm_decode, hmm_em_train, hmm_posterior_decode
from .errors import ConfigError
from .metrics import RunSummary, corpus_arc_accuracy, matched_hamming, summarize
from .task_cluster import EquivalenceReport, run_equivalence
from .task_depparse import ParseTask, ParseTaskConfig, TaggedSentence
from .task_sequence import SequenceTask, SequenceTaskConfig, latent_labels

# Seed-derivation keys.  Every stream consumed by a protocol is derived
# from (master_seed, key, indices...) so runs never share randomness.
_SEQ_BASE = {1: 200, 2: 210}  # order -> base; +1 data, +2 em, +3 nb,
_SEQ_DATA, _SEQ_EM, _SEQ_NB, _SEQ_LR, _SEQ_DECODE = 1, 2, 3, 4, 5
_TREEBANK_KEY = 301
_PARSE_TRAIN_KEY = 403
_PARSE_DECODE_KEY = 404
_PARSE_ITEM_KEY = 401
_PARSE_BASELINE_KEY = 405
_EQUIV_DATA_KEY = 601
_EQUIV_INIT_KEY = 602


# ---------------------------------------------------------------------------
# Sequence protocols (latent-state recovery on synthetic chain data)


@dataclass(frozen=True)
class SequenceExperiment:
    """One cell of the sequence grid: data settings + method settings."""

    order: int = 1
    n_states: int = 2
    vocab_size: int = 10
    n_datasets: int = 10
    n_sequences: int = 5
    mean_length: float = 40.0
    master_seed: int = 0
    # EM baseline: a short iteration budget plus marginal (posterior)
    # decoding; both chosen on dev runs -- long EM runs keep increasing
    # likelihood while drifting away from the generating labels.
    em_iterations: int = 8
    posterior_decode: bool = True
    # Mixture-training settings shared by the NB and LR variants.
    beta: float = 0.5
    iterations: int = 4
    n_samples: int = 2
    smoothing: float = 1.0
    lr_variance: float = 10.0

    def __post_init__(self):
        if self.order not in _SEQ_BASE:
            raise ConfigError("order must be 1 or 2")
        if self.n_datasets < 1:
            raise ConfigError("n_datasets must be at least 1")


def sequence_datasets(exp: SequenceExperiment) -> list:
    """The experiment's dataset grid: (sequences, pooled gold labels)."""
    base = _SEQ_BASE[exp.order]
    out = []
    for ds in range(exp.n_datasets):
        cfg = HmmGenConfig(order=exp.order, K=exp.n_states,
                           V=exp.vocab_size, n_sequences=exp.n_sequences,
                           mean_length=exp.mean_length,
                           seed=derive_seed(exp.master_seed,
                                            base + _SEQ_DATA, ds))
        data = gen_hmm_dataset(gen_hmm_params(cfg), cfg)
        out.append(([x for x, _ in data],
                    np.concatenate([g for _, g in data])))
    return out


def run_sequence_em(exp: SequenceExperiment,
                    datasets=None) -> RunSummary:
    """Matched Hamming error of the EM baseline, one value per dataset."""
    base = _SEQ_BASE[exp.order]
    decoder = hmm_posterior_decode if exp.posterior_decode else hmm_decode
    errors = []
    for ds, (xs, gold) in enumerate(datasets or sequence_datasets(exp)):
        params, _ = hmm_em_train(
            xs, exp.n_states, exp.vocab_size,
            iterations=exp.em_iterations,
            seed=derive_seed(exp.master_seed, base + _SEQ_EM, ds))
        pred = np.concatenate([decoder(params, x) for x in xs])
        errors.append(matched_hamming(pred, gold,
                                      exp.n_states, exp.n_states))
    return summarize(errors, metric="matched_hamming")


def decode(task, policy, inputs, seed: int, *key: int, runner=None) -> list:
    """Final states of one policy run per input; input i runs on the
    stream seeded by ``derive_seed(seed, *key, i)``.  ``runner`` stands
    in for ``run_policy`` (a caller may hold its own binding of it)."""
    runner = runner or run_policy
    return [runner(task, x, policy,
                   np.random.default_rng(derive_seed(seed, *key, i)))
            for i, x in enumerate(inputs)]


def decode_labels(task, policy, xs, seed: int, *key: int,
                  runner=None) -> np.ndarray:
    """Pooled latent labels of a sequence task's decode."""
    return np.concatenate([latent_labels(state) for state in
                           decode(task, policy, xs, seed, *key,
                                  runner=runner)])


def train_sequence_searn(exp: SequenceExperiment, xs, kind: str, seed: int,
                         history=None, timings=None):
    """Mixture-train a sequence labeller ("nb" or "lr" learner) with the
    method settings of ``exp``; returns (task, policy)."""
    if kind not in ("nb", "lr"):
        raise ConfigError("kind must be 'nb' or 'lr'")
    task = SequenceTask(SequenceTaskConfig(
        K=exp.n_states, V=exp.vocab_size,
        feature_mode="nb_hmm" if kind == "nb" else "lr_window"))
    policy = searn_learn(
        task, xs, LearnerConfig(kind=kind, smoothing=exp.smoothing,
                                l2_variance=exp.lr_variance),
        beta=exp.beta,
        cfg=RolloutConfig(seed=seed, n_samples=exp.n_samples),
        stopping=StoppingRule(max_iterations=exp.iterations, patience=None),
        history=history, timings=timings)
    return task, policy


def run_sequence_searn(exp: SequenceExperiment, kind: str,
                       datasets=None) -> RunSummary:
    """Matched Hamming error of a mixture-trained policy ("nb" or "lr")."""
    base = _SEQ_BASE[exp.order]
    method_key = base + (_SEQ_NB if kind == "nb" else _SEQ_LR)
    errors = []
    for ds, (xs, gold) in enumerate(datasets or sequence_datasets(exp)):
        task, policy = train_sequence_searn(
            exp, xs, kind, derive_seed(exp.master_seed, method_key, ds))
        pred = decode_labels(task, policy, xs, exp.master_seed,
                             base + _SEQ_DECODE, ds)
        errors.append(matched_hamming(pred, gold,
                                      exp.n_states, exp.n_states))
    return summarize(errors, metric="matched_hamming")


def run_sequence(exp: SequenceExperiment, method: str,
                 datasets=None) -> RunSummary:
    """Dispatch on method name: em | searn-nb | searn-lr."""
    if method == "em":
        return run_sequence_em(exp, datasets)
    if method in ("searn-nb", "searn-lr"):
        return run_sequence_searn(exp, method.split("-")[1], datasets)
    raise ConfigError(f"unknown sequence method {method!r}")


# ---------------------------------------------------------------------------
# Dependency-parsing protocols (synthetic treebank)


@dataclass(frozen=True)
class ParseExperiment:
    """Treebank settings plus the shared parser-training settings."""

    n_sentences: int = 620
    train_limit: int = 500
    tagset_size: int = 12
    master_seed: int = 0
    beta: float = 0.1
    n_samples: int = 1
    iterations: int = 10
    # Separate smoothing for the two feature groups (attachment decisions
    # vs. tag decisions), tuned once on dev data; see the run log.
    tree_variance: float = 10.0
    tag_variance: float = 10.0

    def __post_init__(self):
        if self.train_limit < 1:
            raise ConfigError("train_limit must be at least 1")


def parse_corpus(exp: ParseExperiment):
    """Deterministic (train, dev, test) split of the synthetic treebank."""
    bank = gen_treebank(TreebankGenConfig(
        n_sentences=exp.n_sentences, tagset_size=exp.tagset_size,
        seed=derive_seed(exp.master_seed, _TREEBANK_KEY)))
    train, dev, test = split_dataset(bank)
    return train[:exp.train_limit], dev, test


def _strip_gold(sentences):
    return [TaggedSentence(s.tags) for s in sentences]


def parse_training_data(sentences, supervision: str,
                        labeled_count: int | None = None) -> list:
    """Training inputs for one supervision mode.

    "unsup" strips every gold tree; "sup" keeps the first
    ``labeled_count`` sentences (all when None), each with its gold tree;
    "semi" keeps the gold trees of the first ``labeled_count`` sentences
    and strips the rest.
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
    if supervision == "semi":
        return labeled + _strip_gold(sentences[labeled_count:])
    return labeled


def train_parser(exp: ParseExperiment, data, supervision: str, seed: int,
                 kind: str = "lr", smoothing: float = 0.0, history=None,
                 timings=None):
    """Mixture-train a parser on prepared inputs (see
    ``parse_training_data``) with the settings of ``exp``; returns
    (task, policy)."""
    task = ParseTask(ParseTaskConfig(tagset_size=exp.tagset_size,
                                     supervision=supervision))
    learner = LearnerConfig(kind=kind, smoothing=smoothing,
                            l2_variance={"parse": exp.tree_variance,
                                         "tag": exp.tag_variance})
    policy = searn_learn(
        task, data, learner, beta=exp.beta,
        cfg=RolloutConfig(seed=seed, n_samples=exp.n_samples),
        stopping=StoppingRule(max_iterations=exp.iterations, patience=None),
        history=history, timings=timings)
    return task, policy


def decode_trees(task: ParseTask, policy, sentences, seed: int, *key: int,
                 runner=None) -> list:
    """Predicted trees; gold stays attached only where the task requires a
    gold tree to build states (the stripped policy never consults it)."""
    if task.config.supervision != "sup":
        sentences = _strip_gold(sentences)
    return [state.tree for state in decode(task, policy, sentences, seed,
                                           *key, runner=runner)]


def run_parse(exp: ParseExperiment, supervision: str,
              labeled_count: int | None = None,
              corpus=None) -> float:
    """Train one parsing arm and return held-out arc accuracy.

    ``supervision`` and ``labeled_count`` select the training inputs as in
    ``parse_training_data``.
    """
    train, _, test = corpus or parse_corpus(exp)
    data = parse_training_data(train, supervision, labeled_count)
    task, policy = train_parser(exp, data, supervision,
                                derive_seed(exp.master_seed,
                                            _PARSE_TRAIN_KEY))
    preds = decode_trees(task, policy, test,
                         derive_seed(exp.master_seed, _PARSE_DECODE_KEY),
                         _PARSE_ITEM_KEY)
    return corpus_arc_accuracy(preds, [s.gold_tree for s in test])


def random_parse_baseline(exp: ParseExperiment, corpus=None) -> float:
    """Arc accuracy of the untrained policy (random legal actions)."""
    _, _, test = corpus or parse_corpus(exp)
    task = ParseTask(ParseTaskConfig(tagset_size=exp.tagset_size,
                                     supervision="unsup"))
    preds = decode_trees(task, initial_policy(), test,
                         derive_seed(exp.master_seed, _PARSE_BASELINE_KEY),
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
                   master_seeds=(0, 1, 2)) -> list:
    """Unsup / semi / sup arms across annotation budgets.

    For each count c the semi arm trains with c gold trees (rest
    unlabeled) and the sup arm trains on the c gold trees alone; the
    unsup arm ignores the budget.  Values aggregate over master seeds.
    """
    counts = sorted(set(int(c) for c in labeled_counts))
    if not counts:
        raise ConfigError("labeled_counts must be non-empty")
    exps = [replace(exp, master_seed=m) for m in master_seeds]
    corpora = {e.master_seed: parse_corpus(e) for e in exps}
    for c in counts:
        for e in exps:
            if c > len(corpora[e.master_seed][0]):
                raise ConfigError("labeled_count exceeds the training set")

    def point(arm, count, values):
        s = summarize(values, metric="arc_accuracy")
        return CurvePoint(arm=arm, labeled_count=count, mean=s.mean,
                          two_sigma=2.0 * s.std, values=s.values)

    rows = [point("unsup", 0,
                  [run_parse(e, "unsup", corpus=corpora[e.master_seed])
                   for e in exps])]
    for c in counts:
        rows.append(point("semi", c,
                          [run_parse(e, "semi", labeled_count=c,
                                     corpus=corpora[e.master_seed])
                           for e in exps]))
        rows.append(point("sup", c,
                          [run_parse(e, "sup", labeled_count=c,
                                     corpus=corpora[e.master_seed])
                           for e in exps]))
    return rows


# ---------------------------------------------------------------------------
# Mixture-trainer equivalence sweep (cluster task)


def equivalence_sweep(n_corpora: int = 20, n_documents: int = 10,
                      vocab_size: int = 5, cluster_counts=(2, 3),
                      iterations: int = 10, master_seed: int = 0,
                      tolerance: float = 1e-8) -> list:
    """Exact-mode mixture training vs. EM on random document corpora.

    Returns one ``EquivalenceReport`` per corpus; cluster counts cycle
    through ``cluster_counts``.
    """
    if n_corpora < 1:
        raise ConfigError("n_corpora must be at least 1")
    reports = []
    for c in range(n_corpora):
        K = cluster_counts[c % len(cluster_counts)]
        corpus = gen_document_corpus(DocGenConfig(
            n_documents=n_documents, vocab_size=vocab_size, n_clusters=K,
            seed=derive_seed(master_seed, _EQUIV_DATA_KEY, c)))
        docs = [doc for doc, _ in corpus]
        reports.append(run_equivalence(
            docs, K, iterations,
            shared_init=derive_seed(master_seed, _EQUIV_INIT_KEY, c),
            tolerance=tolerance))
    return reports
