"""Predict-self document clustering over multinomial word counts.

Each document induces one decision, a cluster id k; the document is then
re-emitted from row k of the emission table theta (the ``DOC`` group,
estimated in closed form, never a step).  Cluster k's loss is the
document's log loss under theta_k, so cluster ids matter only through
the emission table attached to them.

The task learns only by a closed form, with no rollouts: a cluster's cost
is the negative log joint, the document's log loss under theta_k minus
log rho_k.  The prior term makes the softmin of these costs EM's E-step,
so the learning loop configured with a naive Bayes learner, softmin
weights, zero smoothing, and beta = 1 walks the same parameter trajectory
as EM on a mixture of multinomials;
:func:`run_equivalence` checks this end to end.  Like EM's E- and
M-steps, one iteration is a few array operations over the whole corpus:
:meth:`ClusterTask.exact_examples` turns the n x V count matrix into an
n x K cost matrix and a (responsibilities, counts) record, and the
emission table is their weighted column sum.
Every number keeps the bits that the same computation gives one document
at a time.  The decision process itself (``initial_state`` through
``apply``) is what :func:`searn.core.run_policy` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .classifiers import NBModel
from .core import (
    CostSensitiveExample,
    GeneratedExamples,
    LearnedRule,
    LearnerConfig,
    Policy,
    Task,
    InitialRule,
    interpolate_policy,
    train_rule,
)
from .corpus_files import read_corpus, write_corpus
from .em import MultinomialMixtureParams, mm_em_train, mm_random_init
from .errors import ConfigError, DataError, TaskContractError, TrainingError
from .features import FeatureVector, Interner

CLUSTER, DOC = "cluster", "doc"


@dataclass
class DocumentCounts:
    """Word count vector of one document."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.ndim != 1 or np.any(self.counts < 0):
            raise DataError("counts must be a nonnegative vector")
        if self.total < 1:
            raise DataError("document must contain at least one word")

    @property
    def total(self) -> float:
        return float(self.counts.sum())


@dataclass
class ClusterTaskConfig:
    """K clusters over V words.

    K = 1 leaves no cluster choice to learn; the equivalence check uses it
    as a boundary case.
    """

    K: int
    V: int

    def __post_init__(self):
        if self.V < 2 or self.K < 1:
            raise ConfigError("need K >= 1 and V >= 2")


class ClusterState(NamedTuple):
    """A document and its cluster id, None until chosen."""

    doc: DocumentCounts
    cluster: int | None


@dataclass
class ClusterEmissionModel:
    """Per-cluster word distributions: the ``DOC`` group's emission table,
    estimated by ``ClusterTask.train_estimator``."""

    theta: np.ndarray


class ClusterTask(Task):
    weight_mode = "softmin"  # as EM's E-step weighs the clusters
    hidden_group = CLUSTER

    def __init__(self, config: ClusterTaskConfig):
        self.config = config
        self.interner = Interner()
        # word features first so feature id v is exactly word v; the NB
        # table over these columns is then directly comparable to a
        # mixture-of-multinomials theta
        for v in range(config.V):
            self.interner.intern(f"w={v}")
        # no feature reads these names, but the NB cluster table spans
        # every interned column, and their number sets how its row sums
        # are grouped: without them the model files change
        for k in range(config.K):
            self.interner.intern(f"cluster={k}")
        self.interner.intern("total")

    def groups(self):
        return {CLUSTER: self.config.K, DOC: 1}

    def initial_state(self, example):
        if not isinstance(example, DocumentCounts):
            example = DocumentCounts(np.asarray(example, dtype=float))
        if example.counts.shape[0] != self.config.V:
            raise DataError("document width does not match the vocabulary")
        return ClusterState(example, None)

    def max_decisions(self, example):
        return 1

    def is_final(self, state):
        return state.cluster is not None

    def legal_actions(self, state):
        return tuple(range(self.config.K))

    def features(self, state):
        pairs = [(f"w={v}", c) for v, c in enumerate(state.doc.counts)
                 if c > 0]
        return FeatureVector.from_pairs(self.interner, pairs)

    def initial_action(self, state, legal, rng):
        return int(rng.integers(self.config.K))

    def apply(self, state, action):
        return ClusterState(state.doc, int(action))

    def rollout_loss(self, final, emitted):
        raise TaskContractError("the cluster task rolls nothing out; "
                                "exact_examples gives its costs")

    def train_estimator(self, record):
        """Weighted maximum-likelihood emission table from the corpus
        record (Z, D): the n x K responsibilities and the n x V counts.

        Row k of the table sums Z[:, k] * D over the rows one after another
        (a reduction along axis 0 adds row by row), as a loop over the
        documents adding into a zeroed table does.
        """
        Z, D = record
        acc = np.array([np.add.reduce(Z[:, k, None] * D, axis=0)
                        for k in range(self.config.K)])
        row_sums = acc.sum(axis=1, keepdims=True)
        if np.any(row_sums == 0.0):
            raise TrainingError("a cluster received zero emission mass")
        return ClusterEmissionModel(acc / row_sums)

    # ----- closed-form costs ----------------------------------------------

    def exact_examples(self, dataset, policy: Policy):
        """Negative-log-joint cost vectors and the responsibility record of
        the whole corpus.

        The corpus is checked once into an n x V count matrix D.  The cost
        of cluster k for document i is -log rho_k - sum_v D_iv log theta_kv
        under the policy's tables: the document's log loss under theta_k
        minus log rho_k, a prior term that makes the softmin rows of this
        n x K matrix EM's E-step.  Those rows, the responsibilities Z, go
        out as the (Z, D) record.  The policy is one learned rule with an
        emission table, as the learning loop leaves it at beta = 1; the
        initial rule has no closed form here, and it and any mixture are a
        ConfigError.
        """
        rules = [rule for rule, _ in policy.components]
        if any(isinstance(rule, InitialRule) for rule in rules):
            raise ConfigError("exact mode starts from a learned policy "
                              "(policy_from_params), not the initial rule")
        if len(rules) != 1:
            raise ConfigError("exact mode takes a one-rule policy (beta 1), "
                              f"not a {len(rules)}-component mixture")
        if rules[0].models.get(DOC) is None:
            raise TrainingError("exact mode requires an emission table")
        D = self._count_matrix(dataset)
        K = self.config.K
        costs = self._costs(rules[0], D)
        regrets = costs - costs.min(axis=1, keepdims=True)
        post = np.exp(-regrets)
        z = post / post.sum(axis=1, keepdims=True)
        out = []
        if K >= 2:
            useful = np.any(np.round(regrets, 12) != 0.0, axis=1)
            # feature id v is word v (see __init__)
            kept = D[useful]
            rows, words = np.nonzero(kept > 0)
            values = kept[rows, words].tolist()
            bounds = np.searchsorted(rows, np.arange(len(kept) + 1)).tolist()
            words = words.tolist()
            actions = tuple(range(K))
            for j, i in enumerate(np.flatnonzero(useful).tolist()):
                lo, hi = bounds[j], bounds[j + 1]
                out.append(CostSensitiveExample(
                    features=FeatureVector(words[lo:hi], values[lo:hi]),
                    actions=actions,
                    costs=regrets[i],
                    group=CLUSTER,
                ))
        return GeneratedExamples(out, {DOC: (z, D)})

    def _count_matrix(self, dataset) -> np.ndarray:
        """The documents as rows of an n x V matrix.  A corpus that fails
        the checks here is checked again one document at a time, so that
        the first bad document raises its own ``initial_state`` error."""
        if len(dataset) == 0:
            raise DataError("dataset is empty")
        V = self.config.V
        rows = [d.counts if isinstance(d, DocumentCounts)
                else np.asarray(d, dtype=float) for d in dataset]
        if all(r.ndim == 1 and r.shape[0] == V for r in rows):
            D = np.array(rows)
            if not (np.any(D < 0) or np.any(D.sum(axis=1) < 1)):
                return D
        for d in dataset:
            self.initial_state(d)
        raise DataError("counts must be a nonnegative vector")

    def _costs(self, rule, D) -> np.ndarray:
        """The n x K cost matrix of a learned rule."""
        K = self.config.K
        cluster_model = rule.models.get(CLUSTER)
        # 0 * log 0 = 0: zero-probability words only matter when present
        theta = rule.models[DOC].theta
        log_theta = np.zeros_like(theta)
        np.log(theta, out=log_theta, where=theta > 0.0)
        # a stack of matrix-vector products: each row has the bits of
        # log_theta @ D[i] (a matrix-matrix product would not)
        doc_term = -np.matmul(log_theta, D[:, :, None])[..., 0]
        blocked = (D > 0.0).astype(float) @ (theta <= 0.0).astype(float).T
        doc_term[blocked > 0.0] = np.inf
        if np.any(np.all(np.isinf(doc_term), axis=1)):
            raise DataError("document has zero likelihood under every cluster")
        if cluster_model is None:
            return doc_term + np.log(K)
        return doc_term - cluster_model.class_log_prior

    def nb_model_from_params(self, params: MultinomialMixtureParams) -> NBModel:
        """An NB cluster classifier whose tables are exactly (rho, theta)."""
        if params.n_clusters != self.config.K \
                or params.vocab_size != self.config.V:
            raise ConfigError("parameter shapes do not match the task")
        n_features = len(self.interner)
        table = np.zeros((self.config.K, n_features))
        table[:, : self.config.V] = params.theta
        with np.errstate(divide="ignore"):
            return NBModel(class_log_prior=np.log(params.rho),
                           feature_log_prob=np.log(table),
                           smoothing=0.0)

    def policy_from_params(self, params: MultinomialMixtureParams) -> Policy:
        """A one-component policy acting exactly per (rho, theta)."""
        rule = LearnedRule({
            CLUSTER: self.nb_model_from_params(params),
            DOC: ClusterEmissionModel(params.theta.copy()),
        })
        return Policy(((rule, 1.0),))

    def params_from_rule(self, rule: LearnedRule) -> MultinomialMixtureParams:
        """Read (rho, theta) back out of a learned rule's NB tables."""
        model = rule.models.get(CLUSTER)
        if model is None:
            if self.config.K != 1:
                raise TrainingError("rule has no cluster classifier")
            rho = np.ones(1)
            theta = rule.models[DOC].theta
        else:
            rho = np.exp(model.class_log_prior)
            theta = np.exp(model.feature_log_prob[:, : self.config.V])
        return MultinomialMixtureParams(rho=rho, theta=theta)


# ---------------------------------------------------------------------------
# EM trajectory equivalence


@dataclass
class EquivalenceReport:
    """Per-iteration parameter gaps between the two trainers."""

    tolerance: float
    rho_diffs: list = field(default_factory=list, init=False)
    theta_diffs: list = field(default_factory=list, init=False)
    emission_table_diffs: list = field(default_factory=list, init=False)

    @property
    def max_diff(self) -> float:
        gaps = self.rho_diffs + self.theta_diffs + self.emission_table_diffs
        return max(gaps) if gaps else 0.0

    @property
    def passed(self) -> bool:
        """Every gap is below tolerance, and there is at least one."""
        return bool(self.rho_diffs) and self.max_diff < self.tolerance


def run_equivalence(dataset, K: int, iterations: int, seed: int,
                    tolerance: float) -> EquivalenceReport:
    """Walk EM and the closed-form learning loop from one initialization.

    Both trainers start from the identical (rho, theta), drawn by
    ``mm_random_init`` from ``seed``.  The report lists, per iteration,
    the max absolute gap between the NB classifier's tables and EM's
    (rho, theta), and between the learned emission table and EM's theta.
    """
    docs = np.asarray([DocumentCounts(np.asarray(d, dtype=float)).counts
                       for d in dataset])
    V = docs.shape[1]
    params0 = mm_random_init(K, V, seed)
    task = ClusterTask(ClusterTaskConfig(K=K, V=V))
    learner = LearnerConfig(kind="nb", smoothing=0.0)

    report = EquivalenceReport(tolerance)
    _, em_trajectory = mm_em_train(docs, params0, iterations)
    pol = task.policy_from_params(params0)
    for em_params in em_trajectory:
        generated = task.exact_examples(docs, pol)
        rule = train_rule(task, generated, learner)
        pol = interpolate_policy(pol, rule, 1.0)

        searn_params = task.params_from_rule(rule)
        report.rho_diffs.append(
            float(np.max(np.abs(searn_params.rho - em_params.rho))))
        report.theta_diffs.append(
            float(np.max(np.abs(searn_params.theta - em_params.theta))))
        emission = rule.models[DOC].theta
        report.emission_table_diffs.append(
            float(np.max(np.abs(emission - em_params.theta))))
    return report


# ---------------------------------------------------------------------------
# Corpus files


def write_documents(path, docs, vocab_size: int, header_comment: str):
    """One document per line as `word:count` pairs; `V=<int>` header."""
    rows = (enumerate(np.asarray(doc, dtype=float).tolist()) for doc in docs)
    lines = (" ".join(f"{v}:{int(c)}" for v, c in r if c > 0) for r in rows)
    write_corpus(path, lines, vocab_size, header_comment)


def _parse_document(line: str, where: str, vocab_size: int) -> np.ndarray:
    """The count row of one ``word:count`` line: every count nonnegative,
    and at least one word."""
    counts = np.zeros(vocab_size)
    total = 0
    for token in line.split():
        try:
            word, count = token.split(":")
            word, count = int(word), int(count)
            if not 0 <= word < vocab_size:
                raise DataError(f"{where}: word id {word} "
                                f"outside V={vocab_size}")
            if count < 0:
                raise DataError(f"{where}: negative count in {token!r}")
            counts[word] += count
        except (ValueError, OverflowError):
            raise DataError(f"{where}: malformed pair {token!r}")
        total += count
    if total == 0:
        raise DataError(f"{where}: document has no words")
    return counts


def read_documents(path):
    """Returns (count matrix, vocab_size)."""
    rows, vocab_size = read_corpus(path, "document", _parse_document)
    return np.asarray(rows), vocab_size
