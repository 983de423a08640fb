"""Predict-self document clustering over multinomial word counts.

Each document induces two decisions: pick a cluster id, then re-emit the
document as a distribution over the vocabulary.  The loss is the log loss
of the true counts under the emitted distribution, so cluster ids matter
only through the emission table attached to them.

In exact mode the expected rollout losses have a closed form, and the
learning loop configured with a naive Bayes learner, softmin weights,
zero smoothing, and beta = 1 walks the same parameter trajectory as EM on
a mixture of multinomials; :func:`run_equivalence` checks this end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classifiers import NBModel
from .core import (
    CostSensitiveExample,
    GeneratedExamples,
    GroupSpec,
    LearnedRule,
    LearnerConfig,
    Policy,
    RolloutConfig,
    Task,
    InitialRule,
    interpolate_policy,
    register_model_type,
    train_rule,
)
from .em import (
    MultinomialMixtureParams,
    mm_em_train,
    mm_log_likelihood,
    mm_random_init,
)
from .errors import ConfigError, DataError, TrainingError
from .features import FeatureVector, Interner

CLUSTER, DOC = "cluster", "doc"

# sentinel action id for the degenerate emit-the-document decision
EMIT_DOC = "emit"


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

    def empirical(self) -> np.ndarray:
        return self.counts / self.total


@dataclass
class ClusterTaskConfig:
    """K clusters over V words.

    K = 1 leaves no cluster choice to learn; it is accepted only in exact
    mode, where the equivalence check uses it as a boundary case.
    """

    K: int
    V: int
    exact_mode: bool = False

    def __post_init__(self):
        if self.V < 2 or self.K < (1 if self.exact_mode else 2):
            raise ConfigError("need K >= 2 (K >= 1 in exact mode) and V >= 2")


class ClusterState:
    __slots__ = ("task", "doc", "cluster", "emitted")

    def __init__(self, task, doc, cluster=None, emitted=None):
        self.task = task
        self.doc = doc
        self.cluster = cluster
        self.emitted = emitted


@dataclass
class ClusterEmissionModel:
    """Per-cluster word distributions used by the emit-document decision."""

    theta: np.ndarray

    def distribution_for(self, cluster: int) -> np.ndarray:
        return self.theta[cluster]

    def to_dict(self) -> dict:
        return {"type": "cluster_emission", "theta": self.theta.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ClusterEmissionModel":
        return cls(theta=np.asarray(d["theta"], dtype=float))


register_model_type("cluster_emission", ClusterEmissionModel)


def cluster_loss(true_doc: DocumentCounts, probs) -> float:
    """Log loss of the document under an emitted word distribution.

    Infinite when a present word has zero predicted probability.  The
    cluster choice does not appear: ids matter only through the table.
    """
    probs = np.asarray(probs, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ConfigError("emitted probabilities must sum to 1")
    counts = true_doc.counts
    present = counts > 0
    with np.errstate(divide="ignore"):
        logs = np.log(probs[present])
    return float(-(counts[present] * logs).sum())


class ClusterTask(Task):
    def __init__(self, config: ClusterTaskConfig):
        self.config = config
        self.interner = Interner()
        # word features first so feature id v is exactly word v; the NB
        # table over these columns is then directly comparable to a
        # mixture-of-multinomials theta
        for v in range(config.V):
            self.interner.intern(f"w={v}")
        for k in range(config.K):
            self.interner.intern(f"cluster={k}")
        self.interner.intern("total")

    def groups(self):
        return {
            CLUSTER: GroupSpec(CLUSTER, self.config.K),
            DOC: GroupSpec(DOC, 1, kind="estimate"),
        }

    def initial_state(self, example):
        if not isinstance(example, DocumentCounts):
            example = DocumentCounts(np.asarray(example, dtype=float))
        if example.counts.shape[0] != self.config.V:
            raise DataError("document width does not match the vocabulary")
        return ClusterState(self, example)

    def max_decisions(self, example):
        return 2

    def is_final(self, state):
        return state.emitted is not None

    def group_of(self, state):
        return CLUSTER if state.cluster is None else DOC

    def legal_actions(self, state):
        if state.cluster is None:
            return tuple(range(self.config.K))
        return (EMIT_DOC,)

    def features(self, state):
        if state.cluster is None:
            pairs = [(f"w={v}", c) for v, c in enumerate(state.doc.counts)
                     if c > 0]
            return FeatureVector.from_pairs(self.interner, pairs)
        return FeatureVector.from_pairs(
            self.interner,
            [(f"cluster={state.cluster}", 1.0), ("total", state.doc.total)])

    def initial_action(self, state, rng):
        if state.cluster is None:
            return int(rng.integers(self.config.K))
        return state.doc.empirical()

    def model_action(self, model, state):
        if state.cluster is not None:
            return model.distribution_for(state.cluster)
        return super().model_action(model, state)

    def apply(self, state, action):
        if state.cluster is None:
            return ClusterState(self, state.doc, int(action))
        return ClusterState(self, state.doc, state.cluster,
                            np.asarray(action, dtype=float))

    def rollout_loss(self, state, example):
        return cluster_loss(state.doc, state.emitted)

    def weight_mode(self, group):
        return "softmin"

    def estimation_record(self, state, example):
        return (state.cluster, state.doc, 1.0)

    def train_estimator(self, group, records, learner: LearnerConfig):
        """Weighted maximum-likelihood emission table from (k, doc, w)."""
        K, V = self.config.K, self.config.V
        acc = np.zeros((K, V))
        for cluster, doc, weight in records:
            acc[cluster] += weight * doc.counts
        acc += learner.smoothing
        row_sums = acc.sum(axis=1, keepdims=True)
        if np.any(row_sums == 0.0):
            raise TrainingError(
                "a cluster received zero emission mass (unsmoothed mode)")
        return ClusterEmissionModel(acc / row_sums)

    # ----- closed-form expected costs -------------------------------------

    def exact_examples(self, dataset, policy: Policy,
                       cfg: RolloutConfig) -> GeneratedExamples:
        """Expected-loss cost vectors and posterior-weighted records.

        For each mixture component, the expected completion loss of
        choosing cluster k is the negative log joint -log rho_k - sum_v
        d_v log theta_kv under that component's own tables (the initial
        rule contributes a k-independent empirical-reconstruction loss
        with a uniform prior).  Costs average over components by mixture
        weight; record weights are the mixture-posterior responsibilities.
        """
        if not self.config.exact_mode:
            raise ConfigError("task was not configured for exact mode")
        docs = [self.initial_state(d).doc for d in dataset]
        K = self.config.K
        out = []
        records = []
        for doc in docs:
            mix_costs = np.zeros(K)
            z = np.zeros(K)
            for rule, weight in policy.components:
                comp_costs = self._component_costs(rule, doc)
                mix_costs += weight * comp_costs
                shifted = comp_costs - comp_costs.min()
                post = np.exp(-shifted)
                z += weight * post / post.sum()
            regrets = mix_costs - mix_costs.min()
            if K >= 2 and np.any(np.round(regrets, 12) != 0.0):
                out.append(CostSensitiveExample(
                    features=self.features(ClusterState(self, doc)),
                    actions=tuple(range(K)),
                    costs=regrets,
                    group=CLUSTER,
                ))
            for k in range(K):
                records.append((k, doc, float(z[k])))
        return GeneratedExamples(out, {DOC: records})

    def _component_costs(self, rule, doc: DocumentCounts) -> np.ndarray:
        K = self.config.K
        if isinstance(rule, InitialRule):
            base = cluster_loss(doc, doc.empirical()) + np.log(K)
            return np.full(K, base)
        cluster_model = rule.models.get(CLUSTER)
        doc_model = rule.models.get(DOC)
        if doc_model is None:
            raise TrainingError("exact mode requires an emission table")
        # 0 * log 0 = 0: zero-probability words only matter when present
        theta = doc_model.theta
        log_theta = np.zeros_like(theta)
        np.log(theta, out=log_theta, where=theta > 0.0)
        doc_term = -(log_theta @ doc.counts)
        blocked = (theta <= 0.0).astype(float) @ (doc.counts > 0.0).astype(float)
        doc_term[blocked > 0.0] = np.inf
        if np.all(np.isinf(doc_term)):
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

    iterations: int
    rho_diffs: list = field(default_factory=list)
    theta_diffs: list = field(default_factory=list)
    emission_table_diffs: list = field(default_factory=list)
    log_likelihoods: list = field(default_factory=list)
    tolerance: float = 1e-8

    @property
    def max_diff(self) -> float:
        gaps = self.rho_diffs + self.theta_diffs + self.emission_table_diffs
        return max(gaps) if gaps else 0.0

    @property
    def passed(self) -> bool:
        return self.max_diff < self.tolerance


def run_equivalence(dataset, K: int, iterations: int, shared_init,
                    em_init: MultinomialMixtureParams | None = None,
                    tolerance: float = 1e-8) -> EquivalenceReport:
    """Walk EM and the exact-mode learning loop from one initialization.

    ``shared_init`` is either a seed (int) or explicit mixture parameters;
    both trainers start from the identical (rho, theta).  Passing a
    different ``em_init`` is rejected: the comparison is only meaningful
    from a shared starting point.  The report lists, per iteration, the
    max absolute gap between the NB classifier's tables and EM's (rho,
    theta), and between the learned emission table and EM's theta.
    """
    docs = np.asarray([DocumentCounts(np.asarray(d, dtype=float)).counts
                       for d in dataset])
    V = docs.shape[1]
    if isinstance(shared_init, MultinomialMixtureParams):
        params0 = shared_init
    else:
        params0 = mm_random_init(K, V, shared_init)
    if em_init is not None:
        same = (np.array_equal(em_init.rho, params0.rho)
                and np.array_equal(em_init.theta, params0.theta))
        if not same:
            raise ConfigError("both trainers must share one initialization")
    if params0.n_clusters != K or params0.vocab_size != V:
        raise ConfigError("initialization shape does not match K, V")

    task = ClusterTask(ClusterTaskConfig(K=K, V=V, exact_mode=True))
    learner = LearnerConfig(kind="nb", smoothing=0.0)
    cfg = RolloutConfig(mode="exact", seed=0)

    report = EquivalenceReport(iterations=iterations, tolerance=tolerance)
    _, em_trajectory = mm_em_train(docs, params0, iterations)
    pol = task.policy_from_params(params0)
    for em_params in em_trajectory:
        generated = task.exact_examples(dataset, pol, cfg)
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
        report.log_likelihoods.append(mm_log_likelihood(em_params, docs))
    return report


# ---------------------------------------------------------------------------
# Corpus files


def write_documents(path, docs, vocab_size: int, header_comment: str = ""):
    """One document per line as `word:count` pairs; `V=<int>` header."""
    with open(path, "w") as f:
        if header_comment:
            for line in header_comment.splitlines():
                f.write(f"# {line}\n")
        f.write(f"V={vocab_size}\n")
        for doc in docs:
            counts = np.asarray(doc, dtype=float)
            pairs = [f"{v}:{int(c)}" for v, c in enumerate(counts) if c > 0]
            f.write(" ".join(pairs) + "\n")


def read_documents(path):
    """Returns (count matrix, vocab_size)."""
    rows = []
    vocab_size = None
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("V="):
                try:
                    header = int(line[2:])
                except ValueError:
                    header = 0
                if header < 1 or vocab_size not in (None, header):
                    raise DataError(f"{path}:{lineno}: malformed V= header")
                vocab_size = header
                continue
            if vocab_size is None:
                raise DataError(f"{path}:{lineno}: document before V= header")
            counts = np.zeros(vocab_size)
            for token in line.split():
                try:
                    word, count = token.split(":")
                    word, count = int(word), int(count)
                    if not 0 <= word < vocab_size:
                        raise DataError(f"{path}:{lineno}: word id {word} "
                                        f"outside V={vocab_size}")
                    counts[word] += count
                except (ValueError, OverflowError):
                    raise DataError(f"{path}:{lineno}: malformed pair "
                                    f"{token!r}")
            rows.append(counts)
    if vocab_size is None:
        raise DataError(f"{path}: missing V= header")
    return np.asarray(rows), vocab_size
