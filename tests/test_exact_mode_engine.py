"""The corpus-level exact-mode iteration against the per-document paths it
replaced.

The reference below is the package before one exact-mode iteration became
array operations over the whole corpus: closed-form costs computed one
document at a time, one (cluster, document, weight) estimation record per
cluster and document summed in a loop, naive Bayes counts accumulated one
example and one feature at a time, cost vectors converted one example at a
time, and the classification loss scored one example at a time by the
one-vector scorer, one column add per feature.  Both sides must agree bit
for bit.
"""

import numpy as np
import pytest

from searn.classifiers import (
    LabeledExample,
    LRModel,
    LROptimizerConfig,
    NBModel,
    costs_to_weighted_labels,
    lr_train,
    nb_train,
)
from searn.core import (
    CostSensitiveExample,
    LearnedRule,
    LearnerConfig,
    Policy,
    RolloutConfig,
    _classification_loss,
    interpolate_policy,
    searn_learn,
    train_rule,
)
from searn.em import mm_random_init
from searn.errors import ConfigError, DataError, TrainingError
from searn.features import FeatureVector, Interner
from searn.task_cluster import (
    CLUSTER,
    DOC,
    ClusterEmissionModel,
    ClusterState,
    ClusterTask,
    ClusterTaskConfig,
    DocumentCounts,
)

# ---------------------------------------------------------------------------
# The reference: per-document paths


def oracle_component_costs(task, rule, doc):
    K = task.config.K
    cluster_model = rule.models.get(CLUSTER)
    theta = rule.models[DOC].theta
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


def oracle_exact_examples(task, dataset, policy):
    """Cost examples and (cluster, document, weight) records."""
    docs = [task.initial_state(d).doc for d in dataset]
    K = task.config.K
    out, records = [], []
    for doc in docs:
        mix_costs = np.zeros(K)
        z = np.zeros(K)
        for rule, weight in policy.components:
            comp_costs = oracle_component_costs(task, rule, doc)
            mix_costs += weight * comp_costs
            shifted = comp_costs - comp_costs.min()
            post = np.exp(-shifted)
            z += weight * post / post.sum()
        regrets = mix_costs - mix_costs.min()
        if K >= 2 and np.any(np.round(regrets, 12) != 0.0):
            out.append(CostSensitiveExample(
                features=task.features(ClusterState(doc, None)),
                actions=tuple(range(K)), costs=regrets, group=CLUSTER))
        for k in range(K):
            records.append((k, doc, float(z[k])))
    return out, records


def oracle_train_estimator(task, records):
    acc = np.zeros((task.config.K, task.config.V))
    for cluster, doc, weight in records:
        acc[cluster] += weight * doc.counts
    row_sums = acc.sum(axis=1, keepdims=True)
    if np.any(row_sums == 0.0):
        raise TrainingError("zero emission mass")
    return ClusterEmissionModel(acc / row_sums)


def oracle_weighted_labels(example, mode):
    costs = np.asarray(example.costs, dtype=float)
    actions = list(example.actions)
    if mode == "argmin_spread":
        best = int(np.argmin(costs))
        spread = float(np.max(costs) - np.min(costs))
        return [LabeledExample(example.features, actions[best], spread)]
    w = np.exp(-(costs - costs.min()))
    w /= w.sum()
    return [LabeledExample(example.features, a, float(wk))
            for a, wk in zip(actions, w)]


def oracle_nb_train(examples, n_classes, n_features, smoothing):
    class_weight = np.zeros(n_classes)
    counts = np.zeros((n_classes, n_features))
    for ex in examples:
        class_weight[ex.label] += ex.weight
        for fid, v in zip(ex.features.ids, ex.features.values):
            counts[ex.label, fid] += ex.weight * v
    if smoothing == 0.0 and np.any(class_weight == 0.0):
        raise TrainingError("empty class")
    prior = class_weight + smoothing
    prior /= prior.sum()
    table = counts + smoothing
    row_sums = table.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.where(row_sums > 0, table / row_sums,
                         1.0 / max(n_features, 1))
        return NBModel(np.log(prior), np.log(table), smoothing)


def oracle_train_rule(task, cost_examples, records):
    models = {}
    if records:
        models[DOC] = oracle_train_estimator(task, records)
    if cost_examples:
        labeled = []
        for ex in cost_examples:
            labeled.extend(oracle_weighted_labels(ex, "softmin"))
        models[CLUSTER] = oracle_nb_train(labeled, task.config.K,
                                          len(task.interner), 0.0)
    return LearnedRule(models)


def oracle_linear_costs(bias, table, fv):
    """max(s) - s for s = bias + table @ fv, one column add per feature in
    the vector's id order; ids past the table's columns are skipped."""
    scores = bias.copy()
    n_feat = table.shape[1]
    for fid, v in zip(fv.ids, fv.values):
        if fid < n_feat:
            scores += v * table[:, fid]
    return scores.max() - scores


def oracle_predict_costs(model, fv):
    if isinstance(model, NBModel):
        return oracle_linear_costs(model.class_log_prior,
                                   model.feature_log_prob, fv)
    return oracle_linear_costs(np.zeros(model.n_classes), model.weights, fv)


def oracle_classification_loss(rule, cost_examples):
    regrets = []
    for ex in cost_examples:
        model = rule.models.get(ex.group)
        if model is not None:
            costs_pred = oracle_predict_costs(model, ex.features)
            predicted = min(ex.actions, key=lambda a: (costs_pred[a], a))
            regrets.append(float(ex.costs[ex.actions.index(predicted)]
                                 - ex.costs.min()))
    return sum(regrets) / len(regrets) if regrets else 0.0


# ---------------------------------------------------------------------------
# Comparison helpers


def assert_same_cost_examples(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.features == b.features
        assert a.actions == b.actions
        assert a.costs.tobytes() == b.costs.tobytes()
        assert a.group == b.group


def assert_same_rule(new, old):
    assert set(new.models) == set(old.models)
    if DOC in old.models:
        assert new.models[DOC].theta.tobytes() \
            == old.models[DOC].theta.tobytes()
    if CLUSTER in old.models:
        a, b = new.models[CLUSTER], old.models[CLUSTER]
        assert a.class_log_prior.tobytes() == b.class_log_prior.tobytes()
        assert a.feature_log_prob.tobytes() == b.feature_log_prob.tobytes()


def corpus(n, V, seed, min_words=8, block=False):
    """Documents with at least ``min_words`` distinct words each; with
    ``block``, word V-1 appears in every third document only."""
    rng = np.random.default_rng(seed)
    docs = np.zeros((n, V))
    for i in range(n):
        words = rng.choice(V - 1 if block else V,
                           size=min(min_words, V - 1 if block else V),
                           replace=False)
        docs[i, words] = rng.integers(1, 6, size=words.size)
        extra = rng.integers(0, 3, size=V)
        docs[i] += extra * (rng.random(V) < 0.3)
        if block:
            docs[i, V - 1] = float(i % 3 == 0) * rng.integers(1, 4)
    return docs


def blocking_params(K, V, seed):
    """Random (rho, theta) where cluster 0 gives word V-1 no mass."""
    params = mm_random_init(K, V, seed)
    params.theta[0, V - 1] = 0.0
    params.theta[0] /= params.theta[0].sum()
    return params


def learn_both(task, dataset, pol, iterations):
    """Run exact-mode iterations (beta 1, no smoothing) on both sides from
    one start; compare examples, rules and classification losses at every
    iteration."""
    learner = LearnerConfig(kind="nb", smoothing=0.0)
    new_pol = old_pol = pol
    for _ in range(iterations):
        generated = task.exact_examples(dataset, new_pol)
        old_examples, old_records = oracle_exact_examples(task, dataset,
                                                          old_pol)
        assert_same_cost_examples(generated.cost_examples, old_examples)
        new_rule = train_rule(task, generated, learner)
        old_rule = oracle_train_rule(task, old_examples, old_records)
        assert_same_rule(new_rule, old_rule)
        new_loss = _classification_loss(new_rule, generated)
        old_loss = oracle_classification_loss(old_rule, old_examples)
        assert np.float64(new_loss).tobytes() == np.float64(old_loss).tobytes()
        new_pol = interpolate_policy(new_pol, new_rule, 1.0)
        old_pol = interpolate_policy(old_pol, old_rule, 1.0)
    return new_pol


# ---------------------------------------------------------------------------
# One exact iteration, end to end


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("V", [9, 14])
def test_exact_iterations_match_reference(K, V):
    task = ClusterTask(ClusterTaskConfig(K=K, V=V))
    docs = corpus(30, V, seed=K * 100 + V)
    pol = task.policy_from_params(mm_random_init(K, V, K + V))
    learn_both(task, list(docs), pol, iterations=4)


def test_zero_probability_words_block_a_cluster():
    K, V = 3, 10
    task = ClusterTask(ClusterTaskConfig(K=K, V=V))
    docs = corpus(24, V, seed=5, block=True)
    pol = task.policy_from_params(blocking_params(K, V, 6))
    generated = task.exact_examples(list(docs), pol)
    blocked = [ex for ex in generated.cost_examples if np.isinf(ex.costs[0])]
    assert blocked, "some document must be blocked from cluster 0"
    learn_both(task, list(docs), pol, iterations=3)


def test_mixture_policy_is_config_error():
    # the closed form is one rule's: the learning loop at beta 1 leaves
    # one rule, and a mixture (beta below 1) has no exact iteration
    K, V = 2, 12
    task = ClusterTask(ClusterTaskConfig(K=K, V=V))
    docs = list(corpus(25, V, seed=7))
    pol = task.policy_from_params(mm_random_init(K, V, 8))
    two = interpolate_policy(pol, task.policy_from_params(
        mm_random_init(K, V, 9)).components[0][0], 0.5)
    with pytest.raises(ConfigError, match="2-component mixture"):
        task.exact_examples(docs, two)
    with pytest.raises(ConfigError, match="2-component mixture"):
        searn_learn(task, docs, LearnerConfig(kind="nb", smoothing=0.0),
                    beta=0.5, cfg=RolloutConfig(seed=0), iterations=2,
                    start=pol)


def test_documents_as_arrays_and_document_counts():
    K, V = 2, 9
    task = ClusterTask(ClusterTaskConfig(K=K, V=V))
    docs = corpus(12, V, seed=12)
    pol = task.policy_from_params(mm_random_init(K, V, 13))
    as_counts = [DocumentCounts(d) for d in docs]
    mixed = [d if i % 2 else DocumentCounts(d) for i, d in enumerate(docs)]
    reference = task.exact_examples(list(docs), pol)
    for dataset in (docs, as_counts, mixed, [d.tolist() for d in docs]):
        generated = task.exact_examples(dataset, pol)
        assert_same_cost_examples(generated.cost_examples,
                                  reference.cost_examples)
        z, counts = generated.estimation_records[DOC]
        z_ref, counts_ref = reference.estimation_records[DOC]
        assert z.tobytes() == z_ref.tobytes()
        assert counts.tobytes() == counts_ref.tobytes()
    learn_both(task, as_counts, pol, iterations=2)


def test_first_bad_document_raises_its_own_error():
    K, V = 2, 4
    task = ClusterTask(ClusterTaskConfig(K=K, V=V))
    pol = task.policy_from_params(mm_random_init(K, V, 14))
    good = [1.0, 0.0, 2.0, 0.0]
    cases = [
        ([good, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]], "width"),
        ([good, [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], "at least one word"),
        ([good, [1.0, -1.0, 2.0, 0.0], [1.0]], "nonnegative"),
        ([good, [[1.0, 2.0]]], "nonnegative"),
        ([], "empty"),
    ]
    for dataset, message in cases:
        with pytest.raises(DataError, match=message):
            task.exact_examples(dataset, pol)
        if dataset:
            with pytest.raises(DataError, match=message):
                oracle_exact_examples(task, dataset, pol)


def test_document_blocked_everywhere_is_data_error():
    K, V = 2, 4
    task = ClusterTask(ClusterTaskConfig(K=K, V=V))
    params = mm_random_init(K, V, 15)
    params.theta[:, 3] = 0.0
    params.theta /= params.theta.sum(axis=1, keepdims=True)
    pol = task.policy_from_params(params)
    with pytest.raises(DataError, match="every cluster"):
        task.exact_examples([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 2.0]],
                            pol)


def test_missing_emission_table_is_training_error():
    task = ClusterTask(ClusterTaskConfig(K=2, V=4))
    pol = Policy(((LearnedRule({}), 1.0),))
    with pytest.raises(TrainingError, match="emission table"):
        task.exact_examples([[1.0, 0.0, 2.0, 0.0]], pol)


# ---------------------------------------------------------------------------
# The learner side


def random_cost_examples(rng, interner, n, lengths):
    out = []
    for _ in range(n):
        L = int(rng.choice(lengths))
        costs = rng.exponential(size=L) * 10.0 ** rng.integers(-3, 3)
        costs[rng.integers(L)] = 0.0
        if rng.random() < 0.1:
            costs[rng.integers(L)] = np.inf
        actions = tuple(sorted(rng.choice(20, size=L, replace=False).tolist()))
        pairs = [(f"f{j}", float(rng.integers(1, 4)))
                 for j in rng.choice(30, size=int(rng.integers(1, 12)),
                                     replace=False)]
        out.append(CostSensitiveExample(
            FeatureVector.from_pairs(interner, pairs), actions, costs, "g"))
    return out


@pytest.mark.parametrize("mode", ["softmin", "argmin_spread"])
def test_batched_conversion_matches_per_example(mode):
    # lengths on both sides of 8, where numpy's summation changes grouping
    rng = np.random.default_rng(18)
    examples = random_cost_examples(rng, Interner(), 300,
                                    [2, 3, 5, 7, 8, 9, 12, 17])
    with np.errstate(invalid="ignore"):
        new = costs_to_weighted_labels(examples, mode)
        old = [lab for ex in examples
               for lab in oracle_weighted_labels(ex, mode)]
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.features is b.features and a.label == b.label
        assert np.float64(a.weight).tobytes() == np.float64(b.weight).tobytes()


def test_batched_conversion_rejects_bad_examples():
    it = Interner()
    fv = FeatureVector.from_pairs(it, [("a", 1.0)])
    ok = CostSensitiveExample(fv, (0, 1), np.array([0.0, 1.0]), "g")
    flat = CostSensitiveExample(fv, (0, 1), np.array([2.0, 2.0]), "g")
    short = CostSensitiveExample(fv, (0, 1, 2), np.array([0.0, 1.0]), "g")
    for mode in ("softmin", "argmin_spread"):
        for bad, error in ((flat, TrainingError), (short, ConfigError)):
            for examples in ([ok, bad], [bad, ok]):
                with pytest.raises(error):
                    costs_to_weighted_labels(examples, mode)
    for examples in ([ok], []):
        with pytest.raises(ConfigError, match="mode"):
            costs_to_weighted_labels(examples, "argmax")


def test_nb_counts_match_per_example_loop():
    rng = np.random.default_rng(19)
    for trial in range(60):
        K, F = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        examples = []
        for _ in range(int(rng.integers(1, 80))):
            ids = sorted(rng.choice(F, size=int(rng.integers(0, min(F, 12)
                                                              + 1)),
                                    replace=False).tolist())
            values = (rng.exponential(size=len(ids))
                      * 10.0 ** rng.integers(-2, 3)).tolist()
            weight = float(rng.exponential()) if trial % 5 else 1.0
            examples.append(LabeledExample(FeatureVector(ids, values),
                                           int(rng.integers(K)), weight))
        for smoothing in (0.0, 0.5):
            try:
                old = oracle_nb_train(examples, K, F, smoothing)
            except TrainingError:
                with pytest.raises(TrainingError):
                    nb_train(examples, K, F, smoothing)
                continue
            new = nb_train(examples, K, F, smoothing)
            assert new.class_log_prior.tobytes() \
                == old.class_log_prior.tobytes()
            assert new.feature_log_prob.tobytes() \
                == old.feature_log_prob.tobytes()


def random_vectors(rng, F, n, unseen=3):
    """Vectors over ids [0, F + unseen), in random (not sorted) order;
    about one in five is empty."""
    fvs = []
    for _ in range(n):
        size = int(rng.integers(0, F + unseen + 1)) if rng.random() < 0.8 \
            else 0
        ids = rng.choice(F + unseen, size=size, replace=False).tolist()
        fvs.append(FeatureVector(ids, (rng.integers(1, 4, size=size)
                                       * rng.random(size)).tolist()))
    return fvs


def assert_scores_match_loop(model, fvs):
    """predict_costs of each vector and each row of predict_costs_rows
    have the one-vector loop's bits."""
    with np.errstate(all="ignore"):
        want = [oracle_predict_costs(model, fv).tobytes() for fv in fvs]
        assert [model.predict_costs(fv).tobytes() for fv in fvs] == want
        assert [row.tobytes() for row in model.predict_costs_rows(fvs)] \
            == want


def test_seeded_scorer_matches_one_vector_loop():
    # the compiled scorer against the one-vector loop: -inf entries, all
    # -inf biases, unseen ids, empty vectors, big scales
    rng = np.random.default_rng(20)
    for trial in range(400):
        K, F = int(rng.integers(1, 6)), int(rng.integers(1, 12))
        scale = 10.0 ** float(rng.integers(-3, 200))
        bias = rng.normal(size=K) * scale
        table = rng.normal(size=(K, F)) * scale
        table[rng.random(size=(K, F)) < 0.2] = -np.inf
        if trial % 9 == 0:
            bias[:] = -np.inf
        fvs = random_vectors(rng, F, int(rng.integers(1, 8)))
        assert_scores_match_loop(NBModel(bias, table, 0.0), fvs)
        assert_scores_match_loop(LRModel(table.copy(), 1.0, 0), fvs)


@pytest.mark.parametrize("seed", range(6))
def test_trained_models_match_one_vector_loop(seed):
    # models as the package builds them: trained, read back from a model
    # file, and the cluster classifier built from (rho, theta)
    rng = np.random.default_rng(seed)
    K, F = int(rng.integers(2, 5)), int(rng.integers(2, 15))
    examples = [LabeledExample(fv, int(rng.integers(K)), float(rng.random()))
                for fv in random_vectors(rng, F, 30, unseen=0)]
    fvs = random_vectors(rng, F, 40)
    models = []
    for smoothing in (0.0, 0.5):
        try:
            models.append(nb_train(examples, K, F, smoothing))
        except TrainingError:
            pass
    models.append(lr_train(examples, K, F, 2.0,
                           LROptimizerConfig(max_epochs=20)))
    task = ClusterTask(ClusterTaskConfig(K=K, V=F))
    models.append(task.nb_model_from_params(blocking_params(K, F, seed)))
    for model in models + [type(m).from_dict(m.to_dict()) for m in models]:
        assert_scores_match_loop(model, fvs)


def test_batched_matvec_matches_per_document_product():
    # np.matmul over a stack of column vectors keeps each row's bits;
    # D @ log_theta.T (one matrix-matrix product) is not required to
    rng = np.random.default_rng(21)
    for _ in range(300):
        K, V, n = (int(rng.integers(1, 7)), int(rng.integers(2, 60)),
                   int(rng.integers(1, 40)))
        log_theta = np.log(rng.dirichlet(np.ones(V), size=K))
        D = rng.integers(0, 9, size=(n, V)).astype(float)
        stacked = np.matmul(log_theta, D[:, :, None])[..., 0]
        for i in range(n):
            assert stacked[i].tobytes() == (log_theta @ D[i]).tobytes()


# ---------------------------------------------------------------------------
# Work per iteration does not grow with the corpus


@pytest.mark.parametrize("K", [2, 3])
def test_python_calls_do_not_grow_with_documents(monkeypatch, K):
    calls = {"from_pairs": 0, "predict_costs": 0}
    from_pairs = FeatureVector.from_pairs.__func__
    predict_costs = NBModel.predict_costs

    def counted_from_pairs(cls, *args):
        calls["from_pairs"] += 1
        return from_pairs(cls, *args)

    def counted_predict(self, fv):
        calls["predict_costs"] += 1
        return predict_costs(self, fv)

    monkeypatch.setattr(FeatureVector, "from_pairs",
                        classmethod(counted_from_pairs))
    monkeypatch.setattr(NBModel, "predict_costs", counted_predict)
    V = 10
    counts = []
    for n in (40, 400):
        task = ClusterTask(ClusterTaskConfig(K=K, V=V))
        docs = list(corpus(n, V, seed=n + K))
        start = task.policy_from_params(mm_random_init(K, V, 22))
        calls.update(from_pairs=0, predict_costs=0)
        _, log = searn_learn(task, docs,
                             LearnerConfig(kind="nb", smoothing=0.0),
                             beta=1.0, cfg=RolloutConfig(seed=0), iterations=1,
                             start=start)
        assert log[0]["n_cost_examples"] > n // 2
        counts.append(dict(calls))
    assert counts[0] == counts[1]
