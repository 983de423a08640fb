"""Cluster task tests: exact-mode costs, EM trajectory match, corpus IO."""

import numpy as np
import pytest

from searn.core import (
    LearnerConfig,
    Policy,
    RolloutConfig,
    generate_examples,
    initial_policy,
    policy_from_dict,
    policy_to_dict,
    run_policy,
    train_rule,
)
from searn.em import MultinomialMixtureParams, mm_e_step, mm_random_init
from searn.errors import ConfigError, DataError
from searn.task_cluster import (
    CLUSTER,
    DOC,
    ClusterTask,
    ClusterTaskConfig,
    DocumentCounts,
    cluster_loss,
    read_documents,
    run_equivalence,
    write_documents,
)


def random_corpus(n, V, seed):
    rng = np.random.default_rng(seed)
    docs = rng.integers(0, 8, size=(n, V)).astype(float)
    docs[docs.sum(axis=1) == 0, 0] = 1.0
    return docs


def make_task(K=2, V=5, exact=False):
    return ClusterTask(ClusterTaskConfig(K=K, V=V, exact_mode=exact))


class TestDecompose:
    def test_two_decisions(self):
        task = make_task(K=3)
        state = task.initial_state([1, 0, 2, 0, 0])
        assert task.legal_actions(state) == (0, 1, 2)
        state = task.apply(state, 2)
        assert len(task.legal_actions(state)) == 1
        state = task.apply(state, task.initial_action(state, None))
        assert task.is_final(state)

    def test_cluster_features_are_raw_counts(self):
        task = make_task(V=4)
        state = task.initial_state([3, 0, 1, 2])
        fv = task.features(state)
        assert fv.as_dict(task.interner) == {"w=0": 3.0, "w=2": 1.0,
                                             "w=3": 2.0}

    def test_doc_features_contain_no_word_identities(self):
        task = make_task(K=2, V=4)
        state = task.apply(task.initial_state([3, 0, 1, 2]), 1)
        fv = task.features(state)
        names = set(fv.as_dict(task.interner))
        assert names == {"cluster=1", "total"}
        assert fv.as_dict(task.interner)["total"] == 6.0

    def test_config_rejects_degenerate(self):
        with pytest.raises(ConfigError):
            ClusterTaskConfig(K=1, V=4)
        with pytest.raises(ConfigError):
            ClusterTaskConfig(K=2, V=1)

    def test_single_cluster_only_in_exact_mode(self):
        task = make_task(K=1, V=4, exact=True)
        assert task.legal_actions(task.initial_state([1, 0, 2, 0])) == (0,)
        with pytest.raises(ConfigError):
            ClusterTaskConfig(K=0, V=4, exact_mode=True)

    def test_document_validation(self):
        with pytest.raises(DataError):
            DocumentCounts(np.zeros(4))
        with pytest.raises(DataError):
            DocumentCounts(np.array([1.0, -2.0]))
        task = make_task(V=3)
        with pytest.raises(DataError):
            task.initial_state([1, 0, 0, 0])


class TestClusterLoss:
    def test_uniform_case(self):
        doc = DocumentCounts(np.array([1.0, 1.0]))
        np.testing.assert_allclose(cluster_loss(doc, [0.5, 0.5]),
                                   2 * np.log(2), atol=1e-12)

    def test_skewed_case(self):
        # frozen: -2 ln 0.9
        doc = DocumentCounts(np.array([2.0, 0.0]))
        np.testing.assert_allclose(cluster_loss(doc, [0.9, 0.1]),
                                   0.21072103131565256, atol=1e-12)

    def test_zero_probability_present_word(self):
        doc = DocumentCounts(np.array([1.0, 1.0]))
        assert cluster_loss(doc, [1.0, 0.0]) == np.inf

    def test_zero_iff_all_mass_on_present(self):
        doc = DocumentCounts(np.array([0.0, 3.0]))
        assert cluster_loss(doc, [0.0, 1.0]) == 0.0
        assert cluster_loss(doc, [0.1, 0.9]) > 0.0

    def test_unnormalized_rejected(self):
        doc = DocumentCounts(np.array([1.0, 1.0]))
        with pytest.raises(ConfigError):
            cluster_loss(doc, [0.7, 0.7])


class TestExactCosts:
    def test_softmin_of_costs_matches_e_step(self):
        # the exact-mode cost vector, min-subtracted and softmin-
        # normalized, is the posterior responsibility row
        V, K = 5, 3
        docs = random_corpus(8, V, 2)
        params = mm_random_init(K, V, 3)
        task = make_task(K=K, V=V, exact=True)
        pol = task.policy_from_params(params)
        generated = task.exact_examples(list(docs), pol, RolloutConfig(
            mode="exact", seed=0))
        z_oracle = mm_e_step(params, docs)
        assert len(generated.cost_examples) == len(docs)
        for n, ex in enumerate(generated.cost_examples):
            post = np.exp(-ex.costs)
            post /= post.sum()
            np.testing.assert_allclose(post, z_oracle[n], atol=1e-10)

    def test_record_weights_are_responsibilities(self):
        V, K = 4, 2
        docs = random_corpus(6, V, 4)
        params = mm_random_init(K, V, 5)
        task = make_task(K=K, V=V, exact=True)
        pol = task.policy_from_params(params)
        generated = task.exact_examples(list(docs), pol,
                                        RolloutConfig(mode="exact", seed=0))
        z_oracle = mm_e_step(params, docs)
        weights = np.zeros((len(docs), K))
        for i, (k, doc, w) in enumerate(generated.estimation_records[DOC]):
            weights[i // K, k] = w
        np.testing.assert_allclose(weights, z_oracle, atol=1e-12)

    def test_exact_mode_requires_configuration(self):
        task = make_task(exact=False)
        with pytest.raises(ConfigError):
            task.exact_examples([np.ones(5)], initial_policy(),
                                RolloutConfig(seed=0))


class TestSampledMode:
    def test_iteration_one_induces_no_cluster_examples(self):
        # under the initial policy the emitted distribution never depends
        # on the chosen cluster, so every cluster cost vector is constant
        task = make_task(K=2, V=5)
        docs = list(random_corpus(6, 5, 6))
        generated = generate_examples(docs, initial_policy(), task,
                                      RolloutConfig(seed=7, n_samples=2))
        assert generated.cost_examples == []
        assert len(generated.estimation_records[DOC]) == len(docs)

    def test_sampled_records_train_an_emission_table(self):
        task = make_task(K=2, V=5)
        docs = list(random_corpus(6, 5, 8))
        generated = generate_examples(docs, initial_policy(), task,
                                      RolloutConfig(seed=9))
        rule = train_rule(task, generated, LearnerConfig(kind="nb",
                                                         smoothing=0.5))
        assert DOC in rule.models
        theta = rule.models[DOC].theta
        np.testing.assert_allclose(theta.sum(axis=1), np.ones(2), atol=1e-12)

    def test_rollout_terminates_and_validates(self):
        task = make_task(K=3, V=4)
        rng = np.random.default_rng(10)
        final = run_policy(task, np.array([1.0, 2.0, 0.0, 1.0]),
                           initial_policy(), rng)
        assert final.emitted is not None
        assert task.rollout_loss(final, None) >= 0.0


class TestEquivalence:
    def test_k2_trajectories_match(self):
        docs = random_corpus(10, 5, 11)
        report = run_equivalence(docs, K=2, iterations=10, shared_init=12)
        assert report.passed
        assert report.max_diff < 1e-8
        assert len(report.rho_diffs) == 10

    def test_k3_trajectories_match(self):
        docs = random_corpus(10, 5, 13)
        report = run_equivalence(docs, K=3, iterations=10, shared_init=14)
        assert report.passed

    def test_log_likelihood_non_decreasing(self):
        docs = random_corpus(10, 5, 15)
        report = run_equivalence(docs, K=2, iterations=10, shared_init=16)
        lls = report.log_likelihoods
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_single_cluster_collapses_to_unigram(self):
        docs = random_corpus(10, 5, 17)
        report = run_equivalence(docs, K=1, iterations=3, shared_init=18)
        assert report.passed

    def test_mismatched_init_rejected(self):
        docs = random_corpus(5, 4, 19)
        shared = mm_random_init(2, 4, 20)
        other = mm_random_init(2, 4, 21)
        with pytest.raises(ConfigError):
            run_equivalence(docs, K=2, iterations=2, shared_init=shared,
                            em_init=other)

    def test_deterministic_report(self):
        docs = random_corpus(8, 5, 22)
        r1 = run_equivalence(docs, K=2, iterations=5, shared_init=23)
        r2 = run_equivalence(docs, K=2, iterations=5, shared_init=23)
        assert r1.rho_diffs == r2.rho_diffs
        assert r1.theta_diffs == r2.theta_diffs


class TestSerialization:
    def test_policy_with_emission_model_round_trips(self):
        task = make_task(K=2, V=4, exact=True)
        params = mm_random_init(2, 4, 24)
        pol = task.policy_from_params(params)
        blob = policy_to_dict(pol, task.interner)
        clone, _ = policy_from_dict(blob)
        rule = clone.components[0][0]
        np.testing.assert_allclose(rule.models[DOC].theta, params.theta,
                                   atol=0)
        np.testing.assert_allclose(
            np.exp(rule.models[CLUSTER].class_log_prior), params.rho,
            atol=1e-15)


class TestCorpusFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "docs.txt"
        docs = random_corpus(7, 5, 25)
        write_documents(path, docs, vocab_size=5, header_comment="fixture")
        loaded, V = read_documents(path)
        assert V == 5
        np.testing.assert_array_equal(loaded, docs)

    def test_malformed_pair(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("V=3\n0:1 nonsense\n")
        with pytest.raises(DataError, match="2"):
            read_documents(path)

    def test_word_out_of_range(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("V=3\n7:1\n")
        with pytest.raises(DataError):
            read_documents(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("0:1 1:2\n")
        with pytest.raises(DataError):
            read_documents(path)
