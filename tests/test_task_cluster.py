"""Cluster task tests: closed-form costs, EM trajectory match, corpus IO."""

import numpy as np
import pytest

from searn.core import (
    INITIAL_RULE,
    LearnerConfig,
    Policy,
    RolloutConfig,
    generate_examples,
    initial_policy,
    run_policy,
    searn_learn,
    train_rule,
)
from searn.em import (MultinomialMixtureParams, mm_e_step, mm_em_train,
                      mm_log_likelihood, mm_random_init)
from searn.errors import ConfigError, DataError, TaskContractError
from searn.task_cluster import (
    CLUSTER,
    DOC,
    ClusterState,
    ClusterTask,
    ClusterTaskConfig,
    DocumentCounts,
    EquivalenceReport,
    read_documents,
    run_equivalence,
    write_documents,
)


def random_corpus(n, V, seed):
    rng = np.random.default_rng(seed)
    docs = rng.integers(0, 8, size=(n, V)).astype(float)
    docs[docs.sum(axis=1) == 0, 0] = 1.0
    return docs


def make_task(K=2, V=5):
    return ClusterTask(ClusterTaskConfig(K=K, V=V))


class CountingClusterTask(ClusterTask):
    """Counts completed rollouts."""

    rollouts = 0

    def rollout_loss(self, final, emitted):
        self.rollouts += 1
        return super().rollout_loss(final, emitted)


class TestDecompose:
    def test_one_decision(self):
        # the hidden half is the cluster id; the document is re-emitted
        # by the DOC table, never by a step
        task = make_task(K=3)
        doc = [1, 0, 2, 0, 0]
        assert task.max_decisions(doc) == 1
        state = task.initial_state(doc)
        assert not task.is_final(state)
        assert task.legal_actions(state) == (0, 1, 2)
        state = task.apply(state, 2)
        assert task.is_final(state)
        assert state == ClusterState(state.doc, 2)

    def test_cluster_features_are_raw_counts(self):
        task = make_task(V=4)
        state = task.initial_state([3, 0, 1, 2])
        fv = task.features(state)
        assert fv.as_dict(task.interner) == {"w=0": 3.0, "w=2": 1.0,
                                             "w=3": 2.0}

    def test_config_rejects_degenerate(self):
        with pytest.raises(ConfigError):
            ClusterTaskConfig(K=2, V=1)

    def test_single_cluster_only_in_exact_mode(self):
        # every cluster task learns in exact mode now, so one cluster (the
        # equivalence check's boundary case) is always accepted; zero is not
        task = make_task(K=1, V=4)
        assert task.legal_actions(task.initial_state([1, 0, 2, 0])) == (0,)
        with pytest.raises(ConfigError):
            ClusterTaskConfig(K=0, V=4)

    def test_rollout_terminates_and_validates(self):
        # a run ends at its cluster id; the task's costs come from
        # exact_examples, so it scores no rollout
        task = make_task(K=3, V=4)
        rng = np.random.default_rng(10)
        final = run_policy(task, np.array([1.0, 2.0, 0.0, 1.0]),
                           initial_policy(), rng)
        assert final.cluster in (0, 1, 2)
        with pytest.raises(TaskContractError, match="exact_examples"):
            task.rollout_loss(final, ())

    def test_learned_policy_picks_the_cheapest_cluster(self):
        # the cluster decision is the NB model's cheapest class for the
        # word counts, ties to the lowest id
        V, K = 5, 3
        task = make_task(K=K, V=V)
        pol = task.policy_from_params(mm_random_init(K, V, 12))
        model = pol.components[0][0].models[CLUSTER]
        for i, doc in enumerate(random_corpus(8, V, 13)):
            final = run_policy(task, doc, pol, np.random.default_rng(i))
            costs = model.predict_costs(task.features(final))
            assert final.cluster == min(range(K), key=lambda k: (costs[k], k))

    def test_document_validation(self):
        with pytest.raises(DataError):
            DocumentCounts(np.zeros(4))
        with pytest.raises(DataError):
            DocumentCounts(np.array([1.0, -2.0]))
        task = make_task(V=3)
        with pytest.raises(DataError):
            task.initial_state([1, 0, 0, 0])


class TestExactCosts:
    def test_softmin_of_costs_matches_e_step(self):
        # the closed-form cost vector, min-subtracted and softmin-
        # normalized, is the posterior responsibility row
        V, K = 5, 3
        docs = random_corpus(8, V, 2)
        params = mm_random_init(K, V, 3)
        task = make_task(K=K, V=V)
        pol = task.policy_from_params(params)
        generated = task.exact_examples(list(docs), pol)
        z_oracle = mm_e_step(params, docs)
        assert len(generated.cost_examples) == len(docs)
        for n, ex in enumerate(generated.cost_examples):
            post = np.exp(-ex.costs)
            post /= post.sum()
            np.testing.assert_allclose(post, z_oracle[n], atol=1e-10)

    @staticmethod
    def _rollout_losses(rule, doc):
        """Loss of choosing each cluster: the document's log loss under
        that cluster's row of the rule's emission table."""
        counts = np.asarray(doc, dtype=float)
        present = counts > 0
        losses = []
        for theta_k in rule.models[DOC].theta:
            with np.errstate(divide="ignore"):
                logs = np.log(theta_k[present])
            losses.append(float(-(counts[present] * logs).sum()))
        return np.array(losses)

    @pytest.mark.parametrize("seed", range(5))
    def test_costs_are_rollout_loss_minus_log_prior(self, seed):
        # the closed form is the negative log joint, not the expected
        # rollout loss: the document's log loss minus the policy's log rho
        V, K = 5, 3
        docs = random_corpus(6, V, 40 + seed)
        task = make_task(K=K, V=V)
        pol = task.policy_from_params(mm_random_init(K, V, 50 + seed))
        rule = pol.components[0][0]
        examples = task.exact_examples(list(docs), pol).cost_examples
        assert len(examples) == len(docs)
        for doc, ex in zip(docs, examples):
            want = (self._rollout_losses(rule, doc)
                    - rule.models[CLUSTER].class_log_prior)
            np.testing.assert_allclose(ex.costs, want - want.min(),
                                       rtol=0, atol=1e-10)

    def test_prior_term_moves_the_regrets(self):
        task = make_task(K=3, V=5)
        pol = task.policy_from_params(mm_random_init(3, 5, 7))
        doc = np.array([3.0, 0.0, 1.0, 2.0, 1.0])
        rollout = self._rollout_losses(pol.components[0][0], doc)
        (ex,) = task.exact_examples([doc], pol).cost_examples
        np.testing.assert_allclose(rollout - rollout.min(),
                                   [9.901, 0.0, 0.604], atol=5e-4)
        np.testing.assert_allclose(ex.costs, [10.262, 0.0, 0.749],
                                   atol=5e-4)

    def test_record_weights_are_responsibilities(self):
        V, K = 4, 2
        docs = random_corpus(6, V, 4)
        params = mm_random_init(K, V, 5)
        task = make_task(K=K, V=V)
        pol = task.policy_from_params(params)
        generated = task.exact_examples(list(docs), pol)
        z_oracle = mm_e_step(params, docs)
        weights, counts = generated.estimation_records[DOC]
        np.testing.assert_allclose(weights, z_oracle, atol=1e-12)
        assert counts.tobytes() == docs.tobytes()

    def test_count_matrix_trains_like_a_list_of_rows(self):
        # the n x V matrix read_documents returns is a corpus as it stands
        V, K = 4, 2
        docs = random_corpus(6, V, 26)
        params0 = mm_random_init(K, V, 27)
        learned = []
        for corpus in (docs, list(docs)):
            task = make_task(K=K, V=V)
            pol, _ = searn_learn(task, corpus,
                                 LearnerConfig(kind="nb", smoothing=0.0),
                                 beta=1.0, cfg=RolloutConfig(seed=0),
                                 iterations=2,
                                 start=task.policy_from_params(params0))
            learned.append(task.params_from_rule(pol.components[-1][0]))
        assert learned[0].rho.tobytes() == learned[1].rho.tobytes()
        assert learned[0].theta.tobytes() == learned[1].theta.tobytes()
        with pytest.raises(DataError, match="empty"):
            generate_examples(docs[:0], task.policy_from_params(params0),
                              task, RolloutConfig(seed=0))

    def test_exact_mode_requires_configuration(self):
        # under the default rollout config the task trains by the closed
        # form: no rollouts, and EM's trajectory
        V, K, iterations = 5, 2, 3
        docs = list(random_corpus(8, V, 14))
        params0 = mm_random_init(K, V, 15)
        em_params, _ = mm_em_train(np.asarray(docs), params0, iterations)
        task = CountingClusterTask(ClusterTaskConfig(K=K, V=V))
        pol, _ = searn_learn(task, docs,
                             LearnerConfig(kind="nb", smoothing=0.0), beta=1.0,
                             cfg=RolloutConfig(seed=0), iterations=iterations,
                             start=task.policy_from_params(params0))
        assert task.rollouts == 0
        got = task.params_from_rule(pol.components[-1][0])
        np.testing.assert_allclose(got.rho, em_params.rho, rtol=0, atol=1e-8)
        np.testing.assert_allclose(got.theta, em_params.theta,
                                   rtol=0, atol=1e-8)

    def test_initial_rule_component_is_config_error(self):
        # the closed form needs every component's emission table; the
        # initial rule has none
        V, K = 4, 2
        docs = list(random_corpus(5, V, 16))
        task = make_task(K=K, V=V)
        learned = task.policy_from_params(mm_random_init(K, V, 17))
        mixed = Policy(((INITIAL_RULE, 0.5),
                        (learned.components[0][0], 0.5)))
        for pol in (initial_policy(), mixed):
            with pytest.raises(ConfigError, match="initial rule"):
                task.exact_examples(docs, pol)


class TestEquivalence:
    def test_k2_trajectories_match(self):
        docs = random_corpus(10, 5, 11)
        report = run_equivalence(docs, K=2, iterations=10, seed=12,
                                 tolerance=1e-8)
        assert report.passed
        assert report.max_diff < 1e-8
        assert len(report.rho_diffs) == 10

    def test_k3_trajectories_match(self):
        docs = random_corpus(10, 5, 13)
        report = run_equivalence(docs, K=3, iterations=10, seed=14,
                                 tolerance=1e-8)
        assert report.passed

    def test_log_likelihood_non_decreasing(self):
        # the learning loop walks EM's path, so no iteration's
        # tables lower the likelihood
        docs = random_corpus(10, 5, 15)
        task = make_task(K=2, V=5)
        pol = task.policy_from_params(mm_random_init(2, 5, 16))
        learner = LearnerConfig(kind="nb", smoothing=0.0)
        lls = []
        for _ in range(10):
            rule = train_rule(task, task.exact_examples(docs, pol), learner)
            pol = Policy(((rule, 1.0),))
            lls.append(mm_log_likelihood(task.params_from_rule(rule), docs))
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_single_cluster_collapses_to_unigram(self):
        docs = random_corpus(10, 5, 17)
        report = run_equivalence(docs, K=1, iterations=3, seed=18,
                                 tolerance=1e-8)
        assert report.passed

    def test_deterministic_report(self):
        docs = random_corpus(8, 5, 22)
        r1 = run_equivalence(docs, K=2, iterations=5, seed=23,
                                 tolerance=1e-8)
        r2 = run_equivalence(docs, K=2, iterations=5, seed=23,
                                 tolerance=1e-8)
        assert r1.rho_diffs == r2.rho_diffs
        assert r1.theta_diffs == r2.theta_diffs


    def test_no_gaps_is_not_a_pass(self):
        assert not EquivalenceReport(1e-8).passed
        report = run_equivalence(random_corpus(6, 4, 18), K=2, iterations=0,
                                 seed=19, tolerance=1e-8)
        assert report.max_diff == 0.0 and not report.passed


class TestSerialization:
    def test_policy_with_emission_model_round_trips(self):
        # a cluster policy is stored as its mixture parameters (the model
        # file the CLI writes), so params_from_rule inverts
        # policy_from_params
        task = make_task(K=2, V=4)
        params = mm_random_init(2, 4, 24)
        rule = task.policy_from_params(params).components[0][0]
        np.testing.assert_allclose(rule.models[DOC].theta, params.theta,
                                   atol=0)
        back = task.params_from_rule(rule)
        np.testing.assert_allclose(back.theta, params.theta, atol=1e-15)
        np.testing.assert_allclose(back.rho, params.rho, atol=1e-15)


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

    @pytest.mark.parametrize("line, error", [
        ("0:2 1:-3", "negative count in '1:-3'"),
        ("2:0", "document has no words"),
    ], ids=["negative", "empty"])
    def test_bad_counts_name_their_line(self, tmp_path, line, error):
        path = tmp_path / "bad.txt"
        path.write_text(f"V=3\n0:1\n{line}\n")
        with pytest.raises(DataError) as info:
            read_documents(path)
        assert str(info.value) == f"{path}:3: {error}"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("0:1 1:2\n")
        with pytest.raises(DataError):
            read_documents(path)
