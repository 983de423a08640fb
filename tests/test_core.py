"""Learning-loop tests against a minimal supervised toy task."""

import numpy as np
import pytest

from searn import core, task_cluster, task_depparse, task_sequence
from searn.classifiers import LROptimizerConfig
from searn.core import (
    CostSensitiveExample,
    INITIAL_RULE,
    LearnedRule,
    LearnerConfig,
    Policy,
    RolloutConfig,
    Task,
    _costs_at_state,
    generate_examples,
    initial_policy,
    interpolate_policy,
    policy_act,
    policy_from_dict,
    policy_to_dict,
    run_policy,
    searn_learn,
    strip_initial_policy,
    train_rule,
    vector_action,
)
from searn.errors import ConfigError, StateError, TrainingError
from searn.features import FeatureVector, Interner


class ToyState:
    """One-decision state: predict the example's label from its feature."""

    def __init__(self, example, action=None):
        self.example = example
        self.action = action


class ToyTask(Task):
    """Two actions, one decision; gold label is example[1]."""

    hidden_group = "g"

    def __init__(self):
        self.interner = Interner()

    def groups(self):
        return {"g": 2}

    def initial_state(self, example):
        return ToyState(example)

    def max_decisions(self, example):
        return 1

    def is_final(self, state):
        return state.action is not None

    def legal_actions(self, state):
        return (0, 1)

    def features(self, state):
        return FeatureVector.from_names(self.interner,
                                        [f"x={state.example[0]}"])

    def initial_action(self, state, legal, rng):
        return state.example[1]

    def apply(self, state, action):
        return ToyState(state.example, int(action))

    def rollout_loss(self, final, emitted):
        return 0.0 if final.action == final.example[1] else 1.0


def toy_dataset():
    # feature value determines the label
    return [("a", 0), ("a", 0), ("b", 1), ("b", 1)]


class TestPolicyAlgebra:
    def test_full_replacement_at_beta_one(self):
        h = LearnedRule({})
        pol = interpolate_policy(initial_policy(), h, 1.0)
        assert pol.components == ((h, 1.0),)

    def test_two_step_weights(self):
        h1, h2 = LearnedRule({}), LearnedRule({})
        pol = interpolate_policy(initial_policy(), h1, 0.5)
        pol = interpolate_policy(pol, h2, 0.5)
        np.testing.assert_allclose(pol.weights, (0.25, 0.25, 0.5), atol=1e-15)
        assert pol.components[0][0] is INITIAL_RULE
        assert pol.components[1][0] is h1

    def test_parsing_setting(self):
        h = LearnedRule({})
        pol = interpolate_policy(initial_policy(), h, 0.1)
        np.testing.assert_allclose(pol.weights, (0.9, 0.1), atol=1e-15)

    def test_weights_always_sum_to_one(self):
        pol = initial_policy()
        rng = np.random.default_rng(0)
        for _ in range(20):
            pol = interpolate_policy(pol, LearnedRule({}),
                                     float(rng.uniform(0.05, 1.0)))
            np.testing.assert_allclose(sum(pol.weights), 1.0, atol=1e-12)

    def test_invalid_beta(self):
        for beta in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                interpolate_policy(initial_policy(), LearnedRule({}), beta)

    def test_strip_singleton(self):
        h = LearnedRule({})
        pol = interpolate_policy(initial_policy(), h, 0.1)
        stripped = strip_initial_policy(pol)
        assert stripped.components == ((h, 1.0),)

    def test_strip_renormalizes(self):
        h1, h2 = LearnedRule({}), LearnedRule({})
        pol = Policy(((INITIAL_RULE, 0.25), (h1, 0.25), (h2, 0.5)))
        stripped = strip_initial_policy(pol)
        np.testing.assert_allclose(stripped.weights, (1 / 3, 2 / 3),
                                   atol=1e-15)

    def test_strip_pure_initial_fails(self):
        with pytest.raises(TrainingError):
            strip_initial_policy(initial_policy())

    def test_two_initial_components_rejected(self):
        with pytest.raises(ConfigError):
            Policy(((INITIAL_RULE, 0.5), (INITIAL_RULE, 0.5)))

    def test_bad_weight_sum_rejected(self):
        with pytest.raises(ConfigError):
            Policy(((INITIAL_RULE, 0.5), (LearnedRule({}), 0.4)))


class TestPolicyAct:
    def test_singleton_learned_mixture_argmin(self):
        task = ToyTask()
        dataset = toy_dataset()
        cfg = RolloutConfig(seed=1)
        generated = generate_examples(dataset, initial_policy(), task, cfg)
        rule = train_rule(task, generated, LearnerConfig(kind="nb",
                                                         smoothing=0.1))
        pol = Policy(((rule, 1.0),))
        rng = np.random.default_rng(0)
        for example in dataset:
            state = task.initial_state(example)
            assert policy_act(task, pol, state, task.legal_actions(state),
                              rng) == example[1]

    def test_component_selection_frequencies(self):
        # {initial: 0.25, learned: 0.75}; the toy initial rule answers the
        # gold label 1, the learned rule is forced to answer 0 by an
        # all-zero NB table built by hand.
        from searn.classifiers import NBModel
        task = ToyTask()
        model = NBModel(class_log_prior=np.log([0.9, 0.1]),
                        feature_log_prob=np.log([[0.5, 0.5], [0.5, 0.5]]),
                        smoothing=0.0)
        task.interner.intern("x=a")
        rule = LearnedRule({"g": model})
        pol = Policy(((INITIAL_RULE, 0.25), (rule, 0.75)))
        rng = np.random.default_rng(7)
        state = task.initial_state(("a", 1))
        draws = 10_000
        legal = task.legal_actions(state)
        picked_initial = sum(
            1 for _ in range(draws)
            if policy_act(task, pol, state, legal, rng) == 1)
        sigma = np.sqrt(draws * 0.25 * 0.75)
        assert abs(picked_initial - draws * 0.25) < 3 * sigma

    def test_no_legal_action_is_error(self):
        class DeadTask(ToyTask):
            def legal_actions(self, state):
                return ()

        task = DeadTask()
        state = task.initial_state(("a", 0))
        with pytest.raises(StateError):
            policy_act(task, initial_policy(), state,
                       task.legal_actions(state), np.random.default_rng(0))


def first_decision_costs(task, example, cfg):
    state = task.initial_state(example)
    return _costs_at_state(task, task.max_decisions(example), 0, 1, state,
                           task.legal_actions(state), initial_policy(), cfg)


class TestEstimateCosts:
    def test_toy_costs_are_immediate_loss(self):
        costs = first_decision_costs(ToyTask(), ("a", 1),
                                     RolloutConfig(seed=3))
        np.testing.assert_array_equal(costs, [1.0, 0.0])

    def test_repeatable(self):
        task = ToyTask()
        cfg = RolloutConfig(seed=11, n_samples=3)
        c1 = first_decision_costs(task, ("b", 0), cfg)
        c2 = first_decision_costs(task, ("b", 0), cfg)
        np.testing.assert_array_equal(c1, c2)


class TestGenerateExamples:
    def test_one_example_per_decision(self):
        task = ToyTask()
        generated = generate_examples(toy_dataset(), initial_policy(), task,
                                      RolloutConfig(seed=5))
        assert len(generated.cost_examples) == 4
        for ex in generated.cost_examples:
            assert isinstance(ex, CostSensitiveExample)
            assert ex.costs.min() == 0.0
            assert len(ex.costs) == len(ex.actions) == 2

    def test_deterministic(self):
        task = ToyTask()
        cfg = RolloutConfig(seed=6)
        g1 = generate_examples(toy_dataset(), initial_policy(), task, cfg)
        g2 = generate_examples(toy_dataset(), initial_policy(), task, cfg)
        assert len(g1.cost_examples) == len(g2.cost_examples)
        for a, b in zip(g1.cost_examples, g2.cost_examples):
            assert a.features == b.features
            assert a.actions == b.actions
            np.testing.assert_array_equal(a.costs, b.costs)

    def test_empty_dataset_rejected(self):
        from searn.errors import DataError
        with pytest.raises(DataError):
            generate_examples([], initial_policy(), ToyTask(),
                              RolloutConfig(seed=0))


class TestModelAction:
    def test_predicts_once_per_features_and_legal_set(self, monkeypatch):
        from searn.classifiers import NBModel
        task = ToyTask()
        pol, _ = searn_learn(task, toy_dataset(),
                             LearnerConfig(kind="nb", smoothing=0.1),
                             beta=1.0, cfg=RolloutConfig(seed=8),
                             iterations=1)
        model = pol.components[0][0].models["g"]
        predicted = []
        predict_costs = NBModel.predict_costs

        def counted(self, fv):
            predicted.append(fv)
            return predict_costs(self, fv)

        monkeypatch.setattr(NBModel, "predict_costs", counted)
        keys = set()
        for _ in range(3):
            for example in toy_dataset():
                state = task.initial_state(example)
                for legal in ((0, 1), (0,), (1,)):
                    action = vector_action(model, task.features(state),
                                           legal)
                    assert action in legal
                    if legal == (0, 1):
                        assert action == example[1]
                    keys.add((task.features(state), legal))
        # two feature vectors, three legal sets
        assert len(keys) == 6
        assert len(predicted) == len(model._cache) == len(keys)
        assert set(model._cache) == keys
        assert all(isinstance(action, int)
                   for action in model._cache.values())


class TestSearnLearn:
    def test_beta_one_single_iteration_is_plain_classifier(self):
        task = ToyTask()
        dataset = toy_dataset()
        cfg = RolloutConfig(seed=8)
        pol, _ = searn_learn(task, dataset, LearnerConfig(kind="nb",
                                                          smoothing=0.1),
                             beta=1.0, cfg=cfg, iterations=1)
        assert len(pol.components) == 1
        rule = pol.components[0][0]
        assert isinstance(rule, LearnedRule)
        rng = np.random.default_rng(0)
        for example in dataset:
            final = run_policy(task, example, pol, rng)
            assert final.action == example[1]

    def test_history_records(self):
        _, log = searn_learn(ToyTask(), toy_dataset(),
                             LearnerConfig(kind="nb", smoothing=0.1),
                             beta=0.5, cfg=RolloutConfig(seed=9),
                             iterations=3)
        assert [r["iteration"] for r in log] == [1, 2, 3]
        for record in log:
            assert set(record) == {"iteration", "n_cost_examples",
                                   "classification_loss", "lr_fits",
                                   "capped_fits", "seconds"}
            assert record["seconds"] >= 0.0
            assert record["lr_fits"] == record["capped_fits"] == 0

    def test_capped_fits_counted(self, monkeypatch):
        def log():
            return searn_learn(ToyTask(), toy_dataset(),
                               LearnerConfig(kind="lr", smoothing=0.0),
                               beta=0.5,
                               cfg=RolloutConfig(seed=9), iterations=2)[1]

        converged = log()
        assert [r["lr_fits"] for r in converged] == [1, 1]
        assert [r["capped_fits"] for r in converged] == [0, 0]
        monkeypatch.setattr(core, "LR_OPTIMIZER",
                            LROptimizerConfig(max_epochs=2))
        capped = log()
        assert [r["lr_fits"] for r in capped] == [1, 1]
        assert [r["capped_fits"] for r in capped] == [1, 1]


class TestPolicySerialization:
    def test_round_trip(self):
        task = ToyTask()
        dataset = toy_dataset()
        pol, _ = searn_learn(task, dataset, LearnerConfig(kind="nb",
                                                          smoothing=0.1),
                             beta=0.5, cfg=RolloutConfig(seed=12),
                             iterations=2)
        blob = policy_to_dict(pol, task.interner)
        clone, interner = policy_from_dict(blob)
        np.testing.assert_allclose(clone.weights, pol.weights, atol=0)
        assert interner.names() == task.interner.names()
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        for example in dataset:
            s1 = run_policy(task, example, pol, rng1)
            s2 = run_policy(task, example, clone, rng2)
            assert s1.action == s2.action

    def test_unknown_version_rejected(self):
        with pytest.raises(ConfigError):
            policy_from_dict({"format_version": 99, "feature_names": [],
                              "components": []})


def _package_tasks():
    """One instance of every Task subclass the package defines."""
    tasks = [task_cluster.ClusterTask(task_cluster.ClusterTaskConfig(K=2,
                                                                     V=3)),
             task_depparse.ParseTask(4),
             task_sequence.SequenceTask(task_sequence.SequenceTaskConfig(
                 K=2, V=3, feature_mode="nb_hmm"))]
    defined = {cls for module in (task_cluster, task_depparse, task_sequence)
               for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, Task)
               and cls.__module__ == module.__name__}
    assert {type(task) for task in tasks} == defined
    return tasks


@pytest.mark.parametrize("task", _package_tasks(),
                         ids=lambda task: type(task).__name__)
def test_step_and_emission_groups_are_task_groups(task):
    # policy_act looks a rule's model up by hidden_group and _emitted by
    # emit_group; a name missing from groups() would find no model and
    # leave every such decision to the initial rule
    named = [task.hidden_group]
    if hasattr(task, "emit_group"):
        named.append(task.emit_group)
    assert len(set(named)) == len(named)
    assert set(named) <= set(task.groups())
