"""Predict-self sequence task tests, including the iteration-1 property."""

import numpy as np
import pytest
from test_rollout_engine import (OracleSequenceTask, oracle_policy_act,
                                 oracle_rolled_costs)

from searn.classifiers import NBModel
from searn.core import (
    _PATH,
    LearnedRule,
    LearnerConfig,
    Policy,
    RolloutConfig,
    _costs_at_state,
    _emitted,
    _rng,
    generate_examples,
    initial_policy,
    run_policy,
    searn_learn,
)
from searn.errors import ConfigError, DataError, TaskContractError
from searn.features import FeatureVector, Interner
from searn.task_sequence import (
    EMIT,
    LATENT,
    SequenceTask,
    SequenceTaskConfig,
    read_sequences,
    write_sequences,
)


def make_task(K=2, V=4, mode="nb_hmm"):
    return SequenceTask(SequenceTaskConfig(K=K, V=V, feature_mode=mode))


def walk(task, x, actions):
    """The state reached from x's initial state by the given actions."""
    state = task.initial_state(x)
    for a in actions:
        state = task.apply(state, a)
    return state


def costs_after(task, x, prefix, pol, cfg):
    """Rolled-out costs of the decision that follows ``prefix``."""
    state = walk(task, x, prefix)
    return _costs_at_state(task, task.max_decisions(x), 0, len(prefix) + 1,
                           state, task.legal_actions(state), pol, cfg)


def action_spaces(task, x):
    """Legal action sets along the initial policy's path."""
    rng = np.random.default_rng(0)
    state = task.initial_state(x)
    spaces = []
    while not task.is_final(state):
        legal = task.legal_actions(state)
        spaces.append(legal)
        state = task.apply(state, task.initial_action(state, legal, rng))
    return spaces


class TestDecompose:
    def test_two_t_decisions(self):
        # T label steps, then T re-emissions of the finished labels
        task = make_task()
        x = (0, 1, 2, 3, 0)
        assert len(action_spaces(task, x)) == 5
        assert task.max_decisions(x) == 5
        final = run_policy(task, x, initial_policy(),
                           np.random.default_rng(0))
        assert task.observed(final) == x

    def test_action_space_sizes(self):
        task = make_task(K=3, V=5)
        assert [len(s) for s in action_spaces(task, (0, 1))] == [3, 3]
        assert task.groups()[task.emit_group] == 5

    def test_initial_rollout_reconstructs_input(self):
        task = make_task()
        x = (1, 3, 0, 2)
        rng = np.random.default_rng(0)
        final = run_policy(task, x, initial_policy(), rng)
        emitted = _emitted(task, final, initial_policy(), rng)
        assert emitted == x
        assert task.rollout_loss(final, emitted) == 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SequenceTaskConfig(K=1, V=4, feature_mode="nb_hmm")
        with pytest.raises(ConfigError):
            SequenceTaskConfig(K=2, V=1, feature_mode="nb_hmm")
        with pytest.raises(ConfigError):
            SequenceTaskConfig(K=2, V=2, feature_mode="cnn")

    def test_bad_symbols_rejected(self):
        task = make_task(V=3)
        with pytest.raises(DataError):
            task.initial_state((0, 7))
        with pytest.raises(DataError):
            task.initial_state(())


class TestFeatures:
    def test_emit_is_single_latent_indicator(self):
        task = make_task(K=4, V=5)
        x = (1, 2, 0)
        # latent labels predicted (3, 1, 0); the first re-emission
        fv = task.emission_features(walk(task, x, (3, 1, 0)), 0)
        assert fv.as_dict(task.interner) == {"emit_label=3": 1.0}

    def test_emit_never_sees_the_input(self):
        task = make_task()
        x = (1, 2, 3)
        for p in range(3):
            fv = task.emission_features(walk(task, x, (0, 1, 0)), p)
            names = set(fv.as_dict(task.interner))
            assert all(not n.startswith("x[") for n in names)

    def test_nb_hmm_latent_features(self):
        task = make_task()
        fv1 = task.features(walk(task, (0, 1, 2), ()))
        assert fv1.as_dict(task.interner) == {"bias": 1.0, "prev=START": 1.0}
        fv2 = task.features(walk(task, (0, 1, 2), (1,)))
        assert fv2.as_dict(task.interner) == {"bias": 1.0, "prev=1": 1.0}

    def test_new_interner_voids_memoized_vectors(self):
        # a loaded model brings its own feature table; vectors built
        # through the old table must not be served from the memo
        task = make_task()
        state = walk(task, (0, 1, 2), (1,))
        task.features(state)
        task.interner = Interner(["unrelated", "prev=1", "bias"])
        assert task.features(state) == FeatureVector((1, 2), (1.0, 1.0))

    def test_lr_window_boundaries(self):
        task = make_task(mode="lr_window")
        fv = task.features(walk(task, (3, 1, 2), ()))
        d = fv.as_dict(task.interner)
        assert d == {"bias": 1.0, "prev=START": 1.0, "x[-1]=S": 1.0,
                     "x[0]=3": 1.0, "x[+1]=1": 1.0}
        fv_end = task.features(walk(task, (3, 1, 2), (0, 1)))
        d_end = fv_end.as_dict(task.interner)
        assert d_end["x[+1]=E"] == 1.0
        assert d_end["x[0]=2"] == 1.0


class TestLoss:
    @staticmethod
    def loss(x, structure):
        """The loss of labels then emitted symbols, T of each."""
        task = make_task()
        T = len(x)
        return task.rollout_loss(walk(task, x, structure[:T]), structure[T:])

    def test_perfect_and_all_wrong(self):
        x = (0, 1, 2)
        assert self.loss(x, (0, 0, 0, 0, 1, 2)) == 0.0
        assert self.loss(x, (0, 0, 0, 1, 2, 0)) == 3.0

    def test_counts_emission_mistakes(self):
        x = (0, 1, 2, 3)
        assert self.loss(x, (0,) * 4 + (0, 1, 0, 3)) == 1.0

    def test_latent_half_ignored(self):
        x = (0, 1)
        for latents in [(0, 0), (1, 1), (0, 1)]:
            assert self.loss(x, latents + x) == 0.0

    def test_length_mismatch(self):
        task = make_task()
        with pytest.raises(TaskContractError):
            task.validate_final(walk(task, (0, 1), (0, 1, 0)))


class TestIterationOneProperty:
    def test_emit_costs_unit(self):
        # under the initial policy every emit decision costs 0 at the true
        # symbol and exactly 1 anywhere else
        task = make_task(K=2, V=5)
        rng = np.random.default_rng(3)
        x = tuple(int(v) for v in rng.integers(0, 5, size=4))
        generated = generate_examples([x], initial_policy(), task,
                                      RolloutConfig(seed=4, n_samples=2))
        emits = [ex for ex in generated.cost_examples if ex.group == EMIT]
        assert len(emits) == len(x)
        for symbol, ex in zip(x, emits):
            expected = np.ones(5)
            expected[symbol] = 0.0
            np.testing.assert_array_equal(ex.costs, expected)

    def test_latent_costs_constant(self):
        task = make_task(K=3, V=4)
        rng = np.random.default_rng(5)
        x = tuple(int(v) for v in rng.integers(0, 4, size=5))
        cfg = RolloutConfig(seed=6, n_samples=2)
        for t in (1, 3, 5):
            prefix = tuple(int(v) for v in rng.integers(0, 3, size=t - 1))
            costs = costs_after(task, x, prefix, initial_policy(), cfg)
            np.testing.assert_array_equal(costs, np.zeros(3))

    def test_only_emit_examples_survive_filtering(self):
        task = make_task(K=2, V=6)
        rng = np.random.default_rng(7)
        data = [tuple(int(v) for v in rng.integers(0, 6, size=5))
                for _ in range(3)]
        generated = generate_examples(data, initial_policy(), task,
                                      RolloutConfig(seed=8, n_samples=2))
        assert len(generated.cost_examples) == sum(len(x) for x in data)
        assert all(ex.group == EMIT for ex in generated.cost_examples)


class TestEmitShortcut:
    def test_shortcut_equals_tied_rollout_costs(self):
        # the cost of each re-emission must be exactly what the stepwise
        # task's tied-randomness rollouts measure at its emit decision;
        # checked under a genuine mixture policy so both components steer
        # continuations
        task = make_task(K=2, V=5)
        rng = np.random.default_rng(11)
        data = [tuple(int(v) for v in rng.integers(0, 5, size=6))
                for _ in range(5)]
        cfg = RolloutConfig(seed=21, n_samples=2)
        pol, _ = searn_learn(task, data,
                             LearnerConfig(kind="nb", smoothing=0.5),
                             beta=0.4, cfg=cfg, iterations=2)
        assert len(pol.components) > 1
        stepwise = OracleSequenceTask(task.config)
        stepwise.interner = task.interner
        for i, x in enumerate(data):
            T = len(x)
            walk = _rng(cfg.seed, _PATH, i)
            state = stepwise.initial_state(x)
            for t in range(1, 2 * T + 1):
                if t > T:
                    rolled = oracle_rolled_costs(stepwise, i, t, state, pol,
                                                 cfg)
                    np.testing.assert_array_equal(
                        rolled, task.shortcut_costs(state, t - T - 1))
                state = stepwise.apply(state, oracle_policy_act(
                    stepwise, pol, state, walk))

    def test_latent_decisions_take_no_shortcut(self):
        # generation consults the shortcut once per re-emitted symbol,
        # in order, and never at a latent decision
        calls = []

        class Counting(SequenceTask):
            def shortcut_costs(self, final, p):
                calls.append(p)
                return super().shortcut_costs(final, p)

        task = Counting(SequenceTaskConfig(K=3, V=4, feature_mode="nb_hmm"))
        generate_examples([(0, 1, 2), (3, 2)], initial_policy(), task,
                          RolloutConfig(seed=1))
        assert calls == [0, 1, 2, 0, 1]


class TestRelabelingInvariance:
    def test_permuted_policy_same_reconstruction_loss(self):
        # swapping latent class ids everywhere in a trained rule's tables
        # and features cannot change reconstruction quality; exact path
        # correspondence additionally needs tie-free decoding, since the
        # lowest-id tie-break is itself not permutation-equivariant, so
        # the test guards against ties along the visited states
        task = make_task(K=2, V=4)
        rng = np.random.default_rng(1)
        data = [tuple(int(v) for v in rng.integers(0, 4, size=8))
                for _ in range(6)]
        pol, _ = searn_learn(task, data,
                             LearnerConfig(kind="nb", smoothing=0.5),
                             beta=1.0,
                             cfg=RolloutConfig(seed=101, n_samples=2),
                             iterations=3)
        rule = pol.components[0][0]
        perm = {0: 1, 1: 0}
        swapped = LearnedRule({
            LATENT: self._permute_latent_model(task, rule.models[LATENT],
                                               perm),
            EMIT: self._permute_emit_model(task, rule.models[EMIT], perm),
        })
        pol_swapped = Policy(((swapped, 1.0),))
        for x in data:
            self._assert_cost_equivariance(task, rule, swapped, perm, x)
            rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
            f1 = run_policy(task, x, pol, rng1)
            f2 = run_policy(task, x, pol_swapped, rng2)
            assert task.rollout_loss(f1, _emitted(task, f1, pol, rng1)) == \
                task.rollout_loss(f2, _emitted(task, f2, pol_swapped, rng2))
            assert tuple(perm[a] for a in f1.actions) == f2.actions

    def _assert_cost_equivariance(self, task, orig, swapped, perm, x):
        # walk the original greedy trajectory, then its re-emission; at
        # every decision the swapped model's costs on the permuted state
        # must be the permutation of the original costs
        state_o = task.initial_state(x)
        state_s = task.initial_state(x)

        def untied(c_o):
            spread = np.sort(c_o)
            assert len(spread) < 2 or spread[0] < spread[1], \
                "tie encountered; pick a different training seed"
            return min(range(len(c_o)), key=lambda k: (c_o[k], k))

        while not task.is_final(state_o):
            c_o = orig.models[LATENT].predict_costs(task.features(state_o))
            c_s = swapped.models[LATENT].predict_costs(task.features(state_s))
            np.testing.assert_allclose(
                c_s, [c_o[perm_inv] for perm_inv in
                      self._inverse(perm, len(c_o))], atol=1e-9)
            a = untied(c_o)
            state_o = task.apply(state_o, a)
            state_s = task.apply(state_s, perm[a])
        for p in range(len(x)):
            c_o = orig.models[EMIT].predict_costs(
                task.emission_features(state_o, p))
            c_s = swapped.models[EMIT].predict_costs(
                task.emission_features(state_s, p))
            np.testing.assert_allclose(c_s, c_o, atol=1e-9)
            untied(c_o)

    def _inverse(self, perm, k):
        inv = [0] * k
        for old, new in perm.items():
            inv[new] = old
        return inv

    def _permute_latent_model(self, task, model, perm):
        # classes are latent ids: permute rows; "prev=j" features: permute
        # columns accordingly
        K = len(perm)
        row_order = [0] * K
        for old, new in perm.items():
            row_order[new] = old
        prior = model.class_log_prior[row_order]
        table = model.feature_log_prob[row_order].copy()
        table = self._permute_feature_columns(task, table, perm, "prev=")
        return NBModel(prior, table, model.smoothing)

    def _permute_emit_model(self, task, model, perm):
        # classes are symbols (untouched); "emit_label=k" features permute
        table = self._permute_feature_columns(
            task, model.feature_log_prob.copy(), perm, "emit_label=")
        return NBModel(model.class_log_prior, table, model.smoothing)

    def _permute_feature_columns(self, task, table, perm, prefix):
        names = task.interner.names()
        out = table.copy()
        for old, new in perm.items():
            src = names.index(f"{prefix}{old}")
            dst = names.index(f"{prefix}{new}")
            if src < table.shape[1] and dst < table.shape[1]:
                out[:, dst] = table[:, src]
        return out


class TestCorpusFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seqs.txt"
        data = [(0, 1, 2), (3, 3), (1,)]
        write_sequences(path, data, vocab_size=4, header_comment="demo run")
        loaded, V = read_sequences(path)
        assert loaded == data
        assert V == 4

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(DataError):
            read_sequences(path)

    def test_sequence_before_header(self, tmp_path):
        path = tmp_path / "late.txt"
        path.write_text("1 2\nV=3\n")
        with pytest.raises(DataError, match="before V= header"):
            read_sequences(path)

    def test_second_header_rejected(self, tmp_path):
        path = tmp_path / "twice.txt"
        path.write_text("V=3\n1 2\nV=10\n")
        with pytest.raises(DataError, match="3: malformed V= header"):
            read_sequences(path)

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("V=4\n0 x 2\n")
        with pytest.raises(DataError, match="2"):
            read_sequences(path)

    def test_symbol_out_of_range(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("V=2\n0 1\n0 5\n")
        with pytest.raises(DataError, match=r"bad3.txt:3: symbol outside V=2"):
            read_sequences(path)
