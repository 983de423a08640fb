"""Parser transition system, oracle, features, losses, file format."""

import numpy as np
import pytest

from test_rollout_engine import (OracleParseTask, oracle_policy_act,
                                 oracle_rolled_costs)

from searn.core import (
    LearnerConfig,
    RolloutConfig,
    _emitted,
    _PATH,
    _rng,
    initial_policy,
    run_policy,
    searn_learn,
)
from searn.errors import ConfigError, DataError, StateError
from searn.experiments import parse_training_data
from searn.task_depparse import (
    ACTION_NAMES,
    LEFT_ARC,
    MAX_LENGTH,
    REDUCE,
    RIGHT_ARC,
    SHIFT,
    DependencyTree,
    ParseTask,
    ParserState,
    ParseState,
    TaggedSentence,
    apply_action,
    finalize,
    initial_parser_state,
    is_projective,
    legal_actions,
    load_conll,
    supervised_oracle,
    write_conll,
)

N_RANDOM_ROLLOUTS = 10_000
N_ORACLE_TREES = 2_000


def make_task(tagset=12):
    return ParseTask(tagset)


def random_rollout_tree(T, rng):
    """Finalize a uniform-random legal action trace; tracks step count."""
    state = initial_parser_state(T)
    steps = 0
    while state.i <= T:
        legal = legal_actions(state, T)
        state = apply_action(state, legal[rng.integers(len(legal))], T)
        steps += 1
        seen = [d for _, d in state.arcs]
        assert len(seen) == len(set(seen)), "token with two heads"
    return finalize(state, T), steps


def heads_from_arcs(arcs, T):
    """heads[d] = head of token d from the arc list (first arc wins)."""
    heads = [0] * (T + 1)
    for h, d in arcs:
        if not heads[d]:
            heads[d] = h
    return tuple(heads)


def parser_state(stack, i, arcs, T):
    return ParserState(stack, i, arcs, heads_from_arcs(arcs, T))


class TestTransitions:
    def test_initial_state_allows_only_shift(self):
        assert legal_actions(initial_parser_state(3), T=3) == (SHIFT,)

    def test_headless_top_blocks_reduce(self):
        state = parser_state((1,), 2, (), T=2)
        assert set(legal_actions(state, T=2)) == {LEFT_ARC, RIGHT_ARC,
                                                  SHIFT}

    def test_headed_top_blocks_left_arc(self):
        state = parser_state((1,), 2, ((2, 1),), T=2)
        legal = legal_actions(state, T=2)
        assert REDUCE in legal
        assert LEFT_ARC not in legal

    def test_shift_transition(self):
        state = apply_action(initial_parser_state(2), SHIFT, T=2)
        assert state == ParserState(stack=(1,), i=2, arcs=(),
                                    heads=(0, 0, 0))

    def test_right_arc_transition(self):
        state = parser_state((1,), 2, (), T=2)
        out = apply_action(state, RIGHT_ARC, T=2)
        assert out == ParserState(stack=(2, 1), i=3, arcs=((1, 2),),
                                  heads=(0, 0, 1))

    def test_left_arc_transition(self):
        state = parser_state((1,), 2, (), T=2)
        out = apply_action(state, LEFT_ARC, T=2)
        assert out == ParserState(stack=(), i=2, arcs=((2, 1),),
                                  heads=(0, 2, 0))

    def test_illegal_actions_name_the_precondition(self):
        with pytest.raises(StateError, match="stack"):
            apply_action(initial_parser_state(2), LEFT_ARC, T=2)
        headed = parser_state((1,), 2, ((2, 1),), T=2)
        with pytest.raises(StateError, match="head"):
            apply_action(headed, LEFT_ARC, T=2)
        drained = parser_state((1,), 3, (), T=2)
        with pytest.raises(StateError, match="input"):
            apply_action(drained, SHIFT, T=2)
        with pytest.raises(StateError, match="head"):
            apply_action(drained, REDUCE, T=2)

    def test_finalize_single_token(self):
        state = apply_action(initial_parser_state(1), SHIFT, T=1)
        assert finalize(state, T=1).heads == (0,)

    def test_finalize_chain(self):
        state = initial_parser_state(2)
        for a in (SHIFT, RIGHT_ARC):
            state = apply_action(state, a, T=2)
        assert finalize(state, T=2).heads == (0, 1)

    def test_finalize_requires_consumed_input(self):
        with pytest.raises(StateError):
            finalize(initial_parser_state(1), T=1)


class TestTreeValidation:
    def test_cycle_rejected(self):
        with pytest.raises(DataError, match="cycle"):
            DependencyTree((2, 1))

    def test_self_head_rejected(self):
        with pytest.raises(DataError):
            DependencyTree((1,))

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            DependencyTree((0, 5))

    def test_non_projective_rejected(self):
        assert not is_projective((0, 4, 1, 1))
        with pytest.raises(DataError, match="projective"):
            DependencyTree((0, 4, 1, 1))

    def test_valid_tree_accepted(self):
        tree = DependencyTree((0, 1, 1, 3))
        assert tree.head_of(4) == 3
        assert tree.children_of(1) == (2, 3)


class TestRandomRolloutProperties:
    def test_termination_single_head_and_valid_trees(self):
        rng = np.random.default_rng(77)
        for _ in range(N_RANDOM_ROLLOUTS):
            T = int(rng.integers(1, 11))
            tree, steps = random_rollout_tree(T, rng)
            assert steps <= 2 * T
            assert len(tree.heads) == T

    def test_heads_follow_arcs(self):
        # every state of a random legal action sequence keeps heads equal
        # to the heads its arcs give, and finalize returns the arcs' tree
        rng = np.random.default_rng(91)
        for _ in range(2_000):
            T = int(rng.integers(1, 7))
            state = initial_parser_state(T)
            while state.i <= T:
                legal = legal_actions(state, T)
                state = apply_action(state, legal[rng.integers(len(legal))],
                                     T)
                assert state.heads == heads_from_arcs(state.arcs, T)
            assert finalize(state, T) == DependencyTree(
                heads_from_arcs(state.arcs, T)[1:])


class TestOracle:
    def test_chain_prefers_right_arc(self):
        gold = DependencyTree((0, 1))
        state = parser_state((1,), 2, (), T=2)
        assert supervised_oracle(state, gold,
                                 legal_actions(state, 2)) == RIGHT_ARC

    def test_reversed_chain_prefers_left_arc(self):
        gold = DependencyTree((2, 0))
        state = parser_state((1,), 2, (), T=2)
        assert supervised_oracle(state, gold,
                                 legal_actions(state, 2)) == LEFT_ARC

    def oracle_parse(self, gold):
        T = gold.n_tokens
        state = initial_parser_state(T)
        steps = 0
        while state.i <= T:
            action = supervised_oracle(state, gold, legal_actions(state, T))
            state = apply_action(state, action, T)
            steps += 1
            assert steps <= 2 * T
        return finalize(state, T)

    def test_late_dependent_keeps_head_on_stack(self):
        # reducing token 2 after (1,2) would orphan token 4, whose head
        # is 2 but only becomes reachable two positions later
        gold = DependencyTree((0, 1, 4, 2))
        assert self.oracle_parse(gold).heads == (0, 1, 4, 2)

    def test_round_trip_on_random_projective_trees(self):
        rng = np.random.default_rng(3)
        for _ in range(N_ORACLE_TREES):
            T = int(rng.integers(1, 11))
            gold, _ = random_rollout_tree(T, rng)
            parsed = self.oracle_parse(gold)
            assert parsed.heads == gold.heads


class TestTreeFeatures:
    def names(self, task, ps, tags):
        state = ParseState(TaggedSentence(tags), ps, None, {})
        return task.features(state).as_dict(task.interner)

    def test_initial_state_has_null_stack_marker(self):
        task = make_task()
        got = self.names(task, initial_parser_state(3), (2, 0, 1))
        assert got == {"in[-2]=S": 1.0, "in[-1]=S": 1.0, "in[0]=2": 1.0,
                       "in[+1]=0": 1.0, "in[+2]=1": 1.0, "st=NULL": 1.0}

    def test_adjacent_pair_distance_and_windows(self):
        task = make_task()
        state = parser_state((1,), 2, (), T=3)
        got = self.names(task, state, (2, 0, 1))
        assert got["dist=1"] == 1.0
        assert got["pair=2|0"] == 1.0
        assert got["st[0]=2"] == 1.0
        assert got["st[+1]=0"] == 1.0
        assert got["in[-1]=2"] == 1.0
        assert got["in[+2]=E"] == 1.0
        assert "st=NULL" not in got

    @pytest.mark.parametrize("gap,bucket", [(1, "1"), (2, "2"), (3, "3"),
                                            (4, "4-6"), (6, "4-6"),
                                            (7, "7+"), (9, "7+")])
    def test_distance_buckets(self, gap, bucket):
        task = make_task()
        tags = tuple(range(10))
        state = parser_state((1,), 1 + gap, (), T=10)
        got = self.names(task, state, tags)
        assert got[f"dist={bucket}"] == 1.0

    def test_head_tag_after_right_arc(self):
        task = make_task()
        state = initial_parser_state(3)
        for a in (SHIFT, RIGHT_ARC):
            state = apply_action(state, a, T=3)
        got = self.names(task, state, (5, 2, 7))
        assert got["st.head=5"] == 1.0
        assert got["st[0]=2"] == 1.0

    def test_dependent_tag_after_left_arc(self):
        task = make_task()
        state = initial_parser_state(3)
        for a in (SHIFT, SHIFT, LEFT_ARC):
            state = apply_action(state, a, T=3)
        got = self.names(task, state, (5, 2, 7))
        assert got["in.dep=2"] == 1.0
        assert "st.head=5" not in got

    def test_no_features_past_final(self):
        # once the input is consumed the hidden half is finished, and only
        # the re-emission reads features: the tag features
        task = make_task()
        state = drive(task, TaggedSentence((1, 1)), [SHIFT, SHIFT])
        assert task.is_final(state)
        got = task.emission_features(state, 0).as_dict(task.interner)
        assert got == {"parent=ROOT": 1.0}


def action_spaces(task, sent, rng):
    """Legal action sets along the initial policy's path."""
    state = task.initial_state(sent)
    spaces = []
    while not task.is_final(state):
        legal = task.legal_actions(state)
        spaces.append(legal)
        state = task.apply(state, task.initial_action(state, legal, rng))
    return spaces


class TestDecompose:
    def test_phase_one_bounded_by_twice_length(self):
        task = make_task()
        gold, _ = random_rollout_tree(7, np.random.default_rng(5))
        sent = TaggedSentence(tuple(range(7)), gold)
        spaces = action_spaces(task, sent, np.random.default_rng(0))
        assert len(spaces) <= 14
        assert spaces[0] == (SHIFT,)

    def test_unsupervised_adds_one_tag_decision_per_token(self):
        # the tags are re-emitted from the finished tree, one per token,
        # after the parse steps
        task = make_task()
        sent = TaggedSentence((3, 1, 4, 1, 5, 9, 2))
        spaces = action_spaces(task, sent, np.random.default_rng(8))
        assert all(len(s) <= 4 for s in spaces)
        assert len(spaces) <= 2 * 7
        final = run_policy(task, sent, initial_policy(),
                           np.random.default_rng(8))
        assert task.observed(final) == sent.tags
        assert task.groups()[task.emit_group] == 12

    def test_sup_without_gold_rejected(self):
        # training data is checked where it is prepared; the task gives a
        # gold-free sentence a re-emission of its tags, which decoding
        # never draws
        with pytest.raises(DataError, match="requires a gold tree"):
            parse_training_data([TaggedSentence((1, 2))], "sup", None)
        task = make_task()
        sent = TaggedSentence((1, 2))
        assert task.max_decisions(sent) == 4
        labeled = TaggedSentence((1, 2), DependencyTree((0, 1)))
        assert task.max_decisions(labeled) == 4
        final = drive(task, sent, [SHIFT, SHIFT])
        assert task.observed(final) == (1, 2)
        labeled_final = drive(task, labeled, [SHIFT, RIGHT_ARC])
        assert task.observed(labeled_final) == ()

    def test_length_cap(self):
        task = make_task()
        assert MAX_LENGTH == 10
        task.initial_state(TaggedSentence((1,) * MAX_LENGTH))
        with pytest.raises(DataError, match="exceeds 10 tokens"):
            task.initial_state(TaggedSentence((1,) * (MAX_LENGTH + 1)))


def drive(task, sent, actions):
    state = task.initial_state(sent)
    for a in actions:
        state = task.apply(state, a)
    return state


class TestTagFeatures:
    def test_root_attached_token(self):
        task = make_task()
        sent = TaggedSentence((5, 2, 7))
        state = drive(task, sent, [SHIFT, RIGHT_ARC, RIGHT_ARC])
        assert state.tree.heads == (0, 1, 2)
        got = task.emission_features(state, 0).as_dict(task.interner)
        assert got == {"parent=ROOT": 1.0, "daughter=2": 1.0}

    def test_parent_and_root_grandparent(self):
        task = make_task()
        sent = TaggedSentence((5, 2, 7))
        state = drive(task, sent, [SHIFT, RIGHT_ARC, RIGHT_ARC])
        got = task.emission_features(state, 1).as_dict(task.interner)
        assert got == {"parent=5": 1.0, "grand=ROOT": 1.0,
                       "daughter=7": 1.0}

    def test_aunt_tags(self):
        task = make_task()
        sent = TaggedSentence((5, 2, 7, 3))
        state = drive(task, sent, [SHIFT, RIGHT_ARC, REDUCE, RIGHT_ARC,
                                   RIGHT_ARC])
        assert state.tree.heads == (0, 1, 1, 3)
        got = task.emission_features(state, 3).as_dict(task.interner)
        assert got == {"parent=7": 1.0, "grand=5": 1.0, "aunt=2": 1.0}

    def test_own_tag_never_appears(self):
        # token 2 carries the only occurrence of tag 9; none of its
        # re-emission features may mention it
        task = make_task()
        sent = TaggedSentence((5, 9, 7))
        state = drive(task, sent, [SHIFT, RIGHT_ARC, RIGHT_ARC])
        got = task.emission_features(state, 1).as_dict(task.interner)
        assert all("9" not in name for name in got)


class TestLosses:
    def test_unsup_zero_when_tags_reproduced(self):
        task = make_task()
        sent = TaggedSentence((3, 1, 4))
        state = drive(task, sent, [SHIFT, SHIFT, SHIFT])
        assert task.rollout_loss(state, (3, 1, 4)) == 0.0

    def test_unsup_counts_mismatches(self):
        task = make_task()
        sent = TaggedSentence((3, 1, 4))
        state = drive(task, sent, [SHIFT, SHIFT, SHIFT])
        assert task.rollout_loss(state, (3, 0, 0)) == 2.0

    def test_unsup_ignores_gold(self):
        # unsup data keeps no tree, so a sentence that had one is trained
        # as the bare sentence
        task = make_task()
        gold = DependencyTree((0, 1, 2))
        bare = TaggedSentence((3, 1, 4))
        (rich,) = parse_training_data([TaggedSentence((3, 1, 4), gold)],
                                      "unsup", None)
        actions = [SHIFT, SHIFT, SHIFT]
        loss_bare = task.rollout_loss(drive(task, bare, actions), (3, 1, 0))
        loss_rich = task.rollout_loss(drive(task, rich, actions), (3, 1, 0))
        assert loss_bare == loss_rich == 1.0

    def test_sup_loss_is_wrong_head_fraction(self):
        task = make_task()
        gold = DependencyTree((0, 1, 1, 3))
        sent = TaggedSentence((3, 1, 4, 1), gold)
        state = drive(task, sent, [SHIFT, SHIFT, SHIFT, SHIFT])
        assert state.tree.heads == (0, 0, 0, 0)
        assert task.observed(state) == ()
        assert task.rollout_loss(state, ()) == pytest.approx(0.75)

    def test_semi_dispatches_on_gold_presence(self):
        task = make_task()
        gold = DependencyTree((0, 1))
        labeled = TaggedSentence((3, 1), gold)
        state = drive(task, labeled, [SHIFT, SHIFT])
        assert task.is_final(state)
        assert task.rollout_loss(state, ()) == pytest.approx(0.5)
        bare = TaggedSentence((3, 1))
        state = drive(task, bare, [SHIFT, SHIFT])
        assert task.is_final(state)
        assert task.rollout_loss(state, (0, 1)) == 1.0


class TestRolloutIntegration:
    def test_initial_policy_rollouts_are_deterministic(self):
        task = make_task()
        sent = TaggedSentence((3, 1, 4, 1, 5))
        a = run_policy(task, sent, initial_policy(),
                       np.random.default_rng(2))
        b = run_policy(task, sent, initial_policy(),
                       np.random.default_rng(2))
        assert a.ps == b.ps
        assert a.tree == b.tree

    def test_initial_rule_reads_each_sentence_gold_tree(self):
        # one task: the initial rule parses a labeled sentence into its
        # gold tree with no re-emission, and copies an unlabeled one's tags
        task = make_task()
        rng = np.random.default_rng(6)
        for _ in range(20):
            T = int(rng.integers(1, MAX_LENGTH + 1))
            gold, _ = random_rollout_tree(T, rng)
            tags = tuple(int(t) for t in rng.integers(0, 12, size=T))
            labeled = run_policy(task, TaggedSentence(tags, gold),
                                 initial_policy(), rng)
            assert labeled.tree == gold
            assert _emitted(task, labeled, initial_policy(), rng) == ()
            bare = run_policy(task, TaggedSentence(tags), initial_policy(),
                              rng)
            assert _emitted(task, bare, initial_policy(), rng) == tags

    def test_supervised_learning_round(self):
        rng = np.random.default_rng(13)
        sents = []
        for _ in range(8):
            T = int(rng.integers(2, 8))
            gold, _ = random_rollout_tree(T, rng)
            tags = tuple(int(x) for x in rng.integers(0, 6, size=T))
            sents.append(TaggedSentence(tags, gold))
        task = make_task(tagset=6)
        pol, _ = searn_learn(task, sents, LearnerConfig(kind="nb",
                                                        smoothing=0.1),
                             beta=0.1, cfg=RolloutConfig(seed=4),
                             iterations=2)
        state = run_policy(task, sents[0], pol, np.random.default_rng(0))
        assert state.tree is not None

    def test_tag_shortcut_equals_tied_rollout_costs(self):
        # the cost of each re-emitted tag must match the stepwise task's
        # tied-randomness rollouts at its tag decision exactly, since
        # emitted tags never reach any feature
        rng = np.random.default_rng(23)
        sents = [TaggedSentence(tuple(int(x) for x in
                                      rng.integers(0, 5, size=5)))
                 for _ in range(5)]
        task = make_task(tagset=5)
        cfg = RolloutConfig(seed=31, n_samples=2)
        pol, _ = searn_learn(task, sents,
                             LearnerConfig(kind="nb", smoothing=0.5),
                             beta=0.3, cfg=cfg, iterations=2)
        assert len(pol.components) > 1
        stepwise = OracleParseTask(5)
        stepwise.interner = task.interner
        for i, sent in enumerate(sents):
            walk = _rng(cfg.seed, _PATH, i)
            state = stepwise.initial_state(sent)
            t = checked = 0
            while not stepwise.is_final(state):
                t += 1
                if stepwise.group_of(state) == "tag":
                    rolled = oracle_rolled_costs(stepwise, i, t, state, pol,
                                                 cfg)
                    np.testing.assert_array_equal(
                        rolled, task.shortcut_costs(state, checked))
                    checked += 1
                state = stepwise.apply(state, oracle_policy_act(
                    stepwise, pol, state, walk))
            assert checked == sent.n_tokens


class TestConllFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bank.conll"
        gold = DependencyTree((0, 1, 1, 3))
        sents = [TaggedSentence((3, 1, 4, 1), gold),
                 TaggedSentence((2, 2))]
        write_conll(path, sents, header_comment="fixture")
        loaded, rejected = load_conll(path)
        assert rejected == 0
        assert loaded[0].gold_tree.heads == (0, 1, 1, 3)
        assert loaded[0].tags == (3, 1, 4, 1)
        assert loaded[1].gold_tree is None

    def test_non_projective_rejected_with_count(self, tmp_path):
        path = tmp_path / "mixed.conll"
        path.write_text("1\t3\t0\n2\t1\t4\n3\t4\t1\n4\t1\t1\n"
                        "\n"
                        "1\t2\t0\n2\t2\t1\n")
        loaded, rejected = load_conll(path)
        assert rejected == 1
        assert len(loaded) == 1
        assert loaded[0].gold_tree.heads == (0, 1)

    def test_malformed_line_is_located(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("1\t3\t0\n2\t1\n")
        with pytest.raises(DataError, match="line 2"):
            load_conll(path)

    def test_index_gap_rejected(self, tmp_path):
        path = tmp_path / "gap.conll"
        path.write_text("1\t3\t0\n3\t1\t1\n")
        with pytest.raises(DataError, match="index"):
            load_conll(path)

    def test_mixed_labeling_rejected(self, tmp_path):
        path = tmp_path / "mix.conll"
        path.write_text("1\t3\t0\n2\t1\t_\n")
        with pytest.raises(DataError, match="mixes"):
            load_conll(path)


class TestConfig:
    def test_action_names_cover_action_ids(self):
        assert len(ACTION_NAMES) == 4

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ParseTask(1)

    def test_sup_run_trains_no_tag_model(self):
        # the tag group is always declared, but labeled sentences make no
        # tag examples, so a sup run's rules model the parse group alone
        assert make_task().groups() == {"parse": 4, "tag": 12}
        gold = DependencyTree((0, 1, 1))
        sents = [TaggedSentence((3, 1, 4), gold),
                 TaggedSentence((2, 5, 1), gold)]
        pol, _ = searn_learn(make_task(), sents,
                             LearnerConfig(kind="nb", smoothing=0.1),
                             beta=0.5, cfg=RolloutConfig(seed=1),
                             iterations=2)
        rules = [rule for rule, _ in pol.components]
        assert rules and all(set(rule.models) == {"parse"} for rule in rules)
