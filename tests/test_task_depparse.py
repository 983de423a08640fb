"""Parser transition system, oracle, features, losses, file format."""

import numpy as np
import pytest

from searn.core import (
    LearnerConfig,
    RolloutConfig,
    StoppingRule,
    estimate_costs,
    initial_policy,
    policy_act,
    run_policy,
    searn_learn,
)
from searn.errors import ConfigError, DataError, StateError
from searn.task_depparse import (
    ACTION_NAMES,
    INITIAL_PARSER_STATE,
    LEFT_ARC,
    REDUCE,
    RIGHT_ARC,
    SHIFT,
    DependencyTree,
    ParseTask,
    ParseTaskConfig,
    ParserState,
    TaggedSentence,
    apply_action,
    finalize,
    is_projective,
    legal_actions,
    load_conll,
    supervised_oracle,
    tree_features,
    write_conll,
)

N_RANDOM_ROLLOUTS = 10_000
N_ORACLE_TREES = 2_000


def make_task(supervision="unsup", tagset=12, max_length=10):
    return ParseTask(ParseTaskConfig(tagset_size=tagset,
                                     max_length=max_length,
                                     supervision=supervision))


def random_rollout_tree(T, rng):
    """Finalize a uniform-random legal action trace; tracks step count."""
    state = INITIAL_PARSER_STATE
    steps = 0
    while state.i <= T:
        legal = legal_actions(state, T)
        state = apply_action(state, legal[rng.integers(len(legal))], T)
        steps += 1
        seen = [d for _, d in state.arcs]
        assert len(seen) == len(set(seen)), "token with two heads"
    return finalize(state, T), steps


class TestTransitions:
    def test_initial_state_allows_only_shift(self):
        assert legal_actions(INITIAL_PARSER_STATE, T=3) == (SHIFT,)

    def test_headless_top_blocks_reduce(self):
        state = ParserState(stack=(1,), i=2, arcs=())
        assert set(legal_actions(state, T=2)) == {LEFT_ARC, RIGHT_ARC,
                                                  SHIFT}

    def test_headed_top_blocks_left_arc(self):
        state = ParserState(stack=(1,), i=2, arcs=((2, 1),))
        legal = legal_actions(state, T=2)
        assert REDUCE in legal
        assert LEFT_ARC not in legal

    def test_shift_transition(self):
        state = apply_action(INITIAL_PARSER_STATE, SHIFT, T=2)
        assert state == ParserState(stack=(1,), i=2, arcs=())

    def test_right_arc_transition(self):
        state = ParserState(stack=(1,), i=2, arcs=())
        out = apply_action(state, RIGHT_ARC, T=2)
        assert out == ParserState(stack=(2, 1), i=3, arcs=((1, 2),))

    def test_left_arc_transition(self):
        state = ParserState(stack=(1,), i=2, arcs=())
        out = apply_action(state, LEFT_ARC, T=2)
        assert out == ParserState(stack=(), i=2, arcs=((2, 1),))

    def test_illegal_actions_name_the_precondition(self):
        with pytest.raises(StateError, match="stack"):
            apply_action(INITIAL_PARSER_STATE, LEFT_ARC, T=2)
        headed = ParserState(stack=(1,), i=2, arcs=((2, 1),))
        with pytest.raises(StateError, match="head"):
            apply_action(headed, LEFT_ARC, T=2)
        drained = ParserState(stack=(1,), i=3, arcs=())
        with pytest.raises(StateError, match="input"):
            apply_action(drained, SHIFT, T=2)
        with pytest.raises(StateError, match="head"):
            apply_action(drained, REDUCE, T=2)

    def test_finalize_single_token(self):
        state = apply_action(INITIAL_PARSER_STATE, SHIFT, T=1)
        assert finalize(state, T=1).heads == (0,)

    def test_finalize_chain(self):
        state = INITIAL_PARSER_STATE
        for a in (SHIFT, RIGHT_ARC):
            state = apply_action(state, a, T=2)
        assert finalize(state, T=2).heads == (0, 1)

    def test_finalize_requires_consumed_input(self):
        with pytest.raises(StateError):
            finalize(INITIAL_PARSER_STATE, T=1)


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


class TestOracle:
    def test_chain_prefers_right_arc(self):
        gold = DependencyTree((0, 1))
        state = ParserState(stack=(1,), i=2, arcs=())
        assert supervised_oracle(state, gold, T=2) == RIGHT_ARC

    def test_reversed_chain_prefers_left_arc(self):
        gold = DependencyTree((2, 0))
        state = ParserState(stack=(1,), i=2, arcs=())
        assert supervised_oracle(state, gold, T=2) == LEFT_ARC

    def oracle_parse(self, gold):
        T = gold.n_tokens
        state = INITIAL_PARSER_STATE
        steps = 0
        while state.i <= T:
            state = apply_action(state, supervised_oracle(state, gold, T),
                                 T)
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
    def names(self, task, state, tags):
        sent = TaggedSentence(tags)
        fv = tree_features(task, state, sent)
        return fv.as_dict(task.interner)

    def test_initial_state_has_null_stack_marker(self):
        task = make_task()
        got = self.names(task, INITIAL_PARSER_STATE, (2, 0, 1))
        assert got == {"in[-2]=S": 1.0, "in[-1]=S": 1.0, "in[0]=2": 1.0,
                       "in[+1]=0": 1.0, "in[+2]=1": 1.0, "st=NULL": 1.0}

    def test_adjacent_pair_distance_and_windows(self):
        task = make_task()
        state = ParserState(stack=(1,), i=2, arcs=())
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
        state = ParserState(stack=(1,), i=1 + gap, arcs=())
        got = self.names(task, state, tags)
        assert got[f"dist={bucket}"] == 1.0

    def test_head_tag_after_right_arc(self):
        task = make_task()
        state = INITIAL_PARSER_STATE
        for a in (SHIFT, RIGHT_ARC):
            state = apply_action(state, a, T=3)
        got = self.names(task, state, (5, 2, 7))
        assert got["st.head=5"] == 1.0
        assert got["st[0]=2"] == 1.0

    def test_dependent_tag_after_left_arc(self):
        task = make_task()
        state = INITIAL_PARSER_STATE
        for a in (SHIFT, SHIFT, LEFT_ARC):
            state = apply_action(state, a, T=3)
        got = self.names(task, state, (5, 2, 7))
        assert got["in.dep=2"] == 1.0
        assert "st.head=5" not in got

    def test_no_features_past_final(self):
        task = make_task()
        state = ParserState(stack=(1,), i=3, arcs=())
        with pytest.raises(StateError):
            tree_features(task, state, TaggedSentence((1, 1)))


def action_spaces(task, sent, rng):
    """Legal action sets along the initial policy's path."""
    state = task.initial_state(sent)
    spaces = []
    while not task.is_final(state):
        spaces.append(task.legal_actions(state))
        state = task.apply(state, task.initial_action(state, rng))
    return spaces


class TestDecompose:
    def test_phase_one_bounded_by_twice_length(self):
        task = make_task(supervision="sup")
        gold, _ = random_rollout_tree(7, np.random.default_rng(5))
        sent = TaggedSentence(tuple(range(7)), gold)
        spaces = action_spaces(task, sent, np.random.default_rng(0))
        assert len(spaces) <= 14
        assert spaces[0] == (SHIFT,)

    def test_unsupervised_adds_one_tag_decision_per_token(self):
        task = make_task()
        sent = TaggedSentence((3, 1, 4, 1, 5, 9, 2))
        spaces = action_spaces(task, sent, np.random.default_rng(8))
        assert len([s for s in spaces if len(s) == 12]) == 7
        assert len(spaces) <= 2 * 7 + 7

    def test_sup_without_gold_rejected(self):
        task = make_task(supervision="sup")
        with pytest.raises(DataError):
            task.initial_state(TaggedSentence((1, 2)))


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
        got = task.features(state).as_dict(task.interner)
        assert got == {"parent=ROOT": 1.0, "daughter=2": 1.0}

    def test_parent_and_root_grandparent(self):
        task = make_task()
        sent = TaggedSentence((5, 2, 7))
        state = drive(task, sent, [SHIFT, RIGHT_ARC, RIGHT_ARC, 0])
        got = task.features(state).as_dict(task.interner)
        assert got == {"parent=5": 1.0, "grand=ROOT": 1.0,
                       "daughter=7": 1.0}

    def test_aunt_tags(self):
        task = make_task()
        sent = TaggedSentence((5, 2, 7, 3))
        state = drive(task, sent, [SHIFT, RIGHT_ARC, REDUCE, RIGHT_ARC,
                                   RIGHT_ARC, 0, 0, 0])
        assert state.tree.heads == (0, 1, 1, 3)
        got = task.features(state).as_dict(task.interner)
        assert got == {"parent=7": 1.0, "grand=5": 1.0, "aunt=2": 1.0}

    def test_own_tag_never_appears(self):
        # token 2 carries the only occurrence of tag 9; none of its
        # phase-2 features may mention it
        task = make_task()
        sent = TaggedSentence((5, 9, 7))
        state = drive(task, sent, [SHIFT, RIGHT_ARC, RIGHT_ARC, 0])
        got = task.features(state).as_dict(task.interner)
        assert all("9" not in name for name in got)


class TestLosses:
    def test_unsup_zero_when_tags_reproduced(self):
        task = make_task()
        sent = TaggedSentence((3, 1, 4))
        state = drive(task, sent, [SHIFT, SHIFT, SHIFT, 3, 1, 4])
        assert task.rollout_loss(state, sent) == 0.0

    def test_unsup_counts_mismatches(self):
        task = make_task()
        sent = TaggedSentence((3, 1, 4))
        state = drive(task, sent, [SHIFT, SHIFT, SHIFT, 3, 0, 0])
        assert task.rollout_loss(state, sent) == 2.0

    def test_unsup_ignores_gold(self):
        task = make_task()
        gold = DependencyTree((0, 1, 2))
        bare = TaggedSentence((3, 1, 4))
        rich = TaggedSentence((3, 1, 4), gold)
        actions = [SHIFT, SHIFT, SHIFT, 3, 1, 0]
        loss_bare = task.rollout_loss(drive(task, bare, actions), bare)
        loss_rich = task.rollout_loss(drive(task, rich, actions), rich)
        assert loss_bare == loss_rich == 1.0

    def test_sup_loss_is_wrong_head_fraction(self):
        task = make_task(supervision="sup")
        gold = DependencyTree((0, 1, 1, 3))
        sent = TaggedSentence((3, 1, 4, 1), gold)
        state = drive(task, sent, [SHIFT, SHIFT, SHIFT, SHIFT])
        assert state.tree.heads == (0, 0, 0, 0)
        assert task.rollout_loss(state, sent) == pytest.approx(0.75)

    def test_semi_dispatches_on_gold_presence(self):
        task = make_task(supervision="semi")
        gold = DependencyTree((0, 1))
        labeled = TaggedSentence((3, 1), gold)
        state = drive(task, labeled, [SHIFT, SHIFT])
        assert task.is_final(state)
        assert task.rollout_loss(state, labeled) == pytest.approx(0.5)
        bare = TaggedSentence((3, 1))
        state = drive(task, bare, [SHIFT, SHIFT, 0, 1])
        assert task.is_final(state)
        assert task.rollout_loss(state, bare) == 1.0


class TestRolloutIntegration:
    def test_initial_policy_rollouts_are_deterministic(self):
        task = make_task()
        sent = TaggedSentence((3, 1, 4, 1, 5))
        a = run_policy(task, sent, initial_policy(),
                       np.random.default_rng(2))
        b = run_policy(task, sent, initial_policy(),
                       np.random.default_rng(2))
        assert a.ps == b.ps
        assert a.produced == b.produced

    def test_supervised_learning_round(self):
        rng = np.random.default_rng(13)
        sents = []
        for _ in range(8):
            T = int(rng.integers(2, 8))
            gold, _ = random_rollout_tree(T, rng)
            tags = tuple(int(x) for x in rng.integers(0, 6, size=T))
            sents.append(TaggedSentence(tags, gold))
        task = make_task(supervision="sup", tagset=6)
        pol = searn_learn(task, sents, LearnerConfig(kind="nb",
                                                     smoothing=0.1),
                          beta=0.1, cfg=RolloutConfig(seed=4),
                          stopping=StoppingRule(max_iterations=2))
        state = run_policy(task, sents[0], pol, np.random.default_rng(0))
        assert state.tree is not None

    def test_tag_shortcut_equals_tied_rollout_costs(self):
        # the fast path at tag decisions must match tied-randomness
        # rollouts exactly, since produced tags never reach any feature
        rng = np.random.default_rng(23)
        sents = [TaggedSentence(tuple(int(x) for x in
                                      rng.integers(0, 5, size=5)))
                 for _ in range(5)]
        task = make_task(tagset=5)
        cfg = RolloutConfig(seed=31, n_samples=2)
        pol = searn_learn(task, sents,
                          LearnerConfig(kind="nb", smoothing=0.5),
                          beta=0.3, cfg=cfg,
                          stopping=StoppingRule(max_iterations=2,
                                                patience=None))
        sent = sents[0]
        walk = np.random.default_rng(37)
        state = task.initial_state(sent)
        prefix = []
        checked = 0
        while not task.is_final(state):
            t = len(prefix) + 1
            shortcut = task.shortcut_costs(state)
            if shortcut is not None:
                rolled = estimate_costs(task, sent, t, tuple(prefix),
                                        pol, cfg)
                np.testing.assert_array_equal(rolled, shortcut)
                checked += 1
            else:
                assert task.group_of(state) == "parse"
            action = policy_act(pol, state, walk)
            prefix.append(action)
            state = task.apply(state, action)
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

    def test_predicted_trees_override_gold(self, tmp_path):
        path = tmp_path / "pred.conll"
        gold = DependencyTree((0, 1))
        pred = DependencyTree((2, 0))
        write_conll(path, [TaggedSentence((1, 1), gold)], trees=[pred])
        loaded, _ = load_conll(path)
        assert loaded[0].gold_tree.heads == (2, 0)

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

    def test_tree_count_mismatch(self, tmp_path):
        with pytest.raises(ConfigError):
            write_conll(tmp_path / "x.conll",
                        [TaggedSentence((1,))], trees=[])


class TestConfig:
    def test_action_names_cover_action_ids(self):
        assert len(ACTION_NAMES) == 4

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ParseTaskConfig(tagset_size=1)
        with pytest.raises(ConfigError):
            ParseTaskConfig(tagset_size=5, supervision="full")
        with pytest.raises(ConfigError):
            ParseTaskConfig(tagset_size=5, max_length=0)

    def test_sup_task_has_no_tag_group(self):
        assert set(make_task(supervision="sup").groups()) == {"parse"}
        assert set(make_task().groups()) == {"parse", "tag"}
