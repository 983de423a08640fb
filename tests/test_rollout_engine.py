"""The rollout engine against the per-step path it replaced.

The reference below is the engine before legality was computed once per
step, before model decisions and sequence features were memoized, before
the parser kept incremental heads, before one SeedSequence served every
candidate of a deviation, and before the re-emission left the step
engine: its tasks step through the tag or emission phase, one decision
per observed symbol, and cost each such decision by a per-state
shortcut.  Both engines learn side by side, each with its own task,
interner and models, and must agree bit for bit.
"""

from typing import NamedTuple

import numpy as np
import pytest

from searn.classifiers import NBModel
from searn.core import (
    _PATH,
    _ROLLOUT,
    INITIAL_RULE,
    CostSensitiveExample,
    GeneratedExamples,
    InitialRule,
    LearnedRule,
    LearnerConfig,
    Policy,
    RolloutConfig,
    Task,
    _constant_costs,
    _emitted,
    _rng,
    generate_examples,
    initial_policy,
    interpolate_policy,
    policy_act,
    run_policy,
    train_rule,
    vector_action,
)
from searn.errors import StateError
from searn.features import FeatureVector, Interner
from searn.task_depparse import (
    LEFT_ARC,
    PARSE,
    REDUCE,
    RIGHT_ARC,
    SHIFT,
    TAG,
    ParserState,
    ParseState,
    ParseTask,
    TaggedSentence,
    _distance_bucket,
    _window_pairs,
    finalize,
    initial_parser_state,
    supervised_oracle,
)
from searn.task_sequence import (EMIT, LATENT, SeqState, SequenceTask,
                                 SequenceTaskConfig)

# ---------------------------------------------------------------------------
# The reference engine


def oracle_model_action(task, model, state):
    legal = task.legal_actions(state)
    if not legal:
        raise StateError("no legal action available")
    costs = model.predict_costs(task.features(state))
    return min(legal, key=lambda a: (costs[a], a))


def oracle_policy_act(task, pol, state, rng):
    legal = task.legal_actions(state)
    if not legal:
        raise StateError("no legal action at this state")
    rule = pol.components[0][0]
    if len(pol.components) > 1:
        u = rng.random()
        acc = 0.0
        for r, w in pol.components:
            acc += w
            rule = r
            if u < acc:
                break
    if isinstance(rule, InitialRule):
        return task.initial_action(state, legal, rng)
    model = rule.models.get(task.group_of(state))
    if model is None:
        return task.initial_action(state, legal, rng)
    return oracle_model_action(task, model, state)


def oracle_run_to_completion(task, state, pol, rng):
    while not task.is_final(state):
        state = task.apply(state, oracle_policy_act(task, pol, state, rng))
    return state


def oracle_run_policy(task, example, pol, rng):
    final = oracle_run_to_completion(task, task.initial_state(example), pol,
                                     rng)
    task.validate_final(final)
    return final


def oracle_costs_at_state(task, example, example_id, t, state, pol, cfg):
    shortcut = task.shortcut_costs(state)
    if shortcut is not None:
        costs = np.asarray(shortcut, dtype=float)
        return costs - costs.min()
    return oracle_rolled_costs(task, example_id, t, state, pol, cfg)


def oracle_rolled_costs(task, example_id, t, state, pol, cfg):
    legal = task.legal_actions(state)
    costs = np.zeros(len(legal))
    for s in range(cfg.n_samples):
        for k, action in enumerate(legal):
            rng = _rng(cfg.seed, _ROLLOUT, example_id, t, s)
            final = oracle_run_to_completion(task, task.apply(state, action),
                                             pol, rng)
            costs[k] += task.rollout_loss(final)
    costs /= cfg.n_samples
    return costs - costs.min()


def oracle_generate_examples(dataset, pol, task, cfg):
    out = []
    for example_id, example in enumerate(dataset):
        path_rng = _rng(cfg.seed, _PATH, example_id)
        state = task.initial_state(example)
        t = 0
        while not task.is_final(state):
            t += 1
            legal = task.legal_actions(state)
            if len(legal) >= 2:
                costs = oracle_costs_at_state(task, example, example_id, t,
                                              state, pol, cfg)
                if not _constant_costs(costs):
                    out.append(CostSensitiveExample(
                        features=task.features(state), actions=tuple(legal),
                        costs=costs, group=task.group_of(state)))
            state = task.apply(state, oracle_policy_act(task, pol, state,
                                                        path_rng))
        task.validate_final(state)
    return GeneratedExamples(out, {})


class OracleSequenceTask:
    """The sequence task in 2T steps: T latent labels, then T emissions of
    the observed symbols; legality and features rebuilt from the state on
    every call."""

    weight_mode = "argmin_spread"

    def __init__(self, config):
        self.config = config
        self.interner = Interner()

    def groups(self):
        return {LATENT: self.config.K, EMIT: self.config.V}

    def initial_state(self, x):
        return SeqState(tuple(int(v) for v in x), ())

    def is_final(self, state):
        return len(state.actions) == 2 * len(state.x)

    def group_of(self, state):
        return LATENT if len(state.actions) < len(state.x) else EMIT

    def legal_actions(self, state):
        n = self.config.K if self.group_of(state) == LATENT else self.config.V
        return tuple(range(n))

    def initial_action(self, state, legal, rng):
        if self.group_of(state) == LATENT:
            return int(rng.integers(self.config.K))
        return state.x[len(state.actions) - len(state.x)]

    def apply(self, state, action):
        return SeqState(state.x, state.actions + (int(action),))

    def emitted(self, final):
        return final.actions[len(final.x):]

    def rollout_loss(self, final):
        return float(sum(1 for e, v in zip(self.emitted(final), final.x)
                         if e != v))

    def shortcut_costs(self, state):
        """Emissions: the mismatch indicator."""
        if self.group_of(state) == LATENT:
            return None
        truth = state.x[len(state.actions) - len(state.x)]
        return np.array([float(a != truth) for a in range(self.config.V)])

    def validate_final(self, final):
        assert len(final.actions) == 2 * len(final.x)

    def features(self, state):
        x, actions = state.x, state.actions
        T = len(x)
        t = len(actions) + 1
        if t <= T:
            prev = actions[t - 2] if t > 1 else "START"
            names = ["bias", f"prev={prev}"]
            if self.config.feature_mode == "lr_window":
                left = x[t - 2] if t > 1 else "S"
                right = x[t] if t < T else "E"
                names += [f"x[-1]={left}", f"x[0]={x[t - 1]}",
                          f"x[+1]={right}"]
            return FeatureVector.from_names(self.interner, names)
        return FeatureVector.from_names(self.interner,
                                        [f"emit_label={actions[t - T - 1]}"])


def _head_in(arcs, dependent):
    for h, d in arcs:
        if d == dependent:
            return h
    return None


def oracle_parser_legal(ps, T):
    out = []
    if ps.stack and ps.i <= T:
        if _head_in(ps.arcs, ps.stack[0]) is None:
            out.append(LEFT_ARC)
        if _head_in(ps.arcs, ps.i) is None:
            out.append(RIGHT_ARC)
    if ps.stack and _head_in(ps.arcs, ps.stack[0]) is not None:
        out.append(REDUCE)
    if ps.i <= T:
        out.append(SHIFT)
    return tuple(out)


def oracle_parser_state(stack, i, arcs, T):
    heads = tuple(_head_in(arcs, d) or 0 for d in range(T + 1))
    return ParserState(stack, i, arcs, heads)


def oracle_apply_action(ps, action, T):
    if action not in oracle_parser_legal(ps, T):
        raise StateError(f"illegal parser action {action!r}")
    stack, i, arcs, _ = ps
    if action == LEFT_ARC:
        return oracle_parser_state(stack[1:], i, arcs + ((i, stack[0]),), T)
    if action == RIGHT_ARC:
        return oracle_parser_state((i,) + stack, i + 1,
                                   arcs + ((stack[0], i),), T)
    if action == REDUCE:
        return oracle_parser_state(stack[1:], i, arcs, T)
    return oracle_parser_state((i,) + stack, i + 1, arcs, T)


def oracle_tree_features(task, ps, sent):
    tags = sent.tags
    T = sent.n_tokens
    i = ps.i
    pairs = list(_window_pairs("in", i, tags, T))
    if not ps.stack:
        pairs.append(("st=NULL", 1.0))
    else:
        top = ps.stack[0]
        pairs.extend(_window_pairs("st", top, tags, T))
        pairs.append((f"pair={tags[top - 1]}|{tags[i - 1]}", 1.0))
        pairs.append((f"dist={_distance_bucket(i - top)}", 1.0))
        for node, prefix in ((top, "st"), (i, "in")):
            head = _head_in(ps.arcs, node)
            if head is not None:
                pairs.append((f"{prefix}.head={tags[head - 1]}", 1.0))
            for h, d in ps.arcs:
                if h == node:
                    pairs.append((f"{prefix}.dep={tags[d - 1]}", 1.0))
    return FeatureVector.from_pairs(task.interner, pairs)


def oracle_tag_features(task, state):
    """Tags of the parent, grandparent, aunts and daughters of the next
    token to tag, read off the finished tree."""
    tags, heads = state.sent.tags, state.tree.heads
    token = len(state.produced) + 1

    def children(node):
        return [d for d in range(1, len(tags) + 1) if heads[d - 1] == node]

    def tag(node):
        return "ROOT" if node == 0 else tags[node - 1]

    parent = heads[token - 1]
    pairs = [(f"parent={tag(parent)}", 1.0)]
    if parent:
        grand = heads[parent - 1]
        pairs.append((f"grand={tag(grand)}", 1.0))
        pairs += [(f"aunt={tags[a - 1]}", 1.0) for a in children(grand)
                  if a != parent]
    pairs += [(f"daughter={tags[d - 1]}", 1.0) for d in children(token)]
    return FeatureVector.from_pairs(task.interner, pairs)


class OracleParseState(NamedTuple):
    sent: TaggedSentence
    ps: ParserState
    produced: tuple
    tree: object


class OracleParseTask:
    """The parser with its tag phase in steps: a sentence with no gold
    tree tags each token once the tree is built.  Parser state is kept as
    the arc list alone, scanned on every call."""

    weight_mode = "argmin_spread"

    def __init__(self, tagset_size):
        self.tagset_size = tagset_size
        self.interner = Interner()

    def groups(self):
        return {PARSE: 4, TAG: self.tagset_size}

    def initial_state(self, sent):
        return OracleParseState(sent, initial_parser_state(sent.n_tokens),
                                (), None)

    def is_final(self, state):
        T = state.sent.n_tokens
        return state.ps.i > T and (state.sent.gold_tree is not None
                                   or len(state.produced) == T)

    def group_of(self, state):
        return PARSE if state.ps.i <= state.sent.n_tokens else TAG

    def legal_actions(self, state):
        if state.ps.i <= state.sent.n_tokens:
            return oracle_parser_legal(state.ps, state.sent.n_tokens)
        return tuple(range(self.tagset_size))

    def features(self, state):
        if state.ps.i <= state.sent.n_tokens:
            return oracle_tree_features(self, state.ps, state.sent)
        return oracle_tag_features(self, state)

    def initial_action(self, state, legal, rng):
        sent = state.sent
        if state.ps.i > sent.n_tokens:
            return sent.tags[len(state.produced)]
        if sent.gold_tree is not None:
            return supervised_oracle(state.ps, sent.gold_tree, legal)
        return legal[int(rng.integers(len(legal)))]

    def apply(self, state, action):
        T = state.sent.n_tokens
        if state.ps.i <= T:
            ps = oracle_apply_action(state.ps, action, T)
            tree = finalize(ps, T) if ps.i == T + 1 else None
            return OracleParseState(state.sent, ps, (), tree)
        if not 0 <= action < self.tagset_size:
            raise StateError(f"tag {action} outside the tagset")
        return state._replace(produced=state.produced + (action,))

    def emitted(self, final):
        return final.produced

    def rollout_loss(self, final):
        sent, gold = final.sent, final.sent.gold_tree
        if gold is not None:
            return sum(final.tree.heads[d] != gold.heads[d]
                       for d in range(sent.n_tokens)) / sent.n_tokens
        return float(sum(p != t for p, t in zip(final.produced, sent.tags)))

    def shortcut_costs(self, state):
        """Tag decisions: the mismatch indicator."""
        if state.ps.i <= state.sent.n_tokens:
            return None
        truth = state.sent.tags[len(state.produced)]
        return np.array([float(a != truth)
                         for a in range(self.tagset_size)])

    def validate_final(self, final):
        assert final.ps.i == final.sent.n_tokens + 1
        assert self.is_final(final)


# ---------------------------------------------------------------------------
# Comparison


def assert_same_examples(new, old):
    assert len(new.cost_examples) == len(old.cost_examples)
    for a, b in zip(new.cost_examples, old.cost_examples):
        assert a.features.ids == b.features.ids
        assert a.features.values == b.features.values
        assert a.actions == b.actions
        assert a.costs.tobytes() == b.costs.tobytes()
        assert a.group == b.group
    assert new.estimation_records == old.estimation_records == {}


def hidden_key(state):
    """The hidden half of a package or reference final."""
    if isinstance(state, (ParseState, OracleParseState)):
        return state.ps, state.tree.heads
    return state.actions[:len(state.x)]


def learn_side_by_side(new, old, data, learner, beta, cfg, iterations=2,
                       drop=None):
    """Generate, train and interpolate with both engines; compare the
    examples of every iteration, then decode with both mixtures.  Each
    learned rule loses its model of group ``drop``, if given, so that the
    group falls back to the initial rule."""
    pol_new = pol_old = initial_policy()
    n_examples = 0
    for it in range(iterations):
        it_cfg = RolloutConfig(n_samples=cfg.n_samples, seed=cfg.seed + it)
        gen_new = generate_examples(data, pol_new, new, it_cfg)
        gen_old = oracle_generate_examples(data, pol_old, old, it_cfg)
        assert_same_examples(gen_new, gen_old)
        n_examples += len(gen_new.cost_examples)
        rule_new = train_rule(new, gen_new, learner)
        rule_old = train_rule(old, gen_old, learner)
        for rule in (rule_new, rule_old):
            rule.models.pop(drop, None)
        pol_new = interpolate_policy(pol_new, rule_new, beta)
        pol_old = interpolate_policy(pol_old, rule_old, beta)
    for i, x in enumerate(data):
        rng_new, rng_old = np.random.default_rng(i), np.random.default_rng(i)
        f_new = run_policy(new, x, pol_new, rng_new)
        emitted = _emitted(new, f_new, pol_new, rng_new)
        f_old = oracle_run_policy(old, x, pol_old, rng_old)
        assert hidden_key(f_new) == hidden_key(f_old)
        assert emitted == old.emitted(f_old)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
    assert new.interner.names() == old.interner.names()
    assert n_examples > 0
    return pol_new


def random_sequences(V, n, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, 7, size=n)
    return [tuple(int(v) for v in rng.integers(0, V, size=T))
            for T in lengths]


def random_tree(T, rng):
    ps = initial_parser_state(T)
    while ps.i <= T:
        legal = oracle_parser_legal(ps, T)
        ps = oracle_apply_action(ps, legal[int(rng.integers(len(legal)))], T)
    return finalize(ps, T)


def random_sentences(tagset, n, seed, labeled):
    rng = np.random.default_rng(seed)
    out = []
    for j in range(n):
        T = int(rng.integers(2, 7))
        tags = tuple(int(t) for t in rng.integers(0, tagset, size=T))
        gold = random_tree(T, rng) if labeled(j) else None
        out.append(TaggedSentence(tags, gold))
    return out


# ---------------------------------------------------------------------------
# Cases


def _sequence_case(mode, kind, n_samples, K=3, iterations=2, beta=0.5,
                   drop=None):
    name = f"{mode}-{kind}-{n_samples}"
    if (K, iterations, beta, drop) != (3, 2, 0.5, None):
        name += f"-K{K}-{iterations}it-beta{beta}"
        if drop is not None:
            name += f"-no-{drop}"
    return pytest.param(mode, kind, n_samples, K, iterations, beta, drop,
                        id=name)


# Four iterations at beta 0.4 reach a four-component mixture in which the
# initial rule keeps weight; a dropped group makes every learned rule fall
# back to the initial rule's draws there.
@pytest.mark.parametrize("mode,kind,n_samples,K,iterations,beta,drop", [
    _sequence_case("nb_hmm", "nb", 2),
    _sequence_case("lr_window", "lr", 1),
    _sequence_case("nb_hmm", "nb", 1),
    _sequence_case("lr_window", "lr", 2),
    *(_sequence_case(mode, kind, 2, K, 4, 0.4)
      for mode, kind in (("nb_hmm", "nb"), ("lr_window", "lr"))
      for K in (2, 3, 4)),
    *(_sequence_case(mode, kind, 1, K, 4, 0.4, drop)
      for mode, kind, K in (("nb_hmm", "nb", 2), ("lr_window", "lr", 3))
      for drop in (LATENT, EMIT)),
])
def test_sequence_matches_reference(mode, kind, n_samples, K, iterations,
                                    beta, drop):
    config = SequenceTaskConfig(K=K, V=4, feature_mode=mode)
    learner = LearnerConfig(kind=kind, smoothing=0.5)
    learn_side_by_side(SequenceTask(config), OracleSequenceTask(config),
                       random_sequences(4, 6, seed=11), learner, beta=beta,
                       cfg=RolloutConfig(n_samples=n_samples, seed=5),
                       iterations=iterations, drop=drop)


@pytest.mark.parametrize("mode", ["nb_hmm", "lr_window"])
def test_sequence_rollout_finals_match_default_per_state(mode):
    # at every deviation state, each side on a copy of the interner with
    # an empty memo, so that every name's first lookup is visible
    config = SequenceTaskConfig(K=3, V=4, feature_mode=mode)
    task = SequenceTask(config)
    data = random_sequences(4, 6, seed=61)
    learner = LearnerConfig(kind="nb" if mode == "nb_hmm" else "lr",
                            smoothing=0.5)
    pol = initial_policy()
    policies = [pol]
    for it, drop in enumerate((None, EMIT, LATENT)):
        rule = train_rule(task, generate_examples(
            data, pol, task, RolloutConfig(seed=it)), learner)
        rule.models.pop(drop, None)
        if drop is None:
            policies.append(Policy(((rule, 1.0),)))
        pol = interpolate_policy(pol, rule, 0.4)
        policies.append(pol)
    fast, default = SequenceTask(config), SequenceTask(config)
    n_states = 0
    for pol in policies:
        for i, x in enumerate(data):
            state = task.initial_state(x)
            path = np.random.default_rng(i)
            t = 0
            while not task.is_final(state):
                t += 1
                legal = task.legal_actions(state)
                seq = np.random.SeedSequence(7, spawn_key=(_ROLLOUT, i, t, 0))
                for side in (fast, default):
                    side.interner = Interner(task.interner.names())
                limit = task.max_decisions(x)
                got = fast.rollout_finals(state, legal, pol, seq, t, limit)
                want = Task.rollout_finals(default, state, legal, pol, seq, t,
                                           limit)
                assert got == want
                assert fast.interner.names() == default.interner.names()
                n_states += 1
                state = task.apply(state, policy_act(task, pol, state, legal,
                                                     path))
    assert n_states > 0


@pytest.mark.parametrize("supervision,kind", [
    ("unsup", "lr"), ("unsup", "nb"), ("sup", "nb"), ("semi", "lr"),
])
def test_depparse_matches_reference(supervision, kind):
    # the mode only decides which sentences carry their gold tree
    labeled = {"unsup": lambda j: False, "sup": lambda j: True,
               "semi": lambda j: j % 2 == 0}[supervision]
    data = random_sentences(4, 5, seed=21, labeled=labeled)
    learner = LearnerConfig(kind=kind, smoothing=0.5)
    learn_side_by_side(ParseTask(4), OracleParseTask(4), data,
                       learner, beta=0.5,
                       cfg=RolloutConfig(n_samples=2, seed=9))


def _uniform_nb(n_classes, n_features):
    return NBModel(class_log_prior=np.full(n_classes, -np.log(n_classes)),
                   feature_log_prob=np.full((n_classes, n_features),
                                            -np.log(n_features)),
                   smoothing=1.0)


def test_cost_ties_go_to_lowest_id():
    # every predicted cost ties, so each decision is the lowest legal id,
    # and a memoized choice for one legal set is not reused for another
    config = SequenceTaskConfig(K=3, V=4, feature_mode="nb_hmm")
    new, old = SequenceTask(config), OracleSequenceTask(config)
    data = random_sequences(4, 5, seed=41)
    for task in (new, old):
        task.interner.intern("bias")
    rule = LearnedRule({LATENT: _uniform_nb(3, 1), EMIT: _uniform_nb(4, 1)})
    pol = Policy(((INITIAL_RULE, 0.5), (rule, 0.5)))
    cfg = RolloutConfig(n_samples=2, seed=13)
    assert_same_examples(generate_examples(data, pol, new, cfg),
                         oracle_generate_examples(data, pol, old, cfg))
    greedy = Policy(((rule, 1.0),))
    for i, x in enumerate(data):
        rng = np.random.default_rng(i)
        final = run_policy(new, x, greedy, rng)
        assert final.actions + _emitted(new, final, greedy, rng) == \
            (0,) * (2 * len(x))
        assert final.actions == hidden_key(
            oracle_run_policy(old, x, greedy, np.random.default_rng(i)))
    state = new.initial_state(data[0])
    model = rule.models[LATENT]
    fv = new.features(state)
    assert vector_action(model, fv, (1, 2)) == 1
    assert vector_action(model, fv, (0, 1, 2)) == 0
    assert vector_action(model, fv, (2,)) == 2


def test_parse_steps_match_reference_per_state():
    # a fresh interner per state makes the order in which one call
    # interns its names visible (two dependents of one node, say)
    task = ParseTask(6)
    rng = np.random.default_rng(51)
    for sent in random_sentences(6, 300, seed=52,
                                 labeled=lambda j: False):
        state = task.initial_state(sent)
        T = sent.n_tokens
        while state.ps.i <= T:
            legal = task.legal_actions(state)
            assert legal == oracle_parser_legal(state.ps, T)
            fresh, reference = ParseTask(6), OracleParseTask(6)
            assert fresh.features(state) == oracle_tree_features(
                reference, state.ps, sent)
            assert fresh.interner.names() == reference.interner.names()
            action = legal[int(rng.integers(len(legal)))]
            after = task.apply(state, action)
            assert after.ps == oracle_apply_action(state.ps, action, T)
            state = after
        assert state.tree.heads == finalize(state.ps, T).heads


def _tag_phase_policies():
    """A two-iteration parser's last rule alone, mixed with the initial
    rule, and mixed with a copy of itself that has no tag model."""
    data = random_sentences(5, 12, seed=71, labeled=lambda j: False)
    task = ParseTask(5)
    learner = LearnerConfig(kind="nb", smoothing=0.5)
    pol = initial_policy()
    for it in range(2):
        rule = train_rule(task, generate_examples(
            data, pol, task, RolloutConfig(seed=it)), learner)
        pol = interpolate_policy(pol, rule, 0.5)
    assert set(rule.models) == {PARSE, TAG}
    untagged = LearnedRule({PARSE: rule.models[PARSE]})
    return task, data, {
        "one-rule": Policy(((rule, 1.0),)),
        "with-initial": Policy(((INITIAL_RULE, 0.3), (rule, 0.7))),
        "no-tag-model": Policy(((untagged, 0.5), (rule, 0.5))),
    }


@pytest.mark.parametrize("mixture", ["one-rule", "with-initial",
                                     "no-tag-model"])
def test_emitted_leaves_the_stream_where_the_tag_phase_does(mixture):
    # the re-emission draws what the stepwise tag phase drew, in the same
    # order, and nothing more
    task, data, policies = _tag_phase_policies()
    pol = policies[mixture]
    reference = OracleParseTask(5)
    reference.interner = task.interner
    n_changed = 0
    for i, sent in enumerate(data):
        rng, stepwise = np.random.default_rng(i), np.random.default_rng(i)
        final = run_policy(task, sent, pol, rng)
        emitted = _emitted(task, final, pol, rng)
        old = oracle_run_policy(reference, sent, pol, stepwise)
        assert hidden_key(final) == hidden_key(old)
        assert emitted == old.produced
        assert rng.bit_generator.state == stepwise.bit_generator.state
        n_changed += emitted != sent.tags
    assert n_changed > 0
