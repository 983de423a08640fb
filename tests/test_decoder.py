"""Decoding runs each task itself, whose steps end at the hidden half.

The reference is the path decoding took before: the stepwise tasks of
``test_rollout_engine``, tag or emission phase included, on the same
per-input streams and the trained task's interner.  Decoding must give
the same trees and latent labels, and its final states must hold the
hidden half alone.
"""

import numpy as np
import pytest
from test_rollout_engine import (OracleParseTask, OracleSequenceTask,
                                 oracle_run_policy)

from searn.core import (LearnedRule, LearnerConfig, Policy, RolloutConfig,
                        _emitted, derive_seed, initial_policy, run_policy,
                        searn_learn)
from searn.datagen import (HmmGenConfig, TreebankGenConfig, gen_hmm_dataset,
                           gen_hmm_params, gen_treebank)
from searn.em import mm_random_init
from searn.errors import StateError, TaskContractError
from searn.experiments import (ParseExperiment, decode, decode_trees,
                               parse_training_data, train_parser)
from searn.task_cluster import ClusterTask, ClusterTaskConfig
from searn.task_depparse import ParseTask, TaggedSentence
from searn.task_sequence import (EMIT, LATENT, SeqState, SequenceTask,
                                 SequenceTaskConfig, latent_labels)

SEEDS = (0, 1, 2)
KEY = (9, 4)
TAGSET = 6


def _full_task_finals(task, policy, inputs, seed):
    """The old decode: every input run to the final state of the stepwise
    task, tag or emission phase included, through ``task``'s interner."""
    if isinstance(task, ParseTask):
        stepwise = OracleParseTask(task.tagset_size)
    else:
        stepwise = OracleSequenceTask(task.config)
    stepwise.interner = task.interner
    return [oracle_run_policy(stepwise, x, policy, np.random.default_rng(
        derive_seed(seed, *KEY, i))) for i, x in enumerate(inputs)]


# ---------------------------------------------------------------------------
# Parsing


@pytest.fixture(scope="module")
def treebank():
    bank = gen_treebank(TreebankGenConfig(n_sentences=230, seed=5,
                                          tagset_size=TAGSET))
    return bank[:30], bank[30:]


# (supervision, kind, beta, iterations): beta 1 leaves one learned rule,
# beta 0.5 over two iterations a two-rule mixture
_PARSERS = [("unsup", "lr", 1.0, 1), ("unsup", "lr", 0.5, 2),
            ("semi", "nb", 1.0, 1), ("semi", "nb", 0.5, 2),
            ("sup", "nb", 1.0, 1), ("sup", "lr", 0.5, 2)]


@pytest.fixture(scope="module", params=_PARSERS,
                ids=["-".join(map(str, p)) for p in _PARSERS])
def parser(request, treebank):
    supervision, kind, beta, iterations = request.param
    train, _ = treebank
    exp = ParseExperiment(n_sentences=620, tagset_size=TAGSET, beta=beta,
                          n_samples=1, iterations=iterations,
                          tree_variance=10.0, tag_variance=10.0)
    data = parse_training_data(train, supervision,
                               None if supervision == "unsup" else 10)
    task, policy, _ = train_parser(exp, data, seed=3, kind=kind,
                                   smoothing=1.0)
    assert len(policy.components) == (1 if beta == 1.0 else 2)
    return task, policy


def _unlabeled(sentences):
    return [TaggedSentence(s.tags) for s in sentences]


@pytest.mark.parametrize("seed", SEEDS)
def test_decoded_trees_match_the_full_task(parser, treebank, seed):
    task, policy = parser
    _, test = treebank
    assert len(test) >= 200
    old = [s.tree.heads for s in
           _full_task_finals(task, policy, _unlabeled(test), seed)]
    new = [t.heads for t in decode_trees(task, policy, test, seed, *KEY)]
    assert new == old


def test_random_policy_trees_match_the_full_task(treebank):
    _, test = treebank
    task = ParseTask(TAGSET)
    old = [s.tree.heads for s in
           _full_task_finals(task, initial_policy(), _unlabeled(test), 0)]
    assert [t.heads for t in decode_trees(task, initial_policy(), test, 0,
                                          *KEY)] == old


def test_parse_decoder_states_hold_no_tags(parser, treebank):
    task, policy = parser
    _, test = treebank
    sentences = _unlabeled(test[:40])
    for state in decode(task, policy, sentences, 0, *KEY, runner=run_policy):
        assert not hasattr(state, "produced")
        assert state.ps.i == state.sent.n_tokens + 1
        assert state.tree is not None
    # the stepwise task tags every unlabeled sentence
    assert all(len(s.produced) == s.sent.n_tokens for s in
               _full_task_finals(task, policy, sentences, 0))


def test_parse_decoder_shares_the_interner(parser, treebank):
    # decoding runs the trained task, so it reads the feature ids the
    # models were trained on, and it builds no tag feature
    task, policy = parser
    _, test = treebank
    before = task.interner.names()
    decode(task, policy, _unlabeled(test), 0, *KEY, runner=run_policy)
    names = task.interner.names()
    assert names[:len(before)] == before
    assert not [n for n in names[len(before):]
                if n.split("=")[0] in ("parent", "grand", "aunt",
                                       "daughter")]


def test_parse_decoder_needs_the_tree(parser, treebank):
    task, policy = parser
    _, test = treebank
    state = decode(task, policy, _unlabeled(test[:1]), 0, *KEY,
                   runner=run_policy)[0]
    task.validate_final(state)
    with pytest.raises(StateError):
        task.validate_final(task.initial_state(state.sent))


# ---------------------------------------------------------------------------
# Sequence labelling


@pytest.fixture(scope="module")
def sequences():
    gen = HmmGenConfig(order=1, K=2, V=6, n_sequences=70, mean_length=12,
                       seed=8)
    data = [x for x, _ in gen_hmm_dataset(gen_hmm_params(gen), gen)]
    return data[:10], data[10:]


@pytest.fixture(scope="module", params=[("nb_hmm", "nb"), ("lr_window", "lr")],
                ids=["nb_hmm", "lr_window"])
def labeler(request, sequences):
    mode, kind = request.param
    train, _ = sequences
    task = SequenceTask(SequenceTaskConfig(K=2, V=6, feature_mode=mode))
    policy, _ = searn_learn(task, train,
                            LearnerConfig(kind=kind, smoothing=1.0,
                                          l2_variance=10.0),
                            beta=0.5, cfg=RolloutConfig(seed=4, n_samples=2),
                            iterations=4)
    # the first rules learn no latent model: the initial rule's emissions
    # make every latent cost 0
    assert [LATENT in r.models for r, _ in policy.components][::3] == \
        [False, True]
    return task, policy


def _mixtures(policy):
    """The trained mixture, its last rule alone, and mixtures with rules
    that lack a latent or an emission model."""
    rules = [r for r, _ in policy.components]
    last = rules[-1].models
    no_latent = LearnedRule({EMIT: last[EMIT]})
    no_emit = LearnedRule({LATENT: last[LATENT]})
    return {
        "trained": policy,
        "last-rule": Policy(((rules[-1], 1.0),)),
        "no-latent": Policy(((no_latent, 0.5), (rules[-1], 0.5))),
        "no-emit": Policy(((no_emit, 0.25), (rules[0], 0.75))),
        "one-rule-no-emit": Policy(((no_emit, 1.0),)),
        "no-latent-no-emit": Policy(((no_latent, 0.4), (no_emit, 0.6))),
    }


@pytest.mark.parametrize("mixture", ["trained", "last-rule", "no-latent",
                                     "no-emit", "one-rule-no-emit",
                                     "no-latent-no-emit"])
@pytest.mark.parametrize("seed", SEEDS)
def test_latent_labels_match_the_full_task(labeler, sequences, mixture,
                                           seed):
    task, policy = labeler
    _, test = sequences
    pol = _mixtures(policy)[mixture]
    old = [list(s.actions[:len(s.x)])
           for s in _full_task_finals(task, pol, test, seed)]
    new = [latent_labels(s).tolist()
           for s in decode(task, pol, test, seed, *KEY, runner=run_policy)]
    assert new == old


def test_sequence_decoder_states_hold_the_labels_alone(labeler, sequences):
    task, policy = labeler
    _, test = sequences
    for x, state in zip(test, decode(task, policy, test, 0, *KEY,
                                     runner=run_policy)):
        assert len(state.actions) == len(x)
        assert all(0 <= a < task.config.K for a in state.actions)
    assert all(len(s.actions) == 2 * len(x) for x, s in
               zip(test, _full_task_finals(task, policy, test, 0)))


def test_sequence_decoder_shares_features():
    # the steps end at the labels, and the decoded and re-emitted halves
    # read one feature memo
    task = SequenceTask(SequenceTaskConfig(K=3, V=4, feature_mode="lr_window"))
    x = (0, 1, 2)
    fv = task.features(SeqState(x, (1,)))
    assert task.features(SeqState(x, (1,))) is fv
    assert task.emission_features(SeqState(x, (0, 1, 2)), 1) is \
        task.emission_features(SeqState(x, (1, 0, 0)), 0)
    assert task.max_decisions(x) == 3
    assert task.is_final(SeqState(x, (0, 1, 2)))
    assert not task.is_final(SeqState(x, (0, 1)))


@pytest.mark.parametrize("actions", [(0, 1, 2, 3), (0, 1, 2, 0, 1, 2)],
                         ids=["T+1", "2T"])
def test_sequence_decoder_rejects_more_than_the_labels(actions):
    task = SequenceTask(SequenceTaskConfig(K=3, V=4, feature_mode="nb_hmm"))
    task.validate_final(SeqState((0, 1, 2), actions[:3]))
    with pytest.raises(TaskContractError):
        task.validate_final(SeqState((0, 1, 2), actions))


@pytest.mark.parametrize("labels", [(0, 3, 1), (-1, 0, 0)])
def test_sequence_decoder_rejects_a_label_out_of_range(labels):
    task = SequenceTask(SequenceTaskConfig(K=3, V=4, feature_mode="nb_hmm"))
    with pytest.raises(TaskContractError):
        task.validate_final(SeqState((0, 1, 2), labels))


def test_cluster_task_decodes_as_itself():
    # the cluster task's hidden half is its cluster id, and the engine
    # re-emits nothing after it: the DOC table is estimated, never stepped
    task = ClusterTask(ClusterTaskConfig(K=2, V=3))
    pol = task.policy_from_params(mm_random_init(2, 3, 1))
    rng = np.random.default_rng(0)
    final = run_policy(task, np.array([1.0, 0.0, 2.0]), pol, rng)
    assert final.cluster in (0, 1)
    assert task.observed(final) == ()
    assert _emitted(task, final, pol, rng) == ()
