"""Policy-mixture learning for structured prediction.

Structured prediction is reduced to cost-sensitive classification: a
stochastic policy (a weighted mixture of an initial rule and learned
classifiers) rolls out predictions decision by decision; the expected
completion loss of each candidate action becomes a cost vector; a new
classifier is trained on those costs and interpolated into the mixture.

Tasks plug in through the :class:`Task` interface.  All randomness is
derived from explicit seeds keyed by (example id, decision index, sample
index), so generation is reproducible and independent of evaluation order.
"""

from __future__ import annotations

import abc
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .classifiers import (
    NBModel,
    LRModel,
    LROptimizerConfig,
    costs_to_weighted_labels,
    lr_train,
    nb_train,
)
from .errors import (
    ConfigError,
    DataError,
    StateError,
    TaskContractError,
    TrainingError,
)
from .features import FeatureVector, Interner

# spawn-key tags partitioning the seed space by purpose
_PATH, _ROLLOUT, _ITER = 0, 1, 2

# costs are rounded to this many decimals before the constant-vector test
_COST_DECIMALS = 12
_COST_SCALE = 10.0 ** _COST_DECIMALS

# the optimizer of every LR fit; searn_learn counts the fits that stop at
# its epoch cap
LR_OPTIMIZER = LROptimizerConfig()


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit integer seed deterministically derived from seed and key."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(2, np.uint64)[0])


# ---------------------------------------------------------------------------
# Domain types


@dataclass
class CostSensitiveExample:
    """A feature vector with one cost per legal action.

    ``actions`` lists the legal action ids the costs refer to, in order.
    Costs are regrets: the per-vector minimum has been subtracted.
    """

    features: FeatureVector
    actions: tuple
    costs: np.ndarray
    group: str


@dataclass
class RolloutConfig:
    """Cost-estimation settings for one learning run."""

    seed: int
    n_samples: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")


@dataclass
class LearnerConfig:
    """Which cost-sensitive base learner to train, and how."""

    kind: str
    smoothing: float
    l2_variance: float | dict = 1.0

    def variance_for(self, group: str) -> float:
        if isinstance(self.l2_variance, dict):
            if group in self.l2_variance:
                return float(self.l2_variance[group])
            raise ConfigError(f"no l2_variance entry for group {group!r}")
        return float(self.l2_variance)


# ---------------------------------------------------------------------------
# Task interface


class Task(abc.ABC):
    """A structured prediction problem decomposed into atomic decisions.

    The step hooks build a hidden half, every decision of it in the one
    group ``hidden_group``; a task may then re-emit its observed input
    from the finished hidden half (``observed``; see :func:`_emitted`).
    Each hook takes only what it reads.  A state holds no pointer back to
    the task: the engine passes the task to whatever acts on a state, and
    a final state and its re-emission alone give the loss.
    """

    interner: Interner
    # costs_to_weighted_labels mode of every group trained as a classifier
    weight_mode = "argmin_spread"
    # the group of every step decision
    hidden_group: str
    # the group whose models re-emit ``observed``, where a task has one
    emit_group: str

    @abc.abstractmethod
    def groups(self) -> dict:
        """Decision-group name -> number of actions; each group shares
        one model."""

    @abc.abstractmethod
    def initial_state(self, example):
        ...

    @abc.abstractmethod
    def max_decisions(self, example) -> int:
        """Hard upper bound on decisions from the initial state."""

    @abc.abstractmethod
    def is_final(self, state) -> bool:
        ...

    @abc.abstractmethod
    def legal_actions(self, state) -> tuple:
        ...

    @abc.abstractmethod
    def features(self, state) -> FeatureVector:
        ...

    @abc.abstractmethod
    def initial_action(self, state, legal: tuple, rng):
        """The initial policy's action in this state; ``legal`` is
        ``legal_actions(state)``, computed once by the caller."""

    @abc.abstractmethod
    def apply(self, state, action):
        ...

    @abc.abstractmethod
    def rollout_loss(self, final, emitted: tuple) -> float:
        """Task loss of a final state and its re-emission (un-normalized
        counts)."""

    def rollout_finals(self, state, legal: tuple, pol, seq,
                       steps: int, limit: int) -> list:
        """The (final, emitted) pair of each ``legal`` action's rollout
        from ``state`` under ``pol``, each on a generator seeded by
        ``seq``; ``steps`` decisions precede the rollouts and ``limit`` is
        the example's ``max_decisions``.  A task may override it where it
        can give the same pairs with less work."""
        # one generator, reset to its seeded state before each rollout:
        # the state holds all of PCG64's, its buffered 32-bit half too
        rng = np.random.default_rng(seq)
        start = rng.bit_generator.state
        finals = []
        for action in legal:
            rng.bit_generator.state = start
            final = _run_to_completion(self, self.apply(state, action), pol,
                                       rng, steps, limit)
            finals.append((final, _emitted(self, final, pol, rng)))
        return finals

    def validate_final(self, state) -> None:
        """Optional structural check on a finished hidden half."""

    def observed(self, final) -> tuple:
        """The symbols ``final`` re-emits, in order (none by default)."""
        return ()

    def emission_features(self, final, p: int) -> FeatureVector:
        """Features of re-emitting observed symbol p of ``final``."""
        raise TaskContractError("task re-emits nothing")

    def train_estimator(self, record):
        """The model of a group estimated directly from the one record
        that :meth:`exact_examples` gave for it, in place of a classifier."""
        raise TaskContractError("task has no estimated groups")

    def exact_examples(self, dataset, policy):
        """Closed-form expected-cost examples of the whole dataset (the
        result ``generate_examples`` returns), or None where the task has
        no closed form and costs must be rolled out."""
        return None

    def shortcut_costs(self, final, p: int) -> np.ndarray:
        """Regrets of re-emitting observed symbol p of ``final`` as each
        ``emit_group`` action: what tied rollouts would measure, since an
        emitted symbol enters no feature."""
        raise TaskContractError("task re-emits nothing")


def vector_action(model, fv: FeatureVector, legal: tuple):
    """A trained model's cheapest predicted action among ``legal`` for the
    feature vector ``fv``; ties go to the lowest action id.

    The choice depends only on ``fv`` and ``legal``, so it is memoized in
    the model's ``_cache`` on that pair, for the model's life:
    ``predict_costs`` runs once per distinct pair.
    """
    key = (fv, legal)
    action = model._cache.get(key)
    if action is None:
        costs = model.predict_costs(fv)
        action = min(legal, key=lambda a: (costs[a], a))
        model._cache[key] = action
    return action


# ---------------------------------------------------------------------------
# Policies


class InitialRule:
    """Sentinel rule delegating to the task's initial-policy behavior."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "InitialRule()"


INITIAL_RULE = InitialRule()


@dataclass
class LearnedRule:
    """One trained decision rule: a model per decision group.

    Groups absent from ``models`` (possible when an iteration produced no
    examples for them) fall back to the initial policy's behavior.
    """

    models: dict


@dataclass
class Policy:
    """Weighted mixture of decision rules; weights sum to 1."""

    components: tuple

    def __post_init__(self):
        self.components = tuple(self.components)
        total = sum(w for _, w in self.components)
        # written so that a NaN weight fails both tests
        if not abs(total - 1.0) <= 1e-12:
            raise ConfigError(f"policy weights sum to {total!r}, not 1")
        if not all(w >= 0 for _, w in self.components):
            raise ConfigError("policy weights must be nonnegative")
        n_initial = sum(1 for r, _ in self.components if isinstance(r, InitialRule))
        if n_initial > 1:
            raise ConfigError("at most one initial-policy component allowed")
        # running weight totals, summed left to right, for policy_act; the
        # last is +inf so that a draw at or past the rounded total picks
        # the last component
        self._cumulative = tuple(accumulate(self.weights))[:-1] + (np.inf,)

    def index_at(self, u: float) -> int:
        """The component a mixture draw u in [0, 1) picks: the first whose
        running total exceeds u."""
        return bisect_right(self._cumulative, u)

    @property
    def weights(self) -> tuple:
        return tuple(w for _, w in self.components)


def initial_policy() -> Policy:
    """The pure initial-rule mixture that starts every learning run."""
    return Policy(((INITIAL_RULE, 1.0),))


def interpolate_policy(old: Policy, h, beta: float) -> Policy:
    """Mix a new rule in: every old weight shrinks by (1-beta), h gets beta.

    Components whose weight reaches exactly zero are dropped, so beta = 1
    replaces the whole mixture with h.
    """
    if not 0.0 < beta <= 1.0:
        raise ConfigError("beta must lie in (0, 1]")
    scaled = [(r, w * (1.0 - beta)) for r, w in old.components
              if w * (1.0 - beta) > 0.0]
    return Policy(tuple(scaled) + ((h, beta),))


def strip_initial_policy(pol: Policy) -> Policy:
    """Drop the initial-policy component and renormalize.

    The learned mixture is what gets deployed; the initial rule peeks at
    the true output and cannot run on unseen inputs.
    """
    learned = [(r, w) for r, w in pol.components if not isinstance(r, InitialRule)]
    if not learned:
        raise TrainingError("policy contains no learned component")
    total = sum(w for _, w in learned)
    return Policy(tuple((r, w / total) for r, w in learned))


def policy_act(task: Task, pol: Policy, state, legal: tuple,
               rng: np.random.Generator):
    """Sample a mixture component by weight; act in ``task`` by its rule.

    ``legal`` is ``task.legal_actions(state)``, computed once per step by
    the caller and handed to whichever rule acts.
    """
    if not legal:
        raise StateError("no legal action at this state")
    rule = pol.components[0][0]
    if len(pol.components) > 1:
        rule = pol.components[pol.index_at(rng.random())][0]
    if isinstance(rule, InitialRule):
        return task.initial_action(state, legal, rng)
    model = rule.models.get(task.hidden_group)
    if model is None:
        return task.initial_action(state, legal, rng)
    return vector_action(model, task.features(state), legal)


def _emitted(task: Task, final, pol: Policy,
             rng: np.random.Generator) -> tuple:
    """The re-emission of ``task.observed(final)`` under ``pol``: per
    symbol, in order, a mixture component drawn as :func:`policy_act`
    draws it.  One with a model of ``task.emit_group`` emits that model's
    cheapest symbol for ``emission_features(final, p)``; any other copies
    the observed symbol, drawing nothing more."""
    observed = task.observed(final)
    if not observed:
        return ()
    models = [None if isinstance(rule, InitialRule)
              else rule.models.get(task.emit_group)
              for rule, _ in pol.components]
    legal = tuple(range(task.groups()[task.emit_group]))
    multi = len(models) > 1
    out = []
    for p, symbol in enumerate(observed):
        model = models[pol.index_at(rng.random()) if multi else 0]
        out.append(symbol if model is None else vector_action(
            model, task.emission_features(final, p), legal))
    return tuple(out)


# ---------------------------------------------------------------------------
# Rollouts and example generation


def _run_to_completion(task: Task, state, pol: Policy,
                       rng: np.random.Generator, steps_taken: int,
                       limit: int):
    """Continue a partial hidden half to its end under pol; ``limit`` is
    the example's ``max_decisions``."""
    steps = steps_taken
    while not task.is_final(state):
        if steps >= limit:
            raise TaskContractError(
                f"rollout exceeded the task's {limit}-decision bound")
        legal = task.legal_actions(state)
        state = task.apply(state, policy_act(task, pol, state, legal, rng))
        steps += 1
    return state


def run_policy(task: Task, example, pol: Policy, rng: np.random.Generator):
    """Roll a policy from scratch; validate and return its final state."""
    final = _run_to_completion(task, task.initial_state(example), pol, rng,
                               0, task.max_decisions(example))
    task.validate_final(final)
    return final


def _costs_at_state(task: Task, limit: int, example_id: int, t: int, state,
                    legal: tuple, pol: Policy,
                    cfg: RolloutConfig) -> np.ndarray:
    """Mean completion loss per ``legal`` action, minimum subtracted;
    ``limit`` is the example's ``max_decisions``.

    Sample s of every action's rollout runs on the stream seeded by
    (example_id, t, s), so all candidates see identical continuation
    randomness.  One SeedSequence per sample serves every candidate: a
    generator built from it draws the same stream each time, since
    seeding reads the sequence's state without changing it.  The task
    gives the (final, emitted) pairs (:meth:`Task.rollout_finals`); every
    one is scored by ``rollout_loss``.
    """
    costs = np.zeros(len(legal))
    for s in range(cfg.n_samples):
        seq = np.random.SeedSequence(cfg.seed,
                                     spawn_key=(_ROLLOUT, example_id, t, s))
        finals = task.rollout_finals(state, legal, pol, seq, t, limit)
        for k, (final, emitted) in enumerate(finals):
            costs[k] += task.rollout_loss(final, emitted)
    costs /= cfg.n_samples
    return costs - costs.min()


def _constant_costs(costs: np.ndarray) -> bool:
    """Whether a regret vector is constant at ``_COST_DECIMALS`` decimals.

    One entry of a regret vector is exactly 0 and none is negative, so it
    is constant when every entry rounds to 0: its scaled value is at most
    0.5 (``np.round`` rounds half to even).  Written so that a NaN entry
    makes the vector not constant.
    """
    return all(c * _COST_SCALE <= 0.5 for c in costs.tolist())


class GeneratedExamples(NamedTuple):
    """Cost-sensitive examples, plus group name -> the one record a
    closed-form task gives for a group it estimates directly."""

    cost_examples: list
    estimation_records: dict


def generate_examples(dataset, pol: Policy, task: Task,
                      cfg: RolloutConfig) -> GeneratedExamples:
    """Roll the policy over the dataset, costing every decision.

    One cost-sensitive example per roll-in decision with two or more
    legal actions whose rolled-out cost vector is not constant, then one
    per re-emission of the final state, costed by Task.shortcut_costs.  A
    task with closed-form costs (see Task.exact_examples) rolls nothing
    out.  Output is deterministic given cfg.seed and does not depend on
    the order in which examples are processed.
    """
    if len(dataset) == 0:
        raise DataError("dataset is empty")
    exact = task.exact_examples(dataset, pol)
    if exact is not None:
        return exact
    out = []
    for example_id, example in enumerate(dataset):
        path_rng = _rng(cfg.seed, _PATH, example_id)
        state = task.initial_state(example)
        limit = task.max_decisions(example)
        t = 0
        while not task.is_final(state):
            t += 1
            if t > limit:
                raise TaskContractError(
                    f"roll-in exceeded the task's {limit}-decision bound")
            legal = task.legal_actions(state)
            if len(legal) >= 2:
                costs = _costs_at_state(task, limit, example_id, t, state,
                                        legal, pol, cfg)
                if not _constant_costs(costs):
                    out.append(CostSensitiveExample(
                        features=task.features(state), actions=tuple(legal),
                        costs=costs, group=task.hidden_group))
            state = task.apply(state, policy_act(task, pol, state, legal,
                                                 path_rng))
        task.validate_final(state)
        for p in range(len(task.observed(state))):
            out.append(CostSensitiveExample(
                features=task.emission_features(state, p),
                actions=tuple(range(task.groups()[task.emit_group])),
                costs=task.shortcut_costs(state, p), group=task.emit_group))
    return GeneratedExamples(out, {})


# ---------------------------------------------------------------------------
# Training


def train_rule(task: Task, generated: GeneratedExamples,
               learner: LearnerConfig) -> LearnedRule:
    """Fit one model per decision group from generated examples.

    A group the batch carries an estimation record for is fitted by the
    task's estimator; every other group trains the configured
    cost-sensitive learner.  Groups with no examples are left out of the
    rule (they fall back to the initial behavior).
    """
    by_group: dict = {}
    for ex in generated.cost_examples:
        by_group.setdefault(ex.group, []).append(ex)
    models = {}
    for name, n_actions in task.groups().items():
        record = generated.estimation_records.get(name)
        if record is not None:
            models[name] = task.train_estimator(record)
            continue
        examples = by_group.get(name)
        if not examples:
            continue
        labeled = costs_to_weighted_labels(examples, task.weight_mode)
        n_features = len(task.interner)
        if learner.kind == "nb":
            models[name] = nb_train(labeled, n_actions, n_features,
                                    smoothing=learner.smoothing)
        elif learner.kind == "lr":
            models[name] = lr_train(labeled, n_actions, n_features,
                                    learner.variance_for(name),
                                    config=LR_OPTIMIZER)
        else:
            raise ConfigError(f"unknown learner kind: {learner.kind!r}")
    return LearnedRule(models)


def _classification_loss(rule: LearnedRule, generated: GeneratedExamples) -> float:
    """Mean cost regret of the rule's choices over its own training batch,
    counting the examples whose group the rule has a model for.  Each
    group's examples are scored in one batch; regrets are summed in
    example order."""
    examples = generated.cost_examples
    by_group: dict = {}
    for i, ex in enumerate(examples):
        if rule.models.get(ex.group) is not None:
            by_group.setdefault(ex.group, []).append(i)
    predicted = {}
    for group, idx in by_group.items():
        rows = rule.models[group].predict_costs_rows(
            [examples[i].features for i in idx])
        predicted.update(zip(idx, rows.tolist()))
    regrets = []
    for i, ex in enumerate(examples):
        costs_pred = predicted.get(i)
        if costs_pred is not None:
            best = min(ex.actions, key=lambda a: (costs_pred[a], a))
            regrets.append(float(ex.costs[ex.actions.index(best)]
                                 - ex.costs.min()))
    return sum(regrets) / len(regrets) if regrets else 0.0


def searn_learn(task: Task, dataset, learner: LearnerConfig, beta: float,
                cfg: RolloutConfig, iterations: int,
                start: Policy | None = None) -> tuple:
    """The full learning loop; returns (stripped final mixture, log).

    Each of ``iterations`` rounds: generate cost-sensitive examples under
    the current policy, train a new rule, interpolate it in with weight
    beta.  The log has one record per iteration: ``iteration``,
    ``n_cost_examples``, ``classification_loss``, ``lr_fits`` (LR models
    fitted), ``capped_fits`` (those of them that stopped at
    ``LR_OPTIMIZER``'s epoch cap) and its wall ``seconds``, the one field
    that differs between reruns.
    """
    pol = start if start is not None else initial_policy()
    log = []
    for iteration in range(1, iterations + 1):
        t0 = time.perf_counter()
        it_cfg = replace(cfg, seed=derive_seed(cfg.seed, _ITER, iteration))
        generated = generate_examples(dataset, pol, task, it_cfg)
        rule = train_rule(task, generated, learner)
        pol = interpolate_policy(pol, rule, beta)
        epochs = [m.trained_epochs for m in rule.models.values()
                  if isinstance(m, LRModel)]
        log.append({
            "iteration": iteration,
            "n_cost_examples": len(generated.cost_examples),
            "classification_loss": _classification_loss(rule, generated),
            "lr_fits": len(epochs),
            "capped_fits": sum(e >= LR_OPTIMIZER.max_epochs for e in epochs),
            "seconds": time.perf_counter() - t0,
        })
    return strip_initial_policy(pol), log


# ---------------------------------------------------------------------------
# Policy serialization

MODEL_TYPES = {"nb": NBModel, "lr": LRModel}


def model_from_dict(d: dict):
    cls = MODEL_TYPES.get(d.get("type"))
    if cls is None:
        raise ConfigError(f"unknown model type: {d.get('type')!r}")
    return cls.from_dict(d)


def policy_to_dict(pol: Policy, interner: Interner) -> dict:
    """JSON-ready form of a policy: rules, weights, and the feature table."""
    components = []
    for rule, weight in pol.components:
        if isinstance(rule, InitialRule):
            components.append({"kind": "initial", "weight": weight})
        else:
            components.append({
                "kind": "learned",
                "weight": weight,
                "models": {g: m.to_dict() for g, m in rule.models.items()},
            })
    return {
        "format_version": 1,
        "feature_names": interner.names(),
        "components": components,
    }


def policy_from_dict(d: dict):
    """Inverse of policy_to_dict; returns (policy, interner)."""
    if d.get("format_version") != 1:
        raise ConfigError("unsupported policy file version")
    interner = Interner(d["feature_names"])
    components = []
    for c in d["components"]:
        if c["kind"] == "initial":
            components.append((INITIAL_RULE, float(c["weight"])))
        else:
            models = {g: model_from_dict(m) for g, m in c["models"].items()}
            components.append((LearnedRule(models), float(c["weight"])))
    return Policy(tuple(components)), interner
