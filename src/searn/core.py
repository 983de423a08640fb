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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .classifiers import (
    NBModel,
    LRModel,
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
_PATH, _ROLLOUT, _ITER, _DEV = 0, 1, 2, 3

# costs are rounded to this many decimals before the constant-vector test
_COST_DECIMALS = 12


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
    weight: float = 1.0


class GroupSpec(NamedTuple):
    """A family of decisions sharing one classifier.

    ``kind`` is "classify" for ordinary cost-sensitive decisions or
    "estimate" for degenerate single-action decisions whose rule is a
    directly estimated distribution rather than a trained classifier.
    """

    name: str
    n_actions: int
    kind: str = "classify"


@dataclass
class RolloutConfig:
    """Cost-estimation settings for one learning run."""

    n_samples: int = 1
    mode: str = "sampled"
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.mode not in ("sampled", "exact"):
            raise ConfigError(f"unknown rollout mode: {self.mode!r}")


@dataclass
class LearnerConfig:
    """Which cost-sensitive base learner to train, and how."""

    kind: str = "nb"
    smoothing: float = 0.0
    l2_variance: float | dict = 1.0

    def variance_for(self, group: str) -> float:
        if isinstance(self.l2_variance, dict):
            if group in self.l2_variance:
                return float(self.l2_variance[group])
            if "default" in self.l2_variance:
                return float(self.l2_variance["default"])
            raise ConfigError(f"no l2_variance entry for group {group!r}")
        return float(self.l2_variance)


@dataclass
class StoppingRule:
    """Iteration cap plus optional dev-accuracy early stopping."""

    max_iterations: int = 50
    patience: int | None = 3
    dev_data: list | None = None


# ---------------------------------------------------------------------------
# Task interface


class Task(abc.ABC):
    """A structured prediction problem decomposed into atomic decisions.

    States returned by :meth:`initial_state` and :meth:`apply` must expose
    a ``task`` attribute pointing back at this object, so that policies
    can act on a bare state.
    """

    interner: Interner

    @abc.abstractmethod
    def groups(self) -> dict:
        """Decision-group name -> GroupSpec."""

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
    def group_of(self, state) -> str:
        ...

    @abc.abstractmethod
    def legal_actions(self, state) -> tuple:
        ...

    @abc.abstractmethod
    def features(self, state) -> FeatureVector:
        ...

    @abc.abstractmethod
    def initial_action(self, state, rng):
        """The initial policy's action in this state."""

    @abc.abstractmethod
    def apply(self, state, action):
        ...

    @abc.abstractmethod
    def rollout_loss(self, state, example) -> float:
        """Task loss of a completed structure (un-normalized counts)."""

    def model_action(self, model, state):
        """A trained model's action: cheapest predicted legal action."""
        legal = self.legal_actions(state)
        if not legal:
            raise StateError("no legal action available")
        costs = model.predict_costs(self.features(state))
        return min(legal, key=lambda a: (costs[a], a))

    def weight_mode(self, group: str) -> str:
        """Cost-to-weight conversion used when training this group."""
        return "argmin_spread"

    def validate_final(self, state, example) -> None:
        """Optional structural check on a completed rollout."""

    # hooks for "estimate" groups; tasks without such groups ignore these
    def estimation_record(self, state, example):
        raise TaskContractError("task has no estimation decisions")

    def train_estimator(self, group: str, records, learner: LearnerConfig):
        raise TaskContractError("task has no estimation decisions")

    # closed-form expected costs; only the cluster task supports this
    def exact_examples(self, dataset, policy, cfg: RolloutConfig):
        raise TaskContractError("task does not support exact cost mode")

    def shortcut_costs(self, state):
        """Exact cost vector when derivable without rollouts, else None.

        Only consulted during example generation.  A task may implement it
        for decisions whose action provably never alters the tied
        continuation (so the returned vector must equal what rollouts
        would compute).
        """
        return None


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

    def action(self, state, rng):
        task = state.task
        model = self.models.get(task.group_of(state))
        if model is None:
            return task.initial_action(state, rng)
        return task.model_action(model, state)


@dataclass
class Policy:
    """Weighted mixture of decision rules; weights sum to 1."""

    components: tuple

    def __post_init__(self):
        self.components = tuple(self.components)
        total = sum(w for _, w in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"policy weights sum to {total!r}, not 1")
        if any(w < 0 for _, w in self.components):
            raise ConfigError("policy weights must be nonnegative")
        n_initial = sum(1 for r, _ in self.components if isinstance(r, InitialRule))
        if n_initial > 1:
            raise ConfigError("at most one initial-policy component allowed")

    @property
    def includes_initial(self) -> bool:
        return any(isinstance(r, InitialRule) for r, _ in self.components)

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


def policy_act(pol: Policy, state, rng: np.random.Generator):
    """Sample a mixture component by weight, then act by its rule."""
    task = state.task
    if not task.legal_actions(state):
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
        return task.initial_action(state, rng)
    return rule.action(state, rng)


# ---------------------------------------------------------------------------
# Rollouts and example generation


def _run_to_completion(task: Task, state, example, pol: Policy,
                       rng: np.random.Generator, steps_taken: int):
    """Continue a partial structure to a final state under pol."""
    limit = task.max_decisions(example)
    steps = steps_taken
    while not task.is_final(state):
        if steps >= limit:
            raise TaskContractError(
                f"rollout exceeded the task's {limit}-decision bound")
        state = task.apply(state, policy_act(pol, state, rng))
        steps += 1
    return state


def run_policy(task: Task, example, pol: Policy, rng: np.random.Generator):
    """Roll a policy from scratch; validate and return the final state."""
    final = _run_to_completion(task, task.initial_state(example), example,
                               pol, rng, 0)
    task.validate_final(final, example)
    return final


def _costs_at_state(task: Task, example, example_id: int, t: int, state,
                    pol: Policy, cfg: RolloutConfig,
                    allow_shortcut: bool = False) -> np.ndarray:
    """Mean completion loss per legal action, minimum subtracted.

    Sample s of every action's rollout runs on the stream seeded by
    (example_id, t, s), so all candidates see identical continuation
    randomness.
    """
    legal = task.legal_actions(state)
    if allow_shortcut:
        shortcut = task.shortcut_costs(state)
        if shortcut is not None:
            costs = np.asarray(shortcut, dtype=float)
            return costs - costs.min()
    costs = np.zeros(len(legal))
    for s in range(cfg.n_samples):
        for k, action in enumerate(legal):
            rng = _rng(cfg.seed, _ROLLOUT, example_id, t, s)
            final = _run_to_completion(task, task.apply(state, action),
                                       example, pol, rng, t)
            costs[k] += task.rollout_loss(final, example)
    costs /= cfg.n_samples
    return costs - costs.min()


def estimate_costs(task: Task, example, t: int, prefix, pol: Policy,
                   cfg: RolloutConfig, example_id: int = 0) -> np.ndarray:
    """Cost vector for the t-th decision after a given action prefix.

    ``prefix`` holds the t-1 actions already taken; they are replayed
    through the task to reconstruct the decision state.
    """
    if len(prefix) != t - 1:
        raise ConfigError("prefix length must be t - 1")
    state = task.initial_state(example)
    for a in prefix:
        if a not in task.legal_actions(state):
            raise StateError(f"prefix action {a!r} is illegal at its state")
        state = task.apply(state, a)
    return _costs_at_state(task, example, example_id, t, state, pol, cfg)


def _constant_costs(costs: np.ndarray) -> bool:
    rounded = np.round(costs, _COST_DECIMALS)
    return bool(np.all(rounded == rounded[0]))


class GeneratedExamples(NamedTuple):
    """Cost-sensitive examples plus raw records for estimation groups."""

    cost_examples: list
    estimation_records: dict


def generate_examples(dataset, pol: Policy, task: Task,
                      cfg: RolloutConfig) -> GeneratedExamples:
    """Roll the policy over the dataset, costing every decision.

    One cost-sensitive example per classify decision whose cost vector is
    not constant; estimation decisions contribute raw records instead.
    Output is deterministic given cfg.seed and does not depend on the
    order in which examples are processed.
    """
    if not dataset:
        raise DataError("dataset is empty")
    if cfg.mode == "exact":
        return task.exact_examples(dataset, pol, cfg)
    specs = task.groups()
    out = []
    records: dict = {name: [] for name, g in specs.items() if g.kind == "estimate"}
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
            group = task.group_of(state)
            if specs[group].kind == "estimate":
                records[group].append(task.estimation_record(state, example))
            else:
                legal = task.legal_actions(state)
                if len(legal) >= 2:
                    costs = _costs_at_state(task, example, example_id, t,
                                            state, pol, cfg,
                                            allow_shortcut=True)
                    if not _constant_costs(costs):
                        out.append(CostSensitiveExample(
                            features=task.features(state),
                            actions=tuple(legal),
                            costs=costs,
                            group=group,
                        ))
            state = task.apply(state, policy_act(pol, state, path_rng))
        task.validate_final(state, example)
    return GeneratedExamples(out, records)


# ---------------------------------------------------------------------------
# Training


def train_rule(task: Task, generated: GeneratedExamples,
               learner: LearnerConfig) -> LearnedRule:
    """Fit one model per decision group from generated examples.

    Classify groups train the configured cost-sensitive learner; estimate
    groups delegate to the task's estimator.  Groups with no examples are
    left out of the rule (they fall back to the initial behavior).
    """
    specs = task.groups()
    by_group: dict = {}
    for ex in generated.cost_examples:
        by_group.setdefault(ex.group, []).append(ex)
    models = {}
    for name, spec in specs.items():
        if spec.kind == "estimate":
            recs = generated.estimation_records.get(name, [])
            if recs:
                models[name] = task.train_estimator(name, recs, learner)
            continue
        examples = by_group.get(name)
        if not examples:
            continue
        labeled = []
        for ex in examples:
            labeled.extend(costs_to_weighted_labels(ex, task.weight_mode(name)))
        n_features = len(task.interner)
        if learner.kind == "nb":
            models[name] = nb_train(labeled, spec.n_actions, n_features,
                                    smoothing=learner.smoothing)
        elif learner.kind == "lr":
            models[name] = lr_train(labeled, spec.n_actions, n_features,
                                    learner.variance_for(name))
        else:
            raise ConfigError(f"unknown learner kind: {learner.kind!r}")
    return LearnedRule(models)


def _regrets(rule: LearnedRule, examples) -> list:
    """Cost regret of the rule's choice on each example whose group it has
    a model for."""
    out = []
    for ex in examples:
        model = rule.models.get(ex.group)
        if model is not None:
            costs_pred = model.predict_costs(ex.features)
            predicted = min(ex.actions, key=lambda a: (costs_pred[a], a))
            out.append(float(ex.costs[ex.actions.index(predicted)]
                             - ex.costs.min()))
    return out


def _classification_loss(rule: LearnedRule, generated: GeneratedExamples) -> float:
    """Mean cost regret of the rule's choices over its own training batch."""
    regrets = _regrets(rule, generated.cost_examples)
    return sum(regrets) / len(regrets) if regrets else 0.0


def _dev_accuracy(task: Task, dev_data, pol: Policy, rule: LearnedRule,
                  cfg: RolloutConfig, iteration: int) -> float:
    """Fraction of dev cost examples where the rule picks a cheapest action.

    Dev examples are generated under the pre-interpolation policy with a
    seed private to (iteration), so the metric is reproducible.
    """
    dev_cfg = replace(cfg, seed=derive_seed(cfg.seed, _DEV, iteration))
    generated = generate_examples(dev_data, pol, task, dev_cfg)
    if not generated.cost_examples:
        return 0.0
    hits = sum(1 for r in _regrets(rule, generated.cost_examples) if r <= 0.0)
    return hits / len(generated.cost_examples)


def searn_learn(task: Task, dataset, learner: LearnerConfig, beta: float,
                cfg: RolloutConfig, stopping: StoppingRule | None = None,
                start: Policy | None = None, history: list | None = None,
                timings: list | None = None) -> Policy:
    """The full learning loop; returns the stripped final mixture.

    Each iteration: generate cost-sensitive examples under the current
    policy, train a new rule, interpolate it in with weight beta.  Stops
    at the iteration cap or when dev accuracy fails to improve for
    ``stopping.patience`` consecutive iterations.  ``history``, when
    given, receives one record per iteration (no timing fields);
    ``timings`` receives per-iteration wall seconds, kept apart so that
    history stays byte-comparable across runs.
    """
    stopping = stopping or StoppingRule()
    pol = start if start is not None else initial_policy()
    best_dev = -np.inf
    stale = 0
    for iteration in range(1, stopping.max_iterations + 1):
        t0 = time.perf_counter()
        it_cfg = replace(cfg, seed=derive_seed(cfg.seed, _ITER, iteration))
        generated = generate_examples(dataset, pol, task, it_cfg)
        rule = train_rule(task, generated, learner)
        record = {
            "iteration": iteration,
            "n_cost_examples": len(generated.cost_examples),
            "classification_loss": _classification_loss(rule, generated),
        }
        dev_acc = None
        if stopping.dev_data is not None:
            dev_acc = _dev_accuracy(task, stopping.dev_data, pol, rule,
                                    cfg, iteration)
            record["dev_accuracy"] = dev_acc
        pol = interpolate_policy(pol, rule, beta)
        if history is not None:
            history.append(record)
        if timings is not None:
            timings.append(time.perf_counter() - t0)
        if dev_acc is not None and stopping.patience is not None:
            if dev_acc > best_dev:
                best_dev = dev_acc
                stale = 0
            else:
                stale += 1
                if stale >= stopping.patience:
                    break
    return strip_initial_policy(pol)


def searn_bound(loss_initial: float, loss_avg: float, T: int, c: float) -> float:
    """Worst-case structured loss after the full theoretical schedule."""
    if loss_initial < 0 or loss_avg < 0 or c < 0 or T < 1:
        raise ConfigError("arguments must be nonnegative with T >= 1")
    return loss_initial + 2.0 * loss_avg * T * np.log(T) \
        + c * (1.0 + np.log(T)) / T


# ---------------------------------------------------------------------------
# Policy serialization

MODEL_TYPES = {"nb": NBModel, "lr": LRModel}


def register_model_type(name: str, cls) -> None:
    """Let task modules add their own serializable estimator models."""
    MODEL_TYPES[name] = cls


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
