"""Cost-sensitive multiclass learners used as base classifiers.

Two model families: multinomial naive Bayes and multiclass logistic
regression with a Gaussian (L2) prior.  Cost vectors are bridged to these
standard trainers by :func:`costs_to_weighted_labels`, which converts a
per-action regret vector into one or more weighted labeled examples.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .em import _logsumexp
from .errors import ConfigError, OptimizerError, TrainingError
from .features import FeatureVector


def _load_sparsetools():
    """scipy.sparse's compiled CSR/CSC kernels, loaded from their own file:
    ``from scipy.sparse import _sparsetools`` would run that package's init,
    which costs every CLI process ~0.12 s and ~15 MB for two functions.
    They serve every prediction, one vector or a batch, and the LR
    trainer's products.  Numpy ports of them are slower."""
    where = [os.path.join(path, "sparse") for path in
             importlib.util.find_spec("scipy").submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("_sparsetools", where)
    if spec is None:
        raise ImportError(f"no _sparsetools extension module in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()


class LabeledExample(NamedTuple):
    """One weighted multiclass training point."""

    features: FeatureVector
    label: int
    weight: float


def costs_to_weighted_labels(examples, mode: str) -> "list[LabeledExample]":
    """Convert cost-sensitive examples into weighted labeled examples, in
    example order.

    ``argmin_spread`` emits the single cheapest action, weighted by the
    largest regret in the vector (ties broken toward the lowest action id).
    ``softmin`` emits every action with weight proportional to exp(-cost),
    normalized to sum to one.  Costs are assumed to be regrets already
    (minimum subtracted); softmin is invariant to that shift anyway.

    Cost vectors of one length are converted together as the rows of one
    matrix; a row reduction groups its additions as the reduction of a
    single vector does, so each weight has the bits of a one-vector
    conversion.
    """
    if mode not in ("argmin_spread", "softmin"):
        raise ConfigError(f"unknown cost-to-weight mode: {mode!r}")
    costs = [np.asarray(ex.costs, dtype=float) for ex in examples]
    if any(c.size != len(ex.actions) for ex, c in zip(examples, costs)):
        raise ConfigError("cost vector length does not match action list")
    by_length: dict = {}
    for i, c in enumerate(costs):
        by_length.setdefault(c.size, []).append(i)
    rows = [None] * len(costs)
    for idx in by_length.values():
        C = np.array([costs[i] for i in idx])
        if np.any(np.all(C == C[:, :1], axis=1)):
            raise TrainingError(
                "constant cost vector reached the reduction; it should have "
                "been filtered during example generation"
            )
        if mode == "argmin_spread":
            out = zip(np.argmin(C, axis=1).tolist(),
                      (np.max(C, axis=1) - np.min(C, axis=1)).tolist())
        else:
            W = np.exp(-(C - C.min(axis=1, keepdims=True)))
            W /= W.sum(axis=1, keepdims=True)
            out = W.tolist()
        for i, row in zip(idx, out):
            rows[i] = row
    labeled = []
    for ex, row in zip(examples, rows):
        if mode == "argmin_spread":
            labeled.append(LabeledExample(ex.features, ex.actions[row[0]],
                                          row[1]))
        else:
            labeled.extend(LabeledExample(ex.features, a, w)
                           for a, w in zip(ex.actions, row))
    return labeled


# ---------------------------------------------------------------------------
# Multinomial naive Bayes


@dataclass
class NBModel:
    """Multinomial naive Bayes over nonnegative count features.

    ``class_log_prior`` has one entry per class; ``feature_log_prob`` is a
    (classes x features) table.  Each exponentiated row sums to one.
    """

    class_log_prior: np.ndarray
    feature_log_prob: np.ndarray
    smoothing: float
    # (features, legal actions) -> chosen action, kept by core.vector_action
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    # feature_log_prob's transpose, the layout the scorer reads
    _held: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.class_log_prior = _frozen(self.class_log_prior)
        self.feature_log_prob = _frozen(self.feature_log_prob)
        self._held = _frozen(self.feature_log_prob.T)

    @property
    def n_classes(self) -> int:
        return self.class_log_prior.shape[0]

    def predict_costs(self, fv: FeatureVector) -> np.ndarray:
        return nb_predict_costs(self, fv)

    def predict_costs_rows(self, fvs) -> np.ndarray:
        """:meth:`predict_costs` of each vector, one per row."""
        return _linear_costs(self.class_log_prior, self._held, fvs)

    def to_dict(self) -> dict:
        return {
            "type": "nb",
            "class_log_prior": self.class_log_prior.tolist(),
            "feature_log_prob": self.feature_log_prob.tolist(),
            "smoothing": self.smoothing,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NBModel":
        prior = np.asarray(d["class_log_prior"], dtype=float)
        table = np.asarray(d["feature_log_prob"], dtype=float)
        if table.ndim != 2 or prior.shape != table.shape[:1]:
            raise ConfigError("an NB model needs a 2-D table and one "
                              "prior entry per table row")
        # -inf is log 0; NaN and +inf are no log probability
        if not (np.all(prior < np.inf) and np.all(table < np.inf)):
            raise ConfigError("NB log probabilities must not be NaN or +inf")
        return cls(class_log_prior=prior, feature_log_prob=table,
                   smoothing=float(d["smoothing"]))


def nb_train(examples, n_classes: int, n_features: int, smoothing: float) -> NBModel:
    """Estimate a multinomial naive Bayes model from weighted labeled data.

    Class priors are proportional to total weight per class; per-class
    feature probabilities are proportional to weighted feature counts plus
    ``smoothing``.  With zero smoothing a class that received no weight is
    an error, since its distributions would be undefined.  Ids and labels
    are checked as in :func:`lr_train`.  Counts accumulate with unbuffered
    adds in example order, so every sum is the one an example loop makes.
    """
    if not 0 <= smoothing < np.inf:
        raise ConfigError("smoothing must be finite and nonnegative")
    design = _sparse_design(examples, n_classes, n_features)
    if np.any(design.weights < 0):
        raise ConfigError("example weights must be nonnegative")
    if np.any(design.data < 0):
        raise ConfigError("naive Bayes requires nonnegative feature values")
    class_weight = np.zeros(n_classes)
    np.add.at(class_weight, design.labels, design.weights)
    row_nnz = np.diff(design.indptr)
    counts = np.zeros((n_classes, n_features))
    np.add.at(counts, (np.repeat(design.labels, row_nnz), design.indices),
              np.repeat(design.weights, row_nnz) * design.data)
    if smoothing == 0.0 and np.any(class_weight == 0.0):
        empty = int(np.argmin(class_weight))
        raise TrainingError(
            f"class {empty} received zero weight and smoothing is zero"
        )
    prior = class_weight + smoothing
    prior /= prior.sum()
    table = counts + smoothing
    row_sums = table.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.where(row_sums > 0, table / row_sums, 1.0 / max(n_features, 1))
        class_log_prior = np.log(prior)
        feature_log_prob = np.log(table)
    return NBModel(class_log_prior, feature_log_prob, smoothing)


def _frozen(table) -> np.ndarray:
    """``table`` as a float array that owns its data, made read-only: a
    model's predictions and decision memo are taken from its tables, so an
    in-place edit raises instead of leaving them stale.  A view (such as a
    transpose) is copied in C order."""
    table = np.asarray(table, dtype=float)
    if not table.flags.owndata:
        table = table.copy()
    table.flags.writeable = False
    return table


def _csr(fvs, n_feat: int):
    """The vectors as the rows of a CSR matrix over ``n_feat`` columns,
    ``(indptr, ids, values)``, each row in its vector's id order.

    An id at or past ``n_feat`` (unseen at training time) is dropped.  A
    negative id is a ConfigError: the kernel reads its table unchecked.
    Ids need not be sorted.
    """
    # one vector, as in every single prediction: checked in Python, which
    # costs less than the array path below
    if len(fvs) == 1 and (not fvs[0].ids or min(fvs[0].ids) >= 0):
        ids = np.array(fvs[0].ids, dtype=np.int64)
        values = np.array(fvs[0].values, dtype=float)
        if ids.size and max(fvs[0].ids) >= n_feat:
            keep = ids < n_feat
            ids, values = ids[keep], values[keep]
        return np.array((0, ids.size), dtype=np.int64), ids, values
    ids = np.fromiter((i for fv in fvs for i in fv.ids), dtype=np.int64)
    values = np.fromiter((v for fv in fvs for v in fv.values), dtype=float)
    negative = ids[ids < 0]
    if negative.size:
        raise ConfigError(f"feature id {negative[0]} is negative")
    keep = ids < n_feat
    # row boundaries among all ids, then among the kept ones
    bounds = np.cumsum([0] + [len(fv) for fv in fvs], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(keep, dtype=np.int64)))[bounds]
    return indptr, ids[keep], values[keep]


def _linear_costs(bias, held: np.ndarray, fvs) -> np.ndarray:
    """max(s) - s for the per-class scores s = bias + table @ fv of each
    vector in ``fvs``, one per row; ``held`` is the table's C-ordered
    transpose and ``bias`` a per-class row or a scalar.

    One CSR product adds ``v * table[:, fid]`` into each row, seeded with
    the bias, in the vector's id order, skipping unseen ids (see
    :func:`_csr`).
    """
    n_feat, n_classes = held.shape
    scores = np.empty((len(fvs), n_classes))
    scores[...] = bias
    _sparsetools.csr_matvecs(len(fvs), n_feat, n_classes,
                             *_csr(fvs, n_feat), held, scores)
    return np.maximum.reduce(scores, axis=1, keepdims=True) - scores


def nb_predict_costs(model: NBModel, fv: FeatureVector) -> np.ndarray:
    """Negative per-class log joint scores, minimum subtracted; their
    softmin is exactly the class posterior."""
    return _linear_costs(model.class_log_prior, model._held, (fv,))[0]


# ---------------------------------------------------------------------------
# Multiclass logistic regression


@dataclass
class LROptimizerConfig:
    """Deterministic full-batch gradient descent with backtracking."""

    max_epochs: int = 500
    grad_tol: float = 1e-6
    initial_step: float = 1.0
    armijo: float = 1e-4
    backtrack: float = 0.5
    min_step: float = 1e-20


@dataclass
class LRModel:
    """Multiclass logistic regression with Gaussian prior variance sigma^2."""

    weights: np.ndarray
    l2_variance: float
    trained_epochs: int
    # (features, legal actions) -> chosen action, kept by core.vector_action
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    # the weights' transpose, the layout the scorer reads; weights views it
    _held: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the table is kept once, as its transpose: no package code reduces
        # an LR table, so its memory layout changes no result
        self._held = _frozen(np.transpose(self.weights))
        self.weights = self._held.T

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def predict_costs(self, fv: FeatureVector) -> np.ndarray:
        return lr_predict_costs(self, fv)

    def predict_costs_rows(self, fvs) -> np.ndarray:
        """:meth:`predict_costs` of each vector, one per row."""
        return _linear_costs(0.0, self._held, fvs)

    def to_dict(self) -> dict:
        return {
            "type": "lr",
            "weights": self.weights.tolist(),
            "l2_variance": self.l2_variance,
            "trained_epochs": self.trained_epochs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LRModel":
        weights = np.asarray(d["weights"], dtype=float)
        if weights.ndim != 2:
            raise ConfigError("an LR model needs a 2-D weight table")
        if not np.all(np.isfinite(weights)):
            raise ConfigError("LR weights must be finite")
        l2_variance = float(d["l2_variance"])
        if not 0 < l2_variance < np.inf:
            raise ConfigError("l2_variance must be finite and positive")
        return cls(weights=weights, l2_variance=l2_variance,
                   trained_epochs=int(d["trained_epochs"]))


class _Design(NamedTuple):
    """The n x F design matrix as CSR arrays, the example weights and
    labels, and the flat index of each example's gold logit in an n x K
    array."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    weights: np.ndarray
    labels: np.ndarray
    gold: np.ndarray


def _sparse_design(examples, n_classes: int, n_features: int) -> _Design:
    """Build the design of one fit.  Ids and labels are checked here: the
    products below, and naive Bayes's count table, index with them
    unchecked."""
    data, indices, indptr = [], [], [0]
    labels, weights = [], []
    for ex in examples:
        data.extend(ex.features.values)
        indices.extend(ex.features.ids)
        indptr.append(len(indices))
        labels.append(ex.label)
        weights.append(ex.weight)
    indices = np.asarray(indices, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    bad = indices[(indices < 0) | (indices >= n_features)]
    if bad.size:
        raise ConfigError(f"feature id {bad[0]} outside [0, {n_features})")
    bad = labels[(labels < 0) | (labels >= n_classes)]
    if bad.size:
        raise ConfigError(f"label {bad[0]} outside [0, {n_classes})")
    return _Design(np.asarray(indptr, dtype=np.int64), indices,
                   np.asarray(data, dtype=float),
                   np.asarray(weights, dtype=float), labels,
                   np.arange(labels.size) * n_classes + labels)


# The two products below call the compiled kernels that scipy.sparse's
# ``X @ W.T`` and ``X.T @ G`` reach (the CSC view of a CSR matrix shares its
# arrays), without the Python dispatch around them; each accumulates into a
# zeroed output in the same order, so the bits are scipy's.


def _lr_objective(design: _Design, l2_variance, W):
    """Objective value at W, with the logits and their row log-normalizers
    (an n x 1 column).  Runs under :func:`lr_train`'s ``np.errstate``."""
    (K, F), n = W.shape, design.weights.size
    logits = np.zeros((n, K))
    _sparsetools.csr_matvecs(n, F, K, design.indptr, design.indices,
                             design.data, W.T.ravel(), logits.ravel())
    lse = _logsumexp(logits, 1)
    data_loss = float(np.dot(design.weights,
                             lse.ravel() - logits.ravel()[design.gold]))
    penalty = float(np.add.reduce(W * W, axis=None)) / (2.0 * l2_variance)
    return data_loss + penalty, logits, lse


def _lr_gradient(design: _Design, l2_variance, W, logits, lse):
    """Gradient at W from its logits and log-normalizers."""
    (n, K), F = logits.shape, W.shape[1]
    G = np.exp(logits - lse)
    G.ravel()[design.gold] -= 1.0
    G *= design.weights[:, None]
    XtG = np.zeros((F, K))
    _sparsetools.csc_matvecs(F, n, K, design.indptr, design.indices,
                             design.data, G.ravel(), XtG.ravel())
    return XtG.T + W / l2_variance


def lr_train(
    examples,
    n_classes: int,
    n_features: int,
    l2_variance: float,
    config: LROptimizerConfig,
) -> LRModel:
    """Minimize weighted multiclass log loss plus ||W||^2 / (2 sigma^2).

    Full-batch gradient descent with a backtracking (Armijo) line search;
    fully deterministic given the data.  Stops at the gradient tolerance or
    the epoch cap, whichever comes first.  Trial points of the line search
    cost one objective each; softmax probabilities are formed only for the
    gradient at an accepted point.  A feature id outside [0, n_features),
    a label outside [0, n_classes) or a variance that is not finite and
    positive is a ConfigError; a non-finite objective at the start or
    gradient norm at any epoch is an OptimizerError.  The fit runs under
    one ``np.errstate`` that ignores numpy's floating-point errors (those
    checks report the ones that matter), and restores the caller's settings
    when it returns or raises.
    """
    if not 0 < l2_variance < np.inf:
        raise ConfigError("l2_variance must be finite and positive")
    design = _sparse_design(examples, n_classes, n_features)
    W = np.zeros((n_classes, n_features))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f, logits, lse = _lr_objective(design, l2_variance, W)
        if not math.isfinite(f):
            raise OptimizerError("objective non-finite at initialization")
        step = config.initial_step
        epoch = 0
        # np.add.reduce and np.maximum.reduce are what np.sum and np.max
        # run, without their Python wrappers; the max starts at 0 so that
        # a fit over no feature columns converges at once.
        for epoch in range(1, config.max_epochs + 1):
            grad = _lr_gradient(design, l2_variance, W, logits, lse)
            gnorm2 = float(np.add.reduce(grad * grad, axis=None))
            if not math.isfinite(gnorm2):
                # no step can pass the Armijo test below
                raise OptimizerError(
                    f"gradient norm non-finite at epoch {epoch}")
            if np.maximum.reduce(np.abs(grad), axis=None,
                                 initial=0.0) < config.grad_tol:
                epoch -= 1
                break
            step = min(step * 2.0, 1e6)
            accepted = False
            while step >= config.min_step:
                W_try = W - step * grad
                f_try, logits_try, lse_try = _lr_objective(
                    design, l2_variance, W_try)
                if (math.isfinite(f_try)
                        and f_try <= f - config.armijo * step * gnorm2):
                    W, f, logits, lse = W_try, f_try, logits_try, lse_try
                    accepted = True
                    break
                if not math.isfinite(f_try) and step <= config.min_step * 2:
                    raise OptimizerError(
                        f"loss became non-finite at step size {step:g}")
                step *= config.backtrack
            if not accepted:
                break
    return LRModel(weights=W, l2_variance=l2_variance, trained_epochs=epoch)


def lr_predict_costs(model: LRModel, fv: FeatureVector) -> np.ndarray:
    """Negative class log-probabilities under the softmax, min subtracted:
    max(logits) - logits, so the cheapest action is the argmax logit."""
    return _linear_costs(0.0, model._held, (fv,))[0]
