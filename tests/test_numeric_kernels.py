"""The in-package logsumexp and the numeric paths rewritten around it.

``searn.em.logsumexp`` must give the same bits as ``scipy.special.logsumexp``,
and ``lr_train`` and the HMM lattices must give the same bits as the loops
they replaced, kept here as oracles: the optimizer's iterates decide every
trained model, so an equal-to-tolerance kernel would not be enough.
"""

import ast
import importlib.machinery
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import searn
from searn.classifiers import (LabeledExample, LROptimizerConfig,
                               _load_sparsetools, _sparse_design,
                               _sparsetools, lr_train)
from searn.errors import OptimizerError
from searn.em import HmmParams, hmm_log_backward, hmm_log_forward, logsumexp
from searn.features import FeatureVector

INF, NAN = np.inf, np.nan


def assert_same_bits(got, want):
    """Equal type, shape and bits; NaNs must sit at the same positions."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64),
                                  want[~nan].view(np.uint64))


# ---------------------------------------------------------------------------
# logsumexp against scipy

# A small pool of values makes tied maxima and all -inf rows common.
_ELEMENTS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.5, 700.0, -745.0, 1.7e308, -1.7e308,
                     INF, -INF, NAN]),
    st.floats(-1e3, 1e3),
)


@st.composite
def _arrays_and_axes(draw):
    a = draw(hnp.arrays(np.float64,
                        hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                         max_side=10),
                        elements=_ELEMENTS))
    if a.ndim > 1 and draw(st.booleans()):
        a = a.T  # a Fortran-ordered view: the reductions run in another order
    axis = draw(st.sampled_from([None, 0, 1, -1][:a.ndim + 1] + [-1]))
    return a, axis


@settings(max_examples=500, derandomize=True, deadline=None)
@given(case=_arrays_and_axes())
@example(case=(np.full((2, 3), -INF), 1))
@example(case=(np.array([[1.0, 1.0, 1.0], [3.0, -INF, 3.0]]), 1))
@example(case=(np.array([[INF, 1.0], [INF, INF], [-INF, INF]]), None))
@example(case=(np.array([NAN, 1.0, INF]), 0))
@example(case=(np.zeros((0, 3)), 0))
@example(case=(np.zeros((3, 0)), 1))
@example(case=(np.zeros(0), None))
def test_logsumexp_bit_identical_to_scipy(case):
    a, axis = case
    try:
        with np.errstate(all="ignore"):
            want = scipy.special.logsumexp(a, axis=axis)
    except IndexError:
        # scipy cannot shape the result for an empty input with more than
        # one dimension reduced over every axis; the sum is still empty.
        assert a.size == 0 and axis is None and a.ndim > 1
        assert logsumexp(a, axis=axis) == -INF
        return
    assert_same_bits(logsumexp(a, axis=axis), want)


def test_logsumexp_scalar_and_integer_input():
    assert_same_bits(logsumexp(3.0), scipy.special.logsumexp(3.0))
    assert_same_bits(logsumexp([1, 2]), scipy.special.logsumexp([1, 2]))


# ---------------------------------------------------------------------------
# lr_train against the loop it replaced


def _csr_design(examples, n_features):
    """The design matrix as a scipy.sparse matrix, with labels and weights."""
    data, indices, indptr = [], [], [0]
    for ex in examples:
        data.extend(ex.features.values)
        indices.extend(ex.features.ids)
        indptr.append(len(indices))
    X = sp.csr_matrix((np.asarray(data, dtype=float),
                       np.asarray(indices, dtype=np.int64),
                       np.asarray(indptr, dtype=np.int64)),
                      shape=(len(examples), n_features))
    return (X, np.asarray([ex.label for ex in examples], dtype=np.int64),
            np.asarray([ex.weight for ex in examples], dtype=float))


def _oracle_lr_train(examples, n_classes, n_features, l2_variance, cfg):
    """lr_train as it was: scipy.sparse's products, scipy's logsumexp, X.T
    rebuilt for every gradient and softmax probabilities at every trial
    point of the line search.  Also reports whether any trial point's
    objective was non-finite."""
    X, y, w = _csr_design(examples, n_features)
    n = X.shape[0]
    nonfinite = False

    def objective_probs(W):
        logits = X @ W.T
        lse = scipy.special.logsumexp(logits, axis=1)
        data_loss = float(np.dot(w, lse - logits[np.arange(n), y]))
        penalty = float(np.sum(W * W)) / (2.0 * l2_variance)
        return data_loss + penalty, np.exp(logits - lse[:, None])

    def gradient(W, P):
        rows = P.copy()
        rows[np.arange(n), y] -= 1.0
        rows *= w[:, None]
        return (X.T @ rows).T + W / l2_variance

    W = np.zeros((n_classes, n_features))
    f, P = objective_probs(W)
    step, epoch = cfg.initial_step, 0
    for epoch in range(1, cfg.max_epochs + 1):
        grad = gradient(W, P)
        gnorm2 = float(np.sum(grad * grad))
        if np.max(np.abs(grad)) < cfg.grad_tol:
            epoch -= 1
            break
        step = min(step * 2.0, 1e6)
        accepted = False
        while step >= cfg.min_step:
            W_try = W - step * grad
            f_try, P_try = objective_probs(W_try)
            nonfinite |= not np.isfinite(f_try)
            if np.isfinite(f_try) and f_try <= f - cfg.armijo * step * gnorm2:
                W, f, P = W_try, f_try, P_try
                accepted = True
                break
            step *= cfg.backtrack
        if not accepted:
            break
    return W, epoch, nonfinite


def _lr_problem(seed, n=60, n_features=25, n_classes=4, duplicates=False,
                empty=False, zero_weight=False, value_scale=1.0,
                weight_scale=1.0):
    """Sparse count features, as the tasks produce, with repeated rows.

    ``duplicates`` repeats two feature ids within each example, ``empty``
    leaves every seventh example without features, ``zero_weight`` gives
    every fifth a weight of zero, and the scales multiply every value and
    weight."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        ids = np.unique(rng.integers(0, n_features, size=5))
        if duplicates:
            ids = np.concatenate([ids, ids[:2]])
        if empty and i % 7 == 0:
            ids = ids[:0]
        values = rng.integers(1, 4, size=ids.size) * value_scale
        weight = float(rng.uniform(0.1, 3.0)) * weight_scale
        examples.append(LabeledExample(
            FeatureVector(tuple(int(j) for j in ids),
                          tuple(float(v) for v in values)),
            int(rng.integers(n_classes)),
            0.0 if zero_weight and i % 5 == 0 else weight))
    return examples, n_classes, n_features


@pytest.mark.parametrize("seed, problem, variance, max_epochs, capped, "
                         "nonfinite", [
    pytest.param(0, {}, 1.0, 500, False, False, id="0-60-1.0-500-False"),
    # a strong prior: converges in few epochs
    pytest.param(1, {}, 0.05, 500, False, False, id="1-60-0.05-500-False"),
    # stopped by the epoch cap
    pytest.param(2, {}, 4.0, 7, True, False, id="2-60-4.0-7-True"),
    # no examples: zero gradient at the start
    pytest.param(3, {"n": 0}, 1.0, 500, False, False, id="3-0-1.0-500-False"),
    pytest.param(4, {"duplicates": True}, 1.0, 500, True, False,
                 id="duplicate-ids"),
    pytest.param(5, {"empty": True}, 1.0, 500, False, False, id="empty-row"),
    pytest.param(6, {"n": 20, "n_features": 40, "n_classes": 2}, 1.0, 500,
                 False, False, id="K2-F40-n20"),
    pytest.param(7, {"n": 20, "n_features": 40, "n_classes": 12}, 1.0, 500,
                 False, False, id="K12-F40-n20"),
    pytest.param(8, {"zero_weight": True}, 1.0, 500, False, False,
                 id="zero-weights"),
    # ||W||^2 of the first doubled step overflows; smaller steps still train
    pytest.param(9, {"value_scale": 1e-140, "weight_scale": 2e292}, 1.0, 40,
                 True, True, id="overflowing-trial"),
])
def test_lr_train_matches_oracle_bytes(seed, problem, variance, max_epochs,
                                       capped, nonfinite):
    examples, K, F = _lr_problem(seed, **problem)
    cfg = LROptimizerConfig(max_epochs=max_epochs)
    with np.errstate(over="ignore", invalid="ignore"):
        want_W, want_epochs, want_nonfinite = _oracle_lr_train(
            examples, K, F, variance, cfg)
        model = lr_train(examples, K, F, variance, config=cfg)
    assert (want_epochs == max_epochs) == capped
    assert want_nonfinite == nonfinite
    assert model.trained_epochs == want_epochs
    assert model.weights.tobytes() == want_W.tobytes()


def test_lr_train_raises_when_the_gradient_norm_overflows():
    """Values scaled by 1e155 overflow the squared gradient norm, so no
    step can pass the Armijo test: the fit must fail, not return its zero
    starting weights."""
    examples, K, F = _lr_problem(9, value_scale=1e155)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(OptimizerError, match="gradient norm non-finite"):
        lr_train(examples, K, F, 1.0, config=LROptimizerConfig())


@pytest.mark.parametrize("K", [2, 12])
def test_sparse_kernels_match_scipy_products(K):
    """lr_train calls scipy's compiled CSR/CSC kernels directly, loaded by
    searn.classifiers from the file scipy.sparse loads, without running
    that package's init; they must give the bits of scipy.sparse's
    ``X @ W.T`` and ``X.T @ G``."""
    assert Path(_sparsetools.__file__).samefile(sp._sparsetools.__file__)
    rng = np.random.default_rng(K)
    F = 9
    ids = [[1, 4, 1, 7], [], [0, 8, 8, 8], [3], [5, 2, 5]]  # repeats, empty
    examples = [LabeledExample(FeatureVector(r, rng.normal(size=len(r))),
                               0, 1.0) for r in ids]
    X, _, _ = _csr_design(examples, F)
    design = _sparse_design(examples, K, F)
    n = len(examples)
    W, G = rng.normal(size=(K, F)), rng.normal(size=(n, K))
    logits, XtG = np.zeros((n, K)), np.zeros((F, K))
    _sparsetools.csr_matvecs(n, F, K, design.indptr, design.indices,
                             design.data, W.T.ravel(), logits.ravel())
    _sparsetools.csc_matvecs(F, n, K, design.indptr, design.indices,
                             design.data, G.ravel(), XtG.ravel())
    assert_same_bits(logits, X @ W.T)
    assert_same_bits(XtG, X.T @ G)


def test_missing_sparse_kernels_name_the_place_looked(monkeypatch):
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        lambda name, path: None)
    with pytest.raises(ImportError, match=r"_sparsetools .*scipy.*sparse"):
        _load_sparsetools()


# ---------------------------------------------------------------------------
# HMM lattices against scipy-based loops


def _oracle_forward(params, x):
    with np.errstate(divide="ignore"):
        log_init, log_trans, log_emit = (np.log(params.initial),
                                         np.log(params.transition),
                                         np.log(params.emission))
    alpha = np.empty((len(x), params.n_states))
    alpha[0] = log_init + log_emit[:, x[0]]
    for t in range(1, len(x)):
        alpha[t] = scipy.special.logsumexp(alpha[t - 1][:, None] + log_trans,
                                           axis=0) + log_emit[:, x[t]]
    return alpha


def _oracle_backward(params, x):
    with np.errstate(divide="ignore"):
        log_trans, log_emit = np.log(params.transition), np.log(params.emission)
    beta = np.zeros((len(x), params.n_states))
    for t in range(len(x) - 2, -1, -1):
        beta[t] = scipy.special.logsumexp(
            log_trans + (log_emit[:, x[t + 1]] + beta[t + 1])[None, :], axis=1)
    return beta


def _hmm(seed, K, V, zeros):
    """A random HMM; ``zeros`` blanks some transition and emission entries
    so that -inf terms reach the kernel."""
    rng = np.random.default_rng(seed)

    def table(shape):
        t = rng.uniform(size=shape)
        if zeros:
            t[rng.uniform(size=shape) < 0.3] = 0.0
            t[..., 0] += 0.1  # no row left empty
        return t / t.sum(axis=-1, keepdims=True)

    return HmmParams(table(K), table((K, K)), table((K, V)))


@pytest.mark.parametrize("seed, K, V, zeros", [
    (0, 2, 4, False), (1, 3, 6, False), (2, 4, 5, True), (3, 9, 3, True),
])
def test_hmm_lattices_match_oracle_bytes(seed, K, V, zeros):
    params = _hmm(seed, K, V, zeros)
    rng = np.random.default_rng(100 + seed)
    for length in (1, 2, 15):
        x = rng.integers(0, V, size=length)
        alpha = hmm_log_forward(params, x)
        assert_same_bits(alpha, _oracle_forward(params, x))
        assert_same_bits(hmm_log_backward(params, x),
                         _oracle_backward(params, x))
        assert_same_bits(float(logsumexp(hmm_log_forward(params, x)[-1])),
                         float(scipy.special.logsumexp(alpha[-1])))


# ---------------------------------------------------------------------------
# Tooling guard


def test_no_module_uses_scipy_logsumexp():
    """scipy's logsumexp costs more in per-call dispatch than in arithmetic
    on the small arrays the learners pass; searn.em.logsumexp replaces it."""
    offenders = []
    for path in sorted(Path(searn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("scipy.special")
                    and any(a.name == "logsumexp" for a in node.names)):
                offenders.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Attribute) and node.attr == "logsumexp"
                  and "special" in ast.unparse(node.value)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
