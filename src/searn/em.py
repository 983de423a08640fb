"""Reference EM implementations.

Mixture of multinomials (document clustering) and Baum-Welch for
first-order HMMs.  These serve both as experimental baselines and as
independent oracles for the learning-to-search equivalence tests.

All computations run in log space with log-sum-exp stabilization; the
multinomial coefficient of the document likelihood is omitted everywhere
(it is constant in the parameters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError, DataError

_SUM_TOL = 1e-12


def _check_distribution(name, arr, axis=-1):
    sums = np.sum(arr, axis=axis)
    if not np.allclose(sums, 1.0, atol=_SUM_TOL, rtol=0.0):
        raise ConfigError(f"{name} rows must sum to 1 (got max error "
                          f"{np.max(np.abs(sums - 1.0)):.3e})")


@dataclass
class MultinomialMixtureParams:
    """Cluster priors ``rho`` (length K) and word table ``theta`` (K x V)."""

    rho: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        _check_distribution("rho", self.rho)
        _check_distribution("theta", self.theta)

    @property
    def n_clusters(self) -> int:
        return self.rho.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.theta.shape[1]


@dataclass
class HmmParams:
    """Initial, transition and emission tables of a first-order HMM."""

    initial: np.ndarray
    transition: np.ndarray
    emission: np.ndarray

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        self.transition = np.asarray(self.transition, dtype=float)
        self.emission = np.asarray(self.emission, dtype=float)
        _check_distribution("initial", self.initial)
        _check_distribution("transition", self.transition)
        _check_distribution("emission", self.emission)

    @property
    def n_states(self) -> int:
        return self.initial.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.emission.shape[1]


def _doc_matrix(docs) -> np.ndarray:
    """Stack document count vectors into an (N x V) array."""
    docs = np.asarray(docs, dtype=float)
    if docs.ndim != 2:
        raise DataError("expected a 2-d array of document word counts")
    return docs


# ---------------------------------------------------------------------------
# Mixture of multinomials


def mm_log_joint(params: MultinomialMixtureParams, docs) -> np.ndarray:
    """log rho[k] + sum_v d[n, v] log theta[k, v] with 0 * log 0 = 0.

    A zero-probability word forces the joint to -inf only when the
    document actually contains it; absent words contribute nothing.
    """
    D = _doc_matrix(docs)
    with np.errstate(divide="ignore"):
        log_rho = np.log(params.rho)
    log_theta = np.zeros_like(params.theta)
    np.log(params.theta, out=log_theta, where=params.theta > 0.0)
    joint = log_rho[None, :] + D @ log_theta.T
    blocked = (D > 0.0).astype(float) @ (params.theta <= 0.0).T.astype(float)
    joint[blocked > 0.0] = -np.inf
    return joint


def mm_e_step(params: MultinomialMixtureParams, docs) -> np.ndarray:
    """Posterior cluster responsibilities, one row per document.

    z[n, k] is proportional to rho[k] * prod_v theta[k, v] ** d[n, v],
    computed in log space and row-normalized.
    """
    log_joint = mm_log_joint(params, docs)
    norms = logsumexp(log_joint, axis=1)
    if np.any(np.isneginf(norms)):
        bad = int(np.argmax(np.isneginf(norms)))
        raise DataError(f"document {bad} has zero likelihood under every cluster")
    return np.exp(log_joint - norms[:, None])


def mm_m_step(z, docs, smoothing: float = 0.0) -> MultinomialMixtureParams:
    """Re-estimate (rho, theta) from responsibilities.

    theta[k, v] is proportional to sum_n z[n, k] * d[n, v]; rho[k] to
    sum_n z[n, k].  A cluster with zero total responsibility is an error
    when smoothing is zero.
    """
    z = np.asarray(z, dtype=float)
    D = _doc_matrix(docs)
    totals = z.sum(axis=0)
    if smoothing == 0.0 and np.any(totals == 0.0):
        raise DataError("a cluster received zero responsibility (unsmoothed mode)")
    rho = totals + smoothing
    rho /= rho.sum()
    theta = z.T @ D + smoothing
    theta /= theta.sum(axis=1, keepdims=True)
    return MultinomialMixtureParams(rho=rho, theta=theta)


def mm_log_likelihood(params: MultinomialMixtureParams, docs) -> float:
    """Incomplete-data log likelihood (multinomial coefficient omitted)."""
    return float(np.sum(logsumexp(mm_log_joint(params, docs), axis=1)))


def mm_random_init(n_clusters: int, vocab_size: int, seed) -> MultinomialMixtureParams:
    """Each distribution is an independent normalized vector of uniforms."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(size=n_clusters)
    rho /= rho.sum()
    theta = rng.uniform(size=(n_clusters, vocab_size))
    theta /= theta.sum(axis=1, keepdims=True)
    return MultinomialMixtureParams(rho=rho, theta=theta)


def mm_em_train(docs, init: MultinomialMixtureParams, iterations: int,
                smoothing: float = 0.0):
    """Run EM from an explicit initialization.

    Returns (final params, trajectory), where the trajectory lists the
    parameters after each M-step.  Useful both as a baseline and as the
    oracle the equivalence checks compare against.
    """
    params = init
    trajectory = []
    for _ in range(iterations):
        z = mm_e_step(params, docs)
        params = mm_m_step(z, docs, smoothing=smoothing)
        trajectory.append(params)
    return params, trajectory


# ---------------------------------------------------------------------------
# First-order HMM: forward-backward, Baum-Welch, Viterbi


def hmm_log_forward(params: HmmParams, x) -> np.ndarray:
    """Log forward lattice, shape (T x K)."""
    x = np.asarray(x, dtype=np.int64)
    with np.errstate(divide="ignore"):
        log_init = np.log(params.initial)
        log_trans = np.log(params.transition)
        log_emit = np.log(params.emission)
    alpha = np.empty((len(x), params.n_states))
    alpha[0] = log_init + log_emit[:, x[0]]
    for t in range(1, len(x)):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + log_trans, axis=0) \
            + log_emit[:, x[t]]
    return alpha


def hmm_log_backward(params: HmmParams, x) -> np.ndarray:
    """Log backward lattice, shape (T x K)."""
    x = np.asarray(x, dtype=np.int64)
    with np.errstate(divide="ignore"):
        log_trans = np.log(params.transition)
        log_emit = np.log(params.emission)
    beta = np.zeros((len(x), params.n_states))
    for t in range(len(x) - 2, -1, -1):
        beta[t] = logsumexp(
            log_trans + (log_emit[:, x[t + 1]] + beta[t + 1])[None, :], axis=1
        )
    return beta


def hmm_sequence_log_likelihood(params: HmmParams, x) -> float:
    return float(logsumexp(hmm_log_forward(params, x)[-1]))


def hmm_random_init(n_states: int, vocab_size: int, seed) -> HmmParams:
    rng = np.random.default_rng(seed)

    def draw(shape):
        t = rng.uniform(size=shape)
        return t / t.sum(axis=-1, keepdims=True)

    return HmmParams(
        initial=draw(n_states),
        transition=draw((n_states, n_states)),
        emission=draw((n_states, vocab_size)),
    )


def hmm_em_train(data, n_states: int, vocab_size: int, iterations: int, seed,
                 tol: float = 1e-5, init: HmmParams | None = None):
    """Baum-Welch from a random (or explicit) initialization.

    Runs until the iteration cap or until the total log likelihood improves
    by less than ``tol``.  Returns (params, per-iteration log likelihoods).
    Bit-reproducible given (data, seed, iterations).
    """
    if not data:
        raise DataError("empty dataset")
    if n_states < 1 or vocab_size < 2:
        raise ConfigError("need n_states >= 1 and vocab_size >= 2")
    data = [np.asarray(x, dtype=np.int64) for x in data]
    for x in data:
        if x.min() < 0 or x.max() >= vocab_size:
            raise DataError("symbol id outside vocabulary")
    params = init if init is not None else hmm_random_init(n_states, vocab_size, seed)
    history = []
    prev_ll = -np.inf
    for _ in range(iterations):
        init_acc = np.zeros(n_states)
        trans_acc = np.zeros((n_states, n_states))
        emit_acc = np.zeros((n_states, vocab_size))
        total_ll = 0.0
        with np.errstate(divide="ignore"):
            log_trans = np.log(params.transition)
            log_emit = np.log(params.emission)
        for x in data:
            alpha = hmm_log_forward(params, x)
            beta = hmm_log_backward(params, x)
            ll = float(logsumexp(alpha[-1]))
            total_ll += ll
            gamma = np.exp(alpha + beta - ll)
            init_acc += gamma[0]
            for t in range(len(x)):
                emit_acc[:, x[t]] += gamma[t]
            for t in range(len(x) - 1):
                log_xi = (alpha[t][:, None] + log_trans
                          + log_emit[:, x[t + 1]][None, :] + beta[t + 1][None, :]
                          - ll)
                trans_acc += np.exp(log_xi)
        params = HmmParams(
            initial=init_acc / init_acc.sum(),
            transition=trans_acc / trans_acc.sum(axis=1, keepdims=True),
            emission=emit_acc / emit_acc.sum(axis=1, keepdims=True),
        )
        history.append(total_ll)
        if total_ll - prev_ll < tol:
            prev_ll = total_ll
            break
        prev_ll = total_ll
    return params, history


def hmm_decode(params: HmmParams, x) -> np.ndarray:
    """Viterbi state sequence; ties break toward the lower state id."""
    x = np.asarray(x, dtype=np.int64)
    with np.errstate(divide="ignore"):
        log_init = np.log(params.initial)
        log_trans = np.log(params.transition)
        log_emit = np.log(params.emission)
    T, K = len(x), params.n_states
    delta = np.empty((T, K))
    back = np.zeros((T, K), dtype=np.int64)
    delta[0] = log_init + log_emit[:, x[0]]
    for t in range(1, T):
        scores = delta[t - 1][:, None] + log_trans
        back[t] = np.argmax(scores, axis=0)
        delta[t] = scores[back[t], np.arange(K)] + log_emit[:, x[t]]
    path = np.empty(T, dtype=np.int64)
    path[-1] = int(np.argmax(delta[-1]))
    for t in range(T - 2, -1, -1):
        path[t] = back[t + 1][path[t + 1]]
    return path


def hmm_posterior_decode(params: HmmParams, x) -> np.ndarray:
    """Per-position argmax of the state posterior (optional alternative)."""
    alpha = hmm_log_forward(params, x)
    beta = hmm_log_backward(params, x)
    return np.argmax(alpha + beta, axis=1)
