"""EM baselines checked against brute-force enumeration oracles."""

import itertools

import numpy as np
import pytest

from searn.em import (
    HmmParams,
    MultinomialMixtureParams,
    hmm_decode,
    hmm_em_train,
    hmm_log_backward,
    hmm_log_forward,
    hmm_random_init,
    logsumexp,
    mm_e_step,
    mm_em_train,
    mm_log_likelihood,
    mm_m_step,
    mm_random_init,
)
from searn.errors import ConfigError, DataError


def brute_force_seq_likelihood(params, x):
    """Sum of path joints over all K**T state sequences."""
    K = params.n_states
    total = 0.0
    for path in itertools.product(range(K), repeat=len(x)):
        p = params.initial[path[0]] * params.emission[path[0], x[0]]
        for t in range(1, len(x)):
            p *= params.transition[path[t - 1], path[t]]
            p *= params.emission[path[t], x[t]]
        total += p
    return total


def brute_force_best_path(params, x):
    K = params.n_states
    best, best_p = None, -1.0
    # iterate lowest-id-first so ties keep the earlier path
    for path in itertools.product(range(K), repeat=len(x)):
        p = params.initial[path[0]] * params.emission[path[0], x[0]]
        for t in range(1, len(x)):
            p *= params.transition[path[t - 1], path[t]]
            p *= params.emission[path[t], x[t]]
        if p > best_p:
            best, best_p = path, p
    return np.asarray(best)


def random_hmm(K, V, seed):
    return hmm_random_init(K, V, seed)


def random_docs(n, V, seed, scale=10):
    rng = np.random.default_rng(seed)
    return rng.integers(0, scale, size=(n, V)).astype(float)


class TestMixtureOfMultinomials:
    def test_e_step_rows_normalized(self):
        params = mm_random_init(3, 5, 0)
        docs = random_docs(8, 5, 1)
        z = mm_e_step(params, docs)
        np.testing.assert_allclose(z.sum(axis=1), np.ones(8), atol=1e-12)
        assert np.all(z >= 0)

    def test_e_step_matches_direct_computation(self):
        params = MultinomialMixtureParams(
            rho=[0.5, 0.5], theta=[[0.9, 0.1], [0.5, 0.5]])
        z = mm_e_step(params, [[2.0, 0.0]])
        # frozen: joints .405 and .125
        np.testing.assert_allclose(z[0], [0.7641509433962265,
                                          0.23584905660377356], atol=1e-12)

    def test_m_step_recovers_cluster_means(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        docs = np.array([[4.0, 0.0], [2.0, 2.0], [0.0, 6.0]])
        params = mm_m_step(z, docs)
        np.testing.assert_allclose(params.rho, [2 / 3, 1 / 3], atol=1e-12)
        np.testing.assert_allclose(params.theta,
                                   [[0.75, 0.25], [0.0, 1.0]], atol=1e-12)

    def test_m_step_empty_cluster_unsmoothed_is_error(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        docs = np.array([[1.0, 1.0], [2.0, 0.0]])
        with pytest.raises(DataError):
            mm_m_step(z, docs)

    def test_log_likelihood_non_decreasing(self):
        docs = random_docs(20, 6, 2)
        init = mm_random_init(3, 6, 3)
        params = init
        prev = mm_log_likelihood(params, docs)
        for _ in range(15):
            z = mm_e_step(params, docs)
            params = mm_m_step(z, docs)
            cur = mm_log_likelihood(params, docs)
            assert cur >= prev - 1e-9
            prev = cur

    def test_single_cluster_closed_form(self):
        # K = 1: theta is the pooled count vector, normalized; EM is exact
        # after one step.
        docs = random_docs(10, 4, 4)
        init = mm_random_init(1, 4, 5)
        params, _ = mm_em_train(docs, init, iterations=1)
        pooled = docs.sum(axis=0)
        np.testing.assert_allclose(params.theta[0], pooled / pooled.sum(),
                                   atol=1e-12)
        np.testing.assert_allclose(params.rho, [1.0], atol=1e-12)

    def test_trajectory_length_and_final(self):
        docs = random_docs(6, 3, 6)
        init = mm_random_init(2, 3, 7)
        params, traj = mm_em_train(docs, init, iterations=5)
        assert len(traj) == 5
        np.testing.assert_array_equal(traj[-1].rho, params.rho)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ConfigError):
            MultinomialMixtureParams(rho=[0.5, 0.6], theta=[[1.0], [1.0]])

    @pytest.mark.parametrize("theta", [[[1.5, -0.5, 0.0]],
                                       [[np.nan, 0.5, 0.5]],
                                       [[np.inf, 0.0, 0.0]]],
                             ids=["negative", "nan", "inf"])
    def test_negative_or_nonfinite_entry_rejected(self, theta):
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            MultinomialMixtureParams(rho=[1.0], theta=theta)
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            HmmParams(initial=[1.0], transition=[[1.0]], emission=theta)

    @pytest.mark.parametrize("k", [0, -1])
    def test_random_init_needs_a_cluster(self, k):
        # -1 once raised numpy's "negative dimensions are not allowed"
        with pytest.raises(ConfigError, match="at least 1 cluster"):
            mm_random_init(k, 4, 0)

    def test_row_sums_within_tolerance(self):
        # a row passes when |sum - 1| <= 1e-12
        MultinomialMixtureParams(rho=[1.0], theta=[[0.5, 0.5 + 5e-13]])
        with pytest.raises(ConfigError, match="sum to 1"):
            MultinomialMixtureParams(rho=[1.0], theta=[[0.5, 0.5 + 5e-12]])


class TestHmmForwardBackward:
    def test_forward_matches_brute_force(self):
        # the K = 3, T = 4 enumeration: 81 paths
        params = random_hmm(3, 4, 10)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.integers(0, 4, size=4)
            ll = logsumexp(hmm_log_forward(params, x)[-1])
            expected = np.log(brute_force_seq_likelihood(params, x))
            np.testing.assert_allclose(ll, expected, atol=1e-10)

    def test_forward_backward_agree_at_every_position(self):
        from scipy.special import logsumexp
        params = random_hmm(3, 5, 12)
        x = np.array([0, 3, 1, 4, 2, 2])
        alpha = hmm_log_forward(params, x)
        beta = hmm_log_backward(params, x)
        per_t = logsumexp(alpha + beta, axis=1)
        np.testing.assert_allclose(per_t, per_t[0] * np.ones(len(x)),
                                   atol=1e-10)

    def test_length_one_sequence(self):
        params = random_hmm(2, 3, 13)
        ll = logsumexp(hmm_log_forward(params, [1])[-1])
        expected = np.log(np.dot(params.initial, params.emission[:, 1]))
        np.testing.assert_allclose(ll, expected, atol=1e-12)


class TestBaumWelch:
    def _sample_data(self, params, n, mean_len, seed):
        rng = np.random.default_rng(seed)
        data = []
        for _ in range(n):
            T = max(2, int(rng.poisson(mean_len)))
            states = [rng.choice(params.n_states, p=params.initial)]
            for _ in range(T - 1):
                states.append(rng.choice(params.n_states,
                                         p=params.transition[states[-1]]))
            x = [rng.choice(params.vocab_size, p=params.emission[s])
                 for s in states]
            data.append(np.asarray(x))
        return data

    def test_likelihood_non_decreasing(self):
        true = random_hmm(2, 5, 20)
        data = self._sample_data(true, 4, 8, 21)
        _, history = hmm_em_train(data, 2, 5, iterations=25, seed=22, tol=0.0)
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-8)

    def test_deterministic(self):
        true = random_hmm(2, 4, 23)
        data = self._sample_data(true, 3, 6, 24)
        p1, h1 = hmm_em_train(data, 2, 4, iterations=10, seed=25, tol=1e-5)
        p2, h2 = hmm_em_train(data, 2, 4, iterations=10, seed=25, tol=1e-5)
        np.testing.assert_array_equal(p1.transition, p2.transition)
        np.testing.assert_array_equal(p1.emission, p2.emission)
        assert h1 == h2

    def test_single_state_closed_form(self):
        # K = 1: emission is the pooled symbol histogram
        data = [np.array([0, 1, 1, 2]), np.array([2, 2])]
        params, _ = hmm_em_train(data, 1, 3, iterations=3, seed=26, tol=1e-5)
        np.testing.assert_allclose(params.emission[0],
                                   [1 / 6, 2 / 6, 3 / 6], atol=1e-12)
        np.testing.assert_allclose(params.initial, [1.0], atol=1e-12)

    def test_rejects_bad_symbols(self):
        with pytest.raises(DataError):
            hmm_em_train([np.array([0, 5])], 2, 3, iterations=1, seed=0,
                         tol=1e-5)

    def test_rejects_empty_dataset(self):
        with pytest.raises(DataError):
            hmm_em_train([], 2, 3, iterations=1, seed=0, tol=1e-5)


class TestViterbi:
    def test_matches_brute_force(self):
        params = random_hmm(3, 4, 30)
        rng = np.random.default_rng(31)
        for _ in range(10):
            x = rng.integers(0, 4, size=5)
            np.testing.assert_array_equal(hmm_decode(params, x),
                                          brute_force_best_path(params, x))

    def test_tie_breaks_toward_lower_state(self):
        # fully symmetric model: every path has equal probability
        params = HmmParams(
            initial=[0.5, 0.5],
            transition=[[0.5, 0.5], [0.5, 0.5]],
            emission=[[0.5, 0.5], [0.5, 0.5]],
        )
        path = hmm_decode(params, [0, 1, 0])
        np.testing.assert_array_equal(path, [0, 0, 0])
