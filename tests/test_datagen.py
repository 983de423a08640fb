"""Generators: distribution validity, determinism, marginals, treebanks."""

import numpy as np
import pytest

from searn.datagen import (
    MAX_MEAN_LENGTH,
    MAX_SEQUENCE_MEAN_LENGTH,
    DocGenConfig,
    Hmm2Params,
    HmmGenConfig,
    TreebankGenConfig,
    _cdfs,
    _draw,
    gen_hmm_dataset,
    gen_hmm_params,
    gen_treebank,
    split_dataset,
)
from searn.em import HmmParams, hmm_decode
from searn.errors import ConfigError
from searn.task_depparse import (MAX_LENGTH, ParseTask, load_conll,
                                  write_conll)


def _table(seed: int) -> np.ndarray:
    """A seeded probability row of one of three kinds, by ``seed % 3``."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(size=int(rng.integers(2, 16)))
    if seed % 3 == 1:  # zero entries, as on the treebank's diagonal
        p[rng.uniform(size=p.size) < 0.4] = 0.0
        p[rng.integers(p.size)] = 1.0
    elif seed % 3 == 2:  # the treebank's peaked rows: tiny probabilities
        p = (p / p.sum()) ** 8.0
    return p / p.sum()


class TestSampler:
    """``_draw`` on ``_cdfs``' rows is ``Generator.choice(len(p), p=p)``."""

    TABLES = [_table(seed) for seed in range(240)] + [np.ones(1)]

    @staticmethod
    def _same_draws(p, row, seed, n=25):
        by_choice = np.random.default_rng(seed)
        by_draw = np.random.default_rng(seed)
        for _ in range(n):
            assert _draw(by_draw, row) == int(by_choice.choice(len(p), p=p))
            assert by_draw.bit_generator.state \
                == by_choice.bit_generator.state

    @pytest.mark.parametrize("seed", range(len(TABLES)))
    def test_same_index_and_state_as_choice(self, seed):
        p = self.TABLES[seed]
        self._same_draws(p, _cdfs(p), seed)

    def test_tables_cover_the_edge_cases(self):
        assert any((p == 0).any() for p in self.TABLES)
        assert any(p.min() < 1e-12 for p in self.TABLES)
        assert any(p.size == 1 for p in self.TABLES)
        # choice divides by the last cumulative sum; so must _cdfs
        assert any(p.cumsum()[-1] != 1.0 for p in self.TABLES)

    def test_rows_of_a_table_match_choice_per_row(self):
        # a treebank-like child table: zero diagonal, peaked rows
        rng = np.random.default_rng(1)
        table = rng.uniform(size=(12, 12)) ** 8.0
        np.fill_diagonal(table, 0.0)
        table /= table.sum(axis=1, keepdims=True)
        rows = _cdfs(table)
        for tag in range(12):
            self._same_draws(table[tag], rows[tag], tag)

    def test_sum_within_tolerance_is_accepted_like_choice(self):
        p = np.array([0.25, 0.75 + 1e-9])
        self._same_draws(p, _cdfs(p), 3)

    def test_uniform_on_a_cdf_step_goes_right(self):
        # seed 0's first uniform u is 0.637; with p = [u, 0, 1 - u] the
        # CDF is exactly [u, u, 1], so only a right-side search gives 2
        u = np.random.default_rng(0).random()
        p = np.array([u, 0.0, 1.0 - u])
        assert p.cumsum().tolist() == [u, u, 1.0]
        self._same_draws(p, _cdfs(p), 0, n=1)
        assert _draw(np.random.default_rng(0), _cdfs(p)) == 2

    def test_uniform_above_the_raw_sum(self):
        # draw 14,817,372 of seed 0 is 0.9999999984, above this row's
        # cumulative sum 1 - 1e-8: without choice's division by the last
        # entry the search would run past the end
        p = np.array([0.5, 0.5 - 1e-8])
        by_choice = np.random.default_rng(0)
        by_draw = np.random.default_rng(0)
        for rng in (by_choice, by_draw):
            rng.bit_generator.advance(14_817_372)
        assert _draw(by_draw, _cdfs(p)) \
            == int(by_choice.choice(2, p=p)) == 1

    @pytest.mark.parametrize("p", [
        [0.5, np.nan, 0.5],
        [1.2, -0.2],
        [0.5, 0.5 + 2 * np.sqrt(np.finfo(float).eps)],
        [0.5, 0.5 - 2 * np.sqrt(np.finfo(float).eps)],
        [np.inf, 0.0],
    ], ids=["nan", "negative", "sum-high", "sum-low", "inf"])
    def test_bad_table_rejected_like_choice(self, p):
        p = np.array(p)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(p), p=p)
        with pytest.raises(ValueError):
            _cdfs(p)
        with pytest.raises(ValueError):  # one bad row rejects the table
            _cdfs(np.stack([np.full(len(p), 1.0 / len(p)), p]))


class TestMeanLength:
    """A document config takes every mean Generator.poisson takes, and no
    other; a sequence config stops far below, at 100,000, since a
    sequence's states are held whole.  These build configs only: no data
    is generated near either bound."""

    NEXT = float(np.nextafter(MAX_MEAN_LENGTH, np.inf))

    def test_poisson_bound(self):
        np.random.default_rng(0).poisson(MAX_MEAN_LENGTH)
        with pytest.raises(ValueError):
            np.random.default_rng(0).poisson(self.NEXT)

    def test_hmm_config(self):
        assert MAX_SEQUENCE_MEAN_LENGTH == 100_000
        HmmGenConfig(order=1, K=2, V=4, n_sequences=1,
                     mean_length=MAX_SEQUENCE_MEAN_LENGTH, seed=0)
        above = float(np.nextafter(MAX_SEQUENCE_MEAN_LENGTH, np.inf))
        for mean in (above, MAX_MEAN_LENGTH, self.NEXT):
            with pytest.raises(ConfigError, match="at most 100000 "):
                HmmGenConfig(order=1, K=2, V=4, n_sequences=1,
                             mean_length=mean, seed=0)

    def test_doc_config(self):
        DocGenConfig(n_documents=1, vocab_size=2, n_clusters=1, seed=0,
                     mean_length=MAX_MEAN_LENGTH)
        with pytest.raises(ConfigError, match="at most"):
            DocGenConfig(n_documents=1, vocab_size=2, n_clusters=1, seed=0,
                         mean_length=self.NEXT)


class TestHmmParams:
    def test_order1_rows_normalized(self):
        params = gen_hmm_params(HmmGenConfig(order=1, K=3, V=7,
                                             n_sequences=1,
                                             mean_length=5, seed=0))
        assert isinstance(params, HmmParams)
        np.testing.assert_allclose(params.transition.sum(axis=1), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(params.emission.sum(axis=1), 1.0,
                                   atol=1e-12)

    def test_order2_table_shape(self):
        params = gen_hmm_params(HmmGenConfig(order=2, K=4, V=5,
                                             n_sequences=1,
                                             mean_length=5, seed=1))
        assert isinstance(params, Hmm2Params)
        assert params.transition.shape == (4, 4, 4)
        np.testing.assert_allclose(params.transition.sum(axis=2), 1.0,
                                   atol=1e-12)

    def test_seed_controls_tables(self):
        base = HmmGenConfig(order=1, K=2, V=4, n_sequences=1,
                            mean_length=5, seed=7)
        again = gen_hmm_params(base)
        other = gen_hmm_params(HmmGenConfig(order=1, K=2, V=4,
                                            n_sequences=1, mean_length=5,
                                            seed=8))
        np.testing.assert_array_equal(gen_hmm_params(base).transition,
                                      again.transition)
        assert not np.array_equal(again.transition, other.transition)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            HmmGenConfig(order=3, K=2, V=4, n_sequences=1, mean_length=5,
                         seed=0)
        with pytest.raises(ConfigError):
            HmmGenConfig(order=1, K=1, V=4, n_sequences=1, mean_length=5,
                         seed=0)
        with pytest.raises(ConfigError):
            HmmGenConfig(order=1, K=2, V=4, n_sequences=0, mean_length=5,
                         seed=0)
        with pytest.raises(ConfigError):
            HmmGenConfig(order=1, K=2, V=4, n_sequences=1, mean_length=0,
                         seed=0)


class TestHmmDataset:
    def test_reference_protocol_shapes(self):
        cfg = HmmGenConfig(order=1, K=2, V=10, n_sequences=5,
                           mean_length=40, seed=3)
        data = gen_hmm_dataset(gen_hmm_params(cfg), cfg)
        assert len(data) == 5
        for x, states in data:
            assert len(x) == len(states) >= 2
            assert all(0 <= v < 10 for v in x)
            assert all(0 <= s < 2 for s in states)

    def test_lengths_clamped(self):
        cfg = HmmGenConfig(order=1, K=2, V=4, n_sequences=200,
                           mean_length=0.5, seed=4)
        data = gen_hmm_dataset(gen_hmm_params(cfg), cfg)
        assert min(len(x) for x, _ in data) == 2

    def test_deterministic(self):
        cfg = HmmGenConfig(order=2, K=3, V=5, n_sequences=10,
                           mean_length=8, seed=5)
        params = gen_hmm_params(cfg)
        assert gen_hmm_dataset(params, cfg) == gen_hmm_dataset(params, cfg)

    def test_symbol_marginals_match_model(self):
        # conditioned on the realized lengths, the expected count of
        # symbol v is sum over positions of occupancy @ emission
        cfg = HmmGenConfig(order=1, K=3, V=6, n_sequences=20_000,
                           mean_length=5, seed=6)
        params = gen_hmm_params(cfg)
        data = gen_hmm_dataset(params, cfg)
        max_len = max(len(x) for x, _ in data)
        occupancy = np.empty((max_len, 3))
        occupancy[0] = params.initial
        for t in range(1, max_len):
            occupancy[t] = occupancy[t - 1] @ params.transition
        per_pos = occupancy @ params.emission
        expected = np.zeros(6)
        variance = np.zeros(6)
        for x, _ in data:
            p = per_pos[: len(x)]
            expected += p.sum(axis=0)
            variance += (p * (1.0 - p)).sum(axis=0)
        counts = np.zeros(6)
        for x, _ in data:
            for v in x:
                counts[v] += 1
        np.testing.assert_array_less(np.abs(counts - expected),
                                     3.0 * np.sqrt(variance))

    def test_identity_emissions_decode_exactly(self):
        rng = np.random.default_rng(9)
        K = 4
        transition = rng.uniform(size=(K, K))
        transition /= transition.sum(axis=1, keepdims=True)
        params = HmmParams(initial=np.full(K, 0.25),
                           transition=transition,
                           emission=np.eye(K))
        cfg = HmmGenConfig(order=1, K=K, V=K, n_sequences=20,
                           mean_length=15, seed=10)
        for x, states in gen_hmm_dataset(params, cfg):
            np.testing.assert_array_equal(hmm_decode(params, x), states)


class TestTreebank:
    def test_trees_valid_and_bounded(self):
        cfg = TreebankGenConfig(n_sentences=300, seed=11, tagset_size=12)
        bank = gen_treebank(cfg)
        assert len(bank) == 300
        # the generator fills the parse task's length cap, never passes it
        assert max(s.n_tokens for s in bank) == MAX_LENGTH
        task = ParseTask(12)
        for sent in bank:
            assert 1 <= sent.n_tokens
            assert sent.gold_tree is not None
            assert all(t < 12 for t in sent.tags)
            task.initial_state(sent)

    def test_average_length_near_seven(self):
        bank = gen_treebank(TreebankGenConfig(n_sentences=2000, seed=12,
                                              tagset_size=12))
        mean = np.mean([s.n_tokens for s in bank])
        assert 4.5 <= mean <= 9.5

    def test_deterministic_and_seed_sensitive(self):
        a = gen_treebank(TreebankGenConfig(n_sentences=50, seed=13,
                                           tagset_size=12))
        b = gen_treebank(TreebankGenConfig(n_sentences=50, seed=13,
                                           tagset_size=12))
        c = gen_treebank(TreebankGenConfig(n_sentences=50, seed=14,
                                           tagset_size=12))
        assert a == b
        assert a != c

    def test_heads_never_share_dependent_tag(self):
        bank = gen_treebank(TreebankGenConfig(n_sentences=400, seed=16,
                                              tagset_size=12))
        for sent in bank:
            for dep, head in enumerate(sent.gold_tree.heads, start=1):
                if head != 0:
                    assert sent.tags[dep - 1] != sent.tags[head - 1]

    def test_round_trip_through_conll(self, tmp_path):
        bank = gen_treebank(TreebankGenConfig(n_sentences=40, seed=15,
                                              tagset_size=12))
        path = tmp_path / "bank.conll"
        write_conll(path, bank, header_comment="seed=15")
        loaded, rejected = load_conll(path)
        assert rejected == 0
        assert loaded == bank

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TreebankGenConfig(n_sentences=0, seed=0, tagset_size=12)
        with pytest.raises(ConfigError):
            TreebankGenConfig(n_sentences=1, seed=0, tagset_size=1)


class TestSplit:
    def test_partition(self):
        items = list(range(1200))
        train, dev, test = split_dataset(items)
        assert sorted(train + dev + test) == items

    def test_rough_proportions(self):
        train, dev, test = split_dataset(list(range(1200)))
        assert 0.78 <= len(train) / 1200 <= 0.88
        assert 0.04 <= len(dev) / 1200 <= 0.13
        assert 0.04 <= len(test) / 1200 <= 0.13

    def test_deterministic(self):
        assert split_dataset(list(range(100))) \
            == split_dataset(list(range(100)))
