"""Generators: distribution validity, determinism, marginals, treebanks."""

import numpy as np
import pytest

from searn.datagen import (
    Hmm2Params,
    HmmGenConfig,
    TreebankGenConfig,
    gen_hmm_dataset,
    gen_hmm_params,
    gen_treebank,
    split_dataset,
)
from searn.em import HmmParams, hmm_decode
from searn.errors import ConfigError
from searn.task_depparse import (MAX_LENGTH, ParseTask, ParseTaskConfig,
                                  load_conll, write_conll)


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
        task = ParseTask(ParseTaskConfig(tagset_size=12,
                                         supervision="unsup"))
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
