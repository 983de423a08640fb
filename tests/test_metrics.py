"""Metric oracles: factorial matching brute force, frozen arithmetic."""

import itertools

import numpy as np
import pytest

from searn.errors import DataError
from searn.metrics import (
    corpus_arc_accuracy,
    matched_hamming,
    summarize,
    write_runs_csv,
)
from searn.task_depparse import DependencyTree


def brute_force_matched_hamming(pred, gold, k_pred, k_gold):
    """Try every injective partial mapping between the label sets."""
    n = len(pred)
    best = 0
    if k_pred <= k_gold:
        for perm in itertools.permutations(range(k_gold), k_pred):
            mapping = dict(enumerate(perm))
            agree = sum(1 for p, g in zip(pred, gold) if mapping[p] == g)
            best = max(best, agree)
    else:
        for perm in itertools.permutations(range(k_pred), k_gold):
            mapping = {p: g for g, p in enumerate(perm)}
            agree = sum(1 for p, g in zip(pred, gold)
                        if mapping.get(p) == g)
            best = max(best, agree)
    return 1.0 - best / n


class TestMatchedHamming:
    def test_permutation_of_gold_scores_zero(self):
        gold = [0, 1, 2, 0, 1, 2, 2]
        pred = [2, 0, 1, 2, 0, 1, 1]
        assert matched_hamming(pred, gold, 3, 3) == 0.0

    def test_constant_prediction_balanced_binary(self):
        assert matched_hamming([0] * 10, [0] * 5 + [1] * 5, 2, 2) == 0.5

    def test_matches_brute_force_square(self):
        rng = np.random.default_rng(0)
        for K in (2, 3, 4):
            for _ in range(20):
                n = int(rng.integers(5, 40))
                pred = rng.integers(0, K, size=n)
                gold = rng.integers(0, K, size=n)
                fast = matched_hamming(pred, gold, K, K)
                slow = brute_force_matched_hamming(pred, gold, K, K)
                assert fast == pytest.approx(slow)

    def test_matches_brute_force_rectangular(self):
        rng = np.random.default_rng(1)
        for k_pred, k_gold in ((2, 4), (4, 2), (3, 4), (4, 3)):
            for _ in range(10):
                n = int(rng.integers(8, 40))
                pred = rng.integers(0, k_pred, size=n)
                gold = rng.integers(0, k_gold, size=n)
                fast = matched_hamming(pred, gold, k_pred, k_gold)
                slow = brute_force_matched_hamming(pred, gold, k_pred,
                                                   k_gold)
                assert fast == pytest.approx(slow)

    def test_never_worse_than_identity_mapping(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(5, 50))
            pred = rng.integers(0, 3, size=n)
            gold = rng.integers(0, 3, size=n)
            identity = np.mean(pred != gold)
            assert matched_hamming(pred, gold, 3, 3) <= identity + 1e-12

    def test_invariance_under_both_relabelings(self):
        rng = np.random.default_rng(3)
        pred = rng.integers(0, 3, size=60)
        gold = rng.integers(0, 3, size=60)
        base = matched_hamming(pred, gold, 3, 3)
        for perm in itertools.permutations(range(3)):
            p2 = np.array([perm[v] for v in pred])
            g2 = np.array([perm[v] for v in gold])
            assert matched_hamming(p2, gold, 3, 3) == pytest.approx(base)
            assert matched_hamming(pred, g2, 3, 3) == pytest.approx(base)

    def test_huge_label_ids_score_like_renumbered_ones(self):
        # the confusion matrix is sized by the labels present, not by
        # the largest id, so a 3e9 label neither allocates gigabytes nor
        # moves the score
        rng = np.random.default_rng(4)
        pred = rng.integers(0, 3, size=50)
        dense = rng.integers(0, 4, size=50)
        sparse_ids = np.array([0, 7, 123_456, 3_000_000_000])
        sparse = sparse_ids[dense]
        expected = matched_hamming(pred, dense, 3, 4)
        assert matched_hamming(pred, sparse, 3, 3_000_000_001) == expected
        assert matched_hamming(sparse, pred, 3_000_000_001, 3) \
            == matched_hamming(dense, pred, 4, 3)

    def test_errors(self):
        with pytest.raises(DataError):
            matched_hamming([0, 1], [0], 2, 2)
        with pytest.raises(DataError):
            matched_hamming([], [], 2, 2)
        with pytest.raises(DataError):
            matched_hamming([0, 5], [0, 1], 2, 2)


class TestArcAccuracy:
    def test_identical_trees(self):
        tree = DependencyTree((0, 1, 1, 3))
        assert corpus_arc_accuracy([tree], [tree]) == 1.0

    def test_half_correct(self):
        assert corpus_arc_accuracy([DependencyTree((0, 0))],
                                   [DependencyTree((0, 1))]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            corpus_arc_accuracy([DependencyTree((0,))],
                                [DependencyTree((0, 1))])

    def test_corpus_pooling_is_token_weighted(self):
        act = [DependencyTree((0,)), DependencyTree((0, 1, 1))]
        ref = [DependencyTree((0,)), DependencyTree((0, 1, 2))]
        assert corpus_arc_accuracy(act, ref) == pytest.approx(3 / 4)


class TestSummarize:
    def test_two_values(self):
        s = summarize((0.0, 1.0), metric="err")
        assert s.mean == 0.5
        assert s.std == pytest.approx(np.sqrt(0.5))
        assert not s.single_run

    def test_single_value_flagged(self):
        s = summarize([0.3], metric="err")
        assert s.std == 0.0
        assert s.single_run
        assert s.n_runs == 1

    def test_order_invariant(self):
        a = summarize([3.0, 1.0, 2.0])
        b = summarize([1.0, 2.0, 3.0])
        assert a.mean == b.mean
        assert a.std == b.std

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            summarize([])


class TestEmitters:
    def test_csv_schema(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_runs_csv(path, [summarize((0.25, 0.5), metric="err")])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,run,value"
        assert lines[1] == "err,0,0.25"
        assert lines[2] == "err,1,0.5"
