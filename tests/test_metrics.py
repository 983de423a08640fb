"""Metric oracles: factorial matching brute force, frozen arithmetic."""

import ast
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import searn
from searn.errors import DataError
from searn.metrics import (
    _max_agreement,
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


def brute_force_agreement(counts):
    """Best total over every injective map of the shorter side into the
    longer one."""
    m = np.asarray(counts)
    if m.shape[0] > m.shape[1]:
        m = m.T
    rows = range(m.shape[0])
    return max(int(sum(m[i, j] for i, j in zip(rows, perm)))
               for perm in itertools.permutations(range(m.shape[1]),
                                                  m.shape[0]))


def scipy_agreement(counts):
    m = np.asarray(counts)
    rows, cols = linear_sum_assignment(m, maximize=True)
    return int(m[rows, cols].sum())


def parent_matched_hamming(pred, gold):
    """matched_hamming's score as computed through scipy's solver."""
    pred_labels, pred = np.unique(pred, return_inverse=True)
    gold_labels, gold = np.unique(gold, return_inverse=True)
    confusion = np.zeros((len(pred_labels), len(gold_labels)), dtype=np.int64)
    np.add.at(confusion, (pred, gold), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    agreement = confusion[rows, cols].sum()
    return float(1.0 - agreement / len(pred))


class TestMaxAgreement:
    @pytest.mark.parametrize("n_rows", range(1, 7))
    @pytest.mark.parametrize("n_cols", range(1, 7))
    def test_matches_brute_force_every_shape(self, n_rows, n_cols):
        rng = np.random.default_rng(100 * n_rows + n_cols)
        cases = [np.zeros((n_rows, n_cols), dtype=np.int64),
                 np.full((n_rows, n_cols), 3)]
        for high in (2, 3, 50):  # small ranges give heavy ties
            for _ in range(8):
                cases.append(rng.integers(0, high, size=(n_rows, n_cols)))
        for _ in range(8):
            m = rng.integers(0, 10, size=(n_rows, n_cols))
            m[rng.integers(0, n_rows)] = 0
            m[:, rng.integers(0, n_cols)] = 0
            cases.append(m)
        for m in cases:
            assert _max_agreement(m.tolist()) == brute_force_agreement(m)

    def test_matches_scipy_up_to_40(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n_rows, n_cols = rng.integers(1, 41, size=2)
            m = rng.integers(0, rng.integers(1, 100),
                             size=(n_rows, n_cols))
            assert _max_agreement(m.tolist()) == scipy_agreement(m)

    def test_matches_scipy_on_counts_near_1e9(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 12, 40):
            for _ in range(5):
                m = 10**9 - rng.integers(0, 1000, size=(n, n + 1))
                assert _max_agreement(m.tolist()) == scipy_agreement(m)
                assert _max_agreement(m.T.tolist()) == scipy_agreement(m.T)

    def test_returns_a_python_int(self):
        assert type(_max_agreement([[2, 5], [7, 1]])) is int
        assert _max_agreement([[2, 5], [7, 1]]) == 12

    def test_matched_hamming_equals_scipy_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            k_pred, k_gold = rng.integers(1, 13, size=2)
            n = int(rng.integers(1, 500))
            pred = rng.integers(0, k_pred, size=n)
            gold = rng.integers(0, k_gold, size=n)
            assert (matched_hamming(pred, gold, k_pred, k_gold)
                    == parent_matched_hamming(pred, gold))


def test_no_module_imports_scipy_optimize():
    """scipy.optimize costs every CLI process ~0.19 s and ~27 MB to import;
    the matching that needed it is solved in searn.metrics."""
    offenders = []
    for path in sorted(Path(searn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n == "scipy.optimize" or n.startswith("scipy.optimize.")
                   for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_cli_import_loads_no_scipy_optimize():
    code = ("import sys, searn.cli; "
            "print('scipy.optimize' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          cwd=Path(searn.__file__).parent.parent)
    assert done.stdout.strip() == "False"


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
        a = summarize([3.0, 1.0, 2.0], metric="")
        b = summarize([1.0, 2.0, 3.0], metric="")
        assert a.mean == b.mean
        assert a.std == b.std

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            summarize([], metric="")


class TestEmitters:
    def test_csv_schema(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_runs_csv(path, [summarize((0.25, 0.5), metric="err")])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,run,value"
        assert lines[1] == "err,0,0.25"
        assert lines[2] == "err,1,0.5"
