"""Protocol-level tests for the experiment recipes (small scales only)."""

import numpy as np
import pytest

from searn.errors import ConfigError
from searn.experiments import (CurvePoint, ParseExperiment,
                               SequenceExperiment, equivalence_sweep,
                               learning_curve, parse_corpus,
                               random_parse_baseline, run_parse,
                               run_sequence, run_sequence_em,
                               run_sequence_searn, sequence_datasets)

TINY_SEQ = SequenceExperiment(order=1, n_states=2, n_datasets=2,
                              n_sequences=2, mean_length=8.0,
                              em_iterations=3, iterations=2, master_seed=7)
TINY_PARSE = ParseExperiment(n_sentences=60, train_limit=30, iterations=2,
                             master_seed=3)


class TestSequenceDatasets:
    def test_grid_shape(self):
        ds = sequence_datasets(TINY_SEQ)
        assert len(ds) == TINY_SEQ.n_datasets
        for xs, gold in ds:
            assert len(xs) == TINY_SEQ.n_sequences
            assert len(gold) == sum(len(x) for x in xs)
            assert all(0 <= g < TINY_SEQ.n_states for g in gold)

    def test_deterministic(self):
        a = sequence_datasets(TINY_SEQ)
        b = sequence_datasets(TINY_SEQ)
        assert all(xa == xb and np.array_equal(ga, gb)
                   for (xa, ga), (xb, gb) in zip(a, b))

    def test_datasets_differ(self):
        a, b = sequence_datasets(TINY_SEQ)[:2]
        assert a[0] != b[0]

    def test_master_seed_changes_data(self):
        other = SequenceExperiment(order=1, n_states=2, n_datasets=2,
                                   n_sequences=2, mean_length=8.0,
                                   master_seed=8)
        assert sequence_datasets(TINY_SEQ)[0][0] != \
            sequence_datasets(other)[0][0]

    def test_order_validated(self):
        with pytest.raises(ConfigError):
            SequenceExperiment(order=3)


class TestSequenceArms:
    def test_em_summary(self):
        s = run_sequence_em(TINY_SEQ)
        assert s.n_runs == TINY_SEQ.n_datasets
        assert all(0.0 <= v <= 1.0 for v in s.values)

    def test_searn_nb_summary(self):
        s = run_sequence_searn(TINY_SEQ, "nb")
        assert s.n_runs == TINY_SEQ.n_datasets
        assert all(0.0 <= v <= 1.0 for v in s.values)

    def test_searn_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            run_sequence_searn(TINY_SEQ, "svm")

    def test_dispatcher_matches_arm(self):
        assert run_sequence(TINY_SEQ, "em").mean == \
            run_sequence_em(TINY_SEQ).mean
        with pytest.raises(ConfigError):
            run_sequence(TINY_SEQ, "viterbi")

    def test_reruns_identical(self):
        assert run_sequence_searn(TINY_SEQ, "nb").values == \
            run_sequence_searn(TINY_SEQ, "nb").values


class TestParseProtocol:
    def test_corpus_split(self):
        train, dev, test = parse_corpus(TINY_PARSE)
        assert len(train) <= TINY_PARSE.train_limit
        assert dev and test
        again = parse_corpus(TINY_PARSE)
        assert [s.tags for s in train] == [s.tags for s in again[0]]

    def test_random_baseline_bounded(self):
        acc = random_parse_baseline(TINY_PARSE)
        assert 0.0 <= acc <= 1.0
        assert acc == random_parse_baseline(TINY_PARSE)

    def test_sup_run_beats_nothing(self):
        acc = run_parse(TINY_PARSE, "sup")
        assert 0.0 <= acc <= 1.0

    def test_semi_requires_count(self):
        with pytest.raises(ConfigError):
            run_parse(TINY_PARSE, "semi")

    def test_unknown_supervision(self):
        with pytest.raises(ConfigError):
            run_parse(TINY_PARSE, "distant")

    def test_labeled_count_capped(self):
        with pytest.raises(ConfigError):
            run_parse(TINY_PARSE, "semi", labeled_count=10_000)


class TestLearningCurve:
    def test_rows_and_ordering(self):
        rows = learning_curve(TINY_PARSE, [5], master_seeds=(0,))
        assert [(r.arm, r.labeled_count) for r in rows] == \
            [("unsup", 0), ("semi", 5), ("sup", 5)]
        for r in rows:
            assert isinstance(r, CurvePoint)
            assert r.two_sigma == 0.0  # single seed
            assert 0.0 <= r.mean <= 1.0

    def test_empty_counts_rejected(self):
        with pytest.raises(ConfigError):
            learning_curve(TINY_PARSE, [])

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError, match="master_seeds"):
            learning_curve(TINY_PARSE, [5], master_seeds=())

    def test_repeated_seed_rejected(self):
        # two equal runs once read as a spread of 0 on every row
        with pytest.raises(ConfigError, match="repeat a seed"):
            learning_curve(TINY_PARSE, [5], master_seeds=(0, 0))


class TestEquivalenceSweep:
    def test_trainers_coincide(self):
        reports = equivalence_sweep(n_corpora=4, iterations=5)
        assert len(reports) == 4
        assert all(r.passed for r in reports)
        assert max(r.max_diff for r in reports) < 1e-8

    def test_corpora_distinct(self):
        reports = equivalence_sweep(n_corpora=4, iterations=3)
        trajectories = [tuple(r.theta_diffs) for r in reports]
        assert len(set(trajectories)) == len(trajectories)
