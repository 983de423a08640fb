"""Protocol-level tests for the experiment recipes (small scales only)."""

from dataclasses import replace

import pytest

from searn.errors import ConfigError
from searn.experiments import (PARSE_TRAIN_LIMIT, CurvePoint,
                               ParseExperiment, equivalence_sweep,
                               learning_curve, parse_corpus,
                               random_parse_baseline, run_parse)

TINY_PARSE = ParseExperiment(n_sentences=60, tagset_size=12, beta=0.1,
                             n_samples=1, iterations=2, tree_variance=10.0,
                             tag_variance=10.0)
SEED = 3
TINY_CORPUS = parse_corpus(TINY_PARSE, SEED)


def tiny_run(supervision, labeled_count=None):
    return run_parse(TINY_PARSE, SEED, TINY_CORPUS, supervision,
                     labeled_count)


class TestParseProtocol:
    def test_corpus_split(self):
        train, dev, test = TINY_CORPUS
        assert dev and test
        big = replace(TINY_PARSE, n_sentences=700)
        assert len(parse_corpus(big, SEED)[0]) == PARSE_TRAIN_LIMIT
        again = parse_corpus(TINY_PARSE, SEED)
        assert [s.tags for s in train] == [s.tags for s in again[0]]

    def test_random_baseline_bounded(self):
        acc = random_parse_baseline(TINY_PARSE, SEED)
        assert 0.0 <= acc <= 1.0
        assert acc == random_parse_baseline(TINY_PARSE, SEED)

    def test_sup_run_beats_nothing(self):
        acc = tiny_run("sup")
        assert 0.0 <= acc <= 1.0

    def test_semi_requires_count(self):
        with pytest.raises(ConfigError):
            tiny_run("semi")

    def test_unknown_supervision(self):
        with pytest.raises(ConfigError):
            tiny_run("distant")

    def test_labeled_count_capped(self):
        with pytest.raises(ConfigError):
            tiny_run("semi", labeled_count=10_000)


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
            learning_curve(TINY_PARSE, [], master_seeds=(0,))

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError, match="--seeds names no seed"):
            learning_curve(TINY_PARSE, [5], master_seeds=())

    def test_repeated_seed_rejected(self):
        # two equal runs once read as a spread of 0 on every row
        with pytest.raises(ConfigError, match="repeat a seed"):
            learning_curve(TINY_PARSE, [5], master_seeds=(0, 0))


class TestEquivalenceSweep:
    def test_trainers_coincide(self):
        reports = equivalence_sweep(n_corpora=4, n_documents=10,
                                    vocab_size=5, iterations=5,
                                    master_seed=0)
        assert len(reports) == 4
        assert all(r.passed for r in reports)
        assert max(r.max_diff for r in reports) < 1e-8

    def test_corpora_distinct(self):
        reports = equivalence_sweep(n_corpora=4, n_documents=10,
                                    vocab_size=5, iterations=3,
                                    master_seed=0)
        trajectories = [tuple(r.theta_diffs) for r in reports]
        assert len(set(trajectories)) == len(trajectories)
