"""Evaluation: matched Hamming error, arc accuracy, run aggregation."""

import csv
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DataError


@dataclass(frozen=True)
class RunSummary:
    metric: str
    values: tuple
    mean: float
    std: float
    n_runs: int
    single_run: bool


def matched_hamming(pred, gold, k_pred: int, k_gold: int) -> float:
    """Error rate after the best one-to-one label alignment.

    Labels are pooled across the whole dataset before matching; an
    unmatched label (when k_pred != k_gold) counts all its tokens as
    errors.
    """
    pred = np.asarray(pred, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    if pred.shape != gold.shape or pred.ndim != 1:
        raise DataError("prediction and gold must be equal-length vectors")
    if len(pred) == 0:
        raise DataError("no labels to score")
    if pred.min() < 0 or pred.max() >= k_pred:
        raise DataError("predicted label outside [0, k_pred)")
    if gold.min() < 0 or gold.max() >= k_gold:
        raise DataError("gold label outside [0, k_gold)")
    confusion = np.zeros((k_pred, k_gold), dtype=np.int64)
    np.add.at(confusion, (pred, gold), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    agreement = confusion[rows, cols].sum()
    return float(1.0 - agreement / len(pred))


def arc_accuracy(pred, gold) -> float:
    """Fraction of tokens whose predicted head (root included) is gold's."""
    if pred.n_tokens != gold.n_tokens:
        raise DataError("trees have different lengths")
    hits = sum(1 for p, g in zip(pred.heads, gold.heads) if p == g)
    return hits / pred.n_tokens


def corpus_arc_accuracy(preds, golds) -> float:
    """Token-weighted accuracy pooled over a corpus of tree pairs."""
    if len(preds) != len(golds):
        raise DataError("corpora have different sizes")
    if not preds:
        raise DataError("no trees to score")
    hits = 0
    total = 0
    for pred, gold in zip(preds, golds):
        if pred.n_tokens != gold.n_tokens:
            raise DataError("trees have different lengths")
        hits += sum(1 for p, g in zip(pred.heads, gold.heads) if p == g)
        total += pred.n_tokens
    return hits / total


def summarize(values, metric: str = "") -> RunSummary:
    """Mean and sample standard deviation (n-1); one run flags sigma."""
    values = tuple(float(v) for v in values)
    if not values:
        raise DataError("nothing to summarize")
    single = len(values) == 1
    std = 0.0 if single else float(np.std(values, ddof=1))
    return RunSummary(metric=metric, values=values,
                      mean=float(np.mean(values)), std=std,
                      n_runs=len(values), single_run=single)


def write_runs_csv(path, summaries) -> None:
    """One row per run: metric,run,value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "run", "value"])
        for summary in summaries:
            for run, value in enumerate(summary.values):
                writer.writerow([summary.metric, run, f"{value:.12g}"])

