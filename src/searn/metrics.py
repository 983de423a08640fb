"""Evaluation: matched Hamming error, arc accuracy, run aggregation."""

import csv
import math
from dataclasses import dataclass

import numpy as np

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
    errors.  The confusion matrix covers only the labels that occur, so
    its size does not grow with the label ids; a label that never occurs
    would add only zero-count pairs, which change no matching's score.
    The best alignment's agreement comes from :func:`_max_agreement` as an
    exact integer, so the score does not depend on which of several
    optimal alignments the solver finds.
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
    pred_labels, pred = np.unique(pred, return_inverse=True)
    gold_labels, gold = np.unique(gold, return_inverse=True)
    confusion = np.zeros((len(pred_labels), len(gold_labels)), dtype=np.int64)
    np.add.at(confusion, (pred, gold), 1)
    return 1.0 - _max_agreement(confusion.tolist()) / len(pred)


def _max_agreement(counts) -> int:
    """Largest total of a one-to-one pairing of the rows of a non-negative
    integer matrix (a list of equal-length rows) with its columns.

    The Hungarian method (Kuhn, 1955) in its O(n^3) shortest-augmenting-path
    form: the matrix is padded to n x n with zeros and its negation is the
    cost, so every potential is an integer.  Rows are added one at a time;
    ``match[j]`` is the row on column j, and column 0 is the free row's
    virtual start.
    """
    n_rows, n_cols = len(counts), len(counts[0])
    n = max(n_rows, n_cols)
    cost = [[0] * (n + 1)]
    cost += [[0] + [-c for c in row] + [0] * (n - n_cols) for row in counts]
    cost += [[0] * (n + 1)] * (n - n_rows)
    u, v = [0] * (n + 1), [0] * (n + 1)
    match, way = [0] * (n + 1), [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        slack = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while match[j0]:
            used[j0] = True
            i0 = match[j0]
            row, ui = cost[i0], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    reduced = row[j] - ui - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return sum(counts[match[j] - 1][j - 1] for j in range(1, n + 1)
               if match[j] <= n_rows and j <= n_cols)


def corpus_arc_accuracy(preds, golds) -> float:
    """Token-weighted accuracy pooled over a corpus of tree pairs: the
    fraction of tokens whose predicted head (root included) is gold's."""
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


def summarize(values, metric: str) -> RunSummary:
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

