"""The constant-cost test against the rounding rule it replaced.

``generate_examples`` drops a cost vector that is constant at
``_COST_DECIMALS`` decimals.  The rule was ``np.round`` then "every entry
equals the first"; every vector it sees is a regret vector (the minimum
subtracted, so one entry is exactly 0), for which a plain scaled
comparison gives the same answer.
"""

import numpy as np
import pytest

from searn.core import _COST_DECIMALS, _constant_costs


def rounding_rule(costs) -> bool:
    rounded = np.round(costs, _COST_DECIMALS)
    return bool(np.all(rounded == rounded[0]))


def regret(values) -> np.ndarray:
    costs = np.asarray(values, dtype=float)
    return costs - costs.min()


def test_agrees_with_rounding_on_random_regret_vectors():
    rng = np.random.default_rng(20)
    n, constant = 100_000, 0
    for _ in range(n):
        length = int(rng.integers(2, 13))
        scale = 10.0 ** rng.uniform(-14, 3)
        values = rng.random(length) * scale
        # ties and entries on the rounding boundary's grid
        values[rng.random(length) < 0.2] = 0.0
        if rng.random() < 0.1:
            values = rng.integers(0, 8, length) * 1e-13
        costs = regret(values)
        expected = rounding_rule(costs)
        assert _constant_costs(costs) == expected, costs.tolist()
        constant += expected
    # both answers are well represented
    assert 0.1 * n < constant < 0.9 * n


@pytest.mark.parametrize("costs", [
    [0.0, 5e-13],
    [0.0, np.nextafter(5e-13, 1)],
    [0.0, np.nextafter(5e-13, 0)],
    [5e-13, 0.0, 1e-13],
    [0.0, 0.0],
    [0.0] * 12,
    [0.0, 1e-12],
    [0.0, 1.0],
], ids=["half-unit", "above-half", "below-half", "half-unit-last",
        "zeros", "twelve-zeros", "one-unit", "one"])
def test_edge_cases_agree_with_rounding(costs):
    costs = np.asarray(costs)
    assert _constant_costs(costs) == rounding_rule(costs)


@pytest.mark.parametrize("length", [2, 3, 5])
def test_nan_is_never_constant(length):
    for position in range(length):
        for fill in (0.0, 1e-14, 1.0):
            costs = np.full(length, fill)
            costs[0] = 0.0
            costs[position] = np.nan
            assert not rounding_rule(costs)
            assert not _constant_costs(costs)


def test_all_zeros_is_constant():
    assert _constant_costs(np.zeros(4))
