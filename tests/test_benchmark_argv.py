"""Every CLI call the benchmark makes is a run the CLI accepts.

``perfbench/harness.py`` builds each workload's calls from its sizes and
seed; a setting one of them gives that its run does not read would end
the call as a configuration error.  The workloads are built here with a
stub prober, so no CLI call runs: each argv only goes through
``configure``, which turns it into the run's settings as ``main`` does.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from searn.cli import configure

HARNESS = Path(__file__).resolve().parent.parent / "perfbench" / "harness.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("_perfbench_harness",
                                                  HARNESS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class StubProber:
    """Answers every size probe with a fixed count and keeps the ``gen``
    calls a real probe would make."""

    def __init__(self, n):
        self.n = n
        self.calls = []

    def count(self, gen_argv, count_flag, data_file, lengths, power,
              target):
        self.calls.append(gen_argv + [count_flag, str(self.n)])
        return self.n


@pytest.mark.parametrize("size", ["FULL", "SMOKE"])
@pytest.mark.parametrize("seed", [0, 1, 39])
def test_workload_argv_is_accepted(harness, tmp_path, size, seed):
    for build in harness.WORKLOADS.values():
        probe = StubProber(7)
        ops = build(getattr(harness, size), seed, tmp_path, probe)
        assert ops
        for argv in [op.argv for op in ops] + probe.calls:
            configure(argv)
