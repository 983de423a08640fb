"""Record the per-seed quality references the benchmark checks against.

    python3 perfbench/reference.py

Runs one repetition of every workload for each input seed (0 to
harness.REFERENCE_SEEDS - 1) and writes the quality values to
reference.json beside this file.  Every value is deterministic given the
seed and the output checks require it to be reproduced exactly, so
regenerate the file only with a change that is declared to move quality,
or one that changes the workloads' inputs.
"""

import argparse
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    cli = harness.import_searn(root)
    table = {}
    for workload, build in harness.WORKLOADS.items():
        for seed in range(harness.REFERENCE_SEEDS):
            out = root / harness.OUT_DIR / "reference" / workload / str(seed)
            ops = build(harness.FULL, seed, out,
                        harness.Prober(cli.main, out))
            rep = harness.run_rep(cli.main, ops, {})
            if rep.failed:
                print(f"{workload} seed {seed}: {rep.errors}", file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = rep.quality
            print(workload, seed, rep.quality, flush=True)
            with open(harness.REFERENCE_FILE, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
