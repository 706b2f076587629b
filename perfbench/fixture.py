"""Write one workload's fixture CSV; run as its own process.

    python3 perfbench/fixture.py --workload cc-models --seed 3 --out PATH

Generating the fixture in the process that is measured would raise that
process's lifetime peak RSS, so run.py calls this script instead and
caches the file by (workload, seed). The file appears atomically.
"""

import argparse
import os
from pathlib import Path

from imbselect.fixtures import make_fixture
from workloads import ENCODED_FEATURES, POSITIVE_FRACTION, SEPARATION, WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out = Path(args.out)
    partial = out.with_name(out.name + f".{os.getpid()}.partial")
    make_fixture(
        "gaussian-imbalanced",
        WORKLOADS[args.workload].rows,
        POSITIVE_FRACTION,
        args.seed,
        partial,
        n_features=ENCODED_FEATURES,
        separation=SEPARATION,
    )
    os.replace(partial, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
