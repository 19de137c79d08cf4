"""Write reference_seed0.json: the oracle optimum of every run-small instance at seed 0.

Run from the repository root:  python3 perfbench/make_reference.py

The run-small workload compares the `oracle` row of each `adasub run` CSV
against these values, so regenerate them only when the instance suites
themselves change, never to make a failing check pass.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from adasub import optimal_value  # noqa: E402

from workloads import REFERENCE_FILE, acceptance_suites  # noqa: E402


def main():
    ref = {"card": [], "partition": []}
    for kind, _, inst in acceptance_suites(0):
        ref[kind].append(optimal_value(inst.utility(), inst.prior, inst.constraint).value)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
