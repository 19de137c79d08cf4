"""Write rollouts_n1000.json: ASG and lazy-greedy rollouts on n=1000 instances.

Run from the repository root:  python3 tests/golden/make_rollouts.py

The first instance is the benchmark's rollout instance (n=1000, k=50, a
universe of 16 elements); the others differ only in universe size, one on
each side of CoverageUtility's weight-table cap: 12 elements (priced from
the table) and 17 (priced by the summation loop and its gain memo).  For
each instance and each of REALIZATIONS seeded realizations the file
records, per policy, the selection order, the selected set, the Delta and
f counters, repr() of the final value and steps_sha256, the sha256 of every
trace step's (candidates, chosen, observed, Delta's .hex()).  A last record
holds the .hex() of a Monte Carlo mean and standard error
(expected_utility(mode="mc")) on a small partition instance, so every Python
version checks the bits of its sums.  tests/test_golden_rollouts.py compares a fresh run with the file
exactly, so regenerate it only when a change is meant to alter a seeded
selection, a count, a trace step or a Monte Carlo bit, and say why.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from adasub import (  # noqa: E402
    adaptive_greedy,
    adaptive_stochastic_greedy,
    expected_utility,
    generalized_asg,
    generate_coverage,
    run_policy,
)

GOLDEN_FILE = HERE / "rollouts_n1000.json"
REALIZATIONS = 3
K, EPS = 50, 0.1
UNIVERSE_SIZES = (16, 12, 17)
MC_GROUPS, MC_LIMITS = [[0, 1, 2, 3], [4, 5, 6, 7]], [2, 1]
MC_SAMPLES, MC_SEED = 200, 4


def steps_sha256(trace) -> str:
    """sha256 of the repr of each step's (candidates, chosen, observed, Delta
    as .hex() or None), which pins every step's record to the bit."""
    steps = [(s.candidates, s.chosen, s.observed, None if s.delta is None else s.delta.hex())
             for s in trace.steps]
    return hashlib.sha256(repr(steps).encode()).hexdigest()


def rollouts() -> list:
    """One record per (universe size, realization, policy), in a fixed order."""
    records = []
    for universe_size in UNIVERSE_SIZES:
        inst = generate_coverage(n=1000, m=2, universe_size=universe_size, density=0.2,
                                 seed=77)
        for i in range(REALIZATIONS):
            stream = "golden:%d" % i
            phi = inst.prior.sample(random.Random(stream))
            for pi in (adaptive_stochastic_greedy(K, EPS), adaptive_greedy(K, "lazy")):
                f = inst.utility()
                trace = run_policy(pi, f, inst.prior, phi, seed=stream)
                records.append({
                    "universe_size": universe_size,
                    "realization": i,
                    "policy": pi.describe(),
                    "chosen": [step.chosen for step in trace.steps],
                    "selected": list(trace.selected),
                    "delta_counter": f.delta_counter,
                    "f_counter": f.f_counter,
                    "value": repr(trace.value),
                    "steps_sha256": steps_sha256(trace),
                })
    return records


def monte_carlo() -> list:
    """GASG's Monte Carlo estimate on the golden run_mc.csv instance."""
    inst = generate_coverage(n=8, m=2, universe_size=8, density=0.3, seed=3,
                             groups=MC_GROUPS, limits=MC_LIMITS)
    pi = generalized_asg(MC_GROUPS, MC_LIMITS, 0.3)
    mean, se = expected_utility(inst.utility(), inst.prior, pi, mode="mc",
                                samples=MC_SAMPLES, seed=MC_SEED)
    return [{"monte_carlo": pi.describe(), "samples": MC_SAMPLES, "seed": MC_SEED,
             "mean": mean.hex(), "se": se.hex()}]


def records() -> list:
    return rollouts() + monte_carlo()


def main():
    lines = ",\n".join(json.dumps(record) for record in records())
    with open(GOLDEN_FILE, "w") as fh:
        fh.write("[\n%s\n]\n" % lines)


if __name__ == "__main__":
    main()
