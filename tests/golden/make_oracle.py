"""Write oracle.txt: the exhaustive oracle's results on generated instances.

Run from the repository root:  python3 tests/golden/make_oracle.py

For each instance the file records optimal_value's value as float.hex, its
tied optimal first actions, its nodes_expanded and cache_hits, and
restricted_optimal's value (float.hex) at every possible psi of size <= 1 for
a few (items, budget) columns, all answered by one RestrictedOracle, whose
node count closes the block.  The instances are generated coverage under its
independent prior (cardinality and partition constraints, n = 4-10), then
instances whose histories the oracle cannot key by a covered mask: the same
kind of coverage under an explicit prior over its support, random tabular
utilities under an independent and a correlated explicit prior, and the two
hand-built counterexamples.  `gen --n 8 --seed 1 --k 3` is README's oracle
example.
tests/test_golden_oracle.py compares a fresh run with the file byte for
byte, so regenerate it only when a change is meant to alter an optimum, a
first action or a count, and say why.
"""

import itertools
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from adasub import (  # noqa: E402
    ExplicitPrior,
    IndependentPrior,
    Instance,
    complementarity_counterexample,
    generate_coverage,
    monotonicity_counterexample,
    optimal_value,
)
from adasub.policies import CardinalityConstraint, PartitionConstraint  # noqa: E402
from adasub.oracle import RestrictedOracle  # noqa: E402
from adasub.verify import enumerate_partial_realizations  # noqa: E402

GOLDEN_FILE = HERE / "oracle.txt"
# (n, m, universe, seed, k or (groups, limits)); density 0.3 and weights in
# [0.5, 1.5], the `gen` defaults.
CASES = [
    (4, 2, 8, 0, 2),
    (5, 3, 8, 1, 3),
    (6, 2, 8, 2, 3),
    (6, 2, 8, 3, ([[0, 1, 2], [3, 4, 5]], [1, 2])),
    (7, 3, 10, 4, 4),
    (8, 2, 8, 1, 3),
    (8, 2, 8, 5, ([[0, 1, 2, 3], [4, 5, 6, 7]], [2, 1])),
    (9, 2, 12, 6, 5),
    (10, 2, 8, 7, 4),
    (10, 2, 10, 8, ([[0, 1, 2], [3, 4, 5], [6, 7]], [2, 1, 2])),
    (10, 2, 12, 9, 6),
]


def _generate(n, m, universe, seed, con):
    if isinstance(con, int):
        return generate_coverage(n=n, m=m, universe_size=universe, density=0.3,
                                 seed=seed, k=con)
    return generate_coverage(n=n, m=m, universe_size=universe, density=0.3,
                             seed=seed, groups=con[0], limits=con[1])


def _normalized(rng, size):
    """size probabilities in [0.1, 1] scaled to sum to 1, rounded to 9 digits."""
    raw = [rng.uniform(0.1, 1.0) for _ in range(size)]
    total = sum(raw)
    row = [round(p / total, 9) for p in raw[:-1]]
    return row + [round(1.0 - sum(row), 9)]


def _tabular(n, m, seed, explicit, constraint):
    """f(S, phi) uniform in [0, 2] per (S, phi), so adding an item may lose
    value; the explicit prior weighs half the realizations, at random."""
    rng = random.Random(seed)
    realizations = list(itertools.product(range(m), repeat=n))
    table = [[round(rng.uniform(0.0, 2.0), 6) for _ in realizations] for _ in range(1 << n)]
    if explicit:
        support = sorted(rng.sample(realizations, len(realizations) // 2))
        prior = ExplicitPrior(list(zip(support, _normalized(rng, len(support)))))
    else:
        prior = IndependentPrior([_normalized(rng, m) for _ in range(n)])
    spec = {"type": "tabular", "realizations": [list(phi) for phi in realizations],
            "table": table}
    return Instance(n, m, prior, spec, constraint).validate()


def _explicit(inst):
    """inst with its independent prior listed as an explicit one."""
    return Instance(inst.n, inst.m, ExplicitPrior(inst.prior.support()), inst.utility_spec,
                    inst.constraint).validate()


# (label, instance) pairs that the oracle keys by the history itself.
HISTORY_CASES = [
    ("explicit " + "gen --n 6 --m 2 --universe 8 --seed 2 --k 3",
     lambda: _explicit(_generate(6, 2, 8, 2, 3))),
    ("explicit " + "gen --n 5 --m 3 --universe 8 --seed 1 --k 3",
     lambda: _explicit(_generate(5, 3, 8, 1, 3))),
    ("explicit " + "gen --n 6 --m 2 --universe 8 --seed 3 --groups '0,1,2;3,4,5' --limits 1,2",
     lambda: _explicit(_generate(6, 2, 8, 3, ([[0, 1, 2], [3, 4, 5]], [1, 2])))),
    ("tabular n=4 m=2 seed=0 independent k=3",
     lambda: _tabular(4, 2, 0, False, CardinalityConstraint(3))),
    ("tabular n=4 m=2 seed=1 explicit k=3",
     lambda: _tabular(4, 2, 1, True, CardinalityConstraint(3))),
    ("tabular n=3 m=3 seed=2 independent groups 0,1;2 limits 1,1",
     lambda: _tabular(3, 3, 2, False, PartitionConstraint.of([[0, 1], [2]], [1, 1]))),
    ("tabular n=3 m=3 seed=3 explicit k=2",
     lambda: _tabular(3, 3, 3, True, CardinalityConstraint(2))),
    ("monotonicity_counterexample", monotonicity_counterexample),
    ("complementarity_counterexample", complementarity_counterexample),
]


def _describe(n, m, universe, seed, con):
    head = "gen --n %d --m %d --universe %d --seed %d" % (n, m, universe, seed)
    if isinstance(con, int):
        return head + " --k %d" % con
    groups, limits = con
    return head + " --groups '%s' --limits %s" % (
        ";".join(",".join(map(str, g)) for g in groups), ",".join(map(str, limits)))


def _columns(n):
    """(items, budget) columns asked at each psi: all items, and every other one."""
    every = tuple(range(n))
    return [(every, 1), (every, 2), (every[::2], 2), (every[1::2], 3)]


def oracle_text() -> str:
    lines = []
    cases = [(_describe(*case), lambda case=case: _generate(*case)) for case in CASES]
    for label, make in cases + HISTORY_CASES:
        inst = make()
        n = inst.n
        res = optimal_value(inst.utility(), inst.prior, inst.constraint)
        lines += ["instance %s" % label,
                  "value %s" % res.value.hex(),
                  "optimal_first_actions %s" % (
                      ",".join(map(str, res.optimal_first_actions)) or "-"),
                  "nodes_expanded %d" % res.nodes_expanded,
                  "cache_hits %d" % res.cache_hits]
        oracle = RestrictedOracle(inst.utility(), inst.prior)
        for psi in enumerate_partial_realizations(inst.prior, max_size=1):
            for items, a in _columns(n):
                lines.append("restricted psi=%s items=%s a=%d %s" % (
                    ",".join("%d:%d" % pair for pair in psi.pairs) or "-",
                    ",".join(map(str, items)), a, oracle(psi, items, a).hex()))
        lines.append("restricted_nodes %d" % len(oracle.memo))
    return "\n".join(lines) + "\n"


def main():
    GOLDEN_FILE.write_text(oracle_text())


if __name__ == "__main__":
    main()
