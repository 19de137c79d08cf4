"""Write oracle.txt: the exhaustive oracle's results on generated instances.

Run from the repository root:  python3 tests/golden/make_oracle.py

For each instance (cardinality and partition constraints, n = 4-10) the file
records optimal_value's value as float.hex, its tied optimal first actions,
its nodes_expanded and cache_hits, and restricted_optimal's value (float.hex)
at every possible psi of size <= 1 for a few (items, budget) columns, all
answered by one RestrictedOracle, whose node count closes the block.
`gen --n 8 --seed 1 --k 3` is README's oracle example.
tests/test_golden_oracle.py compares a fresh run with the file byte for
byte, so regenerate it only when a change is meant to alter an optimum, a
first action or a count, and say why.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from adasub import generate_coverage, optimal_value  # noqa: E402
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
    for n, m, universe, seed, con in CASES:
        if isinstance(con, int):
            inst = generate_coverage(n=n, m=m, universe_size=universe, density=0.3,
                                     seed=seed, k=con)
        else:
            inst = generate_coverage(n=n, m=m, universe_size=universe, density=0.3,
                                     seed=seed, groups=con[0], limits=con[1])
        res = optimal_value(inst.utility(), inst.prior, inst.constraint)
        lines += ["instance %s" % _describe(n, m, universe, seed, con),
                  "value %s" % res.value.hex(),
                  "optimal_first_actions %s" % ",".join(map(str, res.optimal_first_actions)),
                  "nodes_expanded %d" % res.nodes_expanded,
                  "cache_hits %d" % res.cache_hits]
        oracle = RestrictedOracle(inst.utility(), inst.prior)
        for psi in enumerate_partial_realizations(inst.prior, max_size=1):
            for items, a in _columns(n):
                lines.append("restricted psi=%s items=%s a=%d %s" % (
                    ",".join("%d:%d" % pair for pair in psi.pairs) or "-",
                    ",".join(map(str, items)), a, oracle(psi, items, a).hex()))
        lines.append("restricted_nodes %d" % oracle.rec.nodes)
    return "\n".join(lines) + "\n"


def main():
    GOLDEN_FILE.write_text(oracle_text())


if __name__ == "__main__":
    main()
