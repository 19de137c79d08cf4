"""The exhaustive oracle against tests/golden/oracle.txt.

The golden file holds optimal_value's value bits, tied first actions and
node/memo-hit counts, and restricted_optimal's value bits at every psi of
size <= 1, for generated cardinality and partition instances (n = 4-10),
the same kind of coverage under an explicit prior, tabular utilities under
either prior and both counterexamples, written by tests/golden/make_oracle.py;
a fresh run must match it byte for byte.
"""

import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _make_oracle():
    spec = importlib.util.spec_from_file_location("make_oracle", GOLDEN / "make_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_matches_the_golden_file():
    module = _make_oracle()
    assert module.oracle_text() == module.GOLDEN_FILE.read_text()
