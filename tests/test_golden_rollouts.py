"""Seeded n=1000 rollouts against tests/golden/rollouts_n1000.json.

The golden file holds, per instance, each ASG and lazy-greedy rollout's
selection order, selected set, Delta and f counts, repr() of its value and
the sha256 of its trace steps (candidates, choice, observation, Delta), then
the .hex() of a Monte Carlo mean and standard error, written by
tests/golden/make_rollouts.py; a fresh run must match it exactly.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _make_rollouts():
    spec = importlib.util.spec_from_file_location("make_rollouts", GOLDEN / "make_rollouts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rollouts_match_the_golden_file():
    module = _make_rollouts()
    with open(module.GOLDEN_FILE) as fh:
        golden = json.load(fh)
    assert module.records() == golden
