"""Seeded malformed-input fuzz of the command line.

Mutated instance files go through `oracle`, `verify` and `run`, and random
`--policy` descriptors through `run`.  Every outcome must be a documented
exit status (0 success, 1 check failure, 2 usage or input error, 3 over a
cap) with no uncaught exception, so no traceback.  The mutations are drawn
from a fixed seed, so a failure reproduces; FILES and SPECS keep the test
to a few seconds.
"""

import copy
import json
import random

import pytest
from click.testing import CliRunner

from adasub import (
    CardinalityConstraint,
    ExplicitPrior,
    Instance,
    complementarity_counterexample,
    generate_coverage,
)
from adasub.cli import main
from adasub.instances import dumps_instance

SEED = 0
FILES = 300         # mutated instance files, each run through four command lines
SPECS = 600         # random --policy descriptors
EXIT_CODES = {0, 1, 2, 3}

# Values a mutation writes over a field: wrong types, out-of-range numbers,
# empty and nested containers.
LEAVES = [-1, 0, 1, 2, 3, 7, 0.5, -0.0, 1e308, 10 ** 30, "x", "", None, True,
          [], {}, [0], [[0]], [-1], {"type": "x"}, "independent", "tabular"]


def _bases():
    """Small instance documents of every prior, utility and constraint kind."""
    card = generate_coverage(n=4, m=2, universe_size=6, density=0.35, seed=1, k=2)
    part = generate_coverage(n=4, m=2, universe_size=6, density=0.35, seed=2,
                             groups=[[0, 1], [2, 3]], limits=[1, 1])
    small = generate_coverage(n=3, m=2, universe_size=4, density=0.4, seed=3, k=2)
    explicit = Instance(3, 2, ExplicitPrior(small.prior.support()), small.utility_spec,
                        CardinalityConstraint(2)).validate()
    return [json.loads(dumps_instance(inst))
            for inst in (card, part, explicit, complementarity_counterexample())]


def _slots(node):
    """(container, key) for every value nested in a JSON document."""
    if isinstance(node, dict):
        entries = list(node.items())
    elif isinstance(node, list):
        entries = list(enumerate(node))
    else:
        return
    for key, child in entries:
        yield node, key
        yield from _slots(child)


def _mutate(rng, doc) -> str:
    """The text of doc after one to three random edits: nudge a number,
    overwrite a value, delete an entry or duplicate a list entry; one file in
    five is then cut short or has one character replaced."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = rng.choice(slots)
        value, op = container[key], rng.random()
        if op < 0.3 and type(value) in (int, float):
            container[key] = rng.choice([value + 1, value - 1, -value, 2 * value, 0])
        elif op < 0.7:
            container[key] = copy.deepcopy(rng.choice(LEAVES))
        elif op < 0.85:
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(value))
    text = json.dumps(doc)
    if rng.random() < 0.2:
        i = rng.randrange(len(text))
        tail = "" if rng.random() < 0.5 else rng.choice('{}[],:"0-.ex') + text[i + 1:]
        text = text[:i] + tail
    return text


def _descriptor(rng) -> str:
    """A random policy descriptor: mostly well-formed names and keys with
    values of every kind, sometimes with stray characters."""
    name = rng.choice(["greedy", "lazy", "asg", "random", "local", "gasg", "empty",
                       "Greedy", "gasg_", "x", ""])
    if rng.random() < 0.2:
        return name
    parts = []
    for _ in range(rng.randint(0, 3)):
        key = rng.choice(["k", "eps", "order", "kk", ""])
        value = rng.choice(["0", "1", "2", "3", "-1", "99", "2.5", "0.1", "0.5", "1e-320",
                            "nan", "inf", "-inf", "1:0", "0:1", "0:0", "1:0:1", "5", "",
                            "x", "1e3"])
        parts.append(rng.choice(["%s=%s", "%s = %s", "%s%s", "%s=%s="]) % (key, value))
    spec = "%s(%s)" % (name, ",".join(parts))
    if rng.random() < 0.1:
        spec = spec[:rng.randrange(len(spec) + 1)]
    return spec


def _assert_documented(res, what):
    assert res.exit_code in EXIT_CODES, (what, res.exit_code, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        what, repr(res.exception))
    assert "Traceback" not in res.output, what


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def test_mutated_instance_files(runner, tmp_path):
    rng = random.Random(SEED)
    bases = _bases()
    path, out = tmp_path / "inst.json", tmp_path / "out.txt"
    for i in range(FILES):
        text = _mutate(rng, bases[i % len(bases)])
        path.write_text(text)
        for args in (["oracle"], ["verify", "--checks", "monotone,submodular,fully"],
                     ["run", "--policy", "greedy(k=2)"],
                     ["run", "--policy", "random(k=1)", "--mode", "mc", "--samples", "5"]):
            res = runner.invoke(main, args + ["--instance", str(path), "--out", str(out)])
            _assert_documented(res, (args, text))


def test_random_policy_descriptors(runner, tmp_path):
    rng = random.Random(SEED)
    paths = []
    for i, doc in enumerate(_bases()[:2]):     # cardinality, partition
        paths.append(tmp_path / ("inst%d.json" % i))
        paths[-1].write_text(json.dumps(doc))
    out = tmp_path / "run.csv"
    for i in range(SPECS):
        spec = _descriptor(rng)
        res = runner.invoke(main, ["run", "--instance", str(paths[i % 2]), "--policy", spec,
                                   "--out", str(out)])
        _assert_documented(res, spec)
