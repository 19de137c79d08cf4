"""Problem instances: construction, generation, serialization, validation.

An instance bundles a prior, a utility specification and a constraint.  The
on-disk form is JSON with sorted keys and shortest round-trip float
formatting, so canonical files survive load/save byte-identically.

Schema:

    { "n": int, "m": int,
      "prior": {"type": "independent", "probs": [[p; m]; n]}
             | {"type": "explicit", "support": [{"states": [int; n], "p": p}]},
      "utility": {"type": "coverage", "weights": [w; u],
                  "covers": [[[elem ids]; m]; n]}
               | {"type": "tabular", "realizations": [[int; n]],
                  "table": [[v per realization]; 2^n]},
      "constraint": {"type": "cardinality", "k": int}
                  | {"type": "partition", "groups": [[int]], "limits": [int]},
      "metadata": {...} }   # optional
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .core import (
    CoverageUtility,
    ExplicitPrior,
    IndependentPrior,
    TabularUtility,
    UtilityFunction,
    _check_int,
    _left_sum,
)
from .errors import ParseError, ValidationError
from .policies import CardinalityConstraint, PartitionConstraint


@dataclass
class Instance:
    n: int
    m: int
    prior: object
    utility_spec: dict
    constraint: object
    metadata: dict = field(default_factory=dict)
    _masks: tuple = field(default=None, init=False, repr=False, compare=False)

    def utility(self) -> UtilityFunction:
        """Build a fresh utility (zeroed counters) from the stored spec.

        A coverage spec's element lists become one bitmask per (item, state)
        once per instance: the table is kept, keyed on the identity of
        utility_spec["covers"], so replacing that list rebuilds it.  Only the
        table is kept, not the built utility.
        """
        spec = self.utility_spec
        if spec["type"] == "coverage":
            covers = spec["covers"]
            cached = self._masks
            if cached is None or cached[0] is not covers:
                masks = tuple(tuple(_mask(elems) for elems in row) for row in covers)
                cached = self._masks = (covers, masks)
            return CoverageUtility(spec["weights"], cached[1])
        if spec["type"] == "tabular":
            return TabularUtility(self.n, spec["realizations"], spec["table"])
        raise ParseError("unknown utility type %r" % spec["type"])

    def validate(self):
        if self.prior.n != self.n or self.prior.m > self.m:
            raise ValidationError("prior dimensions do not match the instance")
        spec = self.utility_spec
        if spec["type"] == "coverage":
            u = len(spec["weights"])
            if len(spec["covers"]) != self.n:
                raise ValidationError("coverage must list every item")
            for e, row in enumerate(spec["covers"]):
                if len(row) != self.m:
                    raise ValidationError("item %d must cover every state" % e)
                for elems in row:
                    if any(not 0 <= x < u for x in elems):
                        raise ValidationError("coverage element out of universe")
        if isinstance(self.constraint, PartitionConstraint):
            for g in self.constraint.groups:
                if any(not 0 <= e < self.n for e in g):
                    raise ValidationError("partition group references unknown item")
        f = self.utility()  # constructor re-checks nonnegativity etc.
        if spec["type"] == "tabular":
            # An independent prior's support is counted before it is listed.
            if (isinstance(self.prior, IndependentPrior)
                    and self.prior.support_size() > len(f.realizations)):
                raise ValidationError("the prior's support is larger than the table")
            for phi, _ in self.prior.support():
                if phi not in f._index:
                    raise ValidationError("the prior's realization %r is not in the table"
                                          % (phi,))
        return self


def _mask(elems) -> int:
    mask = 0
    for x in elems:
        mask |= 1 << _check_int(x, "coverage element")
    return mask


# ---------------------------------------------------------------------------
# generation


def generate_coverage(n: int, m: int, universe_size: int, density: float,
                      weight_range=(0.5, 1.5), seed: int = 0,
                      k=None, groups=None, limits=None) -> Instance:
    """Random stochastic-coverage instance, deterministic in the seed.

    Each (item, state) covers each universe element independently with
    probability `density`; element weights are uniform in `weight_range`;
    the prior is independent with uniform-random categorical vectors.
    """
    if not 0.0 <= density <= 1.0:
        raise ValidationError("density must be in [0,1]")
    if min(_check_int(n, "n"), _check_int(m, "m"), _check_int(universe_size, "universe_size")) < 1:
        raise ValidationError("sizes must be >= 1")
    if weight_range[0] > weight_range[1]:
        raise ValidationError("empty weight range: minimum %r exceeds maximum %r"
                              % tuple(weight_range))
    rng = random.Random(seed)
    weights = [round(rng.uniform(*weight_range), 6) for _ in range(universe_size)]
    covers = [[sorted(x for x in range(universe_size) if rng.random() < density)
               for _ in range(m)] for _ in range(n)]
    probs = []
    for _ in range(n):
        raw = [rng.uniform(0.1, 1.0) for _ in range(m)]
        total = _left_sum(raw)
        row = [round(p / total, 9) for p in raw[:-1]]
        row.append(round(1.0 - _left_sum(row), 9))
        probs.append(row)
    prior = IndependentPrior(probs)
    if groups is not None:
        constraint = PartitionConstraint.of(groups, limits)
    else:
        constraint = CardinalityConstraint(min(k if k is not None else 2, n))
    meta = {"name": "coverage-%d" % seed, "seed": seed}
    inst = Instance(n, m, prior,
                    {"type": "coverage", "weights": weights, "covers": covers},
                    constraint, meta)
    return inst.validate()


def monotonicity_counterexample() -> Instance:
    """Single-realization tabular instance where selecting the item loses value."""
    prior = ExplicitPrior([((0,), 1.0)])
    spec = {"type": "tabular", "realizations": [[0]], "table": [[1.0], [0.0]]}
    return Instance(1, 1, prior, spec, CardinalityConstraint(1),
                    {"name": "monotone-violation"}).validate()


def complementarity_counterexample() -> Instance:
    """Two complementary items: each worthless alone, valuable together.

    Violates adaptive submodularity (the second item's marginal grows after
    observing the first).
    """
    prior = ExplicitPrior([((0, 0), 1.0)])
    spec = {"type": "tabular", "realizations": [[0, 0]],
            "table": [[0.0], [0.0], [0.0], [1.0]]}
    return Instance(2, 1, prior, spec, CardinalityConstraint(2),
                    {"name": "complementarity-violation"}).validate()


# ---------------------------------------------------------------------------
# serialization


def _instance_to_dict(inst: Instance) -> dict:
    prior = inst.prior
    if isinstance(prior, IndependentPrior):
        prior_d = {"type": "independent", "probs": [list(row) for row in prior.probs]}
    elif isinstance(prior, ExplicitPrior):
        prior_d = {"type": "explicit",
                   "support": [{"states": list(phi), "p": p} for phi, p in prior.weighted]}
    else:
        raise ValidationError("unsupported prior type %r" % type(prior).__name__)
    c = inst.constraint
    if isinstance(c, CardinalityConstraint):
        constraint_d = {"type": "cardinality", "k": c.remaining}
    elif isinstance(c, PartitionConstraint):
        constraint_d = {"type": "partition", "groups": [list(g) for g in c.groups],
                        "limits": list(c.remaining)}
    else:
        raise ValidationError("unsupported constraint type %r" % type(c).__name__)
    out = {"n": inst.n, "m": inst.m, "prior": prior_d,
           "utility": inst.utility_spec, "constraint": constraint_d}
    if inst.metadata:
        out["metadata"] = inst.metadata
    return out


def _require(d, key, types, where):
    if key not in d:
        raise ParseError("missing field %r in %s" % (key, where))
    val = d[key]
    # No field is a bool, and a bool is an int to isinstance: true would pass as 1.
    if not isinstance(val, types) or isinstance(val, bool):
        raise ParseError("field %r in %s has wrong type" % (key, where))
    return val


def _ints(values, where):
    """values, once each is a JSON integer: int() would truncate 2.5 to 2."""
    for x in values:
        if type(x) is not int:
            raise ParseError("%s must be integers, got %r" % (where, x))
    return values


def _instance_from_dict(d: dict) -> Instance:
    n = _require(d, "n", int, "instance")
    m = _require(d, "m", int, "instance")
    prior_d = _require(d, "prior", dict, "instance")
    ptype = _require(prior_d, "type", str, "prior")
    if ptype == "independent":
        prior = IndependentPrior(_require(prior_d, "probs", list, "prior"))
    elif ptype == "explicit":
        support = _require(prior_d, "support", list, "prior")
        prior = ExplicitPrior([(_ints(_require(s, "states", list, "support entry"), "states"),
                                _require(s, "p", (int, float), "support entry"))
                               for s in support])
    else:
        raise ParseError("unknown prior type %r" % ptype)
    util_d = _require(d, "utility", dict, "instance")
    utype = _require(util_d, "type", str, "utility")
    if utype == "coverage":
        spec = {"type": "coverage",
                "weights": _require(util_d, "weights", list, "utility"),
                "covers": _require(util_d, "covers", list, "utility")}
        for row in spec["covers"]:
            for elems in row:
                _ints(elems, "coverage elements")
    elif utype == "tabular":
        spec = {"type": "tabular",
                "realizations": _require(util_d, "realizations", list, "utility"),
                "table": _require(util_d, "table", list, "utility")}
        for phi in spec["realizations"]:
            _ints(phi, "realization states")
    else:
        raise ParseError("unknown utility type %r" % utype)
    con_d = _require(d, "constraint", dict, "instance")
    ctype = _require(con_d, "type", str, "constraint")
    if ctype == "cardinality":
        constraint = CardinalityConstraint(_require(con_d, "k", int, "constraint"))
    elif ctype == "partition":
        groups = _require(con_d, "groups", list, "constraint")
        constraint = PartitionConstraint.of([_ints(g, "group items") for g in groups],
                                            _ints(_require(con_d, "limits", list, "constraint"),
                                                  "partition limits"))
    else:
        raise ParseError("unknown constraint type %r" % ctype)
    meta = d.get("metadata", {})
    return Instance(n, m, prior, spec, constraint, meta).validate()


def dumps_instance(inst: Instance) -> str:
    return json.dumps(_instance_to_dict(inst), sort_keys=True, indent=1) + "\n"


def _reject_constant(name):
    raise ParseError("invalid JSON: %s is not a number" % name)


def loads_instance(text: str) -> Instance:
    try:
        d = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from exc
    if not isinstance(d, dict):
        raise ParseError("instance file must contain a JSON object")
    try:
        return _instance_from_dict(d)
    except (TypeError, ValueError) as exc:
        # a value of the wrong kind below the checked top-level fields, such
        # as a number where a list belongs or a string among probabilities
        raise ParseError("malformed instance: %s" % exc) from exc


def save_instance(inst: Instance, path):
    with open(path, "w") as fh:
        fh.write(dumps_instance(inst))


def load_instance(path) -> Instance:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("instance file is not text: %s" % exc) from exc
    return loads_instance(text)
