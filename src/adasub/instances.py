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
    _check_real,
    _left_sum,
    _shown,
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
    _coverage: tuple = field(default=None, init=False, repr=False, compare=False)

    def utility(self) -> UtilityFunction:
        """Build a fresh utility (zeroed counters) from the stored spec.

        A coverage spec is built and validated into one CoverageUtility per
        instance, kept with the identities of utility_spec["covers"] and
        ["weights"], so replacing either list rebuilds it.  Each call returns a
        copy that shares its tables, with zeroed counters and its own empty
        Delta-state cache.
        """
        spec = self.utility_spec
        if spec["type"] == "coverage":
            covers, weights = spec["covers"], spec["weights"]
            cached = self._coverage
            if cached is None or cached[0] is not covers or cached[1] is not weights:
                masks = tuple(tuple(_mask(elems, e, len(weights)) for elems in row)
                              for e, row in enumerate(covers))
                cached = self._coverage = (covers, weights, CoverageUtility(weights, masks))
            return cached[2]._fresh()
        if spec["type"] == "tabular":
            return TabularUtility(self.n, spec["realizations"], spec["table"])
        raise ParseError("unknown utility type %r" % spec["type"])

    def validate(self):
        if self.prior.n != self.n or self.prior.m > self.m:
            raise ValidationError("prior dimensions do not match the instance")
        spec = self.utility_spec
        if spec["type"] == "coverage":
            if len(spec["covers"]) != self.n:
                raise ValidationError("coverage must list every item")
            for e, row in enumerate(spec["covers"]):
                if len(row) != self.m:
                    raise ValidationError("item %d must cover every state" % e)
        if isinstance(self.constraint, PartitionConstraint):
            self.constraint.check_items(self.n)
        f = self.utility()  # its constructor checks each value the spec lists
        if spec["type"] == "tabular":
            # An independent prior's support is counted before it is listed.
            if (isinstance(self.prior, IndependentPrior)
                    and self.prior.support_size() > len(f.realizations)):
                raise ValidationError("the prior's support is larger than the table")
            for phi, _ in self.prior.support():
                if phi not in f._index:
                    raise ValidationError("the prior's realization %s is not in the table"
                                          % _shown(phi))
        return self


def _mask(elems, e, universe_size) -> int:
    """Item e's mask in one state, each element checked in [0, universe_size) before its shift."""
    mask = 0
    for x in elems:
        if not 0 <= _check_int(x, "coverage element") < universe_size:
            raise ValidationError("coverage of item %d outside universe" % e)
        mask |= 1 << x
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
    if not 0.0 <= _check_real(density, "density") <= 1.0:
        raise ValidationError("density must be in [0,1]")
    if min(_check_int(n, "n"), _check_int(m, "m"), _check_int(universe_size, "universe_size")) < 1:
        raise ValidationError("sizes must be >= 1")
    low, high = (_check_real(w, "weight_range bound") for w in weight_range)
    if low > high:
        raise ValidationError("empty weight range: minimum %r exceeds maximum %r" % (low, high))
    if groups is not None and limits is None:
        raise ValidationError("groups require limits")
    rng = random.Random(seed)
    weights = [round(rng.uniform(low, high), 6) for _ in range(universe_size)]
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


def _instance_from_dict(d: dict) -> Instance:
    n = _require(d, "n", int, "instance")
    m = _require(d, "m", int, "instance")
    prior_d = _require(d, "prior", dict, "instance")
    ptype = _require(prior_d, "type", str, "prior")
    if ptype == "independent":
        prior = IndependentPrior(_require(prior_d, "probs", list, "prior"))
    elif ptype == "explicit":
        support = _require(prior_d, "support", list, "prior")
        prior = ExplicitPrior([(_require(s, "states", list, "support entry"),
                                _require(s, "p", (int, float), "support entry")) for s in support])
    else:
        raise ParseError("unknown prior type %r" % ptype)
    util_d = _require(d, "utility", dict, "instance")
    utype = _require(util_d, "type", str, "utility")
    if utype == "coverage":
        spec = {"type": "coverage",
                "weights": _require(util_d, "weights", list, "utility"),
                "covers": _require(util_d, "covers", list, "utility")}
    elif utype == "tabular":
        spec = {"type": "tabular",
                "realizations": _require(util_d, "realizations", list, "utility"),
                "table": _require(util_d, "table", list, "utility")}
    else:
        raise ParseError("unknown utility type %r" % utype)
    con_d = _require(d, "constraint", dict, "instance")
    ctype = _require(con_d, "type", str, "constraint")
    if ctype == "cardinality":
        constraint = CardinalityConstraint(_require(con_d, "k", int, "constraint"))
    elif ctype == "partition":
        constraint = PartitionConstraint.of(_require(con_d, "groups", list, "constraint"),
                                            _require(con_d, "limits", list, "constraint"))
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
    except (ValueError, RecursionError) as exc:
        # bad syntax, an integer past the digit limit, or nesting past the recursion limit
        raise ParseError("invalid JSON: %s" % exc) from exc
    if not isinstance(d, dict):
        raise ParseError("instance file must contain a JSON object")
    try:
        return _instance_from_dict(d)
    except (TypeError, ValueError) as exc:
        # a container of the wrong kind below the checked top-level fields,
        # such as a number where a list belongs
        raise ParseError("malformed instance: %s" % exc) from exc


def save_instance(inst: Instance, path):
    text = dumps_instance(inst)     # refuses an unsupported instance before path is opened
    with open(path, "w") as fh:
        fh.write(text)


def load_instance(path) -> Instance:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("instance file is not text: %s" % exc) from exc
    return loads_instance(text)
