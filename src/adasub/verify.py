"""Executable checkers for the structural definitions and the sampling bound.

The definitional checkers sweep every positive-probability partial
realization of an enumerable instance and test the marginal-utility
inequalities directly; a failure report carries a witness that re-verifies
when both sides are recomputed from scratch.  The sampling check compares
the exact hypergeometric hit probability of the subsampling rule against
its target bound and a seeded empirical frequency.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional

from .core import EvalContext, IndependentPrior, PartialRealization, _check_int
from .errors import ValidationError
from .oracle import OracleCaps, RestrictedOracle, _check_size, _dom_mask
from .policies import _check_epsilon, sample_budget

INEQ_TOL = 1e-9
# Size caps of the sweeps; the fully-adaptive check is doubly exponential.
DELTA_CHECK_CAPS = OracleCaps(max_items=8, max_states=3)
FULLY_ADAPTIVE_CAPS = OracleCaps(max_items=5, max_states=2, max_budget=5)


@dataclass
class CheckReport:
    name: str
    passed: bool
    pairs_checked: int
    counterexample: Optional[dict] = None

    def format(self) -> str:
        lines = ["check %s: %s (%d comparisons)"
                 % (self.name, "PASS" if self.passed else "FAIL", self.pairs_checked)]
        if self.counterexample:
            for k, v in sorted(self.counterexample.items()):
                lines.append("  %s = %r" % (k, v))
        return "\n".join(lines)


def enumerate_partial_realizations(prior, max_size=None):
    """All positive-probability partial realizations, smallest domains first."""
    n = prior.n
    limit = n if max_size is None else min(max_size, n)
    independent = isinstance(prior, IndependentPrior)
    if independent:
        per_item = [prior.item_states(e) for e in range(n)]
    else:
        support = [phi for phi, _ in prior.support()]
    for size in range(limit + 1):
        for dom in itertools.combinations(range(n), size):
            if independent:     # every combination of positive-mass states is possible
                vectors = itertools.product(*(per_item[e] for e in dom))
            else:               # the support's restrictions to dom, in product order
                vectors = sorted({tuple(phi[e] for e in dom) for phi in support})
            for states in vectors:
                # dom is ascending and duplicate-free, so the pairs are canonical
                yield PartialRealization(tuple(zip(dom, states)))


def check_adaptive_monotone(f, prior) -> CheckReport:
    """Delta(e | psi) >= 0 for every positive-probability psi and e outside it."""
    _check_size(prior, DELTA_CHECK_CAPS)
    ctx = EvalContext(f, prior)
    checked = 0
    for psi in enumerate_partial_realizations(prior):
        for e in ctx.pool(psi):
            checked += 1
            d = ctx.delta(e, psi)
            if d < -INEQ_TOL:
                witness = {"psi": psi.pairs, "item": e, "delta": d}
                return CheckReport("adaptive-monotone", False, checked, witness)
    return CheckReport("adaptive-monotone", True, checked)


def _sweep(name, prior, columns, values, witness, compared=None) -> CheckReport:
    """value(psi, c) >= value(psi2, c) whenever psi is a subrealization of psi2.

    Each history psi2's row of values over `columns` is priced once:
    values(psi2, live) yields the values of the columns `live` in order, and
    is consumed as psi2's comparison with the empty sub-history needs them,
    so a failure there prices nothing further.  compared(psi2) lists the
    indices of the columns checked at psi2, in increasing order (all of them
    if `compared` is None).  It must be downward closed: a column compared
    at psi2 is compared at every sub-history of psi2, so their rows hold
    that column's value.

    Every proper sub-history psi of psi2 is decided at once against the
    minimum, per column, over all of them.  Those minima live on the
    history lattice: a history's code is sum (o+1)*(m+1)^e over its pairs
    (e, o), an array of shape (m+1,)*n x len(columns) holds each priced row
    at its code and +inf elsewhere, and when the enumeration reaches size
    j, one np.minimum per item axis (digits 1..m take the minimum with
    digit 0) turns every entry into the minimum over its sub-histories.
    Histories of size < j are priced by then, so a size-j psi2 reads the
    minimum over its proper sub-histories at its code; its level's rows are
    written when the level ends.  min returns one of the values it
    compares, so psi2 fails exactly when some psi does.  Only then are the
    sub-histories walked as pair tuples (by size, then in combinations
    order, then by column) to name the first failing pair.  pairs_checked
    counts every inequality decided: 2^|psi2| per compared column of a
    passing psi2, and up to the witness for the failing one.
    """
    import numpy as np
    n, ncols, radix = prior.n, len(columns), prior.m + 1
    code_of = {(e, o): (o + 1) * radix ** e for e in range(n) for o in range(prior.m)}
    lattice = np.full((radix,) * n + (ncols,), math.inf)
    lows = lattice.reshape(-1, ncols)       # a view: row `code` of the lattice
    rows, checked = {}, 0
    for depth, level in itertools.groupby(enumerate_partial_realizations(prior),
                                          lambda psi: len(psi.pairs)):
        level = list(level)
        codes = [sum(map(code_of.__getitem__, psi.pairs)) for psi in level]
        for axis in range(n):   # every smaller history's row is written
            view = lattice.reshape(radix ** axis, radix, -1)
            np.minimum(view[:, 1:], view[:, :1], out=view[:, 1:])
        for psi2, low in zip(level, lows[codes].tolist()):
            pairs = psi2.pairs
            # Columns psi2 does not compare hold -inf: -inf < -inf is false,
            # and by downward closure no extension of psi2 compares them either.
            row2 = rows[pairs] = [-math.inf] * ncols
            bounds = [-math.inf] * ncols
            live = range(ncols) if compared is None else compared(psi2)
            empty = rows[()]
            for i, rhs in zip(live, values(psi2, live)):
                row2[i] = rhs
                bound = bounds[i] = rhs - INEQ_TOL
                if empty[i] < bound:
                    return CheckReport(name, False, checked + live.index(i) + 1, {
                        "psi": (), "psi2": pairs, **witness(columns[i], empty[i], rhs)})
            checked += len(live)
            if depth and any(map(operator.lt, low, bounds)):
                for size in range(1, depth + 1):
                    for sub in itertools.combinations(pairs, size):
                        row = rows[sub]
                        for i in live:
                            checked += 1
                            if row[i] < bounds[i]:
                                return CheckReport(name, False, checked, {
                                    "psi": sub, "psi2": pairs,
                                    **witness(columns[i], row[i], row2[i])})
            checked += ((1 << depth) - 1) * len(live)
        lows[codes] = [rows[psi.pairs] for psi in level]
    return CheckReport(name, True, checked)


def check_adaptive_submodular(f, prior) -> CheckReport:
    """Delta(e | psi) >= Delta(e | psi') whenever psi is a subrealization of psi'."""
    _check_size(prior, DELTA_CHECK_CAPS)
    ctx = EvalContext(f, prior)
    return _sweep("adaptive-submodular", prior, range(prior.n),
                  lambda psi, live: map(ctx.delta, live, itertools.repeat(psi)),
                  lambda e, lhs, rhs: {"item": e, "delta_psi": lhs, "delta_psi2": rhs},
                  compared=ctx.pool)


def check_fully_adaptive_submodular(f, prior) -> CheckReport:
    """The submodularity inequality for best restricted-policy values.

    Quantifies over every nonempty V and every budget a in [|V|], under
    FULLY_ADAPTIVE_CAPS.  A column's value at psi depends only on its key
    (V minus dom psi, min(a, |V minus dom psi|)), so each history's row is
    priced once per distinct key and scattered to the columns through an
    index built once per dom mask.
    """
    oracle = RestrictedOracle(f, prior, FULLY_ADAPTIVE_CAPS)
    columns = [(items, a, oracle.mask(items)) for size in range(1, prior.n + 1)
               for items in itertools.combinations(range(prior.n), size)
               for a in range(1, size + 1)]
    query, plans = oracle.query, {}

    def values(psi, live):
        dom = _dom_mask(psi)
        plan = plans.get(dom)
        if plan is None:
            slots, scatter = {}, []
            for _, a, mask in columns:
                free = mask & ~dom
                scatter.append(slots.setdefault((free, min(a, free.bit_count())), len(slots)))
            plan = plans[dom] = (tuple(slots), scatter)
        keys, scatter = plan
        return map([query(psi, free, a) for free, a in keys].__getitem__, scatter)

    return _sweep("fully-adaptive-submodular", prior, columns, values,
                  lambda col, lhs, rhs: {"items": col[0], "budget": col[1],
                                         "value_psi": lhs, "value_psi2": rhs})


# ---------------------------------------------------------------------------
# sampling bound


@dataclass
class SamplingCheckResult:
    n: int
    k: int
    epsilon: float
    sample_size: int
    trials: int
    exact: float                    # hypergeometric hit probability
    empirical: float
    bound: float                    # 1 - epsilon
    with_replacement_bound: float   # 1 - e^(-s*k/n), the looser analysis bound

    @property
    def standard_error(self) -> float:
        return math.sqrt(max(self.exact * (1.0 - self.exact), 0.0) / self.trials)


def lemma1_check(n: int, k: int, epsilon: float, trials: int = 100_000,
                 seed: int = 0) -> SamplingCheckResult:
    """Probability that a uniform sample of the rule's size hits a fixed top-k set.

    The sampler draws without replacement, for which the exact hit
    probability is 1 - C(n-k, s)/C(n, s); this dominates the
    with-replacement-style bound 1 - e^(-s*k/n) >= 1 - epsilon.
    """
    if not (1 <= _check_int(k, "k") <= _check_int(n, "n")):
        raise ValidationError("need 1 <= k <= n")
    _check_epsilon(epsilon)
    if _check_int(trials, "trials") < 1:
        raise ValidationError("trials must be >= 1")
    s = sample_budget(n, n, k, epsilon)
    miss = math.comb(n - k, s) / math.comb(n, s) if s <= n - k else 0.0
    exact = 1.0 - miss

    # Empirical: the sample is the s smallest of n iid uniform keys; it hits
    # the target (wlog items 0..k-1) iff the smallest target key has overall
    # rank < s.  numpy is imported here, as in _sweep, so that importing
    # adasub does not load it.
    import numpy as np
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = trials
    chunk = max(1, min(trials, 1 << 22) // max(n, 1))
    while remaining > 0:
        c = min(chunk, remaining)
        keys = rng.random((c, n))
        target_min = keys[:, :k].min(axis=1)
        rank = (keys < target_min[:, None]).sum(axis=1)
        hits += int((rank < s).sum())
        remaining -= c
    empirical = hits / trials
    return SamplingCheckResult(
        n=n, k=k, epsilon=epsilon, sample_size=s, trials=trials, exact=exact,
        empirical=empirical, bound=1.0 - epsilon,
        with_replacement_bound=1.0 - math.exp(-s * k / n))
