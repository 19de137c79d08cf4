"""Executable checkers for the structural definitions and the sampling bound.

The definitional checkers sweep every positive-probability partial
realization of an enumerable instance and test the marginal-utility
inequalities directly; a failure report carries a witness that re-verifies
when both sides are recomputed from scratch.  A prior's histories are built
once, each from its parent, into a table that every check on it reads; a
sweep carries from the parent what it keys a history by.  Both Delta checks
price a history's Delta row, Delta(e | psi) per item e and -inf where psi
observes e; whichever passes first on a utility f and a prior's table keeps
those rows on f, and the other reads them.  Reading a kept row is not a Delta
evaluation: it makes no EvalContext.delta call and adds no delta_counter tick.
The sampling check compares the exact hypergeometric hit probability of the
subsampling rule against its target bound and a seeded empirical frequency.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from dataclasses import dataclass
from typing import Optional

from .core import PSI_EMPTY, EvalContext, IndependentPrior, PartialRealization, _check_int
from .errors import ValidationError
from .oracle import OracleCaps, RestrictedOracle, _check_budget, _check_size
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
    """All positive-probability partial realizations, smallest domains first,
    from the prior's history table, which this builds to size max_size only."""
    if max_size is not None and _check_int(max_size, "max_size") < 0:
        raise ValidationError("max_size must be >= 0")
    return (psi for level, _ in _levels(prior, max_size) for psi, _ in level)


def _table(prior):
    """The _HistoryTable in prior's own __dict__ (a frozen one's too)."""
    return vars(prior).get("_walk") or vars(prior).setdefault("_walk", _HistoryTable(prior))


def _levels(prior, max_size=None):
    """The levels of prior's _HistoryTable, each built on first read."""
    table = _table(prior)
    for size in range(prior.n + 1 if max_size is None else min(max_size, prior.n) + 1):
        if size == len(table.levels):
            table.grow()
        yield table.levels[size]


class _HistoryTable:
    """A prior's positive-probability histories, kept while the prior lives and
    built one size at a time, on first read; none depends on a utility.  levels[j]
    is (the size-j histories as (psi, its parent's index in levels[j-1]), their
    lattice codes sum (o+1)*(m+1)^e over pairs (e, o), each its parent's plus one
    term: 8-byte ints if (m+1)^n fits).  Domains come in combinations order; a
    domain's histories extend those of the domain less its top item e by (e, o)
    for e's states o in order: of positive mass, or in the support's realizations
    that restrict to the parent, carried per history of the last size built
    (links), so no probability is computed."""

    def __init__(self, prior):
        n, radix, independent = prior.n, prior.m + 1, isinstance(prior, IndependentPrior)
        self.n, self.terms, self.wide = n, [radix ** e for e in range(n)], radix ** n > 1 << 63
        self.tails = [[(((e, o),), (o + 1) * radix ** e) for o in prior.item_states(e)]
                      for e in range(n)] if independent else None
        self.links = None if independent else [[phi for phi, _ in prior.support()]]
        self.levels, self.spans = [([(PSI_EMPTY, 0)], [0])], {(): range(1)}

    def grow(self):
        (level, codes), links, size = self.levels[-1], self.links, len(self.levels)
        children, child_codes, spans, kept = [], [], {}, []
        for dom in itertools.combinations(range(self.n), size):
            begin, e, parents = len(children), dom[-1], self.spans[dom[:-1]]
            if links is None:
                children += [(PartialRealization(level[i][0].pairs + tail), i)
                             for i in parents for tail, _ in self.tails[e]]
                child_codes += [codes[i] + term for i in parents for _, term in self.tails[e]]
            else:
                for i in parents:
                    states, term = sorted({phi[e] for phi in links[i]}), self.terms[e]
                    kept += [[phi for phi in links[i] if phi[e] == o] for o in states]
                    children += [(PartialRealization(level[i][0].pairs + ((e, o),)), i)
                                 for o in states]
                    child_codes += [codes[i] + (o + 1) * term for o in states]
            spans[dom] = range(begin, len(children))
        self.levels.append((children, child_codes if self.wide else array("q", child_codes)))
        self.spans, self.links = spans, None if links is None else kept


def _kept_rows(f, prior):
    """The Delta rows a passing Delta check kept on f for prior's history
    table, or None: every history's row in the table's order, one array("d").

    f._delta_rows is (table, rows), set only by a passing check, so the rows
    are whole; it holds the table itself, so a prior made later never matches.
    """
    kept = f._delta_rows
    return kept[1] if kept is not None and kept[0] is _table(prior) else None


def check_adaptive_monotone(f, prior) -> CheckReport:
    """Delta(e | psi) >= 0 for every positive-probability psi and e outside it.

    Prices each history's Delta row one Delta at a time and stops at the
    first negative one; a passing check keeps the rows on f.  Rows kept on f
    for this prior (_kept_rows) are read instead, which is not a Delta
    evaluation: no delta_counter tick.
    """
    _check_size(prior, DELTA_CHECK_CAPS)
    n, ctx, kept = prior.n, EvalContext(f, prior), _kept_rows(f, prior)
    delta, descend, items = ctx.delta, ctx.descend, range(n)
    rows = array("d") if kept is None else kept
    checked, masks, at = 0, [None], 0       # rows[at:at + n] is psi's row
    for level, _ in _levels(prior):
        parents, masks = masks, []
        if kept is None:
            rows.extend(array("d", [-math.inf]) * (len(level) * n))
        for psi, parent in level:
            if kept is None:
                masks.append(descend(psi, parents[parent]))
            seen = ctx.observed(psi)
            for e in items:
                if e in seen:
                    continue
                checked += 1
                if kept is None:
                    rows[at + e] = delta(e, psi)
                d = rows[at + e]
                if d < -INEQ_TOL:
                    witness = {"psi": psi.pairs, "item": e, "delta": d}
                    return CheckReport("adaptive-monotone", False, checked, witness)
            at += n
    if kept is None:
        f._delta_rows = (_table(prior), rows)
    return CheckReport("adaptive-monotone", True, checked)


def _sweep(name, prior, columns, row, witness, rows) -> CheckReport:
    """value(psi, c) >= value(psi2, c) whenever psi is a subrealization of psi2.

    rows, one array("d"), holds every history's row over `columns` in the
    prior's table order, or is empty: a row it holds is read in place (its
    key is None), and past its end row(psi2, its parent's key; None at the
    root) returns (values, psi2's key), the values priced once and appended.
    A row holds -inf in every column psi2 does not compare: -inf < -inf is
    false, so such a column never fails.  The compared columns must be
    downward closed: a column compared at psi2 is compared at every
    sub-history, so their rows hold it.

    Every proper sub-history psi of psi2, the empty one included, is decided
    at once against the minimum, per column, over all of them.  Those minima
    live on the history lattice: an array of shape (m+1,)*n x len(columns)
    holds each stored row at its history's code, sum (o+1)*(m+1)^e over its
    pairs (e, o), read with its level from the prior's history table, and
    +inf elsewhere.  When the walk reaches size j, one np.minimum per item
    axis (digits 1..m take the minimum with digit 0) turns every entry into
    the minimum over its sub-histories, all of size < j and stored, and a
    size-j psi2 reads it at its code; its level's slice of the store is
    written when the level ends.  A row is screened with low < rhs, which
    low < rhs - INEQ_TOL implies, and only a row the screen flags builds its
    bounds rhs - INEQ_TOL.  min returns one of the values it compares, so
    psi2 fails exactly when some psi does.  Only then are the stored rows
    mapped by their histories' pairs and the sub-histories walked as pair
    tuples (by size from the empty history, then in combinations order, then
    by compared column) to name the first failing pair.  pairs_checked counts
    every inequality decided: 2^|psi2| per compared column of a passing
    psi2, and up to the witness for the failing one.
    """
    import numpy as np
    n, ncols, radix = prior.n, len(columns), prior.m + 1
    lattice = np.full((radix,) * n + (ncols,), math.inf)
    lows = lattice.reshape(-1, ncols)       # a view: row `code` of the lattice
    checked, keys, skip, at = 0, [None], -math.inf, 0     # rows[at:at + ncols] is psi2's row
    for depth, (level, codes) in enumerate(_levels(prior)):
        if depth:   # every smaller history's row is written
            for axis in range(n):
                view = lattice.reshape(radix ** axis, radix, -1)
                np.minimum(view[:, 1:], view[:, :1], out=view[:, 1:])
        parents, keys, start = keys, [], at
        for (psi2, parent), low in zip(level, lows[codes].tolist()):
            if at < len(rows):
                row2, key = rows[at:at + ncols], None
            else:
                row2, key = row(psi2, parents[parent])
                rows.extend(row2)
            at += ncols
            keys.append(key)
            if any(map(operator.lt, low, row2)) and any(map(operator.lt, low, bounds := [
                    rhs - INEQ_TOL for rhs in row2])):     # screen, then decide
                pairs, live = psi2.pairs, [i for i, rhs in enumerate(row2) if rhs != skip]
                subs = {psi.pairs: rows[i * ncols:(i + 1) * ncols] for i, psi in
                        enumerate(enumerate_partial_realizations(prior, depth - 1))}
                for size in range(depth):
                    for sub in itertools.combinations(pairs, size):
                        lhs = subs[sub]
                        for i in live:
                            checked += 1
                            if lhs[i] < bounds[i]:
                                return CheckReport(name, False, checked, {
                                    "psi": sub, "psi2": pairs,
                                    **witness(columns[i], lhs[i], row2[i])})
            checked += (ncols - row2.count(skip)) << depth
        lows[codes] = np.frombuffer(    # a temporary: rows.extend fails while it lives
            rows, count=at - start, offset=start * rows.itemsize).reshape(-1, ncols)
    return CheckReport(name, True, checked)


def check_adaptive_submodular(f, prior) -> CheckReport:
    """Delta(e | psi) >= Delta(e | psi') whenever psi is a subrealization of psi'.

    _sweep's row at psi is its Delta row, priced whole; a passing check keeps
    its store on f.  Rows kept on f for this prior (_kept_rows) are the store,
    read in place, which is not a Delta evaluation: no delta_counter tick.
    """
    _check_size(prior, DELTA_CHECK_CAPS)
    n, ctx, kept = prior.n, EvalContext(f, prior), _kept_rows(f, prior)
    delta, descend, skip = ctx.delta, ctx.descend, -math.inf

    def row(psi, covered):
        covered = descend(psi, covered)
        seen = ctx.observed(psi)
        return [skip if e in seen else delta(e, psi) for e in range(n)], covered

    rows = array("d") if kept is None else kept
    report = _sweep("adaptive-submodular", prior, range(n), row,
                    lambda e, lhs, rhs: {"item": e, "delta_psi": lhs, "delta_psi2": rhs}, rows)
    if kept is None and report.passed:
        f._delta_rows = (_table(prior), rows)
    return report


def check_fully_adaptive_submodular(f, prior) -> CheckReport:
    """The submodularity inequality for best restricted-policy values.

    Quantifies over every nonempty V and every budget a in [|V|], under
    FULLY_ADAPTIVE_CAPS.  A column's value at psi depends only on its key
    (V minus dom psi, min(a, |V minus dom psi|)), so each history's row is
    priced once per distinct key and scattered to the columns through an
    index built once per dom mask.  Each history's oracle key comes from its
    parent's, and the largest budget, n, is checked against the cap once.
    """
    oracle = RestrictedOracle(f, prior, FULLY_ADAPTIVE_CAPS)
    _check_budget(prior, prior.n, FULLY_ADAPTIVE_CAPS)
    columns = [(items, a, oracle.mask(items)) for size in range(1, prior.n + 1)
               for items in itertools.combinations(range(prior.n), size)
               for a in range(1, size + 1)]
    value, child, plans = oracle.value, oracle.child, {}

    def row(psi, root):
        root = (0, 0) if root is None else child(root, *psi.pairs[-1])
        dom = root[0]
        plan = plans.get(dom)
        if plan is None:
            slots, scatter = {}, []
            for _, a, mask in columns:
                free = mask & ~dom
                scatter.append(slots.setdefault((free, min(a, free.bit_count())), len(slots)))
            plan = plans[dom] = (tuple(slots), scatter)
        keys, scatter = plan
        return tuple(map([value(root, free, a) for free, a in keys].__getitem__, scatter)), root

    return _sweep("fully-adaptive-submodular", prior, columns, row,
                  lambda col, lhs, rhs: {"items": col[0], "budget": col[1],
                                         "value_psi": lhs, "value_psi2": rhs}, array("d"))


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
    if _check_int(seed, "seed") < 0:
        raise ValidationError("seed must be >= 0")
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
