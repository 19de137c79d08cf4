"""Exhaustive optimal adaptive policy value on small instances.

The optimum is the exact policy value's recursion over partial realizations
with the policy's choice replaced by a max:

    V(psi) = max( E[f(dom(psi), Phi) | psi],
                  max_e sum_o Pr[Phi_e = o | psi] * V(psi + (e, o)) )

memoized on (psi, constraint state).  The stop branch keeps the oracle
correct for non-monotone tabular utilities.  Two recursions compute it:

* For coverage under an independent prior, _CoverageKernel.  An unobserved
  item's posterior is its prior, and the future values of psi read it only
  through its covered mask, so (dom psi bitmask, covered mask, constraint
  key) fixes V bit for bit and is the memo key; a stop is the covered mask's
  weight, memoized on the mask.  Each constraint key gets a move table once:
  the mask of selectable items and, per item e, (cstate.after(e), its key).
  A node loops over the set bits of `selectable & ~dom` in ascending order
  and keys each child from the node's key in O(1); no history is built
  below the root.
* Every other instance runs evaluation.HistoryRecursion with _best_choice
  as the node rule, memoized on psi itself.

Both break ties alike: values within VALUE_TOL of the best tie, and the
root's tied best items are its optimal first actions.  Hard instance caps
fail loudly; ground truth is this module's only job.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (CoverageUtility, IndependentPrior, PSI_EMPTY, PartialRealization,
                   _check_evidence, _check_items)
from .errors import InstanceTooLarge, ValidationError
from .evaluation import HistoryRecursion

VALUE_TOL = 1e-12


@dataclass(frozen=True)
class OracleCaps:
    max_items: int = 10
    max_states: int = 3
    max_budget: int = 6


DEFAULT_CAPS = OracleCaps()


@dataclass
class OracleResult:
    value: float
    optimal_first_actions: tuple
    nodes_expanded: int
    cache_hits: int


def _check_size(prior, caps: OracleCaps):
    if prior.n > caps.max_items:
        raise InstanceTooLarge("n=%d exceeds oracle cap %d" % (prior.n, caps.max_items))
    if prior.m > caps.max_states:
        raise InstanceTooLarge("m=%d exceeds oracle cap %d" % (prior.m, caps.max_states))


def _check_budget(prior, budget: int, caps: OracleCaps):
    # A budget over n cannot be spent; such instances are accepted and clamped.
    budget = min(budget, prior.n)
    if budget > caps.max_budget:
        raise InstanceTooLarge("budget %d exceeds oracle cap %d" % (budget, caps.max_budget))


def _dom_mask(psi):
    dom = 0
    for e, _ in psi.pairs:
        dom |= 1 << e
    return dom


def _best_choice(rec, psi, cstate, first):
    """HistoryRecursion's node rule: the max of stopping and every feasible
    branch; values within VALUE_TOL of the best tie.

    A `first` list receives the tied best items.
    """
    best = rec.stop(psi)
    best_items = []
    dom = _dom_mask(psi)
    for e in range(rec.prior.n):
        if dom >> e & 1 or not cstate.can_select(e):
            continue
        val = rec.branch(psi, cstate, e)
        if val > best + VALUE_TOL:
            best = val
            best_items = [e]
        elif val >= best - VALUE_TOL:
            best_items.append(e)
    if first is not None:
        first[:] = best_items
    return best


class _CoverageKernel:
    """The optimum for coverage under an independent prior (module docstring).

    value(psi, cstate, first) and stop(psi) answer as HistoryRecursion's do
    with _best_choice as the rule; psi is read once per change, for its root
    key.  nodes counts expanded keys, hits memo hits.
    """

    def __init__(self, f, prior):
        self.f, self.prior, self.n = f, prior, prior.n
        # Per item, (coverage mask, probability) of each state of positive mass.
        self.rows = tuple(tuple((f.covers[e][o], p) for o, p in row)
                          for e, row in enumerate(prior.rows))
        self.memo, self.stops, self.moves = {}, {}, {}
        self.nodes = self.hits = 0
        self._psi = self._root = None

    def _root_of(self, psi):
        """(dom psi bitmask, covered mask); impossible evidence raises."""
        if psi is not self._psi:
            _check_evidence(self.prior, psi)
            self._root = (_dom_mask(psi), self.f.covered(psi))
            self._psi = psi
        return self._root

    def stop(self, psi):
        return self._stop(self._root_of(psi)[1])

    def _stop(self, covered):
        value = self.stops.get(covered)
        if value is None:
            value = self.stops[covered] = self.f._mask_weight(covered)
        return value

    def value(self, psi, cstate, first=None):
        key = self._root_of(psi) + (cstate.key(),)
        value = self.memo.get(key)
        if value is None:
            return self._node(key, cstate, first)
        self.hits += 1
        return value

    def restricted(self, psi, items, budget):
        """value(psi, _Restriction(items, budget)) for a budget <= |items|;
        the memo is read at that state's key, (items, budget), and the
        _Restriction is built only on a miss."""
        key = self._root_of(psi) + ((items, budget),)
        value = self.memo.get(key)
        if value is None:
            return self._node(key, _Restriction(items, budget), None)
        self.hits += 1
        return value

    def _moves(self, cstate, ckey):
        """(selectable items' mask, per item (cstate.after(e), its key)) of a key."""
        selectable, after = 0, [None] * self.n
        for e in range(self.n):
            if cstate.can_select(e):
                selectable |= 1 << e
                nxt = cstate.after(e)
                after[e] = (nxt, nxt.key())
        table = self.moves[ckey] = (selectable, after)
        return table

    def _node(self, key, cstate, first):
        """V at a key not in the memo."""
        self.nodes += 1
        dom, covered, ckey = key
        memo, rows = self.memo, self.rows
        best = self._stop(covered)
        selectable, after = self.moves.get(ckey) or self._moves(cstate, ckey)
        free = selectable & ~dom
        best_items = []
        hits = 0
        while free:
            bit = free & -free
            free ^= bit
            e = bit.bit_length() - 1
            nxt, nkey = after[e]
            child = dom | bit
            total = 0.0
            for mask, p in rows[e]:
                k = (child, covered | mask, nkey)
                value = memo.get(k)
                if value is None:
                    value = self._node(k, nxt, None)
                else:
                    hits += 1
                total += p * value
            if total > best + VALUE_TOL:
                best = total
                best_items = [e]
            elif total >= best - VALUE_TOL:
                best_items.append(e)
        self.hits += hits
        if first is not None:
            first[:] = best_items
        memo[key] = best
        return best


def _recursion(f, prior):
    """The oracle's recursion for f under the prior (module docstring)."""
    if isinstance(f, CoverageUtility) and isinstance(prior, IndependentPrior):
        return _CoverageKernel(f, prior)
    return HistoryRecursion(f, prior, _best_choice)


def _solve(f, prior, constraint, caps: OracleCaps = DEFAULT_CAPS) -> OracleResult:
    _check_size(prior, caps)
    _check_budget(prior, constraint.total_budget(), caps)
    first = []
    rec = _recursion(f, prior)
    value = rec.value(PSI_EMPTY, constraint, first)
    return OracleResult(value, tuple(first), rec.nodes, rec.hits)


def optimal_value(f, prior, constraint, caps: OracleCaps = DEFAULT_CAPS) -> OracleResult:
    """Optimal adaptive f_avg under the constraint, from the empty history.

    The gain from observations psi is restricted_optimal's marginal form.
    """
    return _solve(f, prior, constraint, caps)


class _Restriction:
    """Constraint state: at most `budget` further selections from the items
    whose bits are set in the mask `items`, 0 <= budget <= |items|.

    The query clamps the root's budget, so key() is canonical and every
    (psi, items, a) query that reaches a subproblem shares its memo entry.
    """

    __slots__ = ("items", "budget")

    def __init__(self, items: int, budget: int):
        self.items, self.budget = items, budget

    def can_select(self, e):
        return self.budget > 0 and self.items >> e & 1 == 1

    def after(self, e):
        return _Restriction(self.items & ~(1 << e), self.budget - 1)

    def key(self):
        return (self.items, self.budget)


class RestrictedOracle:
    """restricted_optimal for one instance, called as oracle(psi, items, a).

    One recursion serves every call, so the values and stop values of
    subproblems that several queries reach are computed once.  Callers ask
    many (items, a) at one psi, so psi's dom bitmask and stop value are
    computed when psi changes, not per query.  query(psi, mask(items), a)
    checks the items once for many psi; the coverage kernel answers it by
    _CoverageKernel.restricted.
    """

    def __init__(self, f, prior, caps: OracleCaps = DEFAULT_CAPS):
        _check_size(prior, caps)
        self.prior, self.caps = prior, caps
        rec = self.rec = _recursion(f, prior)
        self._restricted = (rec.restricted if isinstance(rec, _CoverageKernel) else
                            lambda psi, items, budget: rec.value(psi, _Restriction(items, budget)))
        self._psi = self._dom = self._stop = None

    def __call__(self, psi: PartialRealization, items, a: int) -> float:
        return self.query(psi, self.mask(items), a)

    def mask(self, items) -> int:
        """The bitmask of items, each checked to be an integer in [0, n)."""
        n, mask = self.prior.n, 0
        for e in items:
            if type(e) is not int or not 0 <= e < n:
                raise ValidationError("item %r outside the integers [0, %d)" % (e, n))
            mask |= 1 << e
        return mask

    def query(self, psi: PartialRealization, mask: int, a: int) -> float:
        """oracle(psi, items, a), the items given as mask(items); a is checked
        here and clamped to the items psi leaves free."""
        if type(a) is not int:
            raise ValidationError("budget a must be an integer, got %r" % (a,))
        if a < 0:
            raise ValidationError("negative budget")
        if psi is not self._psi:
            _check_items(psi, self.prior.n)
            self._psi, self._dom, self._stop = psi, _dom_mask(psi), None
        free = mask & ~self._dom
        budget = min(a, free.bit_count())
        if budget > self.caps.max_budget:     # raises
            _check_budget(self.prior, budget, self.caps)
        if self._stop is None:      # checks psi's evidence
            self._stop = self.rec.stop(psi)
        return self._restricted(psi, free, budget) - self._stop


def restricted_optimal(f, prior, psi: PartialRealization, items, a: int,
                       caps: OracleCaps = DEFAULT_CAPS) -> float:
    """Best expected gain over policies selecting at most `a` items from `items`."""
    return RestrictedOracle(f, prior, caps)(psi, items, a)
