"""Exhaustive optimal adaptive policy value on small instances.

The optimum is the exact policy value's recursion over partial realizations
with the policy's choice replaced by a max:

    V(psi) = max( E[f(dom(psi), Phi) | psi],
                  max_e sum_o Pr[Phi_e = o | psi] * V(psi + (e, o)) )

memoized on (psi, constraint state).  The stop branch keeps the oracle
correct for non-monotone tabular utilities.  One object per instance,
RestrictedOracle, computes it for optimal_value and every restricted query.
It keys a history psi as (dom psi bitmask, state, constraint key), where the
state ORs a bit pattern per observation (e, o):

* for coverage under an independent prior, (e, o)'s coverage mask.  An
  unobserved item's posterior is its prior, and the future values of psi
  read it only through its covered mask, so the key fixes V bit for bit; a
  stop is the covered mask's weight.
* for every other instance, o + 1 in item e's field of m.bit_length() bits,
  so the state is psi itself; a stop is expected_set_value at that history.

Stop values are memoized on the state.  Under an independent prior each
item's (bits, probability) row is built once; under an explicit prior a node
reads each free item's posterior at its history from ExplicitPrior.posteriors.
Each constraint key gets a move table once: the mask of selectable items and,
per item e, (cstate.after(e), its key).  A node loops over the set bits of
`selectable & ~dom` in ascending order and keys each child from the node's
key in O(1).  Values within VALUE_TOL of the best tie, and the root's tied
best items are its optimal first actions.  Hard instance caps fail loudly;
ground truth is this module's only job.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (CoverageUtility, IndependentPrior, PartialRealization, _check_evidence,
                   _check_fit, expected_set_value)
from .errors import InstanceTooLarge, ValidationError

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


class RestrictedOracle:
    """The optimum's recursion (module docstring) for one instance.

    optimal_value expands the empty history's key once; restricted_optimal
    is oracle(psi, items, a).  One memo serves every call, so the values and
    stop values of subproblems that several queries reach are computed once.
    Callers ask many (items, a) at one psi, so psi's root key (dom psi
    bitmask, state) is computed when psi changes, not per query, and
    query(psi, mask(items), a) checks the items once for many psi.  nodes
    counts expanded keys, hits memo hits.
    """

    def __init__(self, f, prior, caps: OracleCaps = DEFAULT_CAPS):
        _check_fit(f, prior)
        _check_size(prior, caps)
        self.f, self.prior, self.n, self.caps = f, prior, prior.n, caps
        independent = isinstance(prior, IndependentPrior)
        self.coverage = independent and isinstance(f, CoverageUtility)
        self.width = width = prior.m.bit_length()
        # bits[e][o]: observation (e, o)'s part of a state.
        self.bits = (f.covers if self.coverage else
                     [[(o + 1) << (e * width) for o in range(prior.m)] for e in range(self.n)])
        # Per item, (bits, probability) of each state of positive mass; under
        # an explicit prior a node prices them at its history.
        self.rows = (tuple(tuple((self.bits[e][o], p) for o, p in row)
                           for e, row in enumerate(prior.rows)) if independent else None)
        self.memo, self.stops, self.moves = {}, {}, {}
        self.nodes = self.hits = 0
        self._psi = self._root = None

    def __call__(self, psi: PartialRealization, items, a: int) -> float:
        return self.query(psi, self.mask(items), a)

    def mask(self, items) -> int:
        """The bitmask of items, each checked to be an integer in [0, n)."""
        n, mask = self.n, 0
        for e in items:
            if type(e) is not int or not 0 <= e < n:
                raise ValidationError("item %r outside the integers [0, %d)" % (e, n))
            mask |= 1 << e
        return mask

    def query(self, psi: PartialRealization, mask: int, a: int) -> float:
        """oracle(psi, items, a), the items given as mask(items).

        Checks, in this order: a is an integer >= 0 (ValidationError); psi
        observes items in [0, n) (ValidationError) and is possible
        (ZeroProbabilityEvidence); a, clamped to the items psi leaves free,
        is within the budget cap (InstanceTooLarge).  The memo is read at
        the query's key, and a _Restriction is built only on a miss.
        """
        if type(a) is not int:
            raise ValidationError("budget a must be an integer, got %r" % (a,))
        if a < 0:
            raise ValidationError("negative budget")
        dom, state = self._root_of(psi)
        free = mask & ~dom
        budget = min(a, free.bit_count())
        if budget > self.caps.max_budget:     # raises
            _check_budget(self.prior, budget, self.caps)
        key = (dom, state, (free, budget))
        value = self.memo.get(key)
        if value is None:
            value = self._node(key, _Restriction(free, budget))
        else:
            self.hits += 1
        return value - self._stop(state)

    def _history(self, state):
        """The history whose state this is, where states are not covered masks."""
        width, field = self.width, (1 << self.width) - 1
        return PartialRealization(tuple((e, o - 1) for e in range(self.n)
                                        if (o := (state >> (e * width)) & field)))

    def _root_of(self, psi):
        """(dom psi bitmask, state); psi's items are range-checked and
        impossible evidence raises."""
        if psi is not self._psi:
            _check_evidence(self.prior, psi)
            bits, state = self.bits, 0
            for e, o in psi.pairs:
                state |= bits[e][o]
            self._root = (_dom_mask(psi), state)
            self._psi = psi
        return self._root

    def _stop(self, state):
        value = self.stops.get(state)
        if value is None:
            value = self.stops[state] = (
                self.f._mask_weight(state) if self.coverage
                else expected_set_value(self.f, self.prior, self._history(state)))
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

    def _node(self, key, cstate, first=None):
        """V at a key not in the memo; a `first` list receives its tied best items."""
        self.nodes += 1
        dom, state, ckey = key
        memo, rows = self.memo, self.rows
        best = self._stop(state)
        selectable, after = self.moves.get(ckey) or self._moves(cstate, ckey)
        free = selectable & ~dom
        if rows is None and free:
            # An explicit prior's posteriors at psi, its states as bits.
            items = [e for e in range(self.n) if free >> e & 1]
            rows, bits = [None] * self.n, self.bits
            for e, posterior in zip(items, self.prior.posteriors(self._history(state), items)):
                rows[e] = [(bits[e][o], p) for o, p in posterior]
        best_items = []
        hits = 0
        while free:
            bit = free & -free
            free ^= bit
            e = bit.bit_length() - 1
            nxt, nkey = after[e]
            child = dom | bit
            total = 0.0
            for bits, p in rows[e]:
                k = (child, state | bits, nkey)
                value = memo.get(k)
                if value is None:
                    value = self._node(k, nxt)
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


def _solve(f, prior, constraint, caps: OracleCaps = DEFAULT_CAPS) -> OracleResult:
    oracle = RestrictedOracle(f, prior, caps)
    _check_budget(prior, constraint.total_budget(), caps)
    first = []
    value = oracle._node((0, 0, constraint.key()), constraint, first)   # the empty history
    return OracleResult(value, tuple(first), oracle.nodes, oracle.hits)


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


def restricted_optimal(f, prior, psi: PartialRealization, items, a: int,
                       caps: OracleCaps = DEFAULT_CAPS) -> float:
    """Best expected gain over policies selecting at most `a` items from `items`."""
    return RestrictedOracle(f, prior, caps)(psi, items, a)
