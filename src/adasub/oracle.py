"""Exhaustive optimal adaptive policy value on small instances.

The optimum is the exact policy value's recursion over partial realizations
with the policy's choice replaced by a max:

    V(psi) = max( E[f(dom(psi), Phi) | psi],
                  max_e sum_o Pr[Phi_e = o | psi] * V(psi + (e, o)) )

memoized on (psi, constraint state).  The stop branch keeps the oracle
correct for non-monotone tabular utilities.  One flat kernel, _Kernel,
computes it for every instance.  It keys a history psi as (dom psi bitmask,
state, constraint key), where the state ORs a bit pattern per observation
(e, o):

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

from .core import (CoverageUtility, IndependentPrior, PSI_EMPTY, PartialRealization,
                   _check_evidence, _check_items, expected_set_value)
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


class _Kernel:
    """The optimum's recursion (module docstring).

    value(psi, cstate, first) is V at psi under the constraint state, and
    stop(psi) psi's stop value; psi is read once per change, for its root
    key.  A `first` list receives the root's tied best items.  nodes counts
    expanded keys, hits memo hits.
    """

    def __init__(self, f, prior):
        self.f, self.prior, self.n = f, prior, prior.n
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

    def _history(self, state):
        """The history whose state this is, where states are not covered masks."""
        width, field = self.width, (1 << self.width) - 1
        return PartialRealization(tuple((e, o - 1) for e in range(self.n)
                                        if (o := (state >> (e * width)) & field)))

    def _root_of(self, psi):
        """(dom psi bitmask, state); impossible evidence raises."""
        if psi is not self._psi:
            _check_evidence(self.prior, psi)
            bits, state = self.bits, 0
            for e, o in psi.pairs:
                state |= bits[e][o]
            self._root = (_dom_mask(psi), state)
            self._psi = psi
        return self._root

    def stop(self, psi):
        return self._stop(self._root_of(psi)[1])

    def _stop(self, state):
        value = self.stops.get(state)
        if value is None:
            value = self.stops[state] = (
                self.f._mask_weight(state) if self.coverage
                else expected_set_value(self.f, self.prior, self._history(state)))
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


def _solve(f, prior, constraint, caps: OracleCaps = DEFAULT_CAPS) -> OracleResult:
    _check_size(prior, caps)
    _check_budget(prior, constraint.total_budget(), caps)
    first = []
    rec = _Kernel(f, prior)
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
    checks the items once for many psi; _Kernel.restricted answers it.
    """

    def __init__(self, f, prior, caps: OracleCaps = DEFAULT_CAPS):
        _check_size(prior, caps)
        self.prior, self.caps = prior, caps
        self.rec = _Kernel(f, prior)
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
        return self.rec.restricted(psi, free, budget) - self._stop


def restricted_optimal(f, prior, psi: PartialRealization, items, a: int,
                       caps: OracleCaps = DEFAULT_CAPS) -> float:
    """Best expected gain over policies selecting at most `a` items from `items`."""
    return RestrictedOracle(f, prior, caps)(psi, items, a)
