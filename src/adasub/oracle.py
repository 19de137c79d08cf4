"""Exhaustive optimal adaptive policy value on small instances.

The optimum is the exact policy value's recursion over partial realizations
with the policy's choice replaced by a max:

    V(psi) = max( E[f(dom(psi), Phi) | psi],
                  max_e sum_o Pr[Phi_e = o | psi] * V(psi + (e, o)) )

The stop branch keeps the oracle correct for non-monotone tabular utilities.
One object per instance, RestrictedOracle, computes it for optimal_value and
every restricted query, memoized on the key (state, left, gid): `left` masks
the items still free and selectable (unobserved, or in V minus dom psi for
a restricted query, and with group budget left), and `gid` interns a tuple of
fixed (group mask, budget clamped to the group's size) pairs: ((all items,
k),) for a cardinality k, one per group for a partition, ((all items, min(a,
|left|)),) for a restricted query.  The state ORs a bit pattern per (e, o):

* for coverage under an independent prior, (e, o)'s coverage mask.  An
  unobserved item's posterior is its prior, and the future values of psi
  read it only through its covered mask, so the key fixes V bit for bit; a
  stop is the covered mask's weight.
* for every other instance, o + 1 in item e's field of m.bit_length() bits,
  so the state is psi itself; a stop is expected_set_value at that history.

Stop values are memoized on the state.  Under an independent prior each
item's (bits, probability) row is built once; under an explicit prior a node
reads each free item's posterior at its history from ExplicitPrior.posteriors.
A node loops over the set bits of `left` in ascending order and keys each
child in O(1) from its gid's move table; a child with no item left is a
leaf, worth exactly its stop, read with no call and no memo entry.  Values
within VALUE_TOL of the best tie, and the root's tied best items are its
optimal first actions.  Hard instance caps fail loudly; ground truth is this
module's only job.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (CoverageUtility, IndependentPrior, PartialRealization, _check_evidence,
                   _check_fit, _check_item, expected_set_value)
from .errors import InstanceTooLarge, ValidationError
from .policies import PartitionConstraint

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


class RestrictedOracle:
    """The optimum's recursion (module docstring) for one instance.

    optimal_value expands the empty history's key once; restricted_optimal
    is oracle(psi, items, a).  One memo serves every call, so the values and
    stop values of subproblems that several queries reach are computed once.
    oracle(psi, items, a) is the one checked entry; a caller that walks the
    histories carries each one's root key (dom psi bitmask, state) from its
    parent's with child and reads value(root, free, budget).  Every expanded
    key (state, left, gid) is memoized, so len(memo) counts them and hits
    counts memo hits; a leaf, but for optimal_value's root, is in neither.
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
        self.ground = (1 << self.n) - 1     # the mask of all items
        self.memo, self.stops, self.hits = {}, {}, 0
        self.gids, self.moves = {}, []      # groups tuple -> gid, gid -> its move table
        self.budget_gids = {}               # budget -> gid of ((all items, budget),)

    def __call__(self, psi: PartialRealization, items, a: int) -> float:
        """Best expected gain from at most `a` items of `items` after psi.
        Raises, in this order: ValidationError for the items, a and psi's
        items; ZeroProbabilityEvidence for an impossible psi; InstanceTooLarge
        when a, clamped to the items psi leaves free, is over the budget cap."""
        mask = self.mask(items)
        if type(a) is not int:
            raise ValidationError("budget a must be an integer, got %r" % (a,))
        if a < 0:
            raise ValidationError("negative budget")
        _check_evidence(self.prior, psi)
        root = (0, 0)
        for e, o in psi.pairs:
            root = self.child(root, e, o)
        free = mask & ~root[0]
        budget = min(a, free.bit_count())
        _check_budget(self.prior, budget, self.caps)
        return self.value(root, free, budget)

    def mask(self, items) -> int:
        """The bitmask of items, each checked to be an integer in [0, n)."""
        mask = 0
        for e in items:
            _check_item(e, self.n)
            mask |= 1 << e
        return mask

    def child(self, root, e, o):
        """The root key (dom bitmask, state) of root's history plus (e, o)."""
        return root[0] | 1 << e, root[1] | self.bits[e][o]

    def value(self, root, free, budget) -> float:
        """V less the stop value at root, with `budget` <= |free| selections
        left from `free`, a mask outside dom psi; unchecked.  Reads the memo at
        (state, free, gid of ((all items, budget),)), expanding it on a miss;
        a zero budget is a leaf, worth 0.  Each budget's gid is interned once
        per oracle, and the stop is read from the stops memo, which expanding
        any key at the state has filled."""
        if not budget:
            return 0.0
        gid = self.budget_gids.get(budget)
        if gid is None:
            gid = self.budget_gids[budget] = self._gid(((self.ground, budget),))
        key = (root[1], free, gid)
        value = self.memo.get(key)
        if value is None:
            value = self._node(key)
        else:
            self.hits += 1
        return value - self.stops[root[1]]

    def _history(self, state):
        """The history whose state this is, where states are not covered masks."""
        width, field = self.width, (1 << self.width) - 1
        return PartialRealization(tuple((e, o - 1) for e in range(self.n)
                                        if (o := (state >> (e * width)) & field)))

    def _stop(self, state):
        value = self.stops.get(state)
        if value is None:
            value = self.stops[state] = (
                self.f._mask_weight(state) if self.coverage
                else expected_set_value(self.f, self.prior, self._history(state)))
        return value

    def _gid(self, groups):
        """The id of a groups tuple, interned with its move table: the mask of
        items whose group has budget and, per item e, (the gid after e, its mask)."""
        gid = self.gids.get(groups)
        if gid is None:
            selectable, after = 0, [None] * self.n
            for i, (mask, budget) in enumerate(groups):
                if budget:
                    selectable |= mask
                    nxt = self._gid(groups[:i] + ((mask, budget - 1),) + groups[i + 1:])
                    move = (nxt, self.moves[nxt][0])
                    after = [move if mask >> e & 1 else a for e, a in enumerate(after)]
            gid = self.gids[groups] = len(self.moves)
            self.moves.append((selectable, after))
        return gid

    def _node(self, key, first=None):
        """V at a key not in the memo; a `first` list receives its tied best items."""
        state, left, gid = key
        memo, rows, stops = self.memo, self.rows, self.stops
        best = self._stop(state)
        free, after = left, self.moves[gid][1]
        if rows is None and free:
            # An explicit prior's posteriors at psi, its states as bits.
            items = [e for e in range(self.n) if free >> e & 1]
            rows, bits = [None] * self.n, self.bits
            for e, posterior in zip(items, self.prior.posteriors(self._history(state), items)):
                rows[e] = [(bits[e][o], p) for o, p in posterior]
        best_items, hits = [], 0
        while free:
            bit = free & -free
            free ^= bit
            e = bit.bit_length() - 1
            nxt, reach = after[e]
            rest = (left ^ bit) & reach     # budgets only fall: V never reads the rest
            total = 0.0
            if rest:
                for bits, p in rows[e]:
                    k = (state | bits, rest, nxt)
                    value = memo.get(k)
                    if value is None:
                        value = self._node(k)
                    else:
                        hits += 1
                    total += p * value
            else:       # a leaf
                for bits, p in rows[e]:
                    total += p * (stops.get(state | bits) or self._stop(state | bits))
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
    groups = (tuple((oracle.mask(g), min(d, len(g)))
                    for g, d in zip(constraint.groups, constraint.remaining))
              if isinstance(constraint, PartitionConstraint)
              else ((oracle.ground, min(constraint.remaining, oracle.n)),))
    first = []
    gid = oracle._gid(groups)
    value = oracle._node((0, oracle.moves[gid][0], gid), first)   # the empty history
    return OracleResult(value, tuple(first), len(oracle.memo), oracle.hits)


def optimal_value(f, prior, constraint, caps: OracleCaps = DEFAULT_CAPS) -> OracleResult:
    """Optimal adaptive f_avg under the constraint, from the empty history.

    The gain from observations psi is restricted_optimal's marginal form.
    """
    if isinstance(constraint, PartitionConstraint):
        constraint.check_items(prior.n)
    return _solve(f, prior, constraint, caps)


def restricted_optimal(f, prior, psi: PartialRealization, items, a: int,
                       caps: OracleCaps = DEFAULT_CAPS) -> float:
    """Best expected gain over policies selecting at most `a` items from `items`."""
    return RestrictedOracle(f, prior, caps)(psi, items, a)
