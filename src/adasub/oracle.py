"""Exhaustive optimal adaptive policy value on small instances.

The optimum is the exact policy value's recursion over partial realizations
(evaluation.HistoryRecursion) with the policy's choice replaced by a max:

    V(psi) = max( E[f(dom(psi), Phi) | psi],
                  max_e sum_o Pr[Phi_e = o | psi] * V(psi + (e, o)) )

memoized on (psi, constraint state); for coverage under an independent
prior, psi is summarized as (dom psi, covered mask), which fixes V.  The
stop branch keeps the oracle correct for non-monotone tabular utilities.
Hard instance caps fail loudly; ground truth is this module's only job.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PSI_EMPTY, PartialRealization
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


def _check_budget(prior, constraint, caps: OracleCaps):
    # A budget over n cannot be spent; such instances are accepted and clamped.
    budget = min(constraint.total_budget(), prior.n)
    if budget > caps.max_budget:
        raise InstanceTooLarge("budget %d exceeds oracle cap %d" % (budget, caps.max_budget))


def _best_choice(rec, psi, cstate, first):
    """Max of stopping and every feasible branch; ties within VALUE_TOL.

    A `first` list receives the tied best items (the root's call finishes last).
    """
    best = rec.stop(psi)
    best_items = []
    # Under summary keys the running node's dom bitmask answers `e in psi`.
    dom = rec.node[0] if rec.summarized else sum(1 << e for e, _ in psi.pairs)
    for e in range(rec.prior.n):
        if dom >> e & 1 or not cstate.can_select(e):
            continue
        val = rec.branch(psi, cstate, e, first)
        if val > best + VALUE_TOL:
            best = val
            best_items = [e]
        elif val >= best - VALUE_TOL:
            best_items.append(e)
    if first is not None:
        first[:] = best_items
    return best


def _solve(f, prior, constraint, caps: OracleCaps = DEFAULT_CAPS) -> OracleResult:
    _check_size(prior, caps)
    _check_budget(prior, constraint, caps)
    first = []
    rec = HistoryRecursion(f, prior, _best_choice, summarize=True)
    value = rec.value(PSI_EMPTY, constraint, first)
    return OracleResult(value, tuple(first), rec.nodes, rec.hits)


def optimal_value(f, prior, constraint, caps: OracleCaps = DEFAULT_CAPS) -> OracleResult:
    """Optimal adaptive f_avg under the constraint, from the empty history.

    The gain from observations psi is restricted_optimal's marginal form.
    """
    return _solve(f, prior, constraint, caps)


class _Restriction:
    """Constraint state: at most `budget` further selections from `items`.

    The budget is clamped to the items left, so key() is canonical and every
    (psi, items, a) query that reaches a subproblem shares its memo entry.
    """

    __slots__ = ("items", "budget")

    def __init__(self, items: frozenset, budget: int):
        if budget < 0:
            raise ValidationError("negative budget")
        self.items, self.budget = items, min(budget, len(items))

    def can_select(self, e):
        return self.budget > 0 and e in self.items

    def after(self, e):
        return _Restriction(self.items - {e}, self.budget - 1)

    def key(self):
        return (self.items, self.budget)

    def total_budget(self):
        return self.budget


class RestrictedOracle:
    """restricted_optimal for one instance, called as oracle(psi, items, a).

    One HistoryRecursion serves every call, so the values and stop values of
    subproblems that several queries reach are computed once.  The domain of
    the last psi asked is kept, since callers ask many (items, a) at one psi.
    """

    def __init__(self, f, prior, caps: OracleCaps = DEFAULT_CAPS):
        _check_size(prior, caps)
        self.prior, self.caps = prior, caps
        self.rec = HistoryRecursion(f, prior, _best_choice, summarize=True)
        self._psi = self._dom = None

    def __call__(self, psi: PartialRealization, items, a: int) -> float:
        if psi is not self._psi:
            self._psi, self._dom = psi, psi.domain()
        state = _Restriction(frozenset(items).difference(self._dom), a)
        _check_budget(self.prior, state, self.caps)
        return self.rec.value(psi, state) - self.rec.stop(psi)


def restricted_optimal(f, prior, psi: PartialRealization, items, a: int,
                       caps: OracleCaps = DEFAULT_CAPS) -> float:
    """Best expected gain over policies selecting at most `a` items from `items`."""
    return RestrictedOracle(f, prior, caps)(psi, items, a)
