"""Exhaustive optimal adaptive policy value on small instances.

The optimum is the exact policy value's recursion over partial realizations
(evaluation.HistoryRecursion) with the policy's choice replaced by a max:

    V(psi) = max( E[f(dom(psi), Phi) | psi],
                  max_e sum_o Pr[Phi_e = o | psi] * V(psi + (e, o)) )

memoized on (canonical psi, constraint state).  The explicit stop branch
keeps the oracle correct for non-monotone tabular utilities.  Hard instance
caps fail loudly; ground truth is this module's only job.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PSI_EMPTY, PartialRealization, expected_set_value
from .errors import InstanceTooLarge
from .evaluation import HistoryRecursion
from .policies import CardinalityConstraint

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


def _check_caps(prior, constraint, caps: OracleCaps):
    if prior.n > caps.max_items:
        raise InstanceTooLarge("n=%d exceeds oracle cap %d" % (prior.n, caps.max_items))
    if prior.m > caps.max_states:
        raise InstanceTooLarge("m=%d exceeds oracle cap %d" % (prior.m, caps.max_states))
    # A budget over n cannot be spent; such instances are accepted and clamped.
    budget = min(constraint.total_budget(), prior.n)
    if budget > caps.max_budget:
        raise InstanceTooLarge("budget %d exceeds oracle cap %d" % (budget, caps.max_budget))


def _solve(f, prior, constraint, base: PartialRealization, selectable=None,
           caps: OracleCaps = DEFAULT_CAPS) -> OracleResult:
    _check_caps(prior, constraint, caps)
    pool = range(prior.n) if selectable is None else selectable
    first = []

    def best_choice(rec, psi, cstate, scratch):
        """Max of stopping and every feasible branch; ties within VALUE_TOL."""
        best = rec.stop(psi)
        best_items = []
        for e in pool:
            if e in psi or not cstate.can_select(e):
                continue
            val = rec.branch(psi, cstate, e)
            if val > best + VALUE_TOL:
                best = val
                best_items = [e]
            elif val >= best - VALUE_TOL:
                best_items.append(e)
        first[:] = best_items       # the root's call finishes last
        return best

    rec = HistoryRecursion(f, prior, best_choice)
    value = rec.value(base, constraint)
    return OracleResult(value, tuple(first), rec.nodes, rec.hits)


def optimal_value(f, prior, constraint, base: PartialRealization = PSI_EMPTY,
                  caps: OracleCaps = DEFAULT_CAPS) -> OracleResult:
    """Optimal adaptive f_avg under the constraint, from observations `base`.

    For an empty base the value is absolute; for a nonempty base it is the
    expected gain over E[f(dom(base), Phi) | base] (the marginal form used
    by the restricted-policy checker).
    """
    res = _solve(f, prior, constraint, base, caps=caps)
    if len(base) > 0:
        res.value -= expected_set_value(f, prior, base, base.domain())
    return res


def restricted_optimal(f, prior, psi: PartialRealization, items, a: int,
                       caps: OracleCaps = DEFAULT_CAPS) -> float:
    """Best expected gain over policies selecting at most `a` items from `items`."""
    selectable = tuple(sorted(set(items) - set(psi.domain())))
    res = _solve(f, prior, CardinalityConstraint(min(a, len(selectable))), psi,
                 selectable=selectable, caps=caps)
    return res.value - expected_set_value(f, prior, psi, psi.domain())
