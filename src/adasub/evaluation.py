"""Exact and Monte Carlo evaluation of policy expected utility.

Exact evaluation recurses over the policy's decision tree.  At each
observation history the policy's choice is a distribution over items: its
decision_distribution, which averages over the internal randomness exactly,
or, for a fixed master seed, the point mass of the seeded decide (whose
stream is derived from the seed and the history).  The recursion branches
over each chosen item's posterior states and is memoized on (history,
constraint state) unless the policy's choice depends on the path.  Before
recursing it bounds the number of histories it could visit and refuses trees
over EXACT_MAX_HISTORIES: a randomized policy's tree grows with every item it
may choose, up to C(n, j) * m^j histories at depth j.  Policies
with no single decision stream (concatenations, whose second phase forgets
the history) fall back to enumerating the prior support and running a
rollout per realization.
"""

from __future__ import annotations

import copy
import math
import random
from typing import Optional

from .core import (
    EvalContext,
    PSI_EMPTY,
    condition,
    expected_set_value,
)
from .errors import ExactModeUnavailable, InstanceTooLarge, PolicyViolation
from .policies import Policy, run_policy

DEFAULT_REPLICATES = 200

# Each visited history costs ~40 us and a ~320-byte memo entry (2-vCPU Xeon,
# Python 3.11), so a tree at the cap takes under ten seconds and ~65 MiB.
EXACT_MAX_HISTORIES = 200_000


def exact_history_bound(pi: Policy, n: int, m: int, constraint, expand=True) -> int:
    """Upper bound on the histories an exact evaluation of pi visits.

    After j selections pi has followed at most prod(widths[:j]) item
    sequences (each width 1 when expand is False: a seeded policy's choice
    is a point mass); memoized, these collapse to at most C(n, j) item sets.
    Each set carries at most m^j outcome vectors.
    """
    total = paths = 1
    for j, width in enumerate(pi.decision_widths(n, constraint), 1):
        if expand:
            paths *= width
        sets = paths if pi.path_dependent else min(paths, math.comb(n, j))
        total += sets * m ** j
    return total


def exact_policy_value(pi: Policy, f, prior, seed=None, constraint=None,
                       delta_cache=None) -> float:
    """Exact f_avg of pi under the prior.

    seed=None averages over pi's internal randomness exactly; a given seed
    fixes it, giving the value of that one seeded policy.  Raises
    InstanceTooLarge when exact_history_bound exceeds EXACT_MAX_HISTORIES;
    expected_utility(mode="mc") estimates the value instead.
    """
    if not pi.supports_tree_eval:
        if seed is None and pi.randomized:
            raise ExactModeUnavailable(
                "%s has no exact form over its internal randomness; use mode='mc'"
                % pi.name)
        return _exact_by_enumeration(pi, f, prior, seed, constraint)
    if constraint is None:
        constraint = pi.fresh_constraint(prior.n)
    bound = exact_history_bound(pi, prior.n, prior.m, constraint, expand=seed is None)
    if bound > EXACT_MAX_HISTORIES:
        raise InstanceTooLarge(
            "exact evaluation of %s may visit %d histories, over the cap %d"
            % (pi.describe(), bound, EXACT_MAX_HISTORIES))
    ctx = EvalContext(f, prior, seed=seed, delta_cache=delta_cache)
    memo = None if pi.path_dependent else {}
    return _tree_value(pi, ctx, memo, PSI_EMPTY, constraint, pi.init_scratch())


def _tree_value(pi, ctx, memo, psi, cstate, scratch):
    """Expected final utility of pi from history psi.

    memo maps (psi, constraint key) to the value; it is None for a
    path-dependent policy, which recurses per path with its own scratch.
    """
    if memo is not None:
        key = (psi.pairs, cstate.key())
        value = memo.get(key)
        if value is not None:
            return value
    if memo is not None and ctx.seed is None:
        choices = pi.decision_distribution(ctx, psi, cstate)
    else:
        e = pi.decide(ctx, psi, cstate, scratch)
        choices = [] if e is None else [(e, 1.0)]
    if not choices:
        value = expected_set_value(ctx.f, ctx.prior, psi, psi.domain())
    else:
        value = 0.0
        for e, q in choices:
            if e in psi or not cstate.can_select(e):
                raise PolicyViolation("%s chose infeasible item %d" % (pi.name, e))
            nxt = cstate.after(e)
            total = 0.0
            for o, p in ctx.prior.item_posterior(e, psi):
                branch_scratch = copy.deepcopy(scratch) if scratch else {}
                total += p * _tree_value(pi, ctx, memo, psi.with_observation(e, o), nxt,
                                         branch_scratch)
            value += q * total
    if memo is not None:
        memo[key] = value
    return value


def _exact_by_enumeration(pi, f, prior, seed, constraint):
    total = 0.0
    for phi, p in prior.support():
        trace = run_policy(pi, f, prior, phi, constraint=constraint, seed=seed)
        total += p * trace.value
    return total


def expected_utility(f, prior, pi: Policy, mode: str = "exact",
                     samples: int = 10_000, seed=0,
                     constraint=None, delta_cache=None):
    """f_avg(pi): expected utility over the prior and pi's internal randomness.

    Exact mode returns the exact expectation as a float, from one exact
    evaluation (seed is unused: the internal randomness is averaged out, not
    sampled); it raises InstanceTooLarge when the policy tree is over
    EXACT_MAX_HISTORIES.  Monte Carlo mode returns (estimate, standard_error).
    """
    if mode == "exact":
        return exact_policy_value(pi, f, prior, constraint=constraint,
                                  delta_cache=delta_cache)
    if mode != "mc":
        raise ValueError("unknown mode %r" % mode)
    rng_phi = random.Random("%s#phi" % seed)
    vals = []
    for i in range(samples):
        phi = prior.sample(rng_phi)
        trace = run_policy(pi, f, prior, phi, constraint=constraint,
                           seed="%s#%d" % (seed, i), delta_cache=delta_cache)
        vals.append(trace.value)
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / max(len(vals) - 1, 1)
    return mean, math.sqrt(var / len(vals))


def policy_marginal(f, prior, psi, pi: Policy, mode: str = "exact",
                    samples: int = 10_000, seed=0,
                    replicates: int = DEFAULT_REPLICATES,
                    constraint=None) -> float:
    """Expected gain of running pi (from an empty history) on top of psi.

    E[f(dom(psi) | union E(pi, Phi), Phi) - f(dom(psi), Phi)] over
    realizations consistent with psi.
    """
    dom = psi.domain()

    def gain(phi, rollout_seed):
        trace = run_policy(pi, f, prior, phi, constraint=constraint, seed=rollout_seed)
        union = tuple(sorted(set(dom) | set(trace.selected)))
        return f.value(union, phi) - f.value(dom, phi)

    cond = condition(prior, psi)
    if mode == "exact":
        seeds = ["%s:%d" % (seed, r) for r in range(replicates)] if pi.randomized else [seed]
        support = cond.support()
        total = 0.0
        for s in seeds:
            total += sum(p * gain(phi, s) for phi, p in support)
        return total / len(seeds)
    if mode != "mc":
        raise ValueError("unknown mode %r" % mode)
    rng = random.Random("%s#pm" % seed)
    acc = 0.0
    for i in range(samples):
        phi = cond.sample(rng)
        acc += gain(phi, "%s#%d" % (seed, i))
    return acc / samples
