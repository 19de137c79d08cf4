"""Exact and Monte Carlo evaluation of policy expected utility.

Exact evaluation is one recursion over observation histories,
HistoryRecursion: the expectation of the final utility over histories,
memoized on (history, constraint state), where each node either stops, worth
expected_set_value (for coverage, its covered mask's weight), or averages
over the policy's own choice (adasub.oracle's RestrictedOracle takes the max
instead).  A policy owns its constraint (pi.fresh_constraint(n)) and is always
evaluated under it.  A deterministic policy's choice is its decide, the code
a rollout runs, and so is a randomized one's for a fixed master seed (its
stream is derived from the seed and the history); unseeded, a randomized
policy's decision_distribution averages over that randomness exactly.  Exact
evaluation first bounds the histories it could visit and refuses trees over
EXACT_MAX_HISTORIES: a randomized policy may reach C(n, j) * m^j histories at
depth j.  Policies with no single decision stream (concatenations, whose
second phase forgets the history) fall back to enumerating the prior support
and running a rollout per realization.  Monte Carlo sums left to right, so its
mean and standard error have the same bits on every Python version.
"""

from __future__ import annotations

import copy
import math
import random

from .core import (EvalContext, PSI_EMPTY, PartialRealization, _check_int, _left_sum,
                   expected_set_value)
from .errors import ExactModeUnavailable, InstanceTooLarge, ValidationError
from .policies import Policy, _check_choice, run_policy

# Each visited history costs ~40 us and a ~320-byte memo entry (2-vCPU Xeon,
# Python 3.11), so a tree at the cap takes under ten seconds and ~65 MiB.
EXACT_MAX_HISTORIES = 200_000


def exact_history_bound(pi: Policy, n: int, m: int, expand=True) -> int:
    """Upper bound on the histories an exact evaluation of pi visits.

    After j selections pi has followed at most prod(widths[:j]) item
    sequences (each width 1 when expand is False, as a seeded policy's choice
    is a point mass, and for a deterministic policy: one sequence bounds it
    whether or not its nodes are memoized); memoized, these collapse to at
    most C(n, j) item sets.  Each set carries at most m^j outcome vectors.
    """
    total = paths = 1
    for j, width in enumerate(pi.decision_widths(n), 1):
        if expand:
            paths *= width
        total += min(paths, math.comb(n, j)) * m ** j
    return total


class HistoryRecursion:
    """pi's expected final utility over observation histories, in the context ctx.

    value(psi, cstate, scratch) is a node.  Its evidence is psi with `given`,
    which pi does not see, built once per node.  pi either stops, worth
    E[f(dom psi) | evidence], priced each time a node stops (once per
    history), or its choice's branches are averaged, each e worth
    sum_o p(o | evidence) * value(psi + (e, o), cstate after e).  A node whose
    scratch is empty ({} or None) is memoized on (psi, constraint key); one
    whose scratch holds state depends on its path, is not memoized, and gives
    each child a deep copy.  nodes counts expanded nodes, hits memo hits.
    """

    def __init__(self, pi, ctx, given=PSI_EMPTY):
        self.pi, self.ctx, self.given = pi, ctx, given
        self.memo = {}
        self.nodes = self.hits = 0

    def value(self, psi, cstate, scratch=None):
        if scratch:
            self.nodes += 1
            return self._node(psi, cstate, scratch)
        key = (psi.pairs, cstate.key())
        value = self.memo.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.nodes += 1
        value = self.memo[key] = self._node(psi, cstate, scratch)
        return value

    def _node(self, psi, cstate, scratch):
        """Stop, or average the branches over pi's choice."""
        pi, ctx, given = self.pi, self.ctx, self.given
        if ctx.seed is None and pi.randomized:
            choices = pi.decision_distribution(ctx, psi, cstate)
        else:
            decision = pi.decide(ctx, psi, cstate, scratch)
            choices = [] if decision is None else [(decision[0], 1.0)]
        evidence = (PartialRealization.of({**given.as_dict(), **psi.as_dict()})
                    if given else psi)
        if not choices:
            return expected_set_value(ctx.f, ctx.prior, evidence)
        value = 0.0
        for e, q in choices:
            _check_choice(pi, e, psi, cstate, ctx.n)
            nxt = cstate.after(e)
            branch = 0.0
            for o, p in ctx.prior.item_posterior(e, evidence):
                child = copy.deepcopy(scratch) if scratch else scratch
                branch += p * self.value(psi.with_observation(e, o), nxt, child)
            value += q * branch
        return value


def exact_policy_value(pi: Policy, f, prior, seed=None, delta_cache=None) -> float:
    """Exact f_avg of pi under the prior.

    seed=None averages over pi's internal randomness exactly; a given seed
    fixes it, giving the value of that one seeded policy.  Raises
    InstanceTooLarge when exact_history_bound exceeds EXACT_MAX_HISTORIES;
    expected_utility(mode="mc") estimates the value instead.
    """
    return _policy_value(pi, f, prior, PSI_EMPTY, seed, delta_cache)


def _policy_value(pi, f, prior, given, seed, delta_cache=None):
    """E[f(dom given + pi's selections) | given], pi run from an empty history."""
    if not pi.supports_tree_eval:
        if seed is None and pi.randomized:
            raise ExactModeUnavailable(
                "%s has no exact form over its internal randomness; "
                "use expected_utility(mode='mc')" % pi.name)
        total = 0.0
        for phi, p in prior.support(given):
            trace = run_policy(pi, f, prior, phi, seed=seed)
            union = tuple(sorted(set(given.domain()) | set(trace.selected)))
            total += p * f.value(union, phi)
        return total
    bound = exact_history_bound(pi, prior.n, prior.m, expand=seed is None)
    if bound > EXACT_MAX_HISTORIES:
        raise InstanceTooLarge(
            "exact evaluation of %s may visit %d histories, over the cap %d"
            % (pi.describe(), bound, EXACT_MAX_HISTORIES))
    ctx = EvalContext(f, prior, seed=seed, delta_cache=delta_cache)
    rec = HistoryRecursion(pi, ctx, given=given)
    return rec.value(PSI_EMPTY, pi.fresh_constraint(prior.n), {})


def expected_utility(f, prior, pi: Policy, mode: str = "exact",
                     samples: int = 10_000, seed=0, delta_cache=None):
    """f_avg(pi): expected utility over the prior and pi's internal randomness.

    Exact mode returns the exact expectation as a float, from one exact
    evaluation (seed is unused: the internal randomness is averaged out, not
    sampled); it raises InstanceTooLarge when the policy tree is over
    EXACT_MAX_HISTORIES.  Monte Carlo mode returns (estimate, standard_error).
    """
    if mode == "exact":
        return exact_policy_value(pi, f, prior, delta_cache=delta_cache)
    if mode != "mc":
        raise ValidationError("unknown mode %r" % mode)
    if _check_int(samples, "samples") < 1:
        raise ValidationError("Monte Carlo needs samples >= 1, got %d" % samples)
    rng_phi = random.Random("%s#phi" % seed)
    vals = []
    for i in range(samples):
        phi = prior.sample(rng_phi)
        trace = run_policy(pi, f, prior, phi, seed="%s#%d" % (seed, i),
                           delta_cache=delta_cache)
        vals.append(trace.value)
    mean = _left_sum(vals) / len(vals)
    try:
        var = _left_sum((v - mean) ** 2 for v in vals) / max(len(vals) - 1, 1)
    except OverflowError:   # a square past the float range, as from values near 1e308
        var = math.inf
    return mean, math.sqrt(var / len(vals))


def policy_marginal(f, prior, psi, pi: Policy) -> float:
    """Expected gain of running pi (from an empty history) on top of psi.

    E[f(dom(psi) | union E(pi, Phi), Phi) - f(dom(psi), Phi)] over
    realizations consistent with psi; pi decides from its own observations
    only, under the unconditioned prior.  The value is exact over pi's
    internal randomness as well, with exact_policy_value's size cap and its
    ExactModeUnavailable for a randomized concat.
    """
    return (_policy_value(pi, f, prior, psi, None)
            - expected_set_value(f, prior, psi))
