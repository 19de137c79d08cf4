"""Exact and Monte Carlo evaluation of policy expected utility.

Exact evaluation is one recursion over observation histories,
HistoryRecursion: the expectation of the final utility over histories,
memoized on the history, where each node either stops, worth
expected_set_value (for coverage, its covered mask's weight), or averages
over the policy's own choice (adasub.oracle's RestrictedOracle takes the max
instead).  Coverage under an independent prior, evaluated on its own (no
evidence given, no concatenation), hands each node its covered mask from its
parent, so no node rescans its pairs for its Delta state, evidence or stop.
A policy owns its constraint and is always evaluated under it: every
selected item is observed, so round |psi| of pi.schedule(n) names the group a
node may select from, and the history alone keys its node.  A deterministic
policy's choice is its decide, the code a rollout runs, and so is a
randomized one's for a fixed master seed (its stream is derived from the
seed and the history); unseeded, a randomized policy's
decision_distribution averages over that randomness exactly.  Exact
evaluation first bounds the histories it could visit and refuses trees over
EXACT_MAX_HISTORIES: a randomized policy may reach C(n, j) * m^j histories at
depth j.  A concatenation's first phase stops at leaves worth the second
phase's exact value given the leaf's evidence, which that phase does not see.
Monte Carlo sums left to right, so its mean and standard error have the same
bits on every Python version.
"""

from __future__ import annotations

import math
import random

from .core import (EvalContext, PSI_EMPTY, PartialRealization, _check_int, _insert_pair,
                   _left_sum, expected_set_value)
from .errors import InstanceTooLarge, ValidationError
from .policies import ConcatPolicy, Policy, _check_choice, run_policy

# Exact unseeded ASG (k=5, eps=0.1) on generate_coverage(n=16, m=2, universe_size=8,
# density=0.3, seed=1) visits 53,635 histories in ~0.42 CPU s and ~10.3 MiB (2-vCPU
# Xeon, Python 3.11), so a tree at the cap takes about 1.6 s and 40 MiB.
EXACT_MAX_HISTORIES = 200_000


def exact_history_bound(pi: Policy, n: int, m: int, expand=True) -> int:
    """Upper bound on the histories an exact evaluation of pi visits.

    After j selections pi has followed at most prod(widths[:j]) item
    sequences (each width 1 when expand is False, as a seeded policy's choice
    is a point mass, and for a deterministic policy); memoized, these collapse
    to at most C(n, j) item sets.  Each set carries at most m^j outcome vectors.
    A concatenation's is first's * (second's + 1): a second tree per first history.
    """
    if isinstance(pi, ConcatPolicy):
        return (exact_history_bound(pi.first, n, m, expand)
                * (exact_history_bound(pi.second, n, m, expand) + 1))
    total = paths = 1
    for j, width in enumerate(pi.decision_widths(n), 1):
        if expand:
            paths *= width
        total += min(paths, math.comb(n, j)) * m ** j
    return total


class HistoryRecursion:
    """pi's expected final utility over observation histories, in the context ctx.

    value(psi, covered) is a node, memoized on psi.pairs, as |psi| fixes the
    round pi serves (module docstring).  pi either stops, priced once per
    history, or its choice's branches are averaged, each e worth
    sum_o p(o | evidence) * value(psi + (e, o), its mask).
    A node given its covered mask (module docstring) becomes ctx's current
    history through descend, reads e's posterior from its prior row and
    stops at f.covered_value(covered); any other node's evidence is psi with
    `given`, which pi does not see, and its stop is leaf(evidence).  Each
    node's decide starts from an empty per-rollout dict, so lazy greedy's
    tree is greedy's.  len(memo) counts the expanded nodes; hits, memo hits.
    """

    def __init__(self, pi, ctx, given, leaf):
        self.pi, self.ctx, self.given, self.leaf = pi, ctx, given, leaf
        self.memo, self.hits = {}, 0

    def value(self, psi, covered=None):
        pairs = psi.pairs
        value = self.memo.get(pairs)
        if value is not None:
            self.hits += 1
            return value
        pi, ctx, given, f = self.pi, self.ctx, self.given, self.ctx.f
        if covered is not None:
            ctx.descend(psi, covered, own=True)
        if ctx.seed is None and pi.randomized:
            choices = pi.decision_distribution(ctx, psi)
        else:
            decision = pi.decide(ctx, psi, {})
            choices = [] if decision is None else [(decision[0], 1.0)]
        if covered is None:
            evidence = (PartialRealization.of({**given.as_dict(), **psi.as_dict()})
                        if given else psi)
            value = 0.0 if choices else self.leaf(evidence)
        else:
            value = 0.0 if choices else f.covered_value(covered)
        seen = ctx.observed(psi)
        for e, q in choices:
            _check_choice(pi, e, seen, ctx.n)
            branch = 0.0
            for o, p in (ctx.prior.item_posterior(e, evidence) if covered is None
                         else ctx._rows[e]):
                child = PartialRealization(_insert_pair(pairs, e, o)[1])
                branch += p * self.value(child, None if covered is None
                                         else covered | f.covers[e][o])
            value += q * branch
        self.memo[pairs] = value
        return value


def exact_policy_value(pi: Policy, f, prior, seed=None) -> float:
    """Exact f_avg of pi under the prior; each Delta pi asks for ticks f.delta_counter.

    seed=None averages over pi's internal randomness exactly; a given seed
    fixes it, giving the value of that one seeded policy.  Raises
    InstanceTooLarge when exact_history_bound exceeds EXACT_MAX_HISTORIES;
    expected_utility(mode="mc") estimates the value instead.
    """
    return _policy_value(pi, f, prior, PSI_EMPTY, seed)


def _policy_value(pi, f, prior, given, seed, leaf=None):
    """E[f(dom given + pi's selections) | given], pi run from an empty history.  The
    outer call (leaf None) checks the size and prices a stop at E[f | evidence]; in
    a concatenation, leaf(evidence) is the next phase's value, seeded as in run_on."""
    if leaf is None:
        bound = exact_history_bound(pi, prior.n, prior.m, expand=seed is None)
        if bound > EXACT_MAX_HISTORIES:
            raise InstanceTooLarge(
                "exact evaluation of %s may visit %d histories, over the cap %d"
                % (pi.describe(), bound, EXACT_MAX_HISTORIES))
    stop = leaf or (lambda evidence: expected_set_value(f, prior, evidence))
    if isinstance(pi, ConcatPolicy):
        s1, s2 = (None, None) if seed is None else ("%s/1" % seed, "%s/2" % seed)
        return _policy_value(pi.first, f, prior, given, s1,
                             lambda evidence: _policy_value(pi.second, f, prior, evidence,
                                                            s2, stop))
    ctx = EvalContext(f, prior, seed=seed)
    # Coverage under an independent prior, no `given` evidence and the default stop:
    # the root gets its covered mask, and each node carries its own (HistoryRecursion).
    covered = 0 if leaf is None and not given and ctx._rows is not None else None
    return HistoryRecursion(pi, ctx, given, stop).value(PSI_EMPTY, covered)


def expected_utility(f, prior, pi: Policy, mode: str = "exact",
                     samples: int = 10_000, seed=0):
    """f_avg(pi): expected utility over the prior and pi's internal randomness.

    Exact mode returns the exact expectation as a float, from one exact
    evaluation (seed is unused: the internal randomness is averaged out, not
    sampled); it raises InstanceTooLarge when the policy tree is over
    EXACT_MAX_HISTORIES.  Monte Carlo mode returns (estimate, standard_error)
    over `samples` run_policy rollouts, the i-th seeded "seed#i".
    """
    if mode == "exact":
        return exact_policy_value(pi, f, prior)
    if mode != "mc":
        raise ValidationError("unknown mode %r" % mode)
    if _check_int(samples, "samples") < 1:
        raise ValidationError("Monte Carlo needs samples >= 1, got %d" % samples)
    rng_phi = random.Random("%s#phi" % seed)
    vals = []
    for i in range(samples):
        phi = prior.sample(rng_phi)
        trace = run_policy(pi, f, prior, phi, seed="%s#%d" % (seed, i))
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
    internal randomness as well, a concatenation's included (randomized or
    not, through the same recursion), and has exact_policy_value's size cap.
    """
    return (_policy_value(pi, f, prior, psi, None)
            - expected_set_value(f, prior, psi))
