"""Adaptive selection policies and the select-observe execution loop.

Every policy is an immutable descriptor; all per-rollout mutable state lives
in a scratch dict, empty when a rollout starts (only lazy greedy writes to it),
and in the EvalContext, which carries each history's observed-item map and
the pool of the group being served to its child.  A policy's internal
randomness is drawn from a stream derived from (master seed, observation
history), which makes rollouts reproducible and lets the same seeded policy be
evaluated exactly by recursion over its decision tree.  Each policy owns its
constraint, fresh_constraint(n), and always runs under it: for the samplers a
partition with budgets min(d_i, |B_i|), for greedy, lazy, ASG and random one
group of all n items with budget min(k, n).

Greedy, ASG, locally greedy and GASG select the smallest (-Delta(e|psi), id)
key of a uniform sample of the pool (the whole pool for the greedy two), and
lazy greedy's heap orders by that key, so ties go to the smallest id everywhere.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .core import EvalContext, PSI_EMPTY, PartialRealization, _check_int, _shown
from .errors import PolicyViolation, ValidationError


# ---------------------------------------------------------------------------
# constraint states


@dataclass(frozen=True)
class CardinalityConstraint:
    """At most `remaining` further selections."""

    remaining: int

    def __post_init__(self):
        if type(self.remaining) is not int:     # runs on every after(): one test
            raise ValidationError("budget must be an integer, got %r" % (self.remaining,))
        if self.remaining < 0:
            raise ValidationError("negative budget")

    def can_select(self, e: int) -> bool:
        return self.remaining > 0

    def after(self, e: int) -> "CardinalityConstraint":
        return CardinalityConstraint(self.remaining - 1)

    def total_budget(self) -> int:
        return self.remaining


@dataclass(frozen=True)
class PartitionConstraint:
    """Disjoint item groups with per-group selection budgets.

    Items outside every group are never selectable.
    """

    groups: tuple
    remaining: tuple

    def __post_init__(self):
        seen = set()
        for g in self.groups:
            for e in g:
                if e in seen:
                    raise ValidationError("item %s in two groups" % _shown(e))
                seen.add(e)
        if len(self.remaining) != len(self.groups):
            raise ValidationError("one budget per group required")
        if any(d < 0 for d in self.remaining):
            raise ValidationError("negative group budget")
        object.__setattr__(self, "_span", (min(seen, default=0), max(seen, default=0)))

    def check_items(self, n: int):
        """Raise ValidationError unless every group item is an item in [0, n)."""
        bad = [e for e in self._span if not 0 <= e < n]     # the smallest and largest item
        if bad:
            raise ValidationError("group item %s is not an item in [0, %d)" % (_shown(bad[0]), n))

    @classmethod
    def of(cls, groups: Sequence[Sequence[int]], limits: Sequence[int]) -> "PartitionConstraint":
        return cls(tuple(tuple(sorted(_check_int(e, "group item") for e in g)) for g in groups),
                   tuple(_check_int(d, "group limit") for d in limits))

    @cached_property
    def _group_of(self) -> dict:
        out = {}
        for i, g in enumerate(self.groups):
            for e in g:
                out[e] = i
        return out

    def can_select(self, e: int) -> bool:
        i = self._group_of.get(e)
        return i is not None and self.remaining[i] > 0

    def after(self, e: int) -> "PartitionConstraint":
        i = self._group_of[e]
        rem = list(self.remaining)
        rem[i] -= 1
        if rem[i] < 0:
            raise PolicyViolation("group %d budget exceeded" % i)
        child = object.__new__(PartitionConstraint)     # valid as self is: no __post_init__
        child.__dict__.update(self.__dict__, remaining=tuple(rem))     # shares _group_of
        return child

    def total_budget(self) -> int:
        return sum(min(d, len(g)) for d, g in zip(self.remaining, self.groups))


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class TraceStep:
    candidates: tuple
    chosen: int
    observed: int
    delta: Optional[float]


@dataclass(frozen=True)
class PolicyTrace:
    steps: tuple
    selected: tuple
    value: float


# ---------------------------------------------------------------------------
# policy base


class Policy:
    """Decision procedure: observation history + constraint state -> item or stop."""

    name = "policy"
    # A randomized policy defines decision_distribution, the law of its choice
    # that unseeded exact evaluation averages over; the law gets no scratch,
    # so only a deterministic policy may keep state there.
    randomized = False

    def params(self) -> dict:
        return {}

    def describe(self) -> str:
        inner = ",".join("%s=%s" % (k, v) for k, v in sorted(self.params().items()))
        return "%s(%s)" % (self.name, inner)

    def decide(self, ctx: EvalContext, psi: PartialRealization, cstate, scratch):
        """None to stop, or (item, candidates, Delta): the choice, the items drawn or
        priced (maybe ctx's pool: copy before advance) and the choice's Delta or None."""
        raise NotImplementedError

    def decision_widths(self, n: int) -> list:
        """Upper bounds, one per selection from the empty history on, on how
        many items the policy may choose there (its law's length if randomized)."""
        return [1] * min(self.fresh_constraint(n).total_budget(), n)

    def run_on(self, ctx: EvalContext, phi) -> PolicyTrace:
        """Select-observe loop on a fixed realization, under the policy's own
        constraint; selections are irrevocable.  Each history is the context's
        current one, advanced from its parent.  phi must give each of the n
        items an integer state in [0, m)."""
        n, m = ctx.n, ctx.prior.m
        if len(phi) != n:
            raise ValidationError("realization has %d states, expected %d" % (len(phi), n))
        cstate = self.fresh_constraint(n)
        psi = PSI_EMPTY
        scratch = {}
        steps = []
        while True:
            decision = self.decide(ctx, psi, cstate, scratch)
            if decision is None:
                break
            e, candidates, delta = decision
            _check_choice(self, e, ctx.observed(psi), cstate, n)
            o = phi[e]
            if type(o) is not int or not 0 <= o < m:
                raise ValidationError("realization gives item %d state %s, not an integer "
                                      "in [0, %d)" % (e, _shown(o), m))
            steps.append(TraceStep(tuple(candidates), e, o, delta))
            psi = ctx.advance(psi, e, o)
            cstate = cstate.after(e)
        selected = psi.domain()
        return PolicyTrace(tuple(steps), selected, ctx.f.value(selected, phi))


def _check_choice(pi: Policy, e: int, seen, cstate, n: int):
    """Raise PolicyViolation unless e is an unseen int item in [0, n) that cstate allows."""
    if type(e) is not int or not 0 <= e < n:
        raise PolicyViolation("%s selected unknown item %s" % (pi.name, _shown(e)))
    if e in seen:
        raise PolicyViolation("%s re-selected item %d" % (pi.name, e))
    if not cstate.can_select(e):
        raise PolicyViolation("%s selected infeasible item %d" % (pi.name, e))


def run_policy(pi: Policy, f, prior, phi, seed=0) -> PolicyTrace:
    """Execute one rollout of pi on realization phi, in a fresh EvalContext
    whose seed fixes pi's internal randomness, and return its trace."""
    ctx = EvalContext(f, prior, seed=seed)
    return pi.run_on(ctx, phi)


def _check_epsilon(epsilon):
    """epsilon, once it is a number in (0, 1) whose 1/epsilon is finite (a
    subnormal one overflows sample_budget); ValidationError otherwise."""
    if not isinstance(epsilon, (int, float)):
        raise ValidationError("epsilon must be a number, got %r" % (epsilon,))
    if not 0.0 < epsilon < 1.0:
        raise ValidationError("epsilon must be in (0,1)")
    if not math.isfinite(1.0 / epsilon):
        raise ValidationError("epsilon %r is too small: 1/epsilon overflows" % (epsilon,))
    return epsilon


def sample_budget(pool_size: int, group_size: int, limit: int, epsilon: float) -> int:
    """ceil((group_size/limit) * ln(1/eps)), clamped to the candidate pool."""
    s = math.ceil(group_size / limit * math.log(1.0 / epsilon))
    return min(max(s, 1), pool_size)


def _draw(rng, pool: list, s: int) -> list:
    """sorted(rng.sample(pool, s)) for 0 <= s <= len(pool), the same items
    from the same getrandbits calls.

    When random.sample tracks its picks in a set (a pool larger than its
    set-size threshold), this is that branch inlined: each pick is
    getrandbits(len(pool).bit_length()), drawn again while it is out of
    range or already picked.  Its _randbelow frame per draw is what the
    inlining saves.  A smaller pool goes to rng.sample itself.
    """
    n = len(pool)
    setsize = 21 if s <= 5 else 21 + 4 ** math.ceil(math.log(s * 3, 4))
    if n <= setsize:
        return sorted(rng.sample(pool, s))
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    picked = set()
    for _ in range(s):
        j = getrandbits(bits)
        while j >= n or j in picked:
            j = getrandbits(bits)
        picked.add(j)
    return sorted([pool[j] for j in picked])


# ---------------------------------------------------------------------------
# concrete policies


class EmptyPolicy(Policy):
    name = "empty"

    def fresh_constraint(self, n):
        return CardinalityConstraint(0)

    def decide(self, ctx, psi, cstate, scratch):
        return None


class FixedSequencePolicy(Policy):
    """Selects a fixed item sequence, skipping already-observed items."""

    name = "fixed"

    def __init__(self, sequence: Sequence[int]):
        self.sequence = tuple(_check_int(e, "sequence item") for e in sequence)

    def params(self):
        return {"seq": ":".join(map(str, self.sequence))}

    def fresh_constraint(self, n):
        return CardinalityConstraint(len(self.sequence))

    def decide(self, ctx, psi, cstate, scratch):
        for e in self.sequence:
            if e not in psi:
                return e, (), None
        return None


@lru_cache(maxsize=8)
def _one_group(n: int, budget: int) -> "PartitionConstraint":
    """A cardinality policy's constraint, built and validated once per (n, budget)."""
    return PartitionConstraint((tuple(range(n)),), (budget,))


class _BestOfSamplePolicy(Policy):
    """Selects the best-Delta item of a uniform sample of a group's pool.

    Each round serves the first group in `order` with budget left and an
    unobserved item, and draws _sample_size items, without replacement, from
    that group's pool, which the context carries (EvalContext.pool); the best
    item has the smallest (-Delta, id) key.  With no epsilon the sample is the
    whole pool, which is greedy: decide draws nothing (each history has its own
    stream, so no other choice changes) and decision_distribution puts mass 1
    on rank 0.  Groups are disjoint, so the r-th round in group i has a pool of
    |B_i| - r items whatever was observed: widths and caps are arithmetic.
    """

    epsilon = None
    order = (0,)

    def _sample_size(self, pool_size: int, group_size: int, limit: int) -> int:
        """ceil((|B_i|/d_i) * ln(1/eps)) clamped to the pool; the pool with no epsilon."""
        if self.epsilon is None:
            return pool_size
        return sample_budget(pool_size, group_size, limit, self.epsilon)

    def _candidates(self, ctx, psi, cstate):
        """(the served group's pool at psi in id order, sample size), or ([], 0)
        to stop; the pool is ctx's own list."""
        remaining = cstate.remaining
        for i in self.order:
            if remaining[i]:
                group = cstate.groups[i]
                pool = ctx.pool(psi, group)
                if pool:
                    return pool, self._sample_size(len(pool), len(group), self.limits[i])
        return [], 0

    def decide(self, ctx, psi, cstate, scratch):
        pool, s = self._candidates(ctx, psi, cstate)
        if not pool:
            return None
        candidates = pool if s == len(pool) else _draw(ctx.rng_for(psi), pool, s)
        best = best_d = None
        for e in candidates:    # in id order, so a tie keeps the smaller id
            d = ctx.delta(e, psi)
            if best is None or d > best_d:
                best, best_d = e, d
        return best, candidates, best_d

    def decision_distribution(self, ctx, psi, cstate):
        """Exact law of decide's choice over the uniform draw.

        With the pool ranked by (-Delta, id), the sample's best is rank j iff
        the sample holds rank j and s-1 of the N-1-j ranks after it:
        probability C(N-1-j, s-1) / C(N, s).
        """
        pool, s = self._candidates(ctx, psi, cstate)
        if not pool:
            return []
        ranked = sorted(pool, key=lambda e: (-ctx.delta(e, psi), e))
        size = len(ranked)
        draws = math.comb(size, s)
        return [(e, math.comb(size - 1 - j, s - 1) / draws)
                for j, e in enumerate(ranked[:size - s + 1])]

    def _rounds(self, n: int) -> list:
        """(|B_i|, d_i, pool size) of each round on n items, in order."""
        cstate = self.fresh_constraint(n)
        return [(len(g), self.limits[i], len(g) - r) for i in self.order
                for g in (cstate.groups[i],) for r in range(cstate.remaining[i])]

    def decision_widths(self, n):
        """The law's length, pool size - s + 1, at each round."""
        return [pool - self._sample_size(pool, size, d) + 1 for size, d, pool in self._rounds(n)]

    def oracle_call_cap(self, n: int) -> int:
        """The paper's cap on one rollout's Delta calls: in each group i, the
        pools |B_i|, |B_i|-1, ... with no epsilon; else each round's sample of
        ceil((|B_i|/d_i) * ln(1/eps)) items, clamped to |B_i|."""
        return sum(pool if self.epsilon is None else self._sample_size(size, size, d)
                   for size, d, pool in self._rounds(n))


class AdaptiveGreedyPolicy(_BestOfSamplePolicy):
    """Classic adaptive greedy: argmax Delta over all unselected items each round,
    under one group of all n items with budget min(k, n) (sample sizes read k)."""

    name = "greedy"

    def __init__(self, k: int):
        if _check_int(k, "k") < 0:
            raise ValidationError("k must be >= 0")
        self.k = k
        self.limits = (k,)

    def params(self):
        return {"k": self.k}

    def fresh_constraint(self, n):
        return _one_group(n, min(self.k, n))


class LazyGreedyPolicy(AdaptiveGreedyPolicy):
    """Adaptive greedy with lazy re-evaluation; selects greedy's items.

    Keeps a max-heap of stale upper bounds, keyed (-Delta, id), and
    re-evaluates the top in place (one heapreplace) until the top holds a
    value evaluated at the current history; that item is chosen.  Valid
    because adaptive submodularity makes Delta(e|.) non-increasing along the
    policy's own observation chain.  Ids are distinct, so the order of the
    keys alone picks the top.
    """

    name = "lazy"

    def decide(self, ctx, psi, cstate, scratch):
        # Only round 1 reads the pool; in round j + 1 (|psi| = j) the heap holds
        # the n - j items not yet chosen, at least one while the budget
        # min(k, n) - j lasts, so only an exhausted budget stops.
        if not cstate.remaining[0]:
            return None
        rnd = len(psi) + 1
        heap = scratch.get("heap")
        evaluated = []
        if heap is None:    # every entry is fresh, so the first pop is chosen
            evaluated, _ = self._candidates(ctx, psi, cstate)
            heap = scratch["heap"] = [(-ctx.delta(e, psi), e, rnd) for e in evaluated]
            heapq.heapify(heap)
        while True:
            negd, e, stamp = heap[0]
            if stamp == rnd:
                heapq.heappop(heap)
                return e, evaluated, -negd
            d = ctx.delta(e, psi)
            evaluated.append(e)
            heapq.heapreplace(heap, (-d, e, rnd))


class AdaptiveStochasticGreedyPolicy(AdaptiveGreedyPolicy):
    """Each round: subsample the unselected items, select the best of the sample.

    The sample has size ceil((n/k) * ln(1/eps)) (clamped to the pool), drawn
    uniformly without replacement.  Selection happens every round even when
    the best marginal value is zero.
    """

    name = "asg"
    randomized = True

    def __init__(self, k: int, epsilon: float):
        if _check_int(k, "k") < 1:
            raise ValidationError("k must be >= 1")
        super().__init__(k)
        self.epsilon = _check_epsilon(epsilon)

    def params(self):
        return {"k": self.k, "eps": self.epsilon}


class RandomPolicy(AdaptiveGreedyPolicy):
    """Selects k distinct items uniformly at random, ignoring observations.

    The best of a one-item sample, which needs no Delta.
    """

    name = "random"
    randomized = True

    def _sample_size(self, pool_size, group_size, limit):
        return 1

    def decide(self, ctx, psi, cstate, scratch):
        pool, _ = self._candidates(ctx, psi, cstate)
        if not pool:
            return None
        e = ctx.rng_for(psi).choice(pool)
        return e, (e,), None

    def decision_distribution(self, ctx, psi, cstate):
        pool, _ = self._candidates(ctx, psi, cstate)
        return [(e, 1.0 / len(pool)) for e in pool]


class LocallyGreedyPolicy(_BestOfSamplePolicy):
    """Greedy within each group, groups processed in the given order.

    Each within-group selection conditions on everything observed so far,
    across all groups.
    """

    name = "local"

    def __init__(self, groups, limits, order=None):
        given = PartitionConstraint.of(groups, limits)
        self.limits = given.remaining       # the fixed budgets d_i, which sample sizes read
        # Budgets min(d_i, |B_i|), so a group's pool empties only with its budget.
        self.constraint = PartitionConstraint(
            given.groups, tuple(map(min, self.limits, map(len, given.groups))))
        b = len(self.constraint.groups)
        self.order = tuple(_check_int(i, "order item")
                           for i in (order if order is not None else range(b)))
        if sorted(self.order) != list(range(b)):
            raise ValidationError("order must be a permutation of the group indices")

    def params(self):
        return {"order": ":".join(map(str, self.order))}

    def fresh_constraint(self, n):
        self.constraint.check_items(n)
        return self.constraint


class GeneralizedASGPolicy(LocallyGreedyPolicy):
    """Locally greedy with per-group subsampling of candidates.

    Within group i, each selection draws ceil((|B_i|/d_i) * ln(1/eps))
    candidates (clamped to the group's unselected pool) uniformly without
    replacement and takes the best of the draw.
    """

    name = "gasg"
    randomized = True

    def __init__(self, groups, limits, epsilon: float, order=None):
        super().__init__(groups, limits, order)
        self.epsilon = _check_epsilon(epsilon)
        if any(d < 1 for d in self.limits):
            raise ValidationError("every group budget must be >= 1")

    def params(self):
        return {"eps": self.epsilon, **super().params()}


class ConcatPolicy(Policy):
    """Runs `first`, then runs `second` from an empty observation history.

    The second phase ignores everything the first observed; re-selections
    collapse in the union, and the final utility is f(union, phi).
    """

    name = "concat"

    def __init__(self, first: Policy, second: Policy):
        self.first = first
        self.second = second

    def params(self):
        return {"first": self.first.describe(), "second": self.second.describe()}

    def decision_widths(self, n):
        """first's widths, then second's: its selections follow first's."""
        return self.first.decision_widths(n) + self.second.decision_widths(n)

    def run_on(self, ctx, phi):
        ctx1 = EvalContext(ctx.f, ctx.prior, seed="%s/1" % ctx.seed)
        ctx2 = EvalContext(ctx.f, ctx.prior, seed="%s/2" % ctx.seed)
        t1 = self.first.run_on(ctx1, phi)
        t2 = self.second.run_on(ctx2, phi)
        selected = tuple(sorted(set(t1.selected) | set(t2.selected)))
        return PolicyTrace(t1.steps + t2.steps, selected, ctx.f.value(selected, phi))


# ---------------------------------------------------------------------------
# constructors mirroring the public operation names


def empty_policy() -> Policy:
    return EmptyPolicy()


def adaptive_greedy(k: int, variant: str = "naive") -> Policy:
    if variant not in ("naive", "lazy"):
        raise ValidationError("variant must be 'naive' or 'lazy'")
    return LazyGreedyPolicy(k) if variant == "lazy" else AdaptiveGreedyPolicy(k)


def adaptive_stochastic_greedy(k: int, epsilon: float) -> Policy:
    return AdaptiveStochasticGreedyPolicy(k, epsilon)


def locally_greedy(groups, limits, order=None) -> Policy:
    return LocallyGreedyPolicy(groups, limits, order)


def generalized_asg(groups, limits, epsilon: float, order=None) -> Policy:
    return GeneralizedASGPolicy(groups, limits, epsilon, order)


def concat(pi1: Policy, pi2: Policy) -> Policy:
    return ConcatPolicy(pi1, pi2)


def random_policy(k: int) -> Policy:
    return RandomPolicy(k)
