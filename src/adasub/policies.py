"""Adaptive selection policies and the select-observe execution loop.

Every policy is an immutable descriptor; all per-rollout mutable state lives
in a scratch dict, empty when a rollout starts (only lazy greedy writes to it),
and in the EvalContext, which carries each history's pool and observed-item
map to its child.  A policy's internal randomness is drawn from a stream
derived from (master seed, observation history), which makes rollouts
reproducible and lets the same seeded policy be evaluated exactly by
recursion over its decision tree.  Each policy owns its constraint,
fresh_constraint(n) (cardinality k for greedy, lazy, ASG and random; the
partition matroid for locally greedy and GASG), and always runs under it.

Greedy, ASG, locally greedy and GASG select the smallest (-Delta(e|psi), id)
key of a uniform sample of the pool (the whole pool for the greedy two), and
lazy greedy's heap orders by that key, so ties go to the smallest id everywhere.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .core import EvalContext, PSI_EMPTY, PartialRealization, _check_int
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

    def exhausted(self) -> bool:
        return self.remaining == 0

    def key(self):
        return ("card", self.remaining)

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
                    raise ValidationError("item %d in two groups" % e)
                seen.add(e)
        if len(self.remaining) != len(self.groups):
            raise ValidationError("one budget per group required")
        if any(d < 0 for d in self.remaining):
            raise ValidationError("negative group budget")

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

    def key(self):
        return ("part", self.remaining)

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
    supports_tree_eval = True

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
                raise ValidationError("realization gives item %d state %r, not an integer "
                                      "in [0, %d)" % (e, o, m))
            steps.append(TraceStep(tuple(candidates), e, o, delta))
            psi = ctx.advance(psi, e, o)
            cstate = cstate.after(e)
        selected = psi.domain()
        return PolicyTrace(tuple(steps), selected, ctx.f.value(selected, phi))


def _check_choice(pi: Policy, e: int, seen, cstate, n: int):
    """Raise PolicyViolation unless e is an unseen item in [0, n) that cstate allows."""
    if not 0 <= e < n:
        raise PolicyViolation("%s selected unknown item %d" % (pi.name, e))
    if e in seen:
        raise PolicyViolation("%s re-selected item %d" % (pi.name, e))
    if not cstate.can_select(e):
        raise PolicyViolation("%s selected infeasible item %d" % (pi.name, e))


def run_policy(pi: Policy, f, prior, phi, seed=0, delta_cache=None) -> PolicyTrace:
    """Execute one rollout of pi on realization phi and return its trace."""
    ctx = EvalContext(f, prior, seed=seed, delta_cache=delta_cache)
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


class _BestOfSamplePolicy(Policy):
    """Selects the best-Delta item of a uniform sample drawn from a pool.

    Subclasses say which pool (_sample_space) and, through _sample_size, how
    large a sample; the draw is without replacement, and the best item has
    the smallest (-Delta, id) key.  The default sample is the whole pool, which
    is greedy: decide then draws nothing (each history has its own stream, so
    no other choice changes) and decision_distribution puts mass 1 on rank 0.
    """

    def _sample_size(self, pool_size: int, group_size: int, limit: int) -> int:
        return pool_size

    def _sample_space(self, seen: dict, pool: list, cstate, n: int):
        """(candidates in id order, sample size) under cstate at a history over
        n items that observed `seen` (item -> state) and left `pool` (id order);
        the candidates may be `pool` itself, and none stops."""
        raise NotImplementedError

    def decide(self, ctx, psi, cstate, scratch):
        pool, s = self._sample_space(ctx.observed(psi), ctx.pool(psi), cstate, ctx.n)
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
        pool, s = self._sample_space(ctx.observed(psi), ctx.pool(psi), cstate, ctx.n)
        if not pool:
            return []
        ranked = sorted(pool, key=lambda e: (-ctx.delta(e, psi), e))
        size = len(ranked)
        draws = math.comb(size, s)
        return [(e, math.comb(size - 1 - j, s - 1) / draws)
                for j, e in enumerate(ranked[:size - s + 1])]

    def decision_widths(self, n):
        """The law's length, pool size - s + 1, at each selection along one
        path from the empty history: pool sizes do not depend on which items
        were picked or observed, nor on f or the prior, so the walk observes
        each round's first candidate in state 0."""
        widths, seen, pool, cstate = [], {}, list(range(n)), self.fresh_constraint(n)
        while True:
            candidates, s = self._sample_space(seen, pool, cstate, n)
            if not candidates:
                return widths
            widths.append(len(candidates) - s + 1)
            e = candidates[0]
            seen[e] = 0
            pool.remove(e)
            cstate = cstate.after(e)


class AdaptiveGreedyPolicy(_BestOfSamplePolicy):
    """Classic adaptive greedy: argmax Delta over all feasible items each round."""

    name = "greedy"

    def __init__(self, k: int):
        if _check_int(k, "k") < 0:
            raise ValidationError("k must be >= 0")
        self.k = k

    def params(self):
        return {"k": self.k}

    def fresh_constraint(self, n):
        return CardinalityConstraint(min(self.k, n))

    def oracle_call_cap(self, n: int) -> int:
        """The paper's cap on one rollout's Delta calls: pools n, n-1, ... in min(k, n) rounds."""
        return sum(n - r for r in range(min(self.k, n)))

    def _sample_space(self, seen, pool, cstate, n):
        if cstate.exhausted():
            return [], 0
        return pool, self._sample_size(len(pool), n, self.k)


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
        if cstate.exhausted():
            return None
        rnd = len(psi) + 1
        heap = scratch.get("heap")
        evaluated = []
        if heap is None:    # every entry is fresh, so the first pop is chosen
            evaluated = ctx.pool(psi)
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
        self.k = k
        self.epsilon = _check_epsilon(epsilon)

    def params(self):
        return {"k": self.k, "eps": self.epsilon}

    def oracle_call_cap(self, n):
        """k samples of ceil((n/k) * ln(1/eps)) items (clamped to n)."""
        return self.k * sample_budget(n, n, self.k, self.epsilon)

    def _sample_size(self, pool_size, group_size, limit):
        return sample_budget(pool_size, group_size, limit, self.epsilon)


class RandomPolicy(AdaptiveGreedyPolicy):
    """Selects k distinct items uniformly at random, ignoring observations.

    The best of a one-item sample, which needs no Delta.
    """

    name = "random"
    randomized = True

    def _sample_size(self, pool_size, group_size, limit):
        return 1

    def decide(self, ctx, psi, cstate, scratch):
        pool = [] if cstate.exhausted() else ctx.pool(psi)
        if not pool:
            return None
        e = ctx.rng_for(psi).choice(pool)
        return e, (e,), None

    def decision_distribution(self, ctx, psi, cstate):
        pool = [] if cstate.exhausted() else ctx.pool(psi)
        return [(e, 1.0 / len(pool)) for e in pool]


class LocallyGreedyPolicy(_BestOfSamplePolicy):
    """Greedy within each group, groups processed in the given order.

    Each within-group selection conditions on everything observed so far,
    across all groups.
    """

    name = "local"

    def __init__(self, groups, limits, order=None):
        self.constraint = PartitionConstraint.of(groups, limits)
        self.limits = self.constraint.remaining     # the fixed budgets d_i
        items = [e for g in self.constraint.groups for e in g]
        self._span = (min(items, default=0), max(items, default=0))     # smallest, largest
        b = len(self.constraint.groups)
        self.order = tuple(_check_int(i, "order item")
                           for i in (order if order is not None else range(b)))
        if sorted(self.order) != list(range(b)):
            raise ValidationError("order must be a permutation of the group indices")

    def params(self):
        return {"order": ":".join(map(str, self.order))}

    def fresh_constraint(self, n):
        lo, hi = self._span
        if lo < 0 or hi >= n:
            raise ValidationError("group item %d is not an item in [0, %d)"
                                  % (lo if lo < 0 else hi, n))
        return self.constraint

    def oracle_call_cap(self, n: int) -> int:
        """Greedy's cap in each group i: pools |B_i|, |B_i|-1, ... in min(d_i, |B_i|) rounds."""
        return sum(sum(len(g) - j for j in range(min(d, len(g))))
                   for g, d in zip(self.constraint.groups, self.limits))

    def _sample_space(self, seen, pool, cstate, n):
        for i in self.order:
            if cstate.remaining[i] == 0:
                continue
            group = self.constraint.groups[i]
            pool = [e for e in group if e not in seen]
            if pool:
                return pool, self._sample_size(len(pool), len(group), self.limits[i])
        return [], 0


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

    def oracle_call_cap(self, n):
        """d_i samples of ceil((|B_i|/d_i) * ln(1/eps)) items in each group i."""
        return sum(d * sample_budget(len(g), len(g), d, self.epsilon)
                   for g, d in zip(self.constraint.groups, self.limits))

    def _sample_size(self, pool_size, group_size, limit):
        return sample_budget(pool_size, group_size, limit, self.epsilon)


class ConcatPolicy(Policy):
    """Runs `first`, then runs `second` from an empty observation history.

    The second phase ignores everything the first observed; re-selections
    collapse in the union, and the final utility is f(union, phi).
    """

    name = "concat"
    supports_tree_eval = False

    def __init__(self, first: Policy, second: Policy):
        self.first = first
        self.second = second
        self.randomized = first.randomized or second.randomized

    def params(self):
        return {"first": self.first.describe(), "second": self.second.describe()}

    def run_on(self, ctx, phi):
        ctx1 = EvalContext(ctx.f, ctx.prior, seed="%s/1" % ctx.seed,
                           delta_cache=ctx.delta_cache)
        ctx2 = EvalContext(ctx.f, ctx.prior, seed="%s/2" % ctx.seed,
                           delta_cache=ctx.delta_cache)
        t1 = self.first.run_on(ctx1, phi)
        t2 = self.second.run_on(ctx2, phi)
        selected = tuple(sorted(set(t1.selected) | set(t2.selected)))
        return PolicyTrace(t1.steps + t2.steps, selected, ctx.f.value(selected, phi))

    def decide(self, ctx, psi, cstate, scratch):
        raise NotImplementedError("concatenation has no single decision stream")


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
