"""Adaptive selection policies and the select-observe execution loop.

Every policy is an immutable descriptor (it keeps only its schedule per n);
all per-rollout mutable state lives in a scratch dict, empty when a rollout
starts (only lazy greedy writes to it), and in the EvalContext, which carries
each history's observed-item map and the pool of the group being served to
its child.  A policy's internal randomness is drawn from a stream derived
from (master seed, observation history), which makes rollouts reproducible
and lets the same seeded policy be evaluated exactly by recursion over its
decision tree.  Each policy owns its
constraint, fresh_constraint(n), and always runs under it, group by group in a
fixed order: its schedule(n), built once per n, names round r's group, so the
r-th selection (r = |psi|, every selected item being observed) may come only
from that group.  Group B_i with budget d_i gets min(d_i, |B_i|) rounds; a
cardinality budget k, as for greedy, lazy, ASG and random, is min(k, n)
rounds of one group of all n items.

Greedy, ASG, locally greedy and GASG select the smallest (-Delta(e|psi), id)
key of a uniform sample of the pool (the whole pool for the greedy two), and
lazy greedy's heap orders by that key, so ties go to the smallest id everywhere.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import EvalContext, PSI_EMPTY, PartialRealization, _check_int, _shown
from .errors import PolicyViolation, ValidationError


# ---------------------------------------------------------------------------
# constraints


@dataclass(frozen=True)
class CardinalityConstraint:
    """At most `remaining` selections."""

    remaining: int

    def __post_init__(self):
        if type(self.remaining) is not int:
            raise ValidationError("budget must be an integer, got %r" % (self.remaining,))
        if self.remaining < 0:
            raise ValidationError("negative budget")

    def total_budget(self) -> int:
        return self.remaining


@dataclass(frozen=True)
class PartitionConstraint:
    """Disjoint item groups, group i with the selection budget remaining[i].

    Items outside every group are never selectable.
    """

    groups: tuple
    remaining: tuple

    def __post_init__(self):
        items = [_check_int(e, "group item") for g in self.groups for e in g]
        limits = [_check_int(d, "group limit") for d in self.remaining]
        seen = set()
        for e in items:
            if e in seen:
                raise ValidationError("item %s in two groups" % _shown(e))
            seen.add(e)
        if len(limits) != len(self.groups):
            raise ValidationError("one budget per group required")
        if any(d < 0 for d in limits):
            raise ValidationError("negative group budget")
        object.__setattr__(self, "_span", (min(seen, default=0), max(seen, default=0)))

    def check_items(self, n: int):
        """Raise ValidationError unless every group item is an item in [0, n)."""
        bad = [e for e in self._span if not 0 <= e < n]     # the smallest and largest item
        if bad:
            raise ValidationError("group item %s is not an item in [0, %d)" % (_shown(bad[0]), n))

    @classmethod
    def of(cls, groups: Sequence[Sequence[int]], limits: Sequence[int]) -> "PartitionConstraint":
        # a group holding a non-int stays as given, for __post_init__ to refuse
        return cls(tuple(tuple(sorted(g)) if all(type(e) is int for e in g) else g
                         for g in map(tuple, groups)), tuple(limits))

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
    """Decision procedure: observation history -> item or stop.

    Round |psi| may select only from its group in schedule(n), which serves
    the groups of fresh_constraint(n) in `order` (group-index order unless a
    policy sets one).
    """

    name = "policy"
    # A randomized policy defines decision_distribution, the law of its choice
    # that unseeded exact evaluation averages over; the law gets no scratch,
    # so only a deterministic policy may keep state there.
    randomized = False
    order = None        # serve the groups in index order
    _schedules = None

    def params(self) -> dict:
        return {}

    def describe(self) -> str:
        inner = ",".join("%s=%s" % (k, v) for k, v in sorted(self.params().items()))
        return "%s(%s)" % (self.name, inner)

    def decide(self, ctx: EvalContext, psi: PartialRealization, scratch):
        """None to stop, or (item, candidates, Delta): the choice, the items drawn or
        priced (maybe ctx's pool: copy before advance) and the choice's Delta or None."""
        raise NotImplementedError

    def schedule(self, n: int) -> tuple:
        """Each round's (group, limit, pool size) on n items, built once per n.

        fresh_constraint(n) is served group by group in `order`: min(d_i,
        |B_i|) rounds of B_i, as one sorted tuple, its pool shrinking by one a
        round, where d_i is the group's budget, the limit sample sizes read; a
        cardinality budget k is min(k, n) rounds of range(n), limit k.
        """
        schedules = self._schedules
        if schedules is None:
            schedules = self._schedules = {}
        rounds = schedules.get(n)
        if rounds is None:
            c = self.fresh_constraint(n)
            if isinstance(c, CardinalityConstraint):
                groups, limits = (range(n),), (c.remaining,)
            else:
                groups, limits = [tuple(sorted(g)) for g in c.groups], c.remaining
            rounds = schedules[n] = tuple(
                (g, limits[i], len(g) - j)
                for i in (range(len(groups)) if self.order is None else self.order)
                for g in (groups[i],) for j in range(min(limits[i], len(g))))
        return rounds

    def decision_widths(self, n: int) -> list:
        """Upper bounds, one per selection from the empty history on, on how
        many items the policy may choose there (its law's length if randomized):
        1 for a deterministic policy's decide, and for a randomized one's law
        its round's pool, the unobserved items of the group it may select from."""
        return [pool if self.randomized else 1 for _, _, pool in self.schedule(n)]

    def run_on(self, ctx: EvalContext, phi) -> PolicyTrace:
        """Select-observe loop on a fixed realization, under the policy's own
        constraint; selections are irrevocable.  Each history is the context's
        current one, advanced from its parent.  phi must give each of the n
        items an integer state in [0, m)."""
        n, m = ctx.n, ctx.prior.m
        if len(phi) != n:
            raise ValidationError("realization has %d states, expected %d" % (len(phi), n))
        psi = PSI_EMPTY
        scratch = {}
        steps = []
        while True:
            decision = self.decide(ctx, psi, scratch)
            if decision is None:
                break
            e, candidates, delta = decision
            _check_choice(self, e, ctx.observed(psi), n)
            o = phi[e]
            if type(o) is not int or not 0 <= o < m:
                raise ValidationError("realization gives item %d state %s, not an integer "
                                      "in [0, %d)" % (e, _shown(o), m))
            steps.append(TraceStep(tuple(candidates), e, o, delta))
            psi = ctx.advance(psi, e, o)
        selected = psi.domain()
        return PolicyTrace(tuple(steps), selected, ctx.f.value(selected, phi))


def _check_choice(pi: Policy, e: int, seen, n: int):
    """Raise PolicyViolation unless e is an int item in [0, n) outside seen, the
    observed map of psi, and in round |psi|'s group of pi.schedule(n)."""
    if type(e) is not int or not 0 <= e < n:
        raise PolicyViolation("%s selected unknown item %s" % (pi.name, _shown(e)))
    if e in seen:
        raise PolicyViolation("%s re-selected item %d" % (pi.name, e))
    rounds = pi.schedule(n)
    if len(seen) < len(rounds):
        group = rounds[len(seen)][0]
        j = bisect_left(group, e)       # a sorted group: O(log |B_i|)
        if j < len(group) and group[j] == e:
            return
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

    def decide(self, ctx, psi, scratch):
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

    def decide(self, ctx, psi, scratch):
        for e in self.sequence:
            if e not in psi:
                return e, (), None
        return None


class _BestOfSamplePolicy(Policy):
    """Selects the best-Delta item of a uniform sample of a group's pool.

    Round |psi| serves its group in the schedule and draws _sample_size items,
    without replacement, from that group's pool, which the context carries
    (EvalContext.pool); the best item has the smallest (-Delta, id) key.  With
    no epsilon the sample is the whole pool, which is greedy: decide draws
    nothing (each history has its own stream, so no other choice changes) and
    decision_distribution puts mass 1 on rank 0.  Groups are disjoint, so the
    j-th round in group i has a pool of |B_i| - j items whatever was observed:
    widths and caps are arithmetic.
    """

    epsilon = None

    def _sample_size(self, pool_size: int, group_size: int, limit: int) -> int:
        """ceil((|B_i|/d_i) * ln(1/eps)) clamped to the pool; the pool with no epsilon."""
        if self.epsilon is None:
            return pool_size
        return sample_budget(pool_size, group_size, limit, self.epsilon)

    def _candidates(self, ctx, psi):
        """(round |psi|'s group's pool at psi in id order, sample size), or ([], 0)
        to stop: past the schedule, or on an empty pool, which only a history off
        the schedule has; the pool is ctx's own list."""
        rounds, r = self.schedule(ctx.n), len(psi)
        if r < len(rounds):
            group, limit, _ = rounds[r]
            pool = ctx.pool(psi, group)
            if pool:
                return pool, self._sample_size(len(pool), len(group), limit)
        return [], 0

    def decide(self, ctx, psi, scratch):
        pool, s = self._candidates(ctx, psi)
        if not pool:
            return None
        candidates = pool if s == len(pool) else _draw(ctx.rng_for(psi), pool, s)
        best = best_d = None
        for e in candidates:    # in id order, so a tie keeps the smaller id
            d = ctx.delta(e, psi)
            if best is None or d > best_d:
                best, best_d = e, d
        return best, candidates, best_d

    def decision_distribution(self, ctx, psi):
        """Exact law of decide's choice over the uniform draw.

        With the pool ranked by (-Delta, id), the sample's best is rank j iff
        the sample holds rank j and s-1 of the N-1-j ranks after it:
        probability C(N-1-j, s-1) / C(N, s).
        """
        pool, s = self._candidates(ctx, psi)
        if not pool:
            return []
        ranked = sorted(pool, key=lambda e: (-ctx.delta(e, psi), e))
        size = len(ranked)
        draws = math.comb(size, s)
        return [(e, math.comb(size - 1 - j, s - 1) / draws)
                for j, e in enumerate(ranked[:size - s + 1])]

    def decision_widths(self, n):
        """The law's length, pool size - s + 1, at each round."""
        return [pool - self._sample_size(pool, len(g), d) + 1 for g, d, pool in self.schedule(n)]

    def oracle_call_cap(self, n: int) -> int:
        """The paper's cap on one rollout's Delta calls: in each group i, the
        pools |B_i|, |B_i|-1, ... with no epsilon; else each round's sample of
        ceil((|B_i|/d_i) * ln(1/eps)) items, clamped to |B_i|."""
        return sum(pool if self.epsilon is None else self._sample_size(len(g), len(g), d)
                   for g, d, pool in self.schedule(n))


class AdaptiveGreedyPolicy(_BestOfSamplePolicy):
    """Classic adaptive greedy: argmax Delta over all unselected items each round,
    under the cardinality budget k (sample sizes read k)."""

    name = "greedy"

    def __init__(self, k: int):
        if _check_int(k, "k") < 0:
            raise ValidationError("k must be >= 0")
        self.k = k

    def params(self):
        return {"k": self.k}

    def fresh_constraint(self, n):
        return CardinalityConstraint(self.k)


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

    def decide(self, ctx, psi, scratch):
        # Only round 1 reads the pool; in round j + 1 (|psi| = j) the heap holds
        # the n - j items not yet chosen, at least one while the schedule's
        # min(k, n) rounds last, so only its end stops.
        rnd = len(psi) + 1
        if rnd > len(self.schedule(ctx.n)):
            return None
        heap = scratch.get("heap")
        evaluated = []
        if heap is None:    # every entry is fresh, so the first pop is chosen
            evaluated, _ = self._candidates(ctx, psi)
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

    def decide(self, ctx, psi, scratch):
        pool, _ = self._candidates(ctx, psi)
        if not pool:
            return None
        e = ctx.rng_for(psi).choice(pool)
        return e, (e,), None

    def decision_distribution(self, ctx, psi):
        pool, _ = self._candidates(ctx, psi)
        return [(e, 1.0 / len(pool)) for e in pool]


class LocallyGreedyPolicy(_BestOfSamplePolicy):
    """Greedy within each group, groups processed in the given order.

    Each within-group selection conditions on everything observed so far,
    across all groups.
    """

    name = "local"

    def __init__(self, groups, limits, order=None):
        self.constraint = PartitionConstraint.of(groups, limits)
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
        if any(d < 1 for d in self.constraint.remaining):
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
