"""Exact evaluation over a policy's internal randomness.

exact_policy_value with no seed expands a randomized policy's
decision_distribution; a deterministic policy's tree runs its decide.
These tests hold it to a brute-force reference that, at every history,
averages the best-of-sample choice over every candidate set the sampler can
draw (itertools.combinations(pool, s), all equally likely), with no memo and
no rank formula.
"""

import itertools
import math
import random

import pytest

from adasub import (
    CardinalityConstraint,
    CoverageUtility,
    ExplicitPrior,
    IndependentPrior,
    InstanceTooLarge,
    PSI_EMPTY,
    PartialRealization,
    adaptive_greedy,
    adaptive_stochastic_greedy,
    concat,
    empty_policy,
    exact_policy_value,
    expected_set_value,
    expected_utility,
    generalized_asg,
    generate_coverage,
    locally_greedy,
    policy_marginal,
    random_policy,
    run_policy,
)
from adasub import evaluation
from adasub.core import EvalContext
from adasub.evaluation import EXACT_MAX_HISTORIES, exact_history_bound
from adasub.policies import (
    FixedSequencePolicy,
    Policy,
    RandomPolicy,
    _BestOfSamplePolicy,
    sample_budget,
)


def explicit_delta(f, prior, psi, e):
    """Sum_o p(o | psi) * (f(dom + e) - f(dom)), two evaluations per state."""
    dom = psi.domain()
    fixed = psi.as_dict()
    total = 0.0
    for o, p in prior.item_posterior(e, psi):
        states = dict(fixed)
        states[e] = o
        total += p * (f.value(dom + (e,), states) - f.value(dom, fixed))
    return total


def reference_value(f, prior, psi, candidate_sets):
    """E[final f] when each history picks the best-Delta item of a uniformly
    drawn candidate set (ties to the smallest item).

    candidate_sets(psi) lists the equally likely sets; [] stops.  Each set
    counts the budget psi has used itself: every selected item is observed.
    """
    sets = candidate_sets(psi)
    if not sets:
        return sum(p * f.value(psi.domain(), phi) for phi, p in prior.support(psi))
    total = 0.0
    for cand in sets:
        delta = {e: explicit_delta(f, prior, psi, e) for e in cand}
        best = min(cand, key=lambda e: (-delta[e], e))
        total += sum(p * reference_value(f, prior, psi.with_observation(best, o), candidate_sets)
                     for o, p in prior.item_posterior(best, psi))
    return total / len(sets)


def asg_sets(n, k, eps):
    """ASG's equally likely samples while |dom psi| < k; eps=None is greedy,
    whose one candidate set is the whole pool."""
    def sets(psi):
        pool = [e for e in range(n) if e not in psi] if len(psi.domain()) < k else []
        if not pool:
            return []
        s = len(pool) if eps is None else sample_budget(len(pool), n, k, eps)
        return list(itertools.combinations(pool, s))
    return sets


def random_sets(n, k):
    def sets(psi):
        pool = [e for e in range(n) if e not in psi] if len(psi.domain()) < k else []
        return [(e,) for e in pool]
    return sets


def gasg_sets(groups, limits, eps, order):
    """GASG's equally likely samples from the first group in order with
    |dom psi ∩ B_i| < d_i and an unobserved item; eps=None is locally greedy."""
    def sets(psi):
        for i in order:
            pool = [e for e in groups[i] if e not in psi]
            if len(set(groups[i]) & set(psi.domain())) < limits[i] and pool:
                s = len(pool) if eps is None else sample_budget(len(pool), len(groups[i]),
                                                                limits[i], eps)
                return list(itertools.combinations(pool, s))
        return []
    return sets


def tied_instance():
    """Items 0 and 1 have identical rows; items 0, 1, 3 and 4 all have
    Delta(e | {}) = 1 exactly, with different futures, so the smallest-id
    tie rule decides the value."""
    f = CoverageUtility((1.0, 1.0, 1.0, 1.0),
                        ((0b0001, 0b0010), (0b0001, 0b0010), (0b0100, 0b0011),
                         (0b0010, 0b1000), (0b0000, 0b0101)))
    prior = IndependentPrior([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5],
                              [0.25, 0.75], [0.5, 0.5]])
    return f, prior


def test_tied_instance_has_exact_ties():
    f, prior = tied_instance()
    deltas = [explicit_delta(f, prior, PSI_EMPTY, e) for e in range(5)]
    assert deltas == [1.0, 1.0, 1.5, 1.0, 1.0]


def cardinality_cases():
    for seed in range(12):
        n = 5 + seed % 2
        k = 2 + seed % 3 // 2
        eps = (0.5, 0.3, 0.1)[seed % 3]
        inst = generate_coverage(n=n, m=2 + (seed % 4 == 3), universe_size=6,
                                 density=0.35, seed=300 + seed, k=k)
        yield "coverage-%d" % seed, inst.utility(), inst.prior, n, k, eps
    f, prior = tied_instance()
    for k, eps in ((2, 0.5), (2, 0.3), (3, 0.5)):
        yield "tied", f, prior, 5, k, eps


@pytest.mark.parametrize("name,f,prior,n,k,eps", list(cardinality_cases()))
def test_asg_and_random_match_the_reference(name, f, prior, n, k, eps):
    asg = exact_policy_value(adaptive_stochastic_greedy(k, eps), f, prior)
    ref = reference_value(f, prior, PSI_EMPTY, asg_sets(n, k, eps))
    assert abs(asg - ref) <= 1e-12
    greedy = exact_policy_value(adaptive_greedy(k), f, prior)
    ref = reference_value(f, prior, PSI_EMPTY, asg_sets(n, k, None))
    assert abs(greedy - ref) <= 1e-12
    rnd = exact_policy_value(random_policy(k), f, prior)
    ref = reference_value(f, prior, PSI_EMPTY, random_sets(n, k))
    assert abs(rnd - ref) <= 1e-12


PARTITION_SHAPES = (
    (6, [[0, 1, 2], [3, 4, 5]], [1, 2], (1, 0)),
    (6, [[0, 1, 2, 3], [4, 5]], [2, 1], (0, 1)),
    (5, [[0, 1], [2, 3, 4]], [1, 1], (1, 0)),
    (6, [[0, 1], [2, 3], [4, 5]], [1, 1, 1], (2, 0, 1)),
)


def partition_cases():
    for seed in range(10):
        n, groups, limits, order = PARTITION_SHAPES[seed % len(PARTITION_SHAPES)]
        inst = generate_coverage(n=n, m=2, universe_size=6, density=0.35, seed=400 + seed,
                                 groups=groups, limits=limits)
        yield inst.utility(), inst.prior, groups, limits, order, (0.5, 0.2)[seed % 2]
    f, prior = tied_instance()
    yield f, prior, [[0, 1, 3, 4], [2]], [2, 1], (0, 1), 0.3


@pytest.mark.parametrize("f,prior,groups,limits,order,eps", list(partition_cases()))
def test_gasg_matches_the_reference(f, prior, groups, limits, order, eps):
    val = exact_policy_value(generalized_asg(groups, limits, eps, order), f, prior)
    ref = reference_value(f, prior, PSI_EMPTY, gasg_sets(groups, limits, eps, order))
    assert abs(val - ref) <= 1e-12
    val = exact_policy_value(locally_greedy(groups, limits, order), f, prior)
    ref = reference_value(f, prior, PSI_EMPTY, gasg_sets(groups, limits, None, order))
    assert abs(val - ref) <= 1e-12


def test_every_selection_path_breaks_ties_to_the_smallest_id():
    # Item 2 is the unique best at the empty history (Delta 1.5).  After
    # observing item 2 in state 0, items 0, 1 and 3 tie at Delta 1; within the
    # group [0, 1, 3, 4], items 0, 1, 3 and 4 tie at the empty history.
    f, prior = tied_instance()
    after_2 = PartialRealization.of({2: 0})
    assert [explicit_delta(f, prior, after_2, e) for e in (0, 1, 3, 4)] == [1.0, 1.0, 1.0, 0.5]
    groups, limits = [[0, 1, 3, 4], [2]], [2, 1]
    assert sample_budget(4, 5, 2, 0.1) == sample_budget(4, 4, 2, 0.1) == 4     # saturated
    cases = ((adaptive_greedy(2), after_2), (adaptive_greedy(2, "lazy"), after_2),
             (adaptive_stochastic_greedy(2, 0.1), after_2),
             (locally_greedy(groups, limits), PSI_EMPTY),
             (generalized_asg(groups, limits, 0.1), PSI_EMPTY))
    for pi, psi in cases:
        for seed in (0, 1, "x"):
            ctx = EvalContext(f, prior, seed=seed)
            assert pi.decide(ctx, psi, {})[0] == 0, pi.name
        assert pi.decision_distribution(EvalContext(f, prior), psi) == [(0, 1.0)]
    # lazy greedy meets the tie through its heap of stale bounds
    phi = (1, 1, 0, 1, 1)
    for pi in (adaptive_greedy(2), adaptive_greedy(2, "lazy"),
               adaptive_stochastic_greedy(2, 0.1)):
        assert run_policy(pi, f, prior, phi).selected == (0, 2), pi.name


def test_deterministic_policies_ignore_the_seed():
    for seed in range(4):
        inst = generate_coverage(n=6, m=2, universe_size=6, density=0.35, seed=500 + seed,
                                 groups=[[0, 1, 2], [3, 4, 5]], limits=[1, 2])
        policies = (adaptive_greedy(3), adaptive_greedy(3, "lazy"), empty_policy(),
                    FixedSequencePolicy([4, 1, 2]),
                    locally_greedy([[0, 1, 2], [3, 4, 5]], [1, 2], (1, 0)))
        for pi in policies:
            exact = exact_policy_value(pi, inst.utility(), inst.prior)
            for s in (0, 7, "x"):
                assert exact_policy_value(pi, inst.utility(), inst.prior, seed=s) == exact


def test_only_an_unseeded_randomized_policy_is_averaged_through_its_law(monkeypatch):
    # A deterministic policy's exact tree runs its decide, the code a rollout
    # runs; only an unseeded randomized policy's tree reads its law.
    groups, limits = [[0, 1, 2], [3, 4, 5]], [1, 2]
    inst = generate_coverage(n=6, m=2, universe_size=6, density=0.35, seed=501,
                             groups=groups, limits=limits)
    f, prior = inst.utility(), inst.prior
    randomized = (adaptive_stochastic_greedy(3, 0.3), generalized_asg(groups, limits, 0.5),
                  random_policy(3))
    laws = [exact_policy_value(pi, f, prior) for pi in randomized]

    def refuse(*args):
        raise AssertionError("not on this path")

    monkeypatch.setattr(_BestOfSamplePolicy, "decision_distribution", refuse)
    for pi in (adaptive_greedy(3), adaptive_greedy(3, "lazy"),
               locally_greedy(groups, limits, (1, 0)), FixedSequencePolicy([4, 1, 2]),
               empty_policy()):
        rollouts = sum(p * run_policy(pi, f, prior, phi).value for phi, p in prior.support())
        assert abs(exact_policy_value(pi, f, prior) - rollouts) <= 1e-12, pi.name
    monkeypatch.undo()
    for cls in (_BestOfSamplePolicy, RandomPolicy):
        monkeypatch.setattr(cls, "decide", refuse)
    assert [exact_policy_value(pi, f, prior) for pi in randomized] == laws


def test_randomized_concat_is_exact(utility_a, prior_a):
    # The second phase selects nothing, so the value is the first phase's.
    pi = concat(random_policy(1), empty_policy())
    exact = expected_utility(utility_a, prior_a, pi)
    assert exact == expected_utility(utility_a, prior_a, random_policy(1)) == 1.0
    est, se = expected_utility(utility_a, prior_a, pi, mode="mc", samples=200, seed=1)
    assert abs(est - exact) <= 4 * se


def visited_histories(monkeypatch, pi, f, prior, seed=None):
    """Value of pi and the number of histories its exact evaluation expands."""
    seen = []
    inner = evaluation.HistoryRecursion.value

    def counting(rec, psi, covered=None):
        if psi.pairs not in rec.memo:
            seen.append(psi.pairs)
            # a carried covered mask is the one psi's pairs cover
            assert covered is None or covered == rec.ctx.f.covered(psi), psi
        return inner(rec, psi, covered)

    monkeypatch.setattr(evaluation.HistoryRecursion, "value", counting)
    value = exact_policy_value(pi, f, prior, seed=seed)
    monkeypatch.undo()
    return value, len(seen)


def recursion_of(monkeypatch, pi, f, prior, seed=None):
    """(value, the HistoryRecursion) of an exact evaluation of pi."""
    made = []
    init = evaluation.HistoryRecursion.__init__

    def recording(rec, *args, **kwargs):
        init(rec, *args, **kwargs)
        made.append(rec)

    monkeypatch.setattr(evaluation.HistoryRecursion, "__init__", recording)
    value = exact_policy_value(pi, f, prior, seed=seed)
    monkeypatch.undo()
    (rec,) = made
    return value, rec


def test_every_node_is_memoized(monkeypatch):
    groups, limits = [[0, 1, 2], [3, 4, 5]], [2, 1]
    inst = generate_coverage(n=6, m=2, universe_size=6, density=0.35, seed=600,
                             groups=groups, limits=limits)
    f, prior = inst.utility(), inst.prior
    policies = (adaptive_greedy(3), adaptive_greedy(3, "lazy"),
                adaptive_stochastic_greedy(3, 0.3), random_policy(3),
                locally_greedy(groups, limits), generalized_asg(groups, limits, 0.5))
    recs = {}
    for pi in policies:
        # Each expanded node asks pi once, through decide or decision_distribution.
        calls = [0]
        for name in ("decide", "decision_distribution"):
            def counted(*args, method=getattr(pi, name)):
                calls[0] += 1
                return method(*args)
            setattr(pi, name, counted)
        for seed in (None, 0):
            before = calls[0]
            value, rec = recursion_of(monkeypatch, pi, f, prior, seed)
            assert calls[0] - before == len(rec.memo), (pi.describe(), seed)
            recs[pi.name, seed] = value, rec
    # Each node's decide starts from an empty scratch, so lazy greedy walks
    # greedy's tree: the same histories, hits and value bits.
    for seed in (None, 0):
        (greedy_value, greedy), (lazy_value, lazy) = recs["greedy", seed], recs["lazy", seed]
        assert list(lazy.memo) == list(greedy.memo)
        assert (len(lazy.memo), lazy.hits) == (len(greedy.memo), greedy.hits)
        assert lazy_value.hex() == greedy_value.hex()
    assert recs["asg", None][1].hits == 70
    assert recs["gasg", None][1].hits == 4


def test_each_memoized_node_has_the_constraint_its_domain_fixes(monkeypatch):
    # HistoryRecursion keys a node by psi alone, as |psi| names the round pi
    # serves: dom psi must hold, of each group, exactly as many items as the
    # schedule's first |psi| rounds serve (written out here, not read from
    # the policy: greedy-like policies' one group of 6 items for 3 rounds,
    # the partition's groups for 2 and 1).
    groups, limits = [[0, 1, 2], [3, 4, 5]], [2, 1]
    instances = (generate_coverage(n=6, m=2, universe_size=6, density=0.35, seed=600, k=3),
                 generate_coverage(n=6, m=2, universe_size=6, density=0.35, seed=601,
                                   groups=groups, limits=limits))
    everything = [range(6)] * 3
    policies = ((adaptive_greedy(3), everything), (adaptive_greedy(3, "lazy"), everything),
                (adaptive_stochastic_greedy(3, 0.3), everything),
                (random_policy(3), everything),
                (locally_greedy(groups, limits), [groups[0], groups[0], groups[1]]),
                (generalized_asg(groups, limits, 0.5), [groups[0], groups[0], groups[1]]),
                (FixedSequencePolicy([4, 0, 2]), everything))
    inner = evaluation.HistoryRecursion.value
    for inst in instances:
        for pi, rounds in policies:
            for seed in (None, 0):
                checked = []

                def checking(rec, psi, covered=None):
                    if psi.pairs not in rec.memo:
                        served = rounds[:len(psi)]
                        assert len(served) == len(psi), (pi.describe(), seed, psi)
                        for group in map(set, served):
                            assert (len(group & set(psi.domain()))
                                    == sum(set(g) == group for g in served)), \
                                (pi.describe(), seed, psi)
                        # coverage under an independent prior: every node
                        # carries the covered mask its pairs fix
                        assert covered == rec.ctx.f.covered(psi), (pi.describe(), seed, psi)
                        checked.append(psi.pairs)
                    return inner(rec, psi, covered)

                monkeypatch.setattr(evaluation.HistoryRecursion, "value", checking)
                _, rec = recursion_of(monkeypatch, pi, inst.utility(), inst.prior, seed)
                assert sorted(checked) == sorted(rec.memo), (pi.describe(), seed)
                assert any(len(pairs) == 3 for pairs in checked), (pi.describe(), seed)


def scan_rule(groups, limits, order, size, psi):
    """The group search that preceded the schedule: the first group in order
    with budget min(d_i, |B_i|) - |dom psi ∩ B_i| left and an unobserved item,
    its pool in id order and the sample size read at d_i; ([], 0) if none."""
    dom = set(psi.domain())
    for i in order:
        group = sorted(groups[i])
        pool = [e for e in group if e not in dom]
        if min(limits[i], len(group)) - len(dom & set(group)) > 0 and pool:
            return pool, size(len(pool), len(group), limits[i])
    return [], 0


def test_the_schedule_is_the_scan_rule_wherever_a_policy_can_be(monkeypatch):
    # At every memoized node of the exact trees, unseeded and seeded, and at
    # every step of seeded rollouts, round |psi|'s candidates are the ones the
    # old first-group-with-budget search found: greedy, lazy, ASG and random
    # at k <= n and k > n, and locally greedy and GASG with a permuted order
    # and a limit above its group's size.
    n = 6
    whole = lambda pool, size, d: pool
    one = lambda pool, size, d: 1
    sampled = lambda eps: lambda pool, size, d: sample_budget(pool, size, d, eps)
    cases = []
    for k in (3, 8):
        cases += [(adaptive_greedy(k), [range(n)], [k], [0], whole),
                  (adaptive_greedy(k, "lazy"), [range(n)], [k], [0], whole),
                  (adaptive_stochastic_greedy(k, 0.3), [range(n)], [k], [0], sampled(0.3)),
                  (random_policy(k), [range(n)], [k], [0], one)]
    for groups, limits, order in (([[0, 1, 2], [3, 4, 5]], [2, 4], [1, 0]),
                                  ([[4, 0], [5, 1, 3, 2]], [3, 1], [1, 0])):
        cases += [(locally_greedy(groups, limits, order), groups, limits, order, whole),
                  (generalized_asg(groups, limits, 0.5, order), groups, limits, order,
                   sampled(0.5))]
    inst = generate_coverage(n=n, m=2, universe_size=6, density=0.35, seed=602)
    f, prior = inst.utility(), inst.prior
    for pi, groups, limits, order, size in cases:
        def check(psi, where):
            expected = scan_rule(groups, limits, order, size, psi)
            assert pi._candidates(EvalContext(f, prior), psi) == expected, \
                (pi.describe(), where, psi)

        for seed in (None, 0):
            _, rec = recursion_of(monkeypatch, pi, f, prior, seed)
            for pairs in rec.memo:
                check(PartialRealization(pairs), seed)
        for r in range(4):
            phi = prior.sample(random.Random(r))
            psi = PSI_EMPTY
            for step in run_policy(pi, f, prior, phi, seed=r).steps:
                check(psi, "rollout %d" % r)
                psi = psi.with_observation(step.chosen, step.observed)
            check(psi, "rollout %d" % r)


def test_lazy_greedy_keeps_its_heap_across_one_rollouts_rounds():
    # bench_lazy.csv's rollout: greedy prices 40 + 39 + 38 + 37 = 154 items,
    # lazy greedy 85, because its stale bounds carry from round to round.
    inst = generate_coverage(40, 2, 16, 0.2, seed=2)
    stream = "bench|2|40|4"
    phi = inst.prior.sample(random.Random(stream))
    runs = []
    for pi in (adaptive_greedy(4), adaptive_greedy(4, "lazy")):
        f = inst.utility()
        runs.append((run_policy(pi, f, inst.prior, phi, seed=stream).selected,
                     f.delta_counter))
    (greedy_items, greedy_deltas), (lazy_items, lazy_deltas) = runs
    assert lazy_items == greedy_items
    assert (greedy_deltas, lazy_deltas) == (154, 85)


def test_history_bound_covers_every_evaluation(monkeypatch):
    for seed in range(6):
        groups, limits = [[0, 1, 2], [3, 4, 5]], [2, 1]
        inst = generate_coverage(n=6, m=2, universe_size=6, density=0.35, seed=600 + seed,
                                 groups=groups, limits=limits)
        policies = (adaptive_stochastic_greedy(3, 0.3), adaptive_stochastic_greedy(2, 0.5),
                    random_policy(3), adaptive_greedy(3), adaptive_greedy(3, "lazy"),
                    generalized_asg(groups, limits, 0.5), locally_greedy(groups, limits),
                    concat(adaptive_stochastic_greedy(2, 0.5), random_policy(1)),
                    concat(random_policy(1), concat(adaptive_greedy(1),
                                                    generalized_asg(groups, limits, 0.5))))
        for pi in policies:
            for s in (None, 0):
                _, visited = visited_histories(monkeypatch, pi, inst.utility(), inst.prior, s)
                bound = exact_history_bound(pi, inst.n, inst.prior.m, expand=s is None)
                assert visited <= bound, (pi.describe(), s)


def test_history_bound_is_tight_for_random(monkeypatch):
    # every item has both states with positive probability, and random may
    # choose any unselected item, so all C(n, j) * m^j histories occur
    prior = IndependentPrior([[0.3, 0.7], [0.5, 0.5], [0.6, 0.4], [0.2, 0.8], [0.9, 0.1]])
    f = CoverageUtility(weights=(1.0, 2.0, 0.5),
                        covers=((0b001, 0b011), (0b000, 0b110), (0b100, 0b101),
                                (0b010, 0b010), (0b000, 0b111)))
    pi = random_policy(3)
    _, visited = visited_histories(monkeypatch, pi, f, prior)
    assert visited == sum(math.comb(5, j) * 2 ** j for j in range(4))
    assert exact_history_bound(pi, 5, 2) == visited


class UniformLaw(Policy):
    """A randomized policy that defines no widths: its law is uniform over
    the unobserved items, for a cardinality budget of 3."""

    name = "uniform"
    randomized = True

    def fresh_constraint(self, n):
        return CardinalityConstraint(3)

    def decision_distribution(self, ctx, psi):
        pool = ctx.pool(psi) if len(psi) < 3 else []
        return [(e, 1.0 / len(pool)) for e in pool]


def test_a_randomized_policys_default_widths_bound_its_tree(monkeypatch):
    # The base widths were 1 per round for every policy, so this bound read
    # 1 + 6*2 + 15*4 + 20*8 with paths of one item sequence: 15 histories.
    prior = IndependentPrior([[0.3, 0.7], [0.5, 0.5], [0.6, 0.4], [0.2, 0.8], [0.9, 0.1],
                              [0.4, 0.6]])
    f = CoverageUtility(weights=(1.0, 2.0, 0.5),
                        covers=((0b001, 0b011), (0b000, 0b110), (0b100, 0b101),
                                (0b010, 0b010), (0b000, 0b111), (0b011, 0b100)))
    pi = UniformLaw()
    assert pi.decision_widths(6) == [6, 5, 4]
    _, visited = visited_histories(monkeypatch, pi, f, prior)
    assert visited == sum(math.comb(6, j) * 2 ** j for j in range(4)) == 233
    assert exact_history_bound(pi, 6, 2) >= visited
    assert exact_history_bound(pi, 6, 2, expand=False) == 15


def test_tree_over_the_cap_is_refused_before_any_work():
    inst = generate_coverage(n=30, m=2, universe_size=12, density=0.3, seed=1, k=5)
    for pi in (random_policy(5), adaptive_stochastic_greedy(5, 0.1)):
        f = inst.utility()
        assert exact_history_bound(pi, 30, 2) > EXACT_MAX_HISTORIES
        with pytest.raises(InstanceTooLarge, match="histories"):
            expected_utility(f, inst.prior, pi)
        assert f.delta_counter == 0 and f.f_counter == 0
        # a seeded policy's tree is a point mass per history: 2^5 leaves
        assert exact_policy_value(pi, inst.utility(), inst.prior, seed=3) > 0.0


def reference_chain(f, prior, psi, phases):
    """E[f(dom psi + every phase's selections) | psi] when each phase, a
    candidate_sets function, starts from an empty history once the phase
    before it stops, and at each of its histories picks the best-Delta item
    of a uniformly drawn candidate set (ties to the smallest item), each
    phase's draws independent of the others'."""
    deltas = {}     # a phase's Delta at its history, the same on every realization

    def run(phi, phases, selected):
        if not phases:
            return f.value(tuple(sorted(selected)), phi)
        candidate_sets, rest = phases[0], phases[1:]

        def walk(history):
            sets = candidate_sets(history)
            if not sets:
                return run(phi, rest, selected | set(history.domain()))
            total = 0.0
            for cand in sets:
                for e in cand:
                    if (history, e) not in deltas:
                        deltas[history, e] = explicit_delta(f, prior, history, e)
                best = min(cand, key=lambda e: (-deltas[history, e], e))
                total += walk(history.with_observation(best, phi[best]))
            return total / len(sets)

        return walk(PSI_EMPTY)

    return sum(p * run(phi, phases, set(psi.domain())) for phi, p in prior.support(psi))


def reference_marginal(f, prior, psi, phases):
    """E[f(dom psi + selections) - f(dom psi) | psi] for reference_chain's phases."""
    dom = psi.domain()
    return (reference_chain(f, prior, psi, phases)
            - sum(p * f.value(dom, phi) for phi, p in prior.support(psi)))


@pytest.mark.parametrize("seed", range(6))
def test_policy_marginal_matches_the_reference(seed):
    # psi's items stay in every policy's pool: a policy that does not see psi
    # may select them again, and then observes psi's states
    n, groups, limits, order = PARTITION_SHAPES[seed % len(PARTITION_SHAPES)]
    k, eps = 2 + seed % 2, (0.5, 0.3, 0.1)[seed % 3]
    inst = generate_coverage(n=n, m=2, universe_size=6, density=0.35, seed=700 + seed,
                             groups=groups, limits=limits)
    f, prior = inst.utility(), inst.prior
    psi = PartialRealization.of({1: prior.item_states(1)[-1], n - 2: prior.item_states(n - 2)[0]})
    cases = ((adaptive_stochastic_greedy(k, eps), asg_sets(n, k, eps)),
             (random_policy(k), random_sets(n, k)),
             (generalized_asg(groups, limits, eps, order), gasg_sets(groups, limits, eps, order)))
    for pi, sets in cases:
        val = policy_marginal(f, prior, psi, pi)
        assert abs(val - reference_marginal(f, prior, psi, [sets])) <= 1e-12, pi.name
        assert (policy_marginal(f, prior, PSI_EMPTY, pi)
                == exact_policy_value(pi, f, prior) - expected_set_value(f, prior, PSI_EMPTY))


def test_randomized_concat_policy_marginal_matches_the_reference(utility_a, prior_a):
    # At {0: 1} item 0 covers the whole universe, so every marginal there is 0.
    psi = PartialRealization.of({0: 0})
    pi = concat(random_policy(1), random_policy(1))
    phases = [random_sets(2, 1)] * 2
    val = policy_marginal(utility_a, prior_a, psi, pi)
    assert val == 0.375     # item 1, in state 1 half the time, unless both phases pick 0
    assert abs(val - reference_marginal(utility_a, prior_a, psi, phases)) <= 1e-12


def fixed_sets(sequence):
    def sets(psi):
        todo = [e for e in sequence if e not in psi]
        return [(todo[0],)] if todo and len(psi.domain()) < len(sequence) else []
    return sets


def concat_phases():
    """name -> (policy, its reference_chain phases) on 4 items: greedy, lazy,
    ASG, random, fixed and empty, every concatenation of two of them, and a
    concatenation nested in each phase."""
    n = 4
    single = {
        "greedy": (adaptive_greedy(2), [asg_sets(n, 2, None)]),
        "lazy": (adaptive_greedy(2, "lazy"), [asg_sets(n, 2, None)]),
        "asg": (adaptive_stochastic_greedy(2, 0.5), [asg_sets(n, 2, 0.5)]),
        "random": (random_policy(1), [random_sets(n, 1)]),
        "fixed": (FixedSequencePolicy([3, 0]), [fixed_sets([3, 0])]),
        "empty": (empty_policy(), [lambda psi: []]),
    }

    def joined(first, second):
        return concat(first[0], second[0]), first[1] + second[1]

    out = {(a, b): joined(single[a], single[b]) for a in single for b in single}
    asg, rnd, fixed = single["asg"], single["random"], single["fixed"]
    out["(asg, random), fixed"] = joined(joined(asg, rnd), fixed)
    out["random, (fixed, asg)"] = joined(rnd, joined(fixed, asg))
    return out


def test_concatenations_match_the_reference_and_the_seeded_rollouts():
    # Unseeded, each phase's law is averaged: the product-of-laws reference.
    # Seeded, each phase is one seeded policy: the support-weighted rollouts,
    # whose phases ConcatPolicy.run_on seeds "3/1" and "3/2".
    inst = generate_coverage(n=4, m=2, universe_size=6, density=0.35, seed=11, k=2)
    rng = random.Random(11)
    weighted = [(phi, rng.uniform(0.1, 1.0)) for phi, _ in inst.prior.support()]
    total = sum(w for _, w in weighted)
    correlated = ExplicitPrior([(phi, w / total) for phi, w in weighted])
    cases = concat_phases()
    for prior in (inst.prior, correlated):
        for psi in (PSI_EMPTY, PartialRealization.of({1: 1})):
            dom = psi.domain()
            for name, (pi, phases) in cases.items():
                f = inst.utility()
                if psi:
                    exact = policy_marginal(f, prior, psi, pi) + expected_set_value(f, prior, psi)
                else:
                    exact = exact_policy_value(pi, f, prior)
                assert abs(exact - reference_chain(f, prior, psi, phases)) <= 1e-12, name
                rollouts = 0.0
                for phi, p in prior.support(psi):
                    selected = set(dom) | set(run_policy(pi, f, prior, phi, seed=3).selected)
                    rollouts += p * f.value(tuple(sorted(selected)), phi)
                seeded = evaluation._policy_value(pi, f, prior, psi, 3)
                assert abs(seeded - rollouts) <= 1e-12, name


def test_seeded_concat_walks_one_tree_per_phase(monkeypatch):
    # 8.3377973004402 is the support-weighted value of the seeded rollouts,
    # sum(p * run_policy(pi, f, prior, phi, seed="s").value) over the 65,536
    # realizations, which take seconds.  Greedy's tree has 15 histories and
    # 8 stops, each the root of an ASG tree of at most 7 (fewer where ASG
    # selects an item greedy observed: its state is known).
    inst = generate_coverage(n=16, m=2, universe_size=8, density=0.3, seed=1, k=5)
    pi = concat(adaptive_greedy(3), adaptive_stochastic_greedy(2, 0.3))
    value, visited = visited_histories(monkeypatch, pi, inst.utility(), inst.prior, seed="s")
    assert abs(value - 8.3377973004402) <= 1e-12
    assert visited <= 15 + 8 * 7 <= exact_history_bound(pi, 16, 2, expand=False)


def test_concat_over_the_cap_is_refused_before_any_work():
    # Each phase alone is under the cap; together they may visit
    # 173,235 * 173,236 histories.
    inst = generate_coverage(n=16, m=2, universe_size=8, density=0.3, seed=1, k=5)
    asg = adaptive_stochastic_greedy(5, 0.1)
    assert exact_history_bound(asg, 16, 2) == 173_235 <= EXACT_MAX_HISTORIES
    assert exact_history_bound(concat(asg, asg), 16, 2) == 173_235 * 173_236
    f = inst.utility()
    with pytest.raises(InstanceTooLarge, match="histories"):
        exact_policy_value(concat(asg, asg), f, inst.prior)
    assert f.delta_counter == 0 and f.f_counter == 0


# Exact values (float.hex), Delta counts and f counts of six policies,
# unseeded and at seeds 0 and "x", pinned from the recursion that rebuilt
# each node from its pairs: a faster recursion must keep every one.  The
# coverage instances alternate cardinality and partition constraints; "z" is
# an independent prior with zero-mass states.
PIN_INSTANCES = (   # (n, m, universe size, density, seed, k, groups, limits)
    (6, 2, 6, 0.35, 600, 3, ((0, 1, 2), (3, 4, 5)), (2, 1)),
    (7, 3, 8, 0.3, 601, 3, ((0, 1, 2, 3), (4, 5, 6)), (2, 2)),
    (8, 2, 8, 0.3, 602, 4, ((0, 1, 2), (3, 4, 5), (6, 7)), (1, 1, 1)),
    (8, 2, 10, 0.25, 603, 4, ((0, 1, 2, 3), (4, 5, 6, 7)), (2, 2)),
    (5, 3, 6, 0.4, 604, 3, ((0, 1), (2, 3, 4)), (1, 2)),
    (8, 3, 12, 0.2, 605, 3, ((0, 1, 2), (3, 4, 5), (6, 7)), (1, 1, 1)),
)
PINNED = {
    (0, "greedy"):
        ("0x1.7ea3a6a66e5f2p+2 32 8", "0x1.7ea3a6a66e5f2p+2 32 8", "0x1.7ea3a6a66e5f2p+2 32 8"),
    (0, "lazy"):
        ("0x1.7ea3a6a66e5f2p+2 32 8", "0x1.7ea3a6a66e5f2p+2 32 8", "0x1.7ea3a6a66e5f2p+2 32 8"),
    (0, "asg"):
        ("0x1.7167bcca0c648p+2 174 74", "0x1.75936caac59dcp+2 21 8", "0x1.5b3b8bb0eaddcp+2 21 8"),
    (0, "random"):
        ("0x1.3992a4c205b50p+2 0 160", "0x1.200b3c959c948p+2 0 8", "0x1.421db186841eep+2 0 8"),
    (0, "local"):
        ("0x1.63f3afc18e96bp+2 19 8", "0x1.63f3afc18e96bp+2 19 8", "0x1.63f3afc18e96bp+2 19 8"),
    (0, "gasg"):
        ("0x1.63f3afc18e96ap+2 23 8", "0x1.63f3afc18e96ap+2 18 8", "0x1.63f3afc18e96bp+2 18 8"),
    (1, "greedy"):
        ("0x1.9753436cd49bep+2 70 27", "0x1.9753436cd49bep+2 70 27", "0x1.9753436cd49bep+2 70 27"),
    (1, "lazy"):
        ("0x1.9753436cd49bep+2 70 27", "0x1.9753436cd49bep+2 70 27", "0x1.9753436cd49bep+2 70 27"),
    (1, "asg"):
        ("0x1.7eee6d7070353p+2 737 639", "0x1.7c621fc834938p+2 39 27", "0x1.84f987ff628a4p+2 39 27"),
    (1, "random"):
        ("0x1.57a7657035a46p+2 0 945", "0x1.7245712b18be1p+2 0 27", "0x1.49f88764b75a7p+2 0 27"),
    (1, "local"):
        ("0x1.b134574d5e963p+2 94 81", "0x1.b134574d5e963p+2 94 81", "0x1.b134574d5e963p+2 94 81"),
    (1, "gasg"):
        ("0x1.a95e5cc845f63p+2 541 514", "0x1.aea0dc331c698p+2 80 81", "0x1.aad13cc2662f0p+2 80 81"),
    (2, "greedy"):
        ("0x1.f536e102b3122p+2 86 16", "0x1.f536e102b3122p+2 86 16", "0x1.f536e102b3122p+2 86 16"),
    (2, "lazy"):
        ("0x1.f536e102b3122p+2 86 16", "0x1.f536e102b3122p+2 86 16", "0x1.f536e102b3122p+2 86 16"),
    (2, "asg"):
        ("0x1.e407a1df26a16p+2 2204 785", "0x1.e64808e8badb0p+2 45 16", "0x1.d81c43ab2dafcp+2 45 16"),
    (2, "random"):
        ("0x1.9d36cfe5bd363p+2 0 1120", "0x1.bc35f729495aap+2 0 16", "0x1.c3f143b1b1412p+2 0 16"),
    (2, "local"):
        ("0x1.d2a19135f3727p+2 17 8", "0x1.d2a19135f3727p+2 17 8", "0x1.d2a19135f3727p+2 17 8"),
    (2, "gasg"):
        ("0x1.d2a19135f3727p+2 17 8", "0x1.d2a19135f3727p+2 17 8", "0x1.d2a19135f3727p+2 17 8"),
    (3, "greedy"):
        ("0x1.cf97e720eccd6p+2 86 16", "0x1.cf97e720eccd6p+2 86 16", "0x1.cf97e720eccd6p+2 86 16"),
    (3, "lazy"):
        ("0x1.cf97e720eccd6p+2 86 16", "0x1.cf97e720eccd6p+2 86 16", "0x1.cf97e720eccd6p+2 86 16"),
    (3, "asg"):
        ("0x1.bc4fb70733a42p+2 1720 605", "0x1.c50a6fd12f7e2p+2 45 16", "0x1.c2504950791cbp+2 45 16"),
    (3, "random"):
        ("0x1.780f3bf4a8813p+2 0 1120", "0x1.660acbdf6e1a6p+2 0 16", "0x1.872d07ce584dap+2 0 16"),
    (3, "local"):
        ("0x1.bf82d07c44160p+2 50 16", "0x1.bf82d07c44160p+2 50 16", "0x1.bf82d07c44160p+2 50 16"),
    (3, "gasg"):
        ("0x1.aaa0fd40e31b2p+2 396 241", "0x1.ad1257d3458cdp+2 30 16", "0x1.b016635617372p+2 30 16"),
    (4, "greedy"):
        ("0x1.7fefedb713fbdp+2 44 27", "0x1.7fefedb713fbdp+2 44 27", "0x1.7fefedb713fbdp+2 44 27"),
    (4, "lazy"):
        ("0x1.7fefedb713fbdp+2 44 27", "0x1.7fefedb713fbdp+2 44 27", "0x1.7fefedb713fbdp+2 44 27"),
    (4, "asg"):
        ("0x1.7f6c5fcbad3b2p+2 155 75", "0x1.7fefedb713fbep+2 39 27", "0x1.7e75f32d861c4p+2 39 27"),
    (4, "random"):
        ("0x1.6a8eb15ec9f08p+2 0 270", "0x1.78e29f967e286p+2 0 27", "0x1.7064323a95b46p+2 0 27"),
    (4, "local"):
        ("0x1.7fefedb713fbdp+2 29 27", "0x1.7fefedb713fbdp+2 29 27", "0x1.7fefedb713fbdp+2 29 27"),
    (4, "gasg"):
        ("0x1.7f71ef893a06ap+2 47 40", "0x1.7fefedb713fbcp+2 26 27", "0x1.7ee574f19a144p+2 26 27"),
    (5, "greedy"):
        ("0x1.951ad961dd63cp+2 83 27", "0x1.951ad961dd63cp+2 83 27", "0x1.951ad961dd63cp+2 83 27"),
    (5, "lazy"):
        ("0x1.951ad961dd63cp+2 83 27", "0x1.951ad961dd63cp+2 83 27", "0x1.951ad961dd63cp+2 83 27"),
    (5, "asg"):
        ("0x1.853536d0d71e1p+2 839 539", "0x1.7a20b4a7e1f02p+2 52 27", "0x1.7196f122c292ep+2 52 27"),
    (5, "random"):
        ("0x1.3232aa10da8afp+2 0 1512", "0x1.513379066f89cp+2 0 27", "0x1.30cfaeabe3261p+2 0 27"),
    (5, "local"):
        ("0x1.737af65ec683ep+2 30 27", "0x1.737af65ec683ep+2 30 27", "0x1.737af65ec683ep+2 30 27"),
    (5, "gasg"):
        ("0x1.737af65ec683ep+2 30 27", "0x1.737af65ec683ep+2 30 27", "0x1.737af65ec683ep+2 30 27"),
    ("z", "greedy"):
        ("0x1.9cccccccccccdp+1 9 3", "0x1.9cccccccccccdp+1 9 3", "0x1.9cccccccccccdp+1 9 3"),
    ("z", "lazy"):
        ("0x1.9cccccccccccdp+1 9 3", "0x1.9cccccccccccdp+1 9 3", "0x1.9cccccccccccdp+1 9 3"),
    ("z", "asg"):
        ("0x1.9547ae147ae15p+1 17 6", "0x1.9cccccccccccdp+1 8 3", "0x1.9cccccccccccdp+1 8 3"),
    ("z", "random"):
        ("0x1.4d5810624dd2fp+1 0 39", "0x1.8666666666666p+1 0 2", "0x1.8666666666666p+1 0 2"),
    ("z", "local"):
        ("0x1.8666666666666p+1 8 2", "0x1.8666666666666p+1 8 2", "0x1.8666666666666p+1 8 2"),
    ("z", "gasg"):
        ("0x1.8666666666666p+1 8 2", "0x1.8666666666666p+1 8 2", "0x1.8666666666666p+1 8 2"),
}


def _pinned_policies(k, groups, limits):
    return (adaptive_greedy(k), adaptive_greedy(k, "lazy"), adaptive_stochastic_greedy(k, 0.3),
            random_policy(k), locally_greedy(groups, limits), generalized_asg(groups, limits, 0.5))


def test_exact_values_and_counts_are_pinned():
    cases = []
    for i, (n, m, size, density, seed, k, groups, limits) in enumerate(PIN_INSTANCES):
        constraint = {"groups": groups, "limits": limits} if i % 2 else {"k": k}
        inst = generate_coverage(n, m, size, density, seed=seed, **constraint)
        cases += [(i, inst.utility, inst.prior, pi) for pi in _pinned_policies(k, groups, limits)]
    prior = IndependentPrior([[0.0, 0.3, 0.7], [0.5, 0.5, 0.0], [0.25, 0.0, 0.75],
                              [1.0, 0.0, 0.0], [0.4, 0.35, 0.25]])
    covers = ((0b0001, 0b0011, 0b1000), (0b0000, 0b0110, 0b1111), (0b0100, 0b0101, 0b0010),
              (0b1010, 0b0001, 0b0000), (0b0000, 0b1001, 0b0110))
    cases += [("z", lambda: CoverageUtility((1.0, 2.0, 0.5, 0.75), covers), prior, pi)
              for pi in _pinned_policies(2, ((0, 1), (2, 3, 4)), (1, 1))]
    assert len(cases) == len(PINNED) == 42
    for key, utility, prior, pi in cases:
        runs = []
        for seed in (None, 0, "x"):
            f = utility()
            value = exact_policy_value(pi, f, prior, seed=seed)
            runs.append("%s %d %d" % (value.hex(), f.delta_counter, f.f_counter))
        assert tuple(runs) == PINNED[key, pi.name], (key, pi.describe())


# Exact values (float.hex), Delta counts and f counts of the evaluations that
# acceptance criteria 1 and 4-6 make, on the first of their instances, pinned
# from runs that shared one cache of Delta values per instance (an option
# since removed): criterion 1's instance seeds 1000, 1001 and 1003 and the
# partition suite's 2000 and 2001.  Each tuple is unseeded, then at each
# listed seed.
ACCEPTANCE_PINNED = {
    (1000, "asg(eps=0.3,k=2)"): ("0x1.5eff611a3a7c6p+2 36 18", "0x1.61c7ec0411496p+2 12 4",
                                 "0x1.61f886c3598f4p+2 12 4"),
    (1000, "asg(eps=0.1,k=2)"): ("0x1.653e7872cb08ap+2 16 4",) * 3,
    (1000, "asg(eps=0.01,k=2)"): ("0x1.653e7872cb08ap+2 16 4",) * 3,
    (1001, "asg(eps=0.3,k=2)"): ("0x1.8ec15c9a6a474p+2 64 35", "0x1.9a1c470dd451ap+2 15 4",
                                 "0x1.9a1c470dd451ap+2 15 4"),
    (1001, "asg(eps=0.1,k=2)"): ("0x1.9a1c470dd451ap+2 22 4",) * 3,
    (1001, "asg(eps=0.01,k=2)"): ("0x1.9a1c470dd451ap+2 22 4",) * 3,
    (1003, "asg(eps=0.3,k=3)"): ("0x1.8c678696bee9cp+2 402 185", "0x1.99417581ba424p+2 28 8",
                                 "0x1.7139374c7e0a0p+2 28 8"),
    (1003, "asg(eps=0.1,k=3)"): ("0x1.9cce73e13e091p+2 84 10", "0x1.9c20261ad1ee3p+2 45 8",
                                 "0x1.a192944e32c51p+2 45 8"),
    (1003, "asg(eps=0.01,k=3)"): ("0x1.9c20261ad1ee3p+2 46 8",) * 3,
    (2000, "local(order=0:1)"): ("0x1.eb71e0ad6f20dp+2 23 8",) * 2,
    (2000, "gasg(eps=0.1,order=0:1)"): ("0x1.eb71e0ad6f20dp+2 23 8",) * 2,
    (2000, "gasg(eps=0.01,order=0:1)"): ("0x1.eb71e0ad6f20dp+2 23 8",) * 2,
    (2001, "local(order=0:1)"): ("0x1.e820b9770d0fep+2 50 16",) * 2,
    (2001, "gasg(eps=0.1,order=0:1)"): ("0x1.e820b9770d0fep+2 50 16",) * 2,
    (2001, "gasg(eps=0.01,order=0:1)"): ("0x1.e820b9770d0fep+2 50 16",) * 2,
}


def _acceptance_cases():
    """(instance seed, instance, policies, seeds), as the acceptance suites build them."""
    for i, n, k in ((0, 6, 2), (1, 8, 2), (3, 8, 3)):
        inst = generate_coverage(n=n, m=2, universe_size=8, density=0.3, seed=1000 + i, k=k)
        yield (1000 + i, inst, [adaptive_stochastic_greedy(k, eps) for eps in (0.3, 0.1, 0.01)],
               ("c1:0", "c1:1"))
    shapes = ((7, [[0, 1, 2], [3, 4, 5, 6]], [1, 2]), (8, [[0, 1, 2, 3], [4, 5, 6, 7]], [2, 2]))
    for i, (n, groups, limits) in enumerate(shapes):
        inst = generate_coverage(n=n, m=2, universe_size=8, density=0.3, seed=2000 + i,
                                 groups=groups, limits=limits)
        yield (2000 + i, inst, [locally_greedy(groups, limits)]
               + [generalized_asg(groups, limits, eps) for eps in (0.1, 0.01)], ("c5:0",))


def test_acceptance_evaluations_are_pinned():
    checked = 0
    for key, inst, policies, seeds in _acceptance_cases():
        for pi in policies:
            runs = []
            for seed in (None,) + seeds:
                f = inst.utility()
                value = exact_policy_value(pi, f, inst.prior, seed=seed)
                runs.append("%s %d %d" % (value.hex(), f.delta_counter, f.f_counter))
            assert tuple(runs) == ACCEPTANCE_PINNED[key, pi.describe()], (key, pi.describe())
            checked += len(runs)
    assert checked == 39
