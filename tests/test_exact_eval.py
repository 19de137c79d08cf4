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

import pytest

from adasub import (
    CardinalityConstraint,
    CoverageUtility,
    ExactModeUnavailable,
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
    PartitionConstraint,
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


def reference_value(f, prior, psi, cstate, candidate_sets):
    """E[final f] when each history picks the best-Delta item of a uniformly
    drawn candidate set (ties to the smallest item).

    candidate_sets(psi, cstate) lists the equally likely sets; [] stops.
    """
    sets = candidate_sets(psi, cstate)
    if not sets:
        return sum(p * f.value(psi.domain(), phi) for phi, p in prior.support(psi))
    total = 0.0
    for cand in sets:
        delta = {e: explicit_delta(f, prior, psi, e) for e in cand}
        best = min(cand, key=lambda e: (-delta[e], e))
        nxt = cstate.after(best)
        total += sum(p * reference_value(f, prior, psi.with_observation(best, o), nxt,
                                         candidate_sets)
                     for o, p in prior.item_posterior(best, psi))
    return total / len(sets)


def asg_sets(n, k, eps):
    """ASG's equally likely samples; eps=None is greedy, whose one candidate
    set is the whole pool."""
    def sets(psi, cstate):
        pool = [e for e in range(n) if e not in psi] if cstate.remaining else []
        if not pool:
            return []
        s = len(pool) if eps is None else sample_budget(len(pool), n, k, eps)
        return list(itertools.combinations(pool, s))
    return sets


def random_sets(n):
    def sets(psi, cstate):
        pool = [e for e in range(n) if e not in psi] if cstate.remaining else []
        return [(e,) for e in pool]
    return sets


def gasg_sets(groups, limits, eps, order):
    """GASG's equally likely samples; eps=None is locally greedy."""
    def sets(psi, cstate):
        for i in order:
            pool = [e for e in groups[i] if e not in psi]
            if cstate.remaining[i] and pool:
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
    ref = reference_value(f, prior, PSI_EMPTY, CardinalityConstraint(k),
                          asg_sets(n, k, eps))
    assert abs(asg - ref) <= 1e-12
    greedy = exact_policy_value(adaptive_greedy(k), f, prior)
    ref = reference_value(f, prior, PSI_EMPTY, CardinalityConstraint(k),
                          asg_sets(n, k, None))
    assert abs(greedy - ref) <= 1e-12
    rnd = exact_policy_value(random_policy(k), f, prior)
    ref = reference_value(f, prior, PSI_EMPTY, CardinalityConstraint(k), random_sets(n))
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
    cstate = PartitionConstraint.of(groups, limits)
    val = exact_policy_value(generalized_asg(groups, limits, eps, order), f, prior)
    ref = reference_value(f, prior, PSI_EMPTY, cstate, gasg_sets(groups, limits, eps, order))
    assert abs(val - ref) <= 1e-12
    val = exact_policy_value(locally_greedy(groups, limits, order), f, prior)
    ref = reference_value(f, prior, PSI_EMPTY, cstate, gasg_sets(groups, limits, None, order))
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
        cstate = pi.fresh_constraint(5)
        for seed in (0, 1, "x"):
            ctx = EvalContext(f, prior, seed=seed)
            assert pi.decide(ctx, psi, cstate, {})[0] == 0, pi.name
        assert pi.decision_distribution(EvalContext(f, prior), psi, cstate) == [(0, 1.0)]
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


def test_randomized_concat_has_no_exact_mode(utility_a, prior_a):
    pi = concat(random_policy(1), empty_policy())
    with pytest.raises(ExactModeUnavailable):
        expected_utility(utility_a, prior_a, pi)
    est, _ = expected_utility(utility_a, prior_a, pi, mode="mc", samples=200, seed=1)
    assert 0.0 <= est <= 2.0


def visited_histories(monkeypatch, pi, f, prior, seed=None):
    """Value of pi and the number of histories its exact evaluation expands."""
    seen = []
    inner = evaluation.HistoryRecursion.value

    def counting(rec, psi, cstate, scratch=None):
        if (psi.pairs, cstate.key()) not in rec.memo:
            seen.append((psi.pairs, cstate.key()))
        return inner(rec, psi, cstate, scratch)

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


def test_only_nodes_with_an_empty_scratch_are_memoized(monkeypatch):
    groups, limits = [[0, 1, 2], [3, 4, 5]], [2, 1]
    inst = generate_coverage(n=6, m=2, universe_size=6, density=0.35, seed=600,
                             groups=groups, limits=limits)
    f, prior = inst.utility(), inst.prior
    greedy = exact_policy_value(adaptive_greedy(3), f, prior)
    # Lazy greedy's heap is in its scratch from the root's decision on: the
    # root alone is memoized, and each branch must carry its own heap to
    # select greedy's items.
    for seed in (None, 0):
        value, rec = recursion_of(monkeypatch, adaptive_greedy(3, "lazy"), f, prior, seed)
        assert value == greedy
        assert list(rec.memo) == [((), ("card", 3))]
        assert (rec.nodes, rec.hits) == (15, 0)
    # ASG and GASG write nothing to their scratch, so their trees share nodes.
    for pi, hits in ((adaptive_stochastic_greedy(3, 0.3), 70),
                     (generalized_asg(groups, limits, 0.5), 4)):
        _, rec = recursion_of(monkeypatch, pi, f, prior)
        assert rec.hits == hits, pi.describe()
        assert len(rec.memo) == rec.nodes, pi.describe()


def test_history_bound_covers_every_evaluation(monkeypatch):
    for seed in range(6):
        groups, limits = [[0, 1, 2], [3, 4, 5]], [2, 1]
        inst = generate_coverage(n=6, m=2, universe_size=6, density=0.35, seed=600 + seed,
                                 groups=groups, limits=limits)
        policies = (adaptive_stochastic_greedy(3, 0.3), adaptive_stochastic_greedy(2, 0.5),
                    random_policy(3), adaptive_greedy(3), adaptive_greedy(3, "lazy"),
                    generalized_asg(groups, limits, 0.5), locally_greedy(groups, limits))
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


def reference_marginal(f, prior, psi, cstate, candidate_sets):
    """E[f(dom psi + selections) - f(dom psi) | psi] for a policy that starts
    from an empty history on each realization, averaged over every candidate
    set it may draw."""
    dom = psi.domain()

    def gain(phi, history, cstate):
        sets = candidate_sets(history, cstate)
        if not sets:
            union = tuple(sorted(set(dom) | set(history.domain())))
            return f.value(union, phi) - f.value(dom, phi)
        total = 0.0
        for cand in sets:
            delta = {e: explicit_delta(f, prior, history, e) for e in cand}
            best = min(cand, key=lambda e: (-delta[e], e))
            total += gain(phi, history.with_observation(best, phi[best]), cstate.after(best))
        return total / len(sets)

    return sum(p * gain(phi, PSI_EMPTY, cstate) for phi, p in prior.support(psi))


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
    cases = ((adaptive_stochastic_greedy(k, eps), CardinalityConstraint(k), asg_sets(n, k, eps)),
             (random_policy(k), CardinalityConstraint(k), random_sets(n)),
             (generalized_asg(groups, limits, eps, order),
              PartitionConstraint.of(groups, limits), gasg_sets(groups, limits, eps, order)))
    for pi, cstate, sets in cases:
        val = policy_marginal(f, prior, psi, pi)
        assert abs(val - reference_marginal(f, prior, psi, cstate, sets)) <= 1e-12, pi.name
        assert (policy_marginal(f, prior, PSI_EMPTY, pi)
                == exact_policy_value(pi, f, prior) - expected_set_value(f, prior, PSI_EMPTY))


def test_randomized_concat_has_no_exact_policy_marginal(utility_a, prior_a):
    pi = concat(random_policy(1), empty_policy())
    with pytest.raises(ExactModeUnavailable, match=r"use expected_utility\(mode='mc'\)$"):
        policy_marginal(utility_a, prior_a, PartialRealization.of({0: 1}), pi)
