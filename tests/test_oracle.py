import itertools
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
    ValidationError,
    ZeroProbabilityEvidence,
    adaptive_greedy,
    adaptive_stochastic_greedy,
    complementarity_counterexample,
    expected_set_value,
    expected_utility,
    generate_coverage,
    marginal_utility,
    monotonicity_counterexample,
    optimal_value,
    random_policy,
    restricted_optimal,
)
from adasub.oracle import VALUE_TOL, OracleCaps, RestrictedOracle, _dom_mask, _Restriction
from adasub.policies import PartitionConstraint
from adasub.verify import check_fully_adaptive_submodular, enumerate_partial_realizations


class TestOptimalValue:
    def test_zero_budget(self, utility_a, prior_a):
        res = optimal_value(utility_a, prior_a, CardinalityConstraint(0))
        assert res.value == pytest.approx(0.0)

    def test_instance_a_k2(self, utility_a, prior_a):
        res = optimal_value(utility_a, prior_a, CardinalityConstraint(2))
        assert res.value == pytest.approx(1.75)
        assert res.nodes_expanded >= 1

    def test_instance_a_k1(self, utility_a, prior_a):
        res = optimal_value(utility_a, prior_a, CardinalityConstraint(1))
        assert res.value == pytest.approx(1.5)
        assert res.optimal_first_actions == (0,)

    def test_caps_enforced(self, utility_a, prior_a):
        with pytest.raises(InstanceTooLarge):
            optimal_value(utility_a, prior_a, CardinalityConstraint(2),
                          caps=OracleCaps(max_items=1))

    def test_restricted_oracle_checks_size_once_and_budget_per_query(self, utility_a,
                                                                     prior_a):
        with pytest.raises(InstanceTooLarge, match="n=2 exceeds oracle cap 1"):
            RestrictedOracle(utility_a, prior_a, OracleCaps(max_items=1))
        with pytest.raises(InstanceTooLarge, match="m=2 exceeds oracle cap 1"):
            RestrictedOracle(utility_a, prior_a, OracleCaps(max_states=1))
        oracle = RestrictedOracle(utility_a, prior_a, OracleCaps(max_budget=1))
        with pytest.raises(InstanceTooLarge, match="budget 2 exceeds oracle cap 1"):
            oracle(PSI_EMPTY, (0, 1), 2)
        with pytest.raises(ValidationError, match="negative budget"):
            oracle(PSI_EMPTY, (0, 1), -1)
        assert oracle(PSI_EMPTY, (0, 1), 1) == pytest.approx(1.5)

    def test_dominates_every_policy(self):
        for seed in range(8):
            inst = generate_coverage(n=6, m=2, universe_size=8, density=0.3, seed=seed)
            opt = optimal_value(inst.utility(), inst.prior, CardinalityConstraint(3)).value
            for pi in (adaptive_greedy(3), adaptive_greedy(3, "lazy"),
                       adaptive_stochastic_greedy(3, 0.2), random_policy(3)):
                val = expected_utility(inst.utility(), inst.prior, pi)
                assert val <= opt + 1e-9

    def test_cache_soundness(self):
        def stop(f, prior, psi):
            return sum(p * f.value(psi.domain(), phi) for phi, p in prior.support(psi))

        def brute_force(f, prior, psi, cstate):
            """max(stop, every feasible branch), unmemoized, over the support given psi."""
            best = stop(f, prior, psi)
            for e in range(prior.n):
                if e not in psi and cstate.can_select(e):
                    best = max(best, sum(
                        p * brute_force(f, prior, psi.with_observation(e, o), cstate.after(e))
                        for o, p in prior.item_posterior(e, psi)))
            return best

        cases = []
        for seed in range(20):
            inst = generate_coverage(n=5, m=2, universe_size=6, density=0.35, seed=seed)
            cases.append((inst.utility(), inst.prior, CardinalityConstraint(3)))
        for seed in range(8):
            inst = generate_coverage(n=6, m=2, universe_size=6, density=0.35, seed=100 + seed,
                                     groups=[[0, 1, 2], [3, 4, 5]], limits=[1, 2])
            cases.append((inst.utility(), inst.prior, inst.constraint))
        # Item 1's state copies item 0's, which covers the same set in both
        # states: psi={0:0} and psi={0:1} share (dom, covered mask) but not
        # their posteriors, so only psi keys tell them apart.
        correlated = (
            CoverageUtility((1.0, 2.0, 0.5), ((0b001, 0b001), (0b000, 0b110), (0b010, 0b100))),
            ExplicitPrior([((0, 0, 0), 0.25), ((0, 0, 1), 0.25),
                           ((1, 1, 0), 0.25), ((1, 1, 1), 0.25)]))
        cases.append(correlated + (CardinalityConstraint(2),))
        for f, prior, constraint in cases:
            memoized = optimal_value(f, prior, constraint).value
            assert abs(memoized - brute_force(f, prior, PSI_EMPTY, constraint)) <= 1e-12

        # restricted queries (psi, V, a), shuffled, all answered by one oracle
        restricted = [correlated] + [
            (inst.utility(), inst.prior) for inst in
            (generate_coverage(n=4, m=2, universe_size=6, density=0.35, seed=s) for s in (1, 2))]
        for f, prior in restricted:
            queries = [(psi, items, a)
                       for psi in enumerate_partial_realizations(prior, max_size=2)
                       for size in range(1, prior.n + 1)
                       for items in itertools.combinations(range(prior.n), size)
                       for a in range(1, size + 1)]
            random.Random(0).shuffle(queries)
            oracle = RestrictedOracle(f, prior)
            for psi, items, a in queries:
                allowed = PartitionConstraint.of([set(items) - set(psi.domain())], [a])
                exact = brute_force(f, prior, psi, allowed) - stop(f, prior, psi)
                assert abs(oracle(psi, items, a) - exact) <= 1e-12, (psi, items, a)

    def test_partition_constraint(self, utility_a, prior_a):
        con = PartitionConstraint.of([[0], [1]], [1, 1])
        res = optimal_value(utility_a, prior_a, con)
        assert res.value == pytest.approx(1.75)

    def test_budget_monotone_on_monotone_utility(self):
        inst = generate_coverage(n=6, m=2, universe_size=8, density=0.3, seed=30)
        vals = [optimal_value(inst.utility(), inst.prior, CardinalityConstraint(k)).value
                for k in range(4)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestRestrictedOptimal:
    def test_singleton_is_positive_part_of_marginal(self, utility_a, prior_a):
        psi = PartialRealization.of({0: 1})
        val = restricted_optimal(utility_a, prior_a, psi, (1,), 1)
        delta = marginal_utility(utility_a, prior_a, psi, 1)
        assert val == pytest.approx(max(delta, 0.0))

    def test_full_ground_set_matches_unrestricted(self, utility_a, prior_a):
        val = restricted_optimal(utility_a, prior_a, PSI_EMPTY, (0, 1), 2)
        opt = optimal_value(utility_a, prior_a, CardinalityConstraint(2)).value
        base = expected_set_value(utility_a, prior_a, PSI_EMPTY)
        assert val == pytest.approx(opt - base, abs=1e-9)

    def test_worthless_remainder(self, utility_a, prior_a):
        val = restricted_optimal(utility_a, prior_a, PartialRealization.of({0: 1}), (1,), 1)
        assert val == pytest.approx(0.0)

    def test_impossible_base_is_refused(self):
        # item 0 is never in state 1, so no policy can start from base
        prior = IndependentPrior([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        f = CoverageUtility((1.0, 1.0), ((0b01, 0b11), (0b00, 0b10), (0b10, 0b01)))
        base = PartialRealization.of({0: 1})
        with pytest.raises(ZeroProbabilityEvidence):
            restricted_optimal(f, prior, base, [1, 2], 1)

    @pytest.mark.parametrize("explicit", [False, True])
    def test_items_outside_the_ground_set_are_refused(self, utility_a, prior_a, explicit):
        prior = ExplicitPrior(prior_a.support()) if explicit else prior_a
        oracle = RestrictedOracle(utility_a, prior)
        for items in ((-1,), (0, -1), (2,), (1, 5)):
            with pytest.raises(ValidationError, match="outside"):
                oracle(PSI_EMPTY, items, 1)
        with pytest.raises(ValidationError, match="outside"):
            restricted_optimal(utility_a, prior, PSI_EMPTY, (0, 2), 1)

    @pytest.mark.parametrize("explicit", [False, True])
    def test_query_checks_a_then_evidence_then_the_budget_cap(self, explicit):
        # Item 0 is never in state 1, so {0: 1} is impossible.  Every query
        # below asks for a budget of 2, clamped to 2 free items, over a cap of 1.
        prior = IndependentPrior([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        if explicit:
            prior = ExplicitPrior(prior.support())
        f = CoverageUtility((1.0, 1.0), ((0b01, 0b11), (0b00, 0b10), (0b10, 0b01)))
        oracle = RestrictedOracle(f, prior, OracleCaps(max_budget=1))
        items = oracle.mask((1, 2))
        outside = (PartialRealization.of({3: 0}), PartialRealization.of({-1: 0}),
                   PartialRealization.of({0: 0, 5: 1}))
        for psi in outside:
            with pytest.raises(ValidationError, match="negative budget"):
                oracle.query(psi, items, -1)
            with pytest.raises(ValidationError, match=r"observes an item outside \[0, 3\)"):
                oracle.query(psi, items, 2)
        with pytest.raises(ZeroProbabilityEvidence):
            oracle.query(PartialRealization.of({0: 1}), items, 2)
        with pytest.raises(InstanceTooLarge, match="budget 2 exceeds oracle cap 1"):
            oracle.query(PartialRealization.of({0: 0}), items, 2)
        assert oracle.query(PartialRealization.of({0: 0}), items, 1) >= 0.0

    @pytest.mark.parametrize("explicit", [False, True])
    def test_a_repeated_item_counts_once(self, utility_a, prior_a, explicit):
        prior = ExplicitPrior(prior_a.support()) if explicit else prior_a
        oracle = RestrictedOracle(utility_a, prior)
        # Summed bits would read (0, 0) as item 1 and (1, 1) as item 2.
        assert oracle(PSI_EMPTY, (0, 0), 1) == oracle(PSI_EMPTY, (0,), 1) == 1.5
        assert oracle(PSI_EMPTY, (1, 1), 2) == oracle(PSI_EMPTY, (1,), 1) == 0.5
        assert oracle(PSI_EMPTY, (0, 1, 0), 3) == oracle(PSI_EMPTY, (0, 1), 2)


def _coverage_cases():
    """Coverage instances under an independent prior, cardinality and partition."""
    for seed in range(4):
        yield pytest.param(generate_coverage(n=5, m=2, universe_size=6, density=0.35,
                                             seed=seed, k=3), id="card-n5-seed%d" % seed)
    for seed in range(2):
        yield pytest.param(generate_coverage(n=6, m=2, universe_size=8, density=0.3,
                                             seed=10 + seed, groups=[[0, 1, 2], [3, 4]],
                                             limits=[1, 2]), id="part-n6-seed%d" % (10 + seed))
    yield pytest.param(generate_coverage(n=4, m=3, universe_size=6, density=0.35, seed=20, k=2),
                       id="card-n4-m3-seed20")


@pytest.mark.parametrize("inst", _coverage_cases())
def test_covered_mask_keys_agree_with_history_keys(inst):
    # The same instance under an explicit prior over the same support keys
    # each history by itself instead of by its covered mask, and prices each
    # posterior and stop value at that history.
    f, prior = inst.utility(), inst.prior
    explicit = ExplicitPrior(prior.support())
    fast = optimal_value(f, prior, inst.constraint)
    plain = optimal_value(f, explicit, inst.constraint)
    assert abs(fast.value - plain.value) <= VALUE_TOL
    assert fast.optimal_first_actions == plain.optimal_first_actions

    fast_oracle, plain_oracle = RestrictedOracle(f, prior), RestrictedOracle(f, explicit)
    columns = [(items, a) for size in range(1, inst.n + 1)
               for items in itertools.combinations(range(inst.n), size)
               for a in range(1, size + 1)]
    for psi in enumerate_partial_realizations(prior, max_size=2):
        for items, a in columns:
            assert abs(fast_oracle(psi, items, a)
                       - plain_oracle(psi, items, a)) <= VALUE_TOL, (psi, items, a)


@pytest.mark.parametrize("inst", [monotonicity_counterexample(),
                                  complementarity_counterexample(),
                                  generate_coverage(n=3, m=3, universe_size=6, density=0.35,
                                                    seed=20, k=2)],
                         ids=["monotonicity", "complementarity", "coverage-n3-m3"])
def test_a_history_state_decodes_to_its_history(inst):
    # Off the covered-mask case a state holds o + 1 in item e's field, so it
    # is the history itself: tabular utilities, and coverage under an
    # explicit prior.
    prior = ExplicitPrior(inst.prior.support())
    oracle = RestrictedOracle(inst.utility(), prior)
    assert not oracle.coverage and oracle.rows is None
    for psi in enumerate_partial_realizations(prior):
        dom, state = oracle._root_of(psi)
        assert dom == _dom_mask(psi)
        assert oracle._history(state) == psi
        assert oracle._stop(state) == expected_set_value(inst.utility(), prior, psi)


@pytest.mark.parametrize("explicit", [False, True], ids=["independent-prior", "explicit-prior"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mask_queries_equal_restricted_optimal(monkeypatch, seed, explicit):
    # One oracle answers query(psi, mask, a) for every column, as the
    # fully-adaptive check asks it; a query that hits the memo is read at its
    # key without building a _Restriction.  Each answer must equal a fresh
    # restricted_optimal to the bit, and the memo value at the query's key
    # less psi's stop value.
    built = []

    class Counted(_Restriction):
        __slots__ = ()

        def __init__(self, items, budget):
            built.append((items, budget))
            super().__init__(items, budget)

    inst = generate_coverage(n=4, m=2, universe_size=6, density=0.35, seed=seed)
    f, prior = inst.utility(), inst.prior
    if explicit:
        prior = ExplicitPrior(prior.support())
    oracle = RestrictedOracle(f, prior)
    columns = [(items, a, oracle.mask(items)) for size in range(1, inst.n + 1)
               for items in itertools.combinations(range(inst.n), size)
               for a in range(1, size + 1)]
    monkeypatch.setattr("adasub.oracle._Restriction", Counted)
    hit_queries = 0
    for psi in enumerate_partial_realizations(prior, max_size=2):
        for items, a, mask in columns:
            expected = restricted_optimal(f, prior, psi, items, a)
            dom, state = oracle._root_of(psi)
            free = mask & ~dom
            key = (dom, state, (free, min(a, free.bit_count())))     # as query clamps
            hit, hits = key in oracle.memo, oracle.hits
            built.clear()
            answer = oracle.query(psi, mask, a)
            assert answer == expected, (psi, items, a)
            assert answer == oracle.memo[key] - oracle._stop(state), (psi, items, a)
            if hit:
                hit_queries += 1
                assert not built and oracle.hits == hits + 1, (psi, items, a)
            else:
                assert built[0] == key[2], (psi, items, a)
    assert hit_queries > 0


@pytest.mark.parametrize("explicit", [False, True], ids=["independent-prior", "explicit-prior"])
def test_restriction_budgets_never_exceed_their_items(monkeypatch, explicit):
    # _Restriction does not clamp: the query clamps the root's budget to its
    # free items, and every state below keeps 0 <= budget <= |items|, so each
    # subproblem has one memo key.
    inst = generate_coverage(n=4, m=2, universe_size=6, density=0.35, seed=0)
    f, prior = inst.utility(), inst.prior
    if explicit:
        prior = ExplicitPrior(prior.support())
    oracles = []

    class Recorded(RestrictedOracle):
        def __init__(self, *args):
            super().__init__(*args)
            oracles.append(self)

    monkeypatch.setattr("adasub.verify.RestrictedOracle", Recorded)
    check_fully_adaptive_submodular(f, prior)
    (oracle,) = oracles
    keys = [key[-1] for key in oracle.memo]     # (items, budget) per entry
    assert keys
    for items, budget in keys:
        assert 0 <= budget <= items.bit_count(), (items, budget)
