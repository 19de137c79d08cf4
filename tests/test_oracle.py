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
from adasub.oracle import VALUE_TOL, OracleCaps, RestrictedOracle
from adasub.policies import PartitionConstraint
from adasub.verify import check_fully_adaptive_submodular, enumerate_partial_realizations


def _stop_value(f, prior, psi):
    return sum(p * f.value(psi.domain(), phi) for phi, p in prior.support(psi))


def _allows(constraint, chosen, e):
    """Whether the constraint lets e follow the selections `chosen`, in any order."""
    if isinstance(constraint, CardinalityConstraint):
        return len(chosen) < constraint.remaining
    return any(e in g and len(set(g) & set(chosen)) < d
               for g, d in zip(constraint.groups, constraint.remaining))


def _brute_force(f, prior, psi, constraint, chosen=()):
    """The oracle's recursion unmemoized, over the posteriors given psi: the
    stop value (checked against its definition), then the branch of each item
    the constraint allows after `chosen` (the items selected since the first
    call) in ascending order, kept when it beats the best by more than
    VALUE_TOL.  It keys nothing, so the oracle must equal it bit for bit."""
    best = expected_set_value(f, prior, psi)
    assert abs(best - _stop_value(f, prior, psi)) <= 1e-12, psi
    for e in range(prior.n):
        if e not in psi and _allows(constraint, chosen, e):
            total = 0.0
            for o, p in prior.item_posterior(e, psi):
                total += p * _brute_force(f, prior, psi.with_observation(e, o), constraint,
                                          chosen + (e,))
            if total > best + VALUE_TOL:
                best = total
    return best


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

    def test_cache_soundness(self, monkeypatch):
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
        # Item 2 is in no group: the partition's keys leave it in `left`, and
        # the restricted queries below start from histories that observed it.
        outside = generate_coverage(n=5, m=2, universe_size=6, density=0.35, seed=7,
                                    groups=[[0, 1], [3, 4]], limits=[1, 1])
        cases.append((outside.utility(), outside.prior, outside.constraint))
        # Tabular utilities, whose stops are no covered weight, and generated
        # coverage under an explicit prior over its support: keyed by psi itself.
        tabular = [(inst.utility(), inst.prior, inst.constraint)
                   for inst in (complementarity_counterexample(), monotonicity_counterexample())]
        explicit = [(inst.utility(), ExplicitPrior(inst.prior.support()), inst.constraint)
                    for inst in (generate_coverage(n=5, m=2, universe_size=6, density=0.35,
                                                   seed=3, k=3),
                                 generate_coverage(n=6, m=2, universe_size=6, density=0.35,
                                                   seed=101, groups=[[0, 1, 2], [3, 4, 5]],
                                                   limits=[1, 2]))]
        for f, prior, constraint in cases + tabular + explicit:
            memoized = optimal_value(f, prior, constraint).value
            assert memoized == _brute_force(f, prior, PSI_EMPTY, constraint)

        # restricted queries (psi, V, a), shuffled, all answered by one oracle
        restricted = [correlated + (None,)] + [
            (inst.utility(), inst.prior, None) for inst in
            (generate_coverage(n=4, m=2, universe_size=6, density=0.35, seed=s) for s in (1, 2))]
        restricted += [(f, prior, None) for f, prior, _ in tabular]
        restricted.append((outside.utility(), outside.prior, outside.constraint))
        for f, prior, constraint in restricted:
            queries = [(psi, items, a)
                       for psi in enumerate_partial_realizations(prior, max_size=2)
                       if constraint is None or 2 in psi
                       for size in range(1, prior.n + 1)
                       for items in itertools.combinations(range(prior.n), size)
                       for a in range(1, size + 1)]
            random.Random(0).shuffle(queries)
            oracle = RestrictedOracle(f, prior)
            if constraint is not None:
                # The partition's optimum fills the same memo first.
                with monkeypatch.context() as patch:
                    patch.setattr("adasub.oracle.RestrictedOracle", lambda *args: oracle)
                    optimal_value(f, prior, constraint)
                assert oracle.memo
            for psi, items, a in queries:
                allowed = PartitionConstraint.of([set(items) - set(psi.domain())], [a])
                exact = _brute_force(f, prior, psi, allowed) - expected_set_value(f, prior, psi)
                assert oracle(psi, items, a) == exact, (psi, items, a)

    @pytest.mark.parametrize("inst", [
        generate_coverage(n=6, m=2, universe_size=8, density=0.3, seed=1, k=3),
        generate_coverage(n=5, m=3, universe_size=8, density=0.3, seed=2, k=2),
        generate_coverage(n=6, m=2, universe_size=8, density=0.3, seed=3,
                          groups=[[0, 1, 2], [3, 4, 5]], limits=[1, 2]),
        # item 2 is in no group, so no key of optimal_value holds it
        generate_coverage(n=5, m=2, universe_size=6, density=0.35, seed=7,
                          groups=[[0, 1], [3, 4]], limits=[1, 1]),
        complementarity_counterexample()],
        ids=["card-n6", "card-n5-m3", "part-n6", "part-outside", "complementarity"])
    @pytest.mark.parametrize("explicit", [False, True], ids=["own-prior", "explicit-prior"])
    def test_memo_holds_no_leaf(self, monkeypatch, inst, explicit):
        # A child whose groups leave none of its free items selectable is
        # priced as its stop, so every memo key (state, left, gid) has an item
        # to select, and nodes_expanded counts the memo's keys; restricted
        # queries on the same oracle add no leaf either.
        prior = ExplicitPrior(inst.prior.support()) if explicit else inst.prior
        oracle = RestrictedOracle(inst.utility(), prior)
        monkeypatch.setattr("adasub.oracle.RestrictedOracle", lambda *args: oracle)
        res = optimal_value(inst.utility(), prior, inst.constraint)
        assert res.nodes_expanded == len(oracle.memo) > 0
        for psi in enumerate_partial_realizations(prior, max_size=1):
            for items in ((0,), tuple(range(inst.n))):
                for a in range(len(items) + 1):
                    oracle(psi, items, a)
        for state, left, gid in oracle.memo:
            assert oracle.moves[gid][0] & left, (state, left, gid)

    @pytest.mark.parametrize("inst", [
        generate_coverage(n=6, m=2, universe_size=8, density=0.3, seed=3,
                          groups=[[0, 1, 2], [3, 4, 5]], limits=[1, 2]),
        generate_coverage(n=5, m=2, universe_size=6, density=0.35, seed=7,
                          groups=[[0, 1], [3, 4]], limits=[1, 1]),
        generate_coverage(n=8, m=2, universe_size=8, density=0.3, seed=5,
                          groups=[[0, 1, 2, 3], [4, 5, 6, 7]], limits=[2, 1]),
        # the CI twin: gen --n 10 --m 3 --universe 16 --groups '0,1,2;3,4,5;6,7,8,9'
        # --limits 2,2,2 --seed 1
        generate_coverage(n=10, m=3, universe_size=16, density=0.3, seed=1,
                          groups=[[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]], limits=[2, 2, 2])],
        ids=["part-n6", "part-outside", "part-n8", "part-n10-twin"])
    def test_partition_keys_hold_only_selectable_items(self, monkeypatch, inst):
        # Budgets only fall, so V does not depend on an item whose group is
        # spent (or that is in no group): every key's `left` drops such items,
        # and keys that differ only in them are one memo entry.
        oracle = RestrictedOracle(inst.utility(), inst.prior)
        monkeypatch.setattr("adasub.oracle.RestrictedOracle", lambda *args: oracle)
        res = optimal_value(inst.utility(), inst.prior, inst.constraint)
        assert res.nodes_expanded == len(oracle.memo) > 0
        for state, left, gid in oracle.memo:
            assert left & ~oracle.moves[gid][0] == 0, (state, left, gid)
        if inst.n == 10:
            assert (round(res.value, 10), res.optimal_first_actions) == (15.3095874214, (2,))
            assert (res.nodes_expanded, res.cache_hits) == (13297, 126375)

    def test_budgets_past_their_groups_solve_as_clamped(self):
        # No selection spends a budget past its group's size, so the oracle
        # interns the clamped groups: the value, first actions and counts are
        # the clamped constraint's, and a budget of 10**9 builds no deep table.
        inst = generate_coverage(n=5, m=2, universe_size=6, density=0.35, seed=7, k=5)
        f, prior = inst.utility(), inst.prior
        for clamped, wide in [
                (CardinalityConstraint(5), CardinalityConstraint(10 ** 9)),
                (PartitionConstraint.of([[0], [1, 2, 3]], [1, 2]),
                 PartitionConstraint.of([[0], [1, 2, 3]], [10 ** 9, 2]))]:
            assert optimal_value(f, prior, wide) == optimal_value(f, prior, clamped)

    def test_histories_that_share_a_key_share_its_memo_entry(self):
        # {0: 0} and {1: 0} both cover element 0 alone and leave items 2 and
        # 3 free, so their queries on V = {2, 3} share (covered mask, free
        # items, budget): the second reads the first's memo entry.
        f = CoverageUtility((1.0, 2.0, 0.5),
                            ((0b001, 0b011), (0b001, 0b100), (0b010, 0b100), (0b000, 0b110)))
        prior = IndependentPrior([[0.5, 0.5], [0.3, 0.7], [0.6, 0.4], [0.2, 0.8]])
        first, second = PartialRealization.of({0: 0}), PartialRealization.of({1: 0})
        assert f.covered(first) == f.covered(second)
        for a in (1, 2):
            oracle = RestrictedOracle(f, prior)
            answers = [oracle(first, (2, 3), a)]
            size, hits = len(oracle.memo), oracle.hits
            answers.append(oracle(second, (2, 3), a))
            assert (len(oracle.memo), oracle.hits) == (size, hits + 1), a
            assert answers[0] == answers[1], a
            for psi, answer in zip((first, second), answers):
                allowed = PartitionConstraint.of([[2, 3]], [a])
                exact = _brute_force(f, prior, psi, allowed) - expected_set_value(f, prior, psi)
                assert answer == exact, (psi, a)

    def test_partition_constraint(self, utility_a, prior_a):
        con = PartitionConstraint.of([[0], [1]], [1, 1])
        res = optimal_value(utility_a, prior_a, con)
        assert res.value == pytest.approx(1.75)

    @pytest.mark.parametrize("item", [9, -1])
    def test_group_item_outside_the_ground_set_is_refused(self, item):
        # The oracle ignored the item and returned the optimum over group [0].
        inst = generate_coverage(5, 2, 6, 0.4, seed=3, k=2)
        with pytest.raises(ValidationError, match=r"^group item %d is not an item in "
                                                  r"\[0, 5\)$" % item):
            optimal_value(inst.utility(), inst.prior, PartitionConstraint.of([[0, item]], [1]))

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
            with pytest.raises(ValidationError, match=r"is not an integer in \[0, 2\)$"):
                oracle(PSI_EMPTY, items, 1)
        with pytest.raises(ValidationError, match=r"^item 2 is not an integer in \[0, 2\)$"):
            restricted_optimal(utility_a, prior, PSI_EMPTY, (0, 2), 1)

    @pytest.mark.parametrize("explicit", [False, True])
    def test_query_checks_a_then_evidence_then_the_budget_cap(self, explicit):
        # Item 0 is never in state 1, so {0: 1} is impossible.  Every query
        # below asks for a budget of 2, clamped to 2 free items, over a cap of 1.
        # oracle(psi, items, a), the one checked entry, checks the items first.
        prior = IndependentPrior([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        if explicit:
            prior = ExplicitPrior(prior.support())
        f = CoverageUtility((1.0, 1.0), ((0b01, 0b11), (0b00, 0b10), (0b10, 0b01)))
        oracle = RestrictedOracle(f, prior, OracleCaps(max_budget=1))
        items = (1, 2)
        outside = (PartialRealization.of({3: 0}), PartialRealization.of({-1: 0}),
                   PartialRealization.of({0: 0, 5: 1}))
        for psi in outside:
            with pytest.raises(ValidationError, match=r"^item 5 is not an integer in \[0, 3\)$"):
                oracle(psi, (1, 5), -1)
            with pytest.raises(ValidationError, match="negative budget"):
                oracle(psi, items, -1)
            with pytest.raises(ValidationError, match=r"observes an item outside \[0, 3\)"):
                oracle(psi, items, 2)
        with pytest.raises(ZeroProbabilityEvidence):
            oracle(PartialRealization.of({0: 1}), items, 2)
        with pytest.raises(InstanceTooLarge, match="budget 2 exceeds oracle cap 1"):
            oracle(PartialRealization.of({0: 0}), items, 2)
        assert oracle(PartialRealization.of({0: 0}), items, 1) >= 0.0

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


def root_of(oracle, psi):
    """psi's root key, built with child from the empty history's (0, 0)."""
    root = (0, 0)
    for e, o in psi.pairs:
        root = oracle.child(root, e, o)
    return root


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
        dom, state = root_of(oracle, psi)
        assert dom == sum(1 << e for e in psi.domain())
        assert oracle._history(state) == psi
        assert oracle._stop(state) == expected_set_value(inst.utility(), prior, psi)


@pytest.mark.parametrize("explicit", [False, True], ids=["independent-prior", "explicit-prior"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mask_queries_equal_restricted_optimal(monkeypatch, seed, explicit):
    # One oracle answers value(root, free, budget) at every column's clamped
    # key, as the fully-adaptive check reads it; a read that hits the memo
    # expands no node, and a miss expands its key first.  Each answer must
    # equal a fresh restricted_optimal to the bit, and the memo value at the
    # key (read through the id of its groups) less psi's stop value.  A zero
    # budget is a leaf: it answers 0 with no memo entry, read or expansion.
    inst = generate_coverage(n=4, m=2, universe_size=6, density=0.35, seed=seed)
    f, prior = inst.utility(), inst.prior
    if explicit:
        prior = ExplicitPrior(prior.support())
    oracle = RestrictedOracle(f, prior)
    columns = [(items, a, oracle.mask(items)) for size in range(1, inst.n + 1)
               for items in itertools.combinations(range(inst.n), size)
               for a in range(1, size + 1)]
    expanded, node = [], oracle._node

    def counted(key, first=None):
        expanded.append(key)
        return node(key, first)

    monkeypatch.setattr(oracle, "_node", counted)     # the recursion calls self._node
    hit_queries = leaf_queries = 0
    for psi in enumerate_partial_realizations(prior, max_size=2):
        root = dom, state = root_of(oracle, psi)
        for items, a, mask in columns:
            expected = restricted_optimal(f, prior, psi, items, a)
            free = mask & ~dom
            budget = min(a, free.bit_count())     # clamped
            groups = ((oracle.ground, budget),)
            hit = (state, free, oracle.gids.get(groups)) in oracle.memo
            hits, size = oracle.hits, len(oracle.memo)
            expanded.clear()
            answer = oracle.value(root, free, budget)
            assert answer == expected, (psi, items, a)
            if not budget:
                leaf_queries += 1
                assert answer == 0.0 and not hit, (psi, items, a)
                assert not expanded and (oracle.hits, len(oracle.memo)) == (hits, size)
                continue
            key = (state, free, oracle.gids[groups])
            assert answer == oracle.memo[key] - oracle._stop(state), (psi, items, a)
            if hit:
                hit_queries += 1
                assert not expanded and oracle.hits == hits + 1, (psi, items, a)
            else:
                assert expanded[0] == key, (psi, items, a)
    assert hit_queries > 0 and leaf_queries > 0


@pytest.mark.parametrize("explicit", [False, True], ids=["independent-prior", "explicit-prior"])
def test_restriction_budgets_never_exceed_their_items(monkeypatch, explicit):
    # Nothing below the root clamps: the query clamps the root's budget to
    # its free items, and each selection takes one item from `left` and one
    # from the budget, so every key keeps 0 <= budget <= |left| and each
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
    assert oracle.memo
    groups_of = {gid: groups for groups, gid in oracle.gids.items()}
    assert len(groups_of) == len(oracle.gids) == len(oracle.moves)
    for state, left, gid in oracle.memo:
        ((mask, budget),) = groups = groups_of[gid]
        assert mask == oracle.ground, groups
        assert 0 <= budget <= left.bit_count(), (left, budget)
