import dataclasses
import math
import random

import pytest

from adasub import (
    CardinalityConstraint,
    PSI_EMPTY,
    PartialRealization,
    PolicyViolation,
    ValidationError,
    adaptive_greedy,
    adaptive_stochastic_greedy,
    concat,
    empty_policy,
    exact_policy_value,
    expected_utility,
    generalized_asg,
    generate_coverage,
    lemma1_check,
    locally_greedy,
    policies,
    policy_marginal,
    random_policy,
    run_policy,
    sample_realization,
)
from adasub.core import CoverageUtility, EvalContext, IndependentPrior, UtilityFunction
from adasub.policies import FixedSequencePolicy, PartitionConstraint, Policy, TraceStep


def rollout(pi, inst, phi, seed=0):
    f = inst.utility()
    return run_policy(pi, f, inst.prior, phi, seed=seed), f


class Scripted(Policy):
    """Chooses choices[len(psi)] at every history, observed or not, under a
    budget of `budget`; stops once the choices run out."""

    name = "scripted"

    def __init__(self, choices, budget):
        self.choices, self.budget = choices, budget

    def fresh_constraint(self, n):
        return CardinalityConstraint(self.budget)

    def decide(self, ctx, psi, cstate, scratch):
        return (self.choices[len(psi)], (), None) if len(psi) < len(self.choices) else None


class ScriptedLaw(Scripted):
    """Scripted, with an unseeded law that is a point mass on its choice."""

    randomized = True

    def decision_distribution(self, ctx, psi, cstate):
        decision = self.decide(ctx, psi, cstate, None)
        return [] if decision is None else [(decision[0], 1.0)]


class TestRunPolicy:
    def test_empty_policy_trace(self, utility_a, prior_a):
        trace = run_policy(empty_policy(), utility_a, prior_a, (0, 0))
        assert trace.steps == ()
        assert trace.selected == ()

    def test_greedy_on_instance_a(self, utility_a, prior_a):
        trace = run_policy(adaptive_greedy(2), utility_a, prior_a, (1, 0))
        assert [s.chosen for s in trace.steps] == [0, 1]
        assert trace.value == pytest.approx(2.0)

    def test_zero_budget(self, utility_a, prior_a):
        trace = run_policy(adaptive_greedy(0), utility_a, prior_a, (1, 0))
        assert trace.steps == ()

    def test_infeasible_choice_raises(self, utility_a, prior_a):
        bad = FixedSequencePolicy([0, 0])
        # fixed policy skips observed items, so force the violation directly
        class Stubborn(FixedSequencePolicy):
            def decide(self, ctx, psi, cstate, scratch):
                return 0, (), None
        with pytest.raises(PolicyViolation):
            run_policy(Stubborn([0]), utility_a, prior_a, (1, 0))
        del bad

    @pytest.mark.parametrize("choices,budget,message",
                             [([7], 1, "scripted selected unknown item 7"),
                              ([-1], 1, "scripted selected unknown item -1"),
                              ([0, 0], 2, "scripted re-selected item 0"),
                              ([0, 1], 1, "scripted selected infeasible item 1")])
    @pytest.mark.parametrize("cls", [Scripted, ScriptedLaw])
    def test_rollouts_and_exact_evaluation_refuse_a_choice_alike(self, cls, choices, budget,
                                                                 message):
        # Exact evaluation called all three "chose infeasible item"; its
        # unseeded ScriptedLaw tree checks the law's items, its seeded one decide's.
        inst = generate_coverage(n=5, m=2, universe_size=6, density=0.4, seed=1)
        f, prior, pi = inst.utility(), inst.prior, cls(choices, budget)
        phi = sample_realization(prior, random.Random(0))
        for run in (lambda: run_policy(pi, f, prior, phi),
                    lambda: exact_policy_value(pi, f, prior),
                    lambda: exact_policy_value(pi, f, prior, seed=0)):
            with pytest.raises(PolicyViolation, match="^%s$" % message):
                run()

    def test_a_step_records_only_its_own_decision(self):
        # A fixed step draws and prices nothing.  Before decide returned its
        # candidates and Delta, this step reported ASG's last round on the same
        # context: candidates (0, 3, 4, 5, 7) and Delta 2.0448...
        inst = generate_coverage(n=8, m=2, universe_size=8, density=0.3, seed=1, k=2)
        phi = inst.prior.sample(random.Random(1))
        ctx = EvalContext(inst.utility(), inst.prior)
        last = adaptive_stochastic_greedy(2, 0.3).run_on(ctx, phi).steps[-1]
        assert last.candidates == (0, 3, 4, 5, 7) and last.delta is not None
        assert FixedSequencePolicy([5]).run_on(ctx, phi).steps == (TraceStep((), 5, phi[5], None),)
        steps = random_policy(2).run_on(ctx, phi).steps
        assert len(steps) == 2
        assert all(s.candidates == (s.chosen,) and s.delta is None for s in steps)

    @pytest.mark.parametrize("sequence", [[-1, 0], [7, 0], [0, 5]])
    def test_item_outside_the_ground_set_raises(self, sequence):
        # -1 would read item 4's coverage and state; 7 would index past them.
        inst = generate_coverage(n=5, m=2, universe_size=6, density=0.4, seed=1)
        phi = sample_realization(inst.prior, random.Random(0))
        with pytest.raises(PolicyViolation, match="unknown item"):
            run_policy(FixedSequencePolicy(sequence), inst.utility(), inst.prior, phi)
        with pytest.raises(PolicyViolation, match="unknown item"):
            exact_policy_value(FixedSequencePolicy(sequence), inst.utility(), inst.prior)

    @pytest.mark.parametrize("phi,match", [((0, 0, -1, 0, 0), "state -1"),
                                           ((0, 0, 2, 0, 0), "state 2"),
                                           ((0, 0, 0, 0), "4 states"),
                                           ((0, 0, 0, 0, 0, 0), "6 states"),
                                           ((0, 0, 0.5, 0, 0), "state 0.5"),
                                           ((0, 0, True, 0, 0), "state True")])
    def test_malformed_realization_raises(self, phi, match):
        # Greedy observes item 2 first.  Its state -1 was read as the last
        # state and gave a value, and True as state 1; state 2 and a length-4
        # phi raised a bare IndexError, and 0.5 a bare TypeError.
        inst = generate_coverage(n=5, m=2, universe_size=6, density=0.4, seed=1, k=2)
        assert run_policy(adaptive_greedy(2), inst.utility(), inst.prior,
                          (0,) * 5).steps[0].chosen == 2
        with pytest.raises(ValidationError, match=match):
            run_policy(adaptive_greedy(2), inst.utility(), inst.prior, phi)
        if len(phi) != 5:   # checked up front, whatever the policy observes
            for pi in (random_policy(2), concat(adaptive_greedy(1), empty_policy())):
                with pytest.raises(ValidationError, match=match):
                    run_policy(pi, inst.utility(), inst.prior, phi)


class TestAdaptiveGreedy:
    def test_k1_value(self, utility_a, prior_a):
        assert expected_utility(utility_a, prior_a, adaptive_greedy(1)) == pytest.approx(1.5)

    def test_k2_value(self, utility_a, prior_a):
        assert expected_utility(utility_a, prior_a, adaptive_greedy(2)) == pytest.approx(1.75)

    def test_lazy_matches_naive_everywhere(self):
        for seed in range(50):
            inst = generate_coverage(n=random.Random(seed).randint(4, 8), m=2,
                                     universe_size=8, density=0.3, seed=seed, k=3)
            phi = sample_realization(inst.prior, random.Random(seed + 1))
            naive_trace, naive_f = rollout(adaptive_greedy(3), inst, phi)
            lazy_trace, lazy_f = rollout(adaptive_greedy(3, "lazy"), inst, phi)
            assert [s.chosen for s in naive_trace.steps] == \
                   [s.chosen for s in lazy_trace.steps]
            assert lazy_f.f_counter <= naive_f.f_counter

    def test_selects_exactly_min_k_n(self, utility_a, prior_a):
        trace = run_policy(adaptive_greedy(5), utility_a, prior_a, (0, 0))
        assert len(trace.selected) == 2


def test_sample_space_matches_its_definition():
    ctx = EvalContext(UtilityFunction(), IndependentPrior([[0.5, 0.5]] * 10))
    pi = adaptive_greedy(3)
    for cstate in (CardinalityConstraint(3), CardinalityConstraint(0)):
        for obs in ({}, {2: 0, 5: 1}, {0: 1, 7: 0, 9: 1}, {e: 0 for e in range(10)}):
            psi = PartialRealization.of(obs)
            pool, _ = pi._sample_space(ctx.observed(psi), ctx.pool(psi), cstate, ctx.n)
            assert pool == [e for e in range(10) if e not in psi and cstate.can_select(e)]


@pytest.mark.parametrize("eps,match", [
    (1e-320, "too small"), (5e-324, "too small"), ("0.1", "must be a number"),
    (None, "must be a number"), (0.0, r"must be in \(0,1\)"), (1.0, r"must be in \(0,1\)"),
    (-0.1, r"must be in \(0,1\)"), (math.nan, r"must be in \(0,1\)")])
@pytest.mark.parametrize("make", [
    lambda eps: adaptive_stochastic_greedy(2, eps),
    lambda eps: generalized_asg([[0, 1]], [1], eps),
    lambda eps: lemma1_check(10, 2, eps, trials=10),
], ids=["asg", "gasg", "lemma1"])
def test_epsilon_outside_the_rule_is_refused(make, eps, match):
    # 1/eps must be finite, or sample_budget's ln(1/eps) overflows.
    with pytest.raises(ValidationError, match=match):
        make(eps)


def test_tiny_normal_epsilon_still_runs():
    assert adaptive_stochastic_greedy(2, 1e-300).oracle_call_cap(10) == 20
    assert generalized_asg([[0, 1]], [1], 1e-300).oracle_call_cap(2) == 2
    assert lemma1_check(10, 2, 1e-300, trials=10).sample_size == 10


def test_decision_widths_build_no_context(monkeypatch):
    """The walk sizes each round from a plain map and list: no stand-in
    utility, prior or context."""
    groups, limits = [[0, 1, 2], [3, 4], [5, 6, 7, 8]], [2, 1, 2]
    policies = (adaptive_greedy(3), adaptive_greedy(3, "lazy"), random_policy(3),
                adaptive_stochastic_greedy(3, 0.1), locally_greedy(groups, limits, [2, 0, 1]),
                generalized_asg(groups, limits, 0.3, [2, 0, 1]))

    def refuse(self, *args, **kwargs):
        raise AssertionError("%s built" % type(self).__name__)

    for cls in (EvalContext, IndependentPrior, UtilityFunction):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert [pi.decision_widths(9) for pi in policies] == \
        [[1, 1, 1], [1, 1, 1], [9, 8, 7], [3, 2, 1], [1] * 5, [2, 1, 2, 1, 1]]


class TestAdaptiveStochasticGreedy:
    def test_sample_size_example(self):
        # n=100, k=10, eps=0.1: per-round sample of ceil(10 ln 10) = 24
        inst = generate_coverage(n=100, m=2, universe_size=12, density=0.1, seed=5)
        pi = adaptive_stochastic_greedy(10, 0.1)
        phi = sample_realization(inst.prior, random.Random(9))
        trace, f = rollout(pi, inst, phi)
        assert all(len(s.candidates) == 24 for s in trace.steps)
        assert f.delta_counter <= 240

    def test_saturated_sample_equals_greedy(self, utility_a, prior_a):
        # n=4-type degenerate case: sample covers the whole pool every round
        inst = generate_coverage(n=4, m=2, universe_size=6, density=0.4, seed=2)
        phi = sample_realization(inst.prior, random.Random(0))
        greedy_trace, _ = rollout(adaptive_greedy(1), inst, phi)
        asg_trace, _ = rollout(adaptive_stochastic_greedy(1, 0.01), inst, phi, seed=11)
        assert len(asg_trace.steps[0].candidates) == 4
        assert [s.chosen for s in asg_trace.steps] == [s.chosen for s in greedy_trace.steps]

    def test_instance_a_saturates_to_greedy_value(self, utility_a, prior_a):
        val = expected_utility(utility_a, prior_a, adaptive_stochastic_greedy(2, 0.01))
        assert val == pytest.approx(1.75)

    def test_always_selects_even_at_zero_gain(self, prior_a, utility_a):
        # after observing item 0 in state 1 the other item has zero marginal,
        # but the loop has no early exit
        trace = run_policy(adaptive_stochastic_greedy(2, 0.5), utility_a, prior_a, (1, 1))
        assert len(trace.selected) == 2

    def test_rollout_delta_bound(self):
        for seed in range(10):
            inst = generate_coverage(n=8, m=2, universe_size=8, density=0.3, seed=seed)
            for eps in (0.3, 0.1, 0.01):
                pi = adaptive_stochastic_greedy(3, eps)
                phi = sample_realization(inst.prior, random.Random(seed))
                _, f = rollout(pi, inst, phi, seed=seed)
                assert f.delta_counter <= 3 * math.ceil(8 / 3 * math.log(1 / eps))

    def test_determinism(self):
        inst = generate_coverage(n=8, m=2, universe_size=8, density=0.3, seed=1)
        pi = adaptive_stochastic_greedy(3, 0.2)
        phi = sample_realization(inst.prior, random.Random(4))
        t1, _ = rollout(pi, inst, phi, seed="master")
        t2, _ = rollout(pi, inst, phi, seed="master")
        assert t1 == t2


DRAW_SIZES = list(range(1, 81)) + [276, 277, 278, 975, 1024, 1025, 4000]


@pytest.mark.parametrize("n", DRAW_SIZES)
def test_draw_is_sorted_random_sample(n):
    # 277 is random.sample's set-size threshold for a sample of 47, so 276
    # and 277 take its list branch and 278 its set branch; 975 to 1025 and
    # 4000 cross bit lengths.  Each draw must give sorted(rng.sample(pool, s))
    # and leave the stream where rng.sample leaves it.
    pools = [list(range(n)), [3 * e + 7 for e in reversed(range(n))]]
    sizes = sorted({s for s in (1, 2, 5, 6, 7, n // 3, n // 2, n, 47) if s <= n})
    for pool in pools:
        for s in sizes:
            for seed in ("0", "7|((3, 1),)", "rollout-n1000:0:12"):
                rng, ref = random.Random(seed), random.Random(seed)
                assert policies._draw(rng, pool, s) == sorted(ref.sample(pool, s))
                assert rng.random() == ref.random()


class TestPartitionPolicies:
    def test_single_group_degenerates_to_greedy(self):
        inst = generate_coverage(n=6, m=2, universe_size=8, density=0.3, seed=3)
        phi = sample_realization(inst.prior, random.Random(7))
        greedy_trace, _ = rollout(adaptive_greedy(2), inst, phi)
        local_trace, _ = rollout(locally_greedy([range(6)], [2]), inst, phi)
        assert [s.chosen for s in local_trace.steps] == \
               [s.chosen for s in greedy_trace.steps]

    def test_instance_a_partition_orders(self, utility_a, prior_a):
        for order in ((0, 1), (1, 0)):
            pi = locally_greedy([[0], [1]], [1, 1], order)
            val = expected_utility(utility_a, prior_a, pi)
            assert val == pytest.approx(1.75)
        first = run_policy(locally_greedy([[0], [1]], [1, 1], (1, 0)),
                           utility_a, prior_a, (1, 1))
        assert [s.chosen for s in first.steps] == [1, 0]

    @pytest.mark.parametrize("make", [
        lambda: locally_greedy([[0, 1], [2, 3]], [1, 1], order=[1.7, 0]),
        lambda: generalized_asg([[0, 1], [2, 3]], [1, 1], 0.1, order=[True, 0]),
    ], ids=["float", "bool"])
    def test_order_items_must_be_integers(self, make):
        # int() truncated 1.7 to 1, and True passed as 1: both ran with order (1, 0).
        with pytest.raises(ValidationError, match="order item"):
            make()

    def test_gasg_saturated(self, utility_a, prior_a):
        pi = generalized_asg([[0], [1]], [1, 1], 0.01)
        val = expected_utility(utility_a, prior_a, pi)
        assert val == pytest.approx(1.75)

    def test_gasg_single_group_sample_size(self):
        # |B|=20, d=4, eps=0.1: per-selection sample of ceil(5 ln 10) = 12
        inst = generate_coverage(n=20, m=2, universe_size=10, density=0.2, seed=6)
        pi = generalized_asg([range(20)], [4], 0.1)
        phi = sample_realization(inst.prior, random.Random(2))
        trace, f = rollout(pi, inst, phi)
        assert all(len(s.candidates) == 12 for s in trace.steps)
        assert f.delta_counter <= 4 * 12

    def test_partition_feasibility(self):
        groups, limits = [[0, 1, 2], [3, 4], [5, 6, 7]], [2, 1, 1]
        inst = generate_coverage(n=8, m=2, universe_size=8, density=0.3, seed=8,
                                 groups=groups, limits=limits)
        constraint = PartitionConstraint.of(groups, limits)
        for seed in range(20):
            phi = sample_realization(inst.prior, random.Random(seed))
            pi = generalized_asg(groups, limits, 0.2)
            trace, _ = rollout(pi, inst, phi, seed=seed)
            for i, g in enumerate(constraint.groups):
                assert len(set(trace.selected) & set(g)) <= limits[i]

    @pytest.mark.parametrize("item", [5, 9, -1])
    @pytest.mark.parametrize("make", [
        lambda e: locally_greedy([[0, e]], [1]),
        lambda e: generalized_asg([[0, 1, 2, e]], [1], 0.5),
    ], ids=["local", "gasg"])
    def test_group_item_outside_the_instance_is_refused(self, make, item):
        # A bare IndexError from Delta's row lookup, or for -1 item 4's Delta.
        inst = generate_coverage(n=5, m=2, universe_size=6, density=0.4, seed=2)
        phi = sample_realization(inst.prior, random.Random(0))
        pi = make(item)
        for run in (lambda f: run_policy(pi, f, inst.prior, phi),
                    lambda f: exact_policy_value(pi, f, inst.prior),
                    lambda f: expected_utility(f, inst.prior, pi, mode="mc", samples=3)):
            with pytest.raises(ValidationError, match=r"group item %d is not an item in "
                                                      r"\[0, 5\)" % item):
                run(inst.utility())

    def test_ungrouped_items_never_selected(self, prior_a, utility_a):
        # item 0 is in no group, so only item 1 is selectable
        pi = locally_greedy([[1]], [1])
        trace = run_policy(pi, utility_a, prior_a, (1, 1))
        assert trace.selected == (1,)


class TestConcat:
    def test_left_identity(self, utility_a, prior_a):
        pi = concat(empty_policy(), FixedSequencePolicy([0]))
        trace = run_policy(pi, utility_a, prior_a, (1, 0))
        assert trace.selected == (0,)

    def test_right_identity(self, utility_a, prior_a):
        pi = concat(FixedSequencePolicy([0]), empty_policy())
        trace = run_policy(pi, utility_a, prior_a, (1, 0))
        assert trace.selected == (0,)

    def test_union_collapses(self, utility_a, prior_a):
        pi = concat(FixedSequencePolicy([0]), FixedSequencePolicy([0]))
        trace = run_policy(pi, utility_a, prior_a, (1, 0))
        assert trace.selected == (0,)
        assert trace.value == pytest.approx(2.0)

    def test_trace_is_the_phases_traces_in_order(self):
        inst = generate_coverage(n=8, m=2, universe_size=8, density=0.3, seed=2, k=3)
        first, second = adaptive_stochastic_greedy(3, 0.3), random_policy(2)
        phi = inst.prior.sample(random.Random(0))
        trace, _ = rollout(concat(first, second), inst, phi, seed=5)
        t1, _ = rollout(first, inst, phi, seed="5/1")
        t2, _ = rollout(second, inst, phi, seed="5/2")
        assert len(t1.steps) == 3 and len(t2.steps) == 2
        assert trace.steps == t1.steps + t2.steps

    def test_exact_value_by_enumeration(self, utility_a, prior_a):
        pi = concat(FixedSequencePolicy([0]), FixedSequencePolicy([1]))
        assert expected_utility(utility_a, prior_a, pi) == pytest.approx(1.75)


def test_trace_step_fields():
    names = [field.name for field in dataclasses.fields(TraceStep)]
    assert names == ["candidates", "chosen", "observed", "delta"]


class TestRandomPolicy:
    def test_k_equals_n(self, utility_a, prior_a):
        trace = run_policy(random_policy(2), utility_a, prior_a, (0, 1))
        assert trace.selected == (0, 1)

    def test_k_zero(self, utility_a, prior_a):
        trace = run_policy(random_policy(0), utility_a, prior_a, (0, 1))
        assert trace.selected == ()

    def test_singleton_average(self, utility_a, prior_a):
        val = expected_utility(utility_a, prior_a, random_policy(1))
        assert val == pytest.approx(1.0, abs=0.1)


class TestPolicyMarginal:
    def test_empty_policy_gains_nothing(self, utility_a, prior_a):
        assert policy_marginal(utility_a, prior_a, PSI_EMPTY, empty_policy()) == 0.0

    def test_single_item_policy_matches_item_marginal(self, utility_a, prior_a):
        val = policy_marginal(utility_a, prior_a, PSI_EMPTY, FixedSequencePolicy([0]))
        assert val == pytest.approx(1.5)

    def test_conditioned_gain(self, utility_a, prior_a):
        val = policy_marginal(utility_a, prior_a, PartialRealization.of({0: 0}),
                              FixedSequencePolicy([1]))
        assert val == pytest.approx(0.5)


class TestExactVsMonteCarlo:
    def test_expected_utility_modes_agree(self):
        inst = generate_coverage(n=6, m=2, universe_size=8, density=0.3, seed=12)
        f = inst.utility()
        pi = adaptive_greedy(3)
        exact = expected_utility(f, inst.prior, pi)
        est, se = expected_utility(inst.utility(), inst.prior, pi, mode="mc",
                                   samples=20_000, seed=1)
        assert abs(est - exact) < 4 * se

    def test_monte_carlo_needs_a_sample(self, utility_a, prior_a):
        for samples in (0, -3):
            with pytest.raises(ValidationError, match="samples"):
                expected_utility(utility_a, prior_a, adaptive_greedy(1), mode="mc",
                                 samples=samples)

    def test_standard_error_past_the_float_range_is_infinite(self):
        # Rollouts worth 0 and 1e200 deviate from their mean by ~5e199, whose
        # square overflows: the standard error is inf, not an OverflowError.
        f = CoverageUtility((1e200,), ((0b0, 0b1),))
        prior = IndependentPrior([[0.5, 0.5]])
        est, se = expected_utility(f, prior, adaptive_greedy(1), mode="mc", samples=20, seed=0)
        assert 0.0 < est < 1e200 and se == math.inf

    def test_tree_eval_matches_per_realization_enumeration(self):
        inst = generate_coverage(n=6, m=2, universe_size=8, density=0.3, seed=13)
        pi = adaptive_stochastic_greedy(3, 0.2)
        tree = exact_policy_value(pi, inst.utility(), inst.prior, seed="x")
        brute = sum(p * run_policy(pi, inst.utility(), inst.prior, phi, seed="x").value
                    for phi, p in inst.prior.support())
        assert tree == pytest.approx(brute, abs=1e-9)
