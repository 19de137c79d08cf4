import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adasub import (
    CardinalityConstraint,
    CoverageUtility,
    ExplicitPrior,
    IndependentPrior,
    PSI_EMPTY,
    ParseError,
    PartialRealization,
    PolicyViolation,
    TabularUtility,
    UtilityFunction,
    ValidationError,
    ZeroProbabilityEvidence,
    adaptive_greedy,
    adaptive_stochastic_greedy,
    check_adaptive_monotone,
    check_adaptive_submodular,
    check_fully_adaptive_submodular,
    complementarity_counterexample,
    condition,
    consistent,
    exact_policy_value,
    expected_set_value,
    expected_utility,
    generalized_asg,
    generate_coverage,
    lemma1_check,
    locally_greedy,
    marginal_utility,
    optimal_value,
    restricted_optimal,
    run_policy,
    sample_realization,
    subrealization,
)
from adasub.core import ENUMERATION_CAP, EvalContext
from adasub.errors import ExactModeUnavailable
from adasub.instances import loads_instance
from adasub.oracle import restricted_optimal
from adasub.policies import FixedSequencePolicy, PartitionConstraint


def psi(obs):
    return PartialRealization.of(obs)


class TestConsistency:
    def test_empty_psi_consistent_with_anything(self):
        assert consistent(PSI_EMPTY, (0, 1, 0))

    def test_direct_match(self):
        assert consistent(psi({0: 1}), (1, 0))

    def test_mismatch(self):
        assert not consistent(psi({0: 1, 2: 0}), (1, 1, 1))

    def test_empty_is_subrealization_of_everything(self):
        assert subrealization(PSI_EMPTY, psi({1: 0}))

    def test_subset_with_agreement(self):
        assert subrealization(psi({1: 0}), psi({1: 0, 3: 1}))

    def test_disagreement(self):
        assert not subrealization(psi({1: 0}), psi({1: 1, 3: 1}))

    def test_duplicate_item_rejected(self):
        with pytest.raises(ValidationError):
            PartialRealization.of([(0, 1), (0, 0)])

    def test_observing_an_observed_item_is_refused(self, prior_a):
        seen = psi({0: 1})
        with pytest.raises(ValidationError, match="item 0 already observed"):
            seen.with_observation(0, 0)
        ctx = EvalContext(CoverageUtility((1.0,), ((0b0, 0b1), (0b1, 0b0))), prior_a)
        child = ctx.advance(seen, 1, 0)
        for e in (0, 1):
            with pytest.raises(ValidationError, match="item %d already observed" % e):
                ctx.advance(child, e, 1)
        assert ctx.observed(child) == {0: 1, 1: 0}     # the refused calls changed nothing

    @pytest.mark.parametrize("obs", [{0: 0.5}, {1.7: 0}, {True: 0}, [(2, False)]])
    def test_non_integer_item_or_state_rejected(self, obs):
        # int() made {0: 0.5} state 0 and {1.7: 0} item 1.
        with pytest.raises(ValidationError, match="integer"):
            PartialRealization.of(obs)


class TestConditioning:
    def test_conditioning_on_nothing_is_identity(self, prior_a):
        cond = condition(prior_a, PSI_EMPTY)
        assert sorted(cond.support()) == sorted(prior_a.support())

    def test_independent_observed_item_becomes_point_mass(self, prior_a):
        cond = condition(prior_a, psi({0: 1}))
        assert cond.item_posterior(0) == [(1, 1.0)]
        assert cond.item_posterior(1) == [(0, 0.5), (1, 0.5)]

    def test_explicit_renormalizes_to_singleton(self):
        prior = ExplicitPrior([((0, 0), 0.25), ((1, 1), 0.75)])
        cond = condition(prior, psi({0: 1}))
        assert cond.support() == [((1, 1), 1.0)]

    def test_zero_probability_evidence(self):
        prior = ExplicitPrior([((0, 0), 1.0), ((1, 1), 0.0)])
        with pytest.raises(ZeroProbabilityEvidence):
            condition(prior, psi({0: 1}))

    def test_idempotence(self, prior_a):
        once = condition(prior_a, psi({0: 1}))
        twice = condition(once, PSI_EMPTY)
        s1 = dict(once.support())
        s2 = dict(twice.support())
        assert s1.keys() == s2.keys()
        for phi in s1:
            assert abs(s1[phi] - s2[phi]) < 1e-12

    def test_merged_evidence_conflict(self, prior_a):
        once = condition(prior_a, psi({0: 1}))
        with pytest.raises(ZeroProbabilityEvidence):
            condition(once, psi({0: 0}))

    def test_support_is_consistency_filtered(self, prior_a):
        ev = psi({1: 0})
        for phi, p in condition(prior_a, ev).support():
            assert consistent(ev, phi)
            assert p > 0


class TestMarginalUtility:
    def test_empty_history(self, utility_a, prior_a):
        assert marginal_utility(utility_a, prior_a, PSI_EMPTY, 0) == pytest.approx(1.5)

    def test_covered_item_adds_nothing(self, utility_a, prior_a):
        val = marginal_utility(utility_a, prior_a, psi({0: 1}), 1)
        assert val == pytest.approx(0.0)

    def test_observed_item_is_free_zero(self, utility_a, prior_a):
        before = utility_a.f_counter
        val = marginal_utility(utility_a, prior_a, psi({0: 1}), 0)
        assert val == 0.0
        assert utility_a.f_counter == before
        assert utility_a.delta_counter == 1

    def test_counts_one_delta_per_call(self, utility_a, prior_a):
        marginal_utility(utility_a, prior_a, PSI_EMPTY, 0)
        marginal_utility(utility_a, prior_a, PSI_EMPTY, 1)
        assert utility_a.delta_counter == 2

    def test_exact_matches_explicit_enumeration(self, utility_a, prior_a):
        # independent-path shortcut vs direct support enumeration
        explicit = ExplicitPrior(prior_a.support())
        tab_free = marginal_utility(utility_a, prior_a, psi({1: 0}), 0)
        enum = sum(p * (utility_a.value((1, 0), phi) - utility_a.value((1,), phi))
                   for phi, p in condition(explicit, psi({1: 0})).support())
        assert tab_free == pytest.approx(enum, abs=1e-12)


# Each prices evidence psi; marginal_utility also takes an item.
EVIDENCE_CALLS = {
    "expected_set_value": lambda f, prior, psi, e: expected_set_value(f, prior, psi),
    "restricted_optimal": lambda f, prior, psi, e: restricted_optimal(f, prior, psi, [0, 1], 1),
    "marginal_utility": marginal_utility,
}
# Each takes an item; item_posterior checks no evidence of its own.
ITEM_CALLS = {
    "marginal_utility": marginal_utility,
    "item_posterior": lambda f, prior, psi, e: prior.item_posterior(e, psi),
}


@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("call,pairs,item,error", [
    # the item: -1 gave item 4's Delta or posterior, 5 a bare IndexError, 1.5
    # a bare TypeError, and True item 1's Delta or posterior
    *((call, (), e, ValidationError)
      for call, e in itertools.product(ITEM_CALLS, (-1, 5, 1.5, True))),
    # a state outside [0, m): (4, -1) was priced as state 1, (0, 2) raised IndexError
    *((call, pairs, 1, ZeroProbabilityEvidence)
      for call, pairs in itertools.product(EVIDENCE_CALLS, [((4, -1),), ((0, 2),)])),
    # an item outside [0, n): -1 was read as item 4 (restricted_optimal raised
    # "negative shift count"), 5 past the end
    *((call, pairs, 1, ValidationError)
      for call, pairs in itertools.product(EVIDENCE_CALLS, [((-1, 0),), ((5, 0),)])),
])
def test_input_outside_the_instance_is_refused(call, pairs, item, error, explicit):
    inst = generate_coverage(n=5, m=2, universe_size=6, density=0.4, seed=1, k=2)
    f, prior = inst.utility(), inst.prior
    if explicit:
        prior = ExplicitPrior(prior.support())
    psi = PartialRealization(pairs)
    with pytest.raises(error):
        {**EVIDENCE_CALLS, **ITEM_CALLS}[call](f, prior, psi, item)


@st.composite
def histories(draw, n=4):
    """Histories over n items whose states may lie outside [0, 3)."""
    dom = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return PartialRealization.of({e: draw(st.integers(-1, 3)) for e in dom})


@given(histories())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_independent_possible_is_positive_evidence(psi):
    prior = IndependentPrior([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.25, 0.75],
                              [0.2, 0.3, 0.5]])
    assert prior.possible(psi) == (prior.evidence_probability(psi) > 0.0)


class TestSampling:
    def test_point_mass_prior(self):
        prior = IndependentPrior([[1.0, 0.0], [1.0, 0.0]])
        assert sample_realization(prior, random.Random(0)) == (0, 0)

    def test_singleton_explicit(self):
        prior = ExplicitPrior([((1, 0), 1.0)])
        assert sample_realization(prior, random.Random(0)) == (1, 0)

    def test_frequencies(self, prior_a):
        rng = random.Random(42)
        n_samples = 20_000
        ones = [0, 0]
        for _ in range(n_samples):
            phi = sample_realization(prior_a, rng)
            for e in range(2):
                ones[e] += phi[e]
        se = math.sqrt(0.25 / n_samples)
        for e in range(2):
            assert abs(ones[e] / n_samples - 0.5) < 4 * se

    def test_rounding_gap_falls_back_to_a_positive_mass_state(self):
        # The row sums to 1 - 5e-10, inside PROB_TOL; a draw past that sum
        # must land on the last state with mass, not on the zero-mass state 2.
        class Draw:
            def random(self):
                return 1 - 1e-10

        prior = IndependentPrior([[0.5, 0.5 - 5e-10, 0.0]])
        phi = prior.sample(Draw())
        assert phi == (1,)
        assert prior.evidence_probability(psi(enumerate(phi))) > 0.0

    def test_conditioned_sampling_respects_evidence(self, prior_a):
        cond = condition(prior_a, psi({0: 1}))
        rng = random.Random(3)
        for _ in range(50):
            assert cond.sample(rng)[0] == 1


class TracingCoverage(CoverageUtility):
    """Independent tally of raw evaluations, for counter cross-checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace_count = 0

    def _value(self, items, states):
        self.trace_count += 1
        return super()._value(items, states)

    def covered_value(self, covered):
        self.trace_count += 1
        return super().covered_value(covered)


class TestCounters:
    def test_f_counter_matches_tracing_wrapper(self, prior_a):
        f = TracingCoverage(list((1.0, 1.0)), [list(r) for r in ((0b01, 0b11), (0b00, 0b10))])
        marginal_utility(f, prior_a, PSI_EMPTY, 0)
        marginal_utility(f, prior_a, psi({0: 0}), 1)
        expected_set_value(f, prior_a, psi({0: 0, 1: 1}))
        assert f.f_counter == f.trace_count > 0

    @pytest.mark.parametrize("universe_size", [16, 17])     # weight table, then summation
    @pytest.mark.parametrize("explicit", [False, True])
    def test_coverage_stop_is_value_at_the_history_and_one_count(self, universe_size,
                                                                explicit):
        inst = generate_coverage(n=6, m=2, universe_size=universe_size, density=0.4, seed=9)
        f = inst.utility()
        assert (f._table is None) == (universe_size > 16)
        # Item 0 is never in state 1, so {0: 1} is impossible evidence.
        prior = IndependentPrior([(1.0, 0.0)] + list(inst.prior.probs[1:]))
        if explicit:
            prior = ExplicitPrior(prior.support())
        options = [(None, 0)] + [(None, 0, 1)] * 5
        for states in itertools.product(*options):
            history = psi({e: o for e, o in enumerate(states) if o is not None})
            value = f.value(history.domain(), history.as_dict())
            before = f.f_counter
            assert expected_set_value(f, prior, history).hex() == value.hex()
            assert f.f_counter == before + 1
        for bad, error in [({0: 1}, ZeroProbabilityEvidence), ({6: 0}, ValidationError),
                           ({-1: 0}, ValidationError), ({1: 0, 9: 1}, ValidationError)]:
            before = f.f_counter
            with pytest.raises(error):
                expected_set_value(f, prior, psi(bad))
            assert f.f_counter == before

    def test_reset(self, utility_a, prior_a):
        marginal_utility(utility_a, prior_a, PSI_EMPTY, 0)
        utility_a.reset_counters()
        assert utility_a.f_counter == 0
        assert utility_a.delta_counter == 0


class TestValidation:
    def test_independent_rows_must_normalize(self):
        with pytest.raises(ValidationError):
            IndependentPrior([[0.5, 0.4]])

    def test_explicit_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            ExplicitPrior([((0,), 0.5), ((0,), 0.5)])

    def test_explicit_rejects_negative_states(self):
        # A coverage utility would read state -1 as covers[e][-1], the last state.
        with pytest.raises(ValidationError, match="negative state"):
            ExplicitPrior([((-1, 0), 0.5), ((1, 1), 0.5)])

    @pytest.mark.parametrize("support", [[((), 1.0)], [((0,), 0.5), ((), 0.5)]])
    def test_explicit_rejects_itemless_realizations(self, support):
        # max() over an empty realization raised a bare ValueError.
        with pytest.raises(ValidationError, match="no items|length mismatch"):
            ExplicitPrior(support)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            CoverageUtility([-1.0], [[0b1]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, bad):
        # NaN passes both `p < 0` and the normalization test
        for make in (lambda: IndependentPrior([[bad, 1.0]]),
                     lambda: ExplicitPrior([((0,), bad), ((1,), 1.0)]),
                     lambda: CoverageUtility([1.0, bad], [[0b1], [0b10]]),
                     lambda: TabularUtility(1, [(0,)], [[0.0], [bad]])):
            with pytest.raises(ValidationError, match="negative or non-finite"):
                make()

    def test_tabular_utility_is_bounded_in_items(self):
        n = TabularUtility.MAX_ITEMS + 1
        with pytest.raises(ValidationError, match="n <= %d" % TabularUtility.MAX_ITEMS):
            TabularUtility(n, [(0,) * n], [[0.0]] * (1 << n))

    def test_tabular_realization_outside_the_table_is_refused(self):
        f = TabularUtility(2, [(0, 0), (1, 0)], [[0.0, 1.0]] * 4)
        assert f.value((0,), [1, 0]) == 1.0
        with pytest.raises(ValidationError, match=r"realization \(0, 1\) not in the table"):
            f.value((0,), (0, 1))

    def test_support_over_the_enumeration_cap_is_unavailable(self):
        # 21 fair coins have 2^21 realizations, twice ENUMERATION_CAP: the
        # support is counted, not listed, before it is refused.
        prior = IndependentPrior([[0.5, 0.5]] * 21)
        assert prior.support_size() == 2 * ENUMERATION_CAP
        with pytest.raises(ExactModeUnavailable, match="exceeds %d" % ENUMERATION_CAP):
            prior.support()
        assert len(prior.support(psi({e: 0 for e in range(20)}))) == 2

    @pytest.mark.parametrize("covers,item", [
        ([[0b01, 0b10], [0b11, 0b100], [0b1000, 0b0]], 1),
        ([[0b01, 0b10], [0b11, 0b01], [0b10, -1]], 2),
    ])
    def test_coverage_outside_universe_names_the_first_item(self, covers, item):
        with pytest.raises(ValidationError, match=r"^coverage of item %d outside universe$" % item):
            CoverageUtility([1.0, 1.0], covers)


@st.composite
def partials(draw, n=4, m=2):
    dom = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return PartialRealization.of({e: draw(st.integers(0, m - 1)) for e in dom})


@given(partials(), partials(), partials())
@settings(max_examples=100, deadline=None)
def test_subrealization_is_transitive(p1, p2, p3):
    if subrealization(p1, p2) and subrealization(p2, p3):
        assert subrealization(p1, p3)


@given(partials(), st.tuples(*[st.integers(0, 1)] * 4))
@settings(max_examples=100, deadline=None)
def test_consistency_agrees_with_subrealization_of_full(p, phi):
    full = PartialRealization.of(enumerate(phi))
    assert consistent(p, phi) == subrealization(p, full)


def _repro_instance():
    inst = generate_coverage(n=5, m=2, universe_size=6, density=0.4, seed=1, k=2)
    return inst.utility(), inst.prior


@pytest.mark.parametrize("call,name", [
    (lambda f, prior: restricted_optimal(f, prior, PSI_EMPTY, [0, 1], 1.5), "budget a"),
    (lambda f, prior: restricted_optimal(f, prior, PSI_EMPTY, [0, 1], True), "budget a"),
    (lambda f, prior: restricted_optimal(f, prior, PSI_EMPTY, [True], 1), "item True"),
    (lambda f, prior: restricted_optimal(f, prior, PSI_EMPTY, [0.0, 1], 1), "item 0.0"),
    (lambda f, prior: optimal_value(f, prior, CardinalityConstraint(1.5)), "budget"),
    (lambda f, prior: expected_utility(f, prior, adaptive_greedy(2.5)), "k"),
    (lambda f, prior: adaptive_stochastic_greedy(2.5, 0.1), "k"),
    (lambda f, prior: adaptive_greedy(True), "k"),
    (lambda f, prior: PartitionConstraint.of([[0, 1]], [1.5]), "group limit"),
    (lambda f, prior: FixedSequencePolicy([1.7]), "sequence item"),
    (lambda f, prior: expected_utility(f, prior, adaptive_greedy(2), mode="mc", samples=2.5),
     "samples"),
    (lambda f, prior: lemma1_check(10, 2, 0.1, trials=1.5), "trials"),
    (lambda f, prior: ExplicitPrior([((0, 1.7), 0.5), ((1, 0), 0.5)]), "realization state"),
    (lambda f, prior: ExplicitPrior([((True, 0), 1.0)]), "realization state"),
    (lambda f, prior: ExplicitPrior([((0, math.inf), 1.0)]), "realization state"),
    (lambda f, prior: TabularUtility(1, [(1.5,)], [[0.0], [1.0]]), "realization state"),
    (lambda f, prior: CoverageUtility([1.0, 1.0], [[1, 2.5]]), "coverage mask"),
    (lambda f, prior: CoverageUtility([1.0, 1.0], [[True, 2]]), "coverage mask"),
    (lambda f, prior: CoverageUtility([1.0, 1.0], [[1, math.inf]]), "coverage mask"),
    (lambda f, prior: CoverageUtility([1.0, 1.0], [(1, 2.5)]), "coverage mask"),
    (lambda f, prior: CoverageUtility([1.0, 1.0], [(True, 2)]), "coverage mask"),
    (lambda f, prior: CoverageUtility([1.0, 1.0], [(1, math.inf)]), "coverage mask"),
], ids=["budget-float", "budget-bool", "item-bool", "item-float", "cardinality-float",
        "greedy-k-float", "asg-k-float", "greedy-k-bool", "partition-limit-float",
        "sequence-item-float", "mc-samples-float", "lemma1-trials-float",
        "explicit-state-float", "explicit-state-bool", "explicit-state-inf",
        "tabular-state-float", "coverage-mask-float", "coverage-mask-bool",
        "coverage-mask-inf", "coverage-tuple-mask-float", "coverage-tuple-mask-bool",
        "coverage-tuple-mask-inf"])
def test_integer_parameters_refuse_floats_and_bools(call, name):
    # int() would truncate 2.5, and a bool would pass as 0 or 1.
    f, prior = _repro_instance()
    with pytest.raises(ValidationError, match=r"^%s (must be an integer|outside the integers)"
                       % name):
        call(f, prior)


@pytest.mark.parametrize("items,states,match", [
    ([0], (-1, 0, 0), "state -1 of item 0"),    # was item 0's state-1 weight
    ([0], (True, 0, 0), "state True of item 0"),    # passed as state 1
    ([0], (2, 0, 0), "state 2 of item 0"),      # was a bare IndexError
    ([0], (0.0, 0, 0), "state 0.0 of item 0"),
    ([-1], (0, 0, 1), "item -1 "),              # priced item 2
    ([3], (0, 0, 0), "item 3 "),
    ([5], (0, 0, 0), "item 5 "),                # was a bare IndexError
    ([True], (0, 0, 0), "item True "),
    ([2], (0,), "the states give item 2 no state"),     # was a bare IndexError
    ([2], {0: 1}, "the states give item 2 no state"),   # was a bare KeyError
])
def test_coverage_value_refuses_items_and_states_outside_the_instance(items, states, match):
    f = generate_coverage(n=3, m=2, universe_size=6, density=0.5, seed=1).utility()
    with pytest.raises(ValidationError, match="^%s" % match):
        f.value(items, states)
    assert f.value([0, 2], (1, 0, 1)) == f.value([0, 2], {0: 1, 2: 1})


@pytest.mark.parametrize("item", [-1, 2, True, 0.0])
def test_tabular_value_refuses_items_outside_the_instance(item):
    # -1 raised a bare ValueError ("negative shift count"), 2 an IndexError.
    f = complementarity_counterexample().utility()
    with pytest.raises(ValidationError, match=r"^item %r is not an integer in \[0, 2\)" % (item,)):
        f.value([item], f.realizations[0])


class _OverBudget(FixedSequencePolicy):
    """Chooses item 0 under a constraint that allows no selection."""

    def fresh_constraint(self, n):
        return CardinalityConstraint(0)


@pytest.mark.parametrize("call,error,match", [
    (lambda f, prior: adaptive_greedy(-1), ValidationError, "k must be >= 0"),
    (lambda f, prior: adaptive_stochastic_greedy(0, 0.1), ValidationError, "k must be >= 1"),
    (lambda f, prior: locally_greedy([[0, 1], [2, 3]], [1, 1], order=[0, 0]),
     ValidationError, "order must be a permutation"),
    (lambda f, prior: generalized_asg([[0, 1], [2, 3]], [1, 0], 0.1),
     ValidationError, "every group budget must be >= 1"),
    (lambda f, prior: adaptive_greedy(2, variant="eager"), ValidationError, "variant must be"),
    (lambda f, prior: PartitionConstraint.of([[0, 1]], [1]).after(0).after(1),
     PolicyViolation, "group 0 budget exceeded"),
    (lambda f, prior: _OverBudget([0]).run_on(EvalContext(f, prior), (0,) * prior.n),
     PolicyViolation, "selected infeasible item 0"),
    (lambda f, prior: lemma1_check(10, 2, 0.1, trials=0), ValidationError,
     "trials must be >= 1"),
    (lambda f, prior: generate_coverage(n=0, m=2, universe_size=6, density=0.5),
     ValidationError, "sizes must be >= 1"),
    (lambda f, prior: loads_instance("[]"), ParseError, "must contain a JSON object"),
    (lambda f, prior: expected_utility(f, prior, adaptive_greedy(2), mode="approx"),
     ValidationError, "unknown mode 'approx'"),
], ids=["greedy-k-negative", "asg-k-zero", "local-order-repeats", "gasg-limit-zero",
        "greedy-variant-unknown", "partition-after-exhausted", "run-on-infeasible-choice",
        "lemma1-trials-zero", "generate-n-zero", "load-non-object", "expected-utility-mode"])
def test_out_of_range_arguments_raise_package_errors(call, error, match):
    f, prior = _repro_instance()
    with pytest.raises(error, match=match):
        call(f, prior)


@pytest.mark.parametrize("explicit", [False, True], ids=["independent", "explicit"])
@pytest.mark.parametrize("query,pairs,expected", [
    ("evidence_probability", ((4, -1),), 0.0),
    ("evidence_probability", ((0, 2),), 0.0),
    ("evidence_probability", ((-1, 0),), ValidationError),
    ("evidence_probability", ((5, 0),), ValidationError),
    ("possible", ((4, -1),), False),
    ("possible", ((0, 2),), False),
    ("possible", ((-1, 0),), ValidationError),
    ("possible", ((5, 0),), ValidationError),
    ("sample", ((4, -1),), ZeroProbabilityEvidence),
    ("sample", ((0, 2),), ZeroProbabilityEvidence),
    ("sample", ((5, 0),), ValidationError),
])
def test_evidence_outside_range(explicit, query, pairs, expected):
    # An item outside [0, n) is refused; a state outside [0, m) has no mass.
    _, prior = _repro_instance()
    if explicit:
        prior = ExplicitPrior(prior.support())
    evidence = PartialRealization.of(pairs)
    args = (random.Random(0), evidence) if query == "sample" else (evidence,)
    if isinstance(expected, type):
        with pytest.raises(expected):
            getattr(prior, query)(*args)
    else:
        assert getattr(prior, query)(*args) == expected


_FIT_ENTRY_POINTS = {
    "marginal_utility": lambda f, prior, psi: marginal_utility(f, prior, psi, 1),
    "expected_set_value": lambda f, prior, psi: expected_set_value(f, prior, psi),
    "EvalContext.delta": lambda f, prior, psi: EvalContext(f, prior).delta(1, psi),
    "run_policy": lambda f, prior, psi: run_policy(adaptive_greedy(3), f, prior,
                                                   (1,) * prior.n),
    "exact_policy_value": lambda f, prior, psi: exact_policy_value(adaptive_greedy(3), f, prior),
    "optimal_value": lambda f, prior, psi: optimal_value(f, prior, CardinalityConstraint(2)),
    "restricted_optimal": lambda f, prior, psi: restricted_optimal(f, prior, psi, [0, 1], 1),
    "check_adaptive_monotone": lambda f, prior, psi: check_adaptive_monotone(f, prior),
    "check_adaptive_submodular": lambda f, prior, psi: check_adaptive_submodular(f, prior),
    "check_fully_adaptive_submodular":
        lambda f, prior, psi: check_fully_adaptive_submodular(f, prior),
}


@pytest.mark.parametrize("explicit", [False, True], ids=["independent", "explicit"])
@pytest.mark.parametrize("f_shape,prior_shape,pairs", [
    ((3, 2), (5, 2), {4: 0}),       # item 4 has no coverage: was a bare IndexError
    ((3, 2), (3, 3), {2: 2}),       # state 2 has no coverage: was a bare IndexError
    ((5, 2), (3, 2), {}),           # items 3 and 4 were ignored
], ids=["fewer-items", "fewer-states", "more-items"])
@pytest.mark.parametrize("entry", sorted(_FIT_ENTRY_POINTS))
def test_utility_and_prior_of_different_sizes_are_refused(entry, f_shape, prior_shape, pairs,
                                                         explicit):
    def instance(shape):
        n, m = shape
        return generate_coverage(n=n, m=m, universe_size=6, density=0.4, seed=1, k=2)
    f, prior = instance(f_shape).utility(), instance(prior_shape).prior
    if explicit:
        prior = ExplicitPrior(prior.support())
    assert (prior.n, prior.m) == prior_shape
    message = (r"^the utility covers %d items in %d or more states each, but the prior has "
               r"%d items in %d states$" % (f_shape + prior_shape))
    with pytest.raises(ValidationError, match=message):
        _FIT_ENTRY_POINTS[entry](f, prior, PartialRealization.of(pairs))
    assert f.f_counter == f.delta_counter == 0
