"""The incremental Delta path against the two-evaluation definition.

EvalContext.delta and marginal_utility price a coverage candidate from f's
state at the history (CoverageUtility.state / expected_gain).  These tests hold
them to Sum_o p(o) * (f(dom + e) - f(dom)), written out with two value()
calls per state, with exact float equality, and require rollouts driven by
either to pick the same items.
"""

import math
import random

import pytest

from adasub import (
    CoverageUtility,
    ExplicitPrior,
    IndependentPrior,
    PSI_EMPTY,
    PartialRealization,
    TabularUtility,
    UtilityFunction,
    ZeroProbabilityEvidence,
    adaptive_greedy,
    adaptive_stochastic_greedy,
    expected_set_value,
    generate_coverage,
    marginal_utility,
    run_policy,
    sample_realization,
)
from adasub.core import EvalContext


def explicit_delta(f, prior, psi, e):
    """Sum_o p(o | psi) * (f(dom + e) - f(dom)), two evaluations per state."""
    if e in psi:
        return 0.0
    dom = psi.domain()
    fixed = psi.as_dict()
    total = 0.0
    for o, p in prior.item_posterior(e, psi):
        states = dict(fixed)
        states[e] = o
        total += p * (f.value(dom + (e,), states) - f.value(dom, fixed))
    return total


class ExplicitDeltaContext(EvalContext):
    """An EvalContext that prices every candidate with explicit_delta."""

    def delta(self, e, psi):
        self.f.delta_counter += 1
        return explicit_delta(self.f, self.prior, psi, e)


def random_history(prior, rng, size):
    phi = sample_realization(prior, rng)
    return PartialRealization.of({e: phi[e] for e in rng.sample(range(prior.n), size)})


def coverage_instances(count=24, universe=(4, 80), density=(0.05, 0.5)):
    for seed in range(count):
        rng = random.Random(seed)
        yield rng, generate_coverage(n=rng.randint(6, 40), m=2 + seed % 2,
                                     universe_size=rng.randint(*universe),
                                     density=rng.uniform(*density), seed=seed)


class SqrtOfSelected(UtilityFunction):
    """sqrt of the selected items' state weights: no coverage structure, so
    Delta is priced from the conditioned support."""

    def __init__(self, weights):
        super().__init__()
        self.weights = weights

    def _value(self, items, states):
        return math.sqrt(sum(self.weights[e][states[e]] for e in items))


class TestCoverageDeltaIsExact:
    def test_matches_two_evaluation_formula(self):
        for rng, inst in coverage_instances():
            f, ref = inst.utility(), inst.utility()
            ctx = EvalContext(f, inst.prior)
            histories = [PSI_EMPTY] + [random_history(inst.prior, rng, rng.randint(1, inst.n - 1))
                                       for _ in range(4)]
            # Interleave histories so the context's one cached state turns over.
            for e in range(inst.n):
                for psi in histories:
                    expected = explicit_delta(ref, inst.prior, psi, e)
                    assert ctx.delta(e, psi) == expected
                    assert marginal_utility(f, inst.prior, psi, e) == expected

    def test_matches_two_evaluation_formula_at_large_universes(self):
        # Sparse coverage of 128-256 elements: a candidate's newly covered
        # elements sit high in the mask and rarely repeat, so the gain memo
        # misses on almost every candidate and each gain is a fresh sum.
        priced = misses = 0
        for rng, inst in coverage_instances(12, universe=(128, 256), density=(0.01, 0.05)):
            f, ref = inst.utility(), inst.utility()
            ctx = EvalContext(f, inst.prior)
            histories = [PSI_EMPTY] + [random_history(inst.prior, rng, rng.randint(1, inst.n - 1))
                                       for _ in range(4)]
            for e in range(inst.n):
                for psi in histories:
                    expected = explicit_delta(ref, inst.prior, psi, e).hex()
                    assert ctx.delta(e, psi).hex() == expected
                    assert marginal_utility(f, inst.prior, psi, e).hex() == expected
            for psi in histories:
                priced += sum(inst.m for e in range(inst.n) if e not in psi)
            misses += sum(len(state[2]) - 1 for state in f._states.values())
        assert misses > 0.8 * priced

    def test_delta_cache_keeps_exact_values(self):
        inst = generate_coverage(n=12, m=3, universe_size=20, density=0.3, seed=4)
        cache = {}
        ctx = EvalContext(inst.utility(), inst.prior, delta_cache=cache)
        psi = random_history(inst.prior, random.Random(1), 5)
        for _ in range(2):
            for e in range(inst.n):
                assert ctx.delta(e, psi) == explicit_delta(inst.utility(), inst.prior, psi, e)
        assert len(cache) == inst.n - 5

    def test_zero_probability_state_is_never_priced(self):
        # Item 0's state 1 and item 2's state 0 have no mass but would cover a lot.
        prior = IndependentPrior([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.3, 0.7]])
        weights = [0.1, 0.7, 0.2, 1.3, 0.05]
        covers = [[0b00001, 0b11111], [0b00110, 0b01000], [0b11111, 0b10000],
                  [0b00011, 0b11000]]
        f, ref = CoverageUtility(weights, covers), CoverageUtility(weights, covers)
        ctx = EvalContext(f, prior)
        for psi in (PSI_EMPTY, PartialRealization.of({1: 0}),
                    PartialRealization.of({0: 0, 3: 1})):
            for e in range(4):
                expected = explicit_delta(ref, prior, psi, e)
                assert ctx.delta(e, psi) == expected
                assert marginal_utility(f, prior, psi, e) == expected

    def test_candidates_sharing_a_new_mask_are_priced_once(self):
        weights = [0.1, 0.7, 0.2, 1.3, 0.3]
        # Given psi = {3: 0}, which covers element 0, both state 0 of item 0
        # (0b00011) and state 0 of item 2 (0b00010) newly cover element 1 only.
        covers = [[0b00011, 0b01100], [0b10000, 0b00001], [0b00010, 0b10100],
                  [0b00001, 0b11000]]
        prior = IndependentPrior([[0.25, 0.75], [0.5, 0.5], [0.6, 0.4], [0.5, 0.5]])
        f, ref = CoverageUtility(weights, covers), CoverageUtility(weights, covers)
        psi = PartialRealization.of({3: 0})
        state = f.state(f.covered(psi))
        memo = state[2]
        assert f.expected_gain(state, 0, prior.rows[0]) == explicit_delta(ref, prior, psi, 0)
        priced = dict(memo)
        assert 0b00010 in priced
        assert f.expected_gain(state, 2, prior.rows[2]) == explicit_delta(ref, prior, psi, 2)
        assert memo[0b00010] is priced[0b00010]     # a hit, not a second sum
        assert set(memo) == set(priced) | {0b10100}
        ctx = EvalContext(f, prior)
        for e in range(3):
            assert ctx.delta(e, psi) == explicit_delta(ref, prior, psi, e)

    @pytest.mark.parametrize("pi", [adaptive_greedy(8), adaptive_greedy(8, "lazy"),
                                    adaptive_stochastic_greedy(8, 0.1)],
                             ids=lambda pi: pi.name)
    def test_rollouts_pick_the_same_items(self, pi):
        for seed in range(3):
            inst = generate_coverage(n=200, m=2 + seed % 2, universe_size=30,
                                     density=0.15, seed=100 + seed)
            assert_same_rollout(pi, inst, seed)

    @pytest.mark.parametrize("pi", [adaptive_greedy(50, "lazy"),
                                    adaptive_stochastic_greedy(50, 0.1)],
                             ids=lambda pi: pi.name)
    def test_n1000_rollouts_pick_the_same_items(self, pi):
        # The benchmark's rollout instance: saturated coverage, where most
        # candidates of a history share their newly covered mask.
        inst = generate_coverage(n=1000, m=2, universe_size=16, density=0.2, seed=77)
        for seed in range(2):
            assert_same_rollout(pi, inst, seed)


def assert_same_rollout(pi, inst, seed):
    """A rollout's trace and Delta count equal those of an explicit_delta rollout."""
    phi = sample_realization(inst.prior, random.Random(seed))
    f, ref = inst.utility(), inst.utility()
    trace = run_policy(pi, f, inst.prior, phi, seed=seed)
    ref_trace = pi.run_on(ExplicitDeltaContext(ref, inst.prior, seed=seed), phi)
    assert trace == ref_trace
    assert f.delta_counter == ref.delta_counter


SQRT_WEIGHTS = [[0.0, 2.0, 5.0], [1.0, 0.5, 3.0], [4.0, 0.0, 1.0], [2.5, 2.5, 0.25]]
INDEPENDENT = IndependentPrior([[0.2, 0.3, 0.5], [0.6, 0.0, 0.4],
                                [1 / 3, 1 / 3, 1 / 3], [0.1, 0.8, 0.1]])
CORRELATED = ExplicitPrior([((0, 1, 2, 0), 0.25), ((2, 1, 0, 1), 0.25),
                            ((1, 0, 0, 2), 0.3), ((2, 2, 1, 1), 0.2)])


COVERAGE_WEIGHTS = [0.1, 0.7, 0.2, 1.3, 0.05, 0.3]
COVERAGE_COVERS = [[0b000011, 0b001100, 0b110000], [0b000110, 0b000000, 0b101001],
                   [0b010010, 0b000111, 0b000001], [0b100100, 0b011000, 0b000011]]


def coverage_utility():
    return CoverageUtility(COVERAGE_WEIGHTS, COVERAGE_COVERS)


class TestGenericDelta:
    def test_matches_two_evaluation_formula(self):
        # The coverage utility under CORRELATED takes its posteriors from
        # item_posterior(e, psi), not from an independent prior's rows.
        for prior in (INDEPENDENT, CORRELATED):
            f, ref = coverage_utility(), coverage_utility()
            ctx = EvalContext(f, prior)
            rng = random.Random(5)
            histories = [PSI_EMPTY] + [random_history(prior, rng, size)
                                       for size in (1, 2, 3)]
            for psi in histories:
                for e in range(prior.n):
                    expected = explicit_delta(ref, prior, psi, e)
                    assert ctx.delta(e, psi) == expected
                    assert marginal_utility(f, prior, psi, e) == expected


class TestImpossibleHistory:
    def test_coverage_raises(self):
        prior = IndependentPrior([[1.0, 0.0], [0.5, 0.5]])
        f = generate_coverage(n=2, m=2, universe_size=4, density=0.5, seed=0).utility()
        impossible = PartialRealization.of({0: 1})
        with pytest.raises(ZeroProbabilityEvidence):
            EvalContext(f, prior).delta(1, impossible)
        with pytest.raises(ZeroProbabilityEvidence):
            marginal_utility(f, prior, impossible, 1)
        with pytest.raises(ZeroProbabilityEvidence):
            expected_set_value(f, prior, impossible)

    def test_generic_utility_raises(self):
        f = SqrtOfSelected(SQRT_WEIGHTS)
        impossible = PartialRealization.of({0: 0, 1: 0})
        with pytest.raises(ZeroProbabilityEvidence):
            EvalContext(f, CORRELATED).delta(2, impossible)
        with pytest.raises(ZeroProbabilityEvidence):
            marginal_utility(f, CORRELATED, impossible, 2)

    def test_tabular_utility_raises(self):
        # each observation is possible on its own; together they are not
        prior = ExplicitPrior([((0, 0, 0), 0.5), ((1, 1, 0), 0.5)])
        f = TabularUtility(3, [(0, 0, 0), (1, 1, 0)], [[float(mask), 1.0] for mask in range(8)])
        impossible = PartialRealization.of({0: 0, 1: 1})
        with pytest.raises(ZeroProbabilityEvidence):
            expected_set_value(f, prior, impossible)
        with pytest.raises(ZeroProbabilityEvidence):
            marginal_utility(f, prior, impossible, 2)


class TestLongHistory:
    """An independent prior's history is possible iff every observed state has
    mass; the product of those masses underflows long before that fails."""

    FAIR = IndependentPrior([[0.5, 0.5]] * 1100)

    def test_lazy_greedy_runs_past_the_product_underflow(self):
        f = generate_coverage(n=1100, m=2, universe_size=16, density=0.2, seed=3).utility()
        phi = self.FAIR.sample(random.Random(0))
        trace = run_policy(adaptive_greedy(1100, "lazy"), f, self.FAIR, phi)
        full = PartialRealization.of(enumerate(phi))
        assert self.FAIR.evidence_probability(full) == 0.0
        assert trace.selected == tuple(range(1100))
        assert trace.value == f.value(range(1100), phi) == expected_set_value(f, self.FAIR, full)
        # A history that is not a rollout's current one is checked in full.
        rest = PartialRealization(full.pairs[1:])
        assert marginal_utility(f, self.FAIR, rest, 0) == explicit_delta(f, self.FAIR, rest, 0)

    @pytest.mark.parametrize("prior", [IndependentPrior([[1.0, 0.0]] * 2000),
                                       ExplicitPrior([((0,) * 2000, 1.0)])],
                             ids=["independent", "explicit"])
    def test_zero_probability_message_is_short(self, prior):
        impossible = PartialRealization.of({e: 1 for e in range(2000)})
        with pytest.raises(ZeroProbabilityEvidence, match="2000 observations") as info:
            prior.support(impossible)
        assert len(str(info.value)) < 200
