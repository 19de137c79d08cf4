"""The incremental Delta path against the two-evaluation definition.

EvalContext.delta and marginal_utility price a coverage candidate with the
pricing function of f's state at the history (CoverageUtility.state).  These
tests hold them to Sum_o p(o) * (f(dom + e) - f(dom)), written out with two
value() calls per state, with exact float equality, and require rollouts
driven by either to pick the same items.
"""

import gc
import math
import random
import weakref

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
    exact_policy_value,
    expected_set_value,
    generalized_asg,
    generate_coverage,
    marginal_utility,
    run_policy,
    sample_realization,
)
from adasub import core, evaluation, policies, verify
from adasub.core import EvalContext
from adasub.verify import enumerate_partial_realizations


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

    def test_matches_two_evaluation_formula_at_large_universes(self, mask_sums):
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
                    del mask_sums[:]
                    assert ctx.delta(e, psi).hex() == expected
                    assert marginal_utility(f, inst.prior, psi, e).hex() == expected
                    misses += len(mask_sums)
            for psi in histories:
                priced += sum(inst.m for e in range(inst.n) if e not in psi)
            # Each state built sums its own covered mask once; the rest are misses.
            misses -= len(f._states)
        assert misses > 0.8 * priced

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

    def test_candidates_sharing_a_new_mask_are_priced_once(self, mask_sums):
        # Twelve zero-weight elements that no cover touches take the universe
        # past the weight-table cap, to the gain memo, and change no value.
        weights = [0.1, 0.7, 0.2, 1.3, 0.3] + [0.0] * 12
        # Given psi = {3: 0}, which covers element 0, both state 0 of item 0
        # (0b00011) and state 0 of item 2 (0b00010) newly cover element 1 only.
        covers = [[0b00011, 0b01100], [0b10000, 0b00001], [0b00010, 0b10100],
                  [0b00001, 0b11000]]
        prior = IndependentPrior([[0.25, 0.75], [0.5, 0.5], [0.6, 0.4], [0.5, 0.5]])
        f, ref = CoverageUtility(weights, covers), CoverageUtility(weights, covers)
        assert f.universe_size == core._TABLE_MAX_UNIVERSE + 1
        psi = PartialRealization.of({3: 0})
        expected = [explicit_delta(ref, prior, psi, e) for e in range(3)]
        del mask_sums[:]
        gain = f.state(f.covered(psi))
        assert mask_sums == [0b00001]               # f(dom psi)
        assert gain(0, prior.rows[0]) == expected[0]
        assert mask_sums[1:] == [0b00011, 0b01101]  # newly covering 0b00010 and 0b01100
        del mask_sums[:]
        assert gain(2, prior.rows[2]) == expected[2]
        assert mask_sums == [0b10101]               # 0b00010 a hit, not a second sum
        ctx = EvalContext(f, prior)
        for e in range(3):
            assert ctx.delta(e, psi) == expected[e]

    @pytest.mark.parametrize("universe", [core._TABLE_MAX_UNIVERSE,
                                          core._TABLE_MAX_UNIVERSE + 1])
    def test_matches_two_evaluation_formula_at_the_table_cap(self, universe):
        # The largest universe read from the weight table and the smallest
        # priced by the summation loop and its memo, with zero weights among
        # the elements, give explicit_delta's floats to the bit.
        for seed in range(6):
            rng = random.Random(seed)
            inst = generate_coverage(n=rng.randint(6, 30), m=2 + seed % 2,
                                     universe_size=universe, density=rng.uniform(0.05, 0.5),
                                     seed=seed)
            weights = [0.0 if x % 3 == seed % 3 else w
                       for x, w in enumerate(inst.utility_spec["weights"])]
            covers = inst.utility().covers
            f, ref = CoverageUtility(weights, covers), CoverageUtility(weights, covers)
            assert (f._table is None) == (universe > core._TABLE_MAX_UNIVERSE)
            ctx = EvalContext(f, inst.prior)
            histories = [PSI_EMPTY] + [random_history(inst.prior, rng, rng.randint(1, inst.n - 1))
                                       for _ in range(4)]
            for e in range(inst.n):
                for psi in histories:
                    expected = explicit_delta(ref, inst.prior, psi, e).hex()
                    assert ctx.delta(e, psi).hex() == expected
                    assert marginal_utility(f, inst.prior, psi, e).hex() == expected

    @pytest.mark.parametrize("explicit", [False, True], ids=["independent", "explicit"])
    @pytest.mark.parametrize("universe", [core._TABLE_MAX_UNIVERSE,
                                          core._TABLE_MAX_UNIVERSE + 1])
    def test_pricing_function_is_the_two_evaluation_formula(self, universe, explicit):
        # The function f.state() makes for a covered mask, called with an
        # item's posterior at any history covering that mask, gives
        # explicit_delta's float to the bit: from the weight table at 16
        # elements, from the summation loop and its memo at 17.
        inst = generate_coverage(n=6, m=2, universe_size=universe, density=0.3, seed=universe)
        prior = ExplicitPrior(inst.prior.support()) if explicit else inst.prior
        f, ref = inst.utility(), inst.utility()
        histories = list(enumerate_partial_realizations(prior))
        for psi in histories:
            gain = f.state(f.covered(psi))
            # Only the summation path keeps a gain memo.
            assert ("memo" in gain.__code__.co_freevars) == (f._table is None)
            for e in range(inst.n):
                if e not in psi:
                    expected = explicit_delta(ref, prior, psi, e).hex()
                    assert gain(e, prior.item_posterior(e, psi)).hex() == expected
        assert len(f._states) < len(histories)

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


def low_to_high(weights, mask):
    """The weights of mask's bits, added low bit to high."""
    total = 0.0
    for x, w in enumerate(weights):
        if mask >> x & 1:
            total += w
    return total


class TestWeightTable:
    @pytest.mark.parametrize("universe", [0, 1, 8, 15, 16])
    def test_every_mask_weight_is_the_low_to_high_sum(self, universe):
        # Weights of many magnitudes, so that the order of addition shows in
        # the low bits, with every fourth one 0.0.
        rng = random.Random(universe)
        weights = [0.0 if x % 4 == 1 else rng.uniform(0.0, 10.0) ** rng.choice((1, 3))
                   for x in range(universe)]
        f = CoverageUtility(weights, [[0, (1 << universe) - 1]])
        assert f._table is not None
        for mask in range(1 << universe):
            assert f._mask_weight(mask).hex() == low_to_high(f.weights, mask).hex()

    def test_utilities_with_equal_weights_share_one_table(self):
        inst = generate_coverage(n=10, m=2, universe_size=16, density=0.2, seed=3)
        f, g = inst.utility(), CoverageUtility(list(inst.utility_spec["weights"]), [[0, 1]])
        assert f._table is g._table
        assert CoverageUtility([1.0] * 17, [[0, 1]])._table is None

    def test_tables_no_utility_holds_stay_within_their_bound(self):
        # More distinct 16-element weight vectors than the bound: once their
        # utilities are gone, at most the bound's worth of tables is alive.
        tables = []
        for i in range(core._WEIGHT_TABLES_MAX + 3):
            f = CoverageUtility([i + 0.5] + [1.0] * 15, [[0, 1]])
            assert len(f._table) == 1 << 16
            tables.append(weakref.ref(f._table))
        del f
        alive = [ref() for ref in tables if ref() is not None]
        assert len(alive) <= core._WEIGHT_TABLES_MAX

    @pytest.mark.parametrize("universe", [core._TABLE_MAX_UNIVERSE,
                                          core._TABLE_MAX_UNIVERSE + 1])
    def test_a_priced_utility_is_freed_without_the_cycle_collector(self, universe):
        # A pricing function that held its utility would make the utility and
        # its states a cycle that only a gc pass frees.
        inst = generate_coverage(n=6, m=2, universe_size=universe, density=0.3, seed=1)
        f = inst.utility()
        marginal_utility(f, inst.prior, PartialRealization.of({1: 0}), 0)
        assert f._states
        gc.disable()
        try:
            alive = weakref.ref(f)
            del f
            assert alive() is None
        finally:
            gc.enable()


def assert_same_rollout(pi, inst, seed):
    """A rollout's trace and Delta count equal those of an explicit_delta rollout."""
    phi = sample_realization(inst.prior, random.Random(seed))
    f, ref = inst.utility(), inst.utility()
    trace = run_policy(pi, f, inst.prior, phi, seed=seed)
    ref_trace = pi.run_on(ExplicitDeltaContext(ref, inst.prior, seed=seed), phi)
    assert trace == ref_trace
    assert f.delta_counter == ref.delta_counter


class CountingContext(EvalContext):
    """An EvalContext that counts calls of its delta(), as the benchmark's
    traced runs count calls of EvalContext.delta."""

    calls = 0

    def delta(self, e, psi):
        CountingContext.calls += 1
        return super().delta(e, psi)


@pytest.fixture
def counting(monkeypatch):
    """CountingContext in place of EvalContext wherever the package makes one."""
    monkeypatch.setattr(CountingContext, "calls", 0)
    for module in (core, evaluation, policies, verify):
        monkeypatch.setattr(module, "EvalContext", CountingContext)
    return CountingContext


class TestOneCallPerTick:
    """Every delta_counter tick is one EvalContext.delta call: the benchmark
    fails a traced job whose count of those calls differs from the counters."""

    @pytest.mark.parametrize("universe", [12, 17])
    @pytest.mark.parametrize("pi", [adaptive_stochastic_greedy(8, 0.1),
                                    adaptive_greedy(8, "lazy"), adaptive_greedy(8)],
                             ids=lambda pi: pi.name)
    def test_n1000_rollouts(self, counting, pi, universe):
        # Universes on both sides of the weight-table cap.
        inst = generate_coverage(n=1000, m=2, universe_size=universe, density=0.2, seed=77)
        f = inst.utility()
        run_policy(pi, f, inst.prior, sample_realization(inst.prior, random.Random(1)), seed=1)
        assert counting.calls == f.delta_counter > 0

    @pytest.mark.parametrize("pi", [adaptive_stochastic_greedy(2, 0.3),
                                    generalized_asg([[0, 1, 2], [3, 4, 5]], [1, 1], 0.3)],
                             ids=lambda pi: pi.name)
    def test_unseeded_exact_evaluation(self, counting, pi):
        inst = generate_coverage(n=6, m=2, universe_size=6, density=0.3, seed=2)
        f = inst.utility()
        exact_policy_value(pi, f, inst.prior)
        assert counting.calls == f.delta_counter > 0

    def test_marginal_utility(self, counting):
        inst = generate_coverage(n=6, m=2, universe_size=6, density=0.3, seed=2)
        f = inst.utility()
        for psi in (PSI_EMPTY, PartialRealization.of({1: 0, 4: 1})):
            for e in range(inst.n):
                marginal_utility(f, inst.prior, psi, e)
        assert counting.calls == f.delta_counter == 2 * inst.n

    @pytest.mark.parametrize("check", [verify.check_adaptive_monotone,
                                       verify.check_adaptive_submodular],
                             ids=["monotone", "submodular"])
    def test_delta_checkers(self, counting, check):
        inst = generate_coverage(n=4, m=2, universe_size=6, density=0.3, seed=2)
        f = inst.utility()
        check(f, inst.prior)
        assert counting.calls == f.delta_counter > 0


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
