import itertools
import math
import os
import random
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from adasub import (
    CardinalityConstraint,
    ExplicitPrior,
    IndependentPrior,
    Instance,
    InstanceTooLarge,
    PSI_EMPTY,
    PartialRealization,
    TabularUtility,
    ValidationError,
    check_adaptive_monotone,
    check_adaptive_submodular,
    check_fully_adaptive_submodular,
    complementarity_counterexample,
    generate_coverage,
    lemma1_check,
    marginal_utility,
    monotonicity_counterexample,
    restricted_optimal,
)
from adasub import verify
from adasub.core import CoverageUtility, EvalContext, condition, subrealization
from adasub.oracle import OracleCaps, RestrictedOracle
from adasub.verify import INEQ_TOL, CheckReport, enumerate_partial_realizations


@pytest.mark.parametrize("explicit", [False, True])
def test_enumeration_yields_exactly_the_possible_histories(explicit):
    # Item 1 is never in state 0; the explicit support also ties item 2 to item 0.
    prior = IndependentPrior([[0.5, 0.5], [0.0, 1.0], [0.3, 0.7]])
    if explicit:
        prior = ExplicitPrior([((0, 1, 0), 0.5), ((1, 1, 1), 0.5)])
    every = [PartialRealization(tuple(zip(dom, states)))
             for size in range(4) for dom in itertools.combinations(range(3), size)
             for states in itertools.product(range(2), repeat=size)]
    assert list(enumerate_partial_realizations(prior)) == [
        psi for psi in every if prior.evidence_probability(psi) > 0.0]


def explicit_priors():
    """Correlated priors, some with zero-mass realizations, and the counterexamples'."""
    priors = [monotonicity_counterexample().prior, complementarity_counterexample().prior]
    for seed, (n, m, size) in enumerate([(3, 2, 5), (3, 3, 9), (4, 2, 10), (5, 2, 12)] * 3):
        rng = random.Random(seed)
        support = rng.sample(list(itertools.product(range(m), repeat=n)), size)
        weights = [rng.choice((0.0, rng.uniform(0.5, 1.5))) for _ in support]
        weights[0] = 1.0
        total = sum(weights)
        priors.append(ExplicitPrior([(phi, w / total) for phi, w in zip(support, weights)]))
    return priors


@pytest.mark.parametrize("prior", explicit_priors())
def test_explicit_enumeration_is_the_definitional_filter(prior):
    n = prior.n
    every = [PartialRealization(tuple(zip(dom, states)))
             for size in range(n + 1) for dom in itertools.combinations(range(n), size)
             for states in itertools.product(*(prior.item_states(e) for e in dom))]
    assert list(enumerate_partial_realizations(prior)) == [
        psi for psi in every if prior.possible(psi)]
    assert list(enumerate_partial_realizations(prior, max_size=1)) == [
        psi for psi in every if len(psi.pairs) <= 1 and prior.possible(psi)]


def test_sweeps_check_each_explicit_history_once(monkeypatch):
    # The enumeration reads the support and checks nothing, and the sweeps
    # trust what it yields: every history it builds has positive mass.
    inst = generate_coverage(n=6, m=2, universe_size=6, density=0.3, seed=3)
    prior = ExplicitPrior(inst.prior.support())
    calls = []
    possible = ExplicitPrior.possible

    def counting(self, psi):
        calls.append(psi)
        return possible(self, psi)

    monkeypatch.setattr(ExplicitPrior, "possible", counting)
    histories = list(enumerate_partial_realizations(prior))
    assert calls == []
    with_pool = sum(len(psi.pairs) < prior.n for psi in histories)
    assert with_pool == 665
    for check, pairs in ((check_adaptive_monotone, 1458), (check_adaptive_submodular, 18750)):
        del calls[:]
        report = check(inst.utility(), prior)
        assert report.passed and report.pairs_checked == pairs
        assert calls == [], check.__name__


def test_sweeps_check_an_independent_prior_at_most_once(monkeypatch):
    # Each history's evidence check is its last observation's mass, carried
    # from its parent; at most the empty history is checked in full.
    inst = generate_coverage(n=6, m=2, universe_size=6, density=0.3, seed=3)
    calls = []
    possible = IndependentPrior.possible

    def counting(self, psi):
        calls.append(psi)
        return possible(self, psi)

    monkeypatch.setattr(IndependentPrior, "possible", counting)
    for check, pairs in ((check_adaptive_monotone, 1458), (check_adaptive_submodular, 18750)):
        del calls[:]
        report = check(inst.utility(), inst.prior)
        assert report.passed and report.pairs_checked == pairs
        assert len(calls) <= 1, check.__name__


@pytest.mark.parametrize("prior", [
    # item 1 has a state of zero mass, which no history observes
    IndependentPrior([[0.5, 0.5], [0.0, 1.0], [0.3, 0.7], [0.6, 0.4]]),
    # the first passes both checks; the second fails submodularity at |psi2| = 2
    explicit_priors()[6], explicit_priors()[9],
], ids=["independent", "explicit-passing", "explicit-failing"])
def test_descend_carries_what_a_history_built_from_scratch_has(prior, monkeypatch):
    inst = generate_coverage(n=prior.n, m=prior.m, universe_size=6, density=0.4, seed=prior.n)
    descend, delta = EvalContext.descend, EvalContext.delta

    def checked_descend(self, psi, covered):
        mask = descend(self, psi, covered)
        visited.append((psi, dict(self._seen), self._covered, mask))
        return mask

    def recorded_delta(self, e, psi):
        d = delta(self, e, psi)
        priced.append((psi, e, d, self._fstate))
        return d

    for check in (check_adaptive_monotone, check_adaptive_submodular):
        f, visited, priced = inst.utility(), [], []
        with monkeypatch.context() as patch:
            patch.setattr(EvalContext, "descend", checked_descend)
            patch.setattr(EvalContext, "delta", recorded_delta)
            check(f, prior)
        histories = list(enumerate_partial_realizations(prior))
        assert [psi for psi, *_ in visited] == histories[:len(visited)]
        for psi, observed, covered, returned in visited:
            assert observed == dict(psi.pairs)
            assert covered == returned == f.covered(psi)
        assert priced
        for psi, e, d, state in priced:
            fresh = EvalContext(f, prior)
            assert fresh.delta(e, psi).hex() == d.hex()
            assert fresh._fstate is state
            assert marginal_utility(f, prior, psi, e).hex() == d.hex()


CHECKS = (check_adaptive_monotone, check_adaptive_submodular, check_fully_adaptive_submodular)


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)], ids=["listed", "reversed"])
@pytest.mark.parametrize("explicit", [False, True], ids=["independent", "explicit"])
def test_each_prior_walks_its_histories_once(explicit, order, monkeypatch):
    # Every check on a prior, and its enumeration, read one history table;
    # it holds nothing of a utility, so a second one reads it unchanged.
    inst = generate_coverage(n=4, m=2, universe_size=6, density=0.4, seed=4)

    def fresh():
        if explicit:
            return ExplicitPrior(explicit_priors()[8].weighted)
        return IndependentPrior(inst.prior.probs)

    covers = inst.utility().covers
    utilities = (inst.utility, lambda: CoverageUtility([0.25, 2.0, 1.0, 0.5, 3.0, 1.5], covers))
    expected = [[check(utility(), fresh()) for check in CHECKS] for utility in utilities]
    prior, built = fresh(), []

    def counting(pairs):
        built.append(pairs)
        return PartialRealization(pairs)

    monkeypatch.setattr(verify, "PartialRealization", counting)
    for i in order:
        for utility, reports in zip(utilities, expected):
            assert CHECKS[i](utility(), prior) == reports[i], (CHECKS[i].__name__, utility)
    histories = list(enumerate_partial_realizations(prior))
    assert built == [psi.pairs for psi in histories[1:]]    # all but the empty one, once each


def test_history_table_builds_no_size_past_what_is_read():
    prior = IndependentPrior([[0.5, 0.5]] * 40)
    assert len(list(enumerate_partial_realizations(prior, max_size=1))) == 1 + 40 * 2
    table = vars(prior)["_walk"]
    assert len(table.levels) == 2
    assert len(list(enumerate_partial_realizations(prior, max_size=2))) == 81 + 780 * 4
    assert vars(prior)["_walk"] is table and len(table.levels) == 3
    # a check that fails at the empty history builds no size past it
    inst = monotonicity_counterexample()
    assert not check_adaptive_monotone(inst.utility(), inst.prior).passed
    assert len(vars(inst.prior)["_walk"].levels) == 1


def test_a_conditioned_prior_enumerates_its_support_histories():
    base = IndependentPrior([[0.5, 0.5], [0.0, 1.0], [0.3, 0.7]])
    conditioned = condition(base, PartialRealization.of({0: 1}))
    assert list(enumerate_partial_realizations(conditioned)) == list(
        enumerate_partial_realizations(ExplicitPrior(conditioned.support())))
    assert "_walk" in vars(conditioned)    # kept on the frozen dataclass


class TestMonotoneChecker:
    def test_coverage_passes(self):
        inst = generate_coverage(n=5, m=2, universe_size=6, density=0.3, seed=0)
        report = check_adaptive_monotone(inst.utility(), inst.prior)
        assert report.passed
        assert report.pairs_checked > 0

    def test_constructed_violation(self):
        inst = monotonicity_counterexample()
        report = check_adaptive_monotone(inst.utility(), inst.prior)
        assert not report.passed
        w = report.counterexample
        assert w["psi"] == () and w["item"] == 0
        assert w["delta"] == pytest.approx(-1.0)
        # the witness re-verifies from scratch
        redone = marginal_utility(inst.utility(), inst.prior,
                                  PartialRealization(w["psi"]), w["item"])
        assert redone == pytest.approx(w["delta"])

    def test_single_item_instance(self):
        inst = generate_coverage(n=1, m=2, universe_size=4, density=0.5, seed=1)
        report = check_adaptive_monotone(inst.utility(), inst.prior)
        assert report.passed
        assert report.pairs_checked == 1

    def test_cap(self):
        inst = generate_coverage(n=9, m=2, universe_size=4, density=0.2, seed=2)
        with pytest.raises(InstanceTooLarge):
            check_adaptive_monotone(inst.utility(), inst.prior)


class TestSubmodularChecker:
    def test_instance_a_passes(self, utility_a, prior_a):
        assert check_adaptive_submodular(utility_a, prior_a).passed

    def test_coverage_passes(self):
        inst = generate_coverage(n=5, m=2, universe_size=6, density=0.3, seed=3)
        assert check_adaptive_submodular(inst.utility(), inst.prior).passed

    def test_complementarity_violation(self):
        inst = complementarity_counterexample()
        report = check_adaptive_submodular(inst.utility(), inst.prior)
        assert not report.passed
        w = report.counterexample
        assert w["delta_psi"] == pytest.approx(0.0)
        assert w["delta_psi2"] == pytest.approx(1.0)
        # re-verify both sides
        f = inst.utility()
        lhs = marginal_utility(f, inst.prior, PartialRealization(w["psi"]), w["item"])
        rhs = marginal_utility(f, inst.prior, PartialRealization(w["psi2"]), w["item"])
        assert lhs < rhs - 1e-9


class TestFullyAdaptiveChecker:
    def test_instance_a_passes(self, utility_a, prior_a):
        report = check_fully_adaptive_submodular(utility_a, prior_a)
        assert report.passed

    def test_singleton_reduction_agrees_with_item_marginals(self, utility_a, prior_a):
        # restricted value over a single item equals the positive part of its
        # marginal, so singleton-V comparisons reduce to the plain checker's
        psi2 = PartialRealization.of({0: 1})
        for e in (1,):
            lhs = restricted_optimal(utility_a, prior_a, PSI_EMPTY, (e,), 1)
            d = marginal_utility(utility_a, prior_a, PSI_EMPTY, e)
            assert lhs == pytest.approx(max(d, 0.0), abs=1e-12)
            rhs = restricted_optimal(utility_a, prior_a, psi2, (e,), 1)
            d2 = marginal_utility(utility_a, prior_a, psi2, e)
            assert rhs == pytest.approx(max(d2, 0.0), abs=1e-12)

    def test_submodularity_failure_implies_fully_failure(self):
        inst = complementarity_counterexample()
        report = check_fully_adaptive_submodular(inst.utility(), inst.prior)
        assert not report.passed

    def test_cap(self):
        inst = generate_coverage(n=6, m=2, universe_size=4, density=0.2, seed=4)
        with pytest.raises(InstanceTooLarge):
            check_fully_adaptive_submodular(inst.utility(), inst.prior)


class TestSamplingBound:
    def test_full_ground_set_always_hits(self):
        res = lemma1_check(10, 10, 0.5, trials=1000, seed=0)
        assert res.exact == pytest.approx(1.0)

    def test_reference_grid_point(self):
        # n=100, k=10, eps=0.05: sample of ceil(10 ln 20) = 30
        res = lemma1_check(100, 10, 0.05, trials=50_000, seed=1)
        assert res.sample_size == 30
        assert res.exact >= 0.95
        assert abs(res.empirical - res.exact) < 4 * res.standard_error + 1e-12

    def test_single_draw_limit(self):
        # eps close to 1 clamps the sample to one draw: hit probability k/n
        res = lemma1_check(10, 2, 0.99, trials=1000, seed=2)
        assert res.sample_size == 1
        assert res.exact == pytest.approx(0.2)

    def test_exact_dominates_with_replacement_bound(self):
        for n in (50, 100):
            for k in (5, 10):
                for eps in (0.3, 0.1):
                    res = lemma1_check(n, k, eps, trials=1, seed=0)
                    assert res.exact >= res.with_replacement_bound - 1e-12
                    assert res.with_replacement_bound >= res.bound - 1e-12

    def test_importing_adasub_loads_no_numpy(self):
        # lemma1_check's empirical loop and the sweeps import numpy when they run.
        src = Path(verify.__file__).resolve().parent.parent
        code = "import sys, adasub, adasub.cli; sys.exit('numpy' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                             timeout=60)
        assert res.returncode == 0

    def test_invalid_parameters(self):
        from adasub import ValidationError
        with pytest.raises(ValidationError):
            lemma1_check(10, 0, 0.1)
        with pytest.raises(ValidationError):
            lemma1_check(10, 2, 1.5)


    @pytest.mark.parametrize("seed,match", [
        (1.5, "seed must be an integer, got 1.5"), ("x", "seed must be an integer, got 'x'"),
        (True, "seed must be an integer, got True"), (None, "seed must be an integer, got None"),
        (-1, "seed must be >= 0")])
    def test_seed_must_be_a_nonnegative_int(self, seed, match):
        # numpy raised a bare TypeError or ValueError, took True as 1 and drew
        # OS entropy for None, so the empirical frequency was not reproducible.
        with pytest.raises(ValidationError, match="^%s$" % re.escape(match)):
            lemma1_check(10, 2, 0.1, trials=10, seed=seed)


# ---------------------------------------------------------------------------
# the checkers against sweeps written from the definitions


def noisy_tabular(seed, n=3):
    """A correlated tabular instance whose noise breaks the inequalities somewhere."""
    rng = random.Random(seed)
    support = rng.sample(list(itertools.product((0, 1), repeat=n)), 5)
    weights = [rng.uniform(0.5, 1.5) for _ in support]
    total = sum(weights)
    prior = ExplicitPrior([(phi, w / total) for phi, w in zip(support, weights)])
    table = [[sum(phi[e] for e in range(n) if mask >> e & 1) ** 0.5 + rng.uniform(0, 0.6)
              for phi in support] for mask in range(1 << n)]
    spec = {"type": "tabular", "realizations": [list(p) for p in support], "table": table}
    return Instance(n, 2, prior, spec, CardinalityConstraint(n), {"name": "noisy-%d" % seed})


def reference_instances():
    coverage = [generate_coverage(n=4, m=2, universe_size=6, density=0.3, seed=seed)
                for seed in range(10)]
    # seeds 4, 19 and 221 first fail submodularity at |psi| = 1 < |psi2| = 2,
    # past the comparisons with the empty history; at 221 only psi2 less its
    # second pair fails
    return coverage + [noisy_tabular(seed) for seed in (0, 1, 2, 3, 4, 19, 221)] + [
        monotonicity_counterexample(), complementarity_counterexample()]


def sub_histories(histories, psi2):
    """Every enumerated psi with psi a subrealization of psi2, in enumeration order."""
    return [psi for psi in histories if subrealization(psi, psi2)]


def reference_monotone(f, prior):
    """The monotone check with a fresh marginal_utility per comparison.

    Returns the report and the number of distinct (psi, e) Delta values priced.
    """
    checked = 0
    for psi in enumerate_partial_realizations(prior):
        for e in range(prior.n):
            if e in psi:
                continue
            checked += 1
            d = marginal_utility(f, prior, psi, e)
            if d < -INEQ_TOL:
                return CheckReport("adaptive-monotone", False, checked,
                                   {"psi": psi.pairs, "item": e, "delta": d}), checked
    return CheckReport("adaptive-monotone", True, checked), checked


def reference_submodular(f, prior):
    """The submodular check with a fresh marginal_utility per comparison."""
    histories = list(enumerate_partial_realizations(prior))
    priced, checked = set(), 0
    for psi2 in histories:
        priced |= {(psi2.pairs, e) for e in range(prior.n) if e not in psi2}
        for psi in sub_histories(histories, psi2):
            for e in range(prior.n):
                if e in psi2:
                    continue
                checked += 1
                lhs = marginal_utility(f, prior, psi, e)
                rhs = marginal_utility(f, prior, psi2, e)
                priced |= {(psi.pairs, e), (psi2.pairs, e)}
                if lhs < rhs - INEQ_TOL:
                    witness = {"psi": psi.pairs, "psi2": psi2.pairs, "item": e,
                               "delta_psi": lhs, "delta_psi2": rhs}
                    return CheckReport("adaptive-submodular", False, checked,
                                       witness), len(priced)
    return CheckReport("adaptive-submodular", True, checked), len(priced)


def reference_fully(f, prior, values):
    """The fully-adaptive check with a one-shot restricted_optimal per query.

    `values` collects every (psi pairs, items, a) query and its value; each
    is asked once, since a query's value does not depend on when it is asked.
    """
    caps = OracleCaps(max_items=5, max_states=2, max_budget=5)

    def best(psi, items, a):
        key = (psi.pairs, items, a)
        if key not in values:
            values[key] = restricted_optimal(f, prior, psi, items, a, caps=caps)
        return values[key]

    histories = list(enumerate_partial_realizations(prior))
    checked = 0
    for psi2 in histories:
        for psi in sub_histories(histories, psi2):
            for size in range(1, prior.n + 1):
                for items in itertools.combinations(range(prior.n), size):
                    for a in range(1, size + 1):
                        checked += 1
                        lhs, rhs = best(psi, items, a), best(psi2, items, a)
                        if lhs < rhs - INEQ_TOL:
                            witness = {"psi": psi.pairs, "psi2": psi2.pairs,
                                       "items": items, "budget": a,
                                       "value_psi": lhs, "value_psi2": rhs}
                            return CheckReport("fully-adaptive-submodular", False,
                                               checked, witness)
    return CheckReport("fully-adaptive-submodular", True, checked)


def instance_id(inst):
    return inst.metadata["name"]


@pytest.mark.parametrize("inst", reference_instances(), ids=instance_id)
def test_checkers_match_the_definitional_sweeps(inst):
    for check, reference in ((check_adaptive_monotone, reference_monotone),
                             (check_adaptive_submodular, reference_submodular)):
        f = inst.utility()
        expected, deltas = reference(inst.utility(), inst.prior)
        assert check(f, inst.prior) == expected
        assert f.delta_counter == deltas
    f = inst.utility()
    expected = reference_fully(inst.utility(), inst.prior, {})
    assert check_fully_adaptive_submodular(f, inst.prior) == expected
    assert f.delta_counter == 0


def test_noisy_instances_fail_past_the_first_comparison():
    # the reference sweeps above are only tested on order if some check fails late
    reports = [check(inst.utility(), inst.prior)
               for inst in (noisy_tabular(seed) for seed in range(4))
               for check in (check_adaptive_monotone, check_adaptive_submodular,
                             check_fully_adaptive_submodular)]
    assert sum(not r.passed and r.pairs_checked > 1 for r in reports) >= 6


def assert_checks_match_references(utility, prior):
    """All three checks equal the reference sweeps, Delta counts included."""
    for check, reference in ((check_adaptive_monotone, reference_monotone),
                             (check_adaptive_submodular, reference_submodular)):
        f = utility()
        expected, deltas = reference(utility(), prior)
        assert check(f, prior) == expected
        assert f.delta_counter == deltas
    f = utility()
    if prior.m > verify.FULLY_ADAPTIVE_CAPS.max_states:
        with pytest.raises(InstanceTooLarge):
            check_fully_adaptive_submodular(f, prior)
    else:
        assert check_fully_adaptive_submodular(f, prior) == reference_fully(utility(), prior, {})
    assert f.delta_counter == 0


@pytest.mark.parametrize("prior", explicit_priors())
def test_checkers_match_the_definitional_sweeps_on_coverage_under_explicit_priors(prior):
    # Zero-mass realizations leave lattice entries no enumerated history
    # fills, and m=3 widens each item's digit; correlation makes some
    # coverage instances fail adaptive submodularity.
    inst = generate_coverage(n=prior.n, m=prior.m, universe_size=6, density=0.4, seed=prior.n)
    assert_checks_match_references(inst.utility, prior)


@pytest.mark.parametrize("seed", range(40))
def test_checkers_match_the_definitional_sweeps_on_noisy_seeds(seed):
    inst = noisy_tabular(seed)
    assert_checks_match_references(inst.utility, inst.prior)


def planted_tabular(level, n=4):
    """An instance whose first submodularity failure is at |psi2| = level - 1.

    f(A, phi) = g(|A|) with gains 8, 4, 2, 1 whatever phi, plus a bump of
    twice the gain g(level) - g(level - 1) on the set {0, ..., level - 1}:
    Delta(e | that set less e) then exceeds the gain at |psi| = level - 2 but
    not the gains below it, so for level > 2 only the lattice minimum sees it.
    """
    gains = [2.0 ** (n - 1 - j) for j in range(n)]
    bump = 2 * gains[level - 1]
    support = list(itertools.product((0, 1), repeat=n))
    table = [[sum(gains[:mask.bit_count()]) + (bump if mask == (1 << level) - 1 else 0.0)]
             * len(support) for mask in range(1 << n)]
    prior = ExplicitPrior([(phi, 1 / len(support)) for phi in support])
    spec = {"type": "tabular", "realizations": [list(p) for p in support], "table": table}
    return Instance(n, 2, prior, spec, CardinalityConstraint(n), {"name": "planted-%d" % level})


@pytest.mark.parametrize("level", (2, 3, 4))
def test_planted_failures_land_at_every_level(level):
    inst = planted_tabular(level)
    assert_checks_match_references(inst.utility, inst.prior)
    w = check_adaptive_submodular(inst.utility(), inst.prior).counterexample
    assert (len(w["psi2"]), len(w["psi"])) == (level - 1, level - 2)


def pinned_failures():
    """Three instances whose checks fail, with each check's pinned report
    fields (passed, pairs_checked, witness) and Delta count."""
    deep = explicit_priors()[9]         # fails submodularity at |psi2| = 2
    inst = monotonicity_counterexample()
    yield "monotonicity", inst.utility, inst.prior, [
        (False, 1, {"psi": (), "item": 0, "delta": -1.0}, 1),
        (True, 1, None, 1),
        (True, 3, None, 0)]
    inst = complementarity_counterexample()
    yield "complementarity", inst.utility, inst.prior, [
        (True, 4, None, 4),
        (False, 3, {"psi": (), "psi2": ((0, 0),), "item": 1,
                    "delta_psi": 0.0, "delta_psi2": 1.0}, 3),
        (False, 6, {"psi": (), "psi2": ((0, 0),), "items": (1,), "budget": 1,
                    "value_psi": 0.0, "value_psi2": 1.0}, 0)]
    coverage = generate_coverage(n=5, m=2, universe_size=6, density=0.4, seed=5)
    yield "explicit-9", coverage.utility, deep, [
        (True, 237, None, 237),
        (False, 81, {"psi": ((0, 0),), "psi2": ((0, 0), (1, 0)), "item": 2,
                     "delta_psi": 0.8364575638136327,
                     "delta_psi2": 1.2951940000000004}, 44),
        (False, 1603, {"psi": ((0, 0),), "psi2": ((0, 0), (1, 0)), "items": (2,),
                       "budget": 1, "value_psi": 0.8364575638136325,
                       "value_psi2": 1.2951940000000004}, 0)]


@pytest.mark.parametrize("label, utility, prior, pinned", pinned_failures(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_failing_checks_keep_their_witness_and_counts(label, utility, prior, pinned):
    checks = (check_adaptive_monotone, check_adaptive_submodular,
              check_fully_adaptive_submodular)
    for check, (passed, pairs, witness, deltas) in zip(checks, pinned):
        f = utility()
        report = check(f, prior)
        assert (report.passed, report.pairs_checked, report.counterexample) == (
            passed, pairs, witness), check.__name__
        assert f.delta_counter == deltas, check.__name__


def test_caps_corner_passes_with_closed_form_counts():
    # n * (m+1)^(n-1) monotone and n * (2m+1)^(n-1) submodular comparisons:
    # each item outside psi2, for each of psi2's 2^|psi2| sub-histories.
    n, m = verify.DELTA_CHECK_CAPS.max_items, verify.DELTA_CHECK_CAPS.max_states
    inst = generate_coverage(n=n, m=m, universe_size=8, density=0.3, seed=1)
    f = inst.utility()
    monotone = check_adaptive_monotone(f, inst.prior)
    submodular = check_adaptive_submodular(f, inst.prior)
    assert monotone.passed and monotone.pairs_checked == n * (m + 1) ** (n - 1) == 131_072
    assert submodular.passed and submodular.pairs_checked == n * (2 * m + 1) ** (n - 1) == 6_588_344


# ---------------------------------------------------------------------------
# Delta rows kept on f by a passing Delta check


DELTA_CHECKS = (check_adaptive_monotone, check_adaptive_submodular)


def kept_rows_cases():
    """(id, utility maker, prior): the reference instances, coverage under
    the explicit priors and the noisy tabular seeds."""
    cases = [(instance_id(inst), inst.utility, inst.prior) for inst in reference_instances()]
    for i, prior in enumerate(explicit_priors()):
        inst = generate_coverage(n=prior.n, m=prior.m, universe_size=6, density=0.4, seed=prior.n)
        cases.append(("explicit-%d" % i, inst.utility, prior))
    for seed in range(40):
        inst = noisy_tabular(seed)
        cases.append((instance_id(inst), inst.utility, inst.prior))
    return cases


@pytest.mark.parametrize("order", [DELTA_CHECKS, DELTA_CHECKS[::-1]],
                         ids=["monotone-first", "submodular-first"])
@pytest.mark.parametrize("label, utility, prior", kept_rows_cases(),
                         ids=[case[0] for case in kept_rows_cases()])
def test_a_passing_delta_check_keeps_its_rows_for_the_other(label, utility, prior, order,
                                                            monkeypatch):
    # Each report on one f equals its report on a fresh f; the second check
    # prices nothing after a passing first one, and all of its Deltas after a
    # failing one, which keeps no rows.
    fresh = {}
    for check in DELTA_CHECKS:
        g = utility()
        fresh[check] = (check(g, prior), g.delta_counter)
    sweeps, sweep = [], verify._sweep      # (its row store, its row calls) per sweep

    def recorded_sweep(name, prior, columns, row, witness, rows):
        calls = []
        sweeps.append((rows, calls))

        def counted_row(psi, key):
            calls.append(psi)
            return row(psi, key)
        return sweep(name, prior, columns, counted_row, witness, rows)

    monkeypatch.setattr(verify, "_sweep", recorded_sweep)
    f, (first, second) = utility(), order
    assert first(f, prior) == fresh[first][0]
    assert f.delta_counter == fresh[first][1]
    kept = f._delta_rows
    assert second(f, prior) == fresh[second][0]
    assert f.delta_counter - fresh[first][1] == (0 if kept else fresh[second][1])
    (store, calls), = sweeps                # the submodular check's one sweep
    if first is check_adaptive_submodular:
        assert kept is None or kept[1] is store     # keeps the very store it filled
    elif kept:
        assert store is kept[1] and calls == []     # reads the kept rows in place
    if not fresh[first][0].passed:
        assert kept is None
        return
    table, rows = kept
    assert table is vars(prior)["_walk"]
    assert f._delta_rows is kept        # a reader stores nothing
    histories = list(enumerate_partial_realizations(prior))
    assert len(rows) == len(histories) * prior.n
    for i, psi in enumerate(histories):
        for e in range(prior.n):
            expected = -math.inf if e in psi else marginal_utility(utility(), prior, psi, e)
            assert rows[i * prior.n + e].hex() == expected.hex(), (psi, e)


@pytest.mark.parametrize("explicit", [False, True], ids=["independent", "explicit"])
def test_kept_rows_serve_only_their_own_prior_object(explicit, monkeypatch):
    inst = generate_coverage(n=4, m=2, universe_size=6, density=0.4, seed=4)

    def fresh():
        if explicit:
            return ExplicitPrior(inst.prior.support())
        return IndependentPrior(inst.prior.probs)

    expected = []
    for check in DELTA_CHECKS:
        g = inst.utility()
        expected.append((check(g, fresh()), g.delta_counter))
    assert all(report.passed for report, _ in expected)
    calls = []
    delta = EvalContext.delta

    def counting(self, e, psi):
        calls.append((psi, e))
        return delta(self, e, psi)

    monkeypatch.setattr(EvalContext, "delta", counting)
    f, prior = inst.utility(), fresh()
    assert check_adaptive_monotone(f, prior) == expected[0][0]
    assert len(calls) == f.delta_counter == expected[0][1]
    del calls[:]
    assert check_adaptive_submodular(f, prior) == expected[1][0]
    assert calls == [] and f.delta_counter == expected[0][1]     # read, not priced
    # a prior with equal probabilities is another table: priced afresh, and
    # its rows replace the first prior's
    for check, (report, deltas) in zip(DELTA_CHECKS[::-1], expected[::-1]):
        twin, before = fresh(), f.delta_counter
        assert check(f, twin) == report
        assert len(calls) == f.delta_counter - before == deltas
        assert f._delta_rows[0] is vars(twin)["_walk"]
        del calls[:], twin
    # the kept table is held by f, so a prior made after the last one is
    # gone (maybe at its address) still prices afresh
    before = f.delta_counter
    assert check_adaptive_monotone(f, fresh()) == expected[0][0]
    assert f.delta_counter - before == expected[0][1]


def test_utility_copies_carry_no_kept_rows():
    inst = generate_coverage(n=4, m=2, universe_size=6, density=0.3, seed=0)
    f = inst.utility()
    assert f._delta_rows is None
    assert check_adaptive_monotone(f, inst.prior).passed
    assert f._delta_rows is not None
    for copy in (inst.utility(), f._fresh()):
        assert copy._delta_rows is None and "_delta_rows" not in vars(copy)
        before = check_adaptive_submodular(copy, inst.prior)
        assert before.passed and copy.delta_counter > 0


def reference_sweep(prior, values):
    """_sweep's report, deciding every (psi, psi2) pair and compared column in turn."""
    histories = list(enumerate_partial_realizations(prior))
    checked = 0
    for psi2 in histories:
        for psi in sub_histories(histories, psi2):
            for i, rhs in enumerate(values(psi2)):
                if rhs == -math.inf:
                    continue
                checked += 1
                lhs = values(psi)[i]
                if lhs < rhs - INEQ_TOL:
                    return CheckReport("boundary", False, checked, {
                        "psi": psi.pairs, "psi2": psi2.pairs, "column": i,
                        "lhs": lhs, "rhs": rhs})
    return CheckReport("boundary", True, checked)


def test_sweep_screen_keeps_the_tolerance_boundary():
    # psi2 = ((0, 1), (1, 0)) reads low = 2.0, the value of its sub-history
    # ((1, 0),), in column 0, and fails exactly when low < rhs - INEQ_TOL.
    # Column 1 is compared at every history without (0, 0) and never fails.
    # rhs runs from low itself (the screen low < rhs fires, the bound does
    # not) through the ulps on both sides of low + INEQ_TOL.
    prior = IndependentPrior([[0.5, 0.5], [0.5, 0.5]])
    low, psi2 = 2.0, ((0, 1), (1, 0))
    steps, up, down = [], low + INEQ_TOL, low + INEQ_TOL
    for _ in range(6):
        steps += [up, down]
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
    verdicts = set()
    for rhs in [low, math.nextafter(low, math.inf)] + steps:
        first = {(): 3.0, ((1, 0),): low, psi2: rhs}

        def values(psi):
            default = 2.5 if len(psi.pairs) == 1 else 1.0
            return [first.get(psi.pairs, default), -math.inf if (0, 0) in psi.pairs else 4.0]

        report = verify._sweep("boundary", prior, range(2), lambda psi, key: (values(psi), key),
                               lambda i, lhs, rhs: {"column": i, "lhs": lhs, "rhs": rhs},
                               array("d"))
        assert report.passed == (not low < rhs - INEQ_TOL), rhs
        assert report == reference_sweep(prior, values), rhs
        verdicts.add(report.passed)
        if not report.passed:
            assert report.counterexample == {"psi": ((1, 0),), "psi2": psi2, "column": 0,
                                             "lhs": low, "rhs": rhs}
    assert verdicts == {True, False}


def fully_adaptive_rows(monkeypatch, on_row, on_value):
    """Patch the fully-adaptive check's sweep and oracle reads: on_row(psi,
    root) sees each history's carried root as its row returns it, and
    on_value(psi, root, free, budget) each value read, psi the history whose
    row makes it."""
    sweep, value, at = verify._sweep, RestrictedOracle.value, [None]

    def recorded_sweep(name, prior, columns, row, witness, rows):
        def recorded_row(psi, key):
            at[0] = psi
            values, root = row(psi, key)
            on_row(psi, root)
            return values, root
        return sweep(name, prior, columns, recorded_row, witness, rows)

    def recorded_value(self, root, free, budget):
        on_value(at[0], root, free, budget)
        return value(self, root, free, budget)

    monkeypatch.setattr(verify, "_sweep", recorded_sweep)
    monkeypatch.setattr(RestrictedOracle, "value", recorded_value)


def test_fully_adaptive_check_queries_each_distinct_key_once(monkeypatch):
    # A history with d observed items and r = 4 - d free ones has r * 2^(r-1)
    # keys (W, b) with W nonempty, plus (0, 0) when some V lies in dom psi:
    # 32 + 8 * 13 + 24 * 5 + 32 * 2 + 16 * 1 = 336 of the 81 * 32 = 2,592 columns.
    calls = []
    fully_adaptive_rows(monkeypatch, lambda psi, root: None,
                        lambda psi, root, free, budget: calls.append((psi.pairs, free, budget)))
    inst = generate_coverage(n=4, m=2, universe_size=6, density=0.3, seed=0)
    report = check_fully_adaptive_submodular(inst.utility(), inst.prior)
    assert report.passed and report.pairs_checked == 20_000
    assert len(calls) == len(set(calls)) == 336


def modular_tabular():
    """A tabular utility, modular in its items, under an independent prior."""
    prior = IndependentPrior([[0.5, 0.5], [0.2, 0.8], [0.7, 0.3]])
    support = list(itertools.product((0, 1), repeat=3))
    table = [[sum((1 + phi[e]) * (e + 1) for e in range(3) if mask >> e & 1) for phi in support]
             for mask in range(8)]
    return TabularUtility(3, support, table), prior


def coverage_n4(explicit):
    inst = generate_coverage(n=4, m=2, universe_size=6, density=0.3, seed=0)
    return inst.utility(), ExplicitPrior(inst.prior.support()) if explicit else inst.prior


@pytest.mark.parametrize("make", [lambda: coverage_n4(False), lambda: coverage_n4(True),
                                  modular_tabular],
                         ids=["coverage-independent", "coverage-explicit-twin", "tabular"])
def test_fully_adaptive_sweep_carries_each_history_root(monkeypatch, make):
    # Each history's root key, carried from its parent's through child, is
    # (the bits of dom psi, the OR of bits[e][o] over psi's pairs), and every
    # value read of its row is made at it.
    f, prior = make()
    rows, reads = [], []
    fully_adaptive_rows(monkeypatch, lambda psi, root: rows.append((psi, root)),
                        lambda psi, root, free, budget: reads.append((psi, root)))
    assert check_fully_adaptive_submodular(f, prior).passed
    assert [psi for psi, _ in rows] == list(enumerate_partial_realizations(prior))
    oracle = RestrictedOracle(f, prior)     # the check's bits[e][o]
    for psi, root in rows:
        dom, state = 0, 0
        for e, o in psi.pairs:
            dom, state = dom | 1 << e, state | oracle.bits[e][o]
        assert root == (dom, state), psi
        if oracle.coverage:
            assert state == f.covered(psi), psi
        else:
            assert oracle._history(state) == psi, psi
    carried = dict(rows)
    assert reads and all(root == carried[psi] for psi, root in reads)


def reachable_states(f, prior, queries):
    """Distinct non-leaf (covered mask, V minus dom psi, clamped budget) oracle
    keys the queries reach, for coverage under an independent prior.  A key
    with no budget left is a leaf, which the oracle prices as its stop."""
    seen, keys = set(), set()
    stack = [(psi, frozenset(items) - set(psi.domain()), a) for psi, items, a in queries]
    while stack:
        psi, rest, a = stack.pop()
        a = min(a, len(rest))
        if (psi.pairs, rest, a) in seen:
            continue
        seen.add((psi.pairs, rest, a))
        if not a:
            continue
        keys.add((f.covered(psi), rest, a))
        for e in rest:
            for o, _ in prior.item_posterior(e, psi):
                stack.append((psi.with_observation(e, o), rest - {e}, a - 1))
    return keys


@pytest.mark.parametrize("inst", reference_instances(), ids=instance_id)
def test_shared_oracle_equals_fresh_restricted_optimal(inst):
    values = {}
    reference_fully(inst.utility(), inst.prior, values)
    keys = sorted(values)
    random.Random(0).shuffle(keys)
    oracle = RestrictedOracle(inst.utility(), inst.prior)
    for pairs, items, a in keys:
        assert oracle(PartialRealization(pairs), items, a) == values[pairs, items, a]


def test_fully_adaptive_check_expands_each_oracle_state_once(monkeypatch):
    made = []

    class Recorded(RestrictedOracle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(verify, "RestrictedOracle", Recorded)
    for seed in range(3):
        inst = generate_coverage(n=4, m=2, universe_size=6, density=0.3, seed=seed)
        assert check_fully_adaptive_submodular(inst.utility(), inst.prior).passed
        histories = list(enumerate_partial_realizations(inst.prior))
        queries = [(psi, items, a) for psi in histories
                   for size in range(1, 5) for items in itertools.combinations(range(4), size)
                   for a in range(1, size + 1)]
        bound = len(reachable_states(inst.utility(), inst.prior, queries))
        assert len(made[-1].memo) == bound < 1000
