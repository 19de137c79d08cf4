"""Cross-engine properties on generated coverage instances (n <= 6).

For every policy with an exact form, at the empty history: its
decision_distribution is a probability law, each seeded decide picks an item
that law can pick, its exact value is at most the oracle's optimum, and for one
fixed seed the seeded exact value equals the support-weighted mean of seeded
rollouts.
Along one path from the empty history, the law at depth j has
decision_widths(n)[j] items, and it is empty exactly when the widths run out.
Against sampling: each item's frequency among the seeded decides of a fixed
seed range is within 4 binomial standard errors of its mass in the law, and a
Monte Carlo estimate of the policy's value is within 4 of its standard errors
of the exact value.
Examples are derandomized, so every run checks the same instances.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from adasub import (
    PSI_EMPTY,
    adaptive_greedy,
    adaptive_stochastic_greedy,
    exact_policy_value,
    expected_utility,
    generalized_asg,
    generate_coverage,
    locally_greedy,
    optimal_value,
    random_policy,
    run_policy,
)
from adasub.core import EvalContext

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
SAMPLING = settings(SETTINGS, max_examples=20)
DRAWS = 400
EPSILONS = st.sampled_from([0.05, 0.3, 0.6])
SEED = 1


@st.composite
def coverage(draw):
    return dict(n=draw(st.integers(2, 6)), m=draw(st.integers(2, 3)),
                universe_size=draw(st.integers(3, 6)),
                density=draw(st.sampled_from([0.2, 0.35, 0.5])),
                seed=draw(st.integers(0, 10_000)))


@st.composite
def partitions(draw):
    """A coverage instance whose items are split into consecutive groups."""
    spec = draw(coverage())
    cuts = sorted(draw(st.sets(st.integers(1, spec["n"] - 1), max_size=2)))
    bounds = [0] + cuts + [spec["n"]]
    groups = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    limits = [draw(st.integers(1, min(2, len(g)))) for g in groups]
    order = draw(st.permutations(range(len(groups))))
    return spec, groups, limits, order


def check_policy(pi, inst):
    f, prior = inst.utility(), inst.prior
    law = pi.decision_distribution(EvalContext(f, prior, seed=None), PSI_EMPTY)
    assert abs(sum(q for _, q in law) - 1.0) <= 1e-12, pi.describe()
    support = {e for e, q in law if q > 0.0}
    for seed in range(5):
        e = pi.decide(EvalContext(f, prior, seed=seed), PSI_EMPTY, {})[0]
        assert e in support, (pi.describe(), seed, e)
    opt = optimal_value(f, prior, pi.fresh_constraint(inst.n)).value
    assert exact_policy_value(pi, f, prior) <= opt + 1e-12, pi.describe()
    # The seeded tree against one seeded rollout per realization of the support.
    rolled = sum(p * run_policy(pi, f, prior, phi, seed=SEED).value
                 for phi, p in prior.support())
    assert abs(exact_policy_value(pi, f, prior, seed=SEED) - rolled) <= 1e-12, pi.describe()
    check_widths_along_a_path(pi, inst)


def check_widths_along_a_path(pi, inst):
    """Follow the law's top-ranked item on one sampled realization."""
    widths = pi.decision_widths(inst.n)
    phi = inst.prior.sample(random.Random(0))
    ctx = EvalContext(inst.utility(), inst.prior, seed=None)
    psi = PSI_EMPTY
    for j in range(len(widths) + 1):
        law = pi.decision_distribution(ctx, psi)
        if j == len(widths):
            assert law == [], (pi.describe(), j)
            return
        assert len(law) == widths[j], (pi.describe(), j)
        e = law[0][0]
        psi = psi.with_observation(e, phi[e])


@given(coverage(), st.integers(1, 3), EPSILONS)
@SETTINGS
def test_cardinality_policies(spec, k, eps):
    inst = generate_coverage(**spec, k=k)
    for pi in (adaptive_greedy(k), adaptive_greedy(k, "lazy"),
               adaptive_stochastic_greedy(k, eps), random_policy(k)):
        check_policy(pi, inst)


@given(partitions(), EPSILONS)
@SETTINGS
def test_partition_policies(case, eps):
    spec, groups, limits, order = case
    inst = generate_coverage(**spec, groups=groups, limits=limits)
    for pi in (locally_greedy(groups, limits, order),
               generalized_asg(groups, limits, eps, order)):
        check_policy(pi, inst)


def check_against_sampling(pi, inst):
    f, prior = inst.utility(), inst.prior
    law = dict(pi.decision_distribution(EvalContext(f, prior, seed=None), PSI_EMPTY))
    counts = dict.fromkeys(law, 0)
    for seed in range(DRAWS):
        counts[pi.decide(EvalContext(f, prior, seed=seed), PSI_EMPTY, {})[0]] += 1
    for e, q in law.items():
        se = math.sqrt(q * (1.0 - q) / DRAWS)
        assert abs(counts[e] / DRAWS - q) <= 4 * se + 1e-12, (pi.describe(), e, q, counts)
    mean, se = expected_utility(f, prior, pi, mode="mc", samples=DRAWS, seed=SEED)
    exact = exact_policy_value(pi, f, prior)
    assert abs(mean - exact) <= 4 * se + 1e-12, (pi.describe(), mean, se, exact)


@given(coverage(), st.integers(1, 3), EPSILONS)
@SAMPLING
def test_cardinality_laws_match_sampling(spec, k, eps):
    inst = generate_coverage(**spec, k=k)
    for pi in (adaptive_stochastic_greedy(k, eps), random_policy(k)):
        check_against_sampling(pi, inst)


@given(partitions(), EPSILONS)
@SAMPLING
def test_partition_laws_match_sampling(case, eps):
    spec, groups, limits, order = case
    inst = generate_coverage(**spec, groups=groups, limits=limits)
    check_against_sampling(generalized_asg(groups, limits, eps, order), inst)
