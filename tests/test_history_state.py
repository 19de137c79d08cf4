"""EvalContext's carried history state against its definition.

A rollout advances the context from each history to its child, carrying the
observed-item map, the pool of unobserved items, the covered mask and the
reprs behind rng_for's seed string.  At every history they must equal what
psi alone defines, and a history other than the current one, whose state is
built from scratch, must agree too.  f's Delta state belongs to f: f.state
builds it, and every history that covers the same mask, in any context on f,
prices from it.
"""

import copy
import math
import random

import pytest

from adasub import (
    CoverageUtility,
    ExplicitPrior,
    IndependentPrior,
    PSI_EMPTY,
    PartialRealization,
    ZeroProbabilityEvidence,
    adaptive_greedy,
    adaptive_stochastic_greedy,
    concat,
    generalized_asg,
    generate_coverage,
    locally_greedy,
    marginal_utility,
    policies,
    random_policy,
    run_policy,
)
from adasub import core
from adasub.core import EvalContext
from adasub.verify import enumerate_partial_realizations

GROUPS = [list(range(0, 12)), list(range(12, 30)), list(range(30, 40))]
POLICIES = [adaptive_stochastic_greedy(8, 0.2), adaptive_greedy(8, "lazy"), adaptive_greedy(8),
            random_policy(8), locally_greedy(GROUPS, [2, 3, 2], [1, 2, 0]),
            generalized_asg(GROUPS, [2, 3, 2], 0.2)]


def unobserved(n, psi):
    return [e for e in range(n) if e not in psi]


def draws(rng):
    return [rng.random() for _ in range(20)]


def reference_draws(seed, psi):
    return draws(random.Random("%s|%s" % (seed, psi.pairs)))


def assert_same_f_state(ctx, ref, psi):
    """The context's coverage state at psi, its pricing function, is
    f.state of the context's covered mask, and that mask is ref.covered(psi)
    for a utility ref with its own states.  The function prices every state
    of every item alone, and every item under a uniform posterior, to the
    bit of the two-evaluation formula on ref, whichever history primed it."""
    gain = ctx._fstate
    assert gain is ctx.f.state(ctx._covered)
    assert ctx._covered == ref.covered(psi)
    assert gain is not ref.state(ref.covered(psi))
    dom, fixed = psi.domain(), psi.as_dict()
    base = ref.value(dom, fixed)
    for e, row in enumerate(ref.covers):
        if e in psi:
            continue
        gains = [ref.value(dom + (e,), {**fixed, e: o}) - base for o in range(len(row))]
        for o, g in enumerate(gains):
            assert gain(e, [(o, 1.0)]).hex() == g.hex()
        posterior = [(o, 1.0 / len(row)) for o in range(len(row))]
        total = 0.0
        for (o, p), g in zip(posterior, gains):
            total += p * g
        assert gain(e, posterior).hex() == total.hex()


class CheckedContext(EvalContext):
    """An EvalContext that checks its state after every advance and keeps
    every history the rollout reached.

    It prices with its own shallow copy of f, given a Delta-state table of
    its own, and wraps the copy's state() to count the states built (the
    table's misses).  Each f state a history is priced from is checked
    against a separately built utility's (so that f's counters see only the
    rollout), and its covered mask is kept.  rng_for's stream is checked
    against the seed string at every history.
    """

    def __init__(self, f, prior, **kwargs):
        # A copy.copy of f shares f's Delta-state table: the reference is
        # built anew, and the copy that prices gets a table of its own.
        self.reference, f = type(f)(f.weights, f.covers), copy.copy(f)
        f._states = {}
        super().__init__(f, prior, **kwargs)
        self.histories = [PSI_EMPTY]
        self.built = 0
        self.priced = set()
        # The class's method: f may be another CheckedContext's copy (concat).
        state_of = type(f).state

        def state(covered):
            self.built += covered not in f._states
            return state_of(f, covered)

        f.state = state

    def _state(self):
        state = super()._state()
        assert_same_f_state(self, self.reference, self._psi)
        self.priced.add(self._covered)
        return state

    def rng_for(self, psi):
        assert draws(super().rng_for(psi)) == reference_draws(self.seed, psi)
        return super().rng_for(psi)

    def advance(self, psi, e, o):
        child = super().advance(psi, e, o)
        assert self.observed(child) == child.as_dict()
        assert self.pool(child) == unobserved(self.n, child)
        self.rng_for(child)
        self.histories.append(child)
        return child


def instance():
    return generate_coverage(n=40, m=3, universe_size=20, density=0.15, seed=12)


@pytest.mark.parametrize("pi", POLICIES, ids=lambda pi: pi.name)
def test_carried_state_matches_the_history(pi):
    inst = instance()
    for seed in range(3):
        phi = inst.prior.sample(random.Random(seed))
        ctx = CheckedContext(inst.utility(), inst.prior, seed=seed)
        trace = pi.run_on(ctx, phi)
        assert len(ctx.histories) == len(trace.steps) + 1 > 1
        plain = inst.utility()
        assert trace == run_policy(pi, plain, inst.prior, phi, seed=seed)
        # One state is built per covered mask priced, and none by the random
        # policy, which prices nothing.  Building calls no value(): the only
        # f evaluation is the trace's final value.
        assert ctx.built == len(ctx.priced)
        assert bool(ctx.priced) == (pi.name != "random")
        assert ctx.f.f_counter == plain.f_counter == 1
        assert ctx.f.delta_counter == plain.delta_counter


def test_other_histories_take_the_fallback():
    inst = instance()
    phi = inst.prior.sample(random.Random(4))
    f, ref = inst.utility(), inst.utility()
    ctx = CheckedContext(f, inst.prior, seed=4)
    adaptive_stochastic_greedy(8, 0.2).run_on(ctx, phi)
    current, ancestor = ctx.histories[-1], ctx.histories[3]
    e = unobserved(inst.n, current)[0]
    sibling = PartialRealization.of({**ctx.histories[4].as_dict(), e: (phi[e] + 1) % 3})
    for psi in (ancestor, sibling, PSI_EMPTY):
        assert draws(ctx.rng_for(psi)) == reference_draws(4, psi)     # not adopted
        assert ctx.pool(psi) == unobserved(inst.n, psi)
        assert draws(ctx.rng_for(psi)) == reference_draws(4, psi)     # adopted
        assert ctx.observed(psi) == psi.as_dict()
        for item in range(inst.n):
            assert ctx.delta(item, psi) == marginal_utility(ref, inst.prior, psi, item)
    # The rollout's last history is no longer current; advancing it rebuilds.
    child = ctx.advance(current, e, phi[e])
    assert ctx.pool(child) == unobserved(inst.n, child)
    assert ctx.delta(e, child) == 0.0


def test_advance_checks_the_new_observation_mass():
    prior = IndependentPrior([[1.0, 0.0], [0.5, 0.5], [0.25, 0.75]])
    f = CoverageUtility([1.0, 2.0, 3.0], [[0b001, 0b110], [0b010, 0b100], [0b100, 0b011]])
    ctx = EvalContext(f, prior)
    assert ctx.delta(2, PSI_EMPTY) == marginal_utility(f, prior, PSI_EMPTY, 2)
    possible = ctx.advance(PSI_EMPTY, 1, 1)
    assert ctx.delta(2, possible) == marginal_utility(f, prior, possible, 2)
    impossible = ctx.advance(possible, 0, 1)    # item 0's state 1 has no mass
    with pytest.raises(ZeroProbabilityEvidence):
        ctx.delta(2, impossible)


@pytest.mark.parametrize("pi", [adaptive_greedy(5, "lazy"), adaptive_stochastic_greedy(5, 0.2)],
                         ids=lambda pi: pi.name)
def test_concat_phases_do_not_share_state(pi, monkeypatch):
    contexts = []

    class Recorded(CheckedContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr(policies, "EvalContext", Recorded)
    inst = instance()
    phi = inst.prior.sample(random.Random(2))
    trace = run_policy(concat(pi, pi), inst.utility(), inst.prior, phi, seed=3)
    _, first, second = contexts
    for ctx, seed in ((first, "3/1"), (second, "3/2")):
        psi = ctx.histories[-1]
        assert ctx.seed == seed
        assert draws(EvalContext.rng_for(ctx, psi)) == reference_draws(seed, psi)
        assert ctx.observed(psi) == psi.as_dict()
        assert psi.domain() == run_policy(pi, inst.utility(), inst.prior, phi,
                                          seed=seed).selected
    assert first.observed(first.histories[-1]) is not second.observed(second.histories[-1])
    assert len(trace.steps) == 10


@pytest.mark.parametrize("seed", [0, "7/1", None])
def test_seed_string_at_the_edges(seed):
    inst = instance()
    ctx = EvalContext(inst.utility(), inst.prior, seed=seed)
    assert draws(ctx.rng_for(PSI_EMPTY)) == reference_draws(seed, PSI_EMPTY)
    ctx.pool(PSI_EMPTY)                              # now the current history
    assert draws(ctx.rng_for(PSI_EMPTY)) == reference_draws(seed, PSI_EMPTY)
    one = ctx.advance(PSI_EMPTY, 17, 2)
    assert one.pairs == ((17, 2),)
    assert draws(ctx.rng_for(one)) == reference_draws(seed, one)
    two = ctx.advance(one, 3, 0)                     # inserted before the first pair
    three = ctx.advance(two, 39, 1)
    assert three.pairs == ((3, 0), (17, 2), (39, 1))
    for psi in (two, three, PartialRealization.of({17: 2})):
        assert draws(ctx.rng_for(psi)) == reference_draws(seed, psi)


def test_contexts_on_one_utility_share_its_states(mask_sums):
    # The Delta states belong to the utility: a second context on f, and the
    # context marginal_utility makes, price from the state the first context
    # built, gain memo and all, while a context on an equal utility builds its own.
    inst = instance()
    assert inst.utility()._table is None      # 20 elements: the memo path
    f, other = inst.utility(), inst.utility()
    psi = PartialRealization.of({3: 1, 17: 0})
    contexts = [EvalContext(f, inst.prior), EvalContext(f, inst.prior, seed=5),
                EvalContext(other, inst.prior)]
    for ctx in contexts:
        assert ctx.delta(0, psi) == contexts[0].delta(0, psi)
    first, second, third = (ctx._fstate for ctx in contexts)
    assert first is second is f.state(f.covered(psi))
    assert third is other.state(f.covered(psi)) is not first
    assert len(f._states) == len(other._states) == 1
    del mask_sums[:]
    assert marginal_utility(f, inst.prior, psi, 0) == contexts[0].delta(0, psi)
    assert mask_sums == [] and len(f._states) == 1     # memo hits, no state built


@pytest.mark.parametrize("explicit", [False, True], ids=["independent", "explicit"])
@pytest.mark.parametrize("n,seed", [(4, 0), (5, 1), (6, 2), (6, 3)])
def test_states_shared_by_covered_mask_are_bit_exact(n, seed, explicit):
    # One context prices every history from scratch, so histories that cover
    # the same elements share one f state and its gain memo; each Delta must
    # equal a fresh context's to the bit, whatever history primed the memo.
    inst = generate_coverage(n=n, m=2, universe_size=6, density=0.3, seed=seed)
    prior = ExplicitPrior(inst.prior.support()) if explicit else inst.prior
    f, ref = inst.utility(), inst.utility()
    ctx = EvalContext(f, prior)
    histories = list(enumerate_partial_realizations(prior))
    for psi in histories:
        for e in range(n):
            assert ctx.delta(e, psi).hex() == marginal_utility(ref, prior, psi, e).hex()
        gain, dom, fixed = f.state(f.covered(psi)), psi.domain(), psi.as_dict()
        for e in unobserved(n, psi):
            for o in range(inst.m):
                g = ref.value(dom + (e,), {**fixed, e: o}) - ref.value(dom, fixed)
                assert gain(e, [(o, 1.0)]).hex() == g.hex()
    assert f.delta_counter == ref.delta_counter == n * len(histories)
    assert len(f._states) == len({f.covered(psi) for psi in histories}) < len(histories)


def test_shared_states_stay_within_their_cap():
    # With a large universe nearly every history covers its own mask, so the
    # shared states fill up; they are dropped at the cap and the Deltas that
    # follow must still equal a fresh context's to the bit.
    inst = generate_coverage(n=5, m=3, universe_size=200, density=0.3, seed=4)
    f, ref = inst.utility(), inst.utility()
    ctx = EvalContext(f, inst.prior)
    cap = math.ceil(core._SHARED_STATES_MAX / (f.universe_size + 1))
    histories = list(enumerate_partial_realizations(inst.prior))
    assert len({f.covered(psi) for psi in histories}) > 2 * cap
    most = 0
    for psi in histories:
        for e in range(inst.n):
            assert ctx.delta(e, psi).hex() == marginal_utility(ref, inst.prior, psi, e).hex()
        most = max(most, len(f._states))
    assert most == cap


def test_a_long_rollout_keeps_its_states_within_the_cap():
    # A rollout prices one covered mask per round, and with a large universe
    # nearly every round covers a new one, so over many rounds the states it
    # shares fill up and are dropped at the cap.  Each Delta must still equal
    # a fresh utility's to the bit.
    inst = generate_coverage(n=400, m=2, universe_size=200, density=0.01, seed=3)
    f, ref = inst.utility(), inst.utility()
    cap = math.ceil(core._SHARED_STATES_MAX / (f.universe_size + 1))
    masks, sizes = set(), []

    class Capped(EvalContext):
        def delta(self, e, psi):
            value = super().delta(e, psi)
            assert value.hex() == marginal_utility(ref, inst.prior, psi, e).hex()
            masks.add(self._covered)
            sizes.append(len(f._states))
            return value

    pi = adaptive_stochastic_greedy(150, 0.1)
    phi = inst.prior.sample(random.Random(5))
    trace = pi.run_on(Capped(f, inst.prior, seed=5), phi)
    assert len(trace.steps) == 150
    assert len(masks) > cap
    assert max(sizes) == cap
    assert trace == run_policy(pi, inst.utility(), inst.prior, phi, seed=5)
