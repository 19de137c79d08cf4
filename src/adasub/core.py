"""Domain types and expectation engines.

Items are plain integers in [0, n) and a realization is a length-n tuple of
state indices in [0, m).  A partial realization is an immutable, canonically
sorted collection of (item, state) observations; its sorted pair tuple doubles
as a memoization key everywhere in the package.

Probabilities are kept in plain double precision.  Exact expectations
enumerate the conditioned support and refuse (InstanceTooLarge) when that
support exceeds ENUMERATION_CAP weighted realizations, except where
independence lets the expectation factorize over a single item's posterior.
"""

from __future__ import annotations

import itertools
import math
import random
import reprlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import InstanceTooLarge, ValidationError, ZeroProbabilityEvidence

PROB_TOL = 1e-9
ENUMERATION_CAP = 1 << 20
# A CoverageUtility's Delta states, one per covered mask priced by any context
# on it, are dropped and built anew once their number times (universe size + 1)
# reaches this bound.
_SHARED_STATES_MAX = 1 << 14
# A CoverageUtility over at most this many universe elements reads every mask
# weight from one table of 2^size doubles: 512 KiB at 16, built in about 5 ms,
# where an n=1000 rollout reads a few thousand entries.  Each element past 16
# doubles both costs, so larger universes sum each mask's bits instead.
_TABLE_MAX_UNIVERSE = 16
# Utilities with equal weights share one table.  The cache keeps the tables of
# the last this many weight vectors, at most 4 x 512 KiB = 2 MiB; a table a
# utility holds lives as long as the utility.
_WEIGHT_TABLES_MAX = 4


def _left_sum(values) -> float:
    """values added left to right: the bits of Python 3.11's sum() on every
    version, where 3.12's sum() compensates float rounding."""
    total = 0.0
    for v in values:
        total += v
    return total


class _Shown(reprlib.Repr):
    """reprlib.repr, naming an int past str()'s digit limit by its bit length."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            return "(an int of %d bits)" % x.bit_length()


_shown = _Shown().repr


def _check_int(value, name: str):
    """value, once it is an int: int() would truncate 2.5 to 2, and a bool
    would pass as 0 or 1.  ValidationError names the parameter otherwise."""
    if type(value) is not int:
        raise ValidationError("%s must be an integer, got %s" % (name, _shown(value)))
    return value


def _check_real(value, name: str) -> float:
    """value as a float, once it is an int or a float: float() would accept
    "0.5" and True, and raise OverflowError on an int past the float range.
    ValidationError names the parameter otherwise."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError("%s must be a number, got %s" % (name, _shown(value)))
    try:
        return float(value)
    except OverflowError:
        raise ValidationError("%s %s is past the float range" % (name, _shown(value))) from None


# ---------------------------------------------------------------------------
# partial realizations


@dataclass(frozen=True)
class PartialRealization:
    """An observation history: (item, state) pairs with distinct items.

    Pairs are stored sorted by item, so `pairs` is a canonical key.
    """

    pairs: tuple

    @classmethod
    def of(cls, observations: Union[Mapping[int, int], Iterable]) -> "PartialRealization":
        if isinstance(observations, Mapping):
            observations = observations.items()
        pairs = [(e, o) for e, o in observations]
        if any(type(e) is not int or type(o) is not int for e, o in pairs):
            raise ValidationError("partial realization needs integer items and states: %s"
                                  % _shown(pairs))
        pairs = tuple(sorted(pairs))
        seen = [e for e, _ in pairs]
        if len(set(seen)) != len(seen):
            raise ValidationError("duplicate item in partial realization: %s" % _shown(pairs))
        return cls(pairs)

    @cached_property
    def _map(self) -> dict:
        return dict(self.pairs)

    def domain(self) -> tuple:
        return tuple(e for e, _ in self.pairs)

    def as_dict(self) -> dict:
        return dict(self.pairs)

    def state_of(self, e: int) -> Optional[int]:
        return self._map.get(e)

    def with_observation(self, e: int, o: int) -> "PartialRealization":
        if e in self._map:
            raise ValidationError("item %s already observed" % _shown(e))
        return PartialRealization(_insert_pair(self.pairs, e, o)[1])

    def __contains__(self, e: int) -> bool:
        return e in self._map

    def __len__(self) -> int:
        return len(self.pairs)


PSI_EMPTY = PartialRealization(())


def _insert_pair(pairs: tuple, e: int, o: int):
    """(i, pairs with (e, o) at index i): the sorted pairs of a history that
    does not observe e, extended by (e, o) without a sort."""
    i = bisect_left(pairs, (e,))
    return i, pairs[:i] + ((e, o),) + pairs[i:]


def consistent(psi: PartialRealization, phi: Sequence) -> bool:
    """True iff every observation in psi matches the full realization phi."""
    return all(phi[e] == o for e, o in psi.pairs)


def subrealization(psi: PartialRealization, psi2: PartialRealization) -> bool:
    """True iff psi2 extends psi: same states on all of psi's domain."""
    m2 = psi2._map
    return all(m2.get(e) == o for e, o in psi.pairs)


# ---------------------------------------------------------------------------
# priors: IndependentPrior and ExplicitPrior.  Each has sizes n and m and
# answers, for evidence psi: evidence_probability(psi); possible(psi), True iff
# psi has positive probability; item_posterior(e, psi), item e's (state, prob)
# pairs with prob > 0; support(psi), the [(realization, prob)] consistent with
# psi, renormalized; sample(rng, psi); and item_states(e), item e's states of
# positive marginal probability.


class IndependentPrior:
    """Per-item categorical distributions; items are mutually independent."""

    def __init__(self, probs: Sequence[Sequence[float]]):
        self.probs = tuple(tuple(_check_real(p, "probability") for p in row) for row in probs)
        self.n = len(self.probs)
        if self.n == 0:
            raise ValidationError("empty ground set")
        self.m = len(self.probs[0])
        for e, row in enumerate(self.probs):
            if len(row) != self.m:
                raise ValidationError("item %d has %d states, expected %d" % (e, len(row), self.m))
            if not all(0.0 <= p < math.inf for p in row):
                raise ValidationError("negative or non-finite probability for item %d" % e)
            total = _left_sum(row)
            if abs(total - 1.0) > PROB_TOL:
                raise ValidationError("prior normalization: item %d sums to %.17g" % (e, total))

    def evidence_probability(self, psi):
        _check_items(psi, self.n)
        p, m = 1.0, self.m
        for e, o in psi.pairs:
            p *= self.probs[e][o] if 0 <= o < m else 0.0
        return p

    def possible(self, psi):
        # Each observed state needs mass of its own (none outside [0, m)):
        # the product of the masses underflows past ~1,075 fair-coin observations.
        _check_items(psi, self.n)
        probs, m = self.probs, self.m
        for e, o in psi.pairs:
            if not (0 <= o < m and probs[e][o] > 0.0):
                return False
        return True

    @cached_property
    def rows(self) -> tuple:
        """Each item's (state, prob) pairs of positive mass: its posterior
        given any evidence that leaves it unobserved."""
        return tuple(tuple((o, p) for o, p in enumerate(row) if p > 0.0) for row in self.probs)

    def item_posterior(self, e, psi):
        _check_item(e, self.n)
        o_seen = psi.state_of(e)
        if o_seen is not None:
            return [(o_seen, 1.0)]
        return list(self.rows[e])

    def item_states(self, e):
        return tuple(o for o, _ in self.rows[e])

    def support_size(self, psi=PSI_EMPTY):
        return math.prod(len(self.item_posterior(e, psi)) for e in range(self.n))

    def support(self, psi=PSI_EMPTY):
        _check_evidence(self, psi)
        if self.support_size(psi) > ENUMERATION_CAP:
            raise InstanceTooLarge(
                "conditioned support exceeds %d realizations" % ENUMERATION_CAP)
        per_item = [self.item_posterior(e, psi) for e in range(self.n)]
        out = []
        for combo in itertools.product(*per_item):
            phi = tuple(o for o, _ in combo)
            p = 1.0
            for _, q in combo:
                p *= q
            out.append((phi, p))
        return out

    def sample(self, rng, psi=PSI_EMPTY):
        if psi.pairs:
            _check_evidence(self, psi)
        seen = psi._map
        states = []
        for e, row in enumerate(self.rows):
            o = seen.get(e)
            if o is None:
                # u past a row's rounded sum leaves o at its last state with mass.
                u = rng.random()
                acc = 0.0
                for o, p in row:
                    acc += p
                    if u < acc:
                        break
            states.append(o)
        return tuple(states)


class ExplicitPrior:
    """A weighted list of realizations (supports arbitrary correlations)."""

    def __init__(self, weighted: Sequence):
        entries = [(tuple(_check_int(s, "realization state") for s in phi),
                    _check_real(p, "probability")) for phi, p in weighted]
        if not entries:
            raise ValidationError("empty support")
        self.n = len(entries[0][0])
        if self.n == 0:
            raise ValidationError("explicit support has no items: its realizations are empty")
        seen = set()
        for phi, p in entries:
            if len(phi) != self.n:
                raise ValidationError("realization length mismatch")
            if min(phi) < 0:
                raise ValidationError("negative state in realization %s" % _shown(phi))
            if not 0.0 <= p < math.inf:
                raise ValidationError("negative or non-finite probability")
            if phi in seen:
                raise ValidationError("duplicate realization %s in support" % _shown(phi))
            seen.add(phi)
        self.m = max(max(phi) for phi, _ in entries) + 1
        total = _left_sum(p for _, p in entries)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError("prior normalization: support sums to %.17g" % total)
        self.weighted = tuple(entries)

    def evidence_probability(self, psi):
        _check_items(psi, self.n)
        return _left_sum(p for phi, p in self.weighted if consistent(psi, phi))

    def possible(self, psi):
        return self.evidence_probability(psi) > 0.0

    def _consistent(self, psi):
        _check_items(psi, self.n)
        sub = [(phi, p) for phi, p in self.weighted if consistent(psi, phi) and p > 0.0]
        total = _left_sum(p for _, p in sub)
        if total <= 0.0:
            raise _zero_probability(psi)
        return sub, total

    def item_posterior(self, e, psi):
        return self.posteriors(psi, (e,))[0]

    def posteriors(self, psi, items) -> list:
        """Each item's item_posterior given psi, from one filtering of the
        support: its masses summed in support order, then divided once."""
        for e in items:
            _check_item(e, self.n)
        sub, total = self._consistent(psi)
        out = []
        for e in items:
            mass = {}
            for phi, p in sub:
                mass[phi[e]] = mass.get(phi[e], 0.0) + p
            out.append(sorted((o, p / total) for o, p in mass.items()))
        return out

    def item_states(self, e):
        return tuple(sorted({phi[e] for phi, p in self.weighted if p > 0.0}))

    def support(self, psi=PSI_EMPTY):
        sub, total = self._consistent(psi)
        return [(phi, p / total) for phi, p in sub]

    def sample(self, rng, psi=PSI_EMPTY):
        sub, total = self._consistent(psi)
        u = rng.random() * total
        acc = 0.0
        for phi, p in sub:
            acc += p
            if u < acc:
                return phi
        return sub[-1][0]


@dataclass(frozen=True)
class ConditionedPrior:
    """A prior together with evidence; presents the posterior p(phi | psi)."""

    base: IndependentPrior | ExplicitPrior
    evidence: PartialRealization

    def __post_init__(self):
        _check_evidence(self.base, self.evidence)

    @property
    def n(self):
        return self.base.n

    @property
    def m(self):
        return self.base.m

    def item_posterior(self, e: int):
        return self.base.item_posterior(e, self.evidence)

    def support(self):
        return self.base.support(self.evidence)

    def sample(self, rng: random.Random):
        return self.base.sample(rng, self.evidence)


def condition(prior, psi: PartialRealization) -> ConditionedPrior:
    """Posterior over realizations given evidence psi.

    Conditioning an already-conditioned prior merges the evidence; conflicting
    observations make the joint evidence impossible and raise
    ZeroProbabilityEvidence.
    """
    if isinstance(prior, ConditionedPrior):
        merged = dict(prior.evidence.pairs)
        for e, o in psi.pairs:
            if merged.get(e, o) != o:
                raise ZeroProbabilityEvidence(
                    "conflicting observations for item %s" % _shown(e))
            merged[e] = o
        return ConditionedPrior(prior.base, PartialRealization.of(merged))
    return ConditionedPrior(prior, psi)


def sample_realization(prior, stream: random.Random) -> tuple:
    """Draw one realization from a Prior or ConditionedPrior."""
    return prior.sample(stream)


# ---------------------------------------------------------------------------
# utility functions


class UtilityFunction:
    """f(S, phi) >= 0 with evaluation counters.

    f_counter counts calls of value() and coverage stops (covered_value), and
    nothing else: a coverage state's pricing function and the oracle's stops
    read covered masks' weights with no count.
    delta_counter counts marginal-utility oracle invocations (one per
    candidate item examined, the unit in which the sampling policies'
    complexity bounds are stated).

    Only CoverageUtility prices Delta from a per-history state; any other
    utility's Delta and stop values are sums over the conditioned support.
    """

    # (a prior's history table, its Delta rows) kept by a passing Delta check
    # (adasub.verify); a fresh utility or copy has none.
    _delta_rows = None

    def __init__(self):
        self.f_counter = 0
        self.delta_counter = 0

    def reset_counters(self):
        self.f_counter = 0
        self.delta_counter = 0

    def value(self, items: Iterable[int], states) -> float:
        """Evaluate f on the selected items under the given states.

        `states` is a full realization tuple, or (for CoverageUtility, which
        reads only the selected items' states) any mapping covering `items`.
        An item that is not an integer in [0, n), or for coverage a selected
        item whose state is missing or not an integer in [0, m), raises
        ValidationError.
        """
        self.f_counter += 1
        return self._value(items, states)

    def _value(self, items, states):
        raise NotImplementedError


class CoverageUtility(UtilityFunction):
    """Weighted coverage: each (item, state) covers a subset of a universe.

    f(S, phi) = total weight of the union of the selected items' realized
    coverage sets.  Monotone in S for every phi, and adaptive submodular for
    independent priors.  f(dom psi, .) and each gain at psi depend on psi's
    covered mask alone: state(covered(psi)) gives that Delta state, the
    pricing function gain(e, posterior), built once with no value() call.

    Over a universe of at most _TABLE_MAX_UNIVERSE elements every mask weight
    is read from one table of 2^size doubles, shared by every utility with
    equal weights (_weight_table); larger universes sum the mask's bits.
    """

    def __init__(self, weights: Sequence[float], covers: Sequence[Sequence[int]]):
        super().__init__()
        self.weights = tuple(_check_real(w, "universe weight") for w in weights)
        if not all(0.0 <= w < math.inf for w in self.weights):
            raise ValidationError("negative or non-finite universe weight")
        self.universe_size = len(self.weights)
        self.covers = tuple(map(tuple, covers))
        union = 0
        fewest = len(self.covers[0]) if self.covers else 0      # states of the poorest item
        for row in self.covers:
            if len(row) < fewest:
                fewest = len(row)
            for mask in row:
                if type(mask) is not int:
                    _check_int(mask, "coverage mask")
                union |= mask
        outside = ~((1 << self.universe_size) - 1)
        if union & outside:
            e = next(e for e, row in enumerate(self.covers)
                     if any(mask & outside for mask in row))
            raise ValidationError("coverage of item %d outside universe" % e)
        self._fewest_states = fewest
        self._states = {}           # covered mask -> Delta state
        self._table = (_weight_table(self.weights)
                       if self.universe_size <= _TABLE_MAX_UNIVERSE else None)

    def _fresh(self) -> "CoverageUtility":
        """This utility, not validated again: the same immutable fields,
        zeroed counters and its own empty Delta-state cache."""
        # Set in __init__'s order on a bare object, so the copy keeps the
        # class's shared attribute layout: copy.copy fills a materialized
        # __dict__, which measured slower per Delta (its delta_counter += 1).
        f = object.__new__(CoverageUtility)
        f.f_counter = f.delta_counter = 0
        f.weights, f.universe_size, f.covers = self.weights, self.universe_size, self.covers
        f._fewest_states, f._states, f._table = self._fewest_states, {}, self._table
        return f

    def _value(self, items, states):
        covers, mask = self.covers, 0
        for e in items:
            _check_item(e, len(covers))
            try:
                o = states[e]
            except (IndexError, KeyError):
                raise ValidationError("the states give item %d no state" % e) from None
            row = covers[e]
            if type(o) is not int or not 0 <= o < len(row):
                raise ValidationError("state %s of item %d is not an integer in [0, %d)"
                                      % (_shown(o), e, len(row)))
            mask |= row[o]
        return self._mask_weight(mask)

    def _mask_weight(self, mask: int) -> float:
        """The weights of mask's bits, added low bit to high.

        One summation order everywhere, so value() and the pricing functions
        agree to the last bit: the weight table holds each mask's sum in
        _low_to_high's order, so reading it gives the float that loop would.
        """
        table = self._table
        if table is not None:
            return table[mask]
        return _low_to_high(self.weights, mask)

    def covered_value(self, covered: int) -> float:
        """f(dom psi) at a history psi whose observations cover the mask
        `covered`, counted as one f evaluation: a coverage stop."""
        self.f_counter += 1
        return self._mask_weight(covered)

    def covered(self, psi) -> int:
        """The mask of the universe elements psi's observations cover."""
        covered = 0
        for e, o in psi.pairs:
            covered |= self.covers[e][o]
        return covered

    def state(self, covered):
        """f's Delta state at a history psi whose observations cover the mask
        `covered`: its pricing function gain(e, posterior) (_new_state).

        It depends on the covered mask alone, so every history that covers
        the same elements, in any context on this utility, gets the same
        function, built once with no value() call.  The functions are dropped
        once their number times (universe size + 1) reaches _SHARED_STATES_MAX.
        """
        states = self._states
        state = states.get(covered)
        if state is None:
            if len(states) * (self.universe_size + 1) >= _SHARED_STATES_MAX:
                states.clear()
            state = states[covered] = self._new_state(covered)
        return state

    def _new_state(self, covered):
        """gain(e, posterior) = Sum_o p(o) * (f(dom psi + {e}) - f(dom psi))
        over e's posterior, made once for the covered mask.

        A gain is value()'s own sum over the mask f(dom psi + {e}) covers,
        less f(dom psi): the two-evaluation formula by construction.  With a
        weight table that sum is one read; otherwise a memo, which only this
        path builds, prices each newly covered mask once.  The covered mask,
        f(dom psi) and the table or memo are bound here, so a call only loops
        over the posterior.
        """
        base = self._mask_weight(covered)
        covers = self.covers
        table = self._table
        if table is not None:
            def gain(e, posterior):
                row = covers[e]
                total = 0.0
                for o, p in posterior:
                    total += p * (table[covered | row[o]] - base)
                return total
            return gain
        # The weights, not self: a function that held the utility would make
        # the utility and its states a cycle that only gc frees.
        weights = self.weights
        memo = {0: 0.0}

        def gain(e, posterior):
            row = covers[e]
            total = 0.0
            for o, p in posterior:
                new = row[o] & ~covered
                g = memo.get(new)
                if g is None:
                    g = memo[new] = _low_to_high(weights, covered | new) - base
                total += p * g
            return total
        return gain


def _low_to_high(weights: tuple, mask: int) -> float:
    """The weights of mask's bits, added low bit to high."""
    total = 0.0
    while mask:
        bit = mask & -mask
        total += weights[bit.bit_length() - 1]
        mask ^= bit
    return total


@lru_cache(maxsize=_WEIGHT_TABLES_MAX)
def _weight_table(weights: tuple) -> array:
    """table[mask] = the weights of mask's bits, added low bit to high.

    Each weight w extends the table by [x + w for x in table], so
    table[mask] = table[mask - high bit] + weights[high bit]: _low_to_high's
    loop, step for step.  Weights that compare equal (0.0 and -0.0) give the
    same table, since every sum starts from +0.0.
    """
    table = array("d", [0.0])
    for w in weights:
        table.extend([x + w for x in table])
    return table


class TabularUtility(UtilityFunction):
    """Explicit table of f over (selected-set bitmask, realization index).

    Usable with any prior whose support `realizations` lists (Instance.validate
    checks it); exists to build counterexamples for the definitional checkers.
    """

    MAX_ITEMS = 12

    def __init__(self, n: int, realizations: Sequence, table: Sequence[Sequence[float]]):
        super().__init__()
        if n > self.MAX_ITEMS:
            raise ValidationError("tabular utility limited to n <= %d" % self.MAX_ITEMS)
        self.n = n
        self.realizations = tuple(tuple(_check_int(s, "realization state") for s in phi)
                                  for phi in realizations)
        if any(len(phi) != n for phi in self.realizations):
            raise ValidationError("every tabular realization must have %d states" % n)
        self._index = {phi: i for i, phi in enumerate(self.realizations)}
        if len(self._index) < len(self.realizations):
            phi = next(phi for i, phi in enumerate(self.realizations) if self._index[phi] != i)
            raise ValidationError("duplicate realization %s in the table" % _shown(phi))
        self.table = tuple(tuple(_check_real(v, "table value") for v in row) for row in table)
        if len(self.table) != (1 << n):
            raise ValidationError("table must have a row per subset bitmask")
        for row in self.table:
            if len(row) != len(self.realizations):
                raise ValidationError("table row length mismatch")
            if not all(0.0 <= v < math.inf for v in row):
                raise ValidationError("negative or non-finite utility value")

    def _value(self, items, states):
        if not isinstance(states, tuple):
            states = tuple(states)
        mask = 0
        for e in items:
            _check_item(e, self.n)
            mask |= 1 << e
        try:
            idx = self._index[states]
        except KeyError:
            raise ValidationError("realization %s not in the table" % _shown(states))
        return self.table[mask][idx]


# ---------------------------------------------------------------------------
# expectation engines


def _zero_probability(psi: PartialRealization) -> ZeroProbabilityEvidence:
    # _shown shortens psi: a long history would make a message of many KB.
    return ZeroProbabilityEvidence("evidence %s (%d observations) has zero probability"
                                   % (_shown(psi.pairs), len(psi)))


def _check_items(psi: PartialRealization, n: int):
    """Raise ValidationError unless psi's items (sorted in its pairs) lie in [0, n)."""
    pairs = psi.pairs
    if pairs and not (0 <= pairs[0][0] and pairs[-1][0] < n):
        raise ValidationError("evidence %s observes an item outside [0, %d)"
                              % (_shown(pairs), n))


def _check_item(e, n: int):
    if type(e) is not int or not 0 <= e < n:
        raise ValidationError("item %s is not an integer in [0, %d)" % (_shown(e), n))


def _check_evidence(prior, psi: PartialRealization):
    """Raise ValidationError for an item outside [0, n) in psi (prior.possible
    checks it), and ZeroProbabilityEvidence unless psi has positive probability."""
    if not prior.possible(psi):
        raise _zero_probability(psi)


def _check_fit(f: UtilityFunction, prior):
    """Raise ValidationError unless a coverage f covers each of the prior's n
    items in at least its m states."""
    if isinstance(f, CoverageUtility) and (len(f.covers) != prior.n
                                           or f._fewest_states < prior.m):
        raise ValidationError("the utility covers %d items in %d or more states each, but "
                              "the prior has %d items in %d states"
                              % (len(f.covers), f._fewest_states, prior.n, prior.m))


def expected_set_value(f: UtilityFunction, prior, psi: PartialRealization) -> float:
    """E[f(dom psi, Phi) | psi]: the value of stopping at psi; for coverage,
    psi's covered mask's weight once _check_fit and _check_evidence pass."""
    if isinstance(f, CoverageUtility):
        _check_fit(f, prior)
        _check_evidence(prior, psi)
        return f.covered_value(f.covered(psi))
    dom = psi.domain()
    total = 0.0
    for phi, p in prior.support(psi):
        total += p * f.value(dom, phi)
    return total


def marginal_utility(f: UtilityFunction, prior, psi: PartialRealization, e: int) -> float:
    """Conditional expected marginal utility of item e given observations psi.

    Counts one delta_counter tick; returns 0 with no f evaluations when e is
    already observed (adding it again cannot change the selected set).  The
    value is EvalContext.delta's, from a context made for this one call.
    An item that is not an integer in [0, n) raises ValidationError.
    """
    _check_item(e, prior.n)
    return EvalContext(f, prior).delta(e, psi)


class EvalContext:
    """Shared evaluation state for policy rollouts.

    Bundles the utility, the prior and the master seed for internal policy
    randomness.  The per-decision random stream is derived from (seed,
    observation history), so a policy's choice at a given history is
    reproducible no matter how that history was reached.

    It also holds one history state, for the current history object:
      - its observed-item map;
      - the pool: its unobserved items of the item set last asked for (all
        n items by default; a policy asks for the group it serves), in id
        order, built on first use;
      - for coverage, its covered mask (made on the first Delta there);
      - the reprs of its pairs, in pair order, that rng_for joins into the
        seed string (built on first use).
    advance(psi, e, o) carries that state from psi to the child psi + (e, o):
    one map entry, one pool deletion, one repr insertion and one OR into the
    covered mask.  Under an independent prior the child's evidence check is
    the new observation's mass.  A rollout (Policy.run_on) advances this way,
    so no round rebuilds what the round before it had; descend(psi, covered)
    makes a history of a checker sweep or of exact evaluation current with
    the covered mask its caller carries.  Any other history (a stray psi)
    becomes the current one with its state built from scratch.
    f's Delta state (for coverage: the pricing function made for the
    covered mask) belongs to f: f.state(covered) builds, shares and bounds
    it, so every history that covers the same elements, in any context on f,
    rollout or not, prices through one function.  delta() calls it directly.
    """

    # Read by perfbench/tracing.py's delta_lookup on every traced Delta;
    # no context caches Delta values.
    delta_cache = None

    def __init__(self, f, prior, seed=0):
        _check_fit(f, prior)
        self.f = f
        self.prior = prior
        self.seed = seed
        independent = isinstance(prior, IndependentPrior)
        # Coverage under an independent prior, where an unobserved item's
        # posterior is its row: delta()'s fast path and HistoryRecursion's
        # carried-mask nodes.
        self._rows = prior.rows if independent and isinstance(f, CoverageUtility) else None
        self._probs = prior.probs if independent else None
        self._coverage = isinstance(f, CoverageUtility)
        self._psi = None            # the current history
        self._seen = {}             # its observed items -> states
        self._pool = None           # its unobserved items of _items, in id order
        self._items = None          # the item set of _pool: None for all n items
        self._covered = None        # its covered mask, once f's state is asked for
        self._fstate = None         # f's Delta state at it: its pricing function
        self._reprs = None          # repr of each of its pairs, in pair order
        self._possible = False      # True once it is known to have positive probability

    @property
    def n(self):
        return self.prior.n

    def rng_for(self, psi: PartialRealization) -> random.Random:
        """The stream of the decision at psi, seeded by "seed|psi.pairs"."""
        if psi is not self._psi:
            self._adopt(psi)
        reprs = self._reprs
        if reprs is None:
            reprs = self._reprs = [repr(pair) for pair in psi.pairs]
        if len(reprs) == 1:         # str of a 1-tuple ends in ",)"
            return random.Random("%s|(%s,)" % (self.seed, reprs[0]))
        return random.Random("%s|(%s)" % (self.seed, ", ".join(reprs)))

    def _adopt(self, psi):
        """Make psi the current history, its state built from scratch."""
        self._psi = psi
        self._seen = dict(psi.pairs)
        self._pool = self._covered = self._fstate = self._reprs = None
        self._possible = False

    def observed(self, psi: PartialRealization) -> dict:
        """psi's observed items -> states; the context's own map, not to be modified."""
        if psi is not self._psi:
            self._adopt(psi)
        return self._seen

    def pool(self, psi: PartialRealization, items=None) -> list:
        """psi's unobserved items of `items` (sorted; all n items if None), in id order.

        The context holds the pool of the one item set, by identity, it was
        last asked for.  The list is the context's own: advance() deletes the
        chosen item from it, so copy it to keep it, and do not modify it.
        """
        if psi is not self._psi:
            self._adopt(psi)
        pool = self._pool
        if pool is None or items is not self._items:
            seen, self._items = self._seen, items
            pool = range(self.n) if items is None else items
            pool = self._pool = [e for e in pool if e not in seen] if seen else list(pool)
        return pool

    def advance(self, psi: PartialRealization, e: int, o: int) -> PartialRealization:
        """psi + (e, o), made the current history with psi's state carried over."""
        seen = self.observed(psi)
        if e in seen:
            raise ValidationError("item %d already observed" % e)
        i, pairs = _insert_pair(psi.pairs, e, o)
        child = PartialRealization(pairs)
        seen[e] = o
        pool = self._pool
        if pool is not None:
            j = bisect_left(pool, e)
            if j < len(pool) and pool[j] == e:
                del pool[j]
        if self._reprs is not None:
            self._reprs.insert(i, repr((e, o)))
        probs = self._probs
        self._possible = self._possible and probs is not None and probs[e][o] > 0.0
        if self._covered is not None:
            self._covered |= self.f.covers[e][o]
        self._psi = child
        self._fstate = None
        return child

    def descend(self, psi: PartialRealization, covered, own=False):
        """Make psi current in one step, reached from a possible parent through
        a state of positive mass (so no evidence is checked, under any prior),
        with a coverage f's mask, returned: `covered` if `own`, else its parent's
        mask `covered` (None at the root) ORed with psi's last pair's cover."""
        if self._coverage:
            if not own and psi.pairs:
                e, o = psi.pairs[-1]
                covered |= self.f.covers[e][o]
            covered = covered or 0
        self._psi, self._seen, self._covered, self._possible = psi, dict(psi.pairs), covered, True
        self._pool = self._fstate = self._reprs = None
        return covered

    def _state(self):
        """f's Delta state at the current history, which must be possible:
        its pricing function gain(e, posterior)."""
        if self._fstate is None:
            if not self._possible:
                _check_evidence(self.prior, self._psi)
                self._possible = True
            if self._covered is None:
                self._covered = self.f.covered(self._psi)
            self._fstate = self.f.state(self._covered)
        return self._fstate

    def delta(self, e: int, psi: PartialRealization) -> float:
        f = self.f
        f.delta_counter += 1
        if psi is not self._psi:
            self._adopt(psi)
        if e in self._seen:
            return 0.0
        if self._rows is not None:
            gain = self._fstate
            if gain is None:
                gain = self._state()
            return gain(e, self._rows[e])
        if isinstance(f, CoverageUtility):
            # f(dom, .) is fixed by psi and f(dom+e, .) depends on Phi_e only,
            # so the expectation reduces to item e's posterior for any prior.
            return self._state()(e, self.prior.item_posterior(e, psi))
        dom = psi.domain()
        dom_e = dom + (e,)
        total = 0.0
        for phi, p in self.prior.support(psi):
            total += p * (f.value(dom_e, phi) - f.value(dom, phi))
        return total
