import dataclasses
import json
import random

import pytest

from adasub import (
    CardinalityConstraint,
    CoverageUtility,
    ParseError,
    ValidationError,
    adaptive_greedy,
    check_adaptive_monotone,
    check_adaptive_submodular,
    check_fully_adaptive_submodular,
    exact_policy_value,
    generate_coverage,
    load_instance,
    optimal_value,
    save_instance,
)
from adasub.core import IndependentPrior
from adasub.instances import (
    Instance,
    complementarity_counterexample,
    dumps_instance,
    loads_instance,
)

# Arrays nested past every interpreter's recursion limit, and an integer past
# Python's limit of 4,300 digits for converting a string to an int.
DEEP_ARRAYS = "[" * 100_000 + "]" * 100_000
LONG_INTEGER = '{"n": %s}' % ("1" * 4301)


class TestGeneration:
    def test_deterministic_bytes(self):
        a = dumps_instance(generate_coverage(6, 2, 8, 0.3, seed=42))
        b = dumps_instance(generate_coverage(6, 2, 8, 0.3, seed=42))
        assert a == b

    def test_different_seeds_differ(self):
        a = dumps_instance(generate_coverage(6, 2, 8, 0.3, seed=1))
        b = dumps_instance(generate_coverage(6, 2, 8, 0.3, seed=2))
        assert a != b

    def test_density_zero_is_worthless(self):
        inst = generate_coverage(4, 2, 6, 0.0, seed=0, k=2)
        res = optimal_value(inst.utility(), inst.prior, inst.constraint)
        assert res.value == pytest.approx(0.0)

    def test_density_one_single_item_covers_everything(self):
        inst = generate_coverage(4, 2, 6, 1.0, seed=0, k=1)
        res = optimal_value(inst.utility(), inst.prior, inst.constraint)
        total = sum(inst.utility_spec["weights"])
        assert res.value == pytest.approx(total)

    def test_bad_density_rejected(self):
        with pytest.raises(ValidationError):
            generate_coverage(4, 2, 6, 1.5, seed=0)

    @pytest.mark.parametrize("size,value", [("n", 2.5), ("m", 2.0), ("universe_size", True)])
    def test_sizes_must_be_integers(self, size, value):
        # n=2.5 and m=2.0 ended in a bare TypeError; universe_size=True ran as 1.
        sizes = dict(n=3, m=2, universe_size=6)
        sizes[size] = value
        with pytest.raises(ValidationError, match="%s must be an integer" % size):
            generate_coverage(**sizes, density=0.4, seed=1)

    def test_groups_without_limits_rejected(self):
        # Was a bare TypeError: 'NoneType' object is not iterable.
        with pytest.raises(ValidationError, match="groups require limits"):
            generate_coverage(5, 2, 4, 0.3, groups=[[0, 1]])

    @pytest.mark.parametrize("weight_range", [("a", "b"), (0.5, None), (True, 2.0)])
    def test_weight_range_must_be_numbers(self, weight_range):
        # ("a", "b") raised a bare TypeError from rng.uniform.
        with pytest.raises(ValidationError, match="weight_range bound must be a number"):
            generate_coverage(5, 2, 4, 0.3, weight_range=weight_range)

    def test_generated_instances_are_adaptive_submodular(self):
        for seed in (0, 1, 2):
            inst = generate_coverage(5, 2, 6, 0.3, seed=seed)
            assert check_adaptive_monotone(inst.utility(), inst.prior).passed
            assert check_adaptive_submodular(inst.utility(), inst.prior).passed


class TestSerialization:
    def test_round_trip_bytes(self, tmp_path):
        inst = generate_coverage(6, 2, 8, 0.3, seed=7, k=3)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        text = path.read_text()
        save_instance(load_instance(path), path)
        assert path.read_text() == text

    def test_round_trip_fields(self, tmp_path):
        inst = generate_coverage(5, 3, 6, 0.4, seed=9,
                                 groups=[[0, 1], [2, 3, 4]], limits=[1, 2])
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.n == inst.n and back.m == inst.m
        assert back.prior.probs == inst.prior.probs
        assert back.utility_spec == inst.utility_spec
        assert back.constraint == inst.constraint

    def test_missing_prior_is_parse_error(self):
        d = json.loads(dumps_instance(generate_coverage(3, 2, 4, 0.3, seed=0)))
        del d["prior"]
        with pytest.raises(ParseError):
            loads_instance(json.dumps(d))

    def test_bad_normalization_is_validation_error(self):
        d = json.loads(dumps_instance(generate_coverage(3, 2, 4, 0.3, seed=0)))
        d["prior"]["probs"][0] = [0.5, 0.4]
        with pytest.raises(ValidationError):
            loads_instance(json.dumps(d))

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            loads_instance("{not json")

    # json.loads raised a bare RecursionError and ValueError for these.
    @pytest.mark.parametrize("text", [DEEP_ARRAYS, LONG_INTEGER], ids=["deep", "digits"])
    def test_json_past_the_parsers_limits(self, text):
        with pytest.raises(ParseError, match="^invalid JSON: "):
            loads_instance(text)

    def test_coverage_element_bounds_checked(self):
        d = json.loads(dumps_instance(generate_coverage(3, 2, 4, 0.3, seed=0)))
        d["utility"]["covers"][0][0] = [99]
        with pytest.raises(ValidationError):
            loads_instance(json.dumps(d))

    def test_cardinality_constraint_round_trip(self, tmp_path):
        inst = generate_coverage(4, 2, 4, 0.3, seed=3, k=2)
        assert inst.constraint == CardinalityConstraint(2)
        path = tmp_path / "c.json"
        save_instance(inst, path)
        assert load_instance(path).constraint == CardinalityConstraint(2)

    def test_unsupported_prior_or_constraint_is_not_saved(self, tmp_path):
        inst = generate_coverage(3, 2, 4, 0.3, seed=0)
        for field in ("prior", "constraint"):
            with pytest.raises(ValidationError, match="^unsupported %s type 'object'$" % field):
                save_instance(dataclasses.replace(inst, **{field: object()}), tmp_path / "x.json")

    def test_a_refused_instance_leaves_the_file_as_it_was(self, tmp_path):
        # The file was opened for writing, and so emptied, before the refusal.
        path = tmp_path / "x.json"
        path.write_bytes(b"precious")
        inst = generate_coverage(3, 2, 4, 0.3, seed=0)
        with pytest.raises(ValidationError, match="^unsupported prior type 'object'$"):
            save_instance(dataclasses.replace(inst, prior=object()), path)
        assert path.read_bytes() == b"precious"


class TestUtilityMaskTable:
    def test_calls_share_the_table_but_not_the_counters(self):
        inst = generate_coverage(8, 2, 10, 0.3, seed=5)
        f, g = inst.utility(), inst.utility()
        assert f is not g and f.covers == g.covers
        f.value((0, 1), (0,) * 8)
        f.delta_counter += 1
        assert (g.f_counter, g.delta_counter) == (0, 0)
        assert (inst.utility().f_counter, inst.utility().delta_counter) == (0, 0)

    def test_replaced_covers_rebuild_the_table(self):
        inst = generate_coverage(4, 2, 6, 0.3, seed=2)
        before = inst.utility().covers
        covers = [[[0, 1], [2]], [[3], []], [[4, 5], [0]], [[], [1, 5]]]
        inst.utility_spec["covers"] = covers
        after = inst.utility()
        assert after.covers == ((0b11, 0b100), (0b1000, 0), (0b110000, 0b1), (0, 0b100010))
        assert after.covers != before
        w = inst.utility_spec["weights"]
        assert after.value((0, 2), (0, 0, 0, 0)) == sum([w[0], w[1], w[4], w[5]])

    @pytest.fixture
    def built(self, monkeypatch):
        """Every CoverageUtility whose __init__ runs from here on."""
        built, init = [], CoverageUtility.__init__
        monkeypatch.setattr(CoverageUtility, "__init__",
                            lambda u, *args: built.append(u) or init(u, *args))
        return built

    def test_a_second_call_builds_and_validates_nothing(self, built):
        inst = generate_coverage(8, 2, 10, 0.3, seed=5)
        f = inst.utility()
        f.value((0, 1), (0,) * 8)
        f.delta_counter += 1
        f.state(f.covers[0][0])
        g = inst.utility()
        assert len(built) == 1
        assert type(g) is CoverageUtility and g is not f
        assert (g.f_counter, g.delta_counter, g._states) == (0, 0, {})
        assert g._states is not f._states and len(f._states) == 1
        for name in ("weights", "universe_size", "covers", "_fewest_states", "_table"):
            assert getattr(g, name) is getattr(f, name), name
        rebuilt = CoverageUtility(inst.utility_spec["weights"], g.covers)
        assert len(built) == 2
        phi = inst.prior.sample(random.Random(1))
        for u in (g, rebuilt):
            u.reset_counters()
        values = [(exact_policy_value(adaptive_greedy(3), u, inst.prior).hex(),
                   u.value(range(8), phi).hex(), u.f_counter, u.delta_counter)
                  for u in (g, rebuilt)]
        assert values[0] == values[1]

    @pytest.mark.parametrize("key", ["covers", "weights"])
    def test_a_replaced_list_rebuilds_the_utility(self, built, key):
        inst = generate_coverage(4, 2, 6, 0.3, seed=2)
        before = inst.utility()
        inst.utility_spec[key] = list(inst.utility_spec[key])
        after = inst.utility()
        assert len(built) == 2 and after is not built[1]
        assert (after.weights, after.covers) == (before.weights, before.covers)
        inst.utility()
        assert len(built) == 2

    def test_unknown_utility_type_is_a_parse_error(self):
        inst = generate_coverage(3, 2, 4, 0.3, seed=0)
        inst.utility_spec = {"type": "matroid"}
        with pytest.raises(ParseError, match="^unknown utility type 'matroid'$"):
            inst.utility()

    def test_out_of_universe_coverage_raises_on_the_first_call(self):
        inst = Instance(3, 2, IndependentPrior([[0.5, 0.5]] * 3),
                        {"type": "coverage", "weights": [1.0, 2.0],
                         "covers": [[[0], [1]], [[0, 1], [2]], [[], [0]]]},
                        CardinalityConstraint(2))
        for _ in range(2):
            with pytest.raises(ValidationError, match="coverage of item 1 outside universe"):
                inst.utility()

    @pytest.mark.parametrize("element", [-1, 2, 10 ** 400],
                             ids=["negative", "universe-size", "huge"])
    def test_unvalidated_element_outside_universe_raises_before_its_shift(self, element):
        # 1 << -1 raised a bare ValueError and 1 << 10 ** 400 an OverflowError.
        inst = Instance(2, 1, IndependentPrior([[1.0]] * 2),
                        {"type": "coverage", "weights": [1.0, 2.0],
                         "covers": [[[0]], [[1, element]]]},
                        CardinalityConstraint(1))
        with pytest.raises(ValidationError, match="^coverage of item 1 outside universe$"):
            inst.utility()

    @pytest.mark.parametrize("element", [2.5, True], ids=["float", "bool"])
    def test_non_integer_coverage_element_is_refused(self, element):
        # 1 << int(x) would have read 2.5 as element 2 and True as element 1.
        inst = Instance(1, 1, IndependentPrior([[1.0]]),
                        {"type": "coverage", "weights": [1.0, 1.0, 1.0],
                         "covers": [[[element]]]},
                        CardinalityConstraint(1))
        with pytest.raises(ValidationError, match="coverage element must be an integer"):
            inst.validate()


def test_tabular_utility_under_an_independent_prior():
    # f({0}) is 1 in state 0 and 2 in state 1, each with mass 1/2, and f({}) = 0.
    inst = loads_instance(json.dumps({
        "n": 1, "m": 2, "constraint": {"type": "cardinality", "k": 1},
        "prior": {"type": "independent", "probs": [[0.5, 0.5]]},
        "utility": {"type": "tabular", "realizations": [[0], [1]],
                    "table": [[0, 0], [1, 2]]}}))
    assert isinstance(inst.prior, IndependentPrior)
    assert exact_policy_value(adaptive_greedy(1), inst.utility(), inst.prior) == 1.5
    assert optimal_value(inst.utility(), inst.prior, inst.constraint).value == 1.5
    # Delta(0 | {}) = 1.5 is the one monotone and the one submodular comparison.
    # The fully-adaptive column ({0}, a=1) is worth 1.5 at {} and 0 at each
    # one-pair history, compared with itself: 1 + 2 + 2 comparisons.
    reports = [check(inst.utility(), inst.prior) for check in
               (check_adaptive_monotone, check_adaptive_submodular,
                check_fully_adaptive_submodular)]
    assert [(r.passed, r.pairs_checked) for r in reports] == [(True, 1), (True, 1), (True, 5)]


def _field_paths(x, prefix=()):
    yield prefix
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, val in items:
        yield from _field_paths(val, prefix + (key,))


def _replaced(d, path, val):
    d = json.loads(json.dumps(d))
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = val
    return d


def test_every_single_field_corruption_is_a_clean_error():
    # a number where a list belongs, a string among numbers, and so on, at
    # every position of three instances covering each prior, utility and
    # constraint type
    bad_values = (0, -1, 1.5, "x", None, [], {}, [0], [[0]], True, 10 ** 6, [["a"]],
                  10 ** 400, "0.5")
    bases = (generate_coverage(4, 2, 4, 0.5, seed=1, k=2),
             generate_coverage(4, 2, 4, 0.5, seed=1, groups=[[0, 1], [2, 3]], limits=[1, 1]),
             complementarity_counterexample())
    for inst in bases:
        d = json.loads(dumps_instance(inst))
        for path in list(_field_paths(d))[1:]:
            for val in bad_values:
                try:
                    loads_instance(json.dumps(_replaced(d, path, val)))
                except (ParseError, ValidationError):
                    pass


def test_non_finite_numbers_are_parse_errors():
    text = dumps_instance(generate_coverage(3, 2, 4, 0.3, seed=0))
    d = json.loads(text)
    d["prior"]["probs"][0][0] = float("nan")
    with pytest.raises(ParseError):
        loads_instance(json.dumps(d))
    d = json.loads(text)
    d["utility"]["weights"][0] = float("inf")
    with pytest.raises(ParseError):
        loads_instance(json.dumps(d))
