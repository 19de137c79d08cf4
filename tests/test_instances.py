import json

import pytest

from adasub import (
    CardinalityConstraint,
    ParseError,
    ValidationError,
    check_adaptive_monotone,
    check_adaptive_submodular,
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

    def test_out_of_universe_coverage_raises_on_the_first_call(self):
        inst = Instance(3, 2, IndependentPrior([[0.5, 0.5]] * 3),
                        {"type": "coverage", "weights": [1.0, 2.0],
                         "covers": [[[0], [1]], [[0, 1], [2]], [[], [0]]]},
                        CardinalityConstraint(2))
        for _ in range(2):
            with pytest.raises(ValidationError, match="coverage of item 1 outside universe"):
                inst.utility()


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
    bad_values = (0, -1, 1.5, "x", None, [], {}, [0], [[0]], True, 10 ** 6, [["a"]])
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
