import contextlib
import csv
import gc
import io
import json
import tempfile
import types
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

from adasub import (
    CoverageUtility,
    InstanceTooLarge,
    PSI_EMPTY,
    ParseError,
    ZeroProbabilityEvidence,
    cli,
    generate_coverage,
    marginal_utility,
    save_instance,
)
from adasub.cli import main
from adasub.instances import (
    complementarity_counterexample,
    dumps_instance,
    loads_instance,
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def instance_a_path(tmp_path, prior_a):
    # serialize the two-item fixture through the instance machinery
    from adasub.instances import Instance
    inst = Instance(2, 2, prior_a,
                    {"type": "coverage", "weights": [1.0, 1.0],
                     "covers": [[[0], [0, 1]], [[], [1]]]},
                    __import__("adasub").CardinalityConstraint(2))
    path = tmp_path / "a.json"
    save_instance(inst, path)
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestGen:
    def test_writes_instance(self, runner, tmp_path):
        out = tmp_path / "inst.json"
        res = runner.invoke(main, ["gen", "--n", "6", "--seed", "3", "--k", "2",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert out.read_text() == dumps_instance(generate_coverage(6, 2, 8, 0.3, seed=3, k=2))

    def test_partition_gen(self, runner, tmp_path):
        out = tmp_path / "inst.json"
        res = runner.invoke(main, ["gen", "--n", "6", "--seed", "3",
                                   "--groups", "0,1,2;3,4,5", "--limits", "1,2",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("option", [["--wmin", "nan"], ["--wmax", "inf"]])
    def test_non_finite_weight_is_usage_error(self, runner, tmp_path, option):
        out = tmp_path / "inst.json"
        res = runner.invoke(main, ["gen", "--n", "3"] + option + ["--out", str(out)])
        assert_clean_usage_error(res)
        assert "non-finite" in res.output
        assert not out.exists()

    def test_empty_weight_range_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "inst.json"
        res = runner.invoke(main, ["gen", "--n", "3", "--wmin", "2", "--wmax", "1",
                                   "--out", str(out)])
        assert_clean_usage_error(res)
        assert "weight range" in res.output
        assert not out.exists()

    def test_malformed_group_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["gen", "--n", "4", "--groups", "0,a", "--limits", "1",
                                   "--out", str(tmp_path / "inst.json")])
        assert_clean_usage_error(res)
        assert "--groups" in res.output

    def test_groups_without_limits_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "inst.json"
        res = runner.invoke(main, ["gen", "--n", "4", "--groups", "0,1;2,3",
                                   "--out", str(out)])
        assert_clean_usage_error(res)
        assert res.stderr == "error: --groups requires --limits\n"
        assert not out.exists()


def assert_clean_usage_error(res):
    """Exit 2 with one `error:` line on stderr, not an uncaught exception."""
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert "error: " in res.output and "Traceback" not in res.output
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr


class TestRun:
    def test_tree_over_exact_cap_exits_three(self, runner, tmp_path):
        path = tmp_path / "big.json"
        save_instance(generate_coverage(30, 2, 12, 0.3, seed=1, k=5), path)
        out = tmp_path / "run.csv"
        args = ["run", "--instance", str(path), "--policy", "greedy(k=5)",
                "--policy", "random(k=5)", "--out", str(out)]
        res = runner.invoke(main, args)
        assert res.exit_code == 3, res.output
        assert "histories" in res.output and "--mode mc" in res.output
        res = runner.invoke(main, args + ["--mode", "mc", "--samples", "20"])
        assert res.exit_code == 0, res.output
        assert [r["policy"] for r in read_rows(out)] == ["greedy", "random"]

    def test_seed_defaults_to_zero(self, runner, instance_a_path, tmp_path):
        outs = []
        for extra in ([], ["--seed", "0"]):
            out = tmp_path / ("r%d.csv" % len(extra))
            res = runner.invoke(main, ["run", "--instance", instance_a_path,
                                       "--policy", "random(k=1)", "--mode", "mc",
                                       "--samples", "50", "--out", str(out)] + extra)
            assert res.exit_code == 0, res.output
            outs.append([(r["f_avg"], r["stderr"]) for r in read_rows(out)])
        assert outs[0] == outs[1]

    def test_greedy_attains_optimum_on_instance_a(self, runner, instance_a_path, tmp_path):
        out = tmp_path / "run.csv"
        res = runner.invoke(main, ["run", "--instance", instance_a_path,
                                   "--policy", "greedy(k=2)",
                                   "--policy", "asg(k=2,eps=0.01)",
                                   "--policy", "random(k=2)",
                                   "--seed", "5",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_rows(out)
        assert [r["policy"] for r in rows] == ["greedy", "asg", "random", "oracle"]
        greedy = rows[0]
        assert float(greedy["ratio"]) == pytest.approx(1.0)
        assert float(greedy["f_avg"]) == pytest.approx(1.75)

    def test_empty_policy_list_gives_header_only(self, runner, instance_a_path, tmp_path):
        out = tmp_path / "run.csv"
        res = runner.invoke(main, ["run", "--instance", instance_a_path,
                                   "--seed", "5", "--out", str(out)])
        assert res.exit_code == 0
        assert read_rows(out) == []

    @pytest.mark.parametrize("spec,message", [
        ("asg k=2", "cannot parse policy descriptor 'asg k=2'"),
        ("", "cannot parse policy descriptor ''"),
        ("greedy(2)", "bad argument '2' in policy 'greedy(2)'"),
        ("asg(k=2)", "policy 'asg(k=2)' is missing argument 'eps'"),
        ("local", "policy 'local' needs an instance with a partition constraint"),
        ("gasg(eps=0.1)", "policy 'gasg' needs an instance with a partition constraint"),
    ])
    def test_bad_descriptor_is_usage_error(self, runner, instance_a_path, tmp_path,
                                           spec, message):
        out = tmp_path / "x.csv"
        res = runner.invoke(main, ["run", "--instance", instance_a_path, "--policy", spec,
                                   "--out", str(out)])
        assert_clean_usage_error(res)
        assert res.stderr == "error: %s\n" % message
        assert not out.exists()

    def test_empty_policy_selects_nothing(self, runner, instance_a_path, tmp_path):
        out = tmp_path / "run.csv"
        res = runner.invoke(main, ["run", "--instance", instance_a_path,
                                   "--policy", "empty", "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = read_rows(out)
        assert [(r["policy"], r["f_avg"], r["delta_evals"], r["ratio"]) for r in rows] == [
            ("empty", "0", "0", "0"), ("oracle", "1.75", "", "1")]

    def test_unknown_policy_is_usage_error(self, runner, instance_a_path, tmp_path):
        res = runner.invoke(main, ["run", "--instance", instance_a_path,
                                   "--policy", "frobnicate(k=2)",
                                   "--seed", "5", "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2
        assert "frobnicate" in res.output

    @pytest.mark.parametrize("spec", ["asg(k=x,eps=0.1)", "greedy(k=2.5)", "local(order=0:x)"])
    def test_malformed_number_is_usage_error(self, runner, tmp_path, spec):
        path = tmp_path / "part.json"
        save_instance(generate_coverage(4, 2, 6, 0.3, seed=1, groups=[[0, 1], [2, 3]],
                                        limits=[1, 1]), path)
        res = runner.invoke(main, ["run", "--instance", str(path), "--policy", spec,
                                   "--out", str(tmp_path / "x.csv")])
        assert_clean_usage_error(res)
        assert spec in res.output

    def test_subnormal_eps_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(generate_coverage(6, 2, 16, 0.2, seed=1, k=2), path)
        res = runner.invoke(main, ["run", "--instance", str(path), "--policy",
                                   "asg(k=2,eps=1e-320)", "--out", str(tmp_path / "x.csv")])
        assert_clean_usage_error(res)
        assert "1/epsilon overflows" in res.output

    @pytest.mark.parametrize("spec,key", [("greedy(k=2,eps=0.5,foo=1)", "eps, foo"),
                                          ("local(ordr=1:0)", "ordr")])
    def test_unknown_key_is_usage_error(self, runner, tmp_path, spec, key):
        path = tmp_path / "part.json"
        save_instance(generate_coverage(4, 2, 6, 0.3, seed=1, groups=[[0, 1], [2, 3]],
                                        limits=[1, 1]), path)
        out = tmp_path / "x.csv"
        res = runner.invoke(main, ["run", "--instance", str(path), "--policy", spec,
                                   "--out", str(out)])
        assert_clean_usage_error(res)
        assert "does not take %s" % key in res.output
        assert not out.exists()

    def test_monte_carlo_without_samples_is_usage_error(self, runner, instance_a_path,
                                                        tmp_path):
        res = runner.invoke(main, ["run", "--instance", instance_a_path,
                                   "--policy", "greedy(k=1)", "--mode", "mc",
                                   "--samples", "0", "--out", str(tmp_path / "x.csv")])
        assert_clean_usage_error(res)
        assert "samples" in res.output

    def test_reproducible_modulo_wall_time(self, runner, instance_a_path, tmp_path):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            res = runner.invoke(main, ["run", "--instance", instance_a_path,
                                       "--policy", "asg(k=2,eps=0.1)",
                                       "--seed", "9",
                                       "--out", str(out)])
            assert res.exit_code == 0, res.output
            with open(out) as fh:
                outs.append([line.rsplit(",", 1)[0] for line in fh])
        assert outs[0] == outs[1]


def _constraint_key(k):
    return type(k) is tuple and k[:1] in (("card",), ("part",))


def _memo_key(k):
    """(history pairs, constraint key) or the coverage kernel's
    (dom mask, covered mask, constraint key)."""
    return type(k) is tuple and (
        len(k) == 2 and _constraint_key(k[1])
        or len(k) == 3 and type(k[0]) is type(k[1]) is int and _constraint_key(k[2]))


def _f_state(v):
    """True for a CoverageUtility Delta state: the pricing function it makes."""
    return type(v) is types.FunctionType and v.__qualname__.startswith(
        CoverageUtility._new_state.__qualname__ + ".")


def _memo_tables():
    """Live oracle and exact-evaluation memos, and EvalContext's f states
    shared by covered mask (dicts from a mask to a pricing function)."""
    return [o for o in gc.get_objects()
            if type(o) is dict and o and (
                all(map(_memo_key, o))
                or all(type(k) is int and _f_state(v) for k, v in o.items()))]


def test_in_process_run_frees_memos_and_stream(instance_a_path, tmp_path):
    # A memo table held by a self-referencing closure, or a stream kept by
    # click's per-stream cache, outlives the call until a full collection,
    # which raises peak memory when run is called in-process.
    inst = generate_coverage(4, 2, 6, 0.3, seed=0)
    f = inst.utility()
    marginal_utility(f, inst.prior, PSI_EMPTY, 0)
    assert any(t is f._states for t in _memo_tables())
    del f
    args = ["run", "--instance", instance_a_path, "--policy", "greedy(k=2)",
            "--policy", "asg(k=2,eps=0.3)", "--policy", "random(k=1)",
            "--seed", "3", "--out", str(tmp_path / "run.csv")]
    main.main(args=args, prog_name="adasub", standalone_mode=False)
    gc.collect()
    gc.disable()
    try:
        before = {id(t) for t in _memo_tables()}
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main.main(args=args, prog_name="adasub", standalone_mode=False)
        stream = weakref.ref(buf)
        del buf
        assert stream() is None
        assert [t for t in _memo_tables() if id(t) not in before] == []
    finally:
        gc.enable()


class TestVerify:
    def test_clean_instance_exits_zero(self, runner, instance_a_path):
        res = runner.invoke(main, ["verify", "--instance", instance_a_path,
                                   "--checks", "monotone,submodular,fully"])
        assert res.exit_code == 0, res.output
        assert "PASS" in res.output

    def test_counterexample_exits_one_with_witness(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        save_instance(complementarity_counterexample(), path)
        res = runner.invoke(main, ["verify", "--instance", str(path),
                                   "--checks", "submodular"])
        assert res.exit_code == 1
        assert "FAIL" in res.output
        assert "psi2" in res.output

    def test_over_cap_exits_three(self, runner, tmp_path):
        path = tmp_path / "big.json"
        save_instance(generate_coverage(9, 2, 4, 0.2, seed=0), path)
        res = runner.invoke(main, ["verify", "--instance", str(path),
                                   "--checks", "fully"])
        assert res.exit_code == 3

    @pytest.mark.parametrize("check, name", [("monotone", "check_adaptive_monotone"),
                                             ("submodular", "check_adaptive_submodular"),
                                             ("fully", "check_fully_adaptive_submodular")])
    def test_a_rebound_check_function_is_called(self, runner, instance_a_path, monkeypatch,
                                                check, name):
        # A tracer rebinds adasub.cli.check_*; verify must call the rebound one.
        calls = []
        original = getattr(cli, name)

        def spy(f, prior):
            calls.append(name)
            return original(f, prior)

        monkeypatch.setattr(cli, name, spy)
        res = runner.invoke(main, ["verify", "--instance", instance_a_path, "--checks", check])
        assert res.exit_code == 0, res.output
        assert calls == [name] and "PASS" in res.output

    def test_unknown_check_is_usage_error(self, runner, instance_a_path):
        res = runner.invoke(main, ["verify", "--instance", instance_a_path,
                                   "--checks", "bogus"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("checks", ["", " , "])
    def test_empty_check_list_is_usage_error(self, runner, instance_a_path, checks):
        res = runner.invoke(main, ["verify", "--instance", instance_a_path, "--checks", checks])
        assert_clean_usage_error(res)
        assert "error: no checks given" in res.output


class TestMalformedInstance:
    @pytest.fixture
    def instance_dict(self):
        return json.loads(dumps_instance(generate_coverage(3, 2, 4, 0.3, seed=0, k=2)))

    def assert_usage_error(self, runner, tmp_path, d, huge=None):
        """`verify`, `run` and `oracle` on d exit 2; the string `huge`, if
        given, is written as the JSON number 1e999, which json reads as inf."""
        path = tmp_path / "bad.json"
        text = json.dumps(d)
        path.write_text(text if huge is None else text.replace(json.dumps(huge), "1e999"))
        for args in (["verify", "--instance", str(path)],
                     ["run", "--instance", str(path), "--policy", "greedy(k=2)",
                      "--seed", "0", "--out", str(tmp_path / "r.csv")],
                     ["oracle", "--instance", str(path)]):
            res = runner.invoke(main, args)
            assert res.exit_code == 2, res.output
            assert "error: " in res.output and "Traceback" not in res.output
            assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_int_covers_entry(self, runner, tmp_path, instance_dict):
        instance_dict["utility"]["covers"][1] = 7
        self.assert_usage_error(runner, tmp_path, instance_dict)

    def test_string_in_probs(self, runner, tmp_path, instance_dict):
        instance_dict["prior"]["probs"][0][1] = "half"
        self.assert_usage_error(runner, tmp_path, instance_dict)

    def test_overflowing_weight(self, runner, tmp_path, instance_dict):
        instance_dict["utility"]["weights"][1] = "HUGE"
        self.assert_usage_error(runner, tmp_path, instance_dict, huge="HUGE")

    def test_overflowing_table_value(self, runner, tmp_path):
        d = json.loads(dumps_instance(complementarity_counterexample()))
        d["utility"]["table"][3][0] = "HUGE"
        self.assert_usage_error(runner, tmp_path, d, huge="HUGE")

    # Each of these was truncated to an integer without a word, and oracle exited 0.
    def test_fractional_cover_element(self, runner, tmp_path, instance_dict):
        instance_dict["utility"]["covers"][0][1].append(2.5)
        self.assert_usage_error(runner, tmp_path, instance_dict)

    @pytest.mark.parametrize("field,value", [("limits", [1.5, 1]),
                                             ("groups", [[0.9, 1], [2]])])
    def test_fractional_partition_field(self, runner, tmp_path, field, value):
        d = json.loads(dumps_instance(generate_coverage(3, 2, 4, 0.3, seed=0,
                                                        groups=[[0, 1], [2]], limits=[1, 1])))
        d["constraint"][field] = value
        self.assert_usage_error(runner, tmp_path, d)

    # A bool is an int to isinstance, so `true` could pass as 1.
    @pytest.mark.parametrize("path", [("constraint", "k"), ("n",)], ids=["k", "n"])
    def test_bool_integer_field(self, runner, tmp_path, instance_dict, path):
        d = instance_dict
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = True
        self.assert_usage_error(runner, tmp_path, instance_dict)
        with pytest.raises(ParseError, match="field %r in .* has wrong type" % path[-1]):
            loads_instance(json.dumps(instance_dict))

    @pytest.mark.parametrize("field", ["support", "realizations"])
    def test_fractional_explicit_state(self, runner, tmp_path, field):
        d = json.loads(dumps_instance(complementarity_counterexample()))
        if field == "support":
            d["prior"]["support"][0]["states"] = [0.6, 0]
        else:
            d["utility"]["realizations"][0] = [0.6, 0]
        self.assert_usage_error(runner, tmp_path, d)

    def test_negative_explicit_state(self, runner, tmp_path):
        # `oracle` read state -1 as the item's last state and exited 0.
        d = json.loads(dumps_instance(generate_coverage(2, 2, 4, 0.5, seed=1, k=1)))
        d["prior"] = {"type": "explicit", "support": [{"states": [-1, 0], "p": 0.5},
                                                      {"states": [1, 1], "p": 0.5}]}
        self.assert_usage_error(runner, tmp_path, d)

    def test_explicit_support_without_items(self, runner, tmp_path):
        d = json.loads(dumps_instance(generate_coverage(2, 2, 4, 0.5, seed=1, k=1)))
        d["prior"] = {"type": "explicit", "support": [{"states": [], "p": 1.0}]}
        self.assert_usage_error(runner, tmp_path, d)
        res = runner.invoke(main, ["oracle", "--instance", str(tmp_path / "bad.json")])
        assert "explicit support has no items" in res.output

    # Each of these ended in a traceback and exit 1: "realization (0, 0) not in the table".
    @pytest.mark.parametrize("realizations", [[[0, 1]], [[0]]])
    def test_table_misses_the_explicit_support(self, runner, tmp_path, realizations):
        d = json.loads(dumps_instance(complementarity_counterexample()))
        d["utility"]["realizations"] = realizations
        self.assert_usage_error(runner, tmp_path, d)

    @pytest.mark.parametrize("probs", [[[0.5, 0.5], [0.5, 0.5]],    # 4 realizations, 2 columns
                                       [[0.5, 0.5], [1.0, 0.0]]])   # (1, 0) has no column
    def test_table_misses_the_independent_support(self, runner, tmp_path, probs):
        d = json.loads(dumps_instance(complementarity_counterexample()))
        d["m"] = 2
        d["prior"] = {"type": "independent", "probs": probs}
        d["utility"]["realizations"] = [[0, 0], [1, 1]]
        d["utility"]["table"] = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]
        self.assert_usage_error(runner, tmp_path, d)

    def test_binary_file(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{\x00")
        res = runner.invoke(main, ["verify", "--instance", str(path)])
        assert res.exit_code == 2, res.output
        assert "error: " in res.output


class TestOracle:
    def test_reports_value_and_nodes(self, runner, instance_a_path):
        res = runner.invoke(main, ["oracle", "--instance", instance_a_path])
        assert res.exit_code == 0, res.output
        assert "value 1.75" in res.output
        assert "nodes_expanded" in res.output

    def test_out_file_holds_the_printed_report(self, runner, instance_a_path, tmp_path):
        out = tmp_path / "oracle.txt"
        res = runner.invoke(main, ["oracle", "--instance", instance_a_path, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert out.read_text() == res.stdout
        assert res.stdout.startswith("value 1.75\noptimal_first_actions ")

    def test_too_large_exits_three(self, runner, tmp_path):
        path = tmp_path / "big.json"
        save_instance(generate_coverage(11, 2, 4, 0.2, seed=0), path)
        res = runner.invoke(main, ["oracle", "--instance", str(path)])
        assert res.exit_code == 3

    def test_budget_over_n_is_clamped(self, runner, tmp_path):
        # k=8 on n=5 items cannot be spent: the file solves as k=5
        spec = json.loads(dumps_instance(generate_coverage(5, 2, 8, 0.3, seed=4, k=5)))
        outputs = []
        for k in (5, 8):
            spec["constraint"]["k"] = k
            path = tmp_path / ("k%d.json" % k)
            path.write_text(json.dumps(spec))
            res = runner.invoke(main, ["oracle", "--instance", str(path)])
            assert res.exit_code == 0, res.output
            outputs.append(res.output)
        assert outputs[0] == outputs[1]
        out = tmp_path / "run.csv"
        res = runner.invoke(main, ["run", "--instance", str(path), "--policy", "greedy(k=8)",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert read_rows(out)[0]["ratio"] == "1"


class TestBench:
    def test_asg_counts_against_caps(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench", "--policy", "asg", "--n", "100",
                                   "--k", "10", "--eps", "0.1",
                                   "--seed", "0", "--out", str(out)])
        assert res.exit_code == 0, res.output
        row = read_rows(out)[0]
        assert int(row["delta_measured"]) <= int(row["delta_cap"]) == 240
        assert int(row["naive_evals"]) == 1000

    def test_greedy_exhausts_pool(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench", "--policy", "greedy", "--n", "8",
                                   "--k", "8", "--seed", "0", "--out", str(out)])
        assert res.exit_code == 0, res.output
        row = read_rows(out)[0]
        assert int(row["delta_measured"]) == 8 + 7 + 6 + 5 + 4 + 3 + 2 + 1

    def test_local_bench_counts(self, runner, tmp_path):
        inst_path = tmp_path / "part.json"
        save_instance(generate_coverage(8, 2, 8, 0.3, seed=1,
                                        groups=[[0, 1, 2, 3], [4, 5, 6, 7]],
                                        limits=[2, 1]), inst_path)
        out = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench", "--policy", "local",
                                   "--instance", str(inst_path),
                                   "--seed", "0", "--out", str(out)])
        assert res.exit_code == 0, res.output
        row = read_rows(out)[0]
        # per-round candidate counts: (4 + 3) for the first group, 4 for the second
        assert int(row["delta_measured"]) == (4 + 3) + 4
        assert int(row["delta_cap"]) == (4 + 3) + 4

    def test_history_past_the_evidence_product_underflow(self, runner, tmp_path):
        # 2,500 observations: the product of their states' masses is 0.0 in
        # double precision, yet every one of them has positive mass.
        out = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench", "--policy", "lazy", "--n", "3000", "--k", "2500",
                                   "--seed", "0", "--out", str(out)])
        assert res.exit_code == 0, res.output[:500]
        row = read_rows(out)[0]
        assert int(row["delta_measured"]) <= int(row["delta_cap"])

    def test_subnormal_eps_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench", "--policy", "asg", "--n", "10", "--k", "2",
                                   "--eps", "1e-320", "--seed", "0", "--out", str(out)])
        assert_clean_usage_error(res)
        assert "1/epsilon overflows" in res.output
        assert not out.exists()

    def test_sampling_policies_need_eps(self, runner, tmp_path):
        inst_path = tmp_path / "part.json"
        save_instance(generate_coverage(4, 2, 6, 0.3, seed=1, groups=[[0, 1], [2, 3]],
                                        limits=[1, 1]), inst_path)
        out = tmp_path / "bench.csv"
        for args in (["--policy", "asg", "--n", "8", "--k", "2"],
                     ["--policy", "gasg", "--instance", str(inst_path)]):
            res = runner.invoke(main, ["bench"] + args + ["--seed", "0", "--out", str(out)])
            assert_clean_usage_error(res)
            assert "--eps is required" in res.output
            assert not out.exists()


    @pytest.mark.parametrize("args,message", [
        (["--policy", "local"], "--instance is required for local"),
        (["--policy", "gasg", "--eps", "0.1", "--instance", "{card}"],
         "instance constraint must be a partition"),
        (["--policy", "greedy", "--n", "8"], "--n and --k are required for greedy"),
    ])
    def test_argument_errors_are_usage_errors(self, runner, tmp_path, args, message):
        card = tmp_path / "card.json"
        save_instance(generate_coverage(4, 2, 6, 0.3, seed=1, k=2), card)
        out = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench"] + [a.format(card=card) for a in args]
                            + ["--seed", "0", "--out", str(out)])
        assert_clean_usage_error(res)
        assert res.stderr == "error: %s\n" % message
        assert not out.exists()


class TestExitCodes:
    """The command group maps package errors and OSErrors to exit codes for
    every command; anything else still propagates."""

    @pytest.fixture
    def commands(self, instance_a_path):
        return {"gen": ["gen", "--n", "4"],
                "run": ["run", "--instance", instance_a_path, "--policy", "greedy(k=2)"],
                "oracle": ["oracle", "--instance", instance_a_path],
                "verify": ["verify", "--instance", instance_a_path],
                "bench": ["bench", "--policy", "greedy", "--n", "8", "--k", "2",
                          "--seed", "0"]}

    @pytest.mark.parametrize("command", ["gen", "run", "oracle", "verify", "bench"])
    def test_out_in_a_missing_directory_is_usage_error(self, runner, tmp_path, commands,
                                                       command):
        out = tmp_path / "missing" / "out.txt"
        res = runner.invoke(main, commands[command] + ["--out", str(out)])
        assert_clean_usage_error(res)
        assert "No such file or directory" in res.output
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["run", "oracle", "verify", "bench"])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_is_refused_before_any_work(self, runner, tmp_path, commands,
                                                       monkeypatch, command, where):
        def compute(*args, **kwargs):
            raise AssertionError("computed before --out was checked")

        for name in ("optimal_value", "expected_utility", "run_policy"):
            monkeypatch.setattr(cli, name, compute)
        for name in cli.CHECKS:
            monkeypatch.setitem(cli.CHECKS, name, compute)
        out = tmp_path / "missing" / "out.txt" if where == "missing directory" else tmp_path
        res = runner.invoke(main, commands[command] + ["--out", str(out)])
        assert_clean_usage_error(res)
        message = "No such file or directory" if where == "missing directory" else "Is a directory"
        assert res.output.startswith("error: [Errno ") and message in res.output
        assert not out.parent.exists() if where == "missing directory" else out.is_dir()

    def test_directory_as_instance_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["oracle", "--instance", str(tmp_path)])
        assert_clean_usage_error(res)

    def test_unexpected_package_error_is_usage_error(self, runner, instance_a_path,
                                                     monkeypatch):
        def refuse(*args):
            raise ZeroProbabilityEvidence("no mass here")

        monkeypatch.setattr(cli, "optimal_value", refuse)
        res = runner.invoke(main, ["oracle", "--instance", instance_a_path])
        assert_clean_usage_error(res)
        assert res.output == "error: no mass here\n"

    def test_over_cap_exits_three_through_the_group(self, runner, instance_a_path, tmp_path,
                                                    monkeypatch):
        def refuse(*args, **kwargs):
            raise InstanceTooLarge("over the cap")

        monkeypatch.setattr(cli, "optimal_value", refuse)
        res = runner.invoke(main, ["oracle", "--instance", instance_a_path])
        assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
        assert res.output == "error: over the cap\n"
        # run keeps its fallback for the oracle: no oracle row and a blank ratio
        out = tmp_path / "run.csv"
        args = ["run", "--instance", instance_a_path, "--policy", "greedy(k=2)",
                "--out", str(out)]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert [(r["policy"], r["ratio"]) for r in read_rows(out)] == [("greedy", "")]
        # and names the Monte Carlo mode when the policy's tree is over its cap
        monkeypatch.setattr(cli, "expected_utility", refuse)
        res = runner.invoke(main, args)
        assert res.exit_code == 3 and isinstance(res.exception, SystemExit)
        assert res.output == "error: over the cap; use --mode mc\n"

    def test_programming_error_keeps_its_traceback(self, runner, instance_a_path,
                                                   monkeypatch):
        bug = TypeError("a bug")

        def fail(*args):
            raise bug

        monkeypatch.setattr(cli, "optimal_value", fail)
        res = runner.invoke(main, ["oracle", "--instance", instance_a_path])
        assert res.exit_code == 1 and res.exception is bug

    def test_closed_stdout_is_left_to_click(self, runner, instance_a_path, monkeypatch):
        def fail(*args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "optimal_value", fail)
        res = runner.invoke(main, ["oracle", "--instance", instance_a_path])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output == ""


# Golden CSVs: `run` (exact and --mode mc, all six policies on one partition
# instance) and `bench` outputs.  Every column but wall_time_s must match byte
# for byte.  Rewrite them only for an intended output change:
# PYTHONPATH=src python tests/test_cli.py
GOLDEN = Path(__file__).parent / "golden"
SIX_POLICIES = ["greedy(k=2)", "lazy(k=2)", "asg(k=2,eps=0.3)", "random(k=2)",
                "local", "gasg(eps=0.3)"]
RUN_SIX = ["run", "--instance", "{instance}"] + [a for p in SIX_POLICIES for a in ("--policy", p)]
GOLDEN_COMMANDS = {
    "run_exact.csv": RUN_SIX,
    "run_mc.csv": RUN_SIX + ["--mode", "mc", "--samples", "200", "--seed", "4"],
    "bench_asg.csv": ["bench", "--policy", "asg", "--n", "40", "--n", "80", "--k", "4",
                      "--k", "8", "--eps", "0.1", "--eps", "0.3", "--seed", "2"],
    "bench_greedy.csv": ["bench", "--policy", "greedy", "--n", "40", "--k", "4", "--seed", "2"],
    "bench_lazy.csv": ["bench", "--policy", "lazy", "--n", "40", "--k", "4", "--seed", "2"],
    "bench_local.csv": ["bench", "--policy", "local", "--instance", "{instance}", "--seed", "3"],
    "bench_gasg.csv": ["bench", "--policy", "gasg", "--instance", "{instance}",
                       "--eps", "0.1", "--eps", "0.4", "--seed", "3"],
}


def csv_rows_without_wall_time(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if "wall_time_s" in rows[0]:
        i = rows[0].index("wall_time_s")
        rows = [row[:i] + row[i + 1:] for row in rows]
    return rows


def regenerate_golden(name, workdir):
    """Rows of golden file `name`, written afresh under workdir."""
    instance = workdir / "partition.json"
    runner = CliRunner()
    if not instance.exists():
        res = runner.invoke(main, ["gen", "--n", "8", "--seed", "3", "--groups",
                                   "0,1,2,3;4,5,6,7", "--limits", "2,1", "--out", str(instance)])
        assert res.exit_code == 0, res.output
    out = workdir / name
    args = [a.format(instance=instance) for a in GOLDEN_COMMANDS[name]]
    res = runner.invoke(main, args + ["--out", str(out)])
    assert res.exit_code == 0, res.output
    return csv_rows_without_wall_time(out)


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_csv_matches_the_golden_file(name, tmp_path):
    assert regenerate_golden(name, tmp_path) == csv_rows_without_wall_time(GOLDEN / name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN_COMMANDS:
            rows = regenerate_golden(name, Path(tmp))
            with open(GOLDEN / name, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
