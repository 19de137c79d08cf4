"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import math
import random
import statistics

import pytest
from click.testing import CliRunner

from adasub import (
    CardinalityConstraint,
    adaptive_greedy,
    adaptive_stochastic_greedy,
    check_adaptive_monotone,
    check_adaptive_submodular,
    check_fully_adaptive_submodular,
    complementarity_counterexample,
    exact_policy_value,
    generalized_asg,
    generate_coverage,
    lemma1_check,
    locally_greedy,
    marginal_utility,
    optimal_value,
    restricted_optimal,
    run_policy,
    sample_realization,
    save_instance,
)
from adasub.cli import main as cli_main
from adasub.policies import sample_budget

E_INV = 1.0 / math.e
TOL = 1e-9

EPS_GRID_CARD = (0.3, 0.1, 0.01)
EPS_GRID_PART = (0.1, 0.01)
REPLICATES = 500


def gate(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %-38s %s  %s" % (name, status, detail))
    assert ok, "%s: %s" % (name, detail)


def mean_se(vals):
    mean = statistics.fmean(vals)
    se = statistics.stdev(vals) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
    return mean, se


def check_exact(name, inst, eps, exact, mean, se, bound):
    """The exact value over internal randomness meets the bound with no SE
    slack and agrees with the mean of the seeded replicates."""
    if exact < bound:
        gate(name, False, "%s eps=%g exact %.6g < bound %.6g"
             % (inst.metadata["name"], eps, exact, bound))
    if abs(exact - mean) > 4.0 * se + 1e-12:
        gate(name, False, "%s eps=%g exact %.12g is %.3g from the replicate mean "
             "(se %.3g)" % (inst.metadata["name"], eps, exact, abs(exact - mean), se))


# every exact policy value computed below, as (value, optimum), for the
# oracle-dominance criterion
_DOMINANCE_LOG = []


def _card_suite():
    suite = []
    for i in range(30):
        n = 6 if i % 2 == 0 else 8
        k = 2 if i % 4 < 2 else 3
        inst = generate_coverage(n=n, m=2, universe_size=8, density=0.3,
                                 seed=1000 + i, k=k)
        opt = optimal_value(inst.utility(), inst.prior, CardinalityConstraint(k)).value
        suite.append((inst, k, opt))
    return suite


def _partition_suite():
    suite = []
    shapes = [
        (7, [[0, 1, 2], [3, 4, 5, 6]], [1, 2]),
        (8, [[0, 1, 2, 3], [4, 5, 6, 7]], [2, 2]),
        (8, [[0, 1, 2], [3, 4], [5, 6, 7]], [1, 1, 2]),
        (7, [[0, 1], [2, 3], [4, 5, 6]], [1, 1, 1]),
    ]
    for i in range(20):
        n, groups, limits = shapes[i % len(shapes)]
        inst = generate_coverage(n=n, m=2, universe_size=8, density=0.3,
                                 seed=2000 + i, groups=groups, limits=limits)
        opt = optimal_value(inst.utility(), inst.prior, inst.constraint).value
        suite.append((inst, groups, limits, opt))
    return suite


@pytest.fixture(scope="module")
def card_suite():
    return _card_suite()


@pytest.fixture(scope="module")
def partition_suite():
    return _partition_suite()


def test_criterion_1_asg_ratio(card_suite):
    worst = None
    for inst, k, opt in card_suite:
        f = inst.utility()
        cache = {}
        for eps in EPS_GRID_CARD:
            pi = adaptive_stochastic_greedy(k, eps)
            vals = [exact_policy_value(pi, f, inst.prior, seed="c1:%d" % r,
                                       delta_cache=cache)
                    for r in range(REPLICATES)]
            mean, se = mean_se(vals)
            bound = (1.0 - E_INV - eps) * opt - 3.0 * se
            margin = mean - bound
            if worst is None or margin < worst[0]:
                worst = (margin, inst.metadata["name"], eps, mean, bound)
            for v in vals:
                _DOMINANCE_LOG.append((v, opt))
            if mean < bound:
                gate("1 asg approximation ratio", False,
                     "instance %s eps=%g mean=%.6g < bound=%.6g"
                     % (inst.metadata["name"], eps, mean, bound))
            exact = exact_policy_value(pi, f, inst.prior, delta_cache=cache)
            check_exact("1 asg approximation ratio", inst, eps, exact, mean, se,
                        (1.0 - E_INV - eps) * opt)
    gate("1 asg approximation ratio", True,
         "worst margin %.4g (%s, eps=%g)" % (worst[0], worst[1], worst[2]))


def test_criterion_2_asg_complexity(card_suite):
    # per-rollout bound on the desk-scale suite
    for inst, k, _ in card_suite[:10]:
        for eps in EPS_GRID_CARD:
            pi = adaptive_stochastic_greedy(k, eps)
            cap = k * math.ceil(inst.n / k * math.log(1.0 / eps))
            for r in range(5):
                f = inst.utility()
                phi = sample_realization(inst.prior, random.Random("c2:%d" % r))
                run_policy(pi, f, inst.prior, phi, seed="c2:%d" % r)
                if f.delta_counter > cap:
                    gate("2 asg oracle-call cap", False,
                         "rollout used %d > cap %d" % (f.delta_counter, cap))
    # the large bench point: n=1000, k=50, eps=0.1
    inst = generate_coverage(n=1000, m=2, universe_size=16, density=0.2, seed=77)
    pi = adaptive_stochastic_greedy(50, 0.1)
    f = inst.utility()
    phi = sample_realization(inst.prior, random.Random("c2:big"))
    run_policy(pi, f, inst.prior, phi, seed="c2:big")
    used = f.delta_counter
    ok = used <= 2350 and used <= 0.05 * 1000 * 50
    gate("2 asg oracle-call cap", ok,
         "n=1000 rollout used %d (cap 2350, naive 50000)" % used)


def test_criterion_3_sampling_bound():
    worst = 1.0
    for n in (50, 100, 200):
        for k in (5, 10, 20):
            for eps in (0.3, 0.1, 0.05):
                res = lemma1_check(n, k, eps, trials=100_000,
                                   seed=n * 1000 + k * 10 + int(100 * eps))
                if not res.exact > res.bound:
                    gate("3 sampling hit probability", False,
                         "exact %.6g <= 1-eps %.6g at (%d,%d,%g)"
                         % (res.exact, res.bound, n, k, eps))
                dev = abs(res.empirical - res.exact)
                if dev > 4.0 * res.standard_error + 1e-12:
                    gate("3 sampling hit probability", False,
                         "empirical off by %.3g > 4 se at (%d,%d,%g)" % (dev, n, k, eps))
                worst = min(worst, res.exact - res.bound)
    gate("3 sampling hit probability", True,
         "min exact-bound gap %.4g over 27 grid points" % worst)


def test_criterion_4_locally_greedy_half(partition_suite):
    worst = None
    for idx, (inst, groups, limits, opt) in enumerate(partition_suite):
        b = len(groups)
        orders = set()
        rng = random.Random("c4:%d" % idx)
        while len(orders) < min(3, math.factorial(b)):
            orders.add(tuple(rng.sample(range(b), b)))
        for order in sorted(orders):
            pi = locally_greedy(groups, limits, order)
            val = exact_policy_value(pi, inst.utility(), inst.prior, delta_cache={})
            _DOMINANCE_LOG.append((val, opt))
            margin = val - (0.5 * opt - TOL)
            if worst is None or margin < worst[0]:
                worst = (margin, inst.metadata["name"], order)
            if margin < 0:
                gate("4 locally greedy >= opt/2", False,
                     "%s order=%s value %.6g < half-opt %.6g"
                     % (inst.metadata["name"], order, val, 0.5 * opt))
    gate("4 locally greedy >= opt/2", True,
         "worst margin %.4g (%s)" % (worst[0], worst[1]))


def test_criterion_5_gasg_ratio_and_cap(partition_suite):
    worst = None
    for inst, groups, limits, opt in partition_suite:
        f = inst.utility()
        cache = {}
        for eps in EPS_GRID_PART:
            pi = generalized_asg(groups, limits, eps)
            vals = [exact_policy_value(pi, f, inst.prior, seed="c5:%d" % r,
                                       delta_cache=cache)
                    for r in range(REPLICATES)]
            mean, se = mean_se(vals)
            ratio = (1.0 - E_INV - eps) / (4.0 - 2.0 * E_INV - 2.0 * eps)
            bound = ratio * opt - 3.0 * se
            margin = mean - bound
            if worst is None or margin < worst[0]:
                worst = (margin, inst.metadata["name"], eps)
            for v in vals:
                _DOMINANCE_LOG.append((v, opt))
            if mean < bound:
                gate("5 gasg ratio and cap", False,
                     "%s eps=%g mean %.6g < bound %.6g"
                     % (inst.metadata["name"], eps, mean, bound))
            exact = exact_policy_value(pi, f, inst.prior, delta_cache=cache)
            check_exact("5 gasg ratio and cap", inst, eps, exact, mean, se, ratio * opt)
            cap = sum(d * math.ceil(len(g) / d * math.log(1.0 / eps))
                      for g, d in zip(groups, limits))
            for r in range(5):
                fr = inst.utility()
                phi = sample_realization(inst.prior, random.Random("c5r:%d" % r))
                run_policy(pi, fr, inst.prior, phi, seed="c5r:%d" % r)
                if fr.delta_counter > cap:
                    gate("5 gasg ratio and cap", False,
                         "rollout used %d > cap %d" % (fr.delta_counter, cap))
    gate("5 gasg ratio and cap", True,
         "worst ratio margin %.4g (%s, eps=%g)" % worst)


def test_criterion_6_gasg_vs_local(partition_suite):
    worst = None
    for inst, groups, limits, opt in partition_suite:
        f = inst.utility()
        cache = {}
        local_val = exact_policy_value(locally_greedy(groups, limits), f,
                                       inst.prior, delta_cache=cache)
        for eps in EPS_GRID_PART:
            pi = generalized_asg(groups, limits, eps)
            vals = [exact_policy_value(pi, f, inst.prior, seed="c6:%d" % r,
                                       delta_cache=cache)
                    for r in range(REPLICATES)]
            mean, se = mean_se(vals)
            ratio = (1.0 - E_INV - eps) / (2.0 - E_INV - eps)
            bound = ratio * local_val - 3.0 * se
            margin = mean - bound
            if worst is None or margin < worst[0]:
                worst = (margin, inst.metadata["name"], eps)
            if mean < bound:
                gate("6 gasg vs locally greedy", False,
                     "%s eps=%g mean %.6g < bound %.6g"
                     % (inst.metadata["name"], eps, mean, bound))
            exact = exact_policy_value(pi, f, inst.prior, delta_cache=cache)
            check_exact("6 gasg vs locally greedy", inst, eps, exact, mean, se,
                        ratio * local_val)
    gate("6 gasg vs locally greedy", True,
         "worst margin %.4g (%s, eps=%g)" % worst)


def test_criterion_7_definitional_checkers(prior_a, utility_a):
    for seed in (0, 1, 2, 3, 4):
        inst = generate_coverage(n=5, m=2, universe_size=6, density=0.3, seed=seed)
        if not check_adaptive_monotone(inst.utility(), inst.prior).passed:
            gate("7 definitional checkers", False, "coverage failed monotone")
        if not check_adaptive_submodular(inst.utility(), inst.prior).passed:
            gate("7 definitional checkers", False, "coverage failed submodular")
    bad = complementarity_counterexample()
    r1 = check_adaptive_submodular(bad.utility(), bad.prior)
    r2 = check_adaptive_submodular(bad.utility(), bad.prior)
    if r1.passed or r1.counterexample != r2.counterexample:
        gate("7 definitional checkers", False, "counterexample not reproducible")
    fully = check_fully_adaptive_submodular(utility_a, prior_a)
    if not fully.passed:
        gate("7 definitional checkers", False, "fully-adaptive check failed on fixture")
    # singleton-V restricted values agree exactly with the item-marginal form
    from adasub.verify import enumerate_partial_realizations
    for psi in enumerate_partial_realizations(prior_a):
        for e in range(2):
            if e in psi:
                continue
            lhs = restricted_optimal(utility_a, prior_a, psi, (e,), 1)
            rhs = max(marginal_utility(utility_a, prior_a, psi, e), 0.0)
            if abs(lhs - rhs) > 1e-12:
                gate("7 definitional checkers", False,
                     "singleton-V reduction mismatch at %r" % (psi.pairs,))
    gate("7 definitional checkers", True,
         "sweeps pass; witness reproducible; singleton-V agreement exact")


def test_criterion_8_oracle_dominance():
    assert _DOMINANCE_LOG, "ratio criteria must run first"
    worst = min(opt + TOL - v for v, opt in _DOMINANCE_LOG)
    gate("8 oracle dominance", worst >= 0,
         "%d exact values, worst slack %.4g" % (len(_DOMINANCE_LOG), worst))


def test_criterion_9_saturation_equivalence(card_suite):
    for i in range(100):
        inst, k, _ = card_suite[i % len(card_suite)]
        phi = sample_realization(inst.prior, random.Random("c9:%d" % i))
        eps = 0.001  # sample of ceil((n/k) ln 1000) >= n: saturates every round
        assert sample_budget(inst.n, inst.n, k, eps) == inst.n
        asg_trace = run_policy(adaptive_stochastic_greedy(k, eps), inst.utility(),
                               inst.prior, phi, seed="c9:%d" % i)
        greedy_trace = run_policy(adaptive_greedy(k), inst.utility(), inst.prior, phi)
        if asg_trace.steps != greedy_trace.steps:
            gate("9 saturation equivalence", False, "asg != greedy on pair %d" % i)
        lazy_trace = run_policy(adaptive_greedy(k, "lazy"), inst.utility(),
                                inst.prior, phi)
        if [s.chosen for s in lazy_trace.steps] != [s.chosen for s in greedy_trace.steps]:
            gate("9 saturation equivalence", False, "lazy != naive on pair %d" % i)
    gate("9 saturation equivalence", True, "100 (instance, realization) pairs")


def test_criterion_10_csv_determinism(card_suite, tmp_path):
    inst, k, _ = card_suite[0]
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    runner = CliRunner()
    stripped = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = runner.invoke(cli_main, [
            "run", "--instance", str(path),
            "--policy", "greedy(k=%d)" % k, "--policy", "asg(k=%d,eps=0.1)" % k,
            "--policy", "random(k=%d)" % k,
            "--seed", "123", "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out, "rb") as fh:
            stripped.append([line.rsplit(b",", 1)[0] for line in fh])
    benches = []
    for name in ("ba.csv", "bb.csv"):
        out = tmp_path / name
        res = runner.invoke(cli_main, [
            "bench", "--policy", "asg", "--n", "60", "--k", "5",
            "--eps", "0.1", "--eps", "0.3", "--seed", "7", "--out", str(out)])
        assert res.exit_code == 0, res.output
        benches.append(out.read_bytes())
    ok = stripped[0] == stripped[1] and benches[0] == benches[1]
    gate("10 seeded csv determinism", ok,
         "run (sans wall time) and bench outputs byte-identical")


def test_criterion_11_premises(card_suite, partition_suite):
    """The ratios asserted by criteria 1/5/6 assume adaptive monotonicity and
    adaptive submodularity (Golovin and Krause, JAIR 2011): every instance
    they run on meets both, each sweep deciding every inequality."""
    name = "11 premises"
    suite = [inst for inst, *_ in card_suite] + [inst for inst, *_ in partition_suite]
    for inst in suite:
        f, prior, n = inst.utility(), inst.prior, inst.n
        # Every state has mass, so depth j holds C(n, j) * m^j histories, each
        # with n - j unobserved items and 2^j sub-histories.
        deltas = [math.comb(n, j) * prior.m ** j * (n - j) for j in range(n + 1)]
        for report, pairs in (
                (check_adaptive_monotone(f, prior), sum(deltas)),
                (check_adaptive_submodular(f, prior),
                 sum(d * 2 ** j for j, d in enumerate(deltas)))):
            if not report.passed:
                gate(name, False, "%s is not %s: %r"
                     % (inst.metadata["name"], report.name, report.counterexample))
            if report.pairs_checked != pairs:
                gate(name, False, "%s: %s decided %d inequalities, expected %d"
                     % (inst.metadata["name"], report.name, report.pairs_checked, pairs))
    gate(name, True, "%d instances adaptive monotone and submodular; the fully-adaptive "
         "premise (partition suite, n=7-8) waits for ROADMAP direction 3: "
         "FULLY_ADAPTIVE_CAPS stops at n=5" % len(suite))
