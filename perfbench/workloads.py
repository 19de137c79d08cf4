"""The benchmark's workloads: inputs drawn from a seed, one job, output checks.

Each job calls adasub through module attributes (``policies.run_policy``,
``verify.check_adaptive_monotone``, ...) so that the traced run's wrappers
see it.  Checks test properties that any correct implementation keeps --
bounds, caps, closed-form counts, recomputed values -- never selected item
ids, so a tie-break fix or a new evaluation engine still passes them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import random
import time
from pathlib import Path

from adasub import cli, core, instances, policies, verify

E_INV = 1.0 / math.e
TOL = 1e-9
EPS = 0.1


@dataclasses.dataclass
class JobResult:
    delta_calls: int
    comparisons: int
    problems: list


def subseed(*parts) -> int:
    """A 32-bit generator seed derived from the workload seed and a label."""
    return random.Random(":".join(map(str, parts))).getrandbits(32)


class Workload:
    """Inputs are built in setup(); job(i) is what the timed loop measures.

    Job i uses input i % cycle.  The timed loop stops only at a multiple of
    `cycle`, so every run measures the same mix of job kinds.
    """

    name = ""
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> float:
        """Build the inputs; return the CPU seconds spent generating instances."""
        return 0.0

    def job(self, i):
        raise NotImplementedError

    def check(self, i, out) -> JobResult:
        raise NotImplementedError

    def negative_control(self, out) -> list:
        """Feed check() doctored copies of job 0's output `out`.

        Returns a description of every doctored output check() accepted;
        an empty list shows that the checks can fail.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------


class RolloutN1000(Workload):
    """One ASG and one lazy-greedy rollout on a fresh realization per job."""

    name = "rollout-n1000"
    N, K = 1000, 50
    ASG_CAP = K * math.ceil(N / K * math.log(1.0 / EPS))    # 2,350
    LAZY_CAP = K * N - K * (K - 1) // 2                      # sum_{r<k} (n-r) = 48,775

    def setup(self):
        # Every seed uses the ROADMAP's n=1000 instance; the seed picks the
        # realizations and ASG's samples.  Fresh instances would move
        # delta_calls_per_job by several percent from seed to seed.
        t0 = time.thread_time()
        inst = instances.generate_coverage(n=self.N, m=2, universe_size=16, density=0.2,
                                           seed=77)
        gen_s = time.thread_time() - t0
        path = self.workdir / "rollout-n1000.json"
        instances.save_instance(inst, path)
        with open(path) as fh:
            spec = json.load(fh)["utility"]
        self.inst = inst
        self.weights = spec["weights"]
        self.covers = [[frozenset(elems) for elems in row] for row in spec["covers"]]
        return gen_s

    def job(self, i):
        stream = "%s:%d:%d" % (self.name, self.seed, i)
        prior = self.inst.prior
        phi = core.sample_realization(prior, random.Random(stream))
        runs = []
        for pi in (policies.adaptive_stochastic_greedy(self.K, EPS),
                   policies.adaptive_greedy(self.K, "lazy")):
            f = self.inst.utility()
            trace = policies.run_policy(pi, f, prior, phi, seed=stream)
            runs.append((pi.name, trace, f.delta_counter))
        return phi, runs

    def coverage(self, selected, phi):
        covered = set()
        for e in selected:
            covered |= self.covers[e][phi[e]]
        return sum(self.weights[x] for x in sorted(covered))

    def check(self, i, out):
        phi, runs = out
        problems = []
        for name, trace, deltas in runs:
            sel = trace.selected
            if len(set(sel)) != len(sel) or len(sel) > self.K:
                problems.append("%s selected %d items, %d distinct"
                                % (name, len(sel), len(set(sel))))
            if any(step.observed != phi[step.chosen] for step in trace.steps):
                problems.append("%s observed a state other than the realization's" % name)
            own = self.coverage(sel, phi)
            if abs(trace.value - own) > TOL * max(1.0, abs(own)):
                problems.append("%s value %r != recomputed coverage %r"
                                % (name, trace.value, own))
            cap = self.ASG_CAP if name == "asg" else self.LAZY_CAP
            if deltas > cap:
                problems.append("%s used %d Delta calls > cap %d" % (name, deltas, cap))
        return JobResult(sum(d for _, _, d in runs), 0, problems)

    def negative_control(self, out):
        phi, runs = out
        name, trace, deltas = runs[0]
        doctored = {
            "value +1e-6": [(name, dataclasses.replace(trace, value=trace.value + 1e-6),
                             deltas)],
            "Delta count over cap": [(name, trace, self.ASG_CAP + 1)],
        }
        return [label for label, bad in doctored.items()
                if not self.check(0, (phi, bad)).problems]


# ---------------------------------------------------------------------------


CARD_SUITE = 30
PARTITION_SHAPES = (
    (7, [[0, 1, 2], [3, 4, 5, 6]], [1, 2]),
    (8, [[0, 1, 2, 3], [4, 5, 6, 7]], [2, 2]),
    (8, [[0, 1, 2], [3, 4], [5, 6, 7]], [1, 1, 2]),
    (7, [[0, 1], [2, 3], [4, 5, 6]], [1, 1, 1]),
)
PARTITION_SUITE = 20
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_seed0.json"


def acceptance_suites(seed):
    """The acceptance-test instance suites; seed 0 gives the tests' own instances.

    Yields (kind, index, instance) for 30 cardinality instances then 20
    partition instances.
    """
    for i in range(CARD_SUITE):
        n = 6 if i % 2 == 0 else 8
        k = 2 if i % 4 < 2 else 3
        s = 1000 + i if seed == 0 else subseed("card", seed, i)
        yield "card", i, instances.generate_coverage(
            n=n, m=2, universe_size=8, density=0.3, seed=s, k=k)
    for i in range(PARTITION_SUITE):
        n, groups, limits = PARTITION_SHAPES[i % len(PARTITION_SHAPES)]
        s = 2000 + i if seed == 0 else subseed("partition", seed, i)
        yield "partition", i, instances.generate_coverage(
            n=n, m=2, universe_size=8, density=0.3, seed=s, groups=groups, limits=limits)


class RunSmall(Workload):
    """One in-process `adasub run` per job, cycling over the acceptance suites."""

    name = "run-small"
    cycle = CARD_SUITE + PARTITION_SUITE

    def setup(self):
        t0 = time.thread_time()
        suites = list(acceptance_suites(self.seed))
        gen_s = time.thread_time() - t0
        self.jobs = []
        for kind, idx, inst in suites:
            path = self.workdir / ("%s-%02d.json" % (kind, idx))
            instances.save_instance(inst, path)
            if kind == "card":
                k = inst.constraint.remaining
                specs = ["greedy(k=%d)" % k, "asg(k=%d,eps=%g)" % (k, EPS)]
            else:
                specs = ["local", "gasg(eps=%g)" % EPS]
            args = ["run", "--instance", str(path), "--seed", str(self.seed),
                    "--out", str(self.workdir / "run.csv")]
            for spec in specs:
                args += ["--policy", spec]
            self.jobs.append((kind, args))
        self.reference = None
        if self.seed == 0:
            with open(REFERENCE_FILE) as fh:
                ref = json.load(fh)
            self.reference = ref["card"] + ref["partition"]
        return gen_s

    def job(self, i):
        _, args = self.jobs[i % self.cycle]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(args=args, prog_name="adasub", standalone_mode=False)
        with open(self.workdir / "run.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def check(self, i, rows):
        kind, _ = self.jobs[i % self.cycle]
        problems = []
        by_name = {row["policy"]: row for row in rows}
        expected = {"greedy", "asg"} if kind == "card" else {"local", "gasg"}
        if set(by_name) != expected | {"oracle"} or len(rows) != len(expected) + 1:
            return JobResult(0, 0, ["rows %r, expected %r plus the oracle"
                                    % (sorted(by_name), sorted(expected))])
        opt = float(by_name["oracle"]["f_avg"])
        if self.reference is not None:
            ref = self.reference[i % self.cycle]
            if abs(opt - ref) > TOL:
                problems.append("oracle %r != reference %r" % (opt, ref))
        val = {name: float(by_name[name]["f_avg"]) for name in expected}
        se = {name: float(by_name[name]["stderr"]) for name in expected}
        for name, v in val.items():
            if v > opt + TOL:
                problems.append("%s value %r exceeds the optimum %r" % (name, v, opt))
        if kind == "card":
            bounds = {"greedy": (1.0 - E_INV) * opt - TOL,
                      "asg": (1.0 - E_INV - EPS) * opt - 3.0 * se["asg"]}
        else:
            ratio_opt = (1.0 - E_INV - EPS) / (4.0 - 2.0 * E_INV - 2.0 * EPS)
            ratio_local = (1.0 - E_INV - EPS) / (2.0 - E_INV - EPS)
            bounds = {"local": 0.5 * opt - TOL,
                      "gasg": max(ratio_opt * opt, ratio_local * val["local"])
                      - 3.0 * se["gasg"]}
        for name, bound in bounds.items():
            if val[name] < bound:
                problems.append("%s value %r below its bound %r" % (name, val[name], bound))
        deltas = sum(int(by_name[name]["delta_evals"]) for name in expected)
        return JobResult(deltas, 0, problems)

    def negative_control(self, rows):
        def doctored(policy, value):
            return [dict(row, f_avg="%.12g" % value) if row["policy"] == policy else row
                    for row in rows]

        opt = float(next(r for r in rows if r["policy"] == "oracle")["f_avg"])
        cases = {"greedy above the optimum by 1e-6": doctored("greedy", opt + 1e-6),
                 "greedy at half the optimum": doctored("greedy", 0.5 * opt)}
        if self.reference is not None:
            cases["oracle off its reference by 1e-6"] = doctored("oracle", opt + 1e-6)
        return [label for label, bad in cases.items() if not self.check(0, bad).problems]


# ---------------------------------------------------------------------------


def monotone_pairs(n):
    """Comparisons of the monotone sweep, m=2 with every state possible."""
    return sum(math.comb(n, j) * 2 ** j * (n - j) for j in range(n + 1))


def submodular_pairs(n):
    return sum(math.comb(n, j) * 4 ** j * (n - j) for j in range(n + 1))


def fully_pairs(n):
    # every (psi' extending psi) pair, every nonempty V, every budget 1..|V|
    return sum(math.comb(n, j) * 4 ** j for j in range(n + 1)) * n * 2 ** (n - 1)


class VerifySmall(Workload):
    """The definitional checkers on two fresh small coverage instances per job."""

    name = "verify-small"
    SIZES = (4, 6)

    def job(self, i):
        reports = []
        deltas = 0
        for n in self.SIZES:
            inst = instances.generate_coverage(n=n, m=2, universe_size=6, density=0.3,
                                               seed=subseed(self.name, self.seed, i, n))
            checks = [verify.check_adaptive_monotone, verify.check_adaptive_submodular]
            if n == 4:
                checks.append(verify.check_fully_adaptive_submodular)
            f = inst.utility()
            reports += [(n, check(f, inst.prior)) for check in checks]
            deltas += f.delta_counter
        return reports, deltas

    def check(self, i, out):
        reports, deltas = out
        closed_form = {"adaptive-monotone": monotone_pairs,
                       "adaptive-submodular": submodular_pairs,
                       "fully-adaptive-submodular": fully_pairs}
        problems = []
        if len(reports) != 5:
            problems.append("%d reports, expected 5" % len(reports))
        for n, rep in reports:
            if not rep.passed:
                problems.append("n=%d %s failed: %r" % (n, rep.name, rep.counterexample))
            expected = closed_form[rep.name](n)
            if rep.pairs_checked != expected:
                problems.append("n=%d %s checked %d pairs, expected %d"
                                % (n, rep.name, rep.pairs_checked, expected))
        return JobResult(deltas, sum(r.pairs_checked for _, r in reports), problems)

    def negative_control(self, out):
        reports, deltas = out
        bad = instances.complementarity_counterexample()
        failed = verify.check_adaptive_submodular(bad.utility(), bad.prior)
        # keep the comparison count at its closed form so only `passed` can flag it
        failed = dataclasses.replace(failed, pairs_checked=submodular_pairs(4))
        swapped = [(n, failed if (n, r.name) == (4, failed.name) else r)
                   for n, r in reports]
        miscounted = [(n, dataclasses.replace(r, pairs_checked=r.pairs_checked + 1))
                      for n, r in reports]
        cases = {"complementarity counterexample": swapped,
                 "comparison count off by one": miscounted}
        return [label for label, bad_out in cases.items()
                if not self.check(0, (bad_out, deltas)).problems]


WORKLOADS = {w.name: w for w in (RolloutN1000, RunSmall, VerifySmall)}
