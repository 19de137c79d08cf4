"""Command-line driver: instance generation, experiments, verification,
oracle queries and oracle-call accounting.

All randomness flows from --seed; outputs are CSV or plain-text files whose
bytes are reproducible for a fixed seed (the wall-time column excepted).

Exit status: 0 success, 1 check failure, 2 usage/config error, 3 instance
over the exhaustive-computation caps.  The command group maps package
errors to these codes in one place: InstanceTooLarge exits 3, any other
AdasubError or an OSError (an unreadable instance, an unwritable --out)
exits 2, each with one `error: ...` line.  An --out in a missing directory,
or one that is a directory, is refused before any work is done.
"""

from __future__ import annotations

import csv
import errno
import os
import random
import re
import sys
import time

import click

from . import __version__
from .errors import AdasubError, InstanceTooLarge, ValidationError
from .evaluation import expected_utility
from .instances import generate_coverage, load_instance, save_instance
from .oracle import optimal_value
from .policies import (
    PartitionConstraint,
    adaptive_greedy,
    adaptive_stochastic_greedy,
    empty_policy,
    generalized_asg,
    locally_greedy,
    random_policy,
    run_policy,
)
from .verify import (
    check_adaptive_monotone,
    check_adaptive_submodular,
    check_fully_adaptive_submodular,
)

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.12g" % x
    return "" if x is None else str(x)


def _echo(message: str, err: bool = False, nl: bool = True):
    # Name the stream: left to find it, click caches a wrapper per stream
    # object and the cache keeps each stream alive, so every in-process call
    # made with a fresh sys.stdout (a test runner, a redirect) would leak it.
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


def _fail(code: int, message: str):
    _echo("error: %s" % message, err=True)
    sys.exit(code)


_POLICY_RE = re.compile(r"^([a-z_]+)\s*(?:\((.*)\))?$")
# The keys each policy descriptor takes; any other key is a usage error.
_POLICY_KEYS = {"empty": (), "greedy": ("k",), "lazy": ("k",), "asg": ("k", "eps"),
                "random": ("k",), "local": ("order",), "gasg": ("eps", "order")}


def parse_policy(text: str, instance=None):
    """Parse a policy descriptor such as 'asg(k=2,eps=0.1)' or 'local(order=1:0)'."""
    m = _POLICY_RE.match(text.strip())
    if not m:
        raise ValidationError("cannot parse policy descriptor %r" % text)
    name, argstr = m.group(1), m.group(2) or ""
    kv = {}
    for part in filter(None, (p.strip() for p in argstr.split(","))):
        if "=" not in part:
            raise ValidationError("bad argument %r in policy %r" % (part, text))
        key, val = part.split("=", 1)
        kv[key.strip()] = val.strip()
    if name not in _POLICY_KEYS:
        raise ValidationError("unknown policy %r" % name)
    unknown = sorted(set(kv) - set(_POLICY_KEYS[name]))
    if unknown:
        raise ValidationError("policy %r does not take %s" % (text, ", ".join(unknown)))

    def order_arg():
        return [int(x) for x in kv["order"].split(":")] if "order" in kv else None

    try:
        if name == "empty":
            return empty_policy()
        if name in ("greedy", "lazy"):
            return adaptive_greedy(int(kv["k"]), variant=name if name == "lazy" else "naive")
        if name == "asg":
            return adaptive_stochastic_greedy(int(kv["k"]), float(kv["eps"]))
        if name == "random":
            return random_policy(int(kv["k"]))
        if name in ("local", "gasg"):
            if instance is None or not isinstance(instance.constraint, PartitionConstraint):
                raise ValidationError(
                    "policy %r needs an instance with a partition constraint" % name)
            groups = instance.constraint.groups
            limits = instance.constraint.remaining
            if name == "local":
                return locally_greedy(groups, limits, order_arg())
            return generalized_asg(groups, limits, float(kv["eps"]), order_arg())
    except KeyError as exc:
        raise ValidationError("policy %r is missing argument %s" % (text, exc))
    except ValueError as exc:
        raise ValidationError("malformed number in policy %r: %s" % (text, exc))


class _Group(click.Group):
    """Turns a package error out of any command into its exit code; click's
    own exceptions, SystemExit and programming errors pass through."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InstanceTooLarge as exc:
            _fail(EXIT_TOO_LARGE, str(exc))
        except BrokenPipeError:
            raise   # click exits 1 quietly when stdout is closed
        except (AdasubError, OSError) as exc:
            _fail(EXIT_USAGE, str(exc))


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="adasub")
def main():
    """Adaptive submodular maximization: policies, oracle, checkers."""


def _writable_out(ctx, param, out):
    """--out, unless open(out, "w") would fail for want of its directory or
    because out is one: that OSError is raised now, before any work, and
    nothing is created."""
    if out is not None:
        if not os.path.isdir(os.path.dirname(out) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
        if os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    return out


def _int_list(option: str, text: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError("%s needs comma-separated integers, got %r" % (option, text))


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, default=2, show_default=True)
@click.option("--universe", type=int, default=8, show_default=True)
@click.option("--density", type=float, default=0.3, show_default=True)
@click.option("--wmin", type=float, default=0.5, show_default=True)
@click.option("--wmax", type=float, default=1.5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--k", type=int, default=None, help="Cardinality budget.")
@click.option("--groups", default=None,
              help="Partition groups, e.g. '0,1;2,3' (overrides --k).")
@click.option("--limits", default=None, help="Per-group budgets, e.g. '1,1'.")
@click.option("--out", type=click.Path(), required=True)
def gen(n, m, universe, density, wmin, wmax, seed, k, groups, limits, out):
    """Generate a random stochastic-coverage instance file."""
    group_lists = limit_list = None
    if groups is not None:
        group_lists = [_int_list("--groups", g) for g in groups.split(";")]
        if limits is None:
            raise ValidationError("--groups requires --limits")
        limit_list = _int_list("--limits", limits)
    inst = generate_coverage(n, m, universe, density, (wmin, wmax), seed,
                             k=k, groups=group_lists, limits=limit_list)
    save_instance(inst, out)
    _echo("wrote %s" % out)


RUN_COLUMNS = ["policy", "params", "f_avg", "stderr", "delta_evals", "f_evals",
               "ratio", "wall_time_s"]


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--policy", "policy_specs", multiple=True,
              help="Policy descriptor; repeatable.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seeds the rollouts of --mode mc; exact mode samples nothing.")
@click.option("--mode", type=click.Choice(["exact", "mc"]), default="exact",
              show_default=True)
@click.option("--samples", type=int, default=10_000, show_default=True,
              help="Monte Carlo rollouts per policy in mc mode.")
@click.option("--out", type=click.Path(), required=True, callback=_writable_out)
def run(instance_path, policy_specs, seed, mode, samples, out):
    """Evaluate policies on an instance; one CSV row per policy plus the oracle.

    Exact mode reports each policy's exact expected utility over the item
    states and its own internal randomness (stderr 0).  Its delta_evals
    counts the Delta calls of that one evaluation: for asg and gasg every
    visited history prices its whole pool, so this is the cost of the
    evaluation, not the policy's per-run Delta budget (see `bench`).  A
    policy tree over the exact-evaluation size cap exits 3; --mode mc
    estimates the value from --samples seeded rollouts, with their standard
    error.
    """
    inst = load_instance(instance_path)
    policies = [parse_policy(p, inst) for p in policy_specs]
    try:
        opt = optimal_value(inst.utility(), inst.prior, inst.constraint).value
    except InstanceTooLarge:
        opt = None
    rows = []
    for spec, pi in zip(policy_specs, policies):
        f = inst.utility()
        t0 = time.perf_counter()
        try:
            if mode == "exact":
                favg, se = expected_utility(f, inst.prior, pi), 0.0
            else:
                favg, se = expected_utility(f, inst.prior, pi, mode="mc",
                                            samples=samples, seed=seed)
        except InstanceTooLarge as exc:
            _fail(EXIT_TOO_LARGE, "%s; use --mode mc" % exc)
        wall = time.perf_counter() - t0
        ratio = favg / opt if opt else None
        rows.append([pi.name, ";".join("%s=%s" % kv for kv in sorted(pi.params().items())),
                     favg, se, f.delta_counter, f.f_counter, ratio, wall])
    if opt is not None and rows:
        rows.append(["oracle", "", opt, 0.0, None, None, 1.0, None])
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    _echo("wrote %s" % out)


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), default=None, callback=_writable_out)
def oracle(instance_path, out):
    """Exhaustive optimal-policy value for a small instance."""
    inst = load_instance(instance_path)
    res = optimal_value(inst.utility(), inst.prior, inst.constraint)
    lines = ["value %s" % _fmt(res.value),
             "optimal_first_actions %s" % ",".join(map(str, res.optimal_first_actions)),
             "nodes_expanded %d" % res.nodes_expanded,
             "cache_hits %d" % res.cache_hits]
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    _echo(text, nl=False)


# Each check is looked up when it runs, so a rebound adasub.cli.check_* is called.
CHECKS = {
    "monotone": lambda f, prior: check_adaptive_monotone(f, prior),
    "submodular": lambda f, prior: check_adaptive_submodular(f, prior),
    "fully": lambda f, prior: check_fully_adaptive_submodular(f, prior),
}


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--checks", default="monotone,submodular", show_default=True,
              help="Comma-separated subset of monotone,submodular,fully.")
@click.option("--out", type=click.Path(), default=None, callback=_writable_out)
def verify(instance_path, checks, out):
    """Run definitional checkers; nonzero exit on any violation."""
    inst = load_instance(instance_path)
    names = [c.strip() for c in checks.split(",") if c.strip()]
    if not names:
        _fail(EXIT_USAGE, "no checks given")
    unknown = [c for c in names if c not in CHECKS]
    if unknown:
        _fail(EXIT_USAGE, "unknown checks: %s" % ",".join(unknown))
    reports = [CHECKS[name](inst.utility(), inst.prior) for name in names]
    text = "\n".join(r.format() for r in reports) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    _echo(text, nl=False)
    if not all(r.passed for r in reports):
        sys.exit(EXIT_CHECK_FAILED)


BENCH_COLUMNS = ["policy", "n", "budget", "epsilon", "delta_measured",
                 "delta_cap", "naive_evals"]


@main.command()
@click.option("--policy", "policy_name",
              type=click.Choice(["asg", "greedy", "lazy", "local", "gasg"]),
              required=True)
@click.option("--n", "ns", type=int, multiple=True)
@click.option("--k", "ks", type=int, multiple=True)
@click.option("--eps", "eps_list", type=float, multiple=True)
@click.option("--instance", "instance_path", type=click.Path(exists=True), default=None,
              help="Partition instance for local/gasg benches.")
@click.option("--m", type=int, default=2, show_default=True)
@click.option("--universe", type=int, default=16, show_default=True)
@click.option("--density", type=float, default=0.2, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", type=click.Path(), required=True, callback=_writable_out)
def bench(policy_name, ns, ks, eps_list, instance_path, m, universe, density, seed, out):
    """Measure oracle-call counts per rollout against the theoretical caps."""
    rows = []
    if policy_name in ("asg", "gasg") and not eps_list:
        raise ValidationError("--eps is required for asg/gasg")
    if policy_name in ("local", "gasg"):
        if instance_path is None:
            raise ValidationError("--instance is required for %s" % policy_name)
        inst = load_instance(instance_path)
        if not isinstance(inst.constraint, PartitionConstraint):
            raise ValidationError("instance constraint must be a partition")
        # (instance, k, rollout stream); k=None: the instance's budgets
        cases = [(inst, None, "bench|%s" % seed)]
    else:
        if not ns or not ks:
            raise ValidationError("--n and --k are required for %s" % policy_name)
        cases = []
        for n in ns:
            inst = generate_coverage(n, m, universe, density, seed=seed)
            cases += [(inst, k, "bench|%s|%d|%d" % (seed, n, k)) for k in ks]
    eps_grid = list(eps_list) if policy_name in ("asg", "gasg") else [None]
    for inst, k, stream in cases:
        for eps in eps_grid:
            args = [] if k is None else ["k=%d" % k]
            args += [] if eps is None else ["eps=%r" % eps]
            pi = parse_policy("%s(%s)" % (policy_name, ",".join(args)), inst)
            f = inst.utility()
            phi = inst.prior.sample(random.Random(stream))
            run_policy(pi, f, inst.prior, phi, seed=stream)
            budget = sum(inst.constraint.remaining) if k is None else k
            rows.append([pi.name, inst.n, budget, eps, f.delta_counter,
                         pi.oracle_call_cap(inst.n), inst.n * budget])
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    _echo("wrote %s" % out)


if __name__ == "__main__":
    main()
