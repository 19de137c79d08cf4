"""Per-layer tracing, installed from outside the package.

`install` rebinds public entry points of the adasub modules to timing
wrappers, in every module namespace that holds the name (``adasub.cli``
imports ``exact_policy_value`` and ``optimal_value`` by name, for example),
so nothing under ``src/`` changes.  It is called only in a traced run.

Two kinds of boundary are recorded:

* coarse spans -- the job, ``cli.run``, ``exact_policy_value``,
  ``optimal_value``/``restricted_optimal``, the ``check_*`` sweeps,
  ``run_policy`` and instance loading/generation -- are kept one by one as
  (name, start, end, parent span, job id) and written out when the run ends;
* fine boundaries -- Delta calls, f evaluations, ``decide``, ``rng_for``,
  ``condition`` and ``expected_set_value`` -- keep only a count, total time
  and self time per name, because a job makes ~10^4 of them.

Every boundary, coarse or fine, feeds the per-name aggregates.  Self time is
a span's duration minus the time covered by the traced calls made inside it.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict

DELTA = "core.delta"
EXACT_EVAL = "evaluation.exact_policy_value"
ORACLE_SPANS = ("oracle.optimal_value", "oracle.restricted_optimal")
CHECK_SPANS = ("verify.check_adaptive_monotone", "verify.check_adaptive_submodular",
               "verify.check_fully_adaptive_submodular")


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)    # counts that are not spans
        self.open = defaultdict(int)        # coarse spans currently open, by name
        self._stack = []                    # child time of each open boundary
        self._parents = []                  # ids of the open coarse spans
        self.job = -1
        self._names = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_job = array("l")

    def _name_id(self, name):
        return self._names.setdefault(name, len(self._names))

    def wrap(self, name, fn, coarse=False, before=None):
        """Return fn wrapped as a traced boundary called `name`.

        `before(*args, **kwargs)` runs untimed ahead of each call; it is how
        a wrapper counts a property of its arguments (cache lookups, tree
        nodes) without a second span.
        """
        stack, is_open = self._stack, self.open
        count, total, self_time = self.count, self.total, self.self_time
        clock = time.perf_counter
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            if coarse:
                span = self._open_span(name_id)
                is_open[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                count[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if coarse:
                    is_open[name] -= 1
                    self._close_span(span, start, end)

        return wrapper

    def _open_span(self, name_id):
        span = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self._parents[-1] if self._parents else -1)
        self.span_job.append(self.job)
        self._parents.append(span)
        return span

    def _close_span(self, span, start, end):
        self.span_start[span] = start
        self.span_end[span] = end
        self._parents.pop()

    def run_job(self, index, fn):
        """Run fn() as the coarse span of job `index`."""
        self.job = index
        try:
            return self.wrap("job", fn, coarse=True)()
        finally:
            self.job = -1

    def write_spans(self, path):
        """Write every coarse span as gzip-compressed CSV, times in seconds."""
        names = {i: n for n, i in self._names.items()}
        t0 = min(self.span_start) if len(self.span_start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent,job\n")
            for i in range(len(self.span_name)):
                fh.write("%d,%s,%.9f,%.9f,%d,%d\n" % (
                    i, names[self.span_name[i]], self.span_start[i] - t0,
                    self.span_end[i] - t0, self.span_parent[i], self.span_job[i]))


def install(tracer: Tracer, adasub_modules):
    """Rebind the traced entry points in every adasub module namespace."""
    core, policies, evaluation, oracle, verify, instances, cli = (
        adasub_modules[k] for k in ("core", "policies", "evaluation", "oracle",
                                    "verify", "instances", "cli"))
    namespaces = list(adasub_modules.values())

    def rebind(module, attr, name, coarse=False, before=None):
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, coarse, before)
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is original:
                    setattr(ns, key, wrapped)

    counters = tracer.counters

    for module, attr in ((policies, "run_policy"), (evaluation, "exact_policy_value"),
                         (oracle, "optimal_value"), (oracle, "restricted_optimal"),
                         (verify, "check_adaptive_monotone"),
                         (verify, "check_adaptive_submodular"),
                         (verify, "check_fully_adaptive_submodular"),
                         (instances, "load_instance"), (instances, "generate_coverage")):
        rebind(module, attr, "%s.%s" % (module.__name__.split(".")[-1], attr), coarse=True)
    cli.run.callback = tracer.wrap("cli.run", cli.run.callback, coarse=True)

    rebind(core, "marginal_utility", DELTA)
    rebind(core, "condition", "core.condition")
    rebind(core, "expected_set_value", "core.expected_set_value")

    def delta_lookup(ctx, e, psi):
        if ctx.delta_cache is not None and ctx.mode == "exact" and e not in psi:
            counters["core.delta_cache_lookups"] += 1
            if (psi.pairs, e) in ctx.delta_cache:
                counters["core.delta_cache_hits"] += 1

    core.EvalContext.delta = tracer.wrap(DELTA, core.EvalContext.delta, before=delta_lookup)
    core.EvalContext.rng_for = tracer.wrap("core.rng_for", core.EvalContext.rng_for)
    core.UtilityFunction.value = tracer.wrap("core.f", core.UtilityFunction.value)

    # One decide per node of an exact policy-tree evaluation.
    def tree_node(*_args):
        if tracer.open[EXACT_EVAL]:
            counters["evaluation.tree_nodes"] += 1

    for cls in vars(policies).values():
        if (isinstance(cls, type) and issubclass(cls, policies.Policy)
                and "decide" in vars(cls)):
            cls.decide = tracer.wrap("policies.decide", cls.decide, before=tree_node)

    # Node and memo-hit counts of every oracle solve, read from its OracleResult.
    solve = oracle._solve

    @functools.wraps(solve)
    def counted_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        counters["oracle.nodes"] += res.nodes_expanded
        counters["oracle.memo_hits"] += res.cache_hits
        return res

    oracle._solve = counted_solve


def per_layer_metrics(tracer: Tracer, jobs: int, comparisons: int, speed: float):
    """Per-job layer metrics from a traced phase of `jobs` jobs.

    Times are converted to reference seconds with the phase's mean speed
    factor `speed`, like the end-to-end job times.
    """
    c, k = tracer.count, tracer.counters
    t = defaultdict(float, {name: speed * v for name, v in tracer.total.items()})
    s = defaultdict(float, {name: speed * v for name, v in tracer.self_time.items()})

    def ratio(num, den):
        return num / den if den else 0.0

    def us_per_call(name):
        return ratio(1e6 * t[name], c[name])

    return {
        "core.delta_us": us_per_call(DELTA),
        "core.delta_share": ratio(t[DELTA], t["job"]),
        "core.f_evals_per_job": c["core.f"] / jobs,
        "core.f_us": us_per_call("core.f"),
        "core.condition_calls_per_job": c["core.condition"] / jobs,
        "core.delta_cache_hit_ratio": ratio(k["core.delta_cache_hits"],
                                            k["core.delta_cache_lookups"]),
        "core.rng_for_us": us_per_call("core.rng_for"),
        "core.expected_set_value_ms_per_job": 1e3 * t["core.expected_set_value"] / jobs,
        "policies.decide_calls_per_job": c["policies.decide"] / jobs,
        "policies.decide_self_us": ratio(1e6 * s["policies.decide"], c["policies.decide"]),
        "evaluation.calls_per_job": c[EXACT_EVAL] / jobs,
        "evaluation.tree_nodes_per_job": k["evaluation.tree_nodes"] / jobs,
        "evaluation.self_ms_per_job": 1e3 * s[EXACT_EVAL] / jobs,
        "oracle.calls_per_job": sum(c[n] for n in ORACLE_SPANS) / jobs,
        "oracle.nodes_per_job": k["oracle.nodes"] / jobs,
        "oracle.memo_hit_ratio": ratio(k["oracle.memo_hits"],
                                       k["oracle.memo_hits"] + k["oracle.nodes"]),
        "oracle.self_ms_per_job": 1e3 * sum(s[n] for n in ORACLE_SPANS) / jobs,
        "verify.comparisons_per_job": comparisons / jobs,
        "verify.self_ms_per_job": 1e3 * sum(s[n] for n in CHECK_SPANS) / jobs,
        "instances.load_ms_per_job": 1e3 * t["instances.load_instance"] / jobs,
        "cli.self_ms_per_job": 1e3 * s["cli.run"] / jobs,
    }
