"""adasub benchmark: one closed-loop client, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload rollout-n1000 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

The package is imported from ``src/`` of the same checkout; nothing needs
installing.  Each job starts when the previous one ends.  The timed phase
runs until `--seconds` have passed and at least MIN_JOBS jobs are done,
stopping only at a whole cycle of the workload's inputs (see workloads.py).
Every job's output is checked; a job fails if it raises or a check fails.

Times are in reference CPU seconds.  On a shared virtual CPU (measured on
a 2-vCPU KVM Xeon guest at 2.0 GHz) the wall time of the same job swings by
2x or more: the hypervisor takes the vCPU away for whole slices (steal
time), and while it runs, its speed changes within seconds as neighbours
come and go.  So a job is timed by this thread's CPU time, which leaves out
steal, and a fixed pure-Python kernel, `probe()`, is timed the same way
before and after every job and set-up.  The job's CPU time is multiplied by
(PROBE_REF_S / mean of the two probes) ** PROBE_EXPONENT; PROBE_REF_S is
the probe's time on that guest when it runs slowest.  The exponent is below
1 because the jobs gain less than the probe when the guest runs fast: by
0.75 to 0.95 of the probe's change on a log scale, measured over the three
workloads' jobs in both speed regimes.  The benchmark does no
blocking I/O beyond small page-cache file reads and writes, so CPU time is
what a user on a dedicated CPU would wait.  Wall and CPU times are kept in
the result record as well.

End-to-end metrics (``--trace 0``):

  jobs_per_s           jobs per reference second of job time
  job_p50_ms           median job time
  job_p90_ms           90th percentile job time (sample count printed)
  delta_calls_per_job  Delta calls per job, from the package's public counters,
                       over the first MIN_JOBS jobs, so it repeats exactly for
                       a fixed seed
  setup_s              import time plus the median of SETUP_REPEATS set-ups
                       (instance generation and JSON writing, reference
                       loading, one warm-up job); interpreter start-up is not
                       included
  peak_rss_mb          ru_maxrss of this process, MiB

``error_rate`` (failed / attempted) is printed with them; the result line
carries it as its `failed` and `attempted` fields.

Per-layer metrics (``--trace 1``) come from a separate run with the
wrappers of tracing.py installed.  That run first times CALIBRATION_JOBS
jobs untraced, then installs the wrappers and runs the timed phase from job
0; `trace.overhead_pct` compares the two timings of those same jobs.

The last line of standard output is the JSON result.  A fuller record
(environment, seed, per-job times, and in a traced run the coarse spans)
goes to ``.bench_out/`` in the checkout.
"""

import argparse
import heapq
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

MIN_JOBS = 100          # at least ten samples beyond p90
CALIBRATION_JOBS = 20
SETUP_REPEATS = 3
HARD_STOP_S = 150.0     # end the timed phase this long after start, whatever happens
PROBE_REF_S = 0.0013    # probe() time that defines one reference second (see above)
PROBE_EXPONENT = 0.85


class _ProbeItem:
    __slots__ = ("key", "val")

    def __init__(self, key, val):
        self.key = key
        self.val = val

    def score(self, weight):
        return self.val * weight


def _probe_kernel():
    # Object attributes, method calls, tuple-keyed dict caching, filtered
    # list comprehensions, a heap and small sorts: the mix of the package's
    # own Python, so the host's speed changes move both alike.
    rng = random.Random(7)
    items = [_ProbeItem((i, i % 3), rng.random()) for i in range(400)]
    cache = {}
    heap = []
    acc = 0.0
    for rnd in range(6):
        seen = frozenset(range(rnd * 7, rnd * 7 + 20))
        pool = [it for it in items if it.key[0] not in seen]
        for it in pool[::3]:
            key = (it.key, rnd)
            val = cache.get(key)
            if val is None:
                val = it.score(1.5) + len(seen)
                cache[key] = val
            heapq.heappush(heap, (-val, it.key[0]))
        acc -= heapq.heappop(heap)[0]
        acc += sum(sorted(it.val for it in pool[:30]))
    return acc


def probe():
    """CPU seconds a fixed pure-Python kernel takes now: median of three runs.

    The kernel must never change: PROBE_REF_S and every earlier result
    depend on it.
    """
    times = []
    for _ in range(3):
        t0 = time.thread_time()
        _probe_kernel()
        times.append(time.thread_time() - t0)
    return statistics.median(times)


def speed_factor(*probes):
    """Reference seconds per CPU second, from probes around an interval."""
    return (PROBE_REF_S * len(probes) / sum(probes)) ** PROBE_EXPONENT


def declared_metrics():
    """Workload names and {metric: unit} for both modes, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ([w["name"] for w in bench["workloads"]],
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def import_adasub():
    """Import adasub from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "adasub" / "__init__.py").is_file():
        sys.exit("error: %s/adasub not found; run from a full checkout" % src)
    # Single-threaded: keep numpy's BLAS from starting a thread pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import adasub
    from adasub import cli, core, evaluation, instances, oracle, policies, verify
    if Path(adasub.__file__).resolve().parent != (src / "adasub").resolve():
        sys.exit("error: imported adasub from %s, not %s" % (adasub.__file__, src))
    return {"adasub": adasub, "core": core, "policies": policies, "evaluation": evaluation,
            "oracle": oracle, "verify": verify, "instances": instances, "cli": cli}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"seed": seed, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_commit": git_commit()}


class Phase:
    """Per-job record of one timed phase.

    `times` are reference seconds: the job's CPU time times the speed factor
    from the probes either side of it.
    """

    def __init__(self):
        self.times = []
        self.cpu_times = []
        self.wall_times = []
        self.deltas = []
        self.comparisons = 0
        self.failures = []
        self.wall = 0.0


def run_job(wl, i, phase, tracer=None):
    """Run and check job i, noting its checks in `phase`.

    Returns (CPU seconds, wall seconds, output), with None for the output of
    a job that raised.
    """
    if tracer is not None:
        deltas_before = tracer.count["core.delta"]
    c0 = time.thread_time()
    t0 = time.perf_counter()
    try:
        out = tracer.run_job(i, lambda: wl.job(i)) if tracer else wl.job(i)
        error = None
    except SystemExit as exc:       # click commands leave through sys.exit
        error = "exited with status %r" % (exc.code,)
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = time.thread_time() - c0
    if error is not None:
        phase.deltas.append(0)
        phase.failures.append((i, [error]))
        return cpu, wall, None
    res = wl.check(i, out)
    if tracer is not None:
        traced = tracer.count["core.delta"] - deltas_before
        if traced != res.delta_calls:
            res.problems.append("traced Delta calls %d != counters %d"
                                % (traced, res.delta_calls))
    phase.deltas.append(res.delta_calls)
    phase.comparisons += res.comparisons
    if res.problems:
        phase.failures.append((i, res.problems))
    return cpu, wall, out


def timed_phase(wl, seconds, min_jobs, started, tracer=None):
    phase = Phase()
    start = time.perf_counter()
    before = probe()
    i = 0
    while True:
        now = time.perf_counter()
        if i % wl.cycle == 0 and i >= min_jobs and now - start >= seconds:
            break
        if now - started >= HARD_STOP_S:
            print("warning: hard stop after %d jobs" % i, file=sys.stderr)
            break
        cpu, wall, _ = run_job(wl, i, phase, tracer)
        after = probe()
        phase.cpu_times.append(cpu)
        phase.wall_times.append(wall)
        phase.times.append(cpu * speed_factor(before, after))
        before = after
        i += 1
    phase.wall = time.perf_counter() - start
    return phase


def run_workload(args, e2e_units, layer_units):
    probe_start = probe()
    started = time.perf_counter()
    cpu0 = time.thread_time()
    mods = import_adasub()
    import tracing
    import workloads
    import_s = (time.thread_time() - cpu0) * speed_factor(probe_start, probe())

    env = environment(args.seed)
    workdir = OUT_DIR / ("work-%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_times, gen_times = [], []
        warm = Phase()
        for _ in range(SETUP_REPEATS):
            before = probe()
            c0 = time.thread_time()
            gen_s = wl.setup()
            _, _, out = run_job(wl, 0, warm)
            cpu = time.thread_time() - c0
            factor = speed_factor(before, probe())
            setup_times.append(cpu * factor)
            gen_times.append(gen_s * factor)
        setup_s = import_s + statistics.median(setup_times)
        problems = ["warm-up job %s" % "; ".join(ps) for _, ps in warm.failures]
        if out is not None:
            # Negative control, untimed: doctored outputs must fail the checks.
            problems += ["negative control accepted: %s" % label
                         for label in wl.negative_control(out)]

        tracer = None
        phases = []
        if args.trace:
            calib_jobs = math.ceil(CALIBRATION_JOBS / wl.cycle) * wl.cycle
            calib = timed_phase(wl, 0.0, calib_jobs, started)
            phases.append(calib)
            tracer = tracing.Tracer()
            tracing.install(tracer, mods)
            timed = timed_phase(wl, args.seconds, len(calib.times), started, tracer)
            common = min(len(calib.times), len(timed.times))
            overhead = 100.0 * (sum(timed.times[:common]) / sum(calib.times[:common]) - 1.0)
        else:
            timed = timed_phase(wl, args.seconds, MIN_JOBS, started)
        phases.append(timed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.times) for p in phases)
    failures = [f for p in phases for f in p.failures]
    jobs = len(timed.times)
    if args.trace:
        # Spans are timed by the wall clock, which is cheap to read; convert
        # with the phase's reference-to-wall ratio.
        metrics = tracing.per_layer_metrics(tracer, jobs, timed.comparisons,
                                            sum(timed.times) / sum(timed.wall_times))
        metrics["instances.gen_ms"] = 1e3 * statistics.median(gen_times)
        metrics["trace.overhead_pct"] = overhead
        units = layer_units
    else:
        metrics = {
            "jobs_per_s": jobs / sum(timed.times),
            "job_p50_ms": 1e3 * statistics.median(timed.times),
            "job_p90_ms": 1e3 * statistics.quantiles(timed.times, n=10)[8],
            "delta_calls_per_job": statistics.fmean(timed.deltas[:MIN_JOBS]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = e2e_units
    if set(metrics) != set(units):
        sys.exit("error: computed metrics %s differ from BENCHMARK.json's %s"
                 % (sorted(metrics), sorted(units)))

    for i, msgs in failures[:5]:
        print("job %d failed:\n  %s" % (i, "\n  ".join(msgs)), file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)

    print("workload %s  seed %d  trace %d  timed jobs %d: %.3f s wall, %.3f s CPU, "
          "%.3f s reference" % (args.workload, args.seed, args.trace, jobs, timed.wall,
                                sum(timed.cpu_times), sum(timed.times)))
    for name in units:
        print("  %-36s %14.6g %s" % (name, metrics[name], units[name]))
    print("  %-36s %14.6g ratio  (%d of %d jobs failed)" % (
        "error_rate", len(failures) / attempted, len(failures), attempted))
    print("env " + json.dumps(env, sort_keys=True))

    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  env=env, error_rate=len(failures) / attempted, problems=problems,
                  failures=failures[:20], import_ref_s=import_s,
                  setup_repeats_ref_s=setup_times,
                  job_times_ref_s=timed.times, job_times_cpu_s=timed.cpu_times,
                  job_times_wall_s=timed.wall_times)
    stem = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / (stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(results / (stem + "-spans.csv.gz"))
    print(json.dumps(result))


def run_all(args, names):
    """Run every workload in a child process of its own; print a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit("error: workload %s exited with status %d" % (name, proc.returncode))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = val
    print(json.dumps(combined))


def main(argv=None):
    names, e2e_units, layer_units = declared_metrics()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args, names)
    else:
        run_workload(args, e2e_units, layer_units)


if __name__ == "__main__":
    main()
