"""Benchmark of the linear and scoring phases of one policycate ``table2`` replication.

Usage, from the repository root:

    python3 perfbench/run.py --workload linear-cv --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` a run does a fixed list of units: ``round(seconds /
unit_s)`` of them, where ``unit_s`` is the workload's nominal time per unit
(``workloads.py``).  The list depends only on the arguments, so a faster
program does the same units on the same inputs, only sooner.  Each unit runs
in a child process of its own, one after another (a closed loop), with
BLAS/OpenMP threads pinned to 1.  The child imports the package from
``src/``, sets up the unit's input, runs one untimed unit at smoke size so
every code path has run once, then times the unit.  On a shared machine one
process can run steadily slower than the next, so a process per unit
averages over processes.  Set-up runs once per process; processes that
only set up follow the unit processes until there are ``SETUP_SAMPLES``
set-up samples.

Every unit's outputs are checked (see ``workloads.py``), and units with
equal inputs must give equal outputs, across processes too.  A unit that raises
or fails a check counts as failed; ``failed``/``attempted`` is the failure
rate.  A full-size unit whose input has no recorded seed-commit reference
is checked against its invariants only and flagged on stderr and in
``unreferenced_units``.

The last stdout line reports, with ``--trace 0``: ``setup_s`` (median over
processes of import plus set-up), ``wall_s`` (median unit
time), ``peak_rss_mb`` (the largest process's), and the workload's ``profit`` and
``mse`` (means over units).  With ``--trace 1`` the run stays in one
process: it wraps the package's public functions (``tracer.py``), runs one
traced set-up, one untimed pass over unit 0, then pairs of untraced and
traced passes over unit 0, alternating which runs first, for ``--seconds``.
It reports per-layer metrics for one set-up plus one unit, and checks that
every expected function was reached, that exact counts repeat between
passes, and that traced outputs equal untraced ones.  Spans are written to
``.perfbench/traces/``.

``--smoke`` runs every workload at tiny sizes in both modes and checks the
benchmark's own logic in seconds.
"""

import os
import sys
import time

T_START = time.perf_counter()
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
DECLARED = os.path.join(ROOT, "BENCHMARK.json")  # metric names and units
WORKLOAD_NAMES = ("linear-cv", "evaluate-1e6")
MIN_TRACED_PASSES = 2
# Set-up is timed once per process, and a process's speed on a shared machine
# can differ by half between processes; setup_s is the median over this many.
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # a run must end within 180 s; unit processes are killed past this


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--unit", type=int, help=argparse.SUPPRESS)
    p.add_argument("--sizes", choices=("full", "smoke"), default="full", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and None in (args.workload, args.seed, args.seconds):
        p.error("--workload, --seed and --seconds are required")
    return args


def import_package():
    if not os.path.isfile(os.path.join(SRC, "policycate", "__init__.py")):
        sys.exit(f"perfbench: {SRC}/policycate not found; run from a full checkout")
    sys.path.insert(0, SRC)
    global tracer, workloads
    import tracer
    import workloads

    return time.perf_counter() - T_START


def environment(args, units):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": units,
    }


def git_sha():
    """HEAD of the checkout, read from .git without running git; unknown otherwise."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_references():
    with open(REFERENCE) as f:
        return json.load(f)["units"]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def unit_count(wl, seconds):
    """Units of an untraced run: a function of the arguments only."""
    return max(1, round(seconds / wl.unit_s))


class UnitLog:
    """Failure accounting and the output check shared by both modes.

    ``refs`` maps reference keys to the seed commit's outputs; it is None
    at smoke size, where no references exist.
    """

    def __init__(self, wl, refs):
        self.wl = wl
        self.refs = refs
        self.attempted = self.failed = self.unreferenced = 0
        self.seen = {}  # reference key -> first summary; equal inputs, equal outputs

    def run(self, state, r, sizes, tracer_obj=None):
        """Run and check unit r; returns (seconds, cpu seconds, outcome, passed)."""
        self.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = self.wl.unit(state, r, sizes)
            dt, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer_obj is not None:
                tracer_obj.enabled = False  # the check's own calls are not traced
            problems = self.check(state, r, out)
        except Exception:
            self.failed += 1
            print(f"perfbench: unit {r} raised\n{traceback.format_exc()}", file=sys.stderr)
            return None, None, None, False
        if problems:
            self.failed += 1
            print(f"perfbench: unit {r} failed its check: {problems}", file=sys.stderr)
        return dt, cpu, out, not problems

    def check(self, state, r, out):
        key = self.wl.ref_key(state, r)
        ref = None
        if self.refs is not None:
            ref = self.refs.get(self.wl.name, {}).get(key)
            if ref is None:
                self.unreferenced += 1
                print(
                    f"perfbench: WARNING: no seed-commit reference for {self.wl.name} input "
                    f"{key}; unit {r} is checked against its invariants only",
                    file=sys.stderr,
                )
        problems = self.wl.check(state, r, out, ref)
        summary = out.summary()
        if self.seen.setdefault(key, summary) != summary:
            problems.append(f"input {key} gave different outputs on two units")
        return problems

    def warm_up(self, seed, workdir):
        """One unit at smoke size, so every code path has run once before timing.

        It counts as attempted, and as failed if it fails.  A full-size
        warm-up would double the time of each unit's process.
        """
        smoke_log = UnitLog(self.wl, None)
        state = self.wl.setup(seed, [0], workloads.SMOKE, os.path.join(workdir, "warm-up"))
        smoke_log.run(state, 0, workloads.SMOKE)
        self.attempted += smoke_log.attempted
        self.failed += smoke_log.failed


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def run_unit(wl, args, sizes, refs, workdir):
    """Set up and run unit ``args.unit`` in this process; returns what the parent aggregates.

    A process numbered ``unit_count`` or above is a set-up sample only: it
    sets up the input of unit ``args.unit % unit_count`` and runs nothing.
    """
    n_units = unit_count(wl, args.seconds)
    r = args.unit % n_units
    t0 = time.perf_counter()
    state = wl.setup(args.seed, [r], sizes, workdir)
    record = {
        "setup_s": args.import_s + time.perf_counter() - t0,
        "import_s": args.import_s,
        "seconds": None,
    }
    log = UnitLog(wl, refs)
    if args.unit < n_units:
        log.warm_up(args.seed, workdir)
        dt, _, out, passed = log.run(state, r, sizes)
        if out is not None:
            profit, mse = wl.headline(state, out)
            record.update(
                seconds=dt,
                passed=passed,
                key=wl.ref_key(state, r),
                summary=out.summary(),
                profit=profit,
                mse=mse,
            )
    record.update(
        attempted=log.attempted,
        failed=log.failed,
        unreferenced=log.unreferenced,
        peak_rss_mb=peak_rss_mb(),
    )
    return record


def run_untraced(wl, args):
    """Run every unit in a child process of its own, one after another, and aggregate.

    Set-up-only processes follow the unit processes until ``setup_s`` has
    ``SETUP_SAMPLES`` samples.
    """
    n_units = unit_count(wl, args.seconds)
    records = []
    for r in range(max(n_units, SETUP_SAMPLES)):
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", wl.name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--unit", str(r), "--sizes", args.sizes,
        ]
        budget = RUN_LIMIT_S - (time.perf_counter() - T_START)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(budget, 1))
        if proc.returncode != 0:
            raise RuntimeError(f"process {r} exited with code {proc.returncode}")
        records.append(json.loads(proc.stdout.splitlines()[-1]))

    done = [u for u in records if u["seconds"] is not None]
    failed = sum(u["failed"] for u in records)
    seen = {}
    for u in done:
        if seen.setdefault(u["key"], u["summary"]) != u["summary"] and u["passed"]:
            failed += 1
            print(f"perfbench: input {u['key']} gave different outputs in two units", file=sys.stderr)
    times = [u["seconds"] for u in done]
    metrics = {
        "setup_s": _median([u["setup_s"] for u in records]),
        "wall_s": _median(times),
        "peak_rss_mb": max(u["peak_rss_mb"] for u in records),
        "profit": _mean([u["profit"] for u in done]),
        "mse": _mean([u["mse"] for u in done]),
    }
    attempted = sum(u["attempted"] for u in records)
    detail = {
        "import_s": [u["import_s"] for u in records],
        "setup_times_s": [u["setup_s"] for u in records],
        "unit_times_s": times,
        "measured_units": len(times),
        "unreferenced_units": sum(u["unreferenced"] for u in records),
        "fail_frac": failed / attempted,
    }
    return attempted, failed, metrics, detail, n_units


def _join(a, b):
    """Concatenate two span slices, re-basing the second slice's parent indices."""
    off = len(a)
    return a + [[n, s, e, p + off if p >= 0 else -1, u, x] for n, s, e, p, u, x in b]


def run_traced(wl, args, sizes, refs, workdir):
    tr = tracer.Tracer()
    tr.install(extra_modules=[workloads])
    log = UnitLog(wl, refs)
    problems = []
    ratios, cpu_util, per_pass = [], [], []
    first_spans = None
    try:
        tr.unit = "setup"
        state = wl.setup(args.seed, [0], sizes, workdir)
        setup_spans, tr.spans = tr.spans, []
        tr.enabled = False
        log.run(state, 0, sizes)  # untimed, so that both passes of every pair start warm

        t_loop = time.perf_counter()
        while len(per_pass) < MIN_TRACED_PASSES or time.perf_counter() - t_loop < args.seconds:
            pair = {}
            for traced in (False, True) if len(per_pass) % 2 == 0 else (True, False):
                if traced:
                    tr.spans, tr.unit, tr.enabled = [], 0, True
                dt, cpu, out, _ = log.run(state, 0, sizes, tr if traced else None)
                tr.enabled = False
                if out is None:
                    break
                pair[traced] = dt
                if traced:
                    cpu_util.append(cpu / dt)
                    spans = _join(setup_spans, tr.spans)
                    per_pass.append(tracer.layer_metrics(spans))
                    if first_spans is None:
                        first_spans = spans
                        missing = tracer.REQUIRED[wl.name] - tracer.covered(spans)
                        if missing:
                            problems.append(f"wrapped functions never reached: {sorted(missing)}")
            if len(pair) < 2:
                break
            ratios.append(pair[True] / pair[False])
        tr.spans = []
    finally:
        tr.uninstall()

    if not ratios:
        return log, {}, {"problems": problems}, 0
    for m in per_pass[1:]:
        diff = [k for k in tracer.EXACT if m[k] != per_pass[0][k]]
        if diff:
            problems.append(f"exact counts differ between traced passes: {diff}")
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = values[0] if name in tracer.EXACT else _median(values)
    metrics["proc.cpu_util"] = _median(cpu_util)
    metrics["trace.overhead_frac"] = _median(ratios) - 1.0
    trace_path = os.path.join(WORK, "traces", f"{wl.name}-seed{args.seed}.jsonl.gz")
    tr.write(trace_path, first_spans)
    detail = {
        "pairs": len(ratios),
        "traced_over_untraced": ratios,
        "trace_file": os.path.relpath(trace_path, ROOT),
        "unreferenced_units": log.unreferenced,
        "problems": problems,
    }
    return log, metrics, detail, 2 * len(ratios) + 1


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(DECLARED) as f:
        doc = json.load(f)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def run(args):
    """One benchmark run; returns (result line dict, details dict)."""
    wl = workloads.WORKLOADS[args.workload]
    units = declared_units(args.trace)
    if args.trace:
        sizes, refs = _sizes(args)
        workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            log, metrics, detail, count = run_traced(wl, args, sizes, refs, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        attempted, failed = log.attempted, log.failed
    else:
        attempted, failed, metrics, detail, count = run_untraced(wl, args)
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    result = {
        "correct": failed == 0 and not detail.get("problems"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    return result, {"env": environment(args, count), "detail": detail}


def _sizes(args):
    """(sizes, references) for --sizes; smoke sizes have no references."""
    if args.sizes == "smoke":
        return workloads.SMOKE, None
    return workloads.FULL, load_references()


def unit_main(args):
    sizes, refs = _sizes(args)
    wl = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        print(json.dumps(run_unit(wl, args, sizes, refs, workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke():
    """Every workload at tiny sizes, both modes; traced exact counts must repeat."""
    ok = True
    for name, wl in workloads.WORKLOADS.items():
        base = {"workload": name, "seed": 3, "sizes": "smoke"}
        # two units, so that two processes run and their outputs are compared
        res, _ = run(argparse.Namespace(**base, seconds=2 * wl.unit_s, trace=0))
        counts = []
        for _ in range(2):
            traced, info = run(argparse.Namespace(**base, seconds=0.2, trace=1))
            counts.append({k: traced["metrics"][k]["value"] for k in tracer.EXACT})
        good = res["correct"] and traced["correct"] and counts[0] == counts[1]
        ok &= good
        print(f"[{'PASS' if good else 'FAIL'}] smoke {name}: {info['detail']}")
    return ok


def main(argv=None):
    args = parse_args(argv)
    args.import_s = import_package()
    if args.unit is not None:
        unit_main(args)
        return 0
    if args.smoke:
        return 0 if smoke() else 1
    result, info = run(args)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
