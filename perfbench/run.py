"""Layered benchmark of heatsource.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--record FILE]

Runs one workload (see ``workloads.py``) in a closed loop: one warm-up pass,
then passes until ``--seconds`` have gone by.  With ``--trace 0`` it reports
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--record`` appends
the full result (sample counts, environment stamp, per-solve records) as
one JSON line to FILE, the input of ``compare.py``.

The program under test is the ``src/heatsource`` package of the checkout
this file sits in; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"

# Fresh interpreters timed for setup_s, after one that fills the bytecode
# cache.
SETUP_RUNS = 7
MIN_PASSES = 3

# One BLAS thread (of nproc at most): a second one doubled the CPU time of
# the direct scan's dense solves for no gain in wall time.
BLAS_THREADS = 1


class BenchError(Exception):
    """The benchmark cannot run; reported on stderr with exit code 2."""


def prepare():
    """Cap BLAS threads and import the checkout's heatsource.

    Must run before numpy is imported: OpenBLAS reads its thread count once,
    when it loads.
    """
    if not (SRC / "heatsource" / "__init__.py").is_file():
        raise BenchError(f"no heatsource package under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import heatsource
    if Path(heatsource.__file__).resolve().parent != SRC / "heatsource":
        raise BenchError(f"imported heatsource from {heatsource.__file__}, "
                         f"not from {SRC}")


def bench_spec():
    spec = json.loads(BENCHMARK.read_text())
    return spec["end_to_end"], spec["per_layer"]


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


class PassClock:
    """Wall time of one pass, excluding the ``untimed()`` output checks,
    during which the tracer (if any) records nothing."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self._start
        return False

    @contextlib.contextmanager
    def untimed(self):
        self.elapsed += time.perf_counter() - self._start
        active = self.tracer is not None and self.tracer.active
        if active:
            self.tracer.active = False
        try:
            yield
        finally:
            if active:
                self.tracer.active = True
            self._start = time.perf_counter()


def run_pass(workload, tracer=None):
    clock = PassClock(tracer)
    with clock:
        result = workload.run_pass(clock)
    return result, clock.elapsed


def measure_setup(args):
    """Seconds from spawning a fresh interpreter to heatsource imported and
    the workload's inputs built, once per interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for i in range(1 + (2 if args.smoke else SETUP_RUNS)):
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        ready = float(proc.stdout.split()[-1])
        if i:
            samples.append(ready - start)
    return samples


def gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed operations over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, result):
        self.attempted += len(result.ops)
        for op in result.ops:
            if not op.ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{op.name}: {op.detail}")


def end_to_end(args, workload, tally):
    setup = measure_setup(args)
    tally.add(run_pass(workload)[0])  # warm-up
    times, e_f, e_u0 = [], [], []
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or len(times) < MIN_PASSES:
        result, seconds = run_pass(workload)
        tally.add(result)
        times.append(seconds)
        if result.errors:
            e_f.append(gmean([e[0] for e in result.errors]))
            e_u0.append(gmean([e[1] for e in result.errors]))
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "pass_s": (statistics.median(times), len(times)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "ok_frac": (1.0 - tally.failed / tally.attempted, tally.attempted),
    }
    if e_f:
        values["e_f_gmean"] = (statistics.median(e_f), len(e_f))
        values["e_u0_gmean"] = (statistics.median(e_u0), len(e_u0))
    return values, {"setup_s": setup, "pass_s": times}


def per_layer(args, workload, tally):
    import layers

    tracer = layers.Tracer()
    tally.add(run_pass(workload)[0])  # warm-up
    untraced, traced, per_pass = [], [], []
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or len(traced) < MIN_PASSES:
        result, seconds = run_pass(workload)
        tally.add(result)
        untraced.append(seconds)
        pass_id = len(traced)
        with layers.TracedPass(tracer, pass_id):
            result, seconds = run_pass(workload, tracer)
        tally.add(result)
        traced.append(seconds)
        per_pass.append(tracer.pass_metrics(pass_id, seconds))
    metrics = layers.median_metrics(per_pass)
    solves = tracer.solve_lines(len(traced) - 1)
    metrics["solver.cost_over_floor_max"] = layers.cost_over_floor_max(solves)
    metrics["trace.overhead_frac"] = \
        statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.coverage_min"] = min(m["trace.coverage"] for m in per_pass)
    for line in solves:
        print("solve " + json.dumps(line), file=sys.stderr)
    trace_file = OUT / args.workload / f"trace-seed{args.seed}.json"
    with open(trace_file, "w") as fh:
        json.dump({"import_sites": tracer.import_sites(), "solves": solves,
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    values = {name: (value, len(per_pass)) for name, value in metrics.items()}
    return values, {"pass_s_untraced": untraced, "pass_s_traced": traced}


def stamp(seed):
    """Where and on what the result was measured."""
    import numpy

    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            sha = subprocess.run(git + ["rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or "unknown"
            dirty = bool(subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # layout of numpy's build report varies by release
        openblas = "unknown"
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": openblas,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny passes, for the benchmark's own tests")
    parser.add_argument("--record", help="append the full result to FILE")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose "
                             f"from {', '.join(workloads.WORKLOADS)}")
        workload = workloads.build(args.workload, args.seed,
                                   OUT / args.workload, args.smoke)
        if args.setup_probe:
            print(time.monotonic())
            return 0
        spec = bench_spec()[args.trace]
        tally = Tally()
        run = per_layer if args.trace else end_to_end
        values, samples = run(args, workload, tally)
        missing = [m["name"] for m in spec if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in tally.failures:
        print(f"perfbench: failed {failure}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec}
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name][0], "unit": units[name]}
                    for name in units},
    }
    if args.record:
        record = dict(line, workload=args.workload, seed=args.seed,
                      trace=args.trace, smoke=args.smoke,
                      seconds=args.seconds, stamp=stamp(args.seed),
                      failures=tally.failures, samples=samples,
                      metrics={name: {"value": value, "unit": units.get(name),
                                      "samples": n}
                               for name, (value, n) in values.items()})
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
