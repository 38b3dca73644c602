"""Benchmark runner for lpmink.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve2d --seed 0 --seconds 30 --trace 0

One process runs one workload as a closed loop, one operation at a time,
with BLAS and OpenMP pinned to one thread. Rounds of the workload's
operation list run until ``--seconds`` is spent; every output is checked
independently. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced pass. The last line of standard output
is the result as one JSON object; the line before it is the full record.
"""

import os

# must precede the first numpy import, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
IMPORT_CMD = "import lpmink.cli"


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so that no ``except Exception``
    inside the program can swallow it."""


@contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def execute(op):
    """Run one operation under its deadline, then check its result.

    Returns (wall seconds, process CPU seconds, Outcome); only the call is
    timed."""
    # workloads imports lpmink, importable only once main() set the path
    from workloads import Outcome

    outcome = None
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with deadline(op.deadline_s):
            result = op.call()
    except DeadlineExceeded:
        outcome = Outcome(False, reason="missed the %gs deadline" % op.deadline_s)
    except Exception as exc:  # a raise is a failed operation, not a crash
        outcome = Outcome(False, reason="%s: %s" % (type(exc).__name__, str(exc)[:200]))
    seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
    if outcome is None:
        try:
            outcome = op.check(result)
        except Exception as exc:  # output the check cannot even read
            outcome = Outcome(False, False, "check raised %s: %s"
                              % (type(exc).__name__, str(exc)[:200]))
    return seconds, cpu, outcome


def run_op(op, r):
    """Run one operation of round r; returns (seconds, record)."""
    seconds, cpu, outcome = execute(op)
    return seconds, {"round": r, "op": op.name, "seconds": seconds,
                     "cpu_s": cpu, "ok": outcome.ok, "correct": outcome.correct,
                     "reason": outcome.reason, **outcome.info}


def run_rounds(rounds, tracer=None):
    """Run (round, ops) pairs; returns (per-round seconds, op records).

    With a tracer, each operation's spans carry its round and name."""
    times, records = [], []
    for r, ops in rounds:
        total = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op = "r%d.%s" % (r, op.name)
            seconds, record = run_op(op, r)
            total += seconds
            records.append(record)
        times.append(total)
    return times, records


def timed_rounds(workload, seconds, first_ops):
    """Rounds until the budget is spent; one always runs. A round starts
    only if the median round so far still fits in what is left."""
    times, records = [], []
    start = time.perf_counter()
    ops, r = first_ops, 0
    while True:
        t, rec = run_rounds([(r, ops)])
        times += t
        records += rec
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times, records
        r += 1
        ops = list(workload.ops(r))


def time_import():
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CMD], env=env, cwd=ROOT,
                   check=True, timeout=120)
    return time.perf_counter() - start


def set_up(cls, seed):
    """Import in a fresh interpreter, then build grids, warm up and make
    the first round's inputs; returns (seconds, workload, first ops)."""
    start = time.perf_counter()
    time_import()
    workload = cls(seed, WORKDIR)
    ops = list(workload.ops(0))
    return time.perf_counter() - start, workload, ops


def environment(seed):
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except OSError:
            pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "commit": commit, "seed": seed,
    }


def summary(records):
    residuals = [r["residual_l1"] for r in records if "residual_l1" in r]
    failed = sum(not r["ok"] for r in records)
    return {"attempted": len(records), "failed": failed,
            "fail_rate": failed / len(records),
            "residual_l1_max": max(residuals) if residuals else None,
            "failures": sorted({"%s: %s" % (r["op"], r["reason"])
                                for r in records if not r["ok"]})}


def untraced(cls, args):
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, workload, first_ops = set_up(cls, args.seed)
        setups.append(seconds)
    times, records = timed_rounds(workload, args.seconds, first_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    extra = {"round_s": times, "setup_runs_s": setups}
    return metrics, records, extra


def traced(cls, args):
    from tracing import Tracer, layer_metrics

    _, workload, first_ops = set_up(cls, args.seed)
    plain_times, plain = run_rounds([(0, first_ops)])
    # the same inputs again, rebuilt outside the traced region
    rounds = [(0, list(workload.ops(0)))]
    tracer = Tracer()
    tracer.install()
    try:
        traced_times, records = run_rounds(rounds, tracer)
    finally:
        tracer.uninstall()

    # wrapper self-check: the traced pass must compute exactly what the
    # untraced one did, and reach every layer the workload exercises
    keys = ("op", "ok", "iters", "residual_l1", "exit")
    if len(plain) != len(records):
        raise RuntimeError("traced run made %d operations, untraced %d"
                           % (len(records), len(plain)))
    for a, b in zip(plain, records):
        if any(a.get(k) != b.get(k) for k in keys):
            raise RuntimeError("traced run differs from untraced: %r vs %r"
                               % ({k: a.get(k) for k in keys},
                                  {k: b.get(k) for k in keys}))
    # steps counted through energy_trace must match the solve reports
    # whenever every operation is a solve that returned one, or none is
    iters = [r["iters"] for r in records if "iters" in r]
    if len(iters) in (0, len(records)) and tracer.accepted_steps != sum(iters):
        raise RuntimeError("energy_trace counted %d steps, the reports %d"
                           % (tracer.accepted_steps, sum(iters)))
    stats = tracer.layer_stats()
    idle = [layer for layer in cls.required if not stats.get(layer, {}).get("calls")]
    if idle:
        raise RuntimeError("layers saw no calls: %s" % ", ".join(idle))
    tracer.write(WORKDIR / ("spans-%s-%d.jsonl" % (cls.name, args.seed)))
    metrics = layer_metrics(tracer, records,
                            sum(plain_times), sum(traced_times))
    return metrics, records, {"untraced_s": sum(plain_times),
                              "traced_s": sum(traced_times)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "lpmink" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no lpmink sources under %s; run from the "
                         "root of a checkout\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    import lpmink

    if Path(lpmink.__file__).resolve().parent != (SRC / "lpmink").resolve():
        sys.stderr.write("perfbench: imported lpmink from %s, not from %s\n"
                         % (lpmink.__file__, SRC))
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write("perfbench: unknown workload %r (have: %s)\n"
                         % (args.workload, ", ".join(WORKLOADS)))
        return 2
    cls = WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    run = traced if args.trace else untraced
    metrics, records, extra = run(cls, args)

    stats = summary(records)
    record = {"workload": cls.name, "trace": args.trace,
              "seconds_budget": args.seconds, **environment(args.seed),
              **stats, **extra, "ops": records}
    (WORKDIR / ("result-%s-%d-trace%d.json" % (cls.name, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": stats["attempted"], "failed": stats["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
