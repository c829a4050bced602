"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload refine_distorted --seed 1 \
        --seconds 25 --trace 0

The program is imported from ../src of this directory.  Set-up (import
plus input generation) is repeated and its median reported; then whole
rounds of the workload run until the next round would end after
--seconds, with at least three rounds.  Times are rescaled to a reference
host speed by a probe loop timed around each span.  --trace 0 reports the end-to-end
metrics.  --trace 1 traces the last set-up, alternates untraced and
traced rounds, and reports the per-layer metrics of one set-up plus one
traced round, and the tracing overhead of a round.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
MIN_ROUNDS = 3
SINGLE_THREAD = {name: "1" for name in
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# The host's speed drifts by a third and more, in phases from a fraction
# of a second to minutes (README.md).  Every timed span is bracketed by a
# speed probe and rescaled to the probe's reference time: the probe's
# time on the reference host in its fast phase.
REFERENCE_PROBE_S = 3.0e-3


def speed_probe():
    """Seconds of a fixed pure-Python loop, fastest of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(50000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def rescale(seconds, before, after):
    """Seconds at the reference speed, from the probes around the span."""
    return seconds * 2.0 * REFERENCE_PROBE_S / (before + after)


def import_program():
    """Import numpy and every polyvem module; returns the seconds taken."""
    if not (SRC / "polyvem" / "__init__.py").is_file():
        raise ImportError("no polyvem sources under %s" % SRC)
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import polyvem.cli  # noqa: F401  (imports every module of the package)
    return time.perf_counter() - start


def child_import_seconds():
    """Import time measured in a fresh interpreter, rescaled."""
    before = speed_probe()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--import-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return rescale(float(done.stdout.strip().splitlines()[-1]), before, speed_probe())


def run_round(workload):
    """One round: the rescaled seconds of each operation, the raw total,
    failures and problems."""
    workload.begin_round()
    seconds = {}
    raw = 0.0
    failures = {}
    problems = []
    before = speed_probe()
    for label, op in workload.operations():
        start = time.perf_counter()
        try:
            out, error = op(), None
        except Exception as err:
            out, error = None, err
        elapsed = time.perf_counter() - start
        after = speed_probe()
        seconds[label] = rescale(elapsed, before, after)
        raw += elapsed
        before = after
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            failures[label] = "raised %s: %s" % (type(error).__name__, error)
            continue
        failure, found = workload.check(label, out)
        del out  # keep one operation's output alive at a time
        if failure:
            failures[label] = failure
        problems += found
    problems += workload.end_round()
    return dict(seconds=seconds, raw=raw, failures=failures, problems=problems)


def median_round(rounds):
    """Median over `rounds` of a round's total rescaled operation time."""
    return statistics.median(sum(r["seconds"].values()) for r in rounds)


def traced_call(tracer, fn):
    tracer.reset()
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


def measure(workload, seconds, tracer):
    """Whole rounds until the next one would end after `seconds`; with a
    tracer, every second round is traced."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            result = traced_call(tracer, lambda: run_round(workload))
            result["layers"] = tracer.snapshot()
        else:
            result = run_round(workload)
        result["traced"] = traced
        rounds.append(result)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["raw"] for r in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds:
            return rounds


def layer_metrics(setup_layers, rounds):
    """Each layer's work in one traced set-up plus one traced round: the
    median traced round for times, the first traced round for counts.

    Rounds draw their inputs afresh, so a count can differ between rounds;
    the first traced round has the same inputs in every run of a seed,
    while the number of rounds depends on the host's speed.
    """
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    metrics = {}
    for name, (_, _, unit) in tracing.METRICS.items():
        if setup_layers[name] is None:
            metrics[name] = {"value": None, "unit": unit, "absent": True}
            continue
        if unit == "count":
            per_round = traced[0]["layers"][name]
        else:
            per_round = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": setup_layers[name] + per_round, "unit": unit}
    overhead = median_round(traced) - median_round(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="required: the run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(SINGLE_THREAD)  # before numpy loads

    before = speed_probe()
    try:
        import_s = [import_program()]
    except ImportError as err:
        print("error: cannot import the program: %s" % err, file=sys.stderr)
        return 2
    if args.import_only:
        print(repr(import_s[0]))
        return 0
    import_s[0] = rescale(import_s[0], before, speed_probe())
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))
    if args.seconds is None:
        parser.error("--seconds is required")
    import_s += [child_import_seconds() for _ in range(SETUP_REPEATS - 1)]

    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=HERE / "_work"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        generate_s = []
        for i in range(SETUP_REPEATS):
            before = speed_probe()
            start = time.perf_counter()
            if tracer and i == SETUP_REPEATS - 1:
                traced_call(tracer, workload.setup)
                setup_layers = tracer.snapshot()
            else:
                workload.setup()
            generate_s.append(rescale(time.perf_counter() - start, before, speed_probe()))
        setup_s = statistics.median(import_s) + statistics.median(generate_s)
        rounds = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r["seconds"]) for r in rounds)
    failures = {}
    problems = []
    for r in rounds:
        failures.update(r["failures"])
        problems += [p for p in r["problems"] if p not in problems]
    print("%s seed=%d: %d rounds of %s seconds (%s at the reference speed)" % (
        args.workload, args.seed, len(rounds), " ".join("%.3f" % r["raw"] for r in rounds),
        " ".join("%.3f" % sum(r["seconds"].values()) for r in rounds)))
    for label, why in sorted(failures.items()):
        print("failed operation %s: %s" % (label, why))
    for p in problems:
        print("WRONG OUTPUT: %s" % p)

    if args.trace:
        metrics = layer_metrics(setup_layers, rounds)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "wall_s": {"value": median_round(rounds), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(len(r["failures"]) for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
