"""Run each workload over several seeds and report the spread of every
end-to-end metric: median, quartiles and (q3 - q1) / median, next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --out perfbench/reference.json

Runs seeds 1 to 10 one after the other, from the root of the
repository, with the command and run length that BENCHMARK.json names.
A spread is marked "ok" when it is below a third of the bound (setup_s
is only listed).
The share of failed operations must be the same in every run of a
workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(command, workload, seed, seconds, trace=0):
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError("%s seed %d exited with %d" % (workload, seed, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the raw results here as JSON")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"seeds": list(SEEDS), "run_seconds": bench["run_seconds"], "workloads": {}}
    all_ok = True
    for name in [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in SEEDS:
            results.append(run_once(bench["command"], name, seed, bench["run_seconds"]))
            print("%s seed %d: %s" % (name, seed, json.dumps(results[-1])), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        entry = {"runs": results, "failed_share": sorted(shares), "metrics": {}}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            all_ok = False
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            stats = summarize(values)
            stats["ok"] = metric["name"] == "setup_s" or stats["spread"] < metric["bound"] / 3
            all_ok = all_ok and stats["ok"]
            entry["metrics"][metric["name"]] = stats
        report["workloads"][name] = entry

    print("\n%-17s %-12s %11s %11s %11s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for name, entry in report["workloads"].items():
        for metric in bench["end_to_end"]:
            s = entry["metrics"][metric["name"]]
            print("%-17s %-12s %11.4f %11.4f %11.4f %8.4f %6.2f %s" % (
                name, metric["name"], s["median"], s["q1"], s["q3"], s["spread"],
                metric["bound"], "ok" if s["ok"] else "WIDE"))
        print("%-17s failed share %s" % (name, entry["failed_share"]))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
