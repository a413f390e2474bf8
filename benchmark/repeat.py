#!/usr/bin/env python3
"""Run the benchmark of ../BENCHMARK.json repeatedly and check that it repeats.

    python3 benchmark/repeat.py              # the full set twice, three seeds per workload
    python3 benchmark/repeat.py --runs 10    # two rounds of ten seeds per workload

Two rounds each run every workload `--runs` times, each time with another
seed. For every end-to-end metric the table shows each round's median, the
spread of a round (distance between the first and third quartile as a
share of the median), the difference between the two rounds' medians, and
the metric's bound. Exit status is non-zero if a difference exceeds its
bound, if with ten or more runs a spread does (the set-up time's is only
reported), or if any run fails. Every run's result line is kept under
benchmark/out/runs/.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(manifest, workload, seed, out_dir):
    cmd = manifest["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]),
        "--trace", "0",
    ]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    (out_dir / f"{workload}.seed{seed}.json").write_text(line + "\n")
    if proc.returncode != 0 or not line:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, result {line!r}")
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    print(f"  {workload} seed {seed}: {time.time() - t0:.1f} s", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    # One run per round is at the mercy of a single burst of host interference
    # (setup_s is one measurement per run); the median of three is not.
    ap.add_argument("--runs", type=int, default=3, help="runs per workload in a round, seeds 1..N (default 3, at least 2)")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in manifest["workloads"]]
    out_dir = ROOT / "benchmark" / "out" / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)

    # rounds[r][workload] = the metrics of each of the round's runs
    rounds = []
    for r in (1, 2):
        print(f"round {r}", file=sys.stderr)
        rounds.append({
            w: [run_once(manifest, w, seed, out_dir) for seed in range(1, args.runs + 1)]
            for w in workloads
        })

    bad = 0
    print(f"{'workload':15} {'metric':19} {'median 1':>14} {'median 2':>14} {'spread 1':>9} {'spread 2':>9} {'diff':>8} {'bound':>6}")
    for w in workloads:
        for m in manifest["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [[run[name] for run in rnd[w]] for rnd in rounds]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            diff = (medians[1] - medians[0]) / medians[0]
            flags = []
            # The set-up time's spread is reported, not gated, and
            # quartiles of fewer than ten values are only shown.
            gated = name != "setup_s" and args.runs >= 10
            if gated and max(spreads) > bound:
                flags.append("SPREAD")
            elif gated and max(spreads) > bound / 3:
                flags.append("(spread above a third of the bound)")
            if abs(diff) > bound:
                flags.append("DIFF")
            bad += sum(f.isupper() for f in flags)
            print(f"{w:15} {name:19} {medians[0]:14.6g} {medians[1]:14.6g} {spreads[0]:9.2%} {spreads[1]:9.2%} {diff:8.2%} {bound:6.0%} "
                  + " ".join(flags))
    if bad:
        sys.exit(f"{bad} metric(s) outside their bound")


if __name__ == "__main__":
    main()
