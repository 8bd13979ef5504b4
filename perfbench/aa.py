#!/usr/bin/env python3
"""A/A steadiness mode: run one workload several times on the same code
and report how much each end-to-end metric moves, scaled and raw.

    python3 perfbench/aa.py --workload dse-sweep --runs 10 --sets 2

Each set runs the seeds 1..RUNS once each (the same seeds in every set,
so each seed's output digest must repeat). For every metric and set it
prints the median, the quartiles, the quartile spread and the min-max
spread as shares of the median; between sets, the shift of the median.
A set whose host.probe_ms median lies outside the first set's min-max
range is flagged: the probe slowed or sped up for a reason other than
the host (e.g. work the program leaves running between ops), and
scaling by it would hide or invent a cost. With --baseline, the probe
is also checked against a saved report (--save) of an earlier commit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    r = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True,
                       text=True)
    if r.returncode != 0:
        sys.exit("run failed (seed %d):\n%s" % (seed, r.stderr))
    lines = r.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    if not result["correct"] or result["failed"]:
        sys.exit("seed %d: incorrect run: %s" % (seed, detail["failures"]))
    values = {"host.probe_ms": detail["host.probe_ms"]}
    for name, m in result["metrics"].items():
        values[name] = m["value"]
    for name, m in detail["raw"].items():
        values[name] = m["value"]
    return values, detail["digest"]


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("inf"),
            "range_share": (max(values) - min(values)) / med if med else float("inf"),
            "min": min(values), "max": max(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--save", help="write the report as JSON")
    ap.add_argument("--baseline", help="an earlier --save report to check the probe against")
    args = ap.parse_args()

    sets = []
    for s in range(args.sets):
        runs = []
        for seed in range(1, args.runs + 1):
            values, digest = run_once(args.workload, seed, args.seconds)
            runs.append({"seed": seed, "values": values, "digest": digest})
            print("set %d seed %2d probe %.4f ms" % (s + 1, seed, values["host.probe_ms"]),
                  file=sys.stderr)
        sets.append(runs)

    names = list(sets[0][0]["values"])
    report = {"workload": args.workload, "runs": args.runs, "seconds": args.seconds,
              "sets": [], "flags": [], "values": sets}
    for runs in sets:
        report["sets"].append({n: spread([r["values"][n] for r in runs]) for n in names})

    print("%s: %d runs x %d sets, %d s each" % (args.workload, args.runs, args.sets, args.seconds))
    print("%-22s %4s %12s %12s %12s %7s %7s %8s" % (
        "metric", "set", "median", "q1", "q3", "iqr%", "range%", "shift%"))
    for n in names:
        first = report["sets"][0][n]["median"]
        for i, by_name in enumerate(report["sets"]):
            st = by_name[n]
            shift = 100.0 * (st["median"] - first) / first if first else 0.0
            print("%-22s %4d %12.6g %12.6g %12.6g %7.2f %7.2f %8.2f" % (
                n, i + 1, st["median"], st["q1"], st["q3"], 100 * st["iqr_share"],
                100 * st["range_share"], shift))

    for i, runs in enumerate(sets[1:], start=2):
        for a, b in zip(sets[0], runs):
            if a["digest"] != b["digest"]:
                report["flags"].append("set %d seed %d: output digest differs" % (i, a["seed"]))

    def probe_check(label, ref, st):
        med = st["host.probe_ms"]["median"]
        lo, hi = ref["host.probe_ms"]["min"], ref["host.probe_ms"]["max"]
        if not lo <= med <= hi:
            report["flags"].append(
                "%s: host.probe_ms median %.4f outside the reference A/A range [%.4f, %.4f]"
                % (label, med, lo, hi))

    for i, st in enumerate(report["sets"][1:], start=2):
        probe_check("set %d" % i, report["sets"][0], st)
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)
        for i, st in enumerate(report["sets"], start=1):
            probe_check("set %d vs baseline" % i, base["sets"][0], st)

    for f in report["flags"]:
        print("FLAG: " + f)
    if not report["flags"]:
        print("digests identical across sets; probe medians within the A/A range")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
