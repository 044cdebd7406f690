#!/usr/bin/env python3
"""Compare two sets of benchmark result files, run by run and per metric.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the per-run files the driver writes
(<workload>-seed<N>-trace<T>.json, by default under .bench_build/results).
Runs are paired by workload, seed and trace mode. A pair whose fingerprints
differ (CPU, nproc, build type, SIMD backend and state, contract and
telemetry flags, thread count, seed) is refused: the comparison exits 2
without a verdict. Otherwise it prints, per workload and metric, each side's
median and quartile spread, the share by which the head moved, the share of
pairs the head won, and, for end-to-end metrics, whether the move exceeds
the bound in BENCHMARK.json. Exits 1 when some end-to-end metric regressed
past its bound.
"""
import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def load(directory):
    runs = {}
    for path in glob.glob(os.path.join(directory, "*-seed*-trace*.json")):
        m = NAME.match(os.path.basename(path))
        if m:
            with open(path) as f:
                runs[(m["workload"], int(m["seed"]), int(m["trace"]))] = json.load(f)
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, head = load(argv[1]), load(argv[2])
    pairs = sorted(set(base) & set(head))
    if not pairs:
        print("no paired runs", file=sys.stderr)
        return 2
    for key in pairs:
        if base[key]["fingerprint"] != head[key]["fingerprint"]:
            print("refused: fingerprints differ for %s seed %d trace %d:\n"
                  "  base %s\n  head %s" % (key + (base[key]["fingerprint"],
                                                   head[key]["fingerprint"])),
                  file=sys.stderr)
            return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = dict((m["name"], m["better"]) for m in spec["end_to_end"] + spec["per_layer"])
    regressed = False
    for workload in sorted({k[0] for k in pairs}):
        print("== %s" % workload)
        keys = [k for k in pairs if k[0] == workload]
        names = sorted({n for k in keys for n in head[k]["metrics"]})
        for name in names:
            b = [base[k]["metrics"][name]["value"] for k in keys if name in base[k]["metrics"]]
            h = [head[k]["metrics"][name]["value"] for k in keys if name in head[k]["metrics"]]
            if not b or len(b) != len(h):
                continue
            bm, hm = statistics.median(b), statistics.median(h)
            sign = -1.0 if better.get(name) == "lower" else 1.0
            moved = (hm - bm) / abs(bm) if bm else 0.0
            wins = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
            verdict = ""
            if name in bounds:
                worse = -sign * moved
                verdict = "REGRESSED" if worse > bounds[name]["bound"] else "ok"
                regressed = regressed or verdict == "REGRESSED"
            print("  %-28s base %-12.6g (spread %.3f)  head %-12.6g (spread %.3f)"
                  "  moved %+7.2f%%  head won %d/%d  %s"
                  % (name, bm, spread(b), hm, spread(h), 100 * moved, wins,
                     len(b), verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
