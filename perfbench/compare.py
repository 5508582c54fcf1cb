#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE [NEW]

BASE and NEW are directories (searched recursively) or single files of
the run records perfbench/run.py writes under .bench_results/. For every
(workload, mode, metric) the table gives each side's run count, median
and quartiles (Python's statistics.quantiles, n=4), the spread (quartile
distance over the median) and, with two sides, the median's change.

For end-to-end metrics the verdict uses BENCHMARK.json: "worse" when the
new median is worse than the base median by more than the metric's
bound, "better"/"same" otherwise, and "unresolved" when either side's
spread exceeds the bound. With one side, the verdict says whether the
spread is within the bound and within a third of it.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    files = []
    if os.path.isdir(path):
        for dirpath, _, names in os.walk(path):
            files += [os.path.join(dirpath, n) for n in names
                      if n.endswith(".json")]
    else:
        files = [path]
    series = {}
    failures = {}
    for name in sorted(files):
        with open(name) as f:
            record = json.load(f)
        result = record["result"]
        key_base = (record["workload"], "trace" if record["trace"] else "e2e")
        share = result["failed"] / max(1, result["attempted"])
        failures.setdefault(key_base, set()).add(round(share, 12))
        for metric, entry in result["metrics"].items():
            series.setdefault(key_base + (metric,), []).append(entry["value"])
    return series, failures


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base, base_fail = load(sys.argv[1])
    new, new_fail = (load(sys.argv[2]) if len(sys.argv) == 3 else (None, None))

    header = f"{'workload':13} {'mode':5} {'metric':34} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
    if new is not None:
        header += f" {'n':>3} {'median':>12} {'spread':>7} {'delta':>8}  verdict"
    else:
        header += "  verdict"
    print(header)
    for key in sorted(set(base) | set(new or {})):
        workload, mode, metric = key
        spec = e2e.get(metric) if mode == "e2e" else None
        line = f"{workload:13} {mode:5} {metric:34}"
        a = base.get(key)
        if a:
            med_a, q1, q3, spread_a = summary(a)
            line += f" {len(a):3d} {med_a:12.5g} {q1:12.5g} {q3:12.5g} {spread_a:7.3f}"
        else:
            line += " " * 52
        verdict = ""
        if new is None:
            if spec and a:
                bound = spec["bound"]
                verdict = ("steady" if spread_a < bound / 3 else
                           "within bound" if spread_a <= bound else
                           "TOO NOISY") + f" (bound {bound})"
        else:
            b = new.get(key)
            if a and b:
                med_b, _, _, spread_b = summary(b)
                delta = (med_b - med_a) / med_a if med_a else 0.0
                line += f" {len(b):3d} {med_b:12.5g} {spread_b:7.3f} {delta:+8.2%}"
                if spec:
                    bound = spec["bound"]
                    worse = -delta if spec["better"] == "higher" else delta
                    if max(spread_a, spread_b) > bound:
                        verdict = "unresolved"
                    elif worse > bound:
                        verdict = "WORSE"
                    elif worse < -bound:
                        verdict = "better"
                    else:
                        verdict = "same"
        print(line + "  " + verdict)
    for key in sorted(set(base_fail) | set(new_fail or {})):
        shares = base_fail.get(key, set()) | (new_fail or {}).get(key, set())
        note = "" if len(shares) == 1 else "  DIFFERS between runs"
        print(f"failed share {key[0]} {key[1]}: {sorted(shares)}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
