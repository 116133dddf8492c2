#!/usr/bin/env python3
"""Compares two sets of pipeline_bench runs: a parent commit and a change.

    python3 bench/pipeline_bench/compare.py PARENT_DIR CHANGE_DIR \
        [--benchmark BENCHMARK.json]
    python3 bench/pipeline_bench/compare.py --selftest

Each directory holds one file per run, named <workload>-seed<N>[.anything],
whose last JSON line is the run's result (run.py's stdout as is). For every
workload and metric it prints each side's median and quartiles and, for the
end-to-end metrics, a verdict under the bounds in BENCHMARK.json:

  regression  the change's median is worse than the parent's by more than
              the bound
  gain        the change wins at least 9 of 10 same-seed pairs (ties count
              for neither) and the medians differ by more than the parent's
              interquartile range
  unresolved  either side's interquartile range exceeds the bound (as a
              share of its median), unless every change run beats every
              parent run
  same        none of the above

Per-layer metrics get no verdict; count metrics are marked "identical" when
every same-seed pair reads the same. Exits 1 when any metric regressed.
"""

import argparse
import json
import os
import re
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                 "BENCHMARK.json")
RUN_NAME = re.compile(r"^(?P<workload>[A-Za-z0-9_.]+)-seed(?P<seed>\d+)")
GAIN_PAIR_SHARE = 0.9


def load_runs(directory):
    """{(workload, metric): {seed: value}} plus units, from one directory."""
    values = {}
    units = {}
    for name in sorted(os.listdir(directory)):
        match = RUN_NAME.match(name)
        if not match:
            continue
        result = None
        with open(os.path.join(directory, name)) as f:
            for line in reversed(f.read().splitlines()):
                line = line.strip()
                if line.startswith("{"):
                    try:
                        candidate = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(candidate, dict) and "metrics" in candidate:
                        result = candidate
                        break
        if result is None:
            raise SystemExit("no result line in " + name)
        seed = int(match.group("seed"))
        for metric, entry in result["metrics"].items():
            key = (match.group("workload"), metric)
            values.setdefault(key, {})[seed] = float(entry["value"])
            units[metric] = entry["unit"]
    return values, units


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def rel_spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def judge(parent, change, better, bound):
    """Verdict for one end-to-end metric; `parent`/`change` map seed->value."""
    sign = 1.0 if better == "lower" else -1.0  # positive = worse
    p = list(parent.values())
    c = list(change.values())
    p_q1, p_med, p_q3 = quartiles(p)
    c_med = statistics.median(c)
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if worse > bound:
        return "regression", worse
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    if (seeds and wins >= GAIN_PAIR_SHARE * len(seeds) and
            abs(c_med - p_med) > p_q3 - p_q1 and worse < 0):
        return "gain", worse
    all_better = all(sign * (x - y) < 0 for x in c for y in p)
    if max(rel_spread(p), rel_spread(c)) > bound and not all_better:
        return "unresolved", worse
    return "same", worse


def compare(parent_dir, change_dir, benchmark, out=sys.stdout):
    with open(benchmark) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    parent, units = load_runs(parent_dir)
    change, change_units = load_runs(change_dir)
    units.update(change_units)
    regressions = 0
    out.write("%-15s %-28s %-6s %-34s %-34s %s\n" % (
        "workload", "metric", "n", "parent q1/median/q3",
        "change q1/median/q3", "verdict"))
    for key in sorted(set(parent) | set(change)):
        workload, metric = key
        p = parent.get(key, {})
        c = change.get(key, {})
        if not p or not c:
            out.write("%-15s %-28s missing on one side\n" % key)
            continue
        cells = ["%.4g/%.4g/%.4g" % quartiles(list(side.values()))
                 for side in (p, c)]
        if metric in e2e:
            verdict, worse = judge(p, c, e2e[metric]["better"],
                                   e2e[metric]["bound"])
            regressions += verdict == "regression"
            note = "%s (%.1f%% %s, bound %.0f%%)" % (
                verdict, 100 * abs(worse), "worse" if worse > 0 else "better",
                100 * e2e[metric]["bound"])
        elif units.get(metric) == "count":
            seeds = set(p) & set(c)
            same = all(p[s] == c[s] for s in seeds)
            note = "identical" if same and seeds else "differs"
        else:
            note = "-"
        out.write("%-15s %-28s %-6s %-34s %-34s %s\n" % (
            workload, metric, "%d/%d" % (len(p), len(c)), cells[0], cells[1],
            note))
    return regressions


def selftest():
    """Synthetic parent/change sets exercising every verdict."""
    spec = {"end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "tput", "unit": "pts/s", "better": "higher", "bound": 0.1},
        {"name": "noisy_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "steady_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ], "per_layer": [{"name": "calls", "unit": "count", "better": "lower"}]}

    def write(directory, seed, metrics):
        body = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        with open(os.path.join(directory, "w-seed%d.out" % seed), "w") as f:
            f.write("metric log line\n" + json.dumps(body) + "\n")

    with tempfile.TemporaryDirectory() as tmp:
        bench = os.path.join(tmp, "BENCHMARK.json")
        with open(bench, "w") as f:
            json.dump(spec, f)
        parent = os.path.join(tmp, "parent")
        change = os.path.join(tmp, "change")
        os.makedirs(parent)
        os.makedirs(change)
        for seed in range(1, 11):
            wobble = 1.0 + 0.002 * (seed % 3)
            noise = 1.0 + 0.3 * (seed % 2)
            write(parent, seed, {"lat_ms": (100 * wobble, "ms"),
                                 "tput": (1e6 * wobble, "pts/s"),
                                 "noisy_ms": (50 * noise, "ms"),
                                 "steady_ms": (10 * wobble, "ms"),
                                 "calls": (1000 + seed, "count")})
            write(change, seed, {"lat_ms": (125 * wobble, "ms"),
                                 "tput": (1.3e6 * wobble, "pts/s"),
                                 "noisy_ms": (52 * noise, "ms"),
                                 "steady_ms": (10.05 * wobble, "ms"),
                                 "calls": (1000 + seed, "count")})
        log = tempfile.TemporaryFile(mode="w+")
        regressions = compare(parent, change, bench, out=log)
        log.seek(0)
        report = log.read()
    expected = {"lat_ms": "regression", "tput": "gain",
                "noisy_ms": "unresolved", "steady_ms": "same",
                "calls": "identical"}
    failures = []
    for metric, verdict in expected.items():
        line = [l for l in report.splitlines() if " %s " % metric in l]
        if len(line) != 1 or verdict not in line[0]:
            failures.append("%s: expected %s in %r" % (metric, verdict, line))
    if regressions != 1:
        failures.append("expected 1 regression, got %d" % regressions)
    sys.stdout.write(report)
    for failure in failures:
        print("SELFTEST FAILED: " + failure)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.parent or not args.change:
        parser.error("give PARENT_DIR and CHANGE_DIR, or --selftest")
    return 1 if compare(args.parent, args.change, args.benchmark) else 0


if __name__ == "__main__":
    sys.exit(main())
