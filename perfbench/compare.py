"""Summarise one result file, or compare two, from ``run.py --record``.

    python3 perfbench/compare.py A.jsonl            # run-to-run spread
    python3 perfbench/compare.py A.jsonl B.jsonl    # B against A

The spread of a metric is the distance between the first and third
quartiles of its values over the runs, as a share of their median.  A
comparison prints, per workload and end-to-end metric, both medians, their
ratio and whether B is worse than A by more than the metric's bound in
BENCHMARK.json; per-layer ratios follow for information.  It is a report,
not a gate: the exit code is 0 either way.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): [record, ...]} of a result file."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs[(record["workload"], record["trace"])].append(record)
    return runs


def values(records, name):
    return [r["metrics"][name]["value"] for r in records
            if name in r["metrics"]]


def spread(vals):
    """(median, IQR over median) of a list of values."""
    median = statistics.median(vals)
    if len(vals) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return median, (q3 - q1) / abs(median) if median else 0.0


def worsening(metric, base, new):
    """Share by which ``new`` is worse than ``base`` (negative if better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = new / base - 1.0
    return change if metric["better"] == "lower" else -change


def stamps(runs):
    seen = {(r["stamp"]["git_sha"], r["stamp"]["git_dirty"],
             r["stamp"]["src_lines"]) for recs in runs.values() for r in recs}
    return ", ".join(f"{sha[:12]}{'+dirty' if dirty else ''} "
                     f"({lines} src lines)" for sha, dirty, lines in sorted(seen))


def summarise(path, spec):
    runs = load(path)
    print(f"{path}: {stamps(runs)}")
    print(f"{'workload':20} {'metric':14} {'runs':>4} {'median':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for (workload, trace), records in sorted(runs.items()):
        if trace:
            continue
        for metric in spec["end_to_end"]:
            vals = values(records, metric["name"])
            if not vals:
                continue
            median, iqr = spread(vals)
            bound = metric["bound"]
            verdict = ("steady" if iqr < bound / 3
                       else "within bound" if iqr <= bound else "TOO WIDE")
            print(f"{workload:20} {metric['name']:14} {len(vals):4} "
                  f"{median:12.6g} {iqr:7.3f} {bound:6.2f}  {verdict}")


def compare(path_a, path_b, spec):
    runs_a, runs_b = load(path_a), load(path_b)
    print(f"A = {path_a}: {stamps(runs_a)}")
    print(f"B = {path_b}: {stamps(runs_b)}")
    print(f"{'workload':20} {'metric':14} {'median A':>12} {'median B':>12} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, trace = key
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for metric in metrics:
            a = values(runs_a[key], metric["name"])
            b = values(runs_b[key], metric["name"])
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            ratio = med_b / med_a if med_a else float("nan")
            if trace:
                print(f"{workload:20} {metric['name']:40} {med_a:12.6g} "
                      f"{med_b:12.6g} {ratio:7.3f}  (layer, informational)")
                continue
            worse = worsening(metric, med_a, med_b)
            verdict = "WORSE beyond bound" if worse > metric["bound"] else "ok"
            print(f"{workload:20} {metric['name']:14} {med_a:12.6g} "
                  f"{med_b:12.6g} {ratio:7.3f} {metric['bound']:6.2f}  "
                  f"{verdict}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    if len(argv) == 1:
        summarise(argv[0], spec)
    else:
        compare(argv[0], argv[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
