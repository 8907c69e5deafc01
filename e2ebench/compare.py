#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 e2ebench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Arguments are result files that run.py leaves under .bench_out/ (or
directories holding them); only untraced, full-size results are used.
Run the two commits alternately, parent first in one pair and change
first in the next, with the same --seconds; the i-th parent and the i-th
change result of a workload form a pair.

For every workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, the share of pairs the change won (ties count
for neither side) and a verdict:

  improved   the change won at least 9 of 10 pairs and its median is better
             by more than the parent's spread (distance between quartiles);
  regressed  the change's median is worse than the parent's by more than
             the metric's bound, and the spread is within the bound (or
             every change run is worse than every parent run);
  unresolved the spread of either side exceeds the bound, and not every
             change run is better than every parent run;
  no worse   otherwise.

Exit status: 1 when any metric regressed, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expand(paths):
    for p in map(Path, paths):
        if p.is_dir():
            yield from sorted(p.glob("*.json"))
        else:
            yield p


def load(paths):
    """{workload: [metrics, ...]} in the order the files were given."""
    out = {}
    for path in expand(paths):
        result = json.loads(path.read_text())
        if result.get("trace") or result.get("smoke") or not result.get("metrics"):
            continue
        out.setdefault(result["workload"], []).append(
            {name: m["value"] for name, m in result["metrics"].items()})
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """Returns (verdict, share of pairs won by the change)."""
    sign = 1.0 if better == "higher" else -1.0

    def gain(c, p):  # > 0: c reads better than p
        return sign * (c - p)

    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if gain(c, p) > 0) / len(pairs)
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    cq1, cq3 = quartiles(change)
    spread = max((pq3 - pq1) / abs(pm), (cq3 - cq1) / abs(cm))
    worse_by = -gain(cm, pm) / abs(pm)
    all_better = all(gain(c, p) > 0 for c in change for p in parent)
    all_worse = all(gain(c, p) < 0 for c in change for p in parent)
    if won >= 0.9 and gain(cm, pm) > pq3 - pq1:
        return "improved", won
    if worse_by > bound and (spread <= bound or all_worse):
        return "regressed", won
    if spread > bound and not all_better:
        return "unresolved", won
    return "no worse", won


def compare(spec, parent, change):
    """Rows of (workload, metric, parent, change, won, pairs, verdict)."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r[name] for r in p_runs]
            c = [r[name] for r in c_runs]
            v, won = verdict(p, c, metric["better"], metric["bound"])
            rows.append((workload, name, p, c, won, min(len(p), len(c)), v))
    return rows


def describe(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def print_rows(rows):
    print(f"{'workload':16s} {'metric':16s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'won':>9s}  verdict")
    for workload, name, p, c, won, pairs, v in rows:
        print(f"{workload:16s} {name:16s} {describe(p):34s} {describe(c):34s} "
              f"{round(won * pairs):>3d}/{pairs:<3d}  {v}")


def selftest(spec):
    """Canned results with known verdicts, written and read back as files."""
    base = {"jobs_per_s": 100.0, "decision_p50_ns": 100.0, "decision_p99_ns": 100.0,
            "peak_rss_mb": 100.0, "setup_s": 100.0}
    jitter = [0.0, 0.5, -0.5, 1.0, -1.0, 0.25, -0.25, 0.75, -0.75, 0.1]
    spread = [-40.0, 40.0, -20.0, 20.0, 0.0, -30.0, 30.0, 10.0, -10.0, 5.0]
    want = {"jobs_per_s": "improved", "decision_p50_ns": "regressed",
            "decision_p99_ns": "unresolved", "peak_rss_mb": "no worse",
            "setup_s": "no worse"}
    names = {m["name"] for m in spec["end_to_end"]}
    if names != set(want):
        print(f"selftest: end_to_end metrics changed ({sorted(names)}); "
              f"update the canned verdicts")
        return 1
    workload = spec["workloads"][0]["name"]
    folder = ROOT / ".bench_out" / "compare-selftest"
    for side in ("parent", "change"):
        (folder / side).mkdir(parents=True, exist_ok=True)
    for i, j in enumerate(jitter):
        parent = {k: v + j for k, v in base.items()}
        change = dict(parent)
        change["jobs_per_s"] += 20.0
        change["decision_p50_ns"] += 30.0
        change["decision_p99_ns"] += spread[i]
        change["setup_s"] -= 0.1 * j
        for side, values in (("parent", parent), ("change", change)):
            result = {"workload": workload, "trace": 0, "smoke": False,
                      "metrics": {k: {"value": v} for k, v in values.items()}}
            (folder / side / f"{i:02d}.json").write_text(json.dumps(result))
    rows = compare(spec, load([folder / "parent"]), load([folder / "change"]))
    print_rows(rows)
    got = {name: v for _, name, _, _, _, _, v in rows}
    if got != want:
        print(f"selftest: got {got}, want {want}")
        return 1
    print("selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    if args.selftest:
        return selftest(spec)
    if not args.parent or not args.change:
        parser.error("--parent and --change are required")
    rows = compare(spec, load(args.parent), load(args.change))
    if not rows:
        print("no workload has results on both sides")
        return 1
    print_rows(rows)
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
