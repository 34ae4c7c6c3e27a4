#!/usr/bin/env python3
"""Compare two sets of fompi_bench run.json files, one row per (metric, workload).

    python3 benchmark/compare.py --base p1.json p2.json ... --change c1.json c2.json ...
    python3 benchmark/compare.py --same-code --base a1.json ... --change b1.json ...

Give the files in the order they were run: base[i] and change[i] form the
i-th alternating pair. Each row shows both sets' medians and quartiles, the
fraction of pairs the change wins (ties count for neither side), and a
verdict:

  gain        the change wins >= 90% of pairs and the medians differ by
              more than the base's own quartile spread;
  REGRESSION  the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json (failed_frac: by anything);
  unresolved  the base's spread (IQR / median) exceeds the bound, and not
              every change run beats every base run;
  ok          none of the above.

Only the workloads BENCHMARK.json lists are held to bounds; rows of other
workloads (milc_cg) are shown for information.

--same-code checks repeatability instead: both sets come from one commit,
so every median must agree within the bound, and every spread except
setup_s's must stay within it. Exit status 1 on any REGRESSION (or, with
--same-code, on any metric that does not repeat).
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    """({metric: (better, bound)}, set of gated workloads)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        rules[m["name"]] = (m["better"], None)
    rules["failed_frac"] = ("lower", 0.0)
    return rules, {w["name"] for w in spec["workloads"]}


def load_runs(paths):
    """{(workload, metric): [value per run]} in file order."""
    values = {}
    for path in paths:
        with open(path) as f:
            run = json.load(f)
        for wl, rep in run["workloads"].items():
            if not rep["correct"]:
                sys.exit(f"compare.py: {path}: {wl} failed its correctness checks")
            values.setdefault((wl, "failed_frac"), []).append(rep["failed_frac"])
            for name, m in rep["metrics"].items():
                values.setdefault((wl, name), []).append(m["median"])
    return values


def summary(v):
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return statistics.median(v), q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True, help="parent run.json files")
    ap.add_argument("--change", nargs="+", required=True, help="change run.json files")
    ap.add_argument("--same-code", action="store_true",
                    help="both sets are the same commit: check repeatability")
    args = ap.parse_args()
    if len(args.base) != len(args.change):
        sys.exit("compare.py: --base and --change need the same number of runs")
    rules, gated = load_spec()
    base, change = load_runs(args.base), load_runs(args.change)

    print(f"{'workload':14} {'metric':30} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse':>7} {'wins':>5} {'bound':>6}  verdict")
    bad = 0
    for key in sorted(base.keys() & change.keys()):
        wl, name = key
        better, bound = rules.get(name, ("lower", None))
        if wl not in gated:
            bound = None
        b, c = base[key], change[key]
        bm, bq1, bq3 = summary(b)
        cm, cq1, cq3 = summary(c)
        sign = 1 if better == "lower" else -1
        # Relative change in the "worse" direction: > 0 means the change lost.
        worse = sign * (cm - bm) / bm if bm else (0.0 if cm == bm else sign * float("inf"))
        pairs = list(zip(b, c))
        wins = sum(1 for x, y in pairs if sign * (y - x) < 0) / len(pairs)
        base_spread = (bq3 - bq1) / abs(bm) if bm else 0.0
        if args.same_code:
            chg_spread = (cq3 - cq1) / abs(cm) if cm else 0.0
            # setup_s is held to its bound by median only: its 20-40 ms
            # set-ups, dominated by first-touch page faults, spread wider
            # than the largest bound BENCHMARK.json allows (0.25).
            ok = bound is None or (abs(worse) <= bound and (
                name == "setup_s" or max(base_spread, chg_spread) <= bound))
            verdict = "repeats" if ok else "DIFFERS"
        else:
            all_better = all(sign * (y - x) < 0 for x in b for y in c)
            if bound is not None and base_spread > bound and not all_better:
                verdict = "unresolved"
                ok = True
            elif bound is not None and worse > bound:
                verdict, ok = "REGRESSION", False
            elif wins >= 0.9 and sign * (bm - cm) > bq3 - bq1:
                verdict, ok = "gain", True
            else:
                verdict, ok = "ok", True
        bad += not ok
        print(f"{wl:14} {name:30} {bm:14.6g} [{bq1:8.4g}, {bq3:8.4g}] "
              f"{cm:14.6g} [{cq1:8.4g}, {cq3:8.4g}] {100 * worse:6.2f}% {wins:5.2f} "
              f"{'-' if bound is None else f'{bound:.2f}':>6}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
