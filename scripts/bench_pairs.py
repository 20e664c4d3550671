#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, merged into one record.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs tripod-train=2301-2310 --pairs tripod-eval=2401-2404 \\
        --traced tripod-train=2501 --seconds 20 --out BENCH_17.json

For each workload and seed of ``--pairs`` it runs ``python3 perfbench/run.py
--workload W --seed S --seconds N --trace 0`` once in each checkout, the
parent first in the 1st, 3rd, ... pair of a workload and the change first in
the others; ``--traced`` runs ``--trace 1`` the same way. Each run leaves its
result file in its checkout's ``.perfbench_out/``. Those files are merged
into ``--out``: the machine descriptor; per workload and side, the median,
quartiles and runs of the nominal rate, the wall-clock rate, ``setup_s`` and
``peak_rss_mb``; per figure, how many pairs the change won (a higher rate, a
lower ``setup_s`` or ``peak_rss_mb``) and the median over the pairs of its
change/parent ratio; per side, the per-layer table of each traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

WHAT = ("Alternating parent/change pairs of `python3 perfbench/run.py --workload W --seed S "
        "--seconds N --trace 0`, each side in its own checkout; the parent ran first in the "
        "1st, 3rd, 5th ... pair of each workload. The wall-clock rate is items over each "
        "call's wall seconds with the probe left out, median over the calls. `traced` holds "
        "`--trace 1` runs, one per side and seed, in seconds per workload call.")
SIDES = ("parent", "change")
# each run's end-to-end figures, by their names in the record, and whether
# the change wins a pair in that figure by being higher
FIGURES = {"nominal_items_per_s": True, "wall_items_per_s": True, "setup_s": False,
           "peak_rss_mb": False}


def result_path(checkout, workload, seed, trace):
    return os.path.join(checkout, ".perfbench_out", f"{workload}-seed{seed}-trace{trace}.json")


def read_run(path):
    """One run's end-to-end figures, failed operations and machine, from
    its result file."""
    with open(path) as f:
        doc = json.load(f)
    metrics = {name: m["value"] for name, m in doc["result"]["metrics"].items()}
    nominal = metrics["nominal_items_per_s"]
    # every call of a workload counts the same items; the nominal rate is
    # the median of items / nominal seconds over the calls
    items = round(nominal / statistics.median(1 / s for s in doc["call_nominal_seconds"]))
    return {"nominal_items_per_s": nominal,
            "wall_items_per_s": statistics.median(items / s for s in doc["call_wall_seconds"]),
            "setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
            "failed_operations": doc["result"]["failed"], "machine": doc["machine"]}


def spread(runs):
    """Median, quartiles (inclusive method) and the runs themselves."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 \
        else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def merge(pairs, traced=None, parent=""):
    """The record of result files ``pairs`` {workload: [(seed, parent file,
    change file)]} and, for traced runs, ``traced`` {workload: [(seed,
    parent file, change file)]}; ``parent`` names the parent commit."""
    record = {"what": WHAT, "parent": parent, "machine": None, "pairs": {}, "traced": {}}
    for workload, runs in pairs.items():
        read = {side: [read_run(files[i]) for _, *files in runs] for i, side in enumerate(SIDES)}
        record["machine"] = record["machine"] or read["parent"][0]["machine"]
        entry = {"seeds": [seed for seed, *_ in runs]}
        for side in SIDES:
            entry[side] = {name: spread([r[name] for r in read[side]]) for name in FIGURES}
            entry[side]["failed_operations"] = sum(r["failed_operations"] for r in read[side])
        ran = list(zip(read["parent"], read["change"]))
        entry["change_won"] = {name: sum((c[name] > p[name]) if higher else (c[name] < p[name])
                                         for p, c in ran)
                               for name, higher in FIGURES.items()}
        entry["median_ratio"] = {name: statistics.median(c[name] / p[name] for p, c in ran)
                                 for name in FIGURES}
        entry["change_faster_nominal"] = entry["change_won"]["nominal_items_per_s"]
        entry["change_faster_wall"] = entry["change_won"]["wall_items_per_s"]
        record["pairs"][workload] = entry
    for workload, runs in (traced or {}).items():
        for i, side in enumerate(SIDES):
            tables = []
            for _, *files in runs:
                with open(files[i]) as f:
                    tables.append(json.load(f)["result"]["metrics"])
            record["traced"].setdefault(side, {})[workload] = {
                "seeds": [seed for seed, *_ in runs],
                "per_op": {name: [t[name]["value"] for t in tables] for name in tables[0]}}
    return record


def seeds(spec):
    """'W=1-3,7' -> ('W', [1, 2, 3, 7])."""
    workload, _, ranges = spec.partition("=")
    out = []
    for part in ranges.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    if not workload or not out:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEEDS, got {spec!r}")
    return workload, out


def run_pairs(args, plan, trace):
    """Runs every pair of ``plan`` and returns its result files by workload."""
    files = {}
    for workload, seed_list in plan:
        for n, seed in enumerate(seed_list):
            order = SIDES if n % 2 == 0 else SIDES[::-1]
            for side in order:
                print(f"{side}: {workload} seed {seed} trace {trace}", flush=True)
                subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                                "--seed", str(seed), "--seconds", str(args.seconds),
                                "--trace", str(trace)], cwd=getattr(args, side), check=True,
                               stdout=subprocess.DEVNULL)
            files.setdefault(workload, []).append(
                (seed, *(result_path(getattr(args, side), workload, seed, trace)
                         for side in SIDES)))
    return files


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--pairs", type=seeds, action="append", default=[],
                   metavar="WORKLOAD=SEEDS", help="untraced pairs, e.g. tripod-train=1-10")
    p.add_argument("--traced", type=seeds, action="append", default=[],
                   metavar="WORKLOAD=SEEDS", help="traced pairs")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    parent = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=args.parent,
                            capture_output=True, text=True).stdout.strip()
    record = merge(run_pairs(args, args.pairs, 0), run_pairs(args, args.traced, 1), parent)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for workload, entry in record["pairs"].items():
        print(workload, ", ".join(
            f"{name} {entry['parent'][name]['median']:.4g} -> {entry['change'][name]['median']:.4g}"
            f" (x{entry['median_ratio'][name]:.3f}, change won "
            f"{entry['change_won'][name]}/{len(entry['seeds'])})" for name in FIGURES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
