#!/usr/bin/env python3
"""Benchmark of the multipod package, run from the root of a checkout:

    python3 perfbench/run.py --workload tripod-train --seed 1 --seconds 20 --trace 0

It imports the package from ``src/`` of the same checkout, makes one
untimed warm-up call, then calls the package's public API for ``--seconds``
(at least twice), setting up afresh before each call, checks the outputs
and prints one JSON object as the last line of standard output. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
measures untraced for half the seconds and traced for the other half, and
reports the per-layer metrics with the tracing overhead. Files go to
``.perfbench_out/`` in the checkout. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
import types

import machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

MODULES = ("tensor", "models", "data", "training", "gradcheck", "config")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, seconds, min_calls, tally, clock, setup_times, readings=()):
    """Set up afresh and call the workload, at least ``min_calls`` times and
    again while one more round of average length still ends within
    ``seconds``. A speed sampler appends the machine's slowdown to
    ``readings`` while the rounds run; a round is read at nominal speed
    through the mean speed (1 / slowdown) of the readings taken during it,
    or of the last one before it if none was. A workload with
    ``setup_rounds`` sets up that many times per call. Appends each
    set-up's nominal seconds to ``setup_times``; returns (nominal seconds,
    items, result, seconds) of each call that succeeded."""
    samples = []
    start = clock()
    attempts = 0
    while attempts < min_calls or (clock() - start) * (attempts + 1) / attempts <= seconds:
        attempts += 1
        first = len(readings)
        setups, sample = [], None
        try:
            for _ in range(getattr(workload, "setup_rounds", 1)):
                t = clock()
                workload.setup()
                setups.append(clock() - t)
            sample = workload.call()
        except Exception:
            tally.record("call", traceback.format_exc(limit=4))
        taken = readings[first:] or readings[-1:] or [1.0]
        speed = statistics.fmean(1 / r for r in taken)
        setup_times.extend(t * speed for t in setups)
        if sample is not None and tally.record("call", workload.problem(sample[2])):
            samples.append((sample[0] * speed, sample[1], sample[2], sample[0]))
    return samples


def rates(samples, wall=False):
    return [s[1] / s[3 if wall else 0] for s in samples]


def median_rate(samples, wall=False):
    return statistics.median(rates(samples, wall)) if samples else 0.0


def run(args, mp, nproc, blas_threads):
    import numpy as np
    import layers
    from speed import Sampler
    from tracer import Tracer
    from workloads import WORKLOADS, Tally

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)
    tally = Tally()
    sampler = Sampler()
    clock, readings = sampler.clock, sampler.readings
    tracer = Tracer(clock) if args.trace else None
    try:
        workload = WORKLOADS[args.workload](mp, args.seed, workdir, clock)
        workload.prepare()
        setup_times = []
        with sampler:
            # the first call pays one-time costs that a long run pays once;
            # it is checked but not timed
            warm = measure(workload, 0, 1, tally, clock, setup_times, readings)
            if tracer:
                plain = measure(workload, args.seconds / 2, 1, tally, clock, setup_times,
                                readings)
                layers.install(tracer, mp)
                try:
                    traced = measure(workload, args.seconds / 2, 1, tally, clock, setup_times,
                                     readings)
                finally:
                    tracer.uninstall()
                samples = plain + traced
            else:
                samples = measure(workload, args.seconds, 2, tally, clock, setup_times, readings)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            for label, problem in workload.checks([s[2] for s in warm + samples]):
                tally.record(label, problem)
        except Exception:
            tally.record("checks", traceback.format_exc(limit=4))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    desc = machine.describe(np, nproc, blas_threads)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    print(f"workload {args.workload}: seed {args.seed}, {len(samples)} calls, "
          f"{workload.items} per second per call at nominal speed: "
          + ", ".join(f"{r:.4g}" for r in rates(samples)))
    print("the same by the wall clock, probe time left out: "
          + ", ".join(f"{r:.4g}" for r in rates(samples, True)))
    print(f"speed probe: {len(readings)} readings, median slowdown "
          f"{statistics.median(readings) if readings else 0.0:.3g}")
    print("nominal set-up seconds: " + ", ".join(f"{t:.4g}" for t in setup_times))
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"machine": desc}))

    if tracer:
        overhead = 0.0
        if plain and traced:
            overhead = median_rate(plain) / median_rate(traced) - 1
        values = layers.per_layer_metrics(
            tracer.spans, max(len(traced), 1), sum(s[3] for s in traced), overhead,
            desc["sgemm_gflops"], median_rate(plain, wall=True),
            statistics.median(readings) if readings else 0.0)
        for line in layers.table(values, tracer.absent):
            print(line)
        print(f"tracing overhead: {100 * overhead:.1f}% over {len(plain)} untraced and "
              f"{len(traced)} traced calls; {len(tracer.spans)} spans in {stem}.spans.jsonl")
        tracer.write(stem + ".spans.jsonl")
    else:
        values = {
            "nominal_items_per_s": (median_rate(samples), "items/s"),
            "setup_s": (statistics.median(setup_times) if setup_times else 0.0, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    with open(stem + ".json", "w") as f:
        json.dump({"result": result, "machine": desc, "problems": tally.problems,
                   "call_wall_seconds": [s[3] for s in samples],
                   "call_nominal_seconds": [s[0] for s in samples],
                   "probe_slowdowns": readings,
                   "setup_nominal_seconds": setup_times}, f, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    sys.dont_write_bytecode = True  # leave src/ as the checkout has it
    nproc = len(os.sched_getaffinity(0))
    blas_threads = machine.blas_threads_env()  # before numpy loads
    if not os.path.isfile(os.path.join(SRC, "multipod", "__init__.py")):
        print(f"perfbench: no multipod package under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    mp = types.SimpleNamespace(**{m: importlib.import_module(f"multipod.{m}") for m in MODULES})
    return run(args, mp, nproc, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
