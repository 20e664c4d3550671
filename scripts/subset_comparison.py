#!/usr/bin/env python3
"""Informational study: a single network against the k-pod model of a run
config, trained the same way over several seed groups. Reports the best eval
top-1 of each run plus each arm's mean; asserts nothing.

Every arm trains on the config's data, schedule and augmentation. In seed
group t the k-pod arm is the config's model with each pod seed raised by k*t,
the single arm is that model with one pod and the first of those seeds, and
both augment with seed `seed + t`. So group 0's k-pod arm is the run that
`multipod train --config F` trains. `--subset N` trains every arm on the first
N images of a fixed permutation of the train set. Accuracy on synthetic data
says nothing about benchmark accuracy; it only exercises the comparison.

    PYTHONPATH=src python scripts/subset_comparison.py --config configs/toy-synthetic.json
"""

import argparse
import dataclasses
import sys
import time

import numpy as np

from multipod.config import load_config, load_data
from multipod.data import DataError
from multipod.models import build_multipod, count_params
from multipod.training import NumericalAbort, train


def run_one(label, spec, train_batch, eval_batch, sched, aug):
    model = build_multipod(spec)
    t0 = time.time()
    result = train(model, train_batch, eval_batch, sched, aug)
    print(f"    {label}: best top1 {result.best.eval_top1:.4f} "
          f"({count_params(spec):,} params, {time.time() - t0:.0f}s)", flush=True)
    return result.best.eval_top1


def study(args):
    for flag, value in (("--groups", args.groups), ("--subset", args.subset)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} {value} must be >= 1")
    cfg = load_config(args.config)
    k = cfg.model.pods
    if k == 1:
        raise ValueError("model.pods: must be >= 2 to compare with a single pod, got 1")
    train_batch, eval_batch = load_data(cfg)
    if args.subset is not None:
        if args.subset > len(train_batch):
            raise ValueError(f"--subset {args.subset} must be <= {len(train_batch)}, "
                             "the train set's size")
        order = np.random.default_rng(0).permutation(len(train_batch))
        train_batch = train_batch.subset(order[:args.subset])

    sched = cfg.schedule
    print(f"{len(train_batch)} train / {len(eval_batch)} eval samples, "
          f"{sched.epochs} epochs, milestones {sched.milestones}, "
          f"{k}-pod vs single, base n={cfg.model.base.n}")
    if cfg.data["kind"] == "synthetic":
        print("note: synthetic substitute; numbers are not benchmark accuracy")

    singles, multis = [], []
    for t in range(args.groups):
        seeds = tuple(s + k * t for s in cfg.model.seeds)
        print(f"  seed group {t}: seeds {seeds}")
        multi = dataclasses.replace(cfg.model, seeds=seeds)
        single = dataclasses.replace(multi, pods=1, seeds=seeds[:1])
        aug = dataclasses.replace(cfg.augmentation, seed=cfg.seed + t)
        singles.append(run_one("single ", single, train_batch, eval_batch, sched, aug))
        multis.append(run_one(f"{k}-pod ", multi, train_batch, eval_batch, sched, aug))

    for label, tops in (("single", singles), (f"{k}-pod", multis)):
        print(f"{label}: mean best top1 {np.mean(tops):.4f} (std {np.std(tops):.4f})")
    print(f"gap ({k}-pod minus single): {np.mean(multis) - np.mean(singles):+.4f}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", required=True, help="the run config of the k-pod arm")
    parser.add_argument("--subset", type=int,
                        help="train on the first N of a fixed permutation of the train set "
                        "(default: all of it)")
    parser.add_argument("--groups", type=int, default=3,
                        help="number of seed groups to average over")
    args = parser.parse_args(argv)
    try:
        return study(args)
    except (DataError, ValueError) as e:  # a ConfigError too, reported as `multipod` does
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalAbort as e:  # exit 3, as `multipod train` ends on one
        print(f"numerical abort: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
