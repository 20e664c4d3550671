"""Command-line entry point.

Subcommands: train, count-params, gradcheck, eval, augment-preview (the view
each pod of a run config gets from one sample in epoch 0, as PPM files). Every
subcommand reads the run config `--config`; no flag describes a model.
Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import tensor as T
from .config import ConfigError, load_config, load_data
from .checks import FieldError
from .data import DataError, make_pod_inputs, read_ppm, write_ppm
from .gradcheck import gradient_check
from .models import build_multipod, count_params
from .training import (CheckpointError, NumericalAbort, evaluate_center_crop,
                       evaluate_ten_crop, load_checkpoint, read_log, train,
                       write_atomically)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

OUTPUT_DIR_ENV = "MULTIPOD_OUTPUT_DIR"

# Environment variables that set the BLAS thread count, most specific first.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _machine():
    """The machine a run's wall times were taken on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": next((os.environ[v] for v in _BLAS_THREAD_VARS if v in os.environ),
                             "default"),
    }


def cmd_train(args):
    cfg = load_config(args.config)

    out_dir = args.output_dir or cfg.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "runs"
    # the data, the resume checkpoint and its log are checked before any artifact is
    # written, so a run that fails on them leaves its directory as it was
    train_batch, eval_batch = load_data(cfg)
    model = build_multipod(cfg.model)
    resume = None
    if args.resume:
        resume = load_checkpoint(os.path.join(out_dir, "last.ckpt"))
        resume.check(model, cfg.augmentation.seed)
        read_log(os.path.join(out_dir, "train_log.jsonl"))

    os.makedirs(out_dir, exist_ok=True)
    effective = dataclasses.replace(cfg, output_dir=out_dir).to_dict()
    del effective["augmentation"]["seed"]  # it is the run seed, so the file states it once
    write_atomically(os.path.join(out_dir, "config.json"),
                     lambda f: f.write(json.dumps(effective, indent=2) + "\n"))

    def progress(record, _model):
        print(f"epoch {record.epoch}: lr={record.lr:g} "
              f"train_loss={record.train_loss:.4f} train_acc={record.train_acc:.4f} "
              f"eval_top1={record.eval_top1:.4f} eval_top5={record.eval_top5:.4f}",
              flush=True)
        return False

    result = train(model, train_batch, eval_batch, cfg.schedule, cfg.augmentation,
                   out_dir=out_dir, resume_from=resume, early_stop=progress)

    # the best epoch of the whole run, resumed or not: the first peak, as in best.ckpt
    best = max((r.to_dict() for r in read_log(os.path.join(out_dir, "train_log.jsonl"))),
               key=lambda r: r["eval_top1"], default={})
    summary = {
        "best_top1": best.get("eval_top1"),
        "best_top5": best.get("eval_top5"),
        "best_epoch": best.get("epoch"),
        "param_count": count_params(cfg.model),
        "epochs_run": len(result.records),
        "wall_time": result.wall_time,
        "machine": _machine(),
    }
    write_atomically(os.path.join(out_dir, "summary.json"),
                     lambda f: f.write(json.dumps(summary, indent=2) + "\n"))
    print(f"best eval top1={result.best_top1:.4f}; artifacts in {out_dir}")
    return EXIT_OK


def cmd_count_params(args):
    n = count_params(load_config(args.config).model)
    print(n)
    if args.expect is not None and n != args.expect:
        print(f"parameter count mismatch: expected {args.expect}, got {n}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_gradcheck(args):
    for flag, value in (("--batch", args.batch), ("--size", args.size),
                        ("--sample-stride", args.sample_stride)):
        if value < 1:
            raise ValueError(f"{flag} {value} must be >= 1")
    if args.size > 16:
        raise ValueError(f"--size {args.size} too large for finite differences (max 16)")
    for flag, value in (("--h", args.h), ("--tolerance", args.tolerance)):
        if not 0 < value < float("inf"):
            raise ValueError(f"{flag} {value} must be finite and > 0")
    spec = load_config(args.config).model
    model = build_multipod(spec, dtype=np.float64)
    rng = np.random.default_rng(args.seed)
    inputs = [T.Tensor(rng.normal(0.0, 1.0, (args.batch, 3, args.size, args.size)),
                       dtype=np.float64) for _ in range(spec.pods)]
    labels = rng.integers(0, spec.classes, size=args.batch)

    progress = None
    if args.verbose:
        def progress(name, size, worst):
            print(f"  {name}: {size} scalars, worst rel err {worst:.3e}", flush=True)

    report = gradient_check(model, inputs, labels, h=args.h, tol=args.tolerance,
                            progress=progress, sample_stride=args.sample_stride)
    print(f"checked {report.checked} parameters; "
          f"worst relative error {report.worst_rel:.3e} ({report.worst_param})")
    if report.failures:
        shown = ", ".join(report.failures[:10])
        more = "" if len(report.failures) <= 10 else f" (+{len(report.failures) - 10} more)"
        print(f"gradient check failed for: {shown}{more}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_eval(args):
    if args.crop_size is not None and args.protocol == "center":
        raise ValueError("--crop-size applies only to --protocol tencrop")
    ckpt = load_checkpoint(args.checkpoint)
    cfg = load_config(args.config)
    model = build_multipod(cfg.model)
    ckpt.apply(model)
    _, eval_batch = load_data(cfg)
    if args.protocol == "center":
        res = evaluate_center_crop(model, eval_batch, cfg.augmentation)
    else:
        res = evaluate_ten_crop(model, eval_batch, cfg.augmentation,
                                crop_size=args.crop_size)
    print(f"top1={res.top1:.6f} top5={res.top5:.6f} loss={res.loss:.6f}")
    return EXIT_OK


def cmd_augment_preview(args):
    cfg = load_config(args.config)
    if args.index < 0:
        raise ValueError(f"--index {args.index} must be >= 0")
    if args.image is not None:
        img = read_ppm(args.image)
    else:
        samples, _ = load_data(cfg)
        if args.index >= len(samples):
            raise ValueError(f"--index {args.index} must be < {len(samples)}, the train set's size")
        img = samples.pixels[args.index]
    # identity normalization keeps the views in displayable [0,1] pixel space
    aug = dataclasses.replace(cfg.augmentation, mean=(0.0, 0.0, 0.0), std=(1.0, 1.0, 1.0))
    try:
        views = make_pod_inputs(img[None], aug, cfg.model.pods, epoch=0, indices=[args.index])
    except FieldError as e:  # only an --image can be smaller than the config's crop
        raise ValueError(f"{args.image}: augmentation.{e}") from None
    os.makedirs(args.out, exist_ok=True)
    write_ppm(os.path.join(args.out, "original.ppm"), img)
    for i, v in enumerate(views):
        write_ppm(os.path.join(args.out, f"pod{i}.ppm"), v[0])
    print(f"wrote original plus {len(views)} pod views to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="multipod",
        description="Parallel-pod convolutional networks with feature fusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training config")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir")
    p.add_argument("--resume", action="store_true",
                   help="resume from last.ckpt in the output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("count-params", help="print the exact parameter count of a config's model")
    p.add_argument("--config", required=True)
    p.add_argument("--expect", type=int, help="exit 1 unless the count equals this")
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("gradcheck", help="finite-difference check of a config's model's backward")
    p.add_argument("--config", required=True)
    p.add_argument("--size", type=int, default=8, help="input resolution (max 16)")
    p.add_argument("--batch", type=int, default=2)
    # seeds the random inputs and labels, not the config's data; the default
    # keeps every pre-relu value ~40 FD steps or more from zero, since a kink
    # inside the h-neighborhood corrupts finite differences upstream
    p.add_argument("--seed", type=int, default=2701)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--sample-stride", type=int, default=1,
                   help="check every Nth scalar per tensor (1 = all, the default)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--protocol", choices=("center", "tencrop"), default="center")
    p.add_argument("--crop-size", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("augment-preview", help="write each pod's view of one sample")
    p.add_argument("--config", required=True)
    p.add_argument("--image", help="input PPM (P6); omit to use the config's train set")
    p.add_argument("--index", type=int, default=0, help="train-set index; seeds the draws")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment_preview)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ConfigError, DataError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalAbort as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, T.StateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
