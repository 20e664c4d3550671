"""Command-line entry point.

Subcommands: train, count-params, gradcheck (criterion 2's gradient check),
eval, augment-preview (the view each pod of a run config gets from one sample
in epoch 0, as PPM files). Every subcommand reads the run config `--config`; no
flag describes a model, and no flag is read from a prefix of its name.
Exit codes: 0 success, 1 check failure, 2 usage/config error or an output path
that cannot be written, 3 numerical abort, 141 stdout closed by its reader (as a
shell reports a process ended by SIGPIPE; the command stops at its next write,
with no traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import tensor as T
from .config import load_config, load_data, load_eval_data, load_train_data
from .checks import FieldError
from .data import DataError, make_pod_inputs, read_ppm, write_ppm
from .gradcheck import gradient_check
from .models import build_multipod, count_params
from .training import (CheckpointError, NumericalAbort, evaluate_center_crop,
                       evaluate_ten_crop, load_checkpoint, resumed_log, train,
                       write_atomically)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141

# Environment variables that set the BLAS thread count, most specific first.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

# gradcheck's inputs are criterion 2's, not the config's data: 2 random 8x8
# images per pod and their labels, from a seed that keeps every pre-relu value
# ~40 FD steps or more from zero (a kink inside the h-neighborhood corrupts
# finite differences upstream)
GRADCHECK_SEED = 2701
GRADCHECK_BATCH = 2
GRADCHECK_SIZE = 8


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
    if args.output_dir == "":
        raise ValueError("--output-dir must be a non-empty path")
    cfg = load_config(args.config)

    out_dir = args.output_dir or cfg.output_dir or "runs"
    # the data, the resume checkpoint and its log are checked before any artifact is
    # written, so a run that fails on them leaves its directory as it was
    train_batch, eval_batch = load_data(cfg)
    model = build_multipod(cfg.model)
    resume = None
    if args.resume:
        resume = load_checkpoint(os.path.join(out_dir, "last.ckpt"))
        resumed_log(out_dir, resume)
        resume.check(model, cfg.augmentation.seed)

    os.makedirs(out_dir, exist_ok=True)
    if resume is None:  # a fresh run leaves no summary of a previous one
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, "summary.json"))
    effective = dataclasses.replace(cfg, output_dir=out_dir).to_dict()
    del effective["augmentation"]["seed"]  # it is the run seed, so the file states it once
    write_atomically(os.path.join(out_dir, "config.json"),
                     lambda f: f.write(json.dumps(effective, indent=2) + "\n"))

    def progress(record):
        print(f"epoch {record.epoch}: lr={record.lr:g} "
              f"train_loss={record.train_loss:.4f} train_acc={record.train_acc:.4f} "
              f"eval_top1={record.eval_top1:.4f} eval_top5={record.eval_top5:.4f}",
              flush=True)

    result = train(model, train_batch, eval_batch, cfg.schedule, cfg.augmentation,
                   out_dir=out_dir, resume_from=resume, early_stop=progress)
    best = result.best  # the whole run's, resumed or not
    summary = {
        "best_top1": best.eval_top1,
        "best_top5": best.eval_top5,
        "best_epoch": best.epoch,
        "param_count": count_params(cfg.model),
        "epochs_run": len(result.records),
        "wall_time": result.wall_time,
        "machine": _machine(),
    }
    write_atomically(os.path.join(out_dir, "summary.json"),
                     lambda f: f.write(json.dumps(summary, indent=2) + "\n"))
    print(f"best eval top1={best.eval_top1:.4f}; artifacts in {out_dir}")
    return EXIT_OK


def cmd_count_params(args):
    n = count_params(load_config(args.config).model)
    print(n)
    if args.expect is not None and n != args.expect:
        print(f"parameter count mismatch: expected {args.expect}, got {n}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_gradcheck(args):
    if args.sample_stride < 1:
        raise ValueError(f"--sample-stride {args.sample_stride} must be >= 1")
    spec = load_config(args.config).model
    model = build_multipod(spec, dtype=np.float64)
    rng = np.random.default_rng(GRADCHECK_SEED)
    inputs = [T.Tensor(rng.normal(0.0, 1.0, (GRADCHECK_BATCH, 3, GRADCHECK_SIZE, GRADCHECK_SIZE)),
                       dtype=np.float64) for _ in range(spec.pods)]
    labels = rng.integers(0, spec.classes, size=GRADCHECK_BATCH)

    progress = None
    if args.verbose:
        def progress(name, size, worst):
            print(f"  {name}: {size} scalars, worst rel err {worst:.3e}", flush=True)

    report = gradient_check(model, inputs, labels, progress=progress,
                            sample_stride=args.sample_stride)
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
    eval_batch = load_eval_data(cfg)
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
        samples = load_train_data(cfg)
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
    # a flag is read only as spelled: `--h` is refused, not taken for `--help`
    sub = parser.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

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
    try:
        code = _run(argv)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # the reader (`| head`) has gone: whatever is still buffered goes to
        # devnull, so the interpreter's own flush at exit succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


def _run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # main ends the command quietly
    except NumericalAbort as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    # an OSError is an artifact that could not be written, such as an output path that is a file
    except (ValueError, DataError, CheckpointError, T.StateError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
