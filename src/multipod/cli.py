"""Command-line entry point.

Subcommands: train, count-params, gradcheck, eval, augment-preview.
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
from .config import ConfigError, load_config, load_data, parse_config
from .data import (ROUTINGS, AugmentationSpec, DataError, JitterSpec, make_pod_inputs,
                   read_ppm, synthetic_dataset, write_ppm)
from .gradcheck import gradient_check
from .models import (APPROACH1, APPROACH2, CIFAR_FAMILY, COMBINE_MODES, MultiPodSpec,
                     build_multipod, count_params, resnet_cifar, resnet_imagenet)
from .training import (CheckpointError, NumericalAbort, evaluate_center_crop,
                       evaluate_ten_crop, load_checkpoint, train)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

OUTPUT_DIR_ENV = "MULTIPOD_OUTPUT_DIR"

_FUSION_NAMES = {"approach1": APPROACH1, "approach2": APPROACH2}

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


def _base_arg(name):
    if name == "resnet18":
        return resnet_imagenet()
    if name.startswith("resnet"):
        try:
            depth = int(name[len("resnet"):])
        except ValueError:
            depth = -1
        if depth >= 8 and (depth - 2) % 6 == 0:
            return resnet_cifar((depth - 2) // 6)
    raise argparse.ArgumentTypeError(
        f"unsupported base {name!r}: use resnet18 or a 6n+2 depth like resnet20")


def _spec_from_args(args, base):
    classes = args.classes
    if classes is None:
        classes = 10 if base.family == CIFAR_FAMILY else 1000
    return MultiPodSpec(pods=args.pods, base=base, fusion=_FUSION_NAMES[args.fusion],
                        combine_mode=args.combine, classes=classes)


def _with_overrides(cfg, args):
    # Each flag is applied and validated in turn, so an error names the flag
    # that made a valid config invalid.
    doc = cfg.to_dict()
    for flag, section, key, value in (("--seed", None, "seed", args.seed),
                                      ("--epochs", "schedule", "epochs", args.epochs),
                                      ("--batch-size", "schedule", "batch_size", args.batch_size),
                                      ("--output-dir", None, "output_dir", args.output_dir)):
        if value is None:
            continue
        (doc[section] if section else doc)[key] = value
        try:
            cfg = parse_config(doc)
        except ConfigError as e:
            raise ConfigError(f"{flag} {value}: {e}") from e
    return cfg


def cmd_train(args):
    cfg = _with_overrides(load_config(args.config), args)

    out_dir = cfg.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "runs"
    # the data and the resume checkpoint are checked before any artifact is
    # written, so a run that fails on them leaves nothing behind
    train_batch, eval_batch = load_data(cfg)
    model = build_multipod(cfg.model)
    resume = None
    if args.resume:
        resume = load_checkpoint(os.path.join(out_dir, "last.ckpt"))

    os.makedirs(out_dir, exist_ok=True)
    effective = dataclasses.replace(cfg, output_dir=out_dir)
    with open(os.path.join(out_dir, "config.json"), "w") as f:
        json.dump(effective.to_dict(), f, indent=2)
        f.write("\n")

    def progress(record, _model):
        print(f"epoch {record.epoch}: lr={record.lr:g} "
              f"train_loss={record.train_loss:.4f} train_acc={record.train_acc:.4f} "
              f"eval_top1={record.eval_top1:.4f} eval_top5={record.eval_top5:.4f}",
              flush=True)
        return False

    result = train(model, train_batch, eval_batch, cfg.schedule, cfg.augmentation,
                   out_dir=out_dir, resume_from=resume, early_stop=progress)

    # the best epoch of the whole run, resumed or not: the first peak, as in best.ckpt
    with open(os.path.join(out_dir, "train_log.jsonl")) as f:
        best = max(map(json.loads, f), key=lambda r: r["eval_top1"], default={})
    summary = {
        "best_top1": best.get("eval_top1"),
        "best_top5": best.get("eval_top5"),
        "best_epoch": best.get("epoch"),
        "param_count": count_params(cfg.model),
        "epochs_run": len(result.records),
        "wall_time": result.wall_time,
        "machine": _machine(),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    print(f"best eval top1={result.best_top1:.4f}; artifacts in {out_dir}")
    return EXIT_OK


def cmd_count_params(args):
    if args.config:
        spec = load_config(args.config).model
    else:
        spec = _spec_from_args(args, args.base)
    n = count_params(spec)
    print(n)
    if args.expect is not None and n != args.expect:
        print(f"parameter count mismatch: expected {args.expect}, got {n}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_gradcheck(args):
    if args.size > 16:
        print(f"error: --size {args.size} too large for finite differences (max 16)",
              file=sys.stderr)
        return EXIT_USAGE
    spec = _spec_from_args(args, resnet_cifar(args.n))
    model = build_multipod(spec, dtype=np.float64)
    rng = np.random.default_rng(args.seed)
    inputs = [T.Tensor(rng.normal(0.0, 1.0, (args.batch, 3, args.size, args.size)),
                       dtype=np.float64) for _ in range(spec.pods)]
    labels = rng.integers(0, spec.classes, size=args.batch)

    progress = None
    if args.verbose:
        def progress(name, size, worst):
            print(f"  {name}: {size} scalars, worst rel err {worst:.3e}", flush=True)

    if args.sample_stride < 1:
        print("error: --sample-stride must be >= 1", file=sys.stderr)
        return EXIT_USAGE
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
    if args.image is not None:
        img = read_ppm(args.image)
    else:
        ds = synthetic_dataset(args.classes, max(args.classes, args.index + 1),
                               args.size, args.seed)
        img = ds.pixels[args.index]
    size = img.shape[-1]
    crop = args.crop_size if args.crop_size is not None else size
    # identity normalization keeps previews in displayable [0,1] pixel space
    spec = AugmentationSpec(
        pad=args.pad, crop_size=crop, hflip_prob=args.hflip,
        jitter=JitterSpec(args.brightness, args.contrast, args.saturation),
        mean=(0.0, 0.0, 0.0), std=(1.0, 1.0, 1.0),
        routing=args.routing, seed=args.seed)
    views = make_pod_inputs(img[None], spec, args.pods,
                            epoch=0, indices=[args.index], train=True)
    os.makedirs(args.out, exist_ok=True)
    write_ppm(os.path.join(args.out, "original.ppm"), img)
    for i, v in enumerate(views):
        write_ppm(os.path.join(args.out, f"pod{i}.ppm"), v[0])
    print(f"wrote original plus {args.pods} pod views to {args.out}")
    return EXIT_OK


def _add_spec_flags(p, default_pods=3):
    p.add_argument("--pods", type=int, default=default_pods)
    p.add_argument("--base", type=_base_arg, default=resnet_cifar(3),
                   help="resnet18 or a 6n+2 depth like resnet20")
    p.add_argument("--fusion", choices=sorted(_FUSION_NAMES), default="approach1")
    p.add_argument("--combine", choices=COMBINE_MODES, default="sum")
    p.add_argument("--classes", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="multipod",
        description="Parallel-pod convolutional networks with feature fusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training config")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--resume", action="store_true",
                   help="resume from last.ckpt in the output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("count-params", help="print the exact parameter count")
    p.add_argument("--config")
    _add_spec_flags(p)
    p.add_argument("--expect", type=int, help="exit 1 unless the count equals this")
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("gradcheck", help="finite-difference check of backward")
    p.add_argument("--pods", type=int, default=3)
    p.add_argument("--n", type=int, default=1, help="blocks per stage")
    p.add_argument("--fusion", choices=sorted(_FUSION_NAMES), default="approach1")
    p.add_argument("--combine", choices=COMBINE_MODES, default="sum")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--size", type=int, default=8, help="input resolution (max 16)")
    p.add_argument("--batch", type=int, default=2)
    # default chosen so no pre-relu value sits within ~40 FD steps of zero;
    # a kink inside the h-neighborhood corrupts finite differences upstream
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

    p = sub.add_parser("augment-preview", help="write per-pod augmented images")
    p.add_argument("--image", help="input PPM (P6); omit to use a synthetic sample")
    p.add_argument("--index", type=int, default=0, help="synthetic sample index")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--size", type=int, default=32, help="synthetic image size")
    p.add_argument("--pods", type=int, default=3)
    p.add_argument("--routing", choices=ROUTINGS, default="per-pod-jitter")
    p.add_argument("--pad", type=int, default=0)
    p.add_argument("--crop-size", type=int)
    p.add_argument("--hflip", type=float, default=0.0)
    p.add_argument("--brightness", type=float, nargs=2, default=(0.6, 1.4))
    p.add_argument("--contrast", type=float, nargs=2, default=(0.6, 1.4))
    p.add_argument("--saturation", type=float, nargs=2, default=(0.6, 1.4))
    p.add_argument("--seed", type=int, default=0)
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
