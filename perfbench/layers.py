"""Which multipod callables the tracer wraps, and the per-layer metrics
derived from their spans.

Layers are named after the package modules: ``tensor``, ``models``, ``data``,
``training`` and ``gradcheck``. Times and call counts are per workload call
(one ``train()`` epoch, one evaluation pass or one ``gradient_check``), so a
run that fits more calls into its seconds reads the same.
"""

from __future__ import annotations

import math
from collections import Counter

from tracer import aggregate

# Every engine op is traced so that ``tensor.op_calls`` counts them all; the
# reported ones are those the tripod and its gradient check spend time in.
TRACED_OPS = ("conv2d", "batch_norm2d", "relu", "add", "sub", "mul", "linear",
              "global_avg_pool", "max_pool2d", "concat_linear",
              "elementwise_scale_combine", "softmax_cross_entropy")
REPORTED_OPS = ("conv2d", "batch_norm2d", "relu", "add", "global_avg_pool",
                "concat_linear", "softmax_cross_entropy")

# (module, attribute path, span name)
TRACED_CALLS = (
    ("tensor", "Tensor.backward", "tensor.backward"),
    ("models", "MultiPodModel.forward", "models.forward"),
    ("models", "MultiPodModel.head", "models.head"),
    ("models", "PodForward.run_from", "models.run_from"),
    # train() looks make_pod_inputs up in its own module
    ("training", "make_pod_inputs", "data.make_pod_inputs"),
    ("training", "sgd_step", "training.sgd_step"),
    ("training", "save_checkpoint", "training.save_checkpoint"),
    ("training", "load_checkpoint", "training.load_checkpoint"),
    ("training", "evaluate_center_crop", "training.evaluate_center_crop"),
    ("training", "evaluate_ten_crop", "training.evaluate_ten_crop"),
    ("gradcheck", "gradient_check", "gradcheck.gradient_check"),
)

# Conv shapes with a GF/s figure, keyed by (in channels, out channels,
# kernel, input width, output width). The first six are the resnet20 pod at
# 32x32; the last four are the same pod on 28x28 ten-crop views.
CONV_SHAPES = {
    (3, 16, 3, 32, 32): "stem_32",
    (16, 16, 3, 32, 32): "c16_32",
    (32, 32, 3, 16, 16): "c32_16",
    (64, 64, 3, 8, 8): "c64_8",
    (16, 32, 1, 32, 16): "proj16to32_32",
    (32, 64, 1, 16, 8): "proj32to64_16",
    (3, 16, 3, 28, 28): "stem_28",
    (16, 16, 3, 28, 28): "c16_28",
    (32, 32, 3, 14, 14): "c32_14",
    (64, 64, 3, 7, 7): "c64_7",
}
BWD_SHAPES = ("stem_32", "c16_32", "c32_16", "c64_8", "proj16to32_32", "proj32to64_16")


def conv_flops(w_shape, out_shape):
    """Computed forward FLOPs of a convolution: two per multiply-add, one
    multiply-add per output element and weight tap of its input channels.
    Leading axes (batch, or pods and batch) are all in ``out_shape``."""
    return 2 * math.prod(out_shape) * math.prod(w_shape[-3:])


def _array(t):
    return getattr(t, "data", t)


def describe_conv(args, kwargs, out):
    """Span attributes for one conv2d call: (label, computed FLOPs, MB of
    its unfolded-input temporary) forward, and the same for its backward,
    which runs one GEMM per input that needs a gradient."""
    x, w = args[0], args[1]
    xs, ws, os_ = _array(x).shape, _array(w).shape, _array(out).shape
    label = CONV_SHAPES.get((ws[-3], ws[-4], ws[-1], xs[-1], os_[-1]))
    flops = conv_flops(ws, os_)
    # one im2col row per output position and image, one column per weight tap
    col_mb = flops / (2 * ws[-4]) * _array(out).itemsize / 2**20
    grads = bool(getattr(w, "requires_grad", False)) + bool(getattr(x, "requires_grad", False))
    return [label, flops, col_mb], [label, flops * grads, col_mb]


def install(tracer, modules):
    """Wrap every traced callable of the package; ``modules`` has the
    package modules as attributes. Whatever a module no longer has is
    recorded in ``tracer.absent``."""
    for op in TRACED_OPS:
        tracer.wrap_op(modules.tensor, op, describe_conv if op == "conv2d" else None)
    for module, path, name in TRACED_CALLS:
        owner = getattr(modules, module)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p, None)
        if owner is None:
            tracer.absent.append(name)
        else:
            tracer.wrap_call(owner, attr, name)


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for op in REPORTED_OPS:
        out += [(f"tensor.{op}.fwd_s", "s"), (f"tensor.{op}.bwd_s", "s"),
                (f"tensor.{op}.calls", "count")]
    out += [(f"tensor.conv2d.fwd_gflops.{label}", "GFLOP/s") for label in CONV_SHAPES.values()]
    out += [(f"tensor.conv2d.bwd_gflops.{label}", "GFLOP/s") for label in BWD_SHAPES]
    out += [("tensor.conv2d.share", "ratio"), ("tensor.conv2d.col_mb_max", "MB"),
            ("tensor.op_calls", "count"), ("tensor.backward.self_s", "s"),
            ("tensor.backward.calls", "count"),
            ("models.forward_s", "s"), ("models.head_s", "s"), ("models.run_from_s", "s"),
            ("models.run_from_calls", "count"),
            ("gradcheck.analytic_s", "s"), ("gradcheck.fd_eval_ms", "ms"),
            ("gradcheck.fd_evals", "count"),
            ("data.make_pod_inputs_s", "s"),
            ("training.sgd_step_s", "s"), ("training.save_checkpoint_s", "s"),
            ("training.load_checkpoint_s", "s"), ("training.evaluate_center_crop_s", "s"),
            ("training.evaluate_ten_crop_s", "s"),
            ("trace.overhead_frac", "ratio"), ("trace.spans", "count"),
            ("wall.items_per_s", "items/s"),
            ("machine.probe_slowdown", "ratio"), ("machine.sgemm_gflops", "GFLOP/s")]
    return out


def _gradcheck_split(spans):
    """Seconds before the analytic backward ends, seconds after it, and the
    number of perturbed-loss evaluations (head calls made by the checker
    itself), summed over gradient_check spans."""
    starts = {s[0]: (s[3], s[4]) for s in spans if s[2] == "gradcheck.gradient_check"}
    analytic_end = {}
    evals = Counter()
    for _, parent, name, _, end, _, _ in spans:  # spans are in end order
        if parent in starts:
            if name == "tensor.backward" and parent not in analytic_end:
                analytic_end[parent] = end
            elif name == "models.head":
                evals[parent] += 1
    analytic = sum(analytic_end[g] - starts[g][0] for g in analytic_end)
    fd = sum(starts[g][1] - analytic_end[g] for g in analytic_end)
    return analytic, fd, sum(evals.values())


def per_layer_metrics(spans, calls, call_seconds, overhead=0.0, sgemm_gflops=0.0,
                      wall_items_per_s=0.0, probe_slowdown=0.0):
    """name -> (value, unit). ``spans`` come from ``calls`` traced workload
    calls lasting ``call_seconds`` in all, and the set-up before each.
    ``wall_items_per_s`` is the untraced wall-clock rate and
    ``probe_slowdown`` the speed probe's median reading.
    ``training.load_checkpoint_s`` is per load: tripod-eval loads its
    checkpoint at set-up."""
    agg = {}
    for name, (n, incl, self_s) in aggregate(spans).items():
        agg[name] = (n / calls, incl / calls, self_s / calls)
    zero = (0, 0.0, 0.0)

    def row(name):
        return agg.get(name, zero)

    values = {}
    for op in REPORTED_OPS:
        fwd, bwd = row(f"tensor.{op}.fwd"), row(f"tensor.{op}.bwd")
        values[f"tensor.{op}.fwd_s"] = fwd[2]
        values[f"tensor.{op}.bwd_s"] = bwd[2]
        values[f"tensor.{op}.calls"] = fwd[0]

    flops, secs, col_mb = Counter(), Counter(), 0.0
    for _, _, name, _, _, self_s, attrs in spans:
        if name in ("tensor.conv2d.fwd", "tensor.conv2d.bwd"):
            label, f, mb = attrs
            col_mb = max(col_mb, mb)
            if label is not None:
                key = (name[-3:], label)
                flops[key] += f
                secs[key] += self_s
    for direction, labels in (("fwd", CONV_SHAPES.values()), ("bwd", BWD_SHAPES)):
        for label in labels:
            key = (direction, label)
            values[f"tensor.conv2d.{direction}_gflops.{label}"] = (
                flops[key] / secs[key] / 1e9 if secs[key] > 0 else 0.0)
    conv_self = row("tensor.conv2d.fwd")[2] + row("tensor.conv2d.bwd")[2]
    values["tensor.conv2d.share"] = conv_self * calls / call_seconds if call_seconds > 0 else 0.0
    values["tensor.conv2d.col_mb_max"] = col_mb
    values["tensor.op_calls"] = sum(row(f"tensor.{op}.fwd")[0] for op in TRACED_OPS)
    values["tensor.backward.self_s"] = row("tensor.backward")[2]
    values["tensor.backward.calls"] = row("tensor.backward")[0]
    values["models.forward_s"] = row("models.forward")[1]
    values["models.head_s"] = row("models.head")[1]
    values["models.run_from_s"] = row("models.run_from")[1]
    values["models.run_from_calls"] = row("models.run_from")[0]

    analytic, fd, evals = _gradcheck_split(spans)
    values["gradcheck.analytic_s"] = analytic / calls
    values["gradcheck.fd_eval_ms"] = 1e3 * fd / evals if evals else 0.0
    values["gradcheck.fd_evals"] = evals / calls

    values["data.make_pod_inputs_s"] = row("data.make_pod_inputs")[1]
    for fn in ("sgd_step", "save_checkpoint", "evaluate_center_crop", "evaluate_ten_crop"):
        values[f"training.{fn}_s"] = row(f"training.{fn}")[1]
    loads = agg.get("training.load_checkpoint")
    values["training.load_checkpoint_s"] = loads[1] / loads[0] if loads else 0.0
    values["trace.overhead_frac"] = overhead
    values["trace.spans"] = len(spans) / calls
    values["wall.items_per_s"] = wall_items_per_s
    values["machine.probe_slowdown"] = probe_slowdown
    values["machine.sgemm_gflops"] = sgemm_gflops
    return {name: (float(values[name]), unit) for name, unit in metric_names()}


def table(metrics, absent):
    """The per-layer table as text lines; absent layers and figures from
    computed FLOPs or sizes are marked."""
    absent = set(absent)
    lines = [f"{'per-layer metric (per workload call)':<44} {'value':>14}  unit"]
    for name, (value, unit) in metrics.items():
        if any(name == a or name.startswith((a + ".", a + "_")) for a in absent):
            note = "  absent"
        elif name.startswith(("tensor.conv2d.fwd_gflops", "tensor.conv2d.bwd_gflops",
                              "tensor.conv2d.col_mb")):
            note = "  computed"
        else:
            note = ""
        lines.append(f"{name:<44} {value:>14.6g}  {unit}{note}")
    return lines
