"""Pod base networks and their multi-pod fusion assemblies.

A "pod" is a ResNet-style feature extractor (everything up to and including
global average pooling). A multi-pod model runs k pods in parallel on k
input tensors and fuses the k B x L feature vectors, either by
concatenation into a single dense classifier (approach 1) or through
per-pod learnable scale vectors combined elementwise into a shared dense
classifier (approach 2).

Building a model draws no parameter value. ``init_params`` attaches to each
parameter the rule that makes its initial array, and the first read of the
parameter's ``data`` runs it; assigning ``data`` first (restoring a
checkpoint) means it never runs. Each parameter draws from a stream of its
own, so its values are the same bits whenever, and in whatever order, the
parameters are first read. The store records every shape, so counting
parameters or checking a checkpoint against the model draws nothing either.
"""

from __future__ import annotations

import contextlib
import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checks import ANY, INTEGER, INTEGERS, REQUIRED, Kind, Spec, nested, one_of, rule

CIFAR_FAMILY = "resnet-cifar"
IMAGENET_FAMILY = "resnet-imagenet"
FAMILIES = (CIFAR_FAMILY, IMAGENET_FAMILY)

APPROACH1 = "approach1-concat"
APPROACH2 = "approach2-scale-elementwise"
FUSIONS = (APPROACH1, APPROACH2)
COMBINE_MODES = ("sum", "product")

# upper bounds that refuse an absurd spec before anything is built from it
MAX_PODS = 64
MAX_BLOCKS = 1000  # n, blocks per stage
MAX_CLASSES = 100_000

_STAGE_WIDTHS = {CIFAR_FAMILY: (16, 32, 64), IMAGENET_FAMILY: (64, 128, 256, 512)}


@dataclass(frozen=True)
class PodBaseSpec(Spec):
    """One pod's architecture. ``n`` is blocks per stage (cifar depth = 6n + 2)."""

    family: str = REQUIRED
    n: int = REQUIRED

    FIELDS = (
        ("family", ANY, one_of(FAMILIES)),
        ("n", INTEGER, rule(lambda n: n >= 1, "must be an int >= 1", MAX_BLOCKS)),
    )

    @property
    def stage_widths(self):
        return _STAGE_WIDTHS[self.family]

    @property
    def feature_dim(self):
        return self.stage_widths[-1]


def resnet_cifar(n=3):
    """32x32-input family; n=3 is the 20-layer network with 64-dim features."""
    return PodBaseSpec(CIFAR_FAMILY, n)


def resnet_imagenet(n=2):
    """224x224-input family; n=2 is the 18-layer network with 512-dim features."""
    return PodBaseSpec(IMAGENET_FAMILY, n)


@dataclass(frozen=True)
class MultiPodSpec(Spec):
    pods: int = REQUIRED
    base: PodBaseSpec = REQUIRED
    fusion: str = APPROACH1
    combine_mode: str = "sum"
    classes: int = 10
    seeds: tuple = None  # None: range(pods), built once pods holds its bounds

    FIELDS = (
        ("base", nested(PodBaseSpec, inline=True), None),  # family and n, in this section
        ("pods", INTEGER, rule(lambda pods: pods >= 1, "must be an int >= 1", MAX_PODS)),
        ("fusion", ANY, one_of(FUSIONS)),
        ("combine_mode", ANY, one_of(COMBINE_MODES)),
        ("classes", INTEGER, rule(lambda classes: classes >= 2, "must be >= 2", MAX_CLASSES)),
        ("seeds", Kind(lambda seeds: seeds is None or INTEGERS.test(seeds), lambda seeds, v:
                       INTEGERS.convert(range(v["pods"] or 0) if seeds is None else seeds, v),
                       INTEGERS.refusal),
         lambda seeds, v: v["pods"] and not len(set(seeds)) == len(seeds) == v["pods"] and
         f"must be pairwise distinct, one per pod, got {seeds!r}"),
    )


class Param(T.Tensor):
    """A trainable tensor whose ``data`` slot stays empty until it is first
    read or assigned. The first read fills it with ``draw()``; an assignment
    before that means ``draw`` never runs."""

    __slots__ = ("draw",)

    def __init__(self, draw):
        self.draw = draw
        self.requires_grad = True
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = ""
        self._lent = False

    def __getattr__(self, name):
        # reached only for an empty slot: ``data`` before its first read or assignment
        if name != "data":
            raise AttributeError(name)
        self.data = self.draw()
        return self.data


class ParamStore:
    """Ordered collection of named parameters, BN buffers, and momentum state."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._params = {}
        self._shapes = {}
        self._buffers = {}
        self.momentum = {}

    def add_param(self, name, shape):
        """A new parameter of ``shape``, zeros until ``init_params`` gives it a rule."""
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        shape, dtype = tuple(shape), self.dtype  # the rule holds no reference to the store
        t = Param(lambda: np.zeros(shape, dtype=dtype))
        self._params[name] = t
        self._shapes[name] = shape
        return t

    def add_buffers(self, name, channels):
        if name in self._buffers:
            raise ValueError(f"duplicate buffer {name!r}")
        b = T.BNBuffers(channels, dtype=self.dtype)
        self._buffers[name] = b
        return b

    def param(self, name):
        return self._params[name]

    def items(self):
        return self._params.items()

    def buffers(self):
        return self._buffers.items()

    def shapes(self):
        """Each parameter's name and shape, in store order; reading them draws nothing."""
        return self._shapes.items()

    def total_params(self):
        return sum(math.prod(shape) for shape in self._shapes.values())

    def zero_grads(self):
        for t in self._params.values():
            t.grad = None

    def param_values(self):
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_param_values(self, values):
        missing = set(self._params) - set(values)
        if missing:
            raise ValueError(f"missing parameter values: {sorted(missing)[:3]}...")
        for name, t in self._params.items():
            arr = np.asarray(values[name], dtype=self.dtype)
            if arr.shape != self._shapes[name]:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} != {self._shapes[name]}")
            t.data = arr.copy()

    def buffer_state(self):
        out = {}
        for name, b in self._buffers.items():
            out[name] = (b.mean.copy(), b.var.copy(), b.initialized)
        return out

    def load_buffer_state(self, state):
        for name, b in self._buffers.items():
            mean, var, initialized = state[name]
            b.mean = np.asarray(mean, dtype=self.dtype).copy()
            b.var = np.asarray(var, dtype=self.dtype).copy()
            b.initialized = bool(initialized)


def _param_stream(seed, local_name):
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(local_name.encode())]))


def _initializer(name, local, shape, seed, dtype):
    """The rule that makes parameter ``name``'s initial array, by its leaf name."""
    leaf = local.rsplit(".", 1)[-1]
    if leaf == "weight":
        std = np.sqrt(2.0 / math.prod(shape[1:]))
        return lambda: _param_stream(seed, local).normal(0.0, std, size=shape).astype(dtype)
    if leaf == "gamma" or leaf.startswith("scale"):
        return lambda: np.ones(shape, dtype=dtype)
    if leaf in ("beta", "bias"):
        return lambda: np.zeros(shape, dtype=dtype)
    raise ValueError(f"no initialization rule for parameter {name!r}")


def init_params(store, seed, prefix=""):
    """Give each parameter under ``prefix`` its initialization rule, to run
    when its ``data`` is next read; values it held are dropped.

    Each parameter gets its own stream derived from (seed, its name relative
    to the prefix), so two pods built from different seeds share no stream.
    Conv/dense weights are Kaiming-normal (fan-in, relu gain), BN gamma and
    scale vectors are ones, biases and BN beta are zeros. A parameter with
    none of these names raises ValueError here, before any value is drawn.
    """
    for name, shape in store.shapes():
        if name.startswith(prefix):
            t = store.param(name)
            t.draw = _initializer(name, name[len(prefix):], shape, seed, store.dtype)
            with contextlib.suppress(AttributeError):  # the slot is empty until read
                del t.data


def _conv(store, name, in_ch, out_ch, kernel, stride, padding):
    weight = store.add_param(f"{name}.weight", (out_ch, in_ch, kernel, kernel))
    def fwd(x, training):
        return T.conv2d(x, weight, stride=stride, padding=padding)
    return fwd


def _lend(t):
    # t's one consumer, a relu or a residual add, may write its result into
    # t's buffer: no backward reads t (see ``tensor``'s buffer hand-over)
    t._lent = True
    return t


def _bn(store, name, channels):
    gamma = store.add_param(f"{name}.gamma", (channels,))
    beta = store.add_param(f"{name}.beta", (channels,))
    buffers = store.add_buffers(f"{name}.running", channels)
    def fwd(x, training):
        return _lend(T.batch_norm2d(x, gamma, beta, buffers, training))
    return fwd


def _basic_block(store, prefix, in_ch, out_ch, stride):
    conv1 = _conv(store, f"{prefix}.conv1", in_ch, out_ch, 3, stride, 1)
    bn1 = _bn(store, f"{prefix}.bn1", out_ch)
    conv2 = _conv(store, f"{prefix}.conv2", out_ch, out_ch, 3, 1, 1)
    bn2 = _bn(store, f"{prefix}.bn2", out_ch)
    if stride != 1 or in_ch != out_ch:
        down_conv = _conv(store, f"{prefix}.down.conv", in_ch, out_ch, 1, stride, 0)
        down_bn = _bn(store, f"{prefix}.down.bn", out_ch)
        shortcut = lambda x, tr: down_bn(down_conv(x, tr), tr)
    else:
        shortcut = lambda x, tr: x
    def fwd(x, training):
        out = T.relu(bn1(conv1(x, training), training))
        out = bn2(conv2(out, training), training)
        return T.relu(_lend(out + shortcut(x, training)))
    return fwd


def _chain(fns):
    def fwd(x, training):
        for fn in fns:
            x = fn(x, training)
        return x
    return fwd


class PodForward:
    """Composable forward of one pod base, kept as named segments.

    Segment granularity lets a gradient check recompute only the suffix of
    the pod that a perturbed parameter can influence.
    """

    def __init__(self, segments):
        self.segments = segments

    def __call__(self, x, training=False):
        return self.run_from(0, x, training)

    def run_from(self, index, x, training=False):
        for _, fn in self.segments[index:]:
            x = fn(x, training)
        return x

    def segment_of(self, local_name):
        for i, (name, _) in enumerate(self.segments):
            if local_name.startswith(name + "."):
                return i
        return 0


def _build_base_into(store, prefix, spec):
    widths = spec.stage_widths
    segments = []
    if spec.family == CIFAR_FAMILY:
        stem_conv = _conv(store, f"{prefix}stem.conv", 3, widths[0], 3, 1, 1)
        stem_bn = _bn(store, f"{prefix}stem.bn", widths[0])
        segments.append(("stem", _chain([stem_conv, stem_bn, lambda x, tr: T.relu(x)])))
    else:
        stem_conv = _conv(store, f"{prefix}stem.conv", 3, widths[0], 7, 2, 3)
        stem_bn = _bn(store, f"{prefix}stem.bn", widths[0])
        pool = lambda x, tr: T.max_pool2d(x, 3, 2, 1)
        segments.append(("stem", _chain([stem_conv, stem_bn, lambda x, tr: T.relu(x), pool])))

    in_ch = widths[0]
    for si, width in enumerate(widths, start=1):
        blocks = []
        for bi in range(spec.n):
            stride = 2 if (si > 1 and bi == 0) else 1
            blocks.append(_basic_block(store, f"{prefix}stage{si}.block{bi}", in_ch, width, stride))
            in_ch = width
        segments.append((f"stage{si}", _chain(blocks)))
    segments.append(("pool", lambda x, tr: T.global_avg_pool(x)))
    return PodForward(segments)


def build_pod_base(spec, seed, dtype=np.float32):
    """Build one pod base, its parameters initialized as ``build_multipod``'s;
    returns (forward, its ParamStore)."""
    store = ParamStore(dtype)
    forward = _build_base_into(store, "", spec)
    init_params(store, seed)
    return forward, store


def _head_seed(seeds):
    return zlib.crc32(repr(tuple(seeds)).encode())


class MultiPodModel:
    """k parallel pods plus a fusion head over their features."""

    def __init__(self, spec, store, pods):
        self.spec = spec
        self.store = store
        self.pods = pods

    def pod_features(self, inputs, training=False):
        if len(inputs) != self.spec.pods:
            raise ValueError(f"model has {self.spec.pods} pods, got {len(inputs)} inputs")
        return [pod(x, training) for pod, x in zip(self.pods, inputs)]

    def head(self, features):
        store = self.store
        if self.spec.fusion == APPROACH1:
            return T.concat_linear(features, store.param("head.dense.weight"),
                                   store.param("head.dense.bias"))
        scales = [store.param(f"head.scale{i}") for i in range(self.spec.pods)]
        combined = T.elementwise_scale_combine(features, scales, self.spec.combine_mode)
        return T.linear(combined, store.param("head.dense.weight"), store.param("head.dense.bias"))

    def forward(self, inputs, training=False):
        return self.head(self.pod_features(inputs, training))


def build_multipod(spec, dtype=np.float32):
    """Assemble a multi-pod model from its spec; each parameter's initial
    values are drawn when its ``data`` is first read (see ``init_params``)."""
    store = ParamStore(dtype)
    pods = []
    for i in range(spec.pods):
        pods.append(_build_base_into(store, f"pod{i}.", spec.base))
        init_params(store, spec.seeds[i], prefix=f"pod{i}.")

    L = spec.base.feature_dim
    if spec.fusion == APPROACH1:
        store.add_param("head.dense.weight", (spec.classes, spec.pods * L))
    else:
        for i in range(spec.pods):
            store.add_param(f"head.scale{i}", (L,))
        store.add_param("head.dense.weight", (spec.classes, L))
    store.add_param("head.dense.bias", (spec.classes,))
    init_params(store, _head_seed(spec.seeds), prefix="head.")
    return MultiPodModel(spec, store, pods)


def count_base_params(spec):
    """Exact trainable-scalar count of one pod base, by architecture walk."""
    widths = spec.stage_widths
    stem_kernel = 3 if spec.family == CIFAR_FAMILY else 7
    total = 3 * widths[0] * stem_kernel * stem_kernel + 2 * widths[0]
    in_ch = widths[0]
    for si, width in enumerate(widths, start=1):
        for bi in range(spec.n):
            stride = 2 if (si > 1 and bi == 0) else 1
            total += in_ch * width * 9 + width * width * 9 + 4 * width
            if stride != 1 or in_ch != width:
                total += in_ch * width + 2 * width
            in_ch = width
    return total


def count_params(spec):
    """Exact trainable-scalar count of the assembled multi-pod model."""
    k, L, P = spec.pods, spec.base.feature_dim, spec.classes
    base = count_base_params(spec.base)
    if spec.fusion == APPROACH1:
        head = k * L * P + P
    else:
        head = k * L + L * P + P
    return k * base + head
