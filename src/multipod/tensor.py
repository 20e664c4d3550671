"""Dense tensors with reverse-mode automatic differentiation.

Every operation records its inputs and a backward closure on the output
tensor; ``Tensor.backward()`` walks the graph once in reverse topological
order. Only leaves keep ``.grad``: a non-leaf node's buffer is freed as
soon as its backward closure has run, so a second backward through the same
graph starts clean. Leaf gradients accumulate: calling backward twice
without clearing adds the two gradients (the optimizer is responsible for
clearing at step boundaries). Batch norm and relu keep no activation that
their backward can derive from arrays the graph already holds, and no
closure holds its own output tensor, so reference counting frees a graph as
soon as its root is dropped. There is no global tape, and ``no_grad`` holds
per thread, so independent graphs can be evaluated concurrently.

Gradient ownership: the ``g`` a backward closure receives is its node's own
buffer, which nothing else holds and which is freed once the closure
returns, so a closure may write into it. ``_accumulate(t, g, owned=True)``
adopts ``g`` as ``t.grad`` instead of copying it; a closure passes
``owned=True`` only for an array it owns, its own ``g`` or one it has just
computed, and hands each such array to at most one tensor. So every
``.grad`` stays private and writable, and the elementwise ops (relu, batch
norm, the residual add) run without a full-size copy per pass.

Buffer hand-over: a tensor whose ``_lent`` flag is set lends its buffer to
the op that reads it. ``relu(x)`` then writes its result into ``x.data``,
and ``add(a, b)`` writes into ``a.data`` when ``a`` is lent and ``b`` has
its shape and dtype; otherwise both allocate, as they do for any other
operand. The bits are those of the allocating op. A lent value must have
that one consumer, and no backward closure may read it: the models lend each
batch norm output (batch norm's backward recomputes x-hat from its input)
and each residual sum (add's backward reads no data). Relu's backward reads
its own output, which is then the shared buffer.

Leading axis: an operand may carry one extra leading axis of R independent
copies of the same computation (the finite-difference checker stacks R
perturbed copies of one parameter this way). Images are then R x B x C x H
x W, conv weights R x F x C x kH x kW, per-channel and dense parameters one
rank up. Each op has one forward formula, written over any leading axes,
so it computes every replica at once and gives, in value, what each
replica would give alone: batch norm takes per-replica batch statistics and
leaves its running buffers alone, and cross-entropy gives one loss per
replica. The backward closures of conv, batch norm, the heads and the loss
assume no leading axis, so ``_result`` refuses to record a graph through
one (``StateError``).

Threads: every op, backward closure and ``Tensor.backward`` runs on the
thread that calls it. Inside their passes, ``conv2d``, ``batch_norm2d`` and
relu's backward use every usable core: each pass splits the images into
contiguous ranges of whole chunks, one range per core, runs the first on
the calling thread and the others on a module-level pool of cores - 1
threads, and returns once every range has finished. A pass with fewer
than two chunks a range (four for relu's one cheap pass) stays on the
caller, and so do the replica axis and criterion 2's tiny float64 passes.
Each range writes its own slice of the output or gradient; a strided
conv's input gradient runs all its stride phases in one pass, each chunk
phase after phase. What a pass sums over images is summed per chunk
(conv's weight gradient) or per image (batch norm's per-channel sums), and
those partials are added on the calling thread in order, so the bits do
not depend on the number of cores. Batch norm's running buffers and every
``_accumulate`` stay on the caller. Pool work never calls back into an op
or into ``_in_ranges``: a range that handed ranges to the pool from a pool
thread could wait on work queued behind itself. On a 2-core VM (numpy
2.4.6, OpenBLAS 0.3.31, batch 128, float32) the input gradient of the 3x3
stride-2 16 -> 32 conv at 32x32 took 12 ms by stride phase against 29 ms as
one adjoint conv over the upsampled output gradient, and the weight
gradient of the 3x3 16 -> 16 conv 13.6 ms as col @ g^T against 20.7 ms as
g @ col^T (medians of 20 calls).
"""

from __future__ import annotations

import contextvars
import itertools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)
BN_MOMENTUM = 0.1  # the running statistics' update rate
BN_EPS = 1e-5  # added to the batch variance before its square root


class ShapeError(ValueError):
    """Operand shapes are incompatible with the operation."""


class StateError(RuntimeError):
    """Operation requires state that has not been initialized."""


def _as_dtype(dtype):
    dt = np.dtype(dtype)
    if dt not in FLOAT_DTYPES:
        raise ValueError(f"unsupported dtype {dt}; use float32 or float64")
    return dt


class Tensor:
    """N-dimensional dense array participating in a reverse-mode graph.

    ``data`` is a numpy array (float32 for training, float64 for gradient
    checking). ``grad`` is lazily allocated with the same shape on first
    backward accumulation; after ``backward`` only leaves still hold one.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op", "_lent")

    def __init__(self, data, requires_grad=False, dtype=None):
        if dtype is not None:
            arr = np.asarray(data, dtype=_as_dtype(dtype))
        else:
            arr = np.asarray(data)
            if arr.dtype not in FLOAT_DTYPES:
                arr = arr.astype(np.float32)
        if any(e < 1 for e in arr.shape):
            raise ShapeError(f"tensor extents must be >= 1, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = ""
        self._lent = False  # lends data to the op that reads it; see "Buffer hand-over"

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={self._op or 'leaf'})"

    def backward(self):
        """Populate ``.grad`` of every reachable tensor with d(self)/d(tensor).

        ``self`` must hold a single scalar. Leaf gradients accumulate into
        any existing ``.grad`` buffers rather than overwriting them. A
        non-leaf node's ``.grad`` is freed (set to None) once its closure
        has passed it on, so only leaves hold a gradient afterwards.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.data.shape}")
        order = _toposort(self)
        _accumulate(self, np.ones_like(self.data), owned=True)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # Arithmetic sugar used by models and tests.
    def __add__(self, other):
        return add(self, other)


def _toposort(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _accumulate(t, g, owned=False):
    # ``owned``: g is the calling closure's own array, which nothing else
    # holds or will write, so it is adopted rather than copied
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif owned and g.dtype == t.data.dtype:
        t.grad = g
    else:
        # a private copy: g may be a view of another node's buffer
        t.grad = np.empty_like(t.data)
        t.grad[...] = g


# Per thread (and per asyncio task): no_grad in one leaves graphs recorded
# in another untouched.
_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)


class no_grad:
    """Context manager that disables graph recording in the current context;
    forwards run data-only."""

    def __enter__(self):
        self._token = _GRAD_ENABLED.set(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.reset(self._token)
        return False


def _result(data, parents, backward, op, leading=False):
    # ``leading``: an operand carries a leading replica axis, which the op's
    # backward closure does not handle.
    out = Tensor(data)
    if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
        if leading:
            raise StateError(f"{op} with a replica axis is forward-only; run it under no_grad()")
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
        out._op = op
    return out


def _channels(v):
    # Per-channel (C,) or replicated (R, C) values, broadcast against (..., B, C, H, W).
    return v[..., None, :, None, None]


def _rows(v):
    # Per-feature (P,) or replicated (R, P) values, broadcast against (..., B, P).
    return v[..., None, :]


def _wrap(x, like):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _unbroadcast(g, shape):
    # Reduce a broadcast gradient back to the operand's shape.
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, e in enumerate(shape) if e == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    b = _wrap(b, a)
    def backward(g):
        ga, gb = _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)
        # g, or a sum of it, is handed over; when both operands would get g
        # itself, b takes a copy
        _accumulate(a, ga, owned=True)
        _accumulate(b, gb, owned=gb is not ga)
    x, y = a.data, b.data
    out = x if a._lent and x.shape == y.shape and x.dtype == y.dtype else None
    return _result(np.add(x, y, out=out), (a, b), backward, "add")


def sub(a, b):
    b = _wrap(b, a)
    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))
    return _result(a.data - b.data, (a, b), backward, "sub")


def mul(a, b):
    b = _wrap(b, a)
    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))
    return _result(a.data * b.data, (a, b), backward, "mul")


def relu(x):
    # fmax has the bits of np.where(x > 0, x, 0), NaN -> 0 and -0 -> +0
    # included, in one pass with no mask
    out = np.fmax(x.data, 0, out=x.data if x._lent else None)
    def backward(g):
        # out > 0 exactly where x > 0; the closure holds the output array,
        # not its tensor, so the node makes no reference cycle. g is masked
        # in place, over ranges of images, and handed over. The mask is one
        # cheap pass, so a range takes four chunks (2 MiB) or more: on a
        # 2-core VM a 2 MiB mask ran 0.86x on two threads, 4 MiB 1.15x and
        # 8 MiB 1.4x.
        g1, out1 = np.atleast_1d(g, out)
        def mask(lo, hi):
            g1[lo:hi] *= out1[lo:hi] > 0
        _in_ranges(len(g1), _chunk(g1), mask, least=4)
        _accumulate(x, g, owned=True)
    return _result(out, (x,), backward, "relu")


def linear(x, weight, bias):
    """Dense layer: ``x @ weight.T + bias`` for x of shape B x I, weight O x I."""
    if (x.data.ndim not in (2, 3) or weight.data.ndim not in (2, 3)
            or x.data.shape[-1] != weight.data.shape[-1]):
        raise ShapeError(
            f"linear expects (B,I) x (O,I), got {x.data.shape} and {weight.data.shape}")
    out = np.matmul(x.data, np.swapaxes(weight.data, -1, -2)) + _rows(bias.data)
    def backward(g):
        _accumulate(x, g @ weight.data)
        _accumulate(weight, g.T @ x.data)
        _accumulate(bias, g.sum(axis=0))
    leading = x.data.ndim == 3 or weight.data.ndim == 3 or bias.data.ndim == 2
    return _result(out, (x, weight, bias), backward, "linear", leading)


def _conv_extent(x_shape, w_shape, stride, padding):
    c, h, w = x_shape[-3:]
    c2, kh, kw = w_shape[-3:]
    if c != c2:
        raise ShapeError(f"input channels {c} != weight channels {c2}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}")
    return (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


# Conv unfolds its input a chunk of images at a time into buffers of about
# this many bytes, sized to a core's L2 cache, so each unfolded chunk is
# still in cache when its GEMM reads it.
_CONV_CHUNK_BYTES = 1 << 20

# Batch norm walks its arrays a chunk of images at a time, of about this
# many bytes, so that each of a chunk's passes finds it still in cache; relu's
# backward counts its ranges in the same chunks. On a 2-core VM batch norm
# ran fastest at 512 KiB, against 256 KiB and 1 MiB.
_CHUNK_BYTES = 1 << 19

# Conv, batch norm and relu's backward split their chunks into one
# contiguous range per usable core; the calling thread runs the first range
# and this pool the others. Threads are started on first use.
_CORES = len(os.sched_getaffinity(0))


def _start_pool():
    global _POOL
    _POOL = ThreadPoolExecutor(max(1, _CORES - 1), thread_name_prefix="multipod")


_start_pool()
# A forked child inherits the pool but none of its threads, and would wait
# on it forever: it starts a pool of its own.
os.register_at_fork(after_in_child=_start_pool)


def _in_ranges(b, n, work, least=2):
    # [work(lo, hi)] over contiguous ranges lo:hi of b images, each whole
    # n-image chunks but the last, one range per core but at least ``least``
    # chunks per range, so that a pass too small to gain stays on the caller:
    # on a 2-core VM a conv pass of two or three chunks ran 0.84-0.98x on two
    # threads, its hand-over costing more than it saved. Each range runs in
    # the caller's context, so np.errstate holds in it too. An exception is
    # raised only once every range has finished.
    chunks = -(-b // n)
    parts = min(_CORES, chunks // least)
    if parts <= 1:
        return [work(0, b)]
    bounds = [min(b, n * (i * chunks // parts)) for i in range(parts + 1)]
    futures = [_POOL.submit(contextvars.copy_context().run, work, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        first = work(bounds[0], bounds[1])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def _chunk(a):
    # the number of a's images (first-axis entries) in about _CHUNK_BYTES
    return max(1, _CHUNK_BYTES * len(a) // a.nbytes)


def _in_chunks(step, a):
    # step(slice(lo, hi)) over chunks lo:hi of a's images, in ranges as
    # ``_in_ranges`` splits them
    n = _chunk(a)
    _in_ranges(len(a), n, lambda lo, hi: [step(slice(i, min(i + n, hi)))
                                           for i in range(lo, hi, n)])


def _placed(count, offset, size):
    # (source, frame) slices along one axis: sample i sits at offset + i, and
    # samples outside [0, size) are dropped.
    lo = max(0, -offset)
    hi = max(lo, min(count, size - offset))
    return slice(lo, hi), slice(offset + lo, offset + hi)


def _each_chunk(x, unfolds):
    # [step(lo, hi, col)] over chunks lo:hi of the images of x (..., B, C, H,
    # W), in chunk order and, within a chunk, in the order of ``unfolds``,
    # each a (step, kH, kW, stride, outH, outW, (top, left)) whose col (...,
    # hi - lo, C*kH*kW, outH*outW) is images lo:hi unfolded. An unfold reads
    # a frame of the extent its taps read, with x's samples from (top, left)
    # on and zeros where it has none (padding, or a stride phase's margin);
    # a frame at (0, 0) that fits in x is x itself. A chunk's cols, over all
    # unfolds, take about _CONV_CHUNK_BYTES. Each range of chunks
    # (``_in_ranges``) reuses its own buffers: col is valid until step returns.
    x = np.ascontiguousarray(x)  # each chunk is a strided view of its buffer
    *lead, b, c, h, w = x.shape
    n = min(b, max(1, _CONV_CHUNK_BYTES // (math.prod(lead) * c * x.itemsize * sum(
        [kh * kw * out_h * out_w for _, kh, kw, _, out_h, out_w, _ in unfolds]))))

    def unfolder(kh, kw, stride, out_h, out_w, offsets):
        # one range's buffers for an unfold, and the function that fills them
        rows, cols = stride * (out_h - 1) + kh, stride * (out_w - 1) + kw
        src = x
        if any(offsets) or rows > h or cols > w:
            # the zeros are written once; each chunk overwrites the same samples
            src = np.zeros((*lead, n, c, rows, cols), x.dtype)
            (src_h, dst_h), (src_w, dst_w) = (_placed(h, offsets[0], rows),
                                              _placed(w, offsets[1], cols))
        col = np.empty((*lead, n, c, kh, kw, out_h, out_w), x.dtype)
        sh, sw = src.strides[-2:]

        def unfold(a, m):
            start = a * x.strides[-4]
            if src is not x:
                src[..., :m, :, dst_h, dst_w] = x[..., a:a + m, :, src_h, src_w]
                start = 0
            chunk = col[..., :m, :, :, :, :, :]
            # one copy of a view of images a:a + m whose last four axes step
            # through the taps and the output positions
            chunk[...] = np.ndarray(chunk.shape, x.dtype, src, start,
                                    src.strides + (stride * sh, stride * sw))
            return chunk.reshape(*lead, m, c * kh * kw, out_h * out_w)
        return unfold

    def run(lo, hi):
        steps = [(u[0], unfolder(*u[1:])) for u in unfolds]
        return [step(a, min(a + n, hi), unfold(a, min(n, hi - a)))
                for a in range(lo, hi, n) for step, unfold in steps]

    return [r for part in _in_ranges(b, n, run) for r in part]


def _phases(k, size, stride, padding):
    # (r, taps, count, extent, offset) per stride phase r of one axis of a
    # conv's input gradient: its samples r, r + s, ... (``extent`` of them)
    # are reached by the ``count`` taps ``taps`` of the kernel, and each is a
    # stride-1 correlation of the output gradient, framed from ``offset``
    # on, with those taps reversed.
    for r in range(min(stride, size)):
        taps = range((r + padding) % stride, k, stride)
        yield (r, slice(taps.start, None, stride), len(taps), len(range(r, size, stride)),
               len(taps) - 1 - (r + padding) // stride)


def _conv_input_grad(g, weight, x_shape, stride, padding):
    # d(loss)/d(input) of a 4-D conv, given the output gradient g, by stride
    # phase (Dumoulin & Visin 2016): dx[..., r::s, q::s] is a stride-1 conv
    # of g with the taps that reach it, w[:, :, a::s, b::s] for a = (r +
    # padding) mod s and b = (q + padding) mod s, flipped, in and out
    # channels swapped. So dx costs the forward's multiply-adds; a phase that
    # no tap reaches is zero. All phases of a chunk of images run in one
    # ``_each_chunk`` pass, so a dx is one split over the cores.
    b, c, h, w = x_shape
    kh, kw = weight.shape[-2:]
    phases = list(_phases(kh, h, stride, padding)), list(_phases(kw, w, stride, padding))
    # where some phase has no taps, dx starts as zeros: one contiguous pass,
    # against a strided one per empty phase
    empty = not all(count for axis in phases for _, _, count, _, _ in axis)
    dx = (np.zeros if empty else np.empty)(x_shape, g.dtype)
    unfolds = []
    for (r, rows, th, uh, top), (q, cols, tw, uw, left) in itertools.product(*phases):
        if th and tw:
            w_phase = weight[:, :, rows, cols][:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            step = _phase_step(w_phase.reshape(1, c, -1), dx[:, :, r::stride, q::stride])
            unfolds.append((step, th, tw, 1, uh, uw, (top, left)))
    if unfolds:
        _each_chunk(g, unfolds)
    return dx


def _phase_step(w_phase, target):
    # writes images lo:hi of one phase of dx from their unfolded output gradient
    b, c, uh, uw = target.shape
    if target.flags.c_contiguous:  # stride 1: the one phase is the whole of dx
        flat = target.reshape(b, c, uh * uw)
        return lambda lo, hi, col: np.matmul(w_phase, col, out=flat[lo:hi])

    def step(lo, hi, col):
        target[lo:hi] = np.matmul(w_phase, col).reshape(hi - lo, c, uh, uw)
    return step


def _count(name, value, least):
    # a kernel, stride or padding: an integer, not a bool, of at least ``least``
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    return count


def conv2d(x, weight, stride=1, padding=0):
    """2D cross-correlation of B x C x H x W input with F x C x kH x kW kernels.

    Bias-free; output spatial extent is floor((H + 2*padding - kH)/stride) + 1.
    """
    stride, padding = _count("stride", stride, 1), _count("padding", padding, 0)
    if x.data.ndim not in (4, 5) or weight.data.ndim not in (4, 5):
        raise ShapeError("conv2d expects 4D (or replicated 5D) input and weight")
    if x.data.ndim == weight.data.ndim == 5 and x.data.shape[0] != weight.data.shape[0]:
        raise ShapeError(f"input has {x.data.shape[0]} replicas, weight {weight.data.shape[0]}")
    leading = x.data.ndim == 5 or weight.data.ndim == 5
    kh, kw = weight.data.shape[-2:]
    out_h, out_w = _conv_extent(x.data.shape, weight.data.shape, stride, padding)
    framing = (kh, kw, stride, out_h, out_w, (padding, padding))
    w_mat = weight.data.reshape(weight.data.shape[:-3] + (-1,))
    if not leading:
        # OpenBLAS multiplies small untransposed operands with a small-matrix
        # kernel whose rounding differs from its packed kernel's. A transposed
        # weight keeps most shapes, the resnet ones among them, on the packed
        # kernel, whose bits are those of one whole-batch GEMM. (Replicas keep
        # the small-matrix kernel: their tiny GEMMs run faster there.)
        w_mat = np.ascontiguousarray(w_mat.T).T
    # one GEMM per image, and per replica, written straight into the NCHW
    # output (..., B, F, outH, outW)
    lead = x.data.shape[:-4] or weight.data.shape[:-4]  # (R,) or ()
    b, f = x.data.shape[-4], w_mat.shape[-2]
    out = np.empty((*lead, b, f, out_h * out_w), np.result_type(x.data, w_mat))
    w_mat = w_mat[..., None, :, :]
    _each_chunk(x.data, [(lambda lo, hi, col: np.matmul(w_mat, col, out=out[..., lo:hi, :, :]),
                          *framing)])

    def backward(g):
        if weight.requires_grad:
            # dW transposed, (C*kH*kW) x F, as col @ g^T per image: OpenBLAS
            # runs this tall form faster than g @ col^T at these shapes. Each
            # chunk sums its images; the partials are summed here in chunk order.
            g_t = g.reshape(g.shape[0], g.shape[1], -1).swapaxes(-1, -2)
            dw_t = sum(_each_chunk(
                x.data, [(lambda lo, hi, col: np.matmul(col, g_t[lo:hi]).sum(axis=0), *framing)]))
            _accumulate(weight, dw_t.T.reshape(weight.data.shape), owned=True)
        if x.requires_grad:
            _accumulate(x, _conv_input_grad(g, weight.data, x.data.shape, stride, padding),
                        owned=True)

    return _result(out.reshape(*lead, b, f, out_h, out_w), (x, weight), backward, "conv2d",
                   leading)


def max_pool2d(x, kernel, stride, padding=0):
    """Max pooling over (..., B, C, H, W); padded cells never win (padded with -inf)."""
    kernel, stride = _count("kernel", kernel, 1), _count("stride", stride, 1)
    padding = _count("padding", padding, 0)
    if padding >= kernel:  # a window could then lie wholly in the padding
        raise ValueError(f"padding must be < kernel {kernel}, got {padding}")
    h, w = x.data.shape[-2:]
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"pool kernel {kernel} too large for input {h}x{w} with padding {padding}")
    xp = np.pad(x.data, [(0, 0)] * (x.data.ndim - 2) + [(padding, padding)] * 2,
                constant_values=-np.inf)
    *lead, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, xp.shape[:-2] + (out_h, out_w, kernel, kernel),
        (*lead, stride * sh, stride * sw, sh, sw), writeable=False)
    flat = windows.reshape(windows.shape[:-2] + (kernel * kernel,))
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(g):
        ki, kj = np.divmod(arg, kernel)
        *cells, hi, wi = np.indices(arg.shape, sparse=True)
        dxp = np.zeros(x.data.shape[:-2] + (h + 2 * padding, w + 2 * padding), dtype=g.dtype)
        np.add.at(dxp, (*cells, hi * stride + ki, wi * stride + kj), g)
        _accumulate(x, dxp[..., padding:padding + h, padding:padding + w])

    return _result(np.ascontiguousarray(out), (x,), backward, "max_pool2d")


def global_avg_pool(x):
    """Spatial mean: B x C x H x W -> B x C (R x B x C x H x W -> R x B x C)."""
    h, w = x.data.shape[-2:]
    def backward(g):
        _accumulate(x, np.broadcast_to(g[..., None, None] / (h * w), x.data.shape))
    return _result(x.data.mean(axis=(-2, -1)), (x,), backward, "global_avg_pool")


def _canonical_reduce(stack, op):
    # Sum/product over the pod axis in sorted value order. Sorting makes the
    # reduction a function of the multiset of operands, so reordering the
    # pods (with their weights) reproduces the output bit for bit.
    ordered = np.sort(stack, axis=0)
    out = ordered[0].copy()
    for i in range(1, ordered.shape[0]):
        if op == "sum":
            out += ordered[i]
        else:
            out *= ordered[i]
    return out


def concat_linear(features, weight, bias):
    """Dense head over the concatenation of k feature blocks.

    Equivalent to ``linear`` of the concatenated features but accumulates
    the per-block partial products in canonical order, so permuting blocks
    together with the matching weight columns is bit-exact.
    """
    features = list(features)
    sizes = [f.data.shape[-1] for f in features]
    if weight.data.shape[-1] != sum(sizes):
        raise ShapeError(
            f"weight expects {weight.data.shape[-1]} input features, blocks sum to {sum(sizes)}")
    offsets = np.cumsum([0] + sizes)
    blocks = [np.ascontiguousarray(weight.data[..., lo:hi]) for lo, hi in zip(offsets, offsets[1:])]
    partials = np.stack(np.broadcast_arrays(*[
        np.matmul(f.data, np.swapaxes(blk, -1, -2)) for f, blk in zip(features, blocks)]))
    out = _canonical_reduce(partials, "sum") + _rows(bias.data)

    def backward(g):
        for f, blk in zip(features, blocks):
            _accumulate(f, g @ blk)
        if weight.requires_grad:
            _accumulate(weight, np.concatenate([g.T @ f.data for f in features], axis=1))
        _accumulate(bias, g.sum(axis=0))

    leading = (any(f.data.ndim == 3 for f in features) or weight.data.ndim == 3
               or bias.data.ndim == 2)
    return _result(out, features + [weight, bias], backward, "concat_linear", leading)


def elementwise_scale_combine(features, scales, mode="sum"):
    """Combine k B x L pod features as ``mode``-reduction of ``scale_i * f_i``.

    ``scales`` are k length-L per-channel multiplier vectors. ``mode`` is
    "sum" or "product". Reduction order is canonicalized as in
    ``concat_linear`` so pod order does not affect the bits.
    """
    if mode not in ("sum", "product"):
        raise ValueError(f"unknown combine mode {mode!r}")
    features = list(features)
    scales = list(scales)
    if len(features) != len(scales):
        raise ShapeError(f"{len(features)} features but {len(scales)} scales")
    length = features[0].data.shape[-1]
    for t in features[1:]:
        if t.data.shape[-1] != length:
            raise ShapeError(f"pod feature lengths differ: {length} vs {t.data.shape[-1]}")
    for s in scales:
        if s.data.shape[-1:] != (length,) or s.data.ndim > 2:
            raise ShapeError(f"scale shape {s.data.shape} != ({length},)")
    scaled = np.stack(np.broadcast_arrays(*[f.data * _rows(s.data)
                                            for f, s in zip(features, scales)]))
    out = _canonical_reduce(scaled, mode)

    def backward(g):
        if mode == "sum":
            dscaled = np.broadcast_to(g, scaled.shape)
        else:
            k = scaled.shape[0]
            prefix = np.ones_like(scaled)
            suffix = np.ones_like(scaled)
            for i in range(1, k):
                prefix[i] = prefix[i - 1] * scaled[i - 1]
                suffix[k - 1 - i] = suffix[k - i] * scaled[k - i]
            dscaled = g * prefix * suffix
        for i, (f, s) in enumerate(zip(features, scales)):
            _accumulate(f, dscaled[i] * s.data[None, :])
            _accumulate(s, (dscaled[i] * f.data).sum(axis=0))

    leading = any(f.data.ndim == 3 for f in features) or any(s.data.ndim == 2 for s in scales)
    return _result(out, features + scales, backward, "scale_combine", leading)


class BNBuffers:
    """Running mean/var state for one batch-norm layer.

    ``initialized`` flips on the first training-mode update; eval mode
    before that raises ``StateError``.
    """

    __slots__ = ("mean", "var", "initialized")

    def __init__(self, channels, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)
        self.initialized = False


def batch_norm2d(x, gamma, beta, buffers, training):
    """Per-channel batch normalization of a B x C x H x W tensor.

    Training mode normalizes with batch statistics over (B, H, W) and
    updates the running buffers in place as
    ``running <- (1 - BN_MOMENTUM) * running + BN_MOMENTUM * batch``
    (running variance uses the unbiased batch estimate). Eval mode normalizes with
    the running statistics. Output is ``gamma * normalized + beta``. With a
    leading replica axis (on x, gamma or beta) each replica takes its own
    batch statistics and the running buffers are left alone.
    """
    if x.data.ndim not in (4, 5):
        raise ShapeError(f"batch norm expects B x C x H x W input, got {x.data.shape}")
    b, c, h, w = x.data.shape[-4:]
    if gamma.data.shape[-1:] != (c,) or beta.data.shape[-1:] != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")
    leading = x.data.ndim == 5 or gamma.data.ndim == 2 or beta.data.ndim == 2
    n = b * h * w
    xs = x.data
    if training and n < 2:
        raise ValueError(f"training-mode batch norm needs B*H*W >= 2, got {n}")
    if not training and not buffers.initialized:
        raise StateError("eval-mode batch norm before any training update of running stats")

    # Each pass runs a step over chunks of the images (``_in_chunks``), or
    # over all of them (index ...) where they make one chunk or carry a
    # replica axis. Over chunks, each per-channel sum is taken per image,
    # into (..., B, C) partials, which the caller adds over the images in
    # image order: the bits of numpy's whole-array reduction, which one
    # chunk takes, since it sums each image's channel plane as one run and
    # adds the runs in image order. Each per-channel operand of a chunked
    # pass is spread over a whole C x H x W image, so that an elementwise
    # pass walks a chunk as one contiguous run, about twice as fast as with
    # a broadcast C x 1 x 1 view.
    add = np.add.reduce  # ndarray.sum without its Python wrapper
    if leading or b <= _chunk(xs):
        def run(step):
            step(...)
        axes, images, per_channel = (-4, -2, -1), (), _channels
    else:
        def run(step):
            _in_chunks(step, xs)

        def per_channel(v):
            image = np.empty((c, h, w), v.dtype)
            image[...] = v[:, None, None]
            return image
        axes, images = (-2, -1), (b,)

    def total(parts):
        return add(parts, axis=-2) if images else parts

    def statistic(parts):
        # divided as ndarray.mean and ndarray.var divide
        s = total(parts)
        np.true_divide(s, np.intp(n), out=s, casting="unsafe")
        return s

    if training:
        # per-channel sums of x, then of its centred squares
        parts = np.empty((2,) + xs.shape[:-4] + images + (c,), xs.dtype)
        run(lambda i: add(xs[i], axis=axes, out=parts[0, i]))
        mean = statistic(parts[0])
    else:
        mean = buffers.mean
        inv_c = per_channel(1.0 / np.sqrt(buffers.var + BN_EPS))
    mean_c, gamma_c, beta_c = per_channel(mean), per_channel(gamma.data), per_channel(beta.data)

    # gamma * ((x - mean) * inv_std) + beta in the centred buffer, or in a
    # new one where a replicated gamma or beta widens it
    centred = out = np.empty(xs.shape, np.result_type(xs, mean))
    if leading and xs.ndim == 4:
        out = np.empty(np.broadcast_shapes(xs.shape, gamma_c.shape, beta_c.shape), out.dtype)

    def scale(i):
        s, o = centred[i], out[i]
        s *= inv_c
        np.multiply(gamma_c, s, out=o)
        o += beta_c

    def centre(i):
        s = np.subtract(xs[i], mean_c, out=centred[i])
        if not training:
            return scale(i)
        # ndarray.var's own steps on the centred x, so its bits
        add(np.square(s), axis=axes, out=parts[1, i])

    run(centre)
    if training:
        var = statistic(parts[1])
        if not leading:
            buffers.mean = (1.0 - BN_MOMENTUM) * buffers.mean + BN_MOMENTUM * mean
            buffers.var = (1.0 - BN_MOMENTUM) * buffers.var + BN_MOMENTUM * (var * n / (n - 1))
            buffers.initialized = True
        inv_c = per_channel(1.0 / np.sqrt(var + BN_EPS))
        run(scale)

    def backward(g):
        # dx = (inv_std / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))
        # in this operation order, written into g; xhat is recomputed a
        # chunk at a time rather than held for the graph's lifetime
        through = training and x.requires_grad
        # per-channel sums of g * xhat and g, and through the batch
        # statistics of dxhat and dxhat * xhat
        parts = np.empty((4 if through else 2,) + images + (c,), g.dtype)

        def normalized(i):
            xhat = xs[i] - mean_c
            xhat *= inv_c
            return xhat

        def reduce(i):
            gs, xhat = g[i], normalized(i)
            prod = gs * xhat
            add(prod, axis=axes, out=parts[0, i])
            add(gs, axis=axes, out=parts[1, i])
            if not x.requires_grad:
                return
            gs *= gamma_c  # dxhat
            if not training:
                gs *= inv_c
                return
            add(gs, axis=axes, out=parts[2, i])
            add(np.multiply(gs, xhat, out=prod), axis=axes, out=parts[3, i])

        def through_statistics(i):
            gs = g[i]
            gs *= n
            gs -= s1_c
            xhat = normalized(i)
            xhat *= s2_c
            gs -= xhat
            gs *= scale_c

        run(reduce)
        dgamma, dbeta, *s = total(parts)
        _accumulate(gamma, dgamma)
        _accumulate(beta, dbeta)
        if through:
            s1_c, s2_c, scale_c = per_channel(s[0]), per_channel(s[1]), inv_c / n
            run(through_statistics)
        if x.requires_grad:
            _accumulate(x, g, owned=True)

    return _result(out, (x, gamma, beta), backward, "batch_norm2d", leading)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of B x P logits against integer labels, log-sum-exp stabilized.

    R x B x P logits (a replica axis) give the R per-replica losses.
    """
    if logits.data.ndim not in (2, 3):
        raise ShapeError(f"logits must be B x P, got {logits.data.shape}")
    labels = np.asarray(labels)
    b, p = logits.data.shape[-2:]
    if labels.shape != (b,):
        raise ValueError(f"labels must have length {b}, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= p:
        bad = int(np.argmax((labels < 0) | (labels >= p)))
        raise ValueError(f"label {labels[bad]} at index {bad} outside [0, {p})")

    log_probs = log_softmax(logits.data)
    loss = -log_probs[..., np.arange(b), labels].mean(axis=-1)

    def backward(g):
        d = np.exp(log_probs)
        d[np.arange(b), labels] -= 1.0
        _accumulate(logits, d * (g / b))

    return _result(np.asarray(loss, dtype=logits.dtype), (logits,), backward, "softmax_xent",
                   logits.data.ndim == 3)


def log_softmax(z):
    """Log-softmax of an array over its last axis, log-sum-exp stabilized."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
