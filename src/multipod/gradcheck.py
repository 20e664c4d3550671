"""Finite-difference verification of the backward pass.

Central differences in float64 over every parameter scalar. Cost is kept
tractable by exploiting structure: perturbing a parameter of pod i cannot
change other pods' features (cached once); within a pod, whose segments are
the stem, each basic block's two halves and the pool, a pass resumes at the
half-block that first reads the parameter, from that segment's cached input
(``PodForward.states``); and the perturbed copies of one tensor run
together: a chunk of +h and -h copies is stacked along the replica axis
(see ``tensor``), and one pass of the model's own segments and head through
the affected suffix gives one loss per copy. A copy of a conv weight is the
one filter it perturbs, with that filter's index (``tensor.FilterCopies``):
output channel f reads only filter f, so conv computes the weight's output
once a chunk and each copy's channel beside it.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import tensor as T

# Bytes one chunk of perturbed copies may hold: the parameter copies plus the
# suffix's activations. A conv weight's copy costs its filter, any other
# parameter's copy the whole tensor, and a pass holds each copy twice: stacked,
# and as its op's own operand (conv's weight matrix, the head's blocks of its
# dense weight). Large enough to spread each op's Python overhead over many
# copies, small enough to add only a few MB to a check.
CHUNK_BYTES = 4 << 20
# Activation arrays alive per copy, in units of the largest array among the
# suffix's segment states (the features, for a head tensor). On criterion
# 2's tripod at sample stride 11, tracemalloc puts a pod tensor's chunk at
# most 3.0 MiB above the check's entry, the cached states included (a stem
# conv weight's), and the head's dense weight's at 3.3 MiB.
ACTIVATION_COPIES = 12


@dataclass
class GradCheckReport:
    checked: int
    worst_rel: float
    worst_param: str
    failures: list

    @property
    def passed(self):
        return not self.failures


@contextmanager
def _preserved(store):
    """Put every parameter array and BN buffer back as it was on entry."""
    params = {name: t.data for name, t in store.items()}
    buffers = store.buffer_state()
    try:
        yield
    finally:
        for name, t in store.items():
            t.data = params[name]
        store.load_buffer_state(buffers)


def _largest(states):
    # bytes of the largest array among the states; a half-block's is a pair
    return max(t.data.nbytes for s in states for t in (s if isinstance(s, tuple) else (s,)))


def _check_step(h, sample_stride):
    # a stride is an integer, not a bool, as ``tensor._count`` takes a conv's
    try:
        stride = operator.index(sample_stride)
    except TypeError:
        stride = 0
    if not (0 < h < np.inf and stride >= 1) or isinstance(sample_stride, (bool, np.bool_)):
        raise ValueError(f"finite-difference step h must be > 0 and finite and sample_stride "
                         f">= 1, an integer, got h={h}, sample_stride={sample_stride}")


def finite_differences(model, inputs, labels, h=1e-5, sample_stride=1):
    """Yield ``(name, positions, quotients)`` per parameter tensor of ``model``.

    ``quotients[i]`` is (L(p + h) - L(p - h)) / 2h for the scalar at flat
    index ``positions[i]``, L being the training-mode loss; every
    ``sample_stride``-th scalar is covered. Parameters and BN buffers are
    left as they were on entry.
    """
    _check_step(h, sample_stride)
    store = model.store
    with _preserved(store):
        # Cache, per pod, the input of every segment and the features; FD
        # re-runs only the affected suffix.
        with T.no_grad():
            states = [pod.states(x, True) for pod, x in zip(model.pods, inputs)]
        feats = [s[-1] for s in states]

        def losses(pod_idx, seg_idx):
            with T.no_grad():
                cur = feats
                if pod_idx is not None:
                    f = model.pods[pod_idx].run_from(seg_idx, states[pod_idx][seg_idx], True)
                    cur = feats[:pod_idx] + [f] + feats[pod_idx + 1:]
                return T.softmax_cross_entropy(model.head(cur), labels).data

        for name, p in store.items():
            if name.startswith("pod"):
                pod_idx = int(name[3:name.index(".")])
                local = name[name.index(".") + 1:]
                seg_idx = model.pods[pod_idx].segment_of(local)
                acts = states[pod_idx][seg_idx:]
            else:
                pod_idx, seg_idx = None, 0
                acts = feats
            base = p.data
            # a copy is one filter of a conv weight, the whole of any other
            conv = base.ndim == 4
            units = base.reshape(len(base) if conv else 1, -1)
            positions = np.arange(0, base.size, sample_stride)
            per_copy = 2 * units[0].nbytes + ACTIVATION_COPIES * _largest(acts)
            chunk = max(1, CHUNK_BYTES // (2 * per_copy))
            fd = np.empty(len(positions))
            for lo in range(0, len(positions), chunk):
                js = positions[lo:lo + chunk]
                m = len(js)
                # copies 0..m-1 hold +h at a chunk's m positions, m..2m-1 -h
                which, at = np.divmod(np.tile(js, 2), units.shape[1])
                copies = units[which]
                copies[np.arange(2 * m), at] += np.repeat([h, -h], m)
                p.data = (T.FilterCopies(base, copies.reshape((2 * m,) + base.shape[1:]), which)
                          if conv else copies.reshape((2 * m,) + base.shape))
                out = losses(pod_idx, seg_idx)
                p.data = base
                fd[lo:lo + m] = (out[:m] - out[m:]) / (2.0 * h)
            yield name, positions, fd


def gradient_check(model, inputs, labels, h=1e-5, tol=1e-5, atol=1e-8, progress=None,
                   sample_stride=1):
    """Compare backward gradients against central differences for every
    parameter scalar of ``model``.

    A scalar passes when |fd - analytic| <= atol + tol * max(|fd|, |analytic|);
    the reported relative error is |fd - analytic| / (atol/tol + max magnitude)
    so that "error < tol" is exactly the pass condition. A non-finite
    quotient or gradient fails its scalar (error inf). ``sample_stride`` > 1
    checks only every Nth scalar per tensor (smoke-test mode); the default
    covers everything. A stride that is not an integer >= 1 (a bool is
    not), an ``h`` or ``tol`` that is not finite and > 0, or an ``atol``
    that is not finite and >= 0 raises ValueError before any forward runs.
    Parameters and BN buffers are left bit-identical to their state on
    entry.
    """
    store = model.store
    if store.dtype != np.float64:
        raise ValueError("gradient check requires a float64 model")
    _check_step(h, sample_stride)
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance tol must be > 0 and finite, got tol={tol}")
    if not 0 <= atol < np.inf:
        raise ValueError(f"absolute tolerance atol must be >= 0 and finite, got atol={atol}")

    floor = atol / tol
    worst_rel = 0.0
    worst_param = ""
    failures = []
    checked = 0
    with _preserved(store):
        store.zero_grads()
        loss = T.softmax_cross_entropy(model.forward(inputs, training=True), labels)
        loss.backward()
        analytic = {name: t.grad for name, t in store.items()}
        store.zero_grads()

        for name, positions, fd in finite_differences(model, inputs, labels, h, sample_stride):
            an = analytic[name].reshape(-1)[positions]
            rel = np.abs(fd - an) / np.maximum(floor + np.maximum(np.abs(fd), np.abs(an)), 1e-300)
            rel[~(np.isfinite(fd) & np.isfinite(an))] = np.inf
            high = float(rel.max())
            if high > worst_rel:
                worst_rel, worst_param = high, name
            if high >= tol:
                failures.append(name)
            checked += len(positions)
            if progress is not None:
                progress(name, len(positions), high)
    return GradCheckReport(checked, worst_rel, worst_param, failures)
