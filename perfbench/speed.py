"""A speed probe: short fixed work sampled every half second while the
benchmark measures, so that each call can be read at a nominal CPU speed.

On a shared host the whole CPU runs faster or slower, by up to a half,
as other tenants come and go, in phases of a fraction of a second to
minutes. A phase moves the wall-clock rate of every call made in it, so
runs of the same code on different seeds spread wider than a regression
worth catching. The probe does the same fixed work every time, so its
seconds move with the phase and not with the program. Sampled from a timer
signal, it reads the machine's speed all through a call, not just between
calls: a call's work in nominal seconds is its wall seconds times the mean
of (nominal / probe seconds) over the samples taken during it.

The probe does the two kinds of work the workloads are bound by: the
interpreter, as the autograd engine at the gradient check's shapes, and
float32 im2col and GEMM at the tripod's conv shapes. Its nominal seconds
are about what it takes on a 2-core Xeon virtual machine (numpy 2.4.6,
OpenBLAS 0.3.31, one BLAS thread), so there a slowdown reads near 1.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.5
NOMINAL_S = 0.008  # the probe's seconds at nominal speed


def loop_work(rounds=45000):
    """Integer arithmetic in an interpreted loop: the interpreter's share of
    the autograd engine's time."""
    total = 0
    for i in range(rounds):
        total += i * i % 7
    return total


def _unfold(x, k):
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return np.ascontiguousarray(cols.transpose(0, 2, 3, 1, 4, 5)).reshape(b * h * w, c * k * k)


class ConvWork:
    """3x3 convolutions by im2col and GEMM, with a relu, at the resnet20
    pod's three stage shapes."""

    SHAPES = ((16, 32), (32, 16), (64, 8))  # (channels, width)

    def __init__(self, batch=1):
        rng = np.random.default_rng(0)
        self.inputs = [rng.standard_normal((batch, c, w, w), dtype=np.float32)
                       for c, w in self.SHAPES]
        self.weights = [rng.standard_normal((c, c * 9), dtype=np.float32)
                        for c, _ in self.SHAPES]

    def __call__(self, rounds=1):
        total = 0.0
        for _ in range(rounds):
            for x, w in zip(self.inputs, self.weights):
                out = np.maximum(np.dot(_unfold(x, 3), w.T), 0)
                total += float(out[0, 0])
        return total


class Sampler:
    """While entered, runs the probe every ``interval`` seconds from a
    SIGALRM handler and appends its slowdown (seconds over NOMINAL_S) to
    ``readings``. ``clock()`` is ``wall()`` minus the seconds spent in the
    probe, so intervals timed with it leave the probe out."""

    def __init__(self, interval=INTERVAL_S, wall=time.perf_counter):
        self.interval = interval
        self.wall = wall
        self.spent = 0.0
        self.readings = []
        self.conv = ConvWork()
        self.conv()  # first-touch costs stay out of the readings

    def clock(self):
        while True:  # retry if a probe ran between the two reads
            spent = self.spent
            now = self.wall()
            if spent == self.spent:
                return now - spent

    def probe(self):
        t = self.wall()
        loop_work()
        self.conv()
        secs = self.wall() - t
        self.spent += secs
        self.readings.append(secs / NOMINAL_S)

    def _on_alarm(self, signum, frame):
        self.probe()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
