"""The benchmark's workloads, their set-up and their correctness checks.

Each workload is a closed loop with one caller: ``call()`` makes one timed
call into the package's public API and returns (seconds, items, result), and
the next call starts when it returns. Inputs derive from the workload seed
only. A workload times its own public call, so per-call preparation (a fresh
model, an empty output directory) stays out of the measured seconds.

Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import time

import numpy as np

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tripod.json")

# Float32 logits may differ from the float64 copy's by this share of the
# largest float64 logit (or of 1, when all logits are smaller).
LOGIT_RTOL = 1e-3
LOGIT_IMAGES = 4
TENCROP_IMAGES = 4
TENCROP_SIZE = 28
BN_INIT_IMAGES = 16

# The acceptance gate's full-model gradient check, sampled: criterion 2's
# model, inputs and tolerances, with every 397th scalar of each tensor.
GRAD_INPUT_SEED = 2701
GRAD_STRIDE = 397
GRAD_H, GRAD_TOL, GRAD_ATOL = 1e-5, 1e-5, 1e-8


class Tally:
    """Operations attempted and failed. A timed call whose output is wrong
    and a correctness check that does not hold are failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problem):
        """Count one operation; ``problem`` is None when it succeeded."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")
        return problem is None


def tripod_config(seed):
    """The benchmark's tripod run configuration with the workload seed as
    both the data-side seed and the synthetic-image seed."""
    with open(CONFIG) as f:
        doc = json.load(f)
    doc["seed"] = seed
    doc["data"]["seed"] = seed
    return doc


def same_results(results):
    if all(r == results[0] for r in results[1:]):
        return None
    return f"{len(results)} same-seed calls disagree"


def checkpoint_problem(got, want):
    """None if two checkpoints hold equal spec, parameters, momentum and
    BN buffers, else the first difference."""
    if got.spec != want.spec:
        return "spec differs"
    for field in ("params", "momentum"):
        a, b = getattr(got, field), getattr(want, field)
        if a.keys() != b.keys():
            return f"{field} names differ"
        for name in a:
            if not np.array_equal(a[name], b[name]):
                return f"{field} {name} differs"
    if got.buffers.keys() != want.buffers.keys():
        return "buffer names differ"
    for name, (mean, var, init) in got.buffers.items():
        w_mean, w_var, w_init = want.buffers[name]
        if not (np.array_equal(mean, w_mean) and np.array_equal(var, w_var) and init == w_init):
            return f"buffer {name} differs"
    return None


def logits_problem(mp, model, pixels, aug):
    """Compare eval-mode logits on ``pixels`` with those of a float64 copy
    of ``model``; None if they agree within LOGIT_RTOL."""
    twin = mp.models.build_multipod(model.spec, dtype=np.float64)
    mp.training.Checkpoint.from_model(model, 0, 0, 0.0).apply(twin)
    views = mp.data.make_pod_inputs(pixels, aug, model.spec.pods, train=False)
    T = mp.tensor
    with T.no_grad():
        got = model.forward([T.Tensor(v) for v in views], training=False).data
        want = twin.forward([T.Tensor(v, dtype=np.float64) for v in views], training=False).data
    if not np.all(np.isfinite(got)):
        return "non-finite logits"
    err = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
    return None if err <= LOGIT_RTOL else f"relative logit error {err:.3e} > {LOGIT_RTOL}"


class Workload:
    """One benchmark workload. ``mp`` has the package's modules as
    attributes; ``workdir`` is a scratch directory inside the checkout;
    ``clock`` times the public call."""

    items = ""
    setup_rounds = 1  # set-ups timed before each call; the last one is used

    def __init__(self, mp, seed, workdir, clock=time.perf_counter):
        self.mp = mp
        self.seed = seed
        self.workdir = workdir
        self.clock = clock

    def prepare(self):
        """Once, before set-up: make what a user would already have."""

    def setup(self):
        """Fresh state for the next call, as a user would set up a run."""
        raise NotImplementedError

    def call(self):
        """One timed operation -> (seconds, items, result)."""
        raise NotImplementedError

    def problem(self, result):
        """None if one call's result is sane, else what is wrong."""
        return None

    def checks(self, results):
        """(label, problem or None) pairs checked after the measurement."""
        return [("same-seed calls give identical results", same_results(results))]


class TripodTrain(Workload):
    """One epoch of ``train()`` on the published tripod: one step of 128
    augmented images, the center-crop eval and both checkpoint writes."""

    items = "train images"
    setup_rounds = 5  # set-up is cheap next to the call; more samples steady setup_s
    last = None  # (model, output directory) of the latest call

    def setup(self):
        mp = self.mp
        self.cfg = mp.config.parse_config(tripod_config(self.seed))
        self.train_batch, self.eval_batch = mp.config.load_data(self.cfg)
        self.model = mp.models.build_multipod(self.cfg.model)

    def call(self):
        model = self.model
        out_dir = tempfile.mkdtemp(dir=self.workdir)
        cfg = self.cfg
        t = self.clock()
        result = self.mp.training.train(model, self.train_batch, self.eval_batch,
                                        cfg.schedule, cfg.augmentation, out_dir=out_dir)
        seconds = self.clock() - t
        if self.last is not None:
            shutil.rmtree(self.last[1])
        self.last = (model, out_dir)
        return seconds, len(self.train_batch), [r.comparable() for r in result.records]

    def problem(self, records):
        if len(records) != 1:
            return f"{len(records)} epochs logged, expected 1"
        if not all(math.isfinite(records[0][k]) for k in ("train_loss", "eval_loss")):
            return f"non-finite loss in {records[0]}"
        return None

    def checks(self, results):
        out = super().checks(results)
        if self.last is None:  # every call failed, and counted so
            return out
        model, out_dir = self.last
        training = self.mp.training
        ckpt = training.load_checkpoint(os.path.join(out_dir, "last.ckpt"))
        want = training.Checkpoint.from_model(model, 1, self.seed, ckpt.best_top1)
        problem = checkpoint_problem(ckpt, want)
        if problem is None and (ckpt.epoch, ckpt.seed) != (1, self.seed):
            problem = f"epoch/seed {(ckpt.epoch, ckpt.seed)} != {(1, self.seed)}"
        out.append(("last.ckpt written by train() loads back equal", problem))
        pixels = self.eval_batch.pixels[:LOGIT_IMAGES]
        out.append(("logits match a float64 copy",
                    logits_problem(self.mp, model, pixels, self.cfg.augmentation)))
        return out


class TripodEval(Workload):
    """Restore the tripod from a checkpoint written at preparation, then
    evaluate with both protocols: center crop at 32 on the held-out images
    and ten crops at 28 on the first few of them."""

    items = "source image evaluations"

    def prepare(self):
        mp = self.mp
        cfg = mp.config.parse_config(tripod_config(self.seed))
        train_batch, _ = mp.config.load_data(cfg)
        model = mp.models.build_multipod(cfg.model)
        # one training-mode forward initializes the BN running buffers
        views = mp.data.make_pod_inputs(train_batch.pixels[:BN_INIT_IMAGES], cfg.augmentation,
                                        cfg.model.pods, train=False)
        with mp.tensor.no_grad():
            model.forward([mp.tensor.Tensor(v) for v in views], training=True)
        self.source = mp.training.Checkpoint.from_model(model, 1, self.seed, 0.0)
        self.path = os.path.join(self.workdir, "tripod.ckpt")
        mp.training.save_checkpoint(self.source, self.path)

    def setup(self):
        mp = self.mp
        self.cfg = mp.config.parse_config(tripod_config(self.seed))
        _, eval_batch = mp.config.load_data(self.cfg)
        model = mp.models.build_multipod(self.cfg.model)
        self.loaded = mp.training.load_checkpoint(self.path)
        self.loaded.apply(model)
        self.model = model
        self.batch = eval_batch
        self.tencrop_batch = eval_batch.subset(np.arange(TENCROP_IMAGES))

    def call(self):
        training, aug = self.mp.training, self.cfg.augmentation
        t = self.clock()
        center = training.evaluate_center_crop(self.model, self.batch, aug)
        ten = training.evaluate_ten_crop(self.model, self.tencrop_batch, aug,
                                         crop_size=TENCROP_SIZE)
        return self.clock() - t, len(self.batch) + len(self.tencrop_batch), (center, ten)

    def problem(self, results):
        losses = [r.loss for r in results]
        return None if all(map(math.isfinite, losses)) else f"non-finite loss in {losses}"

    def checks(self, results):
        out = super().checks(results)
        out.append(("checkpoint written at preparation loads back equal",
                    checkpoint_problem(self.loaded, self.source)))
        pixels = self.batch.pixels[:LOGIT_IMAGES]
        lo = (pixels.shape[-1] - TENCROP_SIZE) // 2
        crop = np.ascontiguousarray(pixels[..., lo:lo + TENCROP_SIZE, lo:lo + TENCROP_SIZE])
        for size, view in ((pixels.shape[-1], pixels), (TENCROP_SIZE, crop)):
            out.append((f"logits at {size}x{size} match a float64 copy",
                        logits_problem(self.mp, self.model, view, self.cfg.augmentation)))
        return out


class TripodGradcheck(Workload):
    """``gradient_check`` on criterion 2's resnet8 tripod in float64."""

    items = "checked scalars"

    def setup(self):
        mp = self.mp
        models, T = mp.models, mp.tensor
        spec = models.MultiPodSpec(pods=3, base=models.resnet_cifar(1),
                                   fusion=models.APPROACH1, classes=10)
        self.model = models.build_multipod(spec, dtype=np.float64)
        rng = np.random.default_rng(GRAD_INPUT_SEED)
        self.inputs = [T.Tensor(rng.normal(0.0, 1.0, (2, 3, 8, 8)), dtype=np.float64)
                       for _ in range(3)]
        self.labels = np.random.default_rng(self.seed).integers(0, 10, size=2)
        self.expected = sum(len(range(0, t.data.size, GRAD_STRIDE))
                            for _, t in self.model.store.items())

    def call(self):
        t = self.clock()
        report = self.mp.gradcheck.gradient_check(
            self.model, self.inputs, self.labels, h=GRAD_H, tol=GRAD_TOL, atol=GRAD_ATOL,
            sample_stride=GRAD_STRIDE)
        seconds = self.clock() - t
        return seconds, report.checked, (report.checked, report.worst_rel, report.worst_param,
                                         tuple(report.failures))

    def problem(self, result):
        checked, worst_rel, worst_param, failures = result
        if failures:
            return f"{len(failures)} tensors failed; worst {worst_rel:.3e} at {worst_param}"
        if checked != self.expected:
            return f"checked {checked} scalars, expected {self.expected}"
        return None

    def checks(self, results):
        out = super().checks(results)
        # as criterion 2: no pre-relu activation within 20h of the kink
        T = self.mp.tensor
        margins = []
        plain = T.relu

        def tracking_relu(x):
            margins.append(float(np.min(np.abs(x.data))))
            return plain(x)

        T.relu = tracking_relu
        try:
            self.model.forward(self.inputs, training=True)
        finally:
            T.relu = plain
        low = min(margins, default=0.0)
        out.append(("inputs keep every relu away from its kink",
                    None if low > 20 * GRAD_H else f"margin {low:.3e} <= {20 * GRAD_H}"))
        return out


WORKLOADS = {
    "tripod-train": TripodTrain,
    "tripod-eval": TripodEval,
    "tripod-gradcheck": TripodGradcheck,
}
