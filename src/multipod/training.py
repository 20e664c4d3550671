"""Optimizer, learning-rate schedule, training loop, evaluation, checkpointing.

Determinism contract: (model spec, schedule, augmentation spec with its seed)
fully determine every logged number except wall-time. All data-side
randomness derives from the augmentation seed; parameter initialization
derives from the model spec's pod seeds.
"""

from __future__ import annotations

import json
import os
import time
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .data import make_pod_inputs

CHECKPOINT_FORMAT_VERSION = 1

# Shuffle streams share the (seed, epoch, index) keying of per-sample
# augmentation streams; this tag keeps them disjoint from any sample index.
_SHUFFLE_TAG = 0xFFFFFFFF


class NumericalAbort(RuntimeError):
    """Training produced a non-finite loss."""


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable, wrong version, or wrong model."""


@dataclass(frozen=True)
class TrainingSchedule:
    base_lr: float = 0.1
    milestones: tuple = (82, 122, 163)
    decay: float = 0.1
    epochs: int = 200
    batch_size: int = 128
    momentum: float = 0.9
    weight_decay: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "milestones", tuple(self.milestones))
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be > 0, got {self.base_lr}")
        if not (0 < self.decay <= 1):
            raise ValueError(f"decay must be in (0,1], got {self.decay}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0 <= self.momentum < 1):
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        ms = self.milestones
        if any(ms[i] >= ms[i + 1] for i in range(len(ms) - 1)):
            raise ValueError(f"milestones must be strictly increasing, got {ms}")
        if any(not (0 <= m < self.epochs) for m in ms):
            raise ValueError(f"milestones must lie in [0, epochs), got {ms}")

    def to_dict(self):
        d = asdict(self)
        d["milestones"] = list(self.milestones)
        return d

    @staticmethod
    def from_dict(d):
        convert = {"base_lr": float, "milestones": lambda ms: tuple(int(m) for m in ms),
                   "decay": float, "epochs": int, "batch_size": int, "momentum": float,
                   "weight_decay": float}
        return TrainingSchedule(**{k: f(d[k]) for k, f in convert.items() if k in d})


def lr_at_epoch(schedule, epoch):
    """base_lr scaled by decay once per milestone already reached."""
    if not (0 <= epoch < schedule.epochs):
        raise ValueError(f"epoch {epoch} outside [0, {schedule.epochs})")
    drops = sum(1 for m in schedule.milestones if m <= epoch)
    return schedule.base_lr * schedule.decay ** drops


def sgd_step(store, lr, momentum, weight_decay):
    """One SGD update: g = grad + wd*p; v = momentum*v + g; p -= lr*v.

    Gradients are cleared afterwards; momentum buffers live in the store and
    start at zero the first time a parameter is stepped.
    """
    for name, p in store.items():
        if p.grad is None:
            raise T.StateError(f"parameter {name!r} has no gradient; run backward first")
        g = p.grad + weight_decay * p.data
        v = store.momentum.get(name)
        v = g if v is None else momentum * v + g
        store.momentum[name] = v
        p.data = p.data - lr * v
    store.zero_grads()


@dataclass
class TrainLogRecord:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    eval_loss: float
    eval_top1: float
    eval_top5: float
    wall_time: float

    def to_dict(self):
        return asdict(self)

    def comparable(self):
        """All fields except wall-time; the unit of the determinism contract."""
        d = asdict(self)
        d.pop("wall_time")
        return d


@dataclass
class EvalResult:
    top1: float
    top5: float
    loss: float


def _topk_hits(scores, labels, k):
    # stable argsort of -scores: ties resolve to the lowest class index
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return (order == np.asarray(labels)[:, None]).any(axis=1)


def _crop_views(pixels, size, ten):
    """The eval views of ``pixels``: the center size x size window alone, or
    with ``ten`` the four corners and the center, each followed by its
    horizontal flip."""
    h, w = pixels.shape[-2:]
    if size > h or size > w:
        raise ValueError(f"crop size {size} exceeds image size {(h, w)}")
    corners = [(0, 0), (0, w - size), (h - size, 0), (h - size, w - size)] if ten else []
    for r, c in corners + [((h - size) // 2, (w - size) // 2)]:
        view = pixels[..., r:r + size, c:c + size]
        yield view
        if ten:
            yield view[..., ::-1]


def _evaluate(model, batch, aug, size, batch_size, ten):
    # The scoring loop of both protocols. One view scores by its float32
    # logits; ten views by the float64 mean of their softmax probabilities.
    if len(batch) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    classes = model.spec.classes
    hits1 = hits5 = 0
    loss_sum = 0.0
    for lo in range(0, len(batch), batch_size):
        labels = batch.labels[lo:lo + batch_size]
        rows = np.arange(len(labels))
        logits = []
        for view in _crop_views(batch.pixels[lo:lo + batch_size], size, ten):
            pods = make_pod_inputs(view, aug, model.spec.pods, train=False)
            with T.no_grad():
                logits.append(model.forward([T.Tensor(p) for p in pods], training=False).data)
        if ten:
            scores = sum(np.exp(T.log_softmax(z.astype(np.float64))) for z in logits) / 10.0
            nll = -np.log(np.clip(scores[rows, labels], 1e-12, None))
        else:
            scores = logits[0]
            nll = -T.log_softmax(scores)[rows, labels]
        hits1 += int(_topk_hits(scores, labels, 1).sum())
        hits5 += int(_topk_hits(scores, labels, min(5, classes)).sum())
        loss_sum += float(nll.sum())
    n = len(batch)
    return EvalResult(hits1 / n, hits5 / n, loss_sum / n)


def evaluate_center_crop(model, batch, aug, batch_size=256):
    """Deterministic single-crop evaluation; returns top-1/top-5/mean loss."""
    return _evaluate(model, batch, aug, aug.crop_size, batch_size, ten=False)


def evaluate_ten_crop(model, batch, aug, crop_size=None, batch_size=64):
    """Four corners + center, each with its horizontal flip; softmax
    probabilities averaged over the 10 views, prediction from the mean."""
    size = aug.crop_size if crop_size is None else crop_size
    return _evaluate(model, batch, aug, size, batch_size, ten=True)


@dataclass
class Checkpoint:
    """Complete training state: enough to evaluate bit-exactly and to resume
    training step-for-step. ``seed`` covers all data-side RNG, since every
    stream is derived from (seed, epoch, index)."""

    spec: dict
    params: dict
    momentum: dict
    buffers: dict
    epoch: int
    seed: int
    best_top1: float

    @staticmethod
    def from_model(model, epoch, seed, best_top1):
        store = model.store
        momentum = {name: store.momentum.get(name, np.zeros_like(t.data)).copy()
                    for name, t in store.items()}
        return Checkpoint(model.spec.to_dict(), store.param_values(), momentum,
                          store.buffer_state(), int(epoch), int(seed), float(best_top1))

    def apply(self, model):
        """Load this state into ``model``; raises ``CheckpointError``, leaving
        the model as it was, unless every parameter, momentum buffer and BN
        buffer matches the model's by name and shape."""
        if self.spec != model.spec.to_dict():
            raise CheckpointError(
                f"checkpoint spec mismatch: saved {self.spec}, model {model.spec.to_dict()}")
        store = model.store
        params = {n: t.data.shape for n, t in store.items()}
        channels = {n: b.mean.shape for n, b in store.buffers()}
        for kind, saved, shapes in (
                ("parameter", self.params, params), ("momentum", self.momentum, params),
                ("BN mean", {n: b[0] for n, b in self.buffers.items()}, channels),
                ("BN variance", {n: b[1] for n, b in self.buffers.items()}, channels)):
            got = {n: np.shape(a) for n, a in saved.items()}
            for name in sorted(got.keys() | shapes.keys()):
                if got.get(name) != shapes.get(name):
                    raise CheckpointError(
                        f"checkpoint {kind} {name!r}: saved {got.get(name, 'nothing')}, "
                        f"model expects {shapes.get(name, 'nothing')}")
        store.load_param_values(self.params)
        store.load_buffer_state(self.buffers)
        store.momentum = {name: np.asarray(v, dtype=store.dtype).copy()
                          for name, v in self.momentum.items()}


def save_checkpoint(ckpt, path):
    """Write ``ckpt`` to ``path`` atomically: the file is written beside it
    under a temporary name and renamed over it, so a save that crashes
    mid-write leaves the previous checkpoint whole. A save that raises
    removes its temporary file."""
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "spec": ckpt.spec,
        "epoch": ckpt.epoch,
        "seed": ckpt.seed,
        "best_top1": ckpt.best_top1,
        "buffers_initialized": {n: bool(b[2]) for n, b in ckpt.buffers.items()},
    }
    arrays = {"__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for name, a in ckpt.params.items():
        arrays[f"param/{name}"] = a
    for name, a in ckpt.momentum.items():
        arrays[f"momentum/{name}"] = a
    for name, (mean, var, _) in ckpt.buffers.items():
        arrays[f"bnmean/{name}"] = mean
        arrays[f"bnvar/{name}"] = var
    tmp = f"{path}.tmp"
    try:
        # open the handle ourselves so numpy does not append an extension
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    if not os.path.isfile(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as z:
            if "__meta__" not in z.files:
                raise CheckpointError(f"{path}: missing metadata record")
            meta = json.loads(bytes(z["__meta__"]).decode())
            version = meta.get("format_version")
            if version != CHECKPOINT_FORMAT_VERSION:
                raise CheckpointError(
                    f"{path}: format version {version}, expected {CHECKPOINT_FORMAT_VERSION}")
            params = {}
            momentum = {}
            means = {}
            variances = {}
            for key in z.files:
                if key.startswith("param/"):
                    params[key[len("param/"):]] = z[key]
                elif key.startswith("momentum/"):
                    momentum[key[len("momentum/"):]] = z[key]
                elif key.startswith("bnmean/"):
                    means[key[len("bnmean/"):]] = z[key]
                elif key.startswith("bnvar/"):
                    variances[key[len("bnvar/"):]] = z[key]
            flags = meta["buffers_initialized"]
            buffers = {n: (means[n], variances[n], bool(flags[n])) for n in means}
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, zipfile.BadZipFile, json.JSONDecodeError) as e:
        raise CheckpointError(f"corrupt checkpoint {path}: {e}") from e
    return Checkpoint(meta["spec"], params, momentum, buffers,
                      int(meta["epoch"]), int(meta["seed"]), float(meta["best_top1"]))


def _truncate_log(path, epoch):
    # Keep only the log records of epochs before ``epoch``, written whole:
    # a line cut short by a crash is dropped too.
    kept = []
    if epoch > 0 and os.path.exists(path):
        with open(path) as f:
            kept = [line for line in f if line.endswith("\n") and json.loads(line)["epoch"] < epoch]
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.writelines(kept)
    os.replace(tmp, path)


@dataclass
class TrainResult:
    records: list
    best: Checkpoint | None
    best_top1: float
    wall_time: float


def train(model, train_batch, eval_batch, schedule, aug, out_dir=None,
          resume_from=None, early_stop=None):
    """Run the full schedule; returns records plus the best checkpoint.

    Per epoch: seeded shuffle, per-batch augmentation with per-pod routing,
    forward/backward/SGD with lr_at_epoch, then a full center-crop evaluation.
    The checkpoint with the best eval top-1 is retained (first best wins on
    ties). A non-finite loss aborts with the epoch and step in the message.
    With ``out_dir``, records are appended to its ``train_log.jsonl`` after
    dropping those of epochs at or past the start: a fresh run starts a clean
    log, and a resumed run drops any epoch its checkpoint does not hold.
    """
    aug.check_crop(train_batch.pixels.shape[-1])
    store = model.store
    k = model.spec.pods
    seed = aug.seed
    start_epoch = 0
    best_top1 = -1.0
    best = None
    if resume_from is not None:
        resume_from.apply(model)
        if resume_from.seed != seed:
            raise CheckpointError(
                f"checkpoint data seed {resume_from.seed} != configured seed {seed}")
        start_epoch = resume_from.epoch
        best_top1 = resume_from.best_top1

    log_file = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        log_path = os.path.join(out_dir, "train_log.jsonl")
        _truncate_log(log_path, start_epoch)
        log_file = open(log_path, "a")

    n = len(train_batch)
    records = []
    t0 = time.time()
    try:
        for epoch in range(start_epoch, schedule.epochs):
            lr = lr_at_epoch(schedule, epoch)
            shuffle_rng = np.random.default_rng(
                np.random.SeedSequence([seed, epoch, _SHUFFLE_TAG]))
            perm = shuffle_rng.permutation(n)
            loss_sum = 0.0
            hits = 0
            for step, lo in enumerate(range(0, n, schedule.batch_size)):
                idx = perm[lo:lo + schedule.batch_size]
                views = make_pod_inputs(train_batch.pixels[idx], aug, k,
                                        epoch=epoch, indices=idx, train=True)
                labels = train_batch.labels[idx]
                logits = model.forward([T.Tensor(v) for v in views], training=True)
                loss = T.softmax_cross_entropy(logits, labels)
                lval = float(loss.data)
                if not np.isfinite(lval):
                    raise NumericalAbort(f"non-finite loss at epoch {epoch}, step {step}")
                store.zero_grads()
                loss.backward()
                sgd_step(store, lr, schedule.momentum, schedule.weight_decay)
                loss_sum += lval * len(idx)
                hits += int(_topk_hits(logits.data, labels, 1).sum())
                # drop this step's graph before the next forward records one
                del logits, loss
            ev = evaluate_center_crop(model, eval_batch, aug)
            record = TrainLogRecord(epoch=epoch, lr=lr, train_loss=loss_sum / n,
                                    train_acc=hits / n, eval_loss=ev.loss,
                                    eval_top1=ev.top1, eval_top5=ev.top5,
                                    wall_time=time.time() - t0)
            records.append(record)
            if log_file is not None:
                log_file.write(json.dumps(record.to_dict()) + "\n")
                log_file.flush()
            ckpt = Checkpoint.from_model(model, epoch + 1, seed, max(best_top1, ev.top1))
            if ev.top1 > best_top1:
                best_top1, best = ev.top1, ckpt
                if out_dir is not None:
                    save_checkpoint(ckpt, os.path.join(out_dir, "best.ckpt"))
            if out_dir is not None:
                save_checkpoint(ckpt, os.path.join(out_dir, "last.ckpt"))
            if early_stop is not None and early_stop(record, model):
                break
    finally:
        if log_file is not None:
            log_file.close()
    return TrainResult(records, best, best_top1, time.time() - t0)
