"""Optimizer, learning-rate schedule, training loop, evaluation, checkpointing.

Determinism contract: (model spec, schedule, augmentation spec with its seed)
fully determine every logged number except wall-time. All data-side
randomness derives from the augmentation seed; parameter initialization
derives from the model spec's pod seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .checks import INTEGER, INTEGERS, NUMBER, Spec, rule
from .data import make_pod_inputs

CHECKPOINT_FORMAT_VERSION = 2

# upper bounds that refuse an absurd schedule before a run starts
MAX_EPOCHS = 100_000
MAX_BATCH_SIZE = 65_536

# The most crop views one eval forward holds: 256 images of the center crop,
# 25 of ten-crop, so a forward's activations stay bounded whatever the protocol.
EVAL_VIEWS_PER_FORWARD = 256

# Shuffle streams share the (seed, epoch, index) keying of per-sample
# augmentation streams; this tag keeps them disjoint from any sample index.
_SHUFFLE_TAG = 0xFFFFFFFF


class NumericalAbort(RuntimeError):
    """Training produced a non-finite loss."""


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable, wrong version, or wrong model."""


@dataclass(frozen=True)
class TrainingSchedule(Spec):
    base_lr: float = 0.1
    milestones: tuple = (82, 122, 163)
    decay: float = 0.1
    epochs: int = 200
    batch_size: int = 128
    momentum: float = 0.9
    weight_decay: float = 1e-4

    FIELDS = (
        ("base_lr", NUMBER, rule(lambda lr: lr > 0, "must be > 0")),
        ("milestones", INTEGERS, rule(lambda ms: all(a < b for a, b in zip(ms, ms[1:])),
                                      "must be strictly increasing")),
        ("decay", NUMBER, rule(lambda decay: 0 < decay <= 1, "must be in (0,1]")),
        ("epochs", INTEGER, rule(lambda epochs: epochs >= 1, "must be >= 1", MAX_EPOCHS)),
        ("batch_size", INTEGER, rule(lambda size: size >= 1, "must be >= 1", MAX_BATCH_SIZE)),
        ("momentum", NUMBER, rule(lambda m: 0 <= m < 1, "must be in [0,1)")),
        ("weight_decay", NUMBER, rule(lambda wd: wd >= 0, "must be >= 0")),
        # the range waits for a valid epochs, which has its own line
        ("milestones", None, lambda ms, v: v["epochs"] is not None and not all(
            0 <= m < v["epochs"] for m in ms) and f"must lie in [0, epochs), got {ms!r}"),
    )


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

    def line(self):
        return json.dumps(asdict(self)) + "\n"

    def comparable(self):
        """All fields except wall-time; the unit of the determinism contract."""
        d = asdict(self)
        d.pop("wall_time")
        return d


def read_log(path):
    """The records of the log at ``path``, none if it is missing, less a last line a
    crash cut short; a line that is not a record raises ValueError naming it."""
    records = []
    if os.path.exists(path):
        with open(path, "rb") as f:
            lines = [line for line in f if line.endswith(b"\n")]
        for number, line in enumerate(lines, 1):
            try:
                record = TrainLogRecord(**json.loads(line))
                # JSON numbers read as int or float; NaN and Infinity are floats
                if type(record.epoch) is not int or not all(
                        type(v) in (int, float) for v in vars(record).values()):
                    raise ValueError("epoch must be an integer and every other field a number")
            except (ValueError, TypeError) as e:
                raise ValueError(f"{path} line {number}: {e}") from None
            records.append(record)
    return records


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
    if size < 1:
        raise ValueError(f"crop size {size} must be >= 1")
    if size > h or size > w:
        raise ValueError(f"crop size {size} exceeds image size {(h, w)}")
    corners = [(0, 0), (0, w - size), (h - size, 0), (h - size, w - size)] if ten else []
    for r, c in corners + [((h - size) // 2, (w - size) // 2)]:
        view = pixels[..., r:r + size, c:c + size]
        yield view
        if ten:
            yield view[..., ::-1]


def _evaluate(model, batch, aug, size, ten):
    # The scoring loop of both protocols. One view scores by its float32
    # logits; ten views by the float64 mean of their softmax probabilities.
    # A forward holds the views of as many whole images as fit in
    # EVAL_VIEWS_PER_FORWARD, concatenated view after view.
    if len(batch) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    classes = model.spec.classes
    images = EVAL_VIEWS_PER_FORWARD // (10 if ten else 1)
    hits1 = hits5 = 0
    loss_sum = 0.0
    for lo in range(0, len(batch), images):
        labels = batch.labels[lo:lo + images]
        rows = np.arange(len(labels))
        views = np.concatenate(list(_crop_views(batch.pixels[lo:lo + images], size, ten)))
        pods = make_pod_inputs(views, aug, model.spec.pods, train=False)
        with T.no_grad():
            logits = model.forward([T.Tensor(p) for p in pods], training=False).data
        logits = logits.reshape(-1, len(labels), classes)
        if ten:
            scores = np.exp(T.log_softmax(logits.astype(np.float64))).sum(axis=0) / 10.0
            nll = -np.log(np.clip(scores[rows, labels], 1e-12, None))
        else:
            scores = logits[0]
            nll = -T.log_softmax(scores)[rows, labels]
        hits1 += int(_topk_hits(scores, labels, 1).sum())
        hits5 += int(_topk_hits(scores, labels, min(5, classes)).sum())
        loss_sum += float(nll.sum())
    n = len(batch)
    return EvalResult(hits1 / n, hits5 / n, loss_sum / n)


def evaluate_center_crop(model, batch, aug):
    """Deterministic single-crop evaluation; returns top-1/top-5/mean loss."""
    return _evaluate(model, batch, aug, aug.crop_size, ten=False)


def evaluate_ten_crop(model, batch, aug, crop_size=None):
    """Four corners + center, each with its horizontal flip; softmax
    probabilities averaged over the 10 views, prediction from the mean."""
    size = aug.crop_size if crop_size is None else crop_size
    return _evaluate(model, batch, aug, size, ten=True)


# A checkpoint is an npz archive: "__meta__" holds the JSON metadata record, and each
# array group (prefix, label, arrays by name) one flat member named by its prefix,
# which holds the group's arrays raveled and concatenated in name order.
_GROUPS = (
    ("param", "parameter", lambda c: c.params),
    ("momentum", "momentum", lambda c: c.momentum),
    ("bnmean", "BN mean", lambda c: {n: b[0] for n, b in c.buffers.items()}),
    ("bnvar", "BN variance", lambda c: {n: b[1] for n, b in c.buffers.items()}),
)
# The metadata record's fields beside format_version: Checkpoint attributes and their JSON types
_META_TYPES = {"spec": dict, "epoch": int, "seed": int, "best_top1": (int, float),
               "buffers_initialized": dict, "index": dict}


def _views(flat, index):
    """The arrays of a group's flat buffer by name: for each [name, shape] pair of
    ``index``, in order, a view of the next slice of ``flat`` in that shape."""
    views, lo = {}, 0
    for name, shape in index:
        size = math.prod(shape)
        views[name] = flat[lo:lo + size].reshape(shape)
        lo += size
    return views


def _flat(arrays):
    """A group's member: its ``arrays`` (by name) raveled and concatenated in name order."""
    return np.concatenate([np.ravel(a) for _, a in sorted(arrays.items())])


def _group(z, prefix, index):
    """The arrays of group ``prefix`` in npz file ``z``, laid out by ``index``;
    ValueError if its member or its index breaks the layout."""
    flat = z[prefix]
    if flat.ndim != 1 or flat.dtype not in (np.float32, np.float64):
        raise ValueError(f"member {prefix!r} must be 1-D float32 or float64, "
                         f"got {flat.ndim}-D {flat.dtype}")
    if not isinstance(index, list) or not all(
            isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list) and all(type(d) is int and d >= 0 for d in entry[1])
            for entry in index):
        raise ValueError(f"index of {prefix!r} must list [name, shape] pairs, "
                         f"each dimension a non-negative integer")
    if len({name for name, _ in index}) != len(index):
        raise ValueError(f"index of {prefix!r} lists a name twice")
    size = sum(math.prod(shape) for _, shape in index)
    if size != flat.size:
        raise ValueError(f"index of {prefix!r} adds up to {size} values, member holds {flat.size}")
    return _views(flat, index)


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

    @property
    def buffers_initialized(self):
        return {name: bool(b[2]) for name, b in self.buffers.items()}

    @property
    def index(self):
        """Each group's [name, shape] pairs in name order: its member's layout."""
        return {prefix: [[name, list(np.shape(a))] for name, a in sorted(arrays(self).items())]
                for prefix, _, arrays in _GROUPS}

    def check(self, model, seed=None):
        """Raise ``CheckpointError`` unless every parameter, momentum buffer
        and BN buffer matches ``model``'s by name and shape and, given
        ``seed``, this state was trained with that data seed."""
        if seed is not None and self.seed != seed:
            raise CheckpointError(f"checkpoint data seed {self.seed} != configured seed {seed}")
        if self.spec != model.spec.to_dict():
            raise CheckpointError(
                f"checkpoint spec mismatch: saved {self.spec}, model {model.spec.to_dict()}")
        # the model's shapes by group: a parameter's, read without drawing its
        # values, is also its momentum's
        store = model.store
        shapes = dict(store.shapes())
        expected = {"param": shapes, "momentum": shapes,
                    "bnmean": {n: b.mean.shape for n, b in store.buffers()},
                    "bnvar": {n: b.var.shape for n, b in store.buffers()}}
        for prefix, label, arrays in _GROUPS:
            got = {n: np.shape(a) for n, a in arrays(self).items()}
            want = expected[prefix]
            for name in sorted(got.keys() | want.keys()):
                if got.get(name) != want.get(name):
                    raise CheckpointError(
                        f"checkpoint {label} {name!r}: saved {got.get(name, 'nothing')}, "
                        f"model expects {want.get(name, 'nothing')}")

    def apply(self, model, seed=None):
        """Load this state into ``model``, which stays as it was unless the
        ``check`` passes."""
        self.check(model, seed)
        store = model.store
        store.load_param_values(self.params)
        store.load_buffer_state(self.buffers)
        store.momentum = {name: np.asarray(v, dtype=store.dtype).copy()
                          for name, v in self.momentum.items()}


def write_atomically(path, write, mode="w"):
    """Write ``path`` whole or not at all: ``write(f)`` fills a temporary file
    beside it, which is then renamed over it. So a write that crashes midway
    leaves the previous file whole, and a write that raises removes its
    temporary file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(ckpt, *paths):
    """Write ``ckpt`` to each of ``paths`` in turn, each atomically (see
    ``write_atomically``): it is serialized once, and every file gets those bytes."""
    meta = {"format_version": CHECKPOINT_FORMAT_VERSION,
            **{key: getattr(ckpt, key) for key in _META_TYPES}}
    members = {"__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    members.update((prefix, _flat(arrays(ckpt))) for prefix, _, arrays in _GROUPS)
    data = io.BytesIO()
    np.savez(data, **members)
    for path in paths:
        write_atomically(path, lambda f: f.write(data.getbuffer()), "wb")


def load_checkpoint(path):
    """The checkpoint saved at ``path``, each array a view of its group's member.
    A file that is missing or breaks the layout ``save_checkpoint`` writes raises
    CheckpointError naming it."""
    if not os.path.isfile(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(bytes(z["__meta__"]).decode())
            version = meta.pop("format_version", None) if isinstance(meta, dict) else None
            if version != CHECKPOINT_FORMAT_VERSION:
                raise CheckpointError(
                    f"{path}: format version {version}, expected {CHECKPOINT_FORMAT_VERSION}")
            wrong = sorted(key for key in meta.keys() | _META_TYPES.keys() if isinstance(
                meta.get(key), bool) or not isinstance(meta.get(key), _META_TYPES.get(key, ())))
            if wrong:
                raise ValueError(f"metadata {', '.join(wrong)}: missing, unknown or mistyped")
            groups = [prefix for prefix, *_ in _GROUPS]
            if set(z.files) != {"__meta__", *groups}:
                raise ValueError(f"members {', '.join(sorted(z.files))}: expected __meta__, "
                                 f"{', '.join(groups)}")
            if set(meta["index"]) != set(groups):
                raise ValueError(f"metadata index names {', '.join(sorted(meta['index']))}: "
                                 f"expected {', '.join(groups)}")
            params, momentum, means, variances = (_group(z, prefix, meta["index"][prefix])
                                                  for prefix in groups)
            flags = meta["buffers_initialized"]
            if not means.keys() == variances.keys() == flags.keys() or not all(
                    isinstance(flag, bool) for flag in flags.values()):
                raise ValueError("BN means, BN variances and boolean buffers_initialized "
                                 "flags must name the same layers")
            ckpt = Checkpoint(meta["spec"], params, momentum,
                              {n: (means[n], variances[n], flags[n]) for n in means},
                              meta["epoch"], meta["seed"], float(meta["best_top1"]))
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as e:
        raise CheckpointError(f"corrupt checkpoint {path}: {e}") from e
    return ckpt


def resumed_log(out_dir, ckpt):
    """The records of epochs 0..ckpt.epoch-1 in ``out_dir``'s log: what a resume keeps."""
    path = os.path.join(out_dir, "train_log.jsonl")
    kept = [r for r in read_log(path) if r.epoch < ckpt.epoch]
    if [r.epoch for r in kept] != list(range(ckpt.epoch)):
        raise CheckpointError(f"cannot resume at epoch {ckpt.epoch}: {path} does not log "
                              f"epochs 0 to {ckpt.epoch - 1}, each once and in order")
    return kept


@dataclass
class TrainResult:
    records: list
    best: TrainLogRecord | None  # the first peak of eval top-1: see train
    wall_time: float


def train(model, train_batch, eval_batch, schedule, aug, out_dir=None,
          resume_from=None, early_stop=None):
    """Run the full schedule; returns this call's records and the run's best.

    Per epoch: seeded shuffle, per-batch augmentation with per-pod routing,
    forward/backward/SGD with lr_at_epoch, a full center-crop evaluation, then
    ``early_stop(record)``, which ends the run by returning True. The best is the
    first record with the highest eval top-1 of those a resume keeps and this
    call's. A non-finite loss aborts with the epoch and step in the message. With
    ``out_dir``, records go to its ``train_log.jsonl`` and each epoch to ``last.ckpt``
    and, if best, ``best.ckpt``; a fresh run removes both and starts a clean log.
    """
    aug.check_crop(train_batch.pixels.shape[-1])
    store = model.store
    k = model.spec.pods
    seed = aug.seed
    start_epoch, kept = 0, []
    if resume_from is not None:
        if out_dir is not None:
            kept = resumed_log(out_dir, resume_from)
        resume_from.apply(model, seed)
        start_epoch = resume_from.epoch

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        if resume_from is None:  # leave no previous run's state for a resume to continue
            for name in ("last.ckpt", "best.ckpt"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(out_dir, name))
        log_path = os.path.join(out_dir, "train_log.jsonl")
        write_atomically(log_path, lambda f: f.writelines(r.line() for r in kept))

    best = max(kept, key=lambda r: r.eval_top1, default=None)  # max keeps the first peak
    n = len(train_batch)
    records = []
    t0 = time.time()
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
            # backward consumed the graph; drop its root and logits too, so
            # nothing of this step lives into the next forward
            del logits, loss
        ev = evaluate_center_crop(model, eval_batch, aug)
        record = TrainLogRecord(epoch=epoch, lr=lr, train_loss=loss_sum / n,
                                train_acc=hits / n, eval_loss=ev.loss,
                                eval_top1=ev.top1, eval_top5=ev.top5,
                                wall_time=time.time() - t0)
        records.append(record)
        best = max(best or record, record, key=lambda r: r.eval_top1)
        if out_dir is not None:
            with open(log_path, "a") as f:
                f.write(record.line())
            names = ("best.ckpt", "last.ckpt") if best is record else ("last.ckpt",)
            save_checkpoint(Checkpoint.from_model(model, epoch + 1, seed, best.eval_top1),
                            *(os.path.join(out_dir, name) for name in names))
        if early_stop is not None and early_stop(record):
            break
    return TrainResult(records, best, time.time() - t0)
