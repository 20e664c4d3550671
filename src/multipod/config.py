"""Run configuration: one JSON document, schema-versioned, fully validated
before any compute. Every invalid field is reported with its dotted path."""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import partial

from .checks import (ANY, INTEGER, REQUIRED, STRING, FieldError, Kind, Spec, nested, one_of,
                     rule, settle)
from .data import (CIFAR10_SIZE, MAX_IMAGE_SIZE, AugmentationSpec, load_cifar10_test,
                   load_cifar10_train, synthetic_dataset)
from .models import MAX_CLASSES, MultiPodSpec
from .training import TrainingSchedule

SCHEMA_VERSION = 1

DATA_KINDS = ("cifar10", "synthetic")

MAX_SAMPLES = 1_000_000  # upper bound of data.samples and data.eval_samples


class ConfigError(ValueError):
    """Invalid run configuration; the message lists offending field paths."""


_KIND = ("kind", ANY, one_of(DATA_KINDS))

# Each data kind's fields with their defaults, in the order they are written, and its rows
_DATA_FIELDS = {
    "cifar10": ({"path": REQUIRED, "classes": 10}, (
        ("path", STRING, rule(bool, "must be a directory path")),
        ("classes", INTEGER, rule(lambda classes: classes == 10, "must be 10 for kind 'cifar10'")),
    )),
    "synthetic": (dict(classes=4, samples=512, size=16, eval_samples=128, seed=0), tuple(
        (key, INTEGER, rule(partial(operator.le, low), f"must be an int >= {low}", high))
        for key, low, high in (("classes", 2, MAX_CLASSES), ("samples", 2, MAX_SAMPLES),
                               ("size", 8, MAX_IMAGE_SIZE), ("eval_samples", 1, MAX_SAMPLES),
                               ("seed", 0, None))) + (
        # both splits come from one rendered set, which needs an image per class
        ("samples", None, lambda samples, v: None not in (v["classes"], v["eval_samples"])
         and samples + v["eval_samples"] < v["classes"]
         and f"samples + eval_samples must be >= classes {v['classes']}, "
             f"got {samples} + {v['eval_samples']}"),)),
}


def _data_section(d, _):
    # a kind that is not one of DATA_KINDS leaves the other fields unjudged
    settle({"kind": d.get("kind", REQUIRED)}, (_KIND,))
    defaults, rows = _DATA_FIELDS[d["kind"]]
    values = {"kind": d["kind"], **defaults, **{key: d[key] for key in defaults if key in d}}
    settle(values, rows, [key for key in d if key not in {"kind", *defaults}])
    return values


@dataclass(frozen=True)
class RunConfig(Spec):
    schema_version: int = REQUIRED
    seed: int = 0
    output_dir: str | None = None
    model: MultiPodSpec = None
    data: dict = None
    schedule: TrainingSchedule = TrainingSchedule()
    augmentation: AugmentationSpec = field(default_factory=dict)  # read with the run seed

    FIELDS = (
        ("schema_version", INTEGER, rule(lambda version: version == SCHEMA_VERSION,
                                         f"expected {SCHEMA_VERSION}")),
        ("seed", INTEGER, rule(lambda seed: seed >= 0, "must be a non-negative int")),
        ("output_dir", Kind(lambda path: path is None or isinstance(path, str),
                            lambda path, _: path, "must be a string path"),
         rule(bool, "must be a non-empty path")),
        ("model", nested(MultiPodSpec, "required object"), None),
        ("data", Kind(lambda d: isinstance(d, dict), _data_section, "required object"), None),
        ("schedule", nested(TrainingSchedule), None),
        # the run seed drives all data-side randomness (0 stands in for a seed that failed)
        ("augmentation", nested(AugmentationSpec, inherit=lambda v: {"seed": v["seed"] or 0}),
         None),
        # rules across sections, on values the rows above settled
        ("augmentation.seed", None, lambda seed, v: v["seed"] not in (None, seed) and
         f"must equal seed {v['seed']}, got {seed}"),
        ("model.classes", None, lambda classes, v: v["data"] and classes != v["data"]["classes"]
         and f"must equal data.classes {v['data']['classes']}, got {classes}"),
        ("augmentation", None, lambda aug, v: v["data"] and aug.check_crop(
            v["data"].get("size", CIFAR10_SIZE))),
    )


def parse_config(doc):
    """Validate a config document (dict or JSON text) into a RunConfig."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    try:
        return RunConfig.from_dict(doc)
    except FieldError as e:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(e.lines)) from None


def load_config(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(text)


def load_data(cfg):
    """Materialize (train, eval) batches for a parsed config."""
    d = cfg.data
    if d["kind"] == "cifar10":
        return load_train_data(cfg), load_eval_data(cfg)
    # both splits come from one rendered set, rendered once here
    full = synthetic_dataset(d["classes"], d["samples"] + d["eval_samples"],
                             d["size"], d["seed"])
    return full.subset(slice(0, d["samples"])), full.subset(slice(d["samples"], None))


def load_train_data(cfg):
    """Materialize the train batch alone: for cifar10, the train files only."""
    d = cfg.data
    if d["kind"] == "cifar10":
        return load_cifar10_train(d["path"])
    return load_data(cfg)[0]


def load_eval_data(cfg):
    """Materialize the eval batch alone: for cifar10, the test file only."""
    d = cfg.data
    if d["kind"] == "cifar10":
        return load_cifar10_test(d["path"])
    return load_data(cfg)[1]
