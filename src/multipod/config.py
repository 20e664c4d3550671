"""Run configuration: one JSON document, schema-versioned, fully validated
before any compute. Every invalid field is reported with its dotted path."""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import partial

from .checks import ANY, INTEGER, REQUIRED, STRING, FieldError, nested, settle
from .data import CIFAR10_SIZE, AugmentationSpec, load_cifar10, synthetic_dataset
from .models import MultiPodSpec
from .training import TrainingSchedule

SCHEMA_VERSION = 1

DATA_KINDS = ("cifar10", "synthetic")


class ConfigError(ValueError):
    """Invalid run configuration; the message lists offending field paths."""


@dataclass(frozen=True)
class RunConfig:
    model: MultiPodSpec
    data: dict
    schedule: TrainingSchedule
    augmentation: AugmentationSpec
    output_dir: str | None
    seed: int

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "model": self.model.to_dict(),
            "data": dict(self.data),
            "schedule": self.schedule.to_dict(),
            "augmentation": self.augmentation.to_dict(),
        }


# Each data kind's fields, in the order ``to_dict`` writes them, with their
# defaults, and its rows for ``settle``
_DATA_FIELDS = {
    "cifar10": ({"path": REQUIRED, "classes": 10}, [
        ("path", STRING, bool, "must be a directory path"),
        ("classes", INTEGER, lambda classes: classes == 10, "must be 10 for kind 'cifar10'")]),
    "synthetic": (dict(classes=4, samples=512, size=16, eval_samples=128, seed=0), [
        (key, INTEGER, partial(operator.le, low), f"must be an int >= {low}") for key, low in
        (("classes", 2), ("samples", 2), ("size", 8), ("eval_samples", 1), ("seed", 0))]),
}


def _data_section(d):
    # a kind that is not one of DATA_KINDS leaves the other fields unjudged
    values = {"kind": d.get("kind", REQUIRED)}
    settle(values, [("kind", ANY, DATA_KINDS.__contains__, f"must be one of {DATA_KINDS}")])
    defaults, rows = _DATA_FIELDS[values["kind"]]
    values.update(defaults, **{key: d[key] for key in defaults if key in d})
    settle(values, rows)
    return values


def parse_config(doc):
    """Validate a config document (dict or JSON text) into a RunConfig."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")

    # a section that fails reads None below, and the lines name its fields
    values = {"schema_version": REQUIRED, "seed": 0, "output_dir": None, "model": None,
              "data": None, "schedule": {}, "augmentation": {}, **doc}
    errors = []
    try:
        settle(values, [
            ("schema_version", INTEGER, lambda version: version == SCHEMA_VERSION,
             f"expected {SCHEMA_VERSION}"),
            ("seed", INTEGER, lambda seed: seed >= 0, "must be a non-negative int"),
            ("output_dir", (lambda path: path is None or isinstance(path, str), lambda path: path,
                            "must be a string path"), None, ""),
            ("model", nested(MultiPodSpec.from_dict, "model.", refusal="required object"),
             None, ""),
            ("data", nested(_data_section, "data.", refusal="required object"), None, ""),
            ("schedule", nested(TrainingSchedule.from_dict, "schedule."), None, ""),
            # the run seed drives all data-side randomness
            ("augmentation", nested(lambda d: AugmentationSpec.from_dict(
                {**d, "seed": values["seed"] or 0}), "augmentation."), None, ""),
        ])
    except FieldError as e:
        errors = e.lines
    model, data, schedule, aug = (values[k] for k in ("model", "data", "schedule", "augmentation"))

    if model is not None and data is not None and model.classes != data["classes"]:
        errors.append(f"model.classes: {model.classes} does not match "
                      f"data.classes {data['classes']}")
    if aug is not None and data is not None:
        try:
            aug.check_crop(data.get("size", CIFAR10_SIZE))
        except ValueError as e:
            errors.append(f"augmentation.{e}")  # e names its field, crop_size

    # each key must be one RunConfig.to_dict writes; a section that did not
    # parse has its own error and is not searched
    _unknown_keys(doc, {"schema_version": SCHEMA_VERSION, "seed": values["seed"],
                        "output_dir": values["output_dir"], "model": model and model.to_dict(),
                        "data": data, "schedule": schedule and schedule.to_dict(),
                        "augmentation": aug and aug.to_dict()}, "", errors)

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return RunConfig(model, data, schedule, aug, values["output_dir"], values["seed"])


def _unknown_keys(doc, written, path, errors):
    # Report, by dotted path, each key of ``doc`` that ``written`` lacks.
    for key, value in doc.items():
        if key not in written:
            errors.append(f"{path}{key}: unknown key")
        elif isinstance(value, dict) and isinstance(written[key], dict):
            _unknown_keys(value, written[key], f"{path}{key}.", errors)


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
        return load_cifar10(d["path"])
    full = synthetic_dataset(d["classes"], d["samples"] + d["eval_samples"],
                             d["size"], d["seed"])
    return full.subset(slice(0, d["samples"])), full.subset(slice(d["samples"], None))
