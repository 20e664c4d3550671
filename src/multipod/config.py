"""Run configuration: one JSON document, schema-versioned, fully validated
before any compute. Every invalid field is reported with its dotted path."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .checks import FieldError
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


def _parse_data_section(d, errors):
    # None when any field is invalid; the errors name each one
    reported = len(errors)
    kind = d.get("kind")
    if kind not in DATA_KINDS:
        errors.append(f"data.kind: must be one of {DATA_KINDS}, got {kind!r}")
        return None
    out = {"kind": kind}
    if kind == "cifar10":
        path = d.get("path")
        if not isinstance(path, str) or not path:
            errors.append("data.path: required directory path for kind 'cifar10'")
            return None
        out["path"] = path
        out["classes"] = 10
    else:
        for key, default, low in (("classes", 4, 2), ("samples", 512, 2),
                                  ("size", 16, 8), ("eval_samples", 128, 1),
                                  ("seed", 0, None)):
            val = d.get(key, default)
            if not isinstance(val, int) or (low is not None and val < low):
                errors.append(f"data.{key}: must be an int"
                              + (f" >= {low}" if low is not None else "") + f", got {val!r}")
            else:
                out[key] = val
    return out if len(errors) == reported else None


def parse_config(doc):
    """Validate a config document (dict or JSON text) into a RunConfig."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")

    errors = []
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        errors.append(f"seed: must be a non-negative int, got {seed!r}")
        seed = 0

    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        errors.append(f"output_dir: must be a string path, got {output_dir!r}")
        output_dir = None

    model = None
    if not isinstance(doc.get("model"), dict):
        errors.append("model: required object")
    else:
        model = _section("model", MultiPodSpec.from_dict, doc["model"], errors)

    data = None
    if not isinstance(doc.get("data"), dict):
        errors.append("data: required object")
    else:
        data = _parse_data_section(doc["data"], errors)

    schedule = _section("schedule", TrainingSchedule.from_dict, doc.get("schedule", {}), errors)
    # the run seed drives all data-side randomness
    augmentation = _section("augmentation", lambda d: AugmentationSpec.from_dict({**d, "seed": seed}),
                            doc.get("augmentation", {}), errors)

    if model is not None and data is not None:
        if model.classes != data["classes"]:
            errors.append(f"model.classes: {model.classes} does not match "
                          f"data.classes {data['classes']}")
    if augmentation is not None and data is not None:
        try:
            augmentation.check_crop(data.get("size", CIFAR10_SIZE))
        except ValueError as e:
            errors.append(f"augmentation.{e}")  # e names its field, crop_size

    # each key must be one RunConfig.to_dict writes; a section that did not
    # parse has its own error and is not searched
    _unknown_keys(doc, {"schema_version": version, "seed": seed, "output_dir": output_dir,
                        "model": model and model.to_dict(), "data": data,
                        "schedule": schedule and schedule.to_dict(),
                        "augmentation": augmentation and augmentation.to_dict()}, "", errors)

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return RunConfig(model, data, schedule, augmentation, output_dir, seed)


def _section(name, from_dict, d, errors):
    # The spec ``from_dict`` builds from section ``name``, or None with each
    # error appended: a spec's field errors each get the section's path.
    try:
        return from_dict(d)
    except FieldError as e:
        errors.extend(f"{name}.{line}" for line in e.lines)
    except (ValueError, KeyError, TypeError) as e:
        errors.append(f"{name}: {e}")
    return None


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
