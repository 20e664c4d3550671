import argparse
import dataclasses
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import multipod.cli as cli
import multipod.data as data
import multipod.tensor as T
import multipod.training as training
from multipod.checks import FieldError
from multipod.cli import main
from multipod.config import MAX_IMAGE_SIZE, MAX_SAMPLES, ConfigError, load_data, parse_config
from multipod.data import (AugmentationSpec, DataError, JitterSpec, make_pod_inputs, normalize,
                           read_ppm, write_ppm)
from multipod.gradcheck import gradient_check
from multipod.models import (APPROACH2, CIFAR_FAMILY, MAX_BLOCKS, MAX_CLASSES, MAX_PODS,
                             MultiPodSpec, PodBaseSpec, build_multipod, count_params,
                             resnet_cifar)
from multipod.training import MAX_BATCH_SIZE, MAX_EPOCHS, TrainingSchedule
from test_data import fake_cifar_dir
from test_training import BAD_CHECKPOINTS, BAD_LOG_LINES

ROOT = pathlib.Path(__file__).parents[1]
SHIPPED_CONFIGS = sorted((ROOT / "configs").glob("*.json")) + [ROOT / "perfbench" / "tripod.json"]


def toy_config_doc(out_dir=None, **tweaks):
    doc = {
        "schema_version": 1,
        "seed": 0,
        "output_dir": out_dir,
        "model": {"family": "resnet-cifar", "n": 1, "pods": 2,
                  "fusion": "approach1-concat", "combine_mode": "sum",
                  "classes": 4, "seeds": [0, 1]},
        "data": {"kind": "synthetic", "classes": 4, "samples": 24, "size": 16,
                 "eval_samples": 8, "seed": 3},
        "schedule": {"base_lr": 0.05, "milestones": [], "decay": 0.1, "epochs": 2,
                     "batch_size": 8, "momentum": 0.9, "weight_decay": 1e-4},
        "augmentation": {"pad": 2, "crop_size": 16, "hflip_prob": 0.5,
                         "jitter": None, "routing": "identical",
                         "normalize": {"mean": [0.5, 0.5, 0.5],
                                       "std": [0.25, 0.25, 0.25]}},
    }
    return tweaked(doc, **tweaks)


def tweaked(doc, **tweaks):
    """``doc`` with each dotted path set to its value."""
    for dotted, value in tweaks.items():
        node = doc
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[key]
        node[leaf] = value
    return doc


def write_config(tmp_path, name="config.json", **kwargs):
    path = tmp_path / name
    path.write_text(json.dumps(toy_config_doc(**kwargs)))
    return str(path)


def write_shipped(tmp_path, name, **tweaks):
    """A tweaked copy of ``configs/<name>.json``."""
    path = tmp_path / f"{name}.json"
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    path.write_text(json.dumps(tweaked(doc, **tweaks)))
    return str(path)


def parser_flags():
    """Each subcommand's flags, --help aside."""
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {flag for action in p._actions for flag in action.option_strings}
            - {"-h", "--help"} for name, p in sub.choices.items()}


def log_lines(out_dir):
    text = (out_dir / "train_log.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines()]


def drop_wall_time(rows):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in rows]


# (path, value, the one line that refuses it)
WRONG_KINDS = [
    ("model.pods", True, "model.pods: must be an integer, got True"),
    ("seed", True, "seed: must be an integer, got True"),
    ("data.samples", True, "data.samples: must be an integer, got True"),
    ("schedule.epochs", "5", "schedule.epochs: must be an integer, got '5'"),
    ("augmentation.hflip_prob", "0.5",
     "augmentation.hflip_prob: must be a finite number, got '0.5'"),
    ("schedule.base_lr", float("inf"), "schedule.base_lr: must be a finite number, got inf"),
    ("augmentation.normalize.mean", [float("nan"), 0, 0],
     "augmentation.normalize.mean: must be a list of finite numbers, got [nan, 0, 0]"),
    ("augmentation.normalize.mean", ["a", "b", "c"],
     "augmentation.normalize.mean: must be a list of finite numbers, got ['a', 'b', 'c']"),
    ("augmentation.normalize.std", ["1", "1", "1"],
     "augmentation.normalize.std: must be a list of finite numbers, got ['1', '1', '1']"),
    ("augmentation.jitter", [1, 2], "augmentation.jitter: must be an object, got [1, 2]"),
    ("augmentation.jitter", {"brightness": 5},
     "augmentation.jitter.brightness: must be a list of finite numbers, got 5"),
]

# tweaks, and every line that refuses them: a bad normalize stops none of its
# section's other rows, and a section that fails is still searched for unknown keys
MANY_LINES = {
    "normalize-pad-padd": (
        {"augmentation.normalize": [[0.5, 0.5, 0.5], [0.25, 0.25, 0.25]],
         "augmentation.pad": -1, "augmentation.padd": 4},
        ["augmentation.normalize: must be an object, got [[0.5, 0.5, 0.5], [0.25, 0.25, 0.25]]",
         "augmentation.pad: must be >= 0, got -1", "augmentation.padd: unknown key"]),
    "pods-podz": ({"model.pods": 0, "model.podz": 2},
                  ["model.pods: must be an int >= 1, got 0", "model.podz: unknown key"]),
    "jitter-hue": ({"augmentation.jitter": {"brightness": 5, "hue": [0.9, 1.1]}},
                   ["augmentation.jitter.brightness: must be a list of finite numbers, got 5",
                    "augmentation.jitter.hue: unknown key"]),
    "samples-sample": ({"data.samples": 0, "data.sample": 24},
                       ["data.samples: must be an int >= 2, got 0", "data.sample: unknown key"]),
}

# (path, upper bound, tweaks that let the bound itself parse); a synthetic
# set of MAX_CLASSES classes needs as many images
BOUNDS = [("model.pods", MAX_PODS, {"model.seeds": None}), ("model.n", MAX_BLOCKS, {}),
          ("model.classes", MAX_CLASSES,
           {"data.classes": MAX_CLASSES, "data.samples": MAX_CLASSES}),
          ("data.classes", MAX_CLASSES,
           {"model.classes": MAX_CLASSES, "data.samples": MAX_CLASSES}),
          ("data.samples", MAX_SAMPLES, {}), ("data.size", MAX_IMAGE_SIZE, {}),
          ("data.eval_samples", MAX_SAMPLES, {}), ("schedule.epochs", MAX_EPOCHS, {}),
          ("schedule.batch_size", MAX_BATCH_SIZE, {}),
          ("augmentation.pad", MAX_IMAGE_SIZE, {}),
          ("augmentation.crop_size", MAX_IMAGE_SIZE, {"augmentation.pad": 504})]


# (tweaks, the line under "invalid configuration:" that refuses them)
BAD_MODELS = [({"model.pods": 0}, "model.pods: must be an int >= 1, got 0"),
              ({"model.pods": 65, "model.seeds": None}, "model.pods: must be <= 64, got 65"),
              ({"model.n": 0}, "model.n: must be an int >= 1, got 0"),
              ({"model.classes": 1}, "model.classes: must be >= 2, got 1"),
              ({"model.fusion": "approach1"}, "model.fusion: must be one of "
               "('approach1-concat', 'approach2-scale-elementwise'), got 'approach1'")]


def unrecognized(flags):
    return f"multipod: error: unrecognized arguments: {' '.join(flags)}"


def refusal(err):
    """The line of stderr that refuses a command: argparse puts a usage line before it."""
    *usage, line = err.splitlines()
    assert usage == [] or line.startswith("multipod"), err
    return line


@pytest.mark.parametrize("command", ["count-params", "gradcheck"])
@pytest.mark.parametrize("tweaks,line", BAD_MODELS,
                         ids=[" ".join(f"{k}={v}" for k, v in t.items()) for t, _ in BAD_MODELS])
def test_bad_model_is_refused_by_its_config_path(tmp_path, capsys, monkeypatch, command, tweaks,
                                                 line):
    def refuse(*_, **__):
        raise AssertionError("a model was built or counted")
    monkeypatch.setattr(cli, "build_multipod", refuse)
    monkeypatch.setattr(cli, "count_params", refuse)
    assert main([command, "--config", write_config(tmp_path, **tweaks)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: invalid configuration:", f"  {line}"]


@pytest.mark.parametrize("command", ["count-params", "gradcheck"])
def test_config_is_required(capsys, command):
    assert main([command]) == 2
    assert refusal(capsys.readouterr().err) == (
        f"multipod {command}: error: the following arguments are required: --config")


class TestCountParams:
    def test_tripod_concat(self, capsys):
        assert main(["count-params", "--config", str(ROOT / "configs" / "cifar10-tripod.json"),
                     "--expect", "817402"]) == 0
        assert capsys.readouterr().out.strip() == "817402"

    def test_tripod_scale_fusion(self, tmp_path, capsys):
        cfg = write_shipped(tmp_path, "cifar10-tripod", **{"model.fusion": APPROACH2})
        assert main(["count-params", "--config", cfg, "--expect", "816314"]) == 0

    def test_imagenet_tripod(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"model.family": "resnet-imagenet", "model.n": 2,
                                        "model.pods": 3, "model.seeds": [0, 1, 2],
                                        "model.classes": 1000, "data.classes": 1000,
                                        "data.samples": 1000})
        assert main(["count-params", "--config", cfg, "--expect", "35066536"]) == 0
        # README's recipe: the shipped tripod with a resnet18 base, 10 classes
        cfg = write_shipped(tmp_path, "cifar10-tripod",
                            **{"model.family": "resnet-imagenet", "model.n": 2})
        assert main(["count-params", "--config", cfg, "--expect", "33544906"]) == 0

    def test_expect_mismatch_fails(self, tmp_path, capsys):
        cfg = write_shipped(tmp_path, "cifar10-tripod", **{"model.pods": 1, "model.seeds": [0]})
        assert main(["count-params", "--config", cfg, "--expect", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out.strip() == "272474"
        assert "mismatch" in captured.err

    def test_unsupported_base(self, tmp_path, capsys):
        assert main(["count-params", "--config",
                     write_config(tmp_path, **{"model.family": "resnet19"})]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid configuration:",
            "  model.family: must be one of ('resnet-cifar', 'resnet-imagenet'), got 'resnet19'"]

    def test_config_source(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["count-params", "--config", cfg]) == 0
        spec = MultiPodSpec(pods=2, base=resnet_cifar(1), classes=4, seeds=(0, 1))
        assert capsys.readouterr().out.strip() == str(count_params(spec))

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_each_shipped_config(self, capsys, path):
        assert main(["count-params", "--config", str(path)]) == 0
        assert capsys.readouterr().out == f"{count_params(parse_config(path.read_text()).model)}\n"

    def test_flags_are_the_config_and_the_expected_count(self):
        assert parser_flags()["count-params"] == {"--config", "--expect"}

    SPEC_FLAGS = [(["--pods", "5", "--base", "resnet56", "--classes", "100"],
                   "--pods, --base, --classes"),
                  (["--pods", "3"], "--pods"), (["--base", "resnet20"], "--base"),
                  (["--fusion", "approach1"], "--fusion"), (["--combine", "sum"], "--combine"),
                  (["--classes", "4"], "--classes")]

    @pytest.mark.parametrize("flags,named", SPEC_FLAGS,
                             ids=[" ".join(flags) for flags, _ in SPEC_FLAGS])
    def test_config_with_spec_flags_refused(self, tmp_path, capsys, flags, named):
        # the config states the model, and no flag restates any of it
        cfg = write_config(tmp_path)
        assert main(["count-params", "--config", cfg, *flags, "--expect", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert refusal(captured.err) == unrecognized(flags)

    @pytest.mark.parametrize("flags", [["--pods", "0"], ["--pods", "65"], ["--classes", "1"],
                                       ["--pods", "0", "--classes", "1"]],
                             ids=["--pods 0", "--pods 65", "--classes 1", "--pods 0 --classes 1"])
    def test_bad_spec_flag_is_refused_by_its_flag(self, tmp_path, capsys, monkeypatch, flags):
        def count_params(*_):
            raise AssertionError("a model was counted")
        monkeypatch.setattr(cli, "count_params", count_params)
        assert main(["count-params", "--config", write_config(tmp_path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert refusal(captured.err) == unrecognized(flags)


class TestGradcheck:
    def test_subsampled_pass(self, capsys):
        assert main(["gradcheck", "--config", str(ROOT / "configs" / "toy-synthetic.json"),
                     "--sample-stride", "997"]) == 0
        out = capsys.readouterr().out
        assert "checked" in out and "worst relative error" in out

    def test_runs_criterion_2s_check(self, tmp_path, capsys):
        # criterion 2's model and inputs: the tripod of n=1 pods, batch 2 at 8x8 from seed 2701
        cfg = write_config(tmp_path, **{"model.pods": 3, "model.seeds": [0, 1, 2],
                                        "model.classes": 10, "data.classes": 10})
        assert main(["gradcheck", "--config", cfg, "--sample-stride", "97"]) == 0
        spec = MultiPodSpec(pods=3, base=resnet_cifar(1), classes=10, seeds=(0, 1, 2))
        model = build_multipod(spec, dtype=np.float64)
        rng = np.random.default_rng(2701)
        inputs = [T.Tensor(rng.normal(0.0, 1.0, (2, 3, 8, 8)), dtype=np.float64)
                  for _ in range(3)]
        report = gradient_check(model, inputs, rng.integers(0, 10, size=2), sample_stride=97)
        assert capsys.readouterr().out == (
            f"checked {report.checked} parameters; "
            f"worst relative error {report.worst_rel:.3e} ({report.worst_param})\n")

    def test_scale_fusion_product_model_from_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"model.fusion": APPROACH2, "model.combine_mode": "product"})
        assert main(["gradcheck", "--config", cfg, "--sample-stride", "97", "--verbose"]) == 0
        # the verbose lines name the config's head: per-pod scales feed one shared dense layer
        checked = re.findall(r"^  (head\.\S+):", capsys.readouterr().out, re.M)
        assert checked == ["head.scale0", "head.scale1", "head.dense.weight", "head.dense.bias"]

    def test_failing_check_exits_1(self, tmp_path, capsys, monkeypatch):
        # one conv's backward scales its weight gradient by 1 + 1e-3: only that tensor fails
        faulted = "pod0.stage1.block0.conv1.weight"
        built = []
        plain_build, plain = cli.build_multipod, T.conv2d

        def build(*args, **kwargs):
            built.append(plain_build(*args, **kwargs))
            return built[-1]

        def faulty_conv2d(x, weight, stride=1, padding=0):
            out = plain(x, weight, stride=stride, padding=padding)
            if weight is built[0].store.param(faulted) and out._backward is not None:
                inner = out._backward

                def backward(g):
                    inner(g)
                    weight.grad *= 1 + 1e-3
                out._backward = backward
            return out

        monkeypatch.setattr(cli, "build_multipod", build)
        monkeypatch.setattr(T, "conv2d", faulty_conv2d)
        cfg = write_config(tmp_path, **{"model.pods": 1, "model.seeds": [0]})
        assert main(["gradcheck", "--config", cfg, "--sample-stride", "97"]) == 1
        captured = capsys.readouterr()
        assert f"({faulted})" in captured.out
        assert captured.err.splitlines() == [f"gradient check failed for: {faulted}"]

    def test_bad_stride_rejected(self, tmp_path, capsys):
        assert main(["gradcheck", "--config", write_config(tmp_path), "--sample-stride", "0"]) == 2

    # criterion 2's inputs, step and tolerance are fixed: no flag sets them, to
    # its own value or to a bad one
    BAD_FLAGS = [(["--sample-stride", "0"], "error: --sample-stride 0 must be >= 1"),
                 *((flags, unrecognized(flags))
                   for flags in (["--size", "8"], ["--batch", "2"], ["--seed", "1"],
                                 ["--h", "1e-5"], ["--tolerance", "1e-5"],
                                 ["--batch", "0"], ["--size", "0"], ["--size", "17"],
                                 *([flag, t] for flag in ("--tolerance", "--h")
                                   for t in ("-1", "0", "nan", "inf")),
                                 ["--pods", "0"], ["--n", "0"], ["--classes", "1"],
                                 ["--fusion", "approach2"], ["--combine", "product"]))]

    @pytest.mark.parametrize("flags,line", BAD_FLAGS,
                             ids=[" ".join(flags) for flags, _ in BAD_FLAGS])
    def test_bad_flag_is_refused_before_any_model(self, tmp_path, capsys, monkeypatch, flags,
                                                   line):
        def build_multipod(*_, **__):
            raise AssertionError("a model was built")
        monkeypatch.setattr(cli, "build_multipod", build_multipod)
        # the flags are checked before the config, whose model is bad
        cfg = write_config(tmp_path, **{"model.pods": 0})
        assert main(["gradcheck", "--config", cfg, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert refusal(captured.err) == line

    def test_nonpositive_step_rejected(self, tmp_path, capsys):
        # the step is criterion 2's fixed 1e-5: a zero step has no flag to ride on
        assert main(["gradcheck", "--config", write_config(tmp_path), "--h", "0",
                     "--sample-stride", "997"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert refusal(captured.err) == unrecognized(["--h", "0"])

    def test_flags_are_the_config_and_the_checks_own(self):
        assert parser_flags()["gradcheck"] == {"--config", "--sample-stride", "--verbose"}


class TestTrain:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir))
        assert main(["train", "--config", cfg]) == 0
        stdout = capsys.readouterr().out
        assert "epoch 0:" in stdout and "epoch 1:" in stdout and "best eval top1" in stdout

        rows = log_lines(out_dir)
        assert [r["epoch"] for r in rows] == [0, 1]
        assert (out_dir / "best.ckpt").exists() and (out_dir / "last.ckpt").exists()

        saved = json.loads((out_dir / "config.json").read_text())
        assert saved["schedule"]["epochs"] == 2
        assert saved["output_dir"] == str(out_dir)
        assert "seed" not in saved["augmentation"]  # the run seed, stated once
        assert parse_config(saved) == parse_config(toy_config_doc(out_dir=str(out_dir)))

        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["epochs_run"] == 2
        assert summary["param_count"] == count_params(
            MultiPodSpec(pods=2, base=resnet_cifar(1), classes=4, seeds=(0, 1)))
        assert summary["best_top1"] == max(r["eval_top1"] for r in rows)
        machine = summary["machine"]
        assert set(machine) == {"nproc", "numpy", "blas", "blas_version", "blas_threads"}
        assert machine["nproc"] >= 1 and machine["numpy"] == np.__version__
        # tests/conftest.py sets the BLAS thread count, if the caller did not
        assert machine["blas_threads"] == os.environ["OPENBLAS_NUM_THREADS"]
        assert not set(machine) & set(rows[0])

    def test_repeat_runs_log_identically(self, tmp_path, capsys):
        logs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            cfg = write_config(tmp_path, name=f"{name}.json", out_dir=str(out_dir))
            assert main(["train", "--config", cfg]) == 0
            logs.append(drop_wall_time(log_lines(out_dir)))
        assert logs[0] == logs[1]

    def test_epoch_override_flag(self, tmp_path, capsys):
        # the epoch count is the config's schedule.epochs; no flag overrides it
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir), **{"schedule.epochs": 1})
        assert main(["train", "--config", cfg]) == 0
        assert len(log_lines(out_dir)) == 1
        saved = json.loads((out_dir / "config.json").read_text())
        assert saved["schedule"]["epochs"] == 1

    @pytest.mark.parametrize("flag,value", [("--seed", "5"), ("--epochs", "1"),
                                            ("--batch-size", "8")])
    def test_config_states_the_run_and_no_flag_restates_it(self, tmp_path, capsys, flag,
                                                           value):
        assert parser_flags()["train"] == {"--config", "--output-dir", "--resume"}
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir))
        assert main(["train", "--config", cfg, flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("out_dir,flags,line", [
        ("", [], "output_dir: must be a non-empty path, got ''"),
        (None, ["--output-dir", ""], "error: --output-dir must be a non-empty path")],
        ids=["config", "flag"])
    def test_empty_output_dir_is_refused(self, tmp_path, capsys, monkeypatch, out_dir, flags,
                                         line):
        # an empty path is not read as unset, which would write under ./runs
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, out_dir=out_dir)
        assert main(["train", "--config", cfg, *flags]) == 2
        err = capsys.readouterr().err
        assert line in err and err.count("error:") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_resume_continues_epoch_numbering(self, tmp_path, capsys):
        # a run is lengthened by raising schedule.epochs in its config.json
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir), **{"schedule.epochs": 1})
        assert main(["train", "--config", cfg]) == 0
        assert len(log_lines(out_dir)) == 1
        saved = out_dir / "config.json"
        doc = json.loads(saved.read_text())
        doc["schedule"]["epochs"] = 2
        saved.write_text(json.dumps(doc))
        assert main(["train", "--config", str(saved), "--resume"]) == 0
        assert [r["epoch"] for r in log_lines(out_dir)] == [0, 1]
        assert json.loads(saved.read_text())["schedule"]["epochs"] == 2

    def test_resumed_summary_reports_the_whole_run(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir))
        assert main(["train", "--config", cfg]) == 0
        fresh = json.loads((out_dir / "summary.json").read_text())
        # resuming a finished run trains no epoch but reports the same best epoch
        assert main(["train", "--config", cfg, "--resume"]) == 0
        resumed = json.loads((out_dir / "summary.json").read_text())
        rows = log_lines(out_dir)
        best = max(rows, key=lambda r: r["eval_top1"])  # the first peak
        for summary in (fresh, resumed):
            assert (summary["best_top1"], summary["best_top5"], summary["best_epoch"]) == (
                best["eval_top1"], best["eval_top5"], best["epoch"])
        assert (fresh["epochs_run"], resumed["epochs_run"]) == (2, 0)

    def test_failed_summary_write_keeps_previous_summary(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir))
        assert main(["train", "--config", cfg]) == 0
        before = (out_dir / "summary.json").read_text()

        # a value json cannot encode makes the resumed run's summary write raise
        monkeypatch.setattr("multipod.cli._machine", lambda: {"nproc": object()})
        with pytest.raises(TypeError, match="not JSON serializable"):
            main(["train", "--config", cfg, "--resume"])
        assert (out_dir / "summary.json").read_text() == before
        assert not [p.name for p in out_dir.iterdir() if p.name.endswith(".tmp")]

    def test_invalid_config_reports_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"augmentation.routing": "alternating"})
        assert main(["train", "--config", cfg]) == 2
        assert "routing" in capsys.readouterr().err

    def test_every_bad_field_is_reported_by_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"schedule.epochs": 0, "schedule.batch_size": 0,
                                        "augmentation.pad": -1, "augmentation.crop_size": 0,
                                        "augmentation.routing": "alternating"})
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        for line in ("schedule.epochs: must be >= 1, got 0",
                     "schedule.batch_size: must be >= 1, got 0",
                     "augmentation.pad: must be >= 0, got -1",
                     "augmentation.crop_size: must be >= 1, got 0",
                     "augmentation.routing: must be one of"):
            assert line in err

    def test_unknown_keys_reported_by_path(self, tmp_path, capsys):
        doc = toy_config_doc(**{"schedule.epoch": 5, "augmentation.hflip": 0.5,
                                "augmentation.normalize.meen": [0.5, 0.5, 0.5]})
        doc["modle"] = doc.pop("model")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        for path in ("schedule.epoch", "augmentation.hflip", "augmentation.normalize.meen",
                     "modle"):
            assert f"{path}: unknown key" in err
        assert "model: required object" in err

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_written_config_parses_back_equal(self, path):
        cfg = parse_config(path.read_text())
        assert parse_config(json.loads(json.dumps(cfg.to_dict()))) == cfg
        assert parse_config(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_misspelt_family_is_a_config_error(self):
        with pytest.raises(ConfigError, match="model.family: .*got 'resnet-cfar'"):
            parse_config(toy_config_doc(**{"model.family": "resnet-cfar"}))

    def test_normalize_that_is_not_an_object_is_a_config_error(self):
        norm = [[0.5, 0.5, 0.5], [0.25, 0.25, 0.25]]
        with pytest.raises(ConfigError, match=r"augmentation.normalize: must be an object, got \[\["):
            parse_config(toy_config_doc(**{"augmentation.normalize": norm}))

    def test_fractional_integer_fields_are_config_errors(self):
        # int() would truncate each of these without a word
        with pytest.raises(ConfigError) as e:
            parse_config(toy_config_doc(**{"augmentation.pad": 2.5, "schedule.epochs": 2.7,
                                           "schedule.milestones": [0.5], "model.pods": 2.5}))
        for line in ("augmentation.pad: must be an integer, got 2.5",
                     "schedule.epochs: must be an integer, got 2.7",
                     "schedule.milestones: must be a list of integers, got [0.5]",
                     "model.pods: must be an integer, got 2.5"):
            assert line in str(e.value)
        assert "must lie in" not in str(e.value)
        # an integral number is still an integer
        cfg = parse_config(toy_config_doc(**{"augmentation.pad": 2.0, "schedule.epochs": 3.0}))
        assert (cfg.augmentation.pad, cfg.schedule.epochs) == (2, 3)

    def test_integral_numbers_are_integers_in_every_section(self):
        cfg = parse_config(toy_config_doc(**{"seed": 2.0, "data.samples": 24.0,
                                             "model.n": 1.0}))
        assert (cfg.seed, cfg.data["samples"], cfg.model.base.n) == (2, 24, 1)
        assert json.dumps(cfg.to_dict()) == json.dumps(parse_config(
            toy_config_doc(**{"seed": 2})).to_dict())

    @pytest.mark.parametrize("path,value,line", WRONG_KINDS,
                             ids=[f"{path}={value!r}" for path, value, _ in WRONG_KINDS])
    def test_value_of_the_wrong_kind_is_one_line_and_leaves_nothing(self, tmp_path, capsys,
                                                                    path, value, line):
        # the config goes through JSON text, which spells inf and nan as
        # Infinity and NaN
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir), **{path: value})
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: invalid configuration:",
                                                        f"  {line}"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("tweaks,lines", MANY_LINES.values(), ids=MANY_LINES.keys())
    def test_failing_section_lists_every_line(self, tmp_path, capsys, tweaks, lines):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir), **tweaks)
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: invalid configuration:",
                                                        *(f"  {line}" for line in lines)]
        assert not out_dir.exists()

    @pytest.mark.parametrize("path,value,high", [("model.n", 10**400, MAX_BLOCKS),
                                                 ("model.pods", 1e300, MAX_PODS)],
                             ids=["model.n=10**400", "model.pods=1e300"])
    def test_absurd_size_is_one_line_and_leaves_nothing(self, tmp_path, capsys, path, value,
                                                         high):
        line = f"  {path}: must be <= {high}, got {int(value)}"
        with pytest.raises(ConfigError) as e:  # before main, which would build the model
            parse_config(toy_config_doc(**{path: value}))
        assert str(e.value).splitlines()[1:] == [line]
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir), **{path: value})
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: invalid configuration:", line]
        assert not out_dir.exists()

    def test_augmentation_seed_must_be_the_run_seed(self, tmp_path, capsys):
        # config.json writes it equal to seed, so an equal one is accepted
        cfg = parse_config(toy_config_doc(**{"seed": 5, "augmentation.seed": 5}))
        assert cfg == parse_config(toy_config_doc(seed=5))
        assert cfg.augmentation.seed == 5
        out_dir = tmp_path / "run"
        other = write_config(tmp_path, out_dir=str(out_dir), **{"augmentation.seed": 7})
        assert main(["train", "--config", other]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid configuration:", "  augmentation.seed: must equal seed 0, got 7"]
        assert not out_dir.exists()
        # editing only seed in a written config.json moves both seeds
        cfg = write_config(tmp_path, out_dir=str(out_dir), **{"schedule.epochs": 1})
        assert main(["train", "--config", cfg]) == 0
        again = tmp_path / "again"
        doc = json.loads((out_dir / "config.json").read_text())
        doc.update(seed=5, output_dir=str(again))
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        assert main(["train", "--config", str(edited)]) == 0
        saved = json.loads((again / "config.json").read_text())
        assert saved["seed"] == 5 and "seed" not in saved["augmentation"]
        assert parse_config(saved).augmentation.seed == 5
        assert training.load_checkpoint(again / "last.ckpt").seed == 5

    def test_config_json_stating_both_seeds_trains_resumes_and_evaluates(self, tmp_path,
                                                                         capsys):
        # as config.json was written before it stated its seed once
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir),
                           **{"seed": 5, "augmentation.seed": 5, "schedule.epochs": 1})
        assert main(["train", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--resume"]) == 0
        assert main(["eval", "--checkpoint", str(out_dir / "last.ckpt"), "--config", cfg]) == 0
        assert training.load_checkpoint(out_dir / "last.ckpt").seed == 5

    def test_nested_spec_lines_join_their_section(self):
        with pytest.raises(ConfigError) as e:
            parse_config(toy_config_doc(**{"model.family": "resnet-cfar", "model.pods": 0,
                                           "augmentation.jitter": {"contrast": [2, 3]},
                                           "augmentation.pad": -1}))
        for line in ("model.family: must be one of", "model.pods: must be an int >= 1, got 0",
                     "augmentation.jitter.contrast: must be a positive interval",
                     "augmentation.pad: must be >= 0, got -1"):
            assert line in str(e.value)
        # an omitted jitter range takes its default
        cfg = parse_config(toy_config_doc(**{"augmentation.jitter": {"contrast": [0.9, 1.1]}}))
        assert cfg.augmentation.jitter == JitterSpec(contrast=(0.9, 1.1))

    def test_missing_required_key_is_named(self):
        doc = toy_config_doc()
        del doc["model"]["n"], doc["data"]["kind"]
        with pytest.raises(ConfigError) as e:
            parse_config(doc)
        assert str(e.value).splitlines()[1:] == ["  model.n: required", "  data.kind: required"]

    @pytest.mark.parametrize("tweak", [{"seed": 5}, {"model.pods": 3, "model.seeds": [0, 1, 2]}],
                             ids=["seed", "pods"])
    def test_refused_resume_leaves_the_run_directory_as_it_was(self, tmp_path, capsys, tweak):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir), **{"schedule.epochs": 1})
        assert main(["train", "--config", cfg]) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        other = write_config(tmp_path, "other.json", out_dir=str(out_dir), **tweak)
        assert main(["train", "--config", other, "--resume"]) == 2
        assert "checkpoint" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_resumed_run_reports_the_first_peak_of_its_whole_log(self, tmp_path, capsys,
                                                                 monkeypatch):
        out_dir = tmp_path / "run"
        first = write_config(tmp_path, "first.json", out_dir=str(out_dir),
                             **{"schedule.epochs": 1})
        assert main(["train", "--config", first]) == 0
        results = []
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: results.append(
            training.train(*args, **kwargs)) or results[-1])
        cfg = write_config(tmp_path, out_dir=str(out_dir), **{"schedule.epochs": 3})
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--resume"]) == 0
        log = training.read_log(out_dir / "train_log.jsonl")
        assert [r.epoch for r in log] == [0, 1, 2]
        tops = [r.eval_top1 for r in log]
        peak = log[tops.index(max(tops))]
        [result] = results
        assert result.best == peak and len(result.records) == 2
        summary = json.loads((out_dir / "summary.json").read_text())
        assert (summary["best_top1"], summary["best_top5"], summary["best_epoch"]) == (
            peak.eval_top1, peak.eval_top5, peak.epoch)
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"best eval top1={peak.eval_top1:.4f}; artifacts in {out_dir}")

    @pytest.mark.parametrize("edit", [lambda log: log.write_text(log.read_text().splitlines(
        keepends=True)[1]), lambda log: log.unlink()], ids=["epoch-missing", "deleted"])
    def test_resume_without_each_epochs_record_is_refused(self, tmp_path, capsys, edit):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir))
        assert main(["train", "--config", cfg]) == 0
        edit(out_dir / "train_log.jsonl")
        line = refused_resume(cfg, out_dir, capsys)
        assert line == (f"error: cannot resume at epoch 2: {out_dir / 'train_log.jsonl'} "
                        "does not log epochs 0 to 1, each once and in order")

    def test_fresh_run_crashed_in_a_used_directory_leaves_nothing_to_resume(
            self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir))
        assert main(["train", "--config", cfg]) == 0

        def crash(*args):
            raise RuntimeError("crash in the first step")

        monkeypatch.setattr(training, "sgd_step", crash)
        with pytest.raises(RuntimeError, match="crash"):
            main(["train", "--config", cfg])
        monkeypatch.undo()
        # the previous run's checkpoints and summary are gone, its log emptied
        assert sorted(p.name for p in out_dir.iterdir()) == ["config.json", "train_log.jsonl"]
        assert (out_dir / "train_log.jsonl").read_text() == ""
        line = refused_resume(cfg, out_dir, capsys)
        assert line == f"error: checkpoint not found: {out_dir / 'last.ckpt'}"

    def test_output_dir_that_is_a_file_is_one_error_line(self, tmp_path, capsys):
        out_file = tmp_path / "taken"
        out_file.write_text("not a directory\n")
        cfg = write_config(tmp_path, out_dir=str(out_file))
        before = sorted(tmp_path.iterdir())
        assert main(["train", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and str(out_file) in line
        assert sorted(tmp_path.iterdir()) == before
        assert out_file.read_text() == "not a directory\n"

    def test_cifar10_crop_larger_than_padded_image_leaves_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        cfg = write_config(tmp_path, out_dir=str(out_dir),
                           **{"data": {"kind": "cifar10", "path": str(fake_cifar_dir(data_dir))},
                              "model.classes": 10, "augmentation.pad": 4,
                              "augmentation.crop_size": 48})
        assert main(["train", "--config", cfg]) == 2
        assert "augmentation.crop_size" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_invalid_data_field_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"data.classes": 1})
        assert main(["train", "--config", cfg]) == 2
        assert "data.classes: must be an int >= 2" in capsys.readouterr().err

    def test_fewer_images_than_classes_is_refused_by_path(self, tmp_path, capsys):
        # both splits are rendered from one set, which needs an image per class
        parse_config(toy_config_doc(**{"data.samples": 2, "data.eval_samples": 2}))
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir),
                           **{"data.samples": 2, "data.eval_samples": 1})
        before = sorted(tmp_path.iterdir())
        assert main(["train", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[1:] == [
            "  data.samples: samples + eval_samples must be >= classes 4, got 2 + 1"]
        assert sorted(tmp_path.iterdir()) == before

    def test_inconsistent_classes_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"model.classes": 7})
        assert main(["train", "--config", cfg]) == 2
        assert "classes" in capsys.readouterr().err

    def test_missing_dataset_path(self, tmp_path, capsys, monkeypatch):
        # no output dir is set, so the run would write under ./runs
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, **{"data": {"kind": "cifar10",
                                                 "path": str(tmp_path / "nowhere")}},
                           **{"model.classes": 10})
        assert main(["train", "--config", cfg]) == 2
        assert "not found" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_divergence_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out_dir=str(tmp_path / "run"),
                           **{"schedule.base_lr": 1e18})
        with np.errstate(all="ignore"):
            assert main(["train", "--config", cfg]) == 3
        assert "numerical abort" in capsys.readouterr().err


def _leaf_paths(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, f"{prefix}{key}.")
        else:
            yield prefix + key


# every field of every spec, with arguments that make the others valid; a
# field with no row in its spec's table would pass a foreign value through
SPEC_FIELDS = [(cls, kwargs, field.name)
               for cls, kwargs in ((PodBaseSpec, {"family": CIFAR_FAMILY, "n": 1}),
                                   (MultiPodSpec, {"pods": 2, "base": resnet_cifar(1)}),
                                   (JitterSpec, {}), (AugmentationSpec, {}),
                                   (TrainingSchedule, {}))
               for field in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls,kwargs,field", SPEC_FIELDS,
                         ids=[f"{cls.__name__}.{field}" for cls, _, field in SPEC_FIELDS])
def test_every_spec_field_refuses_a_foreign_value_by_path(cls, kwargs, field):
    with pytest.raises(FieldError) as e:
        cls(**{**kwargs, field: object()})
    path = {"mean": "normalize.mean", "std": "normalize.std"}.get(field, field)
    assert [line.partition(":")[0] for line in e.value.lines] == [path]


@pytest.mark.parametrize("path,high,others", BOUNDS, ids=[path for path, *_ in BOUNDS])
def test_each_size_has_an_upper_bound(path, high, others):
    parse_config(toy_config_doc(**{path: high, **others}))
    with pytest.raises(ConfigError) as e:
        parse_config(toy_config_doc(**{path: high + 1}))
    assert str(e.value).splitlines()[1:] == [f"  {path}: must be <= {high}, got {high + 1}"]


@pytest.mark.parametrize("path", [*_leaf_paths(toy_config_doc()), "data.path"])
def test_every_config_value_refuses_a_foreign_value_by_path(path):
    tweaks = {path: object()}
    if path == "data.path":
        tweaks = {"data": {"kind": "cifar10", "path": object()}, "model.classes": 10}
    with pytest.raises(ConfigError) as e:
        parse_config(toy_config_doc(**tweaks))
    assert [line.partition(":")[0] for line in str(e.value).splitlines()[1:]] == [f"  {path}"]


@pytest.fixture
def trained_run(tmp_path):
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path, out_dir=str(out_dir))
    code = main(["train", "--config", cfg])
    assert code == 0
    return cfg, out_dir


class TestEval:
    def test_center_protocol_is_deterministic(self, trained_run, capsys):
        cfg, out_dir = trained_run
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert main(["eval", "--checkpoint", str(out_dir / "best.ckpt"),
                         "--config", cfg]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("top1=")
        assert "top5=" in outputs[0] and "loss=" in outputs[0]

    def test_restored_model_draws_no_initial_weight(self, trained_run, capsys, param_draws):
        cfg, out_dir = trained_run
        param_draws.clear()
        assert main(["eval", "--checkpoint", str(out_dir / "last.ckpt"), "--config", cfg]) == 0
        assert param_draws == []

    def test_ten_crop_protocol(self, trained_run, capsys):
        cfg, out_dir = trained_run
        assert main(["eval", "--checkpoint", str(out_dir / "last.ckpt"),
                     "--config", cfg, "--protocol", "tencrop",
                     "--crop-size", "12"]) == 0

    def test_model_mismatch_rejected(self, trained_run, tmp_path, capsys):
        cfg, out_dir = trained_run
        other = write_config(tmp_path, name="other.json", **{"model.pods": 1,
                                                             "model.seeds": [0]})
        assert main(["eval", "--checkpoint", str(out_dir / "best.ckpt"),
                     "--config", other]) == 2
        assert "spec" in capsys.readouterr().err

    def test_corrupt_checkpoint_rejected(self, trained_run, tmp_path, capsys):
        cfg, _ = trained_run
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"\x00" * 64)
        assert main(["eval", "--checkpoint", str(bad), "--config", cfg]) == 2

    def test_missing_checkpoint_rejected(self, trained_run, capsys):
        cfg, out_dir = trained_run
        assert main(["eval", "--checkpoint", str(out_dir / "gone.ckpt"),
                     "--config", cfg]) == 2


@pytest.fixture
def cifar10_eval(tmp_path):
    """A checkpoint trained for one epoch and two cifar10 configs of its run:
    one whose dataset holds all six files, one whose dataset holds the test
    file alone."""
    out_dir, full, test_only = tmp_path / "run", tmp_path / "full", tmp_path / "test-only"
    full.mkdir()
    test_only.mkdir()
    shutil.copy(fake_cifar_dir(full) / "test_batch.bin", test_only)
    configs = [write_config(tmp_path, f"{d.name}.json", out_dir=str(out_dir), **{
        "data": {"kind": "cifar10", "path": str(d)}, "model.classes": 10, "schedule.epochs": 1})
        for d in (full, test_only)]
    assert main(["train", "--config", configs[0]]) == 0
    return str(out_dir / "last.ckpt"), configs


@pytest.mark.parametrize("protocol", ["center", "tencrop"])
def test_eval_needs_no_train_file(cifar10_eval, capsys, protocol):
    ckpt, configs = cifar10_eval
    lines = []
    for cfg in configs:
        assert main(["eval", "--checkpoint", ckpt, "--config", cfg, "--protocol", protocol]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1] and lines[0].startswith("top1=")


def test_eval_reads_the_test_file_alone(cifar10_eval, capsys, monkeypatch):
    ckpt, [full, _] = cifar10_eval
    read, load = [], data._load_record_file
    monkeypatch.setattr(data, "_load_record_file",
                        lambda path: read.append(os.path.basename(path)) or load(path))
    assert main(["eval", "--checkpoint", ckpt, "--config", full]) == 0
    assert read == ["test_batch.bin"]


@pytest.fixture
def cifar10_train_only(tmp_path):
    """Two cifar10 configs: one whose dataset holds all six files, one whose
    dataset holds the five train files alone."""
    full, train_only = tmp_path / "full", tmp_path / "train-only"
    full.mkdir()
    train_only.mkdir()
    for b in range(1, 6):
        shutil.copy(fake_cifar_dir(full) / f"data_batch_{b}.bin", train_only)
    return [write_config(tmp_path, f"{d.name}.json", **{
        "data": {"kind": "cifar10", "path": str(d)}, "model.classes": 10})
        for d in (full, train_only)]


def test_augment_preview_needs_no_test_file(cifar10_train_only, tmp_path, capsys):
    views = []
    for i, cfg in enumerate(cifar10_train_only):
        out = tmp_path / f"views{i}"
        assert main(["augment-preview", "--config", cfg, "--out", str(out), "--index", "7"]) == 0
        views.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert views[0] == views[1] and len(views[0]) == 3


def test_augment_preview_reads_the_train_files_alone(cifar10_train_only, tmp_path, capsys,
                                                     monkeypatch):
    read, load = [], data._load_record_file
    monkeypatch.setattr(data, "_load_record_file",
                        lambda path: read.append(os.path.basename(path)) or load(path))
    assert main(["augment-preview", "--config", cifar10_train_only[0],
                 "--out", str(tmp_path / "views")]) == 0
    assert read == [f"data_batch_{b}.bin" for b in range(1, 6)]


@pytest.fixture(scope="module")
def one_epoch_run(tmp_path_factory):
    # a run of a two-epoch config stopped after its first epoch
    tmp = tmp_path_factory.mktemp("one-epoch")
    run = tmp / "run"
    first = write_config(tmp, "first.json", out_dir=str(run), **{"schedule.epochs": 1})
    assert main(["train", "--config", first]) == 0
    return write_config(tmp, out_dir=str(run)), run


def refused_resume(cfg, out_dir, capsys):
    """The one error line of a ``--resume`` into ``out_dir`` that must be
    refused before any file there changes."""
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert main(["train", "--config", cfg, "--resume", "--output-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
    [line] = captured.err.splitlines()
    return line


@pytest.mark.parametrize("edit,message", BAD_CHECKPOINTS.values(), ids=BAD_CHECKPOINTS.keys())
def test_checkpoint_that_breaks_the_layout_is_one_error_line(one_epoch_run, tmp_path, capsys,
                                                             edit, message):
    cfg, run = one_epoch_run
    out_dir = shutil.copytree(run, tmp_path / "run")
    edit(out_dir / "last.ckpt")
    lines = [refused_resume(cfg, out_dir, capsys)]
    assert main(["eval", "--checkpoint", str(out_dir / "last.ckpt"), "--config", cfg]) == 2
    lines += capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith("error: ") and str(out_dir / "last.ckpt") in line
        assert re.search(message, line)


@pytest.mark.parametrize("bad,message", BAD_LOG_LINES.values(), ids=BAD_LOG_LINES.keys())
def test_log_line_that_is_not_a_record_is_one_error_line(one_epoch_run, tmp_path, capsys,
                                                         bad, message):
    cfg, run = one_epoch_run
    out_dir = shutil.copytree(run, tmp_path / "run")
    with open(out_dir / "train_log.jsonl", "a") as f:
        f.write(bad + "\n")
    line = refused_resume(cfg, out_dir, capsys)
    assert line.startswith(f"error: {out_dir / 'train_log.jsonl'} line 2: ")
    assert re.search(message, line)


@pytest.mark.parametrize("crop_size", ["-3", "0"])
def test_ten_crop_below_one_pixel_is_one_error_line(one_epoch_run, capsys, crop_size):
    cfg, run = one_epoch_run
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "last.ckpt"), "--config", cfg,
                 "--protocol", "tencrop", "--crop-size", crop_size]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: crop size {crop_size} must be >= 1"]


def test_crop_size_with_center_protocol_is_refused(one_epoch_run, capsys):
    cfg, run = one_epoch_run
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "last.ckpt"), "--config", cfg,
                 "--crop-size", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: --crop-size applies only to --protocol tencrop")


# PPM files whose header breaks the grammar
BAD_PPM_HEADERS = {"width-minus": b"P6\n-4 4\n255\n", "width-plus": b"P6\n+4 4\n255\n",
                   "no-maxval": b"P6\n4 4\n",
                   "width-5000-digits": b"P6\n" + b"9" * 5000 + b" 4\n255\n"}


@pytest.mark.parametrize("header", BAD_PPM_HEADERS.values(), ids=BAD_PPM_HEADERS.keys())
def test_ppm_header_that_breaks_the_grammar_is_refused(tmp_path, capsys, header):
    path = tmp_path / "x.ppm"
    path.write_bytes(header + bytes(48))
    refusal = f"{path}: not a binary PPM (P6) image with a decimal header"
    with pytest.raises(DataError) as e:
        read_ppm(path)
    assert str(e.value) == refusal
    out = tmp_path / "views"
    assert main(["augment-preview", "--config", write_config(tmp_path), "--image", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {refusal}"]
    assert not out.exists()


class TestPpm:
    def test_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(3, 5, 7)).astype(np.float32) / 255.0
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (3, 5, 7)
        assert np.allclose(back, img, atol=1e-7)

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# made by hand\n2 1\n255\n" + bytes(6))
        assert read_ppm(path).shape == (3, 1, 2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
        with pytest.raises(DataError, match="P6"):
            read_ppm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(DataError, match="maxval"):
            read_ppm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(DataError, match="truncated"):
            read_ppm(path)


JITTER = {op: [0.6, 1.4] for op in ("brightness", "contrast", "saturation")}


class TestAugmentPreview:
    # each pod jitters its own view of the sample
    JITTERED = {"augmentation.routing": "per-pod-jitter", "augmentation.jitter": JITTER}
    # the crop is the whole image, never flipped
    UNMOVED = {"augmentation.pad": 0, "augmentation.hflip_prob": 0.0}

    @staticmethod
    def preview(tmp_path, *flags, out="views", **tweaks):
        """augment-preview of a toy config with ``tweaks``: its exit code and --out."""
        cfg = write_config(tmp_path, **tweaks)
        out = tmp_path / out
        return main(["augment-preview", "--config", cfg, "--out", str(out), *flags]), out

    def test_writes_one_file_per_pod(self, tmp_path, capsys):
        code, out = self.preview(tmp_path, **{"model.pods": 3, "model.seeds": None})
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["original.ppm", "pod0.ppm", "pod1.ppm", "pod2.ppm"]

    def test_per_pod_jitter_views_differ(self, tmp_path, capsys):
        _, out = self.preview(tmp_path, **self.JITTERED)
        assert (out / "pod0.ppm").read_bytes() != (out / "pod1.ppm").read_bytes()

    def test_identical_routing_reproduces_original(self, tmp_path, capsys):
        _, out = self.preview(tmp_path, **{"augmentation.jitter": JITTER}, **self.UNMOVED)
        original = (out / "original.ppm").read_bytes()
        assert (out / "pod0.ppm").read_bytes() == original
        assert (out / "pod1.ppm").read_bytes() == original

    def test_unit_jitter_ranges_reproduce_original(self, tmp_path, capsys):
        unit = {op: [1, 1] for op in JITTER}
        _, out = self.preview(tmp_path, **{**self.JITTERED, **self.UNMOVED,
                                           "augmentation.jitter": unit})
        original = (out / "original.ppm").read_bytes()
        assert (out / "pod0.ppm").read_bytes() == original

    def test_previews_are_reproducible(self, tmp_path, capsys):
        blobs = []
        for name in ("a", "b"):
            _, out = self.preview(tmp_path, "--index", "5", out=name, **self.JITTERED)
            blobs.append(tuple((out / f).read_bytes()
                               for f in ("original.ppm", "pod0.ppm", "pod1.ppm")))
        assert blobs[0] == blobs[1]

    def test_ppm_input_round_trip(self, tmp_path, capsys, rng):
        src = tmp_path / "input.ppm"
        img = rng.integers(0, 256, size=(3, 16, 16)).astype(np.float32) / 255.0
        write_ppm(src, img)
        code, out = self.preview(tmp_path, "--image", str(src), **self.UNMOVED)
        assert code == 0
        assert (out / "original.ppm").read_bytes() == src.read_bytes()
        assert (out / "pod0.ppm").read_bytes() == src.read_bytes()

    def test_image_needs_no_dataset(self, tmp_path, capsys, rng):
        # a cifar10 config whose dataset is not on disk previews a given image
        src = tmp_path / "input.ppm"
        write_ppm(src, rng.random((3, 32, 32)))
        code, out = self.preview(tmp_path, "--image", str(src), **self.JITTERED, **{
            "data": {"kind": "cifar10", "path": str(tmp_path / "absent")},
            "model.classes": 10, "augmentation.crop_size": 32})
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["original.ppm", "pod0.ppm", "pod1.ppm"]

    @pytest.mark.parametrize("index", [0, 13])
    def test_each_pod_view_is_what_training_feeds_that_pod(self, tmp_path, capsys, monkeypatch,
                                                          index):
        tweaks = {**self.JITTERED, "seed": 4, "model.pods": 3, "model.seeds": None,
                  "schedule.epochs": 1}
        fed = {}  # sample index -> the arrays train() fed each pod in epoch 0

        def spy(pixels, spec, k, epoch=0, indices=None, train=True):
            views = make_pod_inputs(pixels, spec, k, epoch, indices, train)
            if train and epoch == 0:
                fed.update((int(n), [v[j] for v in views]) for j, n in enumerate(indices))
            return views
        monkeypatch.setattr(training, "make_pod_inputs", spy)
        cfg = write_config(tmp_path, out_dir=str(tmp_path / "run"), **tweaks)
        assert main(["train", "--config", cfg]) == 0
        code, out = self.preview(tmp_path, "--index", str(index), **tweaks)
        assert code == 0

        run = parse_config(toy_config_doc(**tweaks))
        samples, _ = load_data(run)
        aug = run.augmentation
        unnormalized = dataclasses.replace(aug, mean=(0.0, 0.0, 0.0), std=(1.0, 1.0, 1.0))
        # the whole train set in one batch: a sample's views do not depend on its batch
        views = make_pod_inputs(samples.pixels, unnormalized, 3, epoch=0,
                                indices=np.arange(len(samples)))
        assert len(fed[index]) == 3
        for pod, (view, given) in enumerate(zip(views, fed[index])):
            np.testing.assert_array_equal(normalize(view[index], aug.mean, aug.std), given)
            write_ppm(tmp_path / "want.ppm", view[index])
            assert (out / f"pod{pod}.ppm").read_bytes() == (tmp_path / "want.ppm").read_bytes()

    @pytest.mark.parametrize("path,value,line", [
        ("augmentation.pad", -1, "augmentation.pad: must be >= 0, got -1"),
        ("augmentation.hflip_prob", 2, "augmentation.hflip_prob: must be in [0,1], got 2.0"),
        ("augmentation.jitter", {"brightness": [2, 3]}, "augmentation.jitter.brightness: "
         "must be a positive interval containing 1, got (2.0, 3.0)"),
        ("augmentation.crop_size", 40, "augmentation.crop_size: 40 exceeds padded image size 20"),
        ("model.pods", 0, "model.pods: must be an int >= 1, got 0"),
        ("data.size", 0, "data.size: must be an int >= 8, got 0")])
    def test_bad_setting_is_refused_by_its_config_path(self, tmp_path, capsys, path, value,
                                                       line):
        code, out = self.preview(tmp_path, **{path: value})
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: invalid configuration:", f"  {line}"]
        assert not out.exists()

    def test_image_smaller_than_the_crop_rejected(self, tmp_path, capsys, rng):
        src = tmp_path / "input.ppm"
        write_ppm(src, rng.random((3, 8, 8)))
        code, out = self.preview(tmp_path, "--image", str(src))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {src}: augmentation.crop_size: 16 exceeds padded image size 12"]
        assert not out.exists()

    def test_negative_index_rejected(self, tmp_path, capsys):
        code, out = self.preview(tmp_path, "--index", "-1")
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: --index -1 must be >= 0"]
        assert not out.exists()

    def test_index_past_the_train_set_rejected(self, tmp_path, capsys):
        code, out = self.preview(tmp_path, "--index", "24")
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --index 24 must be < 24, the train set's size"]
        assert not out.exists()

    def test_out_that_is_a_file_is_one_error_line(self, tmp_path, capsys):
        (tmp_path / "views").write_text("not a directory\n")
        before = sorted(tmp_path.iterdir())
        code, out = self.preview(tmp_path)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and str(out) in line
        assert sorted(tmp_path.iterdir()) == sorted(before + [tmp_path / "config.json"])
        assert out.read_text() == "not a directory\n"

    def test_unreadable_image_rejected(self, tmp_path, capsys):
        code, out = self.preview(tmp_path, "--image", str(tmp_path / "missing.ppm"))
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot read image {tmp_path / 'missing.ppm'}")
        assert not out.exists()


def test_readme_cli_table_names_each_subcommands_flags():
    # a row's first cell is the usage line of one subcommand
    rows = [re.split(r"(?<!\\)\|", line)[1]
            for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("| `multipod ")]
    documented = {row.split()[1]: set(re.findall(r"--[a-z][a-z-]*", row)) for row in rows}
    assert len(documented) == len(rows)
    assert documented == parser_flags()


@pytest.mark.parametrize("command,required,flags", [
    ("train", [], ["--output", "runs"]), ("count-params", [], ["--exp", "1"]),
    ("gradcheck", [], ["--sample", "97"]), ("gradcheck", [], ["--h"]),
    ("eval", ["--checkpoint", "c"], ["--proto", "center"]),
    ("augment-preview", ["--out", "views"], ["--ind", "0"])])
def test_a_flag_is_read_only_as_spelled(tmp_path, capsys, command, required, flags):
    # a prefix is no flag: `--h` is not `--help`, and a removed flag is not read as a kept one
    assert main([command, "--config", write_config(tmp_path), *required, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert refusal(captured.err) == unrecognized(flags)


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "multipod", "count-params",
         "--config", str(ROOT / "configs" / "cifar10-tripod.json"), "--expect", "817402"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "817402"


def test_closed_stdout_ends_quietly():
    # `multipod gradcheck ... --verbose | head -3`: the reader takes three
    # progress lines and closes the pipe while many tensors are still to
    # check; the next line ends the command, with no traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "multipod", "gradcheck", "--config",
         str(ROOT / "configs" / "toy-synthetic.json"), "--sample-stride", "7", "--verbose"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == cli.EXIT_PIPE == 141
    assert [line.split(b":")[0] for line in lines] == [
        b"  pod0.stem.conv.weight", b"  pod0.stem.bn.gamma", b"  pod0.stem.bn.beta"]
    assert err == b""


def test_stdout_closed_before_the_first_line():
    # the result line is still buffered when the command returns: main's
    # flush meets the closed pipe, and the interpreter's flush at exit is quiet
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "multipod", "count-params", "--config",
             str(ROOT / "configs" / "cifar10-tripod.json")],
            stdout=write, stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, b"")


def without_blas_pins():
    """The environment with no BLAS thread count set."""
    return {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@pytest.mark.parametrize("preset,want", [(None, "1"), ("2", "2")])
def test_package_pins_blas_unless_the_caller_did(tmp_path, preset, want):
    # a fresh process with neither variable set runs BLAS on one thread; a
    # caller's setting wins
    env = without_blas_pins()
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path, out_dir=str(out_dir), **{"schedule.epochs": 1})
    proc = subprocess.run([sys.executable, "-m", "multipod", "train", "--config", cfg],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["machine"]["blas_threads"] == want


def test_importing_a_module_loads_it_alone():
    # the package puts no layer in front of its modules: `import multipod`
    # pins BLAS and loads no numpy, and `import multipod.tensor` loads no
    # other module of the package
    code = ("import json, os, sys, multipod; numpy = 'numpy' in sys.modules; "
            "import multipod.tensor; print(json.dumps([numpy, sorted(m for m in sys.modules "
            "if m.startswith('multipod')), os.environ['OPENBLAS_NUM_THREADS']]))")
    proc = subprocess.run([sys.executable, "-c", code], env=without_blas_pins(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, ["multipod", "multipod.tensor"], "1"]
