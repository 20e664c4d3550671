import dataclasses
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from multipod.config import load_config, load_data
from multipod.training import NumericalAbort
from test_cli import toy_config_doc, tweaked

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "subset_comparison.py"
spec = importlib.util.spec_from_file_location("subset_comparison", SCRIPT)
subset_comparison = importlib.util.module_from_spec(spec)
spec.loader.exec_module(subset_comparison)

# a 3-pod model whose seeds are not range(3), jittered per pod, run seed 5
TWEAKS = {"seed": 5, "model.pods": 3, "model.seeds": [4, 0, 9],
          "model.fusion": "approach2-scale-elementwise", "model.combine_mode": "product",
          "augmentation.routing": "per-pod-jitter", "augmentation.jitter": {}}


def write_config(tmp_path, **tweaks):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(tweaked(toy_config_doc(), **{**TWEAKS, **tweaks})))
    return str(path)


@pytest.fixture
def runs(monkeypatch):
    """Each run the script trains, in order; the n-th run's best top-1 is n/10."""
    calls = []

    def record(model, train_batch, eval_batch, schedule, aug):
        calls.append(SimpleNamespace(spec=model.spec, train=train_batch, eval=eval_batch,
                                     schedule=schedule, aug=aug))
        return SimpleNamespace(best=SimpleNamespace(eval_top1=len(calls) / 10))

    monkeypatch.setattr(subset_comparison, "train", record)
    return calls


def test_each_group_trains_both_arms_on_the_config(tmp_path, capsys, runs):
    path = write_config(tmp_path)
    cfg = load_config(path)
    assert subset_comparison.main(["--config", path, "--groups", "2"]) == 0
    # group t: pod seeds raised by 3t, the single arm takes the first, augmentation seed 5 + t
    expected = []
    for seeds, seed in (((4, 0, 9), 5), ((7, 3, 12), 6)):
        aug = dataclasses.replace(cfg.augmentation, seed=seed)
        expected += [(dataclasses.replace(cfg.model, pods=1, seeds=seeds[:1]), aug),
                     (dataclasses.replace(cfg.model, seeds=seeds), aug)]
    assert [(r.spec, r.aug) for r in runs] == expected
    # group 0's 3-pod arm is the run `multipod train --config` trains
    assert (runs[1].spec, runs[1].aug) == (cfg.model, cfg.augmentation)
    train_batch, eval_batch = load_data(cfg)
    for r in runs:
        assert r.schedule == cfg.schedule
        assert np.array_equal(r.train.pixels, train_batch.pixels)
        assert np.array_equal(r.eval.labels, eval_batch.labels)
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["24 train / 8 eval samples, 2 epochs, milestones (), 3-pod vs single, "
                       "base n=1",
                       "note: synthetic substitute; numbers are not benchmark accuracy",
                       "  seed group 0: seeds (4, 0, 9)"]
    assert out[3].startswith("    single : best top1 0.1000 (")
    assert out[-3:] == ["single: mean best top1 0.2000 (std 0.1000)",
                        "3-pod: mean best top1 0.3000 (std 0.1000)",
                        "gap (3-pod minus single): +0.1000"]


def test_subset_is_a_fixed_permutations_head(tmp_path, capsys, runs):
    path = write_config(tmp_path)
    assert subset_comparison.main(["--config", path, "--subset", "10", "--groups", "1"]) == 0
    train_batch, eval_batch = load_data(load_config(path))
    order = np.random.default_rng(0).permutation(24)[:10]
    assert len(runs) == 2
    for r in runs:
        assert np.array_equal(r.train.pixels, train_batch.pixels[order])
        assert np.array_equal(r.train.labels, train_batch.labels[order])
        assert np.array_equal(r.eval.pixels, eval_batch.pixels)
    assert capsys.readouterr().out.startswith("10 train / 8 eval samples")


@pytest.mark.parametrize("flags,tweaks,line", [
    (["--groups", "0"], {}, "--groups 0 must be >= 1"),
    (["--subset", "0"], {}, "--subset 0 must be >= 1"),
    (["--subset", "25"], {}, "--subset 25 must be <= 24, the train set's size"),
    ([], {"model.pods": 1, "model.seeds": [4]}, "model.pods: must be >= 2"),
    ([], {"schedule.epochs": 0}, "schedule.epochs: must be >= 1, got 0"),
    ([], {"data": {"kind": "cifar10", "path": "nowhere"}, "model.classes": 10}, "not found"),
], ids=["groups", "subset-low", "subset-high", "one-pod", "config", "data"])
def test_bad_input_is_refused_before_any_run(tmp_path, capsys, monkeypatch, runs, flags, tweaks,
                                             line):
    monkeypatch.chdir(tmp_path)  # where the data path "nowhere" is looked for
    path = write_config(tmp_path, **tweaks)
    assert subset_comparison.main(["--config", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("error:") == 1
    assert line in captured.err
    assert captured.out == "" and runs == []


def test_numerical_abort_ends_the_study_as_train_does(tmp_path, capsys, monkeypatch, runs):
    record = subset_comparison.train

    def abort_second_run(*args):
        if len(runs) == 1:
            raise NumericalAbort("non-finite loss at epoch 0, step 2")
        return record(*args)

    monkeypatch.setattr(subset_comparison, "train", abort_second_run)
    assert subset_comparison.main(["--config", write_config(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "numerical abort: non-finite loss at epoch 0, step 2\n"
    # the first arm's line was printed before the abort, and nothing follows it
    assert captured.out.splitlines()[-1].startswith("    single : best top1 0.1000 (")
    assert len(runs) == 1
