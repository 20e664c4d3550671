import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from multipod.cli import main
from multipod.config import ConfigError, parse_config
from multipod.data import DataError, read_ppm, write_ppm
from multipod.models import MultiPodSpec, count_params, resnet_cifar
from test_data import fake_cifar_dir

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


def log_lines(out_dir):
    text = (out_dir / "train_log.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines()]


def drop_wall_time(rows):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in rows]


class TestCountParams:
    def test_tripod_concat(self, capsys):
        assert main(["count-params", "--pods", "3", "--base", "resnet20",
                     "--fusion", "approach1", "--expect", "817402"]) == 0
        assert capsys.readouterr().out.strip() == "817402"

    def test_tripod_scale_fusion(self, capsys):
        assert main(["count-params", "--pods", "3", "--base", "resnet20",
                     "--fusion", "approach2", "--expect", "816314"]) == 0

    def test_imagenet_tripod(self, capsys):
        assert main(["count-params", "--pods", "3", "--base", "resnet18",
                     "--classes", "1000", "--expect", "35066536"]) == 0

    def test_expect_mismatch_fails(self, capsys):
        assert main(["count-params", "--pods", "1", "--base", "resnet20",
                     "--expect", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out.strip() == "272474"
        assert "mismatch" in captured.err

    def test_unsupported_base(self, capsys):
        assert main(["count-params", "--base", "resnet19"]) == 2

    def test_config_source(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["count-params", "--config", cfg]) == 0
        spec = MultiPodSpec(pods=2, base=resnet_cifar(1), classes=4, seeds=(0, 1))
        assert capsys.readouterr().out.strip() == str(count_params(spec))


class TestGradcheck:
    def test_subsampled_pass(self, capsys):
        assert main(["gradcheck", "--pods", "2", "--size", "8", "--batch", "2",
                     "--sample-stride", "997"]) == 0
        out = capsys.readouterr().out
        assert "checked" in out and "worst relative error" in out

    def test_zero_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--pods", "1", "--size", "8", "--batch", "2",
                     "--tolerance", "0", "--sample-stride", "4999"]) == 1
        assert "gradient check failed" in capsys.readouterr().err

    def test_oversized_input_rejected(self, capsys):
        assert main(["gradcheck", "--size", "17"]) == 2
        assert "max 16" in capsys.readouterr().err

    def test_bad_stride_rejected(self, capsys):
        assert main(["gradcheck", "--sample-stride", "0"]) == 2

    def test_nonpositive_step_rejected(self, capsys):
        assert main(["gradcheck", "--h", "0", "--pods", "2", "--sample-stride", "997"]) == 2
        assert "h must be > 0" in capsys.readouterr().err


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
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir))
        assert main(["train", "--config", cfg, "--epochs", "1"]) == 0
        assert len(log_lines(out_dir)) == 1
        saved = json.loads((out_dir / "config.json").read_text())
        assert saved["schedule"]["epochs"] == 1

    @pytest.mark.parametrize("flag,value,field", [("--epochs", "1", "milestones"),
                                                  ("--batch-size", "0", "batch_size"),
                                                  ("--seed", "-1", "seed")])
    def test_override_error_names_flag(self, tmp_path, capsys, flag, value, field):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir), **{"schedule.milestones": [1]})
        assert main(["train", "--config", cfg, flag, value]) == 2
        err = capsys.readouterr().err
        assert f"{flag} {value}" in err and field in err
        assert not out_dir.exists()

    def test_output_dir_env_fallback(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("MULTIPOD_OUTPUT_DIR", str(env_dir))
        cfg = write_config(tmp_path, out_dir=None, **{"schedule.epochs": 1})
        assert main(["train", "--config", cfg]) == 0
        assert (env_dir / "train_log.jsonl").exists()

    def test_resume_continues_epoch_numbering(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path, out_dir=str(out_dir))
        assert main(["train", "--config", cfg, "--epochs", "1"]) == 0
        assert main(["train", "--config", cfg, "--resume"]) == 0
        assert [r["epoch"] for r in log_lines(out_dir)] == [0, 1]

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

    def test_invalid_config_reports_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"augmentation.routing": "alternating"})
        assert main(["train", "--config", cfg]) == 2
        assert "routing" in capsys.readouterr().err

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
        with pytest.raises(ConfigError, match="model: unknown family 'resnet-cfar'"):
            parse_config(toy_config_doc(**{"model.family": "resnet-cfar"}))

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

    def test_inconsistent_classes_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"model.classes": 7})
        assert main(["train", "--config", cfg]) == 2
        assert "classes" in capsys.readouterr().err

    def test_missing_dataset_path(self, tmp_path, capsys, monkeypatch):
        # no output dir is set, so the run would write under ./runs
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("MULTIPOD_OUTPUT_DIR", raising=False)
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


class TestAugmentPreview:
    def test_writes_one_file_per_pod(self, tmp_path, capsys):
        out = tmp_path / "views"
        assert main(["augment-preview", "--out", str(out), "--pods", "3",
                     "--size", "16"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["original.ppm", "pod0.ppm", "pod1.ppm", "pod2.ppm"]

    def test_per_pod_jitter_views_differ(self, tmp_path, capsys):
        out = tmp_path / "views"
        main(["augment-preview", "--out", str(out), "--pods", "2", "--size", "16"])
        a = (out / "pod0.ppm").read_bytes()
        b = (out / "pod1.ppm").read_bytes()
        assert a != b

    def test_identical_routing_reproduces_original(self, tmp_path, capsys):
        out = tmp_path / "views"
        main(["augment-preview", "--out", str(out), "--pods", "2", "--size", "16",
              "--routing", "identical"])
        original = (out / "original.ppm").read_bytes()
        assert (out / "pod0.ppm").read_bytes() == original
        assert (out / "pod1.ppm").read_bytes() == original

    def test_unit_jitter_ranges_reproduce_original(self, tmp_path, capsys):
        out = tmp_path / "views"
        main(["augment-preview", "--out", str(out), "--pods", "2", "--size", "16",
              "--brightness", "1", "1", "--contrast", "1", "1",
              "--saturation", "1", "1"])
        original = (out / "original.ppm").read_bytes()
        assert (out / "pod0.ppm").read_bytes() == original

    def test_previews_are_reproducible(self, tmp_path, capsys):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["augment-preview", "--out", str(out), "--pods", "2",
                  "--size", "16", "--seed", "5"])
            blobs.append(tuple((out / f).read_bytes()
                               for f in ("original.ppm", "pod0.ppm", "pod1.ppm")))
        assert blobs[0] == blobs[1]

    def test_ppm_input_round_trip(self, tmp_path, capsys, rng):
        src = tmp_path / "input.ppm"
        img = rng.integers(0, 256, size=(3, 8, 8)).astype(np.float32) / 255.0
        write_ppm(src, img)
        out = tmp_path / "views"
        assert main(["augment-preview", "--image", str(src), "--out", str(out),
                     "--pods", "1", "--routing", "identical"]) == 0
        assert (out / "original.ppm").read_bytes() == src.read_bytes()

    def test_unreadable_image_rejected(self, tmp_path, capsys):
        assert main(["augment-preview", "--image", str(tmp_path / "missing.ppm"),
                     "--out", str(tmp_path / "views")]) == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "multipod", "count-params", "--pods", "3",
         "--base", "resnet20", "--expect", "817402"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "817402"
