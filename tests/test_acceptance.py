"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line with its runtime. Criterion 7 (benchmark-scale accuracy) is informational
and skipped unless MULTIPOD_RUN_SUBSET_COMPARISON is set."""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import multipod.tensor as T
from multipod.data import AugmentationSpec, ImageBatch, synthetic_dataset
from multipod.gradcheck import gradient_check
from multipod.models import (APPROACH1, APPROACH2, MultiPodSpec, build_multipod,
                             count_params, resnet_cifar, resnet_imagenet)
from multipod.training import (TrainingSchedule, evaluate_center_crop,
                               evaluate_ten_crop, load_checkpoint, lr_at_epoch,
                               train)
from oracles import (batch_norm_train_oracle, conv2d_oracle, softmax_oracle,
                     softmax_xent_oracle, ten_crop_views_oracle)
from test_models import permute_pod_params

REPO_ROOT = Path(__file__).resolve().parents[1]


@contextmanager
def criterion(capsys, num, label, budget_s):
    # the body may append notes, printed in the verdict line
    notes = []
    t0 = time.time()
    try:
        yield notes
    except BaseException:
        with capsys.disabled():
            print(f"\n[FAIL] criterion {num}: {label}" + "".join(f"; {n}" for n in notes))
        raise
    elapsed = time.time() - t0
    notes = "".join(f", {n}" for n in notes)
    with capsys.disabled():
        if elapsed < budget_s:
            print(f"\n[PASS] criterion {num}: {label} ({elapsed:.1f}s{notes})")
        else:
            print(f"\n[FAIL] criterion {num}: {label} ({elapsed:.1f}s, budget {budget_s}s{notes})")
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"


def test_criterion_1_parameter_accounting(capsys):
    with criterion(capsys, 1, "closed-form parameter counts match stores and "
                   "published totals", budget_s=10):
        published = [
            (1, resnet_cifar(3), APPROACH1, 10, 272_474),
            (2, resnet_cifar(3), APPROACH1, 10, 544_938),
            (3, resnet_cifar(3), APPROACH1, 10, 817_402),
            (3, resnet_cifar(3), APPROACH2, 10, 816_314),
            (4, resnet_cifar(3), APPROACH1, 10, 1_089_866),
            (1, resnet_imagenet(2), APPROACH1, 1000, 11_689_512),
            (3, resnet_imagenet(2), APPROACH1, 1000, 35_066_536),
        ]
        for pods, base, fusion, classes, expected in published:
            spec = MultiPodSpec(pods=pods, base=base, fusion=fusion, classes=classes)
            assert count_params(spec) == expected, (pods, base.family, fusion)

        # head growth is linear in k for concat, constant-plus-k-scales otherwise
        assert count_params(MultiPodSpec(3, resnet_cifar(3), APPROACH1)) \
            == 3 * 271_824 + 3 * 64 * 10 + 10
        assert count_params(MultiPodSpec(3, resnet_cifar(3), APPROACH2)) \
            == 3 * 271_824 + 3 * 64 + 64 * 10 + 10

        for base, classes in ((resnet_cifar(3), 10), (resnet_imagenet(2), 1000)):
            for fusion in (APPROACH1, APPROACH2):
                for k in range(1, 5):
                    spec = MultiPodSpec(pods=k, base=base, fusion=fusion, classes=classes)
                    store_total = build_multipod(spec).store.total_params()
                    assert store_total == count_params(spec), \
                        (base.family, fusion, k, store_total)


def test_criterion_2_full_model_gradient_check(capsys, monkeypatch):
    with criterion(capsys, 2, "every parameter gradient of a tripod model matches "
                   "finite differences", budget_s=300):
        h = 1e-5
        spec = MultiPodSpec(pods=3, base=resnet_cifar(1), fusion=APPROACH1, classes=10)
        model = build_multipod(spec, dtype=np.float64)
        # input seed chosen so no pre-relu activation sits near zero: a kink
        # inside the FD neighborhood would corrupt the quotient upstream
        rng = np.random.default_rng(2701)
        inputs = [T.Tensor(rng.normal(0.0, 1.0, (2, 3, 8, 8)), dtype=np.float64)
                  for _ in range(3)]
        labels = rng.integers(0, 10, size=2)

        margins = []
        plain_relu = T.relu

        def tracking_relu(x):
            margins.append(float(np.min(np.abs(x.data))))
            return plain_relu(x)

        monkeypatch.setattr(T, "relu", tracking_relu)
        model.forward(inputs, training=True)
        monkeypatch.setattr(T, "relu", plain_relu)
        assert min(margins) > 20 * h, "inputs give an activation too close to a relu kink"

        report = gradient_check(model, inputs, labels, h=h, tol=1e-5, atol=1e-8)
        assert report.checked == model.store.total_params()
        assert report.passed, (f"worst {report.worst_rel:.3e} at {report.worst_param}; "
                               f"{len(report.failures)} tensors failed")


def test_criterion_3_operation_oracles(capsys):
    with criterion(capsys, 3, "conv, batch norm, cross-entropy, and ten-crop match "
                   "independent oracles", budget_s=60):
        rng = np.random.default_rng(42)

        for _ in range(50):
            b, c, f = (int(rng.integers(1, 4)) for _ in range(3))
            h_img = int(rng.integers(3, 9))
            w_img = int(rng.integers(3, 9))
            kh = int(rng.integers(1, min(h_img, 4) + 1))
            kw = int(rng.integers(1, min(w_img, 4) + 1))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            x = rng.normal(size=(b, c, h_img, w_img))
            w = rng.normal(size=(f, c, kh, kw))
            got = T.conv2d(T.Tensor(x, dtype=np.float64), T.Tensor(w, dtype=np.float64),
                           stride=stride, padding=pad).data
            ref = conv2d_oracle(x, w, stride=stride, padding=pad)
            np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-12)

        for _ in range(50):
            b = int(rng.integers(2, 5))
            c = int(rng.integers(1, 5))
            hw = int(rng.integers(2, 6))
            x = rng.normal(1.0, 2.0, size=(b, c, hw, hw))
            gamma = rng.uniform(0.5, 2.0, size=c)
            beta = rng.normal(size=c)
            got = T.batch_norm2d(T.Tensor(x, dtype=np.float64),
                                 T.Tensor(gamma, dtype=np.float64),
                                 T.Tensor(beta, dtype=np.float64),
                                 T.BNBuffers(c, np.float64), training=True).data
            ref = batch_norm_train_oracle(x, gamma, beta)
            np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-12)

        for _ in range(50):
            b = int(rng.integers(1, 8))
            classes = int(rng.integers(2, 12))
            logits = rng.normal(0.0, 3.0, size=(b, classes))
            labels = rng.integers(0, classes, size=b)
            got = float(T.softmax_cross_entropy(T.Tensor(logits, dtype=np.float64),
                                                labels).data)
            assert np.isclose(got, softmax_xent_oracle(logits, labels), rtol=1e-6)

        class Projection:
            def __init__(self, in_size, classes, seed):
                self.spec = type("S", (), {"pods": 1, "classes": classes})()
                r = np.random.default_rng(seed)
                self.w = r.normal(size=(3 * in_size * in_size, classes))

            def forward(self, inputs, training=False):
                flat = inputs[0].data.astype(np.float64).reshape(len(inputs[0].data), -1)
                return T.Tensor(flat @ self.w)

        aug = AugmentationSpec(pad=0, crop_size=8, hflip_prob=0.0,
                               mean=(0.0, 0.0, 0.0), std=(1.0, 1.0, 1.0))
        for i in range(50):
            b = int(rng.integers(2, 6))
            size = int(rng.integers(5, 9))
            crop = int(rng.integers(3, size + 1))
            classes = int(rng.integers(3, 8))
            pixels = rng.random((b, 3, size, size)).astype(np.float32)
            labels = rng.integers(0, classes, size=b)
            model = Projection(crop, classes, seed=i)
            got = evaluate_ten_crop(model, ImageBatch(pixels, labels), aug, crop_size=crop)

            mean_probs = np.zeros((b, classes))
            for view in ten_crop_views_oracle(pixels, crop):
                flat = np.ascontiguousarray(view).astype(np.float64).reshape(b, -1)
                mean_probs += softmax_oracle(flat @ model.w)
            mean_probs /= 10.0
            pred = np.argmax(mean_probs, axis=1)
            assert got.top1 == float((pred == labels).mean())
            p_true = mean_probs[np.arange(b), labels]
            assert np.isclose(got.loss, float(-np.log(p_true).mean()), rtol=1e-6)


def test_criterion_4_learning_rate_recipes(capsys):
    with criterion(capsys, 4, "step schedules reproduce both published recipes",
                   budget_s=1):
        sched = TrainingSchedule(base_lr=0.1, milestones=(82, 122, 163), epochs=200)
        for epoch, lr in [(0, 0.1), (81, 0.1), (82, 0.01), (121, 0.01), (122, 0.001),
                          (162, 0.001), (163, 0.0001), (199, 0.0001)]:
            assert np.isclose(lr_at_epoch(sched, epoch), lr, rtol=1e-12), epoch

        sched = TrainingSchedule(base_lr=0.1, milestones=(30, 60), epochs=90)
        for epoch, lr in [(0, 0.1), (29, 0.1), (30, 0.01), (59, 0.01), (60, 0.001),
                          (89, 0.001)]:
            assert np.isclose(lr_at_epoch(sched, epoch), lr, rtol=1e-12), epoch


def test_criterion_5_small_set_memorization(capsys):
    with criterion(capsys, 5, "tripod reaches 100% train accuracy on 64 samples "
                   "within 200 epochs", budget_s=900) as notes:
        data = synthetic_dataset(10, 64, 32, seed=11)
        spec = MultiPodSpec(pods=3, base=resnet_cifar(3), fusion=APPROACH1, classes=10)
        model = build_multipod(spec)
        aug = AugmentationSpec(pad=0, crop_size=32, hflip_prob=0.0, jitter=None,
                               routing="identical", seed=0)
        sched = TrainingSchedule(base_lr=0.1, milestones=(82, 122, 163), epochs=200,
                                 batch_size=16)
        t0 = time.time()
        result = train(model, data, data, sched, aug,
                       early_stop=lambda rec: rec.train_acc == 1.0)
        epochs = len(result.records)
        # the epoch count is chaotic; the time per epoch is the steady measure
        notes.append(f"{epochs} epochs, {(time.time() - t0) / epochs:.2f}s per epoch")
        assert result.records[-1].train_acc == 1.0, \
            f"only reached {max(r.train_acc for r in result.records):.3f}"


def test_criterion_6_determinism_and_persistence(capsys, tmp_path):
    with criterion(capsys, 6, "repeat runs log identically, resume matches "
                   "uninterrupted, checkpoints reproduce evals", budget_s=600):
        def setup():
            data = synthetic_dataset(4, 36, 16, seed=7)
            train_b = data.subset(np.arange(24))
            eval_b = data.subset(np.arange(24, 36))
            spec = MultiPodSpec(pods=2, base=resnet_cifar(1), fusion=APPROACH1, classes=4)
            aug = AugmentationSpec(pad=2, crop_size=16, hflip_prob=0.5, seed=0,
                                   mean=(0.5, 0.5, 0.5), std=(0.25, 0.25, 0.25))
            return build_multipod(spec), train_b, eval_b, aug, spec

        sched = TrainingSchedule(base_lr=0.05, milestones=(4,), epochs=6, batch_size=8)

        model_a, train_b, eval_b, aug, spec = setup()
        run_a = train(model_a, train_b, eval_b, sched, aug, out_dir=str(tmp_path / "a"))
        model_b, *_ = setup()
        run_b = train(model_b, train_b, eval_b, sched, aug)
        assert [r.comparable() for r in run_a.records] \
            == [r.comparable() for r in run_b.records]

        model_c, *_ = setup()
        train(model_c, train_b, eval_b, sched, aug, out_dir=str(tmp_path / "c"),
              early_stop=lambda rec: rec.epoch == 2)  # stop after 3 of 6 epochs
        ckpt = load_checkpoint(tmp_path / "c" / "last.ckpt")
        assert ckpt.epoch == 3
        model_d, *_ = setup()
        tail = train(model_d, train_b, eval_b, sched, aug, resume_from=ckpt)
        assert [r.comparable() for r in tail.records] \
            == [r.comparable() for r in run_a.records[3:]]
        for name, arr in model_a.store.param_values().items():
            assert np.array_equal(arr, model_d.store.param_values()[name]), name

        best_rec = max(run_a.records, key=lambda r: r.eval_top1)
        twin, *_ = setup()
        load_checkpoint(tmp_path / "a" / "best.ckpt").apply(twin)
        res = evaluate_center_crop(twin, eval_b, aug)
        assert res.top1 == best_rec.eval_top1
        assert res.top5 == best_rec.eval_top5
        assert res.loss == best_rec.eval_loss


def test_criterion_7_benchmark_scale_accuracy(capsys):
    if not os.environ.get("MULTIPOD_RUN_SUBSET_COMPARISON"):
        with capsys.disabled():
            print("\n[SKIP] criterion 7: benchmark-scale accuracy is reported, not "
                  "asserted; run scripts/subset_comparison.py for the study")
        pytest.skip("informational criterion, not a gate")
    script = REPO_ROOT / "scripts" / "subset_comparison.py"
    proc = subprocess.run([sys.executable, str(script), "--config",
                           str(REPO_ROOT / "configs" / "toy-synthetic.json"), "--groups", "1"],
                          capture_output=True, text=True)
    with capsys.disabled():
        print("\n[INFO] criterion 7 (informational):")
        print(proc.stdout)
    assert proc.returncode == 0, proc.stderr


def test_criterion_8_fusion_structure(capsys, rng):
    with criterion(capsys, 8, "fusion is pod-permutation equivariant and exact at k=1",
                   budget_s=60):
        inputs = [T.Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
                  for _ in range(3)]
        perm = (2, 0, 1)
        for fusion, combine in ((APPROACH1, "sum"), (APPROACH2, "sum"),
                                (APPROACH2, "product")):
            spec = MultiPodSpec(pods=3, base=resnet_cifar(1), fusion=fusion,
                                combine_mode=combine, classes=10)
            model = build_multipod(spec)
            shuffled = build_multipod(spec)
            permute_pod_params(model, shuffled, perm, spec.base.feature_dim)
            base_logits = model.forward(inputs, training=True)
            perm_logits = shuffled.forward([inputs[p] for p in perm], training=True)
            assert np.array_equal(base_logits.data, perm_logits.data), (fusion, combine)

        from multipod.models import build_pod_base
        spec = MultiPodSpec(pods=1, base=resnet_cifar(1), fusion=APPROACH1, seeds=(0,))
        model = build_multipod(spec)
        base_fwd, _ = build_pod_base(resnet_cifar(1), seed=0)
        x = inputs[0]
        feat = base_fwd(x, training=True)
        manual = T.linear(feat, model.store.param("head.dense.weight"),
                          model.store.param("head.dense.bias"))
        assert np.array_equal(model.forward([x], training=True).data, manual.data)
