import dataclasses
import gc
import json
import math
import os
import re
import weakref

import numpy as np
import pytest

import multipod.tensor as T
import multipod.training as training
from multipod.data import AugmentationSpec, ImageBatch, synthetic_dataset
from multipod.models import (APPROACH1, APPROACH2, MultiPodSpec, ParamStore,
                             build_multipod, resnet_cifar)
from multipod.training import (Checkpoint, CheckpointError, NumericalAbort,
                               TrainingSchedule, TrainLogRecord, evaluate_center_crop,
                               evaluate_ten_crop, load_checkpoint, lr_at_epoch,
                               save_checkpoint, sgd_step, train)
from oracles import softmax_oracle, ten_crop_views_oracle


class TestSchedule:
    def test_step_decay_recipe(self):
        sched = TrainingSchedule()  # 0.1, drops at 82/122/163 over 200 epochs
        expect = [(0, 0.1), (81, 0.1), (82, 0.01), (121, 0.01), (122, 0.001),
                  (162, 0.001), (163, 0.0001), (199, 0.0001)]
        for epoch, lr in expect:
            assert np.isclose(lr_at_epoch(sched, epoch), lr, rtol=1e-12)

    def test_two_drop_recipe(self):
        sched = TrainingSchedule(base_lr=0.1, milestones=(30, 60), epochs=90)
        assert np.isclose(lr_at_epoch(sched, 29), 0.1)
        assert np.isclose(lr_at_epoch(sched, 30), 0.01)
        assert np.isclose(lr_at_epoch(sched, 89), 0.001)

    def test_no_milestones_is_constant(self):
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=10)
        assert all(lr_at_epoch(sched, e) == 0.05 for e in range(10))

    def test_epoch_out_of_range(self):
        sched = TrainingSchedule(epochs=10, milestones=(5,))
        with pytest.raises(ValueError):
            lr_at_epoch(sched, 10)
        with pytest.raises(ValueError):
            lr_at_epoch(sched, -1)

    @pytest.mark.parametrize("kwargs", [
        dict(base_lr=0.0),
        dict(decay=0.0),
        dict(decay=1.5),
        dict(epochs=0, milestones=()),
        dict(batch_size=0),
        dict(momentum=1.0),
        dict(weight_decay=-0.1),
        dict(milestones=(10, 10)),
        dict(milestones=(250,)),
    ])
    def test_invalid_schedules(self, kwargs):
        defaults = dict(epochs=200)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            TrainingSchedule(**defaults)

    def test_round_trip(self):
        sched = TrainingSchedule(base_lr=0.2, milestones=(3, 7), epochs=9,
                                 batch_size=32, momentum=0.8, weight_decay=0.0)
        assert TrainingSchedule.from_dict(sched.to_dict()) == sched

    def test_from_dict_falls_back_to_field_defaults(self):
        # an omitted milestones list is the paper's (82, 122, 163), not none
        assert TrainingSchedule.from_dict({}) == TrainingSchedule()
        assert TrainingSchedule.from_dict({}).milestones == (82, 122, 163)

    def test_milestones_are_stored_as_a_tuple(self):
        listed = TrainingSchedule(milestones=[5], epochs=10)
        assert listed == TrainingSchedule(milestones=(5,), epochs=10)
        assert hash(listed) == hash(TrainingSchedule(milestones=(5,), epochs=10))


def single_param_store(value):
    store = ParamStore(np.float64)
    store.add_param("w", (1,))
    store.param("w").data = np.array([value], dtype=np.float64)
    return store


class TestSgdStep:
    def test_momentum_hand_unroll(self):
        store = single_param_store(1.0)
        p = store.param("w")
        p.grad = np.array([1.0])
        sgd_step(store, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert np.isclose(p.data[0], 0.9, rtol=1e-12)
        p.grad = np.array([1.0])
        sgd_step(store, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert np.isclose(p.data[0], 0.71, rtol=1e-12)

    def test_weight_decay_shrinks_at_zero_grad(self):
        store = single_param_store(1.0)
        store.param("w").grad = np.array([0.0])
        sgd_step(store, lr=0.1, momentum=0.0, weight_decay=0.1)
        assert np.isclose(store.param("w").data[0], 0.99, rtol=1e-12)

    def test_zero_momentum_is_vanilla(self):
        store = single_param_store(2.0)
        store.param("w").grad = np.array([3.0])
        sgd_step(store, lr=0.5, momentum=0.0, weight_decay=0.0)
        assert np.isclose(store.param("w").data[0], 0.5, rtol=1e-12)

    def test_gradients_cleared_after_step(self):
        store = single_param_store(1.0)
        store.param("w").grad = np.array([1.0])
        sgd_step(store, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert store.param("w").grad is None

    def test_missing_gradient_names_parameter(self):
        store = single_param_store(1.0)
        with pytest.raises(T.StateError, match="'w'"):
            sgd_step(store, lr=0.1, momentum=0.9, weight_decay=0.0)


class StubSpec:
    def __init__(self, pods, classes):
        self.pods = pods
        self.classes = classes


class ConstantModel:
    """Same logits row for every sample; exposes tie-break behavior."""

    def __init__(self, row, pods=1):
        self.spec = StubSpec(pods, len(row))
        self.row = np.asarray(row, dtype=np.float32)

    def forward(self, inputs, training=False):
        b = inputs[0].data.shape[0]
        return T.Tensor(np.tile(self.row, (b, 1)))


class ProjectionModel:
    """Logits are a fixed random projection of the first pod view."""

    def __init__(self, in_size, classes, pods=1, seed=0):
        self.spec = StubSpec(pods, classes)
        rng = np.random.default_rng(seed)
        self.w = rng.normal(size=(3 * in_size * in_size, classes)).astype(np.float32)

    def forward(self, inputs, training=False):
        flat = inputs[0].data.reshape(inputs[0].data.shape[0], -1)
        return T.Tensor(flat @ self.w)


def identity_aug(crop_size):
    return AugmentationSpec(pad=0, crop_size=crop_size, hflip_prob=0.0,
                            mean=(0.0, 0.0, 0.0), std=(1.0, 1.0, 1.0))


def random_batch(n, size, classes, seed=0):
    rng = np.random.default_rng(seed)
    return ImageBatch(rng.random((n, 3, size, size), dtype=np.float32),
                      rng.integers(0, classes, size=n))


class TestCenterCropEval:
    def test_tied_logits_predict_lowest_class(self):
        batch = random_batch(8, 4, classes=10, seed=1)
        batch.labels[:] = [0, 1, 2, 0, 3, 0, 9, 5]
        res = evaluate_center_crop(ConstantModel(np.zeros(10)), batch, identity_aug(4))
        assert res.top1 == 3 / 8  # ties go to class 0
        assert res.top5 == 6 / 8  # top-5 under ties is classes 0..4
        assert np.isclose(res.loss, np.log(10.0), rtol=1e-6)

    def test_unique_max_predicts_that_class(self):
        batch = random_batch(6, 4, classes=4, seed=2)
        batch.labels[:] = [3, 3, 0, 1, 3, 2]
        row = [0.0, 0.0, 0.0, 5.0]
        res = evaluate_center_crop(ConstantModel(row), batch, identity_aug(4))
        assert res.top1 == 3 / 6

    def test_random_logits_top5_near_half(self):
        batch = random_batch(4000, 2, classes=10, seed=3)
        model = ProjectionModel(2, 10, seed=4)
        res = evaluate_center_crop(model, batch, identity_aug(2))
        assert 0.47 <= res.top5 <= 0.53
        assert 0.07 <= res.top1 <= 0.13

    def test_oracle_readout_scores_everything(self):
        # model reads the label planted in the corner pixel: perfect accuracy
        batch = random_batch(20, 4, classes=5, seed=5)
        batch.pixels[:, :, 0, 0] = 0.0
        batch.pixels[np.arange(20), 0, 0, 0] = batch.labels / 10.0

        class Readout:
            spec = StubSpec(1, 5)
            def forward(self, inputs, training=False):
                keys = np.rint(inputs[0].data[:, 0, 0, 0] * 10).astype(int)
                return T.Tensor(np.eye(5, dtype=np.float32)[keys] * 10)

        res = evaluate_center_crop(Readout(), batch, identity_aug(4))
        assert res.top1 == 1.0 and res.top5 == 1.0

    def test_center_crop_takes_middle_window(self):
        batch = random_batch(4, 8, classes=3, seed=8)
        model = ProjectionModel(4, 3, seed=9)
        direct = ImageBatch(batch.pixels[:, :, 2:6, 2:6], batch.labels)
        a = evaluate_center_crop(model, batch, identity_aug(4))
        b = evaluate_center_crop(model, direct, identity_aug(4))
        assert a == b

    def test_empty_dataset_rejected(self):
        model = ConstantModel(np.zeros(3))
        batch = ImageBatch(np.zeros((1, 3, 4, 4)), np.zeros(1)).subset([])
        with pytest.raises(ValueError):
            evaluate_center_crop(model, batch, identity_aug(4))


class TestTenCropEval:
    def test_matches_view_enumeration_oracle(self):
        batch = random_batch(12, 6, classes=5, seed=10)
        model = ProjectionModel(4, 5, seed=11)
        got = evaluate_ten_crop(model, batch, identity_aug(6), crop_size=4)

        mean_probs = np.zeros((12, 5))
        for view in ten_crop_views_oracle(batch.pixels, 4):
            flat = np.ascontiguousarray(view).reshape(12, -1)
            mean_probs += softmax_oracle(flat @ model.w)
        mean_probs /= 10.0
        pred = np.argmax(mean_probs, axis=1)
        assert got.top1 == float((pred == batch.labels).mean())
        p_true = mean_probs[np.arange(12), batch.labels]
        assert np.isclose(got.loss, float(-np.log(p_true).mean()), rtol=1e-6)

    def test_symmetric_full_size_crops_reduce_to_center_crop(self):
        batch = random_batch(6, 4, classes=4, seed=12)
        batch.pixels[:] = np.minimum(batch.pixels, batch.pixels[..., ::-1])
        model = ProjectionModel(4, 4, seed=13)
        ten = evaluate_ten_crop(model, batch, identity_aug(4), crop_size=4)
        one = evaluate_center_crop(model, batch, identity_aug(4))
        assert ten.top1 == one.top1 and ten.top5 == one.top5
        assert np.isclose(ten.loss, one.loss, rtol=1e-5)

    def test_oversized_crop_rejected(self):
        batch = random_batch(2, 4, classes=3, seed=14)
        with pytest.raises(ValueError):
            evaluate_ten_crop(ConstantModel(np.zeros(3)), batch, identity_aug(4),
                              crop_size=5)

    def test_empty_dataset_rejected(self):
        batch = ImageBatch(np.zeros((1, 3, 4, 4)), np.zeros(1)).subset([])
        with pytest.raises(ValueError):
            evaluate_ten_crop(ConstantModel(np.zeros(3)), batch, identity_aug(4))

    @pytest.mark.parametrize("crop_size", [-3, 0])
    def test_crop_below_one_rejected(self, crop_size):
        batch = random_batch(2, 4, classes=3, seed=14)
        with pytest.raises(ValueError, match=f"^crop size {crop_size} must be >= 1$"):
            evaluate_ten_crop(ConstantModel(np.zeros(3)), batch, identity_aug(4),
                              crop_size=crop_size)


class TestScoringLoop:
    # views per forward that split 10 images into forwards of 3
    @pytest.mark.parametrize("evaluate,views", [(evaluate_center_crop, 3),
                                                (evaluate_ten_crop, 30)],
                             ids=["center", "tencrop"])
    def test_batch_size_does_not_change_result(self, evaluate, views, monkeypatch):
        batch = random_batch(10, 6, classes=6, seed=6)
        model = ProjectionModel(4, 6, seed=7)
        b = evaluate(model, batch, identity_aug(4))
        monkeypatch.setattr(training, "EVAL_VIEWS_PER_FORWARD", views)
        a = evaluate(model, batch, identity_aug(4))
        assert a.top1 == b.top1 and a.top5 == b.top5
        assert np.isclose(a.loss, b.loss, rtol=1e-6)  # BLAS grouping jitter only

    def test_train_and_both_protocols_make_views_through_the_module(self, monkeypatch):
        # perfbench traces make_pod_inputs by replacing the training module's name
        calls = []
        make = training.make_pod_inputs

        def counting(pixels, aug, k, **kwargs):
            calls.append(kwargs.get("train", True))
            return make(pixels, aug, k, **kwargs)

        monkeypatch.setattr(training, "make_pod_inputs", counting)
        model, train_batch, eval_batch, aug = tiny_setup(samples=8, eval_samples=4)
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=1, batch_size=8)
        train(model, train_batch, eval_batch, sched, aug)
        assert calls == [True, False]  # one step, then one center-crop eval batch
        calls.clear()
        monkeypatch.setattr(training, "EVAL_VIEWS_PER_FORWARD", 3)
        evaluate_center_crop(model, eval_batch, aug)
        assert calls == [False] * 2
        calls.clear()
        monkeypatch.setattr(training, "EVAL_VIEWS_PER_FORWARD", 30)
        evaluate_ten_crop(model, eval_batch, aug, crop_size=12)
        assert calls == [False] * 2  # a batch's ten views in one call

    def test_no_forward_holds_more_than_256_views(self):
        rows = []

        class Counting(ConstantModel):
            def forward(self, inputs, training=False):
                rows.append(len(inputs[0].data))
                return super().forward(inputs, training)

        model = Counting(np.zeros(3))
        batch = random_batch(300, 2, classes=3, seed=15)
        evaluate_center_crop(model, batch, identity_aug(2))
        assert rows == [256, 44]
        rows.clear()
        evaluate_ten_crop(model, batch.subset(np.arange(64)), identity_aug(2), crop_size=1)
        assert rows == [250, 250, 140]  # 25, 25 and 14 images of ten views each


def tiny_spec(pods=2, classes=4):
    return MultiPodSpec(pods=pods, base=resnet_cifar(1), fusion=APPROACH1,
                        classes=classes)


def tiny_setup(seed=0, pods=2, samples=24, eval_samples=12):
    data = synthetic_dataset(4, samples + eval_samples, 16, seed=7)
    train_batch = data.subset(np.arange(samples))
    eval_batch = data.subset(np.arange(samples, samples + eval_samples))
    model = build_multipod(tiny_spec(pods))
    aug = AugmentationSpec(pad=2, crop_size=16, hflip_prob=0.5, seed=seed,
                           mean=(0.5, 0.5, 0.5), std=(0.25, 0.25, 0.25))
    return model, train_batch, eval_batch, aug


class TestCheckpointRoundTrip:
    def test_states_survive_save_load(self, tmp_path):
        model, train_batch, eval_batch, aug = tiny_setup()
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=1, batch_size=8)
        train(model, train_batch, eval_batch, sched, aug)
        ckpt = Checkpoint.from_model(model, epoch=1, seed=aug.seed, best_top1=0.25)
        path = tmp_path / "state.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)

        assert loaded.spec == ckpt.spec
        assert loaded.epoch == 1 and loaded.seed == aug.seed
        assert loaded.best_top1 == 0.25
        assert loaded.params.keys() == ckpt.params.keys()
        for name in ckpt.params:
            assert np.array_equal(loaded.params[name], ckpt.params[name]), name
            assert np.array_equal(loaded.momentum[name], ckpt.momentum[name]), name
        for name, (mean, var, init) in ckpt.buffers.items():
            lmean, lvar, linit = loaded.buffers[name]
            assert np.array_equal(lmean, mean) and np.array_equal(lvar, var)
            assert linit == init

    def test_members_are_the_metadata_and_one_per_group(self, tmp_path):
        model, _, _, _ = tiny_setup()
        path = tmp_path / "state.ckpt"
        save_checkpoint(Checkpoint.from_model(model, 0, 0, 0.0), path)
        with np.load(path) as z:
            assert sorted(z.files) == ["__meta__", "bnmean", "bnvar", "momentum", "param"]
            index = json.loads(bytes(z["__meta__"]).decode())["index"]
            params = sorted(name for name, _ in model.store.items())
            layers = sorted(name for name, _ in model.store.buffers())
            for group, names in (("param", params), ("momentum", params), ("bnmean", layers),
                                 ("bnvar", layers)):
                assert [name for name, _ in index[group]] == names
                assert z[group].shape == (sum(math.prod(shape) for _, shape in index[group]),)
                assert z[group].dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_is_bit_exact(self, tmp_path, dtype):
        model = build_multipod(tiny_spec(), dtype=dtype)
        store, rng = model.store, np.random.default_rng(5)
        for name, t in store.items():
            t.data = rng.standard_normal(t.data.shape).astype(dtype)
            store.momentum[name] = rng.standard_normal(t.data.shape).astype(dtype)
        for _, b in store.buffers():
            b.mean = rng.standard_normal(b.mean.shape).astype(dtype)
            b.var = rng.random(b.var.shape).astype(dtype)
            b.initialized = True
        save_checkpoint(Checkpoint.from_model(model, 3, 7, 0.5), tmp_path / "state.ckpt")
        twin = build_multipod(tiny_spec(), dtype=dtype)
        load_checkpoint(tmp_path / "state.ckpt").apply(twin)
        for name, t in store.items():
            for got, want in ((twin.store.param(name).data, t.data),
                              (twin.store.momentum[name], store.momentum[name])):
                assert got.dtype == dtype and got.tobytes() == want.tobytes(), name
        for (name, b), (_, got) in zip(store.buffers(), twin.store.buffers()):
            assert got.mean.tobytes() == b.mean.tobytes(), name
            assert got.var.tobytes() == b.var.tobytes() and got.initialized, name

    def test_restored_model_evaluates_identically(self, tmp_path, param_draws):
        model, train_batch, eval_batch, aug = tiny_setup()
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=1, batch_size=8)
        train(model, train_batch, eval_batch, sched, aug)
        path = tmp_path / "state.ckpt"
        save_checkpoint(Checkpoint.from_model(model, 1, aug.seed, 0.0), path)
        param_draws.clear()

        # restoring draws no initial weight: checking, counting and applying
        # read shapes or assign, and the assigned values are the ones evaluated
        twin = build_multipod(tiny_spec())
        ckpt = load_checkpoint(path)
        ckpt.check(twin)
        assert twin.store.total_params() == model.store.total_params()
        ckpt.apply(twin)
        b = evaluate_center_crop(twin, eval_batch, aug)
        assert param_draws == []
        a = evaluate_center_crop(model, eval_batch, aug)
        assert a == b

    def test_spec_mismatch_rejected(self):
        model = build_multipod(tiny_spec(pods=2))
        other = build_multipod(tiny_spec(pods=1))
        ckpt = Checkpoint.from_model(model, 0, 0, 0.0)
        with pytest.raises(CheckpointError, match="spec mismatch"):
            ckpt.apply(other)

    def test_missing_or_misshaped_state_rejected(self):
        model = build_multipod(tiny_spec())
        base = Checkpoint.from_model(model, 0, 0, 0.0)
        param, _ = next(iter(model.store.items()))
        bn, (mean, var, _) = next(iter(base.buffers.items()))
        cases = [
            (dataclasses.replace(base, momentum={**base.momentum, param: np.zeros(1)}),
             f"momentum {param!r}: saved \\(1,\\), model expects"),
            (dataclasses.replace(base, buffers={**base.buffers, bn: (np.zeros(1), var, True)}),
             f"BN mean {bn!r}: saved \\(1,\\)"),
            (dataclasses.replace(base, buffers={n: b for n, b in base.buffers.items() if n != bn}),
             f"BN mean {bn!r}: saved nothing"),
            (dataclasses.replace(base, params={**base.params, "stray": np.zeros(1)}),
             "parameter 'stray': saved \\(1,\\), model expects nothing"),
        ]
        twin = build_multipod(tiny_spec())
        params, buffers = twin.store.param_values(), twin.store.buffer_state()
        for ckpt, message in cases:
            with pytest.raises(CheckpointError, match=message):
                ckpt.apply(twin)
        # a rejected checkpoint leaves the model as it was
        assert twin.store.momentum == {}
        for name, arr in twin.store.param_values().items():
            assert np.array_equal(arr, params[name]), name
        for name, (m, v, init) in twin.store.buffer_state().items():
            assert np.array_equal(m, buffers[name][0]) and np.array_equal(v, buffers[name][1])

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        model, _, _, aug = tiny_setup()
        path = tmp_path / "last.ckpt"
        ckpt = Checkpoint.from_model(model, epoch=1, seed=aug.seed, best_top1=0.5)
        save_checkpoint(ckpt, path)

        def savez_then_crash(f, **arrays):
            f.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_then_crash)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(Checkpoint.from_model(model, 2, aug.seed, 0.75), path)
        monkeypatch.undo()

        loaded = load_checkpoint(path)
        assert loaded.epoch == 1 and loaded.best_top1 == 0.5
        for name in ckpt.params:
            assert np.array_equal(loaded.params[name], ckpt.params[name]), name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["last.ckpt"]

    def test_failed_file_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        model, _, _, aug = tiny_setup()
        path = tmp_path / "last.ckpt"
        ckpt = Checkpoint.from_model(model, epoch=1, seed=aug.seed, best_top1=0.5)
        save_checkpoint(ckpt, path)
        written = []

        class WriteThenCrash:
            """A file that takes the first bytes of a write, then fails as a full disk does."""

            def __init__(self, name, mode):
                self.f = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(bytes(data[:64]))
                self.f.flush()
                written.append((self.f.name, len(data), os.path.getsize(self.f.name)))
                raise OSError("disk full")

        monkeypatch.setattr(training, "open", WriteThenCrash, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(Checkpoint.from_model(model, 2, aug.seed, 0.75), path)
        monkeypatch.undo()

        # the write reached the temporary file and stopped partway
        [(name, size, partial)] = written
        assert name == f"{path}.tmp" and partial == 64 < size
        loaded = load_checkpoint(path)
        assert loaded.epoch == 1 and loaded.best_top1 == 0.5
        for name in ckpt.params:
            assert np.array_equal(loaded.params[name], ckpt.params[name]), name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["last.ckpt"]

    def test_best_epoch_serializes_once_for_both_files(self, tmp_path, monkeypatch):
        model, train_batch, eval_batch, aug = tiny_setup()
        calls, savez = [], np.savez
        monkeypatch.setattr(np, "savez",
                            lambda f, **members: calls.append(f) or savez(f, **members))
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=1, batch_size=8)
        train(model, train_batch, eval_batch, sched, aug, out_dir=tmp_path)
        # the first epoch is the best so far
        assert len(calls) == 1
        assert (tmp_path / "best.ckpt").read_bytes() == (tmp_path / "last.ckpt").read_bytes()

    def test_format_version_mismatch(self, tmp_path):
        path = tmp_path / "old.ckpt"
        meta = json.dumps({"format_version": 99}).encode()
        with open(path, "wb") as f:
            np.savez(f, __meta__=np.frombuffer(meta, dtype=np.uint8))
        with pytest.raises(CheckpointError, match="format version 99"):
            load_checkpoint(path)


def rewrite_checkpoint(edit):
    """An edit that rewrites a checkpoint file as ``edit(meta, members)`` returns
    them: its metadata record and its other members, each group's flat array."""
    def rewrite(path):
        with np.load(path) as z:
            members = {key: z[key] for key in z.files}
        meta, members = edit(json.loads(bytes(members.pop("__meta__")).decode()), members)
        with open(path, "wb") as f:
            np.savez(f, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                     **members)
    return rewrite


def edit_meta(edit):
    return rewrite_checkpoint(lambda meta, members: (edit(meta), members))


def edit_members(edit):
    return rewrite_checkpoint(lambda meta, members: (meta, edit(members)))


def edit_index(group, edit):
    """A rewrite with ``edit`` applied to the [name, shape] pairs of ``group``'s index."""
    return edit_meta(lambda meta: {**meta, "index": {
        **meta["index"], group: edit(meta["index"][group])}})


def without(d, key):
    return {k: v for k, v in d.items() if k != key}


def without_first_bn_mean(meta, members):
    # a consistent index and member, naming one BN layer fewer than the variances
    (_, shape), *rest = meta["index"]["bnmean"]
    meta["index"]["bnmean"] = rest
    return meta, {**members, "bnmean": members["bnmean"][math.prod(shape):]}


def in_version_1_layout(meta, members):
    # format version 1 stored each array as its own member, "<group>/<name>"
    arrays = {}
    for group, index in meta.pop("index").items():
        lo = 0
        for name, shape in index:
            arrays[f"{group}/{name}"] = members[group][lo:lo + math.prod(shape)].reshape(shape)
            lo += math.prod(shape)
    return {**meta, "format_version": 1}, arrays


# checkpoint files that break the layout: (edit of a good file, what the refusal says)
BAD_CHECKPOINTS = {
    **{f"no-{key}": (edit_meta(lambda meta, key=key: without(meta, key)),
                     f"metadata {key}: missing, unknown or mistyped")
       for key in ("spec", "epoch", "seed", "best_top1", "buffers_initialized", "index")},
    "meta-list": (edit_meta(lambda meta: [meta]), "format version None, expected 2"),
    "version-1": (rewrite_checkpoint(in_version_1_layout), "format version 1, expected 2"),
    "epoch-x": (edit_meta(lambda meta: {**meta, "epoch": "x"}),
                "metadata epoch: missing, unknown or mistyped"),
    "bnvar-alone": (rewrite_checkpoint(without_first_bn_mean), "must name the same layers"),
    "flag-string": (edit_meta(lambda meta: {**meta, "buffers_initialized": dict.fromkeys(
        meta["buffers_initialized"], "yes")}), "must name the same layers"),
    "stray-member": (edit_members(lambda members: {**members, "stray": np.zeros(1)}),
                     "members __meta__, bnmean, bnvar, momentum, param, stray: expected "
                     "__meta__, param, momentum, bnmean, bnvar"),
    "no-momentum-member": (edit_members(lambda members: without(members, "momentum")),
                           "members __meta__, bnmean, bnvar, param: expected"),
    "index-without-bnvar": (edit_meta(lambda meta: {**meta, "index": without(
        meta["index"], "bnvar")}), "metadata index names bnmean, momentum, param: expected"),
    "index-too-long": (edit_index("param", lambda index: index + [["extra", [1]]]),
                       "index of 'param' adds up to [0-9]+ values, member holds [0-9]+"),
    "name-twice": (edit_index("momentum", lambda index: [index[0], [index[0][0], index[1][1]],
                                                         *index[2:]]),
                   "index of 'momentum' lists a name twice"),
    **{f"dimension-{kind}": (edit_index("bnvar", lambda index, dim=dim: [
        [index[0][0], [dim]], *index[1:]]), "index of 'bnvar' must list \\[name, shape\\] pairs")
       for kind, dim in (("negative", -4), ("float", 4.0), ("bool", True))},
    "index-not-a-list": (edit_index("param", lambda index: dict(index)),
                         "index of 'param' must list"),
    "member-2d": (edit_members(lambda members: {**members, "param": members["param"][None]}),
                  "member 'param' must be 1-D float32 or float64, got 2-D float32"),
    "member-int": (edit_members(lambda members: {**members, "bnmean": members[
        "bnmean"].astype(np.int32)}), "member 'bnmean' must be 1-D float32 or float64, "
                                      "got 1-D int32"),
    "empty-file": (lambda path: open(path, "wb").close(), "corrupt checkpoint"),
}


@pytest.mark.parametrize("edit,message", BAD_CHECKPOINTS.values(), ids=BAD_CHECKPOINTS.keys())
def test_checkpoint_that_breaks_the_layout_is_refused(tmp_path, edit, message):
    model, _, _, aug = tiny_setup()
    path = tmp_path / "state.ckpt"
    save_checkpoint(Checkpoint.from_model(model, 1, aug.seed, 0.5), path)
    load_checkpoint(path)
    edit(path)
    with pytest.raises(CheckpointError, match=message) as e:
        load_checkpoint(path)
    assert str(path) in str(e.value)


GOOD_RECORD = TrainLogRecord(epoch=0, lr=0.05, train_loss=1.25, train_acc=0.5, eval_loss=1.5,
                             eval_top1=0.25, eval_top5=0.75, wall_time=0.125)

# whole log lines that are not records: (line, what the refusal says)
BAD_LOG_LINES = {
    "list": ("[1]", "must be a mapping"),
    "empty-object": ("{}", "missing 8 required"),
    "no-eval_top1": (json.dumps(without(dataclasses.asdict(GOOD_RECORD), "eval_top1")),
                     "eval_top1"),
    "epoch-x": (json.dumps({**dataclasses.asdict(GOOD_RECORD), "epoch": "x"}),
                "epoch must be an integer"),
}


@pytest.mark.parametrize("line,message", BAD_LOG_LINES.values(), ids=BAD_LOG_LINES.keys())
def test_log_line_that_is_not_a_record_is_refused(tmp_path, line, message):
    path = tmp_path / "train_log.jsonl"
    path.write_text(GOOD_RECORD.line() + line + "\n")
    with pytest.raises(ValueError, match=message) as e:
        training.read_log(path)
    assert str(e.value).startswith(f"{path} line 2: ")


def test_log_reads_back_what_it_writes(tmp_path):
    # a NaN eval loss is a record too; a last line cut short by a crash is not
    nan_loss = dataclasses.replace(GOOD_RECORD, epoch=1, eval_loss=float("nan"))
    path = tmp_path / "train_log.jsonl"
    path.write_text(GOOD_RECORD.line() + nan_loss.line() + '{"epoch": 2, "lr"')
    records = training.read_log(path)
    assert [r.line() for r in records] == [GOOD_RECORD.line(), nan_loss.line()]
    assert training.read_log(tmp_path / "absent.jsonl") == []


class TestTrainLoop:
    def test_runs_are_bit_deterministic(self):
        records = []
        for _ in range(2):
            model, train_batch, eval_batch, aug = tiny_setup()
            sched = TrainingSchedule(base_lr=0.05, milestones=(1,), epochs=2, batch_size=8)
            result = train(model, train_batch, eval_batch, sched, aug)
            records.append([r.comparable() for r in result.records])
        assert records[0] == records[1]

    def test_each_step_graph_is_dropped_before_the_next_forward(self, monkeypatch):
        # without the cycle collector, a step's loss dies only once nothing
        # refers to its graph
        model, train_batch, eval_batch, aug = tiny_setup(samples=16)
        losses, alive_at_forward = [], []
        xent = T.softmax_cross_entropy

        def recording(logits, labels):
            loss = xent(logits, labels)
            if loss.requires_grad:
                losses.append(weakref.ref(loss.data))
            return loss

        forward = model.forward

        def checking(inputs, training=False):
            alive_at_forward.append(sum(r() is not None for r in losses))
            return forward(inputs, training)

        monkeypatch.setattr(T, "softmax_cross_entropy", recording)
        model.forward = checking
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=1, batch_size=8)
        gc.disable()
        try:
            train(model, train_batch, eval_batch, sched, aug)
        finally:
            gc.enable()
        assert len(losses) == 2
        # no step's loss is alive at the two steps' forwards or the evaluation's
        assert alive_at_forward == [0, 0, 0]

    def test_lr_trace_follows_schedule(self):
        model, train_batch, eval_batch, aug = tiny_setup()
        sched = TrainingSchedule(base_lr=0.08, milestones=(1, 2), epochs=3, batch_size=8)
        result = train(model, train_batch, eval_batch, sched, aug)
        assert np.allclose([r.lr for r in result.records], [0.08, 0.008, 0.0008], rtol=1e-12)

    def test_jsonl_log_matches_records(self, tmp_path):
        model, train_batch, eval_batch, aug = tiny_setup()
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=2, batch_size=8)
        result = train(model, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path))
        lines = (tmp_path / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(l) for l in lines] == [dataclasses.asdict(r) for r in result.records]
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "last.ckpt").exists()

    def test_crop_is_checked_before_anything_is_written(self, tmp_path):
        model, train_batch, eval_batch, aug = tiny_setup()
        sched = TrainingSchedule(milestones=(), epochs=1, batch_size=8)
        big_crop = dataclasses.replace(aug, crop_size=21)  # 16 + 2 * 2 = 20 fits
        with pytest.raises(ValueError, match="crop_size: 21 exceeds padded image size 20"):
            train(model, train_batch, eval_batch, sched, big_crop, out_dir=str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()

    def test_best_checkpoint_tracks_peak_eval(self, tmp_path):
        model, train_batch, eval_batch, aug = tiny_setup()
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=3, batch_size=8)
        result = train(model, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path))
        tops = [r.eval_top1 for r in result.records]
        assert result.best.eval_top1 == max(tops)
        assert result.best.epoch == int(np.argmax(tops))  # first peak wins
        assert result.best is result.records[result.best.epoch]

        twin = build_multipod(tiny_spec())
        load_checkpoint(tmp_path / "best.ckpt").apply(twin)
        assert evaluate_center_crop(twin, eval_batch, aug).top1 == max(tops)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_location(self):
        model, train_batch, eval_batch, aug = tiny_setup()
        sched = TrainingSchedule(base_lr=1e18, milestones=(), epochs=4, batch_size=8)
        with pytest.raises(NumericalAbort, match=r"epoch \d+, step \d+"):
            train(model, train_batch, eval_batch, sched, aug)

    def test_early_stop_callback_halts(self):
        model, train_batch, eval_batch, aug = tiny_setup()
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=10, batch_size=8)
        result = train(model, train_batch, eval_batch, sched, aug,
                       early_stop=lambda rec: rec.epoch == 1)
        assert len(result.records) == 2

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        sched = TrainingSchedule(base_lr=0.05, milestones=(4,), epochs=6, batch_size=8)

        model_a, train_batch, eval_batch, aug = tiny_setup()
        full = train(model_a, train_batch, eval_batch, sched, aug)

        model_b, _, _, _ = tiny_setup()
        train(model_b, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path),
              early_stop=lambda rec: rec.epoch == 2)  # interrupt after 3 epochs
        ckpt = load_checkpoint(tmp_path / "last.ckpt")
        assert ckpt.epoch == 3

        model_c, _, _, _ = tiny_setup()
        tail = train(model_c, train_batch, eval_batch, sched, aug, resume_from=ckpt)
        assert [r.epoch for r in tail.records] == [3, 4, 5]
        assert ([r.comparable() for r in tail.records]
                == [r.comparable() for r in full.records[3:]])
        for name, arr in model_a.store.param_values().items():
            assert np.array_equal(arr, model_c.store.param_values()[name]), name

    def test_fresh_run_into_used_directory_starts_a_clean_log(self, tmp_path):
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=2, batch_size=8)
        for _ in range(2):
            model, train_batch, eval_batch, aug = tiny_setup()
            train(model, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path))
        rows = [json.loads(l) for l in (tmp_path / "train_log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [0, 1]

    def test_resume_after_crash_before_checkpoint_save_logs_each_epoch_once(
            self, tmp_path, monkeypatch):
        sched = TrainingSchedule(base_lr=0.05, milestones=(2,), epochs=4, batch_size=8)
        model_a, train_batch, eval_batch, aug = tiny_setup()
        full = train(model_a, train_batch, eval_batch, sched, aug)

        # the second epoch is logged, then its checkpoint save crashes
        def crash_on_second_last_ckpt(ckpt, *paths):
            if ckpt.epoch == 2 and any(path.endswith("last.ckpt") for path in paths):
                raise OSError("crash before the checkpoint save")
            save_checkpoint(ckpt, *paths)

        monkeypatch.setattr("multipod.training.save_checkpoint", crash_on_second_last_ckpt)
        model_b, _, _, _ = tiny_setup()
        with pytest.raises(OSError, match="crash"):
            train(model_b, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path))
        monkeypatch.undo()
        ckpt = load_checkpoint(tmp_path / "last.ckpt")
        assert ckpt.epoch == 1

        model_c, _, _, _ = tiny_setup()
        train(model_c, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path),
              resume_from=ckpt)
        rows = [json.loads(l) for l in (tmp_path / "train_log.jsonl").read_text().splitlines()]
        assert ([{k: v for k, v in r.items() if k != "wall_time"} for r in rows]
                == [r.comparable() for r in full.records])

    def test_fresh_run_crashed_in_a_used_directory_leaves_no_checkpoint(
            self, tmp_path, monkeypatch):
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=4, batch_size=8)
        model, train_batch, eval_batch, aug = tiny_setup()
        train(model, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path),
              early_stop=lambda rec: rec.epoch == 2)
        old = load_checkpoint(tmp_path / "last.ckpt")
        assert old.epoch == 3

        def crash(*args):
            raise RuntimeError("crash in the first step")

        monkeypatch.setattr(training, "sgd_step", crash)
        model, *_ = tiny_setup()
        with pytest.raises(RuntimeError, match="crash"):
            train(model, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path))
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train_log.jsonl"]
        assert (tmp_path / "train_log.jsonl").read_text() == ""
        # the previous run's state cannot be continued over the new run's empty log
        model, *_ = tiny_setup()
        with pytest.raises(CheckpointError, match="does not log epochs 0 to 2"):
            train(model, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path),
                  resume_from=old)
        assert (tmp_path / "train_log.jsonl").read_text() == ""

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:1] + lines[2:], lambda lines: lines[1:], lambda lines: lines * 2,
        lambda lines: lines[::-1], None], ids=["missing", "first-missing", "twice", "reversed",
                                               "deleted"])
    def test_resume_needs_one_record_of_each_epoch_before_it(self, tmp_path, edit):
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=4, batch_size=8)
        model, train_batch, eval_batch, aug = tiny_setup()
        train(model, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path),
              early_stop=lambda rec: rec.epoch == 2)
        log = tmp_path / "train_log.jsonl"
        if edit is None:
            log.unlink()
        else:
            log.write_text("".join(edit(log.read_text().splitlines(keepends=True))))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        ckpt = load_checkpoint(tmp_path / "last.ckpt")
        model, *_ = tiny_setup()
        params = model.store.param_values()
        with pytest.raises(CheckpointError, match=re.escape(
                f"cannot resume at epoch 3: {log} does not log epochs 0 to 2, each once")):
            train(model, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path),
                  resume_from=ckpt)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        for name, arr in model.store.param_values().items():
            assert np.array_equal(arr, params[name]), name

    def test_resumed_best_is_the_first_peak_of_the_whole_log(self, tmp_path):
        sched = TrainingSchedule(base_lr=0.05, milestones=(2,), epochs=4, batch_size=8)
        model, train_batch, eval_batch, aug = tiny_setup()
        train(model, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path),
              early_stop=lambda rec: rec.epoch == 1)
        model, *_ = tiny_setup()
        tail = train(model, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path),
                     resume_from=load_checkpoint(tmp_path / "last.ckpt"))
        log = training.read_log(tmp_path / "train_log.jsonl")
        assert [r.epoch for r in log] == [0, 1, 2, 3] and log[2:] == tail.records
        tops = [r.eval_top1 for r in log]
        assert tail.best == log[tops.index(max(tops))]
        assert load_checkpoint(tmp_path / "last.ckpt").best_top1 == max(tops)

    def test_run_without_out_dir_copies_no_state(self, tmp_path, monkeypatch):
        built = []
        from_model = Checkpoint.from_model
        monkeypatch.setattr(Checkpoint, "from_model",
                            staticmethod(lambda *args: built.append(args) or from_model(*args)))
        model, train_batch, eval_batch, aug = tiny_setup()
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=2, batch_size=8)
        result = train(model, train_batch, eval_batch, sched, aug)
        assert len(result.records) == 2 and built == []
        # the same run into a directory builds one state an epoch, for its checkpoints
        model, *_ = tiny_setup()
        train(model, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path))
        assert [args[1] for args in built] == [1, 2]

    def test_resume_with_wrong_seed_rejected(self, tmp_path):
        model, train_batch, eval_batch, aug = tiny_setup(seed=0)
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=2, batch_size=8)
        train(model, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path))
        ckpt = load_checkpoint(tmp_path / "last.ckpt")

        model2, _, _, aug2 = tiny_setup(seed=123)
        params = model2.store.param_values()
        with pytest.raises(CheckpointError, match="seed"):
            train(model2, train_batch, eval_batch, sched, aug2, resume_from=ckpt)
        # the refused checkpoint is not loaded
        for name, arr in model2.store.param_values().items():
            assert np.array_equal(arr, params[name]), name

    def test_scale_fusion_trains_too(self):
        data = synthetic_dataset(4, 24, 16, seed=7)
        spec = MultiPodSpec(pods=2, base=resnet_cifar(1), fusion=APPROACH2, classes=4)
        model = build_multipod(spec)
        aug = AugmentationSpec(pad=2, crop_size=16, hflip_prob=0.5, seed=0,
                               mean=(0.5, 0.5, 0.5), std=(0.25, 0.25, 0.25))
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=1, batch_size=8)
        result = train(model, data.subset(np.arange(16)), data.subset(np.arange(16, 24)),
                       sched, aug)
        assert len(result.records) == 1
        assert np.isfinite(result.records[0].train_loss)
