import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

import multipod.tensor as T
import multipod.training as training
from multipod.data import AugmentationSpec, ImageBatch, synthetic_dataset
from multipod.models import (APPROACH1, APPROACH2, MultiPodSpec, ParamStore,
                             build_multipod, resnet_cifar)
from multipod.training import (Checkpoint, CheckpointError, NumericalAbort,
                               TrainingSchedule, evaluate_center_crop,
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


class TestScoringLoop:
    @pytest.mark.parametrize("evaluate", [evaluate_center_crop, evaluate_ten_crop],
                             ids=["center", "tencrop"])
    def test_batch_size_does_not_change_result(self, evaluate):
        batch = random_batch(10, 6, classes=6, seed=6)
        model = ProjectionModel(4, 6, seed=7)
        a = evaluate(model, batch, identity_aug(4), batch_size=3)
        b = evaluate(model, batch, identity_aug(4), batch_size=256)
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
        evaluate_center_crop(model, eval_batch, aug, batch_size=3)
        assert calls == [False] * 2
        calls.clear()
        evaluate_ten_crop(model, eval_batch, aug, crop_size=12, batch_size=3)
        assert calls == [False] * 20  # ten views per batch


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

    def test_restored_model_evaluates_identically(self, tmp_path):
        model, train_batch, eval_batch, aug = tiny_setup()
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=1, batch_size=8)
        train(model, train_batch, eval_batch, sched, aug)
        path = tmp_path / "state.ckpt"
        save_checkpoint(Checkpoint.from_model(model, 1, aug.seed, 0.0), path)

        twin = build_multipod(tiny_spec())
        load_checkpoint(path).apply(twin)
        a = evaluate_center_crop(model, eval_batch, aug)
        b = evaluate_center_crop(twin, eval_batch, aug)
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

    def test_format_version_mismatch(self, tmp_path):
        path = tmp_path / "old.ckpt"
        meta = json.dumps({"format_version": 99}).encode()
        with open(path, "wb") as f:
            np.savez(f, __meta__=np.frombuffer(meta, dtype=np.uint8))
        with pytest.raises(CheckpointError, match="format version 99"):
            load_checkpoint(path)


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
        assert [json.loads(l) for l in lines] == [r.to_dict() for r in result.records]
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
        assert result.best_top1 == max(tops)
        assert result.best.epoch == int(np.argmax(tops)) + 1  # first peak wins

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
                       early_stop=lambda rec, m: rec.epoch == 1)
        assert len(result.records) == 2

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        sched = TrainingSchedule(base_lr=0.05, milestones=(4,), epochs=6, batch_size=8)

        model_a, train_batch, eval_batch, aug = tiny_setup()
        full = train(model_a, train_batch, eval_batch, sched, aug)

        model_b, _, _, _ = tiny_setup()
        train(model_b, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path),
              early_stop=lambda rec, m: rec.epoch == 2)  # interrupt after 3 epochs
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

        # the second epoch is logged, then its last.ckpt save crashes
        def crash_on_second_last_ckpt(ckpt, path):
            if path.endswith("last.ckpt") and ckpt.epoch == 2:
                raise OSError("crash before the checkpoint save")
            save_checkpoint(ckpt, path)

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

    def test_resume_with_wrong_seed_rejected(self, tmp_path):
        model, train_batch, eval_batch, aug = tiny_setup(seed=0)
        sched = TrainingSchedule(base_lr=0.05, milestones=(), epochs=2, batch_size=8)
        train(model, train_batch, eval_batch, sched, aug, out_dir=str(tmp_path))
        ckpt = load_checkpoint(tmp_path / "last.ckpt")

        model2, _, _, aug2 = tiny_setup(seed=123)
        with pytest.raises(CheckpointError, match="seed"):
            train(model2, train_batch, eval_batch, sched, aug2, resume_from=ckpt)

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
