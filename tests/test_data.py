import numpy as np
import pytest

from multipod.data import (AugmentationSpec, CIFAR10_MEAN, CIFAR10_STD, DataError,
                           ImageBatch, JitterSpec, color_jitter, load_cifar10_test,
                           load_cifar10_train, make_pod_inputs, normalize, sample_rng,
                           synthetic_dataset)
from oracles import synthetic_pixels_oracle

RECORD = 3073


def write_records(path, labels, fill):
    """One flat uint8 file of 3073-byte records; channel planes are constant."""
    out = np.zeros((len(labels), RECORD), dtype=np.uint8)
    for i, lab in enumerate(labels):
        out[i, 0] = lab
        out[i, 1:1025] = fill(i, 0)
        out[i, 1025:2049] = fill(i, 1)
        out[i, 2049:] = fill(i, 2)
    out.tofile(str(path))


def fake_cifar_dir(tmp_path, per_train=2, per_test=3):
    for b in range(1, 6):
        write_records(tmp_path / f"data_batch_{b}.bin",
                      [(b + i) % 10 for i in range(per_train)],
                      lambda i, ch: 10 * (ch + 1) + i)
    write_records(tmp_path / "test_batch.bin", list(range(per_test)),
                  lambda i, ch: 100 + ch)
    return tmp_path


class TestLoader:
    def test_shapes_labels_and_scaling(self, tmp_path):
        d = fake_cifar_dir(tmp_path)
        train, test = load_cifar10_train(d), load_cifar10_test(d)
        assert train.pixels.shape == (10, 3, 32, 32)
        assert test.pixels.shape == (3, 3, 32, 32)
        assert train.labels.tolist() == [1, 2, 2, 3, 3, 4, 4, 5, 5, 6]
        assert test.labels.tolist() == [0, 1, 2]
        # first record of data_batch_1: red plane 10, green 20, blue 30
        assert np.isclose(train.pixels[0, 0, 0, 0], 10 / 255)
        assert np.isclose(train.pixels[0, 1, 5, 7], 20 / 255)
        assert np.isclose(train.pixels[0, 2, 31, 31], 30 / 255)
        assert train.pixels.dtype == np.float32 and train.labels.dtype == np.int64

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="data_batch_1.bin"):
            load_cifar10_train(tmp_path)

    def test_truncated_file(self, tmp_path):
        d = fake_cifar_dir(tmp_path)
        with open(d / "data_batch_2.bin", "ab") as f:
            f.write(b"\x00" * 100)
        with pytest.raises(DataError, match="not a positive multiple"):
            load_cifar10_train(d)

    def test_bad_label_reports_offset(self, tmp_path):
        d = fake_cifar_dir(tmp_path)
        write_records(d / "data_batch_3.bin", [4, 12], lambda i, ch: 0)
        with pytest.raises(DataError, match="label byte 12 at offset 3073"):
            load_cifar10_train(d)


class TestImageBatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            ImageBatch(np.zeros((2, 1, 4, 4)), np.zeros(2))
        with pytest.raises(ValueError):
            ImageBatch(np.zeros((2, 3, 4, 4)), np.zeros(3))

    def test_len_and_subset(self):
        batch = ImageBatch(np.zeros((5, 3, 4, 4)), np.arange(5))
        sub = batch.subset([4, 0])
        assert len(batch) == 5 and len(sub) == 2
        assert sub.labels.tolist() == [4, 0]


class TestSynthetic:
    def test_deterministic_per_seed(self):
        a = synthetic_dataset(4, 16, 16, seed=3)
        b = synthetic_dataset(4, 16, 16, seed=3)
        c = synthetic_dataset(4, 16, 16, seed=4)
        assert np.array_equal(a.pixels, b.pixels)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_labels_cycle_and_range(self):
        data = synthetic_dataset(3, 7, 8, seed=0)
        assert data.labels.tolist() == [0, 1, 2, 0, 1, 2, 0]
        assert data.pixels.min() >= 0.0 and data.pixels.max() <= 1.0

    def test_classes_are_visually_distinct(self):
        data = synthetic_dataset(2, 32, 16, seed=1, noise=0.0)
        mean0 = data.pixels[data.labels == 0].mean(axis=0)
        mean1 = data.pixels[data.labels == 1].mean(axis=0)
        assert np.abs(mean0 - mean1).max() > 0.05

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("classes,samples,size,seed", [(4, 16, 16, 3), (3, 7, 8, 0),
                                                           (10, 40, 32, 11)])
    def test_matches_per_image_oracle(self, classes, samples, size, seed, noise):
        data = synthetic_dataset(classes, samples, size, seed, noise=noise)
        assert np.array_equal(data.pixels,
                              synthetic_pixels_oracle(classes, samples, size, seed, noise))

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            synthetic_dataset(1, 8, 8, seed=0)
        with pytest.raises(ValueError):
            synthetic_dataset(4, 3, 8, seed=0)


class TestColorJitter:
    def test_unit_factors_are_identity(self, rng):
        img = rng.random((3, 6, 6), dtype=np.float32)
        out = color_jitter(img, 1.0, 1.0, 1.0, order=("brightness", "contrast", "saturation"))
        assert np.array_equal(out, img)

    def test_zero_brightness_blacks_out(self, rng):
        img = rng.random((3, 4, 4), dtype=np.float32)
        out = color_jitter(img, brightness=0.0, order=("contrast", "saturation", "brightness"))
        assert np.all(out == 0.0)

    def test_zero_contrast_is_constant_luma(self, rng):
        img = rng.random((3, 4, 4), dtype=np.float32)
        out = color_jitter(img, contrast=0.0, order=("brightness", "saturation", "contrast"))
        assert np.allclose(out, out.reshape(3, -1)[0, 0], atol=1e-6)

    def test_grayscale_is_saturation_fixed_point(self):
        v = np.linspace(0.1, 0.9, 16, dtype=np.float32).reshape(1, 4, 4)
        img = np.repeat(v, 3, axis=0)
        out = color_jitter(img, saturation=0.3, order=("saturation", "brightness", "contrast"))
        assert np.allclose(out, img, atol=1e-6)

    def test_output_clamped(self, rng):
        img = rng.random((3, 4, 4), dtype=np.float32)
        out = color_jitter(img, brightness=5.0, order=("brightness", "contrast", "saturation"))
        assert out.max() <= 1.0 and out.min() >= 0.0

    def test_negative_factor_rejected(self, rng):
        with pytest.raises(ValueError):
            color_jitter(np.zeros((3, 2, 2)), brightness=-0.1,
                         order=("brightness", "contrast", "saturation"))

    def test_order_matters_for_extreme_factors(self, rng):
        img = rng.random((3, 6, 6), dtype=np.float32)
        a = color_jitter(img, 1.3, 0.6, 1.0, order=("brightness", "contrast", "saturation"))
        b = color_jitter(img, 1.3, 0.6, 1.0, order=("contrast", "brightness", "saturation"))
        assert not np.array_equal(a, b)


class TestNormalize:
    def test_hand_example(self):
        img = np.full((3, 2, 2), 0.5, dtype=np.float32)
        out = normalize(img, (0.5, 0.25, 1.0), (0.25, 0.25, 0.5))
        assert np.allclose(out[0], 0.0)
        assert np.allclose(out[1], 1.0)
        assert np.allclose(out[2], -1.0)

    def test_dataset_constants(self):
        assert np.allclose(CIFAR10_MEAN, (0.4914, 0.4822, 0.4465))
        assert np.allclose(CIFAR10_STD, (0.2023, 0.1994, 0.2010))

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.zeros((3, 2, 2)), (0, 0, 0), (1, 0, 1))


class TestSpecs:
    def test_augmentation_round_trip(self):
        spec = AugmentationSpec(pad=2, crop_size=16, hflip_prob=0.3,
                                jitter=JitterSpec((0.8, 1.2), (0.9, 1.1), (1.0, 1.0)),
                                mean=(0.1, 0.2, 0.3), std=(1.0, 1.0, 1.0),
                                routing="per-pod-jitter", seed=9)
        assert AugmentationSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_falls_back_to_field_defaults(self):
        assert AugmentationSpec.from_dict({}) == AugmentationSpec()

    def test_sequence_fields_are_stored_as_tuples(self):
        listed = AugmentationSpec(mean=[0.1, 0.2, 0.3], std=[1.0, 2.0, 3.0],
                                  jitter=JitterSpec([0.8, 1.2], [0.9, 1.1], [1.0, 1.0]))
        tupled = AugmentationSpec(mean=(0.1, 0.2, 0.3), std=(1.0, 2.0, 3.0),
                                  jitter=JitterSpec((0.8, 1.2), (0.9, 1.1), (1.0, 1.0)))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert JitterSpec(brightness=[0.5, 1.5]) == JitterSpec(brightness=(0.5, 1.5))

    @pytest.mark.parametrize("kwargs", [
        dict(pad=-1),
        dict(crop_size=0),
        dict(hflip_prob=1.5),
        dict(routing="per-sample"),
        dict(std=(0.0, 1.0, 1.0)),
        dict(jitter=dict(brightness=(0.0, 1.4))),
        dict(jitter=dict(contrast=(0.6, 0.9))),
    ])
    def test_invalid_specs(self, kwargs):
        # a jitter case is given as JitterSpec fields: that constructor raises
        with pytest.raises(ValueError):
            if "jitter" in kwargs:
                kwargs = dict(kwargs, jitter=JitterSpec(**kwargs["jitter"]))
            AugmentationSpec(**kwargs)

    def test_crop_must_fit_padded_image(self):
        spec = AugmentationSpec(pad=1, crop_size=32)
        spec.check_crop(30)
        with pytest.raises(ValueError, match="crop_size: 32 exceeds padded image size 18"):
            spec.check_crop(16)


def small_batch(samples=8, size=16, seed=0):
    return synthetic_dataset(4, samples, size, seed=seed).pixels


def plain_spec(**kwargs):
    defaults = dict(pad=2, crop_size=16, hflip_prob=0.5, mean=(0.0, 0.0, 0.0),
                    std=(1.0, 1.0, 1.0), seed=0)
    defaults.update(kwargs)
    return AugmentationSpec(**defaults)


class TestMakePodInputs:
    def test_eval_mode_is_normalize_only(self):
        px = small_batch()
        spec = plain_spec(mean=CIFAR10_MEAN, std=CIFAR10_STD)
        pods = make_pod_inputs(px, spec, 3, epoch=5, train=False)
        ref = normalize(px, CIFAR10_MEAN, CIFAR10_STD)
        for p in pods:
            assert np.array_equal(p, ref)
            # one read-only array serves every pod
            assert np.shares_memory(p, pods[0]) and not p.flags.writeable

    def test_eval_mode_ignores_seed_and_epoch(self):
        px = small_batch()
        a = make_pod_inputs(px, plain_spec(seed=0), 2, epoch=0, train=False)
        b = make_pod_inputs(px, plain_spec(seed=77), 2, epoch=9, train=False)
        assert np.array_equal(a[0], b[0])

    def test_train_is_deterministic(self):
        px = small_batch()
        spec = plain_spec(jitter=JitterSpec(), routing="per-pod-jitter")
        a = make_pod_inputs(px, spec, 3, epoch=2)
        b = make_pod_inputs(px, spec, 3, epoch=2)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_epoch_changes_augmentation(self):
        px = small_batch(16)
        spec = plain_spec()
        a = make_pod_inputs(px, spec, 1, epoch=0)
        b = make_pod_inputs(px, spec, 1, epoch=1)
        assert not np.array_equal(a[0], b[0])

    def test_geometry_shared_when_no_jitter(self):
        px = small_batch()
        for routing in ("identical", "shared-jitter", "per-pod-jitter"):
            pods = make_pod_inputs(px, plain_spec(routing=routing), 3, epoch=1)
            assert np.array_equal(pods[0], pods[1])
            assert np.array_equal(pods[0], pods[2])

    def test_identical_routing_ignores_jitter_spec(self):
        px = small_batch()
        with_j = plain_spec(jitter=JitterSpec(), routing="identical")
        without = plain_spec(jitter=None, routing="identical")
        a = make_pod_inputs(px, with_j, 2, epoch=3)
        b = make_pod_inputs(px, without, 2, epoch=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_shared_jitter_pods_match_bitwise(self):
        px = small_batch()
        spec = plain_spec(jitter=JitterSpec(), routing="shared-jitter")
        pods = make_pod_inputs(px, spec, 3, epoch=1)
        assert np.array_equal(pods[0], pods[1])
        assert np.array_equal(pods[0], pods[2])

    def test_per_pod_jitter_pods_differ(self):
        px = small_batch()
        spec = plain_spec(jitter=JitterSpec(), routing="per-pod-jitter")
        pods = make_pod_inputs(px, spec, 3, epoch=1)
        assert not np.array_equal(pods[0], pods[1])
        assert not np.array_equal(pods[1], pods[2])

    def test_degenerate_jitter_ranges_collapse_routing(self):
        px = small_batch()
        unit = JitterSpec((1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
        spec = plain_spec(jitter=unit, routing="per-pod-jitter")
        pods = make_pod_inputs(px, spec, 3, epoch=1)
        ref = make_pod_inputs(px, plain_spec(routing="identical"), 3, epoch=1)
        assert np.array_equal(pods[0], pods[1])
        assert np.array_equal(pods[0], ref[0])

    def test_batch_composition_invariance(self):
        px = small_batch(8)
        spec = plain_spec(jitter=JitterSpec(), routing="per-pod-jitter", seed=5)
        full = make_pod_inputs(px, spec, 2, epoch=1, indices=np.arange(8))
        sub = make_pod_inputs(px[[5, 2]], spec, 2, epoch=1, indices=[5, 2])
        for p in range(2):
            assert np.array_equal(sub[p][0], full[p][5])
            assert np.array_equal(sub[p][1], full[p][2])

    def test_outputs_stay_in_unit_range_pre_normalization(self):
        px = small_batch()
        spec = plain_spec(jitter=JitterSpec(), routing="per-pod-jitter")
        for p in make_pod_inputs(px, spec, 2, epoch=0):
            assert p.min() >= 0.0 and p.max() <= 1.0

    def test_train_flip_reverses_width(self):
        px = small_batch()
        pods = make_pod_inputs(px, plain_spec(pad=0, hflip_prob=1.0), 2)
        for p in pods:
            assert np.array_equal(p, px[..., ::-1])

    def test_views_are_windows_of_the_zero_padded_image(self, rng):
        pad, size = 2, 8
        x = rng.random((64, 3, size, size), dtype=np.float32) + 0.5  # no zero pixel
        (view,) = make_pod_inputs(x, plain_spec(pad=pad, crop_size=size, hflip_prob=0.0), 1)
        padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        offsets = []
        for i in range(len(x)):
            found = [(r, c) for r in range(2 * pad + 1) for c in range(2 * pad + 1)
                     if np.array_equal(view[i], padded[i, :, r:r + size, c:c + size])]
            assert found, f"view {i} is no window of its padded image"
            offsets.append(found[0])
        # the batch shows the zero band and offsets strictly inside the range
        assert (view == 0.0).any()
        assert any(0 < r < 2 * pad and 0 < c < 2 * pad for r, c in offsets)

    @pytest.mark.parametrize("shape", [(1, 3, 8, 8), (2, 3, 8, 12), (2, 3, 12, 8)])
    def test_oversized_crop_rejected(self, shape):
        # the short side bounds the crop: 8 + 2 * 1 = 10 < 11
        with pytest.raises(ValueError, match="crop_size: 11 exceeds padded image size 10"):
            make_pod_inputs(np.zeros(shape), plain_spec(pad=1, crop_size=11), 2)
        assert make_pod_inputs(np.zeros(shape), plain_spec(pad=1, crop_size=10), 2)[0].shape == (
            shape[0], 3, 10, 10)

    def test_train_flip_prob_zero_is_identity(self):
        px = small_batch()
        pods = make_pod_inputs(px, plain_spec(pad=0, hflip_prob=0.0), 2)
        for p in pods:
            assert np.array_equal(p, px)

    def test_train_flip_fraction_near_half(self):
        # width-2 ramps so a flip is detectable per image
        x = np.zeros((10_000, 3, 2, 2), dtype=np.float32)
        x[..., 1] = 1.0
        (out,) = make_pod_inputs(x, plain_spec(pad=0, crop_size=2, seed=123), 1)
        frac = float((out[:, 0, 0, 0] == 1.0).mean())
        assert 0.48 <= frac <= 0.52

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            make_pod_inputs(small_batch(), plain_spec(), 0)


def test_sample_rng_fixed_by_triple():
    a = sample_rng(3, 1, 42).random(4)
    b = sample_rng(3, 1, 42).random(4)
    c = sample_rng(3, 1, 43).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
