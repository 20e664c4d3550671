import numpy as np
import pytest

import multipod.tensor as T
from multipod.models import (APPROACH1, APPROACH2, CIFAR_FAMILY, IMAGENET_FAMILY,
                             MultiPodSpec, build_multipod, build_pod_base,
                             count_base_params, count_params, init_params,
                             resnet_cifar, resnet_imagenet)


def tripod(fusion, n=3, classes=10, combine="sum"):
    return MultiPodSpec(pods=3, base=resnet_cifar(n), fusion=fusion,
                        combine_mode=combine, classes=classes)


class TestPublishedCounts:
    """Totals for the configurations quoted in the README tables."""

    def test_cifar_base(self):
        assert count_base_params(resnet_cifar(3)) == 271_824

    def test_imagenet_base(self):
        assert count_base_params(resnet_imagenet(2)) == 11_176_512

    @pytest.mark.parametrize("k,expected", [(1, 272_474), (2, 544_938),
                                            (3, 817_402), (4, 1_089_866)])
    def test_cifar_concat_table(self, k, expected):
        spec = MultiPodSpec(pods=k, base=resnet_cifar(3), fusion=APPROACH1)
        assert count_params(spec) == expected

    def test_cifar_tripod_scale_fusion(self):
        assert count_params(tripod(APPROACH2)) == 816_314

    def test_imagenet_single(self):
        spec = MultiPodSpec(pods=1, base=resnet_imagenet(2), fusion=APPROACH1, classes=1000)
        assert count_params(spec) == 11_689_512

    def test_imagenet_tripod(self):
        spec = MultiPodSpec(pods=3, base=resnet_imagenet(2), fusion=APPROACH1, classes=1000)
        assert count_params(spec) == 35_066_536

    def test_concat_head_decomposition(self):
        # 3 pods of 64 features into 10 classes: 3*64*10 weights + 10 biases
        assert count_params(tripod(APPROACH1)) == 3 * 271_824 + 3 * 64 * 10 + 10

    def test_scale_head_decomposition(self):
        # per-pod 64-dim scale vectors plus one shared 64 -> 10 dense layer
        extra = count_params(tripod(APPROACH2)) - 3 * 271_824
        assert extra == 3 * 64 + 64 * 10 + 10 == 842


class TestCountsMatchStores:
    @pytest.mark.parametrize("fusion", [APPROACH1, APPROACH2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_cifar_sweep(self, k, fusion):
        spec = MultiPodSpec(pods=k, base=resnet_cifar(3), fusion=fusion)
        assert build_multipod(spec).store.total_params() == count_params(spec)

    @pytest.mark.parametrize("fusion", [APPROACH1, APPROACH2])
    @pytest.mark.parametrize("k", [1, 4])
    def test_imagenet_sweep_edges(self, k, fusion):
        spec = MultiPodSpec(pods=k, base=resnet_imagenet(2), fusion=fusion, classes=1000)
        assert build_multipod(spec).store.total_params() == count_params(spec)

    def test_uncommon_shape(self):
        spec = MultiPodSpec(pods=2, base=resnet_cifar(2), fusion=APPROACH2, classes=7)
        assert build_multipod(spec).store.total_params() == count_params(spec)

    def test_base_store_matches_count(self):
        _, store = build_pod_base(resnet_cifar(3), seed=0)
        assert store.total_params() == 271_824


class TestSpecValidation:
    def test_round_trip(self):
        spec = MultiPodSpec(pods=2, base=resnet_imagenet(2), fusion=APPROACH2,
                            combine_mode="product", classes=100, seeds=(7, 9))
        assert MultiPodSpec.from_dict(spec.to_dict()) == spec

    def test_default_seeds_are_range(self):
        assert tripod(APPROACH1).seeds == (0, 1, 2)

    def test_from_dict_falls_back_to_field_defaults(self):
        d = tripod(APPROACH2, combine="product").to_dict()
        del d["fusion"], d["combine_mode"]
        assert MultiPodSpec.from_dict(d) == MultiPodSpec(pods=3, base=resnet_cifar(3))

    @pytest.mark.parametrize("kwargs", [
        dict(pods=0),
        dict(pods=2, fusion="bogus"),
        dict(pods=2, combine_mode="mean"),
        dict(pods=2, classes=1),
        dict(pods=2, seeds=(1,)),
        dict(pods=2, seeds=(5, 5)),
    ])
    def test_invalid_specs(self, kwargs):
        defaults = dict(pods=2, base=resnet_cifar(1), fusion=APPROACH1)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            MultiPodSpec(**defaults)

    def test_bad_base_depth(self):
        with pytest.raises(ValueError):
            resnet_cifar(0)

    def test_family_depths(self):
        assert resnet_cifar(3).feature_dim == 64
        assert resnet_cifar(3).family == CIFAR_FAMILY
        assert resnet_imagenet(2).feature_dim == 512
        assert resnet_imagenet(2).family == IMAGENET_FAMILY


class TestInitialization:
    def test_builds_are_deterministic(self, rng):
        spec = MultiPodSpec(pods=2, base=resnet_cifar(1), fusion=APPROACH1)
        a = build_multipod(spec).store.param_values()
        b = build_multipod(spec).store.param_values()
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_distinct_seeds_give_distinct_pods(self):
        spec = MultiPodSpec(pods=2, base=resnet_cifar(1), fusion=APPROACH1)
        store = build_multipod(spec).store
        w0 = store.param("pod0.stem.conv.weight").data
        w1 = store.param("pod1.stem.conv.weight").data
        assert not np.array_equal(w0, w1)

    def test_constant_parameter_values(self):
        store = build_multipod(tripod(APPROACH2, n=1)).store
        for name, t in store.items():
            leaf = name.rsplit(".", 1)[-1]
            if leaf in ("gamma",) or leaf.startswith("scale"):
                assert np.all(t.data == 1.0), name
            elif leaf in ("beta", "bias"):
                assert np.all(t.data == 0.0), name

    def test_kaiming_scale_on_wide_conv(self):
        _, store = build_pod_base(resnet_cifar(3), seed=11)
        candidates = [t for name, t in store.items()
                      if name.endswith("weight") and t.data.shape == (64, 64, 3, 3)]
        w = candidates[0].data
        expected = np.sqrt(2.0 / (64 * 9))
        assert abs(w.std() / expected - 1.0) < 0.05
        assert abs(w.mean()) < 5 * expected / np.sqrt(w.size)

    def test_unknown_leaf_rejected(self):
        from multipod.models import ParamStore
        store = ParamStore()
        store.add_param("oops.thing", (3,))
        with pytest.raises(ValueError):
            init_params(store, 0)


def feature_inputs(rng, k, size=8, batch=2):
    return [T.Tensor(rng.normal(size=(batch, 3, size, size)).astype(np.float32))
            for _ in range(k)]


class TestForwardStructure:
    def test_wrong_input_count_rejected(self, rng):
        model = build_multipod(tripod(APPROACH1, n=1))
        with pytest.raises(ValueError):
            model.pod_features(feature_inputs(rng, 2))

    def test_feature_and_logit_shapes(self, rng):
        model = build_multipod(tripod(APPROACH1, n=1, classes=10))
        inputs = feature_inputs(rng, 3)
        feats = model.pod_features(inputs, training=True)
        assert all(f.data.shape == (2, 64) for f in feats)
        assert model.forward(inputs, training=True).data.shape == (2, 10)

    def test_pods_are_independent(self, rng):
        spec = MultiPodSpec(pods=2, base=resnet_cifar(1), fusion=APPROACH1)
        model = build_multipod(spec)
        inputs = feature_inputs(rng, 2)
        before = model.pod_features(inputs, training=True)
        for name, t in model.store.items():
            if name.startswith("pod1.") and name.endswith("weight"):
                t.data = t.data + 1.0
        after = model.pod_features(inputs, training=True)
        assert np.array_equal(before[0].data, after[0].data)
        assert not np.array_equal(before[1].data, after[1].data)

    def test_identical_pods_make_identical_blocks(self, rng):
        model = build_multipod(tripod(APPROACH1, n=1))
        values = model.store.param_values()
        clone = {}
        for name, arr in values.items():
            if name.startswith("pod"):
                clone[name] = values["pod0" + name[4:]]
        model.store.load_param_values({**values, **clone})
        x = feature_inputs(rng, 1)[0]
        feats = model.pod_features([x, x, x], training=True)
        assert np.array_equal(feats[0].data, feats[1].data)
        assert np.array_equal(feats[0].data, feats[2].data)

    def test_single_pod_collapses_to_plain_network(self, rng):
        spec = MultiPodSpec(pods=1, base=resnet_cifar(1), fusion=APPROACH1, seeds=(0,))
        model = build_multipod(spec)
        base_fwd, base_store = build_pod_base(resnet_cifar(1), seed=0)
        x = feature_inputs(rng, 1)[0]
        feat = model.pod_features([x], training=True)[0]
        ref = base_fwd(x, training=True)
        assert np.array_equal(feat.data, ref.data)
        logits = model.forward([x], training=True)
        manual = T.linear(ref, model.store.param("head.dense.weight"),
                          model.store.param("head.dense.bias"))
        assert np.array_equal(logits.data, manual.data)

    def test_single_pod_scale_fusion_at_init_is_plain_network(self, rng):
        spec = MultiPodSpec(pods=1, base=resnet_cifar(1), fusion=APPROACH2, seeds=(0,))
        model = build_multipod(spec)
        x = feature_inputs(rng, 1)[0]
        feat = model.pod_features([x], training=True)[0]
        manual = T.linear(feat, model.store.param("head.dense.weight"),
                          model.store.param("head.dense.bias"))
        assert np.array_equal(model.forward([x], training=True).data, manual.data)


def permute_pod_params(model, target, perm, feature_dim):
    """Write target's pod i from model's pod perm[i]; fix up the head to match."""
    values = model.store.param_values()
    out = dict(values)
    for name, arr in values.items():
        if name.startswith("pod"):
            i = int(name[3:name.index(".")])
            rest = name[name.index("."):]
            out[f"pod{i}{rest}"] = values[f"pod{perm[i]}{rest}"]
    if model.spec.fusion == APPROACH1:
        w = values["head.dense.weight"]
        blocks = [w[:, p * feature_dim:(p + 1) * feature_dim] for p in perm]
        out["head.dense.weight"] = np.concatenate(blocks, axis=1)
    else:
        for i, p in enumerate(perm):
            out[f"head.scale{i}"] = values[f"head.scale{p}"]
    target.store.load_param_values(out)


@pytest.mark.parametrize("fusion,combine", [(APPROACH1, "sum"), (APPROACH2, "sum"),
                                            (APPROACH2, "product")])
def test_pod_permutation_equivariance_is_bit_exact(rng, fusion, combine):
    spec = tripod(fusion, n=1, combine=combine)
    model = build_multipod(spec)
    shuffled = build_multipod(spec)
    perm = (2, 0, 1)
    permute_pod_params(model, shuffled, perm, spec.base.feature_dim)
    inputs = feature_inputs(rng, 3)
    base_logits = model.forward(inputs, training=True)
    perm_logits = shuffled.forward([inputs[p] for p in perm], training=True)
    assert np.array_equal(base_logits.data, perm_logits.data)
