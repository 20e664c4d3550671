import math
import zlib

import numpy as np
import pytest

import multipod.models as models
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
        dict(pods=2, seeds=(1.5, 2)),
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


def initial_values(spec, name, shape, dtype):
    """What parameter ``name`` of a freshly built ``spec`` holds, by the rules
    ``init_params`` documents: a Kaiming-normal draw from the stream of (its
    seed, its name below the pod or head prefix), ones or zeros."""
    owner, local = name.split(".", 1)
    seed = (spec.seeds[int(owner[3:])] if owner.startswith("pod")
            else zlib.crc32(repr(tuple(spec.seeds)).encode()))
    leaf = local.rsplit(".", 1)[-1]
    if leaf == "weight":
        rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(local.encode())]))
        return rng.normal(0.0, np.sqrt(2.0 / math.prod(shape[1:])), size=shape).astype(dtype)
    return (np.ones if leaf == "gamma" or leaf.startswith("scale") else np.zeros)(shape, dtype)


class TestDrawOnFirstRead:
    """A parameter's initial values are drawn when its data is first read."""

    def test_build_and_count_draw_nothing(self, param_draws):
        spec = tripod(APPROACH2)
        store = build_multipod(spec).store
        assert store.total_params() == count_params(spec)
        assert [shape for _, shape in store.shapes()][:2] == [(16, 3, 3, 3), (16,)]
        assert param_draws == []

    @pytest.mark.parametrize("reverse", [False, True], ids=["store-order", "reverse-order"])
    @pytest.mark.parametrize("spec,dtype", [
        (tripod(APPROACH1), np.float32),
        (MultiPodSpec(pods=2, base=resnet_cifar(1), fusion=APPROACH2, combine_mode="product",
                      classes=7, seeds=(5, 9)), np.float64),
    ], ids=["float32-tripod", "float64-scale-fusion"])
    def test_each_parameter_is_its_rule_drawn_directly(self, spec, dtype, reverse, param_draws):
        store = build_multipod(spec, dtype=dtype).store
        names = [name for name, _ in store.items()]
        for name in reversed(names) if reverse else names:
            store.param(name).data  # the first read draws
        weights = [name for name in names if name.endswith(".weight")]
        assert len(param_draws) == len(weights)  # each weight once, nothing else
        for name, shape in store.shapes():
            got = store.param(name).data
            assert got.dtype == dtype and got.shape == shape, name
            assert got.tobytes() == initial_values(spec, name, shape, dtype).tobytes(), name
        assert len(param_draws) == len(weights)

    def test_assignment_before_first_read_is_kept(self, param_draws):
        store = build_multipod(tripod(APPROACH1, n=1)).store
        t = store.param("pod1.stage2.block0.conv1.weight")
        values = np.full((32, 16, 3, 3), 0.5, dtype=np.float32)
        t.data = values
        assert t.data is values
        assert param_draws == []

    def test_init_params_rearms_the_draw(self, param_draws):
        _, store = build_pod_base(resnet_cifar(1), seed=3)
        for name, shape in store.shapes():
            store.param(name).data = np.full(shape, 7.0, dtype=np.float32)
        init_params(store, 3)
        assert param_draws == []
        _, fresh = build_pod_base(resnet_cifar(1), seed=3)
        for (name, t), (_, want) in zip(store.items(), fresh.items()):
            assert t.data.tobytes() == want.data.tobytes(), name
        assert len(param_draws) == 2 * sum(name.endswith(".weight") for name, _ in store.items())


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


def _owner(a):
    while a.base is not None:
        a = a.base
    return a


class TestBufferHandOver:
    """Each batch norm output and residual sum lends its buffer to the relu
    or add that reads it (``tensor``'s buffer hand-over)."""

    @staticmethod
    def pod_graph(seed=0, batch=8):
        # one resnet20 pod with its head and loss, the nodes that have a backward
        spec = MultiPodSpec(pods=1, base=resnet_cifar(3), fusion=APPROACH1, classes=10)
        model = build_multipod(spec)
        rng = np.random.default_rng(seed)
        x = T.Tensor(rng.standard_normal((batch, 3, 32, 32)).astype(np.float32))
        loss = T.softmax_cross_entropy(model.forward([x], training=True),
                                       rng.integers(0, 10, batch))
        return model, loss, [n for n in T._toposort(loss) if n._backward is not None]

    def test_each_relu_writes_into_the_batch_norm_output_it_reads(self):
        _, _, nodes = self.pod_graph()
        relus = [n for n in nodes if n._op == "relu"]
        assert len(relus) == 19
        for r in relus:
            (x,) = r._parents
            if x._op == "add":  # a block's second relu, after the residual sum
                assert x.data is x._parents[0].data
                x = x._parents[0]
            assert x._op == "batch_norm2d" and r.data is x.data

    def test_graph_holds_45_buffers_not_73(self, monkeypatch):
        counts = []
        for lend in (True, False):
            if not lend:
                monkeypatch.setattr(models, "_lend", lambda t: t)
            _, _, nodes = self.pod_graph()
            counts.append((len(nodes), len({id(_owner(n.data)) for n in nodes})))
        # the stem's relu and, in each of 9 blocks, the relu after bn1, the
        # residual sum and the relu after it no longer take a buffer each
        assert counts == [(73, 45), (73, 73)]

    def test_hand_over_keeps_every_bit(self, monkeypatch):
        runs = []
        for lend in (True, False):
            if not lend:
                monkeypatch.setattr(models, "_lend", lambda t: t)
            model, loss, _ = self.pod_graph(seed=5)
            loss.backward()
            runs.append([loss.data.tobytes()]
                        + [t.grad.tobytes() for _, t in model.store.items()]
                        + [b.mean.tobytes() + b.var.tobytes() for _, b in model.store.buffers()])
        assert runs[0] == runs[1]

    def test_relu_is_still_called_19_times_a_pod(self, rng, monkeypatch):
        calls = []
        plain = T.relu

        def counting_relu(x):
            calls.append(x._op)
            return plain(x)

        monkeypatch.setattr(T, "relu", counting_relu)
        model = build_multipod(tripod(APPROACH1))
        model.forward(feature_inputs(rng, 3), training=True)
        assert len(calls) == 3 * 19
        assert calls.count("batch_norm2d") == 3 * 10 and calls.count("add") == 3 * 9


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
