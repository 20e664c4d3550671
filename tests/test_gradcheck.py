import re

import numpy as np
import pytest

import multipod.tensor as T
from multipod.gradcheck import finite_differences, gradient_check
from multipod.models import APPROACH1, APPROACH2, MultiPodSpec, build_multipod, resnet_cifar
from oracles import fd_quotients_oracle


def small_model(fusion=APPROACH1, combine_mode="sum", pods=2):
    spec = MultiPodSpec(pods=pods, base=resnet_cifar(1), fusion=fusion,
                        combine_mode=combine_mode, classes=10)
    model = build_multipod(spec, dtype=np.float64)
    rng = np.random.default_rng(5)
    inputs = [T.Tensor(rng.normal(0.0, 1.0, (2, 3, 8, 8)), dtype=np.float64)
              for _ in range(pods)]
    return model, inputs, rng.integers(0, 10, size=2)


@pytest.mark.parametrize("fusion,combine_mode", [(APPROACH1, "sum"), (APPROACH2, "sum"),
                                                 (APPROACH2, "product")])
def test_batched_quotients_match_naive_reference(fusion, combine_mode):
    model, inputs, labels = small_model(fusion, combine_mode)
    batched = {name: (positions, fd) for name, positions, fd
               in finite_differences(model, inputs, labels, h=1e-5, sample_stride=97)}
    naive = fd_quotients_oracle(model, inputs, labels, h=1e-5, sample_stride=97)
    assert list(batched) == list(naive)
    for name, ref in naive.items():
        positions, fd = batched[name]
        assert np.array_equal(positions, np.arange(0, model.store.param(name).size, 97))
        np.testing.assert_allclose(fd, ref, rtol=0, atol=1e-9, err_msg=name)


def test_check_leaves_model_bit_identical():
    model, inputs, labels = small_model()
    model.forward(inputs, training=True)  # running buffers away from their initial values
    params = model.store.param_values()
    buffers = model.store.buffer_state()
    report = gradient_check(model, inputs, labels, sample_stride=997)
    assert report.passed
    for name, arr in model.store.param_values().items():
        assert np.array_equal(arr, params[name]), name
    for name, (mean, var, initialized) in model.store.buffer_state().items():
        assert np.array_equal(mean, buffers[name][0]), name
        assert np.array_equal(var, buffers[name][1]), name
        assert initialized == buffers[name][2], name


def test_planted_gradient_fault_is_reported(monkeypatch):
    model, inputs, labels = small_model()
    target = model.store.param("pod1.stage2.block0.conv2.weight")
    plain = T.conv2d

    def faulty_conv2d(x, weight, stride=1, padding=0):
        out = plain(x, weight, stride=stride, padding=padding)
        if weight is target and out._backward is not None:
            inner = out._backward

            def backward(g):
                inner(g)
                target.grad *= 1 + 1e-3
            out._backward = backward
        return out

    monkeypatch.setattr(T, "conv2d", faulty_conv2d)
    report = gradient_check(model, inputs, labels, sample_stride=97)
    assert report.failures == ["pod1.stage2.block0.conv2.weight"]
    assert report.worst_param == "pod1.stage2.block0.conv2.weight"


def test_non_finite_gradient_fails_and_nonpositive_step_is_rejected():
    model, inputs, labels = small_model()
    for h in (0.0, -1e-5):
        with pytest.raises(ValueError, match="h must be > 0"):
            gradient_check(model, inputs, labels, h=h, sample_stride=997)
    # a NaN parameter makes the loss, every quotient and every gradient NaN
    model.store.param("head.dense.bias").data[0] = np.nan
    report = gradient_check(model, inputs, labels, sample_stride=997)
    assert not report.passed
    assert report.failures == [name for name, _ in model.store.items()]
    assert report.worst_rel == np.inf


@pytest.mark.parametrize("stride", [0, -3])
def test_sample_stride_below_one_is_rejected(stride):
    model, inputs, labels = small_model()
    with pytest.raises(ValueError, match="sample_stride >= 1"):
        gradient_check(model, inputs, labels, sample_stride=stride)
    with pytest.raises(ValueError, match="sample_stride >= 1"):
        next(finite_differences(model, inputs, labels, sample_stride=stride))


BAD_ARGUMENTS = [*(("h", h) for h in (0.0, -1e-5, np.nan, np.inf)),
                 *(("tol", tol) for tol in (0.0, -1.0, np.nan, np.inf)), ("sample_stride", 0)]


@pytest.mark.parametrize("name,value", BAD_ARGUMENTS,
                         ids=[f"{name}={value}" for name, value in BAD_ARGUMENTS])
def test_bad_step_tolerance_or_stride_is_refused_before_any_forward(monkeypatch, name, value):
    model, inputs, labels = small_model()

    def forward(*_, **__):
        raise AssertionError("a forward ran")
    monkeypatch.setattr(model, "forward", forward)
    with pytest.raises(ValueError, match=re.escape(f"{name}={value}")):
        gradient_check(model, inputs, labels, **{name: value})
