import gc
import itertools
import multiprocessing
import re
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import multipod.tensor as T
import multipod.training as training
from multipod.data import AugmentationSpec, synthetic_dataset
from multipod.gradcheck import gradient_check
from multipod.models import APPROACH1, MultiPodSpec, build_multipod, resnet_cifar
from oracles import (batch_norm2d_exprs, batch_norm_train_oracle, concat,
                     conv2d_input_grad_oracle, conv2d_oracle, conv2d_weight_grad_oracle,
                     fd_gradient, max_pool_oracle, relu_where, softmax_oracle,
                     softmax_xent_oracle, tensor_sum)


def t64(arr, requires_grad=False):
    return T.Tensor(np.asarray(arr), requires_grad=requires_grad, dtype=np.float64)


def assert_grad_close(fd, an, rtol=1e-5, atol=1e-8):
    fd = np.asarray(fd)
    an = np.asarray(an)
    bound = atol + rtol * np.maximum(np.abs(fd), np.abs(an))
    worst = np.max(np.abs(fd - an) - bound)
    assert worst <= 0, f"gradient mismatch: worst excess {worst:.3e}"


class TestTensorBasics:
    def test_scalar_shape_guard(self):
        with pytest.raises(T.ShapeError):
            T.Tensor(np.zeros((2, 0, 3)))

    def test_dtype_selection(self):
        assert T.Tensor([1, 2]).dtype == np.float32
        assert T.Tensor(np.zeros(2, dtype=np.float32)).dtype == np.float32
        assert T.Tensor([1.0], dtype=np.float64).dtype == np.float64
        with pytest.raises(ValueError):
            T.Tensor([1], dtype=np.int32)

    def test_backward_requires_scalar(self):
        x = t64(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x + x).backward()

    def test_sum_gradient_is_ones(self):
        x = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
        tensor_sum(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_half_square_gradient_is_x(self):
        x = t64([[1.0, -2.0], [3.0, 0.5]], requires_grad=True)
        loss = T.mul(tensor_sum(T.mul(x, x)), 0.5)
        loss.backward()
        assert np.allclose(x.grad, x.data)

    def test_backward_accumulates_across_calls(self):
        x = t64([1.0, 2.0], requires_grad=True)
        tensor_sum(x).backward()
        tensor_sum(x).backward()
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_second_backward_through_a_consumed_graph_raises(self):
        # the first backward consumes the graph; a second, from the same root
        # or from a new one over a consumed node, changes no gradient
        x, w = t64([1.0, 2.0], requires_grad=True), t64([3.0, 5.0], requires_grad=True)
        y = T.mul(x, w)
        s = tensor_sum(y + x)
        s.backward()
        first = x.grad.tobytes(), w.grad.tobytes()
        for root in (s, tensor_sum(T.add(y, w))):
            with pytest.raises(T.StateError, match="consumed"):
                root.backward()
            assert (x.grad.tobytes(), w.grad.tobytes()) == first
        assert np.array_equal(x.grad, [4.0, 6.0]) and np.array_equal(w.grad, [1.0, 2.0])

    def test_shared_subexpression_grad_counted_once_per_use(self):
        x = t64([3.0], requires_grad=True)
        y = x + x
        tensor_sum(y).backward()
        assert np.array_equal(x.grad, [2.0])

    def test_no_grad_suppresses_graph(self):
        x = t64([1.0], requires_grad=True)
        with T.no_grad():
            y = x + x
        assert not y.requires_grad and y._backward is None

    def test_no_grad_is_per_thread(self):
        # one thread holds no_grad open while another records a graph
        x = t64([1.0], requires_grad=True)
        entered, recorded = threading.Event(), threading.Event()
        results = {}

        def quiet():
            with T.no_grad():
                entered.set()
                recorded.wait(timeout=10)
                results["quiet"] = x + x

        def recording():
            entered.wait(timeout=10)
            results["recorded"] = x + x
            recorded.set()

        threads = [threading.Thread(target=quiet), threading.Thread(target=recording)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert results["recorded"].requires_grad and results["recorded"]._parents == (x, x)
        assert not results["quiet"].requires_grad


class TestBroadcastArithmetic:
    def test_add_broadcast_gradients(self):
        a = t64(np.ones((2, 3)), requires_grad=True)
        b = t64(np.ones((3,)), requires_grad=True)
        tensor_sum(a + b).backward()
        assert a.grad.shape == (2, 3) and b.grad.shape == (3,)
        assert np.array_equal(b.grad, [2.0, 2.0, 2.0])

    @given(st.integers(1, 4), st.integers(1, 4))
    def test_mul_gradients_match_fd(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        a = t64(rng.normal(size=(n, m)), requires_grad=True)
        b = t64(rng.normal(size=(m,)), requires_grad=True)
        cot = rng.normal(size=(n, m))
        loss = tensor_sum(T.mul(T.mul(a, b), t64(cot)))
        loss.backward()
        fd_a = fd_gradient(lambda: float(tensor_sum(T.mul(T.mul(a, b), t64(cot))).data), a.data)
        assert_grad_close(fd_a, a.grad)


class TestRelu:
    def test_values(self):
        x = t64([[-1.0, 0.0, 2.5]])
        assert np.array_equal(T.relu(x).data, [[0.0, 0.0, 2.5]])

    def test_gradient_masks_negatives(self):
        x = t64([[-1.0, 3.0]], requires_grad=True)
        tensor_sum(T.relu(x)).backward()
        assert np.array_equal(x.grad, [[0.0, 1.0]])

    def test_special_values_keep_the_where_bits(self):
        x = np.array([np.nan, -np.nan, -0.0, 0.0, -np.inf, np.inf, -1.0, 1e-45, 3.0],
                     dtype=np.float32)
        g = np.array([1.0, -2.0, -3.0, 4.0, 5.0, -6.0, -7.0, 8.0, -9.0], dtype=np.float32)
        xt = T.Tensor(x, requires_grad=True)
        out = T.relu(xt)
        assert out.dtype == np.float32
        assert out.data.tobytes() == relu_where(x).tobytes()
        tensor_sum(T.mul(out, T.Tensor(g))).backward()
        assert xt.grad.tobytes() == (g * (relu_where(x) > 0)).tobytes()

    @given(st.integers(0, 100))
    def test_idempotent(self, seed):
        x = t64(np.random.default_rng(seed).normal(size=(3, 4)))
        once = T.relu(x).data
        assert np.array_equal(T.relu(T.Tensor(once)).data, once)

    def test_mask_ranges_give_the_bits_of_one(self, rng, monkeypatch):
        # one image a chunk and four chunks a range: 9 images split 4 | 5
        x = rng.standard_normal((9, 3, 5, 5)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        x[0, 0, 0, :4] = x[8, 2, 4, :4] = [np.nan, -0.0, -np.inf, np.inf]
        g[0, 0, 0, :4] = g[8, 2, 4, :4] = [np.inf, -1.0, np.nan, -2.0]
        monkeypatch.setattr(T, "_CHUNK_BYTES", 1)
        submitted = count_submits(monkeypatch)
        grads = []
        for cores in (2, 1):
            monkeypatch.setattr(T, "_CORES", cores)
            xt = T.Tensor(x, requires_grad=True)
            with np.errstate(invalid="ignore"):
                T.relu(xt)._backward(g.copy())
            grads.append(xt.grad)
            assert len(submitted) == 1
        with np.errstate(invalid="ignore"):
            want = g * (relu_where(x) > 0)
        assert grads[0].tobytes() == grads[1].tobytes() == want.tobytes()


def lent(arr):
    t = T.Tensor(arr)
    t._lent = True  # as the models lend a batch norm output or a residual sum
    return t


class TestBufferHandOver:
    """A lent operand's buffer takes the relu's or add's result, with the
    allocating op's bits; every other operand keeps its bytes."""

    def test_unlent_operands_keep_their_bytes(self, rng):
        a, b = (rng.standard_normal((2, 3, 4, 4)).astype(np.float32) for _ in range(2))
        before = a.tobytes(), b.tobytes()
        at, bt = T.Tensor(a), T.Tensor(b)
        outs = T.relu(at), T.add(at, bt), T.add(bt, at)
        assert (at.data.tobytes(), bt.data.tobytes()) == before
        assert not any(np.shares_memory(o.data, x) for o in outs for x in (a, b))

    def test_lent_relu_writes_into_its_operand(self):
        # fmax's bits: NaN and -0 give +0, as np.where(x > 0, x, 0)
        x = np.array([np.nan, -np.nan, -0.0, 0.0, -np.inf, np.inf, -1.0, 1e-45, 3.0],
                     dtype=np.float32)
        want = relu_where(x).tobytes()
        out = T.relu(lent(x)).data
        assert out is x and out.tobytes() == want

    def test_lent_add_writes_into_its_first_operand(self, rng):
        a, b = (rng.standard_normal((2, 3, 4, 4)).astype(np.float32) for _ in range(2))
        want, b_bytes = (a + b).tobytes(), b.tobytes()
        out = T.add(lent(a), T.Tensor(b)).data
        assert out is a and out.tobytes() == want and b.tobytes() == b_bytes
        # only the first operand is written
        out = T.add(T.Tensor(b), lent(a.copy())).data
        assert not np.shares_memory(out, a) and b.tobytes() == b_bytes

    def test_lent_add_releases_the_operand_it_does_not_write_into(self, rng):
        a, b = (rng.standard_normal((2, 3, 4, 4)).astype(np.float32) for _ in range(2))
        want = (a + b).tobytes()
        bt = lent(b)
        freed = weakref.ref(bt.data)
        del b
        out = T.add(lent(a), bt).data
        assert out is a and out.tobytes() == want
        # b keeps its shape and dtype, but not its buffer: a read-only view of one zero
        assert freed() is None
        assert (bt.shape, bt.dtype, bt.data.strides) == ((2, 3, 4, 4), np.float32, (0, 0, 0, 0))
        assert not bt.data.flags.owndata and not bt.data.flags.writeable
        assert bt.data.base.nbytes == bt.dtype.itemsize and not bt.data.any()

    @pytest.mark.parametrize("a_shape,b_shape,b_dtype", [
        ((2, 3, 4, 4), (5, 2, 3, 4, 4), np.float32),  # b carries the replica axis
        ((2, 3, 4, 4), (3, 1, 1), np.float32),  # b broadcasts
        ((2, 3, 4, 4), (2, 3, 4, 4), np.float64),  # the sum widens
    ])
    def test_lent_add_allocates_unless_shapes_and_dtypes_match(self, rng, a_shape, b_shape,
                                                              b_dtype):
        a = rng.standard_normal(a_shape).astype(np.float32)
        b = rng.standard_normal(b_shape).astype(b_dtype)
        before = a.tobytes()
        out = T.add(lent(a), T.Tensor(b)).data
        assert not np.shares_memory(out, a) and a.tobytes() == before
        assert out.tobytes() == (a + b).tobytes()

    def test_gradients_through_lent_buffers(self, rng):
        # relu's backward reads its output, which is the lent buffer; add's
        # reads only shapes, so its released second operand takes a gradient
        x, y = (rng.standard_normal((2, 3, 4, 4)) for _ in range(2))
        grads = []
        for hand_over in (False, True):
            xt, yt = t64(x, requires_grad=True), t64(y, requires_grad=True)
            s = T.mul(xt, t64(2.0 * np.ones_like(x)))
            u = T.mul(yt, t64(3.0 * np.ones_like(y)))
            s._lent = u._lent = hand_over
            r = T.add(s, u)
            r._lent = hand_over
            tensor_sum(T.relu(r)).backward()
            grads.append((xt.grad.tobytes(), yt.grad.tobytes()))
        assert grads[0] == grads[1]


class TestLinear:
    def test_matches_manual_product(self, rng):
        x = t64(rng.normal(size=(4, 5)))
        w = t64(rng.normal(size=(3, 5)))
        b = t64(rng.normal(size=(3,)))
        out = T.linear(x, w, b)
        assert np.allclose(out.data, x.data @ w.data.T + b.data)

    def test_shape_error(self, rng):
        with pytest.raises(T.ShapeError):
            T.linear(t64(np.ones((2, 4))), t64(np.ones((3, 5))), t64(np.ones(3)))

    def test_gradients_match_fd(self, rng):
        x = t64(rng.normal(size=(3, 4)), requires_grad=True)
        w = t64(rng.normal(size=(2, 4)), requires_grad=True)
        b = t64(rng.normal(size=(2,)), requires_grad=True)
        cot = rng.normal(size=(3, 2))
        def loss():
            return float(tensor_sum(T.mul(T.linear(x, w, b), t64(cot))).data)
        tensor_sum(T.mul(T.linear(x, w, b), t64(cot))).backward()
        assert_grad_close(fd_gradient(loss, x.data), x.grad)
        assert_grad_close(fd_gradient(loss, w.data), w.grad)
        assert_grad_close(fd_gradient(loss, b.data), b.grad)


# (kernel, stride, padding): the resnet 3x3, its strided form, the 1x1
# projection and the imagenet stem
CHUNK_CASES = [(3, 1, 1), (3, 2, 1), (1, 2, 0), (7, 2, 3)]


class TestConv2d:
    def test_ones_kernel_counts_overlap(self):
        x = t64(np.ones((1, 1, 3, 3)))
        w = t64(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, stride=1, padding=1).data[0, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0

    def test_identity_kernel(self, rng):
        x = t64(rng.normal(size=(2, 1, 5, 4)))
        w = t64(np.ones((1, 1, 1, 1)))
        assert np.array_equal(T.conv2d(x, w).data, x.data)

    def test_channel_mismatch_raises(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(t64(np.ones((1, 3, 4, 4))), t64(np.ones((2, 4, 3, 3))))

    def test_bad_stride_raises(self):
        with pytest.raises(ValueError):
            T.conv2d(t64(np.ones((1, 1, 4, 4))), t64(np.ones((1, 1, 3, 3))), stride=0)

    @pytest.mark.parametrize("name,value", [
        ("stride", 1.5), ("stride", 2.0), ("stride", True), ("stride", "2"),
        ("stride", np.bool_(True)), ("stride", None), ("padding", -1), ("padding", 1.5),
        ("padding", True), ("padding", False), ("padding", np.float64(1.0))])
    def test_stride_and_padding_take_one_rule(self, name, value):
        x, w = t64(np.ones((1, 1, 4, 4))), t64(np.ones((1, 1, 3, 3)))
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            T.conv2d(x, w, **{name: value})

    @pytest.mark.parametrize("stride,padding", [(np.int64(2), np.int32(1)), (np.uint8(1), 0)])
    def test_numpy_integers_are_counts(self, rng, stride, padding):
        x, w = t64(rng.normal(size=(2, 2, 5, 5))), t64(rng.normal(size=(3, 2, 3, 3)))
        got = T.conv2d(x, w, stride=stride, padding=padding).data
        want = T.conv2d(x, w, stride=int(stride), padding=int(padding)).data
        assert got.tobytes() == want.tobytes()

    def test_spec_shape_case_matches_oracle(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        out = T.conv2d(t64(x), t64(w), stride=2, padding=1)
        assert out.data.shape == (2, 4, 4, 4)
        ref = conv2d_oracle(x, w, stride=2, padding=1)
        assert np.allclose(out.data, ref, rtol=1e-6, atol=0)

    def test_random_configs_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            b = int(rng.integers(1, 3))
            c = int(rng.integers(1, 4))
            f = int(rng.integers(1, 4))
            h = int(rng.integers(3, 9))
            w = int(rng.integers(3, 9))
            kh = int(rng.integers(1, min(h, 4) + 1))
            kw = int(rng.integers(1, min(w, 4) + 1))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            x = rng.normal(size=(b, c, h, w))
            wt = rng.normal(size=(f, c, kh, kw))
            got = T.conv2d(t64(x), t64(wt), stride=stride, padding=pad).data
            ref = conv2d_oracle(x, wt, stride=stride, padding=pad)
            np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-12)

    def test_gradients_match_fd(self, rng):
        x = t64(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = t64(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        cot = rng.normal(size=(2, 3, 3, 3))
        def loss():
            return float(tensor_sum(T.mul(T.conv2d(x, w, stride=2, padding=1), t64(cot))).data)
        tensor_sum(T.mul(T.conv2d(x, w, stride=2, padding=1), t64(cot))).backward()
        assert_grad_close(fd_gradient(loss, x.data), x.grad)
        assert_grad_close(fd_gradient(loss, w.data), w.grad)


def col_bytes(c, k, out, replicas=1):
    # bytes of one image's unfolded float64 input, as conv2d sizes its chunks;
    # k and out are each one side or a (rows, cols) pair
    (kh, kw), (oh, ow) = np.broadcast_to(k, 2), np.broadcast_to(out, 2)
    return int(replicas * c * kh * kw * oh * ow * 8)


class TestConvChunks:
    """conv2d unfolds a few images at a time; where the chunks split must not
    change the result. B = 5 images run as chunks of 2 + 2 + 1."""

    B, C, H = 5, 2, 7

    @staticmethod
    def out(k, s, p):
        return (TestConvChunks.H + 2 * p - k) // s + 1

    @pytest.mark.parametrize("k,s,p", CHUNK_CASES)
    def test_forward_matches_oracle_and_ignores_chunking(self, rng, monkeypatch, k, s, p):
        x = rng.normal(size=(self.B, self.C, self.H, self.H))
        w = rng.normal(size=(3, self.C, k, k))
        conv = lambda: T.conv2d(t64(x), t64(w), stride=s, padding=p).data
        whole = conv()
        monkeypatch.setattr(T, "_CONV_CHUNK_BYTES", 2 * col_bytes(self.C, k, self.out(k, s, p)))
        split = conv()
        monkeypatch.setattr(T, "_CONV_CHUNK_BYTES", 1)
        single = conv()
        np.testing.assert_allclose(split, conv2d_oracle(x, w, stride=s, padding=p),
                                   rtol=1e-10, atol=1e-12)
        assert np.array_equal(split, whole) and np.array_equal(split, single)

    # (2, 1, 0) adds an even kernel, (1, 1, 1) and (3, 2, 3) a stride-1 and a
    # stride-2 conv padded at least as wide as their kernels, and
    # ((3, 2), 2, 1) a non-square kernel at stride 2
    @pytest.mark.parametrize("k,s,p", CHUNK_CASES + [(2, 1, 0), (1, 1, 1), ((3, 2), 2, 1),
                                                     (3, 2, 3)])
    def test_gradients_match_fd(self, rng, monkeypatch, k, s, p):
        kh, kw = np.broadcast_to(k, 2)
        oh, ow = self.out(kh, s, p), self.out(kw, s, p)
        # forward and dW split 2 + 2 + 1; in and out channels are equal, so
        # the input gradient, a stride-1 conv of the output gradient onto
        # H x H, splits into chunks of max(1, 2 * out**2 // H**2) images
        monkeypatch.setattr(T, "_CONV_CHUNK_BYTES", 2 * col_bytes(self.C, k, (oh, ow)))
        x = t64(rng.normal(size=(self.B, self.C, self.H, self.H)), requires_grad=True)
        w = t64(rng.normal(size=(self.C, self.C, kh, kw)), requires_grad=True)
        cot = t64(rng.normal(size=(self.B, self.C, oh, ow)))
        loss = lambda: tensor_sum(T.mul(T.conv2d(x, w, stride=s, padding=p), cot))
        loss().backward()
        value = lambda: float(loss().data)
        assert_grad_close(fd_gradient(value, x.data), x.grad)
        assert_grad_close(fd_gradient(value, w.data), w.grad)


# (C, F, H, kernel, stride, padding) of each conv in resnet20: the stem, the
# three stages' 3x3 convs, and the stride-2 3x3 and 1x1 projection at the
# head of stages 2 and 3
RESNET20_CONVS = [(3, 16, 32, 3, 1, 1), (16, 16, 32, 3, 1, 1), (16, 32, 32, 3, 2, 1),
                  (16, 32, 32, 1, 2, 0), (32, 32, 16, 3, 1, 1), (32, 64, 16, 3, 2, 1),
                  (32, 64, 16, 1, 2, 0), (64, 64, 8, 3, 1, 1)]


class TestConvBackward:
    """A strided conv's input gradient runs one stride-1 conv per stride
    phase, and the weight gradient one (C*kH*kW x HW)(HW x F) GEMM per image."""

    @staticmethod
    def grads(x, w, s, p, g):
        xt, wt = T.Tensor(x, requires_grad=True), T.Tensor(w, requires_grad=True)
        T.conv2d(xt, wt, stride=s, padding=p)._backward(g.copy())
        return xt.grad, wt.grad

    # (kH, kW, stride, padding, H, W): stride 3; kernels smaller than the
    # stride, so that some phases have no taps; padding as wide as the
    # kernel or wider; a non-square kernel; odd sides; a side shorter than
    # the stride; the imagenet stem
    @pytest.mark.parametrize("kh,kw,s,p,h,w", [
        (3, 3, 3, 1, 8, 8), (3, 3, 1, 1, 7, 7), (1, 1, 2, 0, 7, 7), (2, 2, 3, 0, 8, 7),
        (1, 1, 2, 1, 5, 6), (3, 3, 2, 3, 7, 7), (2, 3, 3, 2, 4, 5), (3, 2, 2, 1, 7, 9),
        (1, 1, 3, 0, 2, 2), (7, 7, 2, 3, 11, 11)])
    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    def test_input_grad_matches_scatter_oracle(self, rng, monkeypatch, kh, kw, s, p, h, w,
                                               chunk_bytes):
        # chunk_bytes 1 runs one image a chunk, split over two ranges
        monkeypatch.setattr(T, "_CORES", 2)
        if chunk_bytes:
            monkeypatch.setattr(T, "_CONV_CHUNK_BYTES", chunk_bytes)
        b, c, f = 5, 2, 3
        x, wt = rng.normal(size=(b, c, h, w)), rng.normal(size=(f, c, kh, kw))
        g = rng.normal(size=(b, f, (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1))
        dx, _ = self.grads(x, wt, s, p, g)
        np.testing.assert_allclose(dx, conv2d_input_grad_oracle(g, wt, x.shape, s, p),
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("c,f,h,k,s,p", RESNET20_CONVS)
    def test_resnet20_grads_take_the_bits_of_one_core(self, monkeypatch, c, f, h, k, s, p):
        rng = np.random.default_rng(c * f + k * s)
        x = rng.standard_normal((128, c, h, h), dtype=np.float32)
        w = rng.standard_normal((f, c, k, k), dtype=np.float32)
        o = (h + 2 * p - k) // s + 1
        g = rng.standard_normal((128, f, o, o), dtype=np.float32)
        # at the package's chunk size; a pass of fewer than four chunks (the
        # 1x1 projections' dW, and at 32 -> 64 their dx) stays on one core
        monkeypatch.setattr(T, "_CORES", 2)
        split = self.grads(x, w, s, p, g)
        monkeypatch.setattr(T, "_CORES", 1)
        whole = self.grads(x, w, s, p, g)
        for got, want in zip(split, whole):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("c,f,h,k,s,p", RESNET20_CONVS)
    def test_weight_grad_has_the_bits_of_per_image_products(self, monkeypatch, c, f, h, k, s, p):
        # one image a chunk, so the images are summed in order from zero
        monkeypatch.setattr(T, "_CONV_CHUNK_BYTES", 1)
        rng = np.random.default_rng(c + f + h)
        x = rng.standard_normal((3, c, h, h), dtype=np.float32)
        w = rng.standard_normal((f, c, k, k), dtype=np.float32)
        o = (h + 2 * p - k) // s + 1
        g = rng.standard_normal((3, f, o, o), dtype=np.float32)
        _, dw = self.grads(x, w, s, p, g)
        assert dw.tobytes() == conv2d_weight_grad_oracle(x, g, s, p, (k, k)).tobytes()


def count_submits(monkeypatch):
    # the ranges conv, batch norm and relu's backward hand to the pool from
    # here on
    submitted = []
    submit = T._POOL.submit
    monkeypatch.setattr(T._POOL, "submit", lambda *a: submitted.append(a) or submit(*a))
    return submitted


class TestConvSplit:
    """conv2d runs its chunks as one range per core, of two chunks or more;
    the split must not change a bit. Over two ranges, 5 images in chunks of
    1 run as 1 + 1 | 1 + 1 + 1 and 7 in chunks of 2 as 2 + 2 | 2 + 1."""

    C, H = 3, 7

    def passes(self, rng, b, per_chunk, s, monkeypatch, cores):
        # forward, dx and dW of one conv over b images with the split forced
        # to ``cores`` ranges: forward and dW in chunks of ``per_chunk``
        # images, dx (a conv onto H x H) in the same chunks at stride 1 and
        # in chunks of 1 at stride 2
        monkeypatch.setattr(T, "_CORES", cores)
        out = (self.H - 1) // s + 1
        monkeypatch.setattr(T, "_CONV_CHUNK_BYTES", per_chunk * col_bytes(self.C, 3, out))
        x = t64(rng.normal(size=(b, self.C, self.H, self.H)), requires_grad=True)
        w = t64(rng.normal(size=(self.C, self.C, 3, 3)), requires_grad=True)
        out = T.conv2d(x, w, stride=s, padding=1)
        out._backward(rng.normal(size=out.shape))
        return out.data, x.grad, w.grad

    @pytest.mark.parametrize("b,per_chunk", [(5, 1), (7, 2)])
    @pytest.mark.parametrize("s", [1, 2])
    def test_two_ranges_give_the_bits_of_one(self, monkeypatch, b, per_chunk, s):
        submitted = count_submits(monkeypatch)
        split = self.passes(np.random.default_rng(b), b, per_chunk, s, monkeypatch, cores=2)
        assert len(submitted) == 3  # a worker ran a range of each pass
        whole = self.passes(np.random.default_rng(b), b, per_chunk, s, monkeypatch, cores=1)
        for got, want in zip(split, whole):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("b", [5, 7])
    def test_replicas_split_with_the_bits_of_one_range(self, rng, monkeypatch, b):
        r = 3
        x = rng.normal(size=(r, b, self.C, self.H, self.H))
        w = rng.normal(size=(4, self.C, 3, 3))
        monkeypatch.setattr(T, "_CONV_CHUNK_BYTES", col_bytes(self.C, 3, self.H, r))
        conv = lambda: T.conv2d(t64(x), t64(w), stride=1, padding=1).data
        submitted = count_submits(monkeypatch)
        with T.no_grad():
            monkeypatch.setattr(T, "_CORES", 2)
            split = conv()
            assert submitted
            monkeypatch.setattr(T, "_CORES", 1)
            assert np.array_equal(split, conv())

    @pytest.mark.parametrize("chunks,ranges", [(3, [(0, 3)]), (4, [(0, 2), (2, 4)]),
                                               (5, [(0, 2), (2, 5)])])
    def test_each_range_takes_two_chunks_or_more(self, monkeypatch, chunks, ranges):
        monkeypatch.setattr(T, "_CORES", 2)
        assert T._in_ranges(chunks, 1, lambda lo, hi: (lo, hi)) == ranges

    @pytest.mark.parametrize("failing", [0, 2])
    def test_a_failing_range_raises_after_every_range_finishes(self, monkeypatch, failing):
        # three ranges of two one-image chunks: the caller's (lo 0) and two
        # on the pool
        monkeypatch.setattr(T, "_CORES", 3)
        finished = []

        def work(lo, hi):
            if lo == failing:
                raise RuntimeError(f"range {lo}")
            time.sleep(0.05)
            finished.append(lo)

        with pytest.raises(RuntimeError, match=f"range {failing}"):
            T._in_ranges(6, 1, work)
        assert sorted(finished) == [lo for lo in (0, 2, 4) if lo != failing]

    def test_a_range_on_the_pool_keeps_the_callers_errstate(self, monkeypatch):
        # two ranges of two one-image chunks; the pool's (lo 2) divides 0 by 0
        monkeypatch.setattr(T, "_CORES", 2)
        submitted = count_submits(monkeypatch)

        def work(lo, hi):
            if lo:
                np.divide(np.zeros(1), np.zeros(1))

        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            T._in_ranges(4, 1, work)
        assert len(submitted) == 1

    def test_a_forked_child_runs_conv(self, monkeypatch):
        # the child inherits the pool's queue but none of its threads
        monkeypatch.setattr(T, "_CORES", 2)
        monkeypatch.setattr(T, "_CONV_CHUNK_BYTES", 1)
        x, w = t64(np.ones((4, 1, 4, 4))), t64(np.ones((1, 1, 3, 3)))
        submitted = count_submits(monkeypatch)
        T.conv2d(x, w)
        assert submitted  # the pool has a thread running
        child = multiprocessing.get_context("fork").Process(target=T.conv2d, args=(x, w))
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0

    def test_ops_run_on_the_calling_thread_during_training(self, monkeypatch):
        # perfbench's tracer keeps one span stack, sound only while every
        # op, backward closure, Tensor.backward and make_pod_inputs runs on
        # the thread that called train()
        threads, running = [], []

        def on_caller(name, fn):
            def call(*args, **kwargs):
                threads.append((name, threading.get_ident()))
                running.append(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    running.pop()
                if isinstance(out, T.Tensor) and out._backward is not None:
                    out._backward = on_caller(name + ".backward", out._backward)
                return out
            return call

        for op in ("conv2d", "batch_norm2d", "relu", "add", "linear", "global_avg_pool",
                   "max_pool2d", "concat_linear", "elementwise_scale_combine",
                   "softmax_cross_entropy"):
            monkeypatch.setattr(T, op, on_caller(op, getattr(T, op)))
        monkeypatch.setattr(T.Tensor, "backward", on_caller("backward", T.Tensor.backward))
        monkeypatch.setattr(training, "make_pod_inputs",
                            on_caller("make_pod_inputs", training.make_pod_inputs))
        # one image per chunk, so every conv, batch-norm and relu-mask pass
        # hands ranges to the pool; each is recorded with the op it ran in
        monkeypatch.setattr(T, "_CORES", 2)
        monkeypatch.setattr(T, "_CONV_CHUNK_BYTES", 1)
        monkeypatch.setattr(T, "_CHUNK_BYTES", 1)
        submitted = []
        submit = T._POOL.submit
        monkeypatch.setattr(T._POOL, "submit",
                            lambda *a: submitted.append((running[-1], a)) or submit(*a))

        data = synthetic_dataset(3, 8, 8, seed=0)
        model = build_multipod(MultiPodSpec(pods=2, base=resnet_cifar(1), classes=3))
        schedule = training.TrainingSchedule(base_lr=0.05, milestones=(), epochs=1, batch_size=8)
        training.train(model, data, data, schedule,
                       AugmentationSpec(pad=1, crop_size=8, routing="per-pod-jitter"))
        names = {name for name, _ in threads}
        assert {"conv2d", "conv2d.backward", "batch_norm2d", "batch_norm2d.backward",
                "relu.backward", "backward", "make_pod_inputs"} <= names
        assert {"conv2d", "conv2d.backward", "batch_norm2d",
                "batch_norm2d.backward", "relu.backward"} <= {op for op, _ in submitted}
        assert {ident for _, ident in threads} == {threading.get_ident()}

    def test_criterion_2_passes_submit_nothing(self, monkeypatch):
        # the gradient check's float64 passes, 2 x C x 8 x 8 and smaller and
        # their stacks of perturbed copies, are too small to gain from a core
        monkeypatch.setattr(T, "_CORES", 2)
        submitted = count_submits(monkeypatch)
        spec = MultiPodSpec(pods=3, base=resnet_cifar(1), fusion=APPROACH1, classes=10)
        model = build_multipod(spec, dtype=np.float64)
        rng = np.random.default_rng(2701)
        inputs = [T.Tensor(rng.normal(0.0, 1.0, (2, 3, 8, 8)), dtype=np.float64)
                  for _ in range(3)]
        report = gradient_check(model, inputs, rng.integers(0, 10, size=2), sample_stride=397)
        assert report.passed and report.checked > 0
        assert submitted == []


class TestMaxPool:
    def test_matches_oracle(self, rng):
        x = rng.normal(size=(2, 2, 7, 7))
        got = T.max_pool2d(t64(x), 3, 2, 1).data
        assert np.allclose(got, max_pool_oracle(x, 3, 2, 1))

    def test_padding_never_wins(self):
        x = t64(np.full((1, 1, 2, 2), -5.0))
        out = T.max_pool2d(x, 3, 2, 1).data
        assert np.all(out == -5.0)

    @pytest.mark.parametrize("args,line", [
        ((2, 2, 5), "padding must be < kernel 2, got 5"),
        ((2, 2, 2), "padding must be < kernel 2, got 2"),
        ((0, 1), "kernel must be an int >= 1, got 0"),
        ((2, 2, -1), "padding must be an int >= 0, got -1"),
        ((2, True), "stride must be an int >= 1, got True")],
        ids=["padding-5-past-kernel-2", "padding-equal-to-kernel", "kernel-0", "padding--1",
             "stride-True"])
    def test_arguments_take_conv2ds_rule(self, args, line):
        # each once failed deep in numpy, or (the padding past the kernel)
        # returned windows lying wholly in the -inf padding
        with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
            T.max_pool2d(t64(np.ones((1, 1, 4, 4))), *args)

    def test_gradient_matches_fd(self, rng):
        x = t64(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
        cot = rng.normal(size=(1, 2, 3, 3))
        def loss():
            return float(tensor_sum(T.mul(T.max_pool2d(x, 2, 2), t64(cot))).data)
        tensor_sum(T.mul(T.max_pool2d(x, 2, 2), t64(cot))).backward()
        assert_grad_close(fd_gradient(loss, x.data), x.grad)


class TestGlobalAvgPool:
    def test_values_and_gradient(self, rng):
        x = t64(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        out = T.global_avg_pool(x)
        assert np.allclose(out.data, x.data.mean(axis=(2, 3)))
        tensor_sum(out).backward()
        assert np.allclose(x.grad, np.full(x.data.shape, 1.0 / 20))


class TestConcatLinear:
    def test_equals_linear_of_concat(self, rng):
        feats = [t64(rng.normal(size=(4, 5))) for _ in range(3)]
        w = t64(rng.normal(size=(2, 15)))
        b = t64(rng.normal(size=(2,)))
        got = T.concat_linear(feats, w, b).data
        ref = T.linear(concat(feats), w, b).data
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_single_block_is_bitwise_linear(self, rng):
        f = t64(rng.normal(size=(4, 6)))
        w = t64(rng.normal(size=(3, 6)))
        b = t64(rng.normal(size=(3,)))
        assert np.array_equal(T.concat_linear([f], w, b).data, T.linear(f, w, b).data)

    def test_width_mismatch_raises(self, rng):
        with pytest.raises(T.ShapeError):
            T.concat_linear([t64(np.ones((2, 4)))], t64(np.ones((3, 5))), t64(np.ones(3)))

    def test_gradients_match_fd(self, rng):
        feats = [t64(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(2)]
        w = t64(rng.normal(size=(2, 6)), requires_grad=True)
        b = t64(rng.normal(size=(2,)), requires_grad=True)
        cot = rng.normal(size=(2, 2))
        def loss():
            return float(tensor_sum(T.mul(T.concat_linear(feats, w, b), t64(cot))).data)
        tensor_sum(T.mul(T.concat_linear(feats, w, b), t64(cot))).backward()
        for leaf in feats + [w, b]:
            assert_grad_close(fd_gradient(loss, leaf.data), leaf.grad)


class TestScaleCombine:
    def test_unit_scales_sum_of_identical_pods_is_3f(self, rng):
        f = rng.normal(size=(4, 6))
        feats = [t64(f) for _ in range(3)]
        scales = [t64(np.ones(6)) for _ in range(3)]
        out = T.elementwise_scale_combine(feats, scales, "sum").data
        assert np.array_equal(out, 3.0 * f)

    def test_product_annihilates_on_zero(self, rng):
        feats = [t64(rng.normal(size=(2, 4))) for _ in range(3)]
        feats[1].data[:, 2] = 0.0
        scales = [t64(np.ones(4)) for _ in range(3)]
        out = T.elementwise_scale_combine(feats, scales, "product").data
        assert np.all(out[:, 2] == 0.0)

    def test_unknown_mode_raises(self, rng):
        f = [t64(np.ones((1, 2)))]
        s = [t64(np.ones(2))]
        with pytest.raises(ValueError):
            T.elementwise_scale_combine(f, s, "mean")

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(T.ShapeError):
            T.elementwise_scale_combine(
                [t64(np.ones((1, 2))), t64(np.ones((1, 3)))],
                [t64(np.ones(2)), t64(np.ones(3))], "sum")

    @pytest.mark.parametrize("mode", ["sum", "product"])
    def test_gradients_match_fd(self, rng, mode):
        feats = [t64(rng.uniform(0.5, 1.5, size=(2, 3)), requires_grad=True) for _ in range(3)]
        scales = [t64(rng.uniform(0.5, 1.5, size=3), requires_grad=True) for _ in range(3)]
        cot = rng.normal(size=(2, 3))
        def loss():
            return float(tensor_sum(
                T.mul(T.elementwise_scale_combine(feats, scales, mode), t64(cot))).data)
        tensor_sum(T.mul(T.elementwise_scale_combine(feats, scales, mode), t64(cot))).backward()
        for leaf in feats + scales:
            assert_grad_close(fd_gradient(loss, leaf.data), leaf.grad)


class TestBatchNorm:
    def test_constant_input_centers_to_zero(self):
        x = t64(np.full((2, 1, 2, 2), 7.0))
        out = T.batch_norm2d(x, t64(np.ones(1)), t64(np.zeros(1)), T.BNBuffers(1, np.float64),
                             training=True)
        assert np.allclose(out.data, 0.0, atol=1e-6)

    def test_two_point_channel_hand_values(self):
        # channel holds {-1, +1} equally: normalized values are +-1/sqrt(1+eps)
        x = t64(np.array([-1.0, 1.0, -1.0, 1.0]).reshape(2, 1, 2, 1))
        out = T.batch_norm2d(x, t64(np.ones(1)), t64(np.zeros(1)), T.BNBuffers(1, np.float64),
                             training=True)
        expected = 1.0 / np.sqrt(1.0 + 1e-5)
        assert np.allclose(np.sort(np.unique(out.data)), [-expected, expected], rtol=1e-12)

    def test_affine_after_normalization(self):
        x = t64(np.array([-1.0, 1.0, -1.0, 1.0]).reshape(2, 1, 2, 1))
        out = T.batch_norm2d(x, t64(np.full(1, 2.0)), t64(np.full(1, 3.0)),
                             T.BNBuffers(1, np.float64), training=True)
        expected = 2.0 / np.sqrt(1.0 + 1e-5)
        assert np.allclose(np.sort(np.unique(out.data)), [3.0 - expected, 3.0 + expected],
                           rtol=1e-12)

    def test_training_output_normalized(self, rng):
        x = t64(rng.normal(3.0, 2.0, size=(4, 3, 4, 4)))
        out = T.batch_norm2d(x, t64(np.ones(3)), t64(np.zeros(3)), T.BNBuffers(3, np.float64),
                             training=True).data
        assert np.all(np.abs(out.mean(axis=(0, 2, 3))) < 1e-6)
        assert np.all(np.abs(out.var(axis=(0, 2, 3)) - 1.0) < 1e-4)

    def test_running_stats_update_rule(self, rng):
        x = rng.normal(size=(2, 2, 3, 3))
        buffers = T.BNBuffers(2, np.float64)
        T.batch_norm2d(t64(x), t64(np.ones(2)), t64(np.zeros(2)), buffers, training=True)
        n = 2 * 3 * 3
        expect_mean = 0.1 * x.mean(axis=(0, 2, 3))
        expect_var = 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3)) * n / (n - 1)
        assert np.allclose(buffers.mean, expect_mean, rtol=1e-12)
        assert np.allclose(buffers.var, expect_var, rtol=1e-12)
        assert buffers.initialized

    def test_eval_uses_running_stats(self, rng):
        x = rng.normal(size=(2, 1, 2, 2))
        buffers = T.BNBuffers(1, np.float64)
        T.batch_norm2d(t64(x), t64(np.ones(1)), t64(np.zeros(1)), buffers, training=True)
        y = t64(rng.normal(size=(1, 1, 2, 2)))
        out = T.batch_norm2d(y, t64(np.ones(1)), t64(np.zeros(1)), buffers, training=False).data
        ref = (y.data - buffers.mean) / np.sqrt(buffers.var + 1e-5)
        assert np.allclose(out, ref, rtol=1e-12)

    def test_eval_before_training_raises(self):
        x = t64(np.ones((1, 1, 2, 2)))
        with pytest.raises(T.StateError):
            T.batch_norm2d(x, t64(np.ones(1)), t64(np.zeros(1)), T.BNBuffers(1, np.float64),
                           training=False)

    def test_tiny_batch_raises(self):
        x = t64(np.ones((1, 1, 1, 1)))
        with pytest.raises(ValueError):
            T.batch_norm2d(x, t64(np.ones(1)), t64(np.zeros(1)), T.BNBuffers(1, np.float64),
                           training=True)

    def test_matches_oracle(self, rng):
        x = rng.normal(size=(3, 4, 5, 5))
        gamma = rng.uniform(0.5, 2.0, size=4)
        beta = rng.normal(size=4)
        got = T.batch_norm2d(t64(x), t64(gamma), t64(beta), T.BNBuffers(4, np.float64),
                             training=True).data
        np.testing.assert_allclose(got, batch_norm_train_oracle(x, gamma, beta),
                                   rtol=1e-6, atol=1e-12)

    def test_training_gradients_match_fd(self, rng):
        x = t64(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        gamma = t64(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
        beta = t64(rng.normal(size=2), requires_grad=True)
        cot = rng.normal(size=(2, 2, 3, 3))
        def forward():
            out = T.batch_norm2d(x, gamma, beta, T.BNBuffers(2, np.float64), training=True)
            return tensor_sum(T.mul(out, t64(cot)))
        forward().backward()
        for leaf in (x, gamma, beta):
            assert_grad_close(fd_gradient(lambda: float(forward().data), leaf.data), leaf.grad)

    def test_eval_gradients_match_fd(self, rng):
        buffers = T.BNBuffers(2, np.float64)
        T.batch_norm2d(t64(rng.normal(size=(2, 2, 3, 3))), t64(np.ones(2)), t64(np.zeros(2)),
                       buffers, training=True)
        x = t64(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        gamma = t64(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
        beta = t64(rng.normal(size=2), requires_grad=True)
        cot = rng.normal(size=(2, 2, 3, 3))
        def forward():
            out = T.batch_norm2d(x, gamma, beta, buffers, training=False)
            return tensor_sum(T.mul(out, t64(cot)))
        forward().backward()
        for leaf in (x, gamma, beta):
            assert_grad_close(fd_gradient(lambda: float(forward().data), leaf.data), leaf.grad)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_p(self):
        logits = t64(np.zeros((3, 10)))
        loss = T.softmax_cross_entropy(logits, np.array([0, 4, 9]))
        assert np.isclose(float(loss.data), np.log(10.0), rtol=1e-12)

    def test_huge_margin_gives_near_zero(self):
        logits = np.full((2, 5), -100.0)
        logits[0, 1] = 100.0
        logits[1, 3] = 100.0
        loss = T.softmax_cross_entropy(t64(logits), np.array([1, 3]))
        assert float(loss.data) < 1e-12

    def test_matches_oracle(self, rng):
        logits = rng.normal(size=(4, 10))
        labels = rng.integers(0, 10, size=4)
        got = float(T.softmax_cross_entropy(t64(logits), labels).data)
        assert np.isclose(got, softmax_xent_oracle(logits, labels), rtol=1e-12)

    def test_softmax_rows_sum_to_one(self, rng):
        logits = rng.normal(size=(6, 7)) * 10
        probs = softmax_oracle(logits)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-6)

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValueError, match="index 1"):
            T.softmax_cross_entropy(t64(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradient_is_softmax_minus_onehot_over_b(self, rng):
        logits = t64(rng.normal(size=(4, 6)), requires_grad=True)
        labels = rng.integers(0, 6, size=4)
        T.softmax_cross_entropy(logits, labels).backward()
        probs = softmax_oracle(logits.data)
        onehot = np.eye(6)[labels]
        assert np.allclose(logits.grad, (probs - onehot) / 4, rtol=1e-10, atol=1e-15)

    def test_gradient_matches_fd(self, rng):
        logits = t64(rng.normal(size=(3, 5)), requires_grad=True)
        labels = rng.integers(0, 5, size=3)
        T.softmax_cross_entropy(logits, labels).backward()
        fd = fd_gradient(lambda: float(T.softmax_cross_entropy(logits, labels).data),
                         logits.data)
        assert_grad_close(fd, logits.grad)


class TestLeanBackward:
    """Backward keeps only what it reads: after it, only leaves hold a
    gradient, and dropping the root frees the whole graph without the cycle
    collector."""

    @staticmethod
    def training_loss(seed=3, pods=2):
        spec = MultiPodSpec(pods=pods, base=resnet_cifar(1), fusion=APPROACH1, classes=10)
        model = build_multipod(spec, dtype=np.float64)
        rng = np.random.default_rng(seed)
        inputs = [t64(rng.normal(size=(2, 3, 8, 8))) for _ in range(pods)]
        logits = model.forward(inputs, training=True)
        return model, logits, T.softmax_cross_entropy(logits, rng.integers(0, 10, size=2))

    def test_only_leaves_keep_gradients(self):
        model, _, loss = self.training_loss()
        inner = [n for n in T._toposort(loss) if n._backward is not None]
        loss.backward()
        assert {"conv2d", "batch_norm2d", "relu", "add", "concat_linear"} <= {n._op for n in inner}
        assert all(n.grad is None for n in inner)
        for name, p in model.store.items():
            assert p.grad is not None and p.grad.shape == p.shape, name

    def test_backward_frees_every_activation_while_the_root_is_held(self):
        # a resnet8 tripod step: no conv, batch norm or relu output outlives
        # the backward, though the caller still holds the logits and the loss
        gc.disable()
        try:
            _, logits, loss = self.training_loss(pods=3)
            refs = [weakref.ref(n.data) for n in T._toposort(loss)
                    if n._op in ("conv2d", "batch_norm2d", "relu")]
            # a pod's stem takes three, each of its 3 blocks six and each of
            # its 2 projection shortcuts two
            assert len(refs) == 3 * (3 + 3 * 6 + 2 * 2)
            loss.backward()
            assert [r for r in refs if r() is not None] == []
            assert logits.data.shape == (2, 10) and np.isfinite(loss.data)
        finally:
            gc.enable()

    @pytest.mark.parametrize("backward", [True, False])
    def test_dropping_the_root_frees_activations(self, backward):
        gc.disable()
        try:
            _, logits, loss = self.training_loss()
            nodes = T._toposort(loss)
            refs = {op: weakref.ref(next(n for n in nodes if n._op == op).data)
                    for op in ("batch_norm2d", "relu")}
            del nodes
            assert all(r() is not None for r in refs.values())
            if backward:
                loss.backward()
            del logits, loss
            assert {op: r() is None for op, r in refs.items()} == dict.fromkeys(refs, True)
        finally:
            gc.enable()


class TestBatchNormBits:
    """The in-place batch norm gives, bit for bit, what its whole-array
    expressions (``oracles.batch_norm2d_exprs``) give, on float32 resnet20
    shapes."""

    @staticmethod
    def operands(rng, shape, leading=()):
        c = shape[1]
        x = (rng.standard_normal(leading + shape) * 2 + 0.5).astype(np.float32)
        gamma = rng.uniform(0.5, 1.5, leading[:1] + (c,)).astype(np.float32)
        beta = rng.standard_normal(leading[:1] + (c,)).astype(np.float32)
        return x, gamma, beta

    @staticmethod
    def eval_buffers(rng, c):
        buffers = T.BNBuffers(c)
        buffers.mean = rng.standard_normal(c).astype(np.float32)
        buffers.var = rng.uniform(0.5, 2.0, c).astype(np.float32)
        buffers.initialized = True
        return buffers

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(24, 16, 32, 32), (24, 32, 16, 16), (24, 64, 8, 8)])
    def test_output_and_gradients(self, rng, shape, training):
        x, gamma, beta = self.operands(rng, shape)
        g = rng.standard_normal(shape).astype(np.float32)
        buffers = T.BNBuffers(shape[1]) if training else self.eval_buffers(rng, shape[1])
        running = None if training else (buffers.mean, buffers.var)
        want = batch_norm2d_exprs(x, gamma, beta, g, running)

        xt, gt, bt = (T.Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        out = T.batch_norm2d(xt, gt, bt, buffers, training)
        tensor_sum(T.mul(out, T.Tensor(g))).backward()
        for got, ref in zip((out.data, xt.grad, gt.grad, bt.grad), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(24, 16, 32, 32), (24, 32, 16, 16), (24, 64, 8, 8)])
    def test_ranges_give_the_bits_of_one(self, rng, monkeypatch, shape, training):
        # one image a chunk, so that on two cores every pass splits into two
        # ranges: three in a training forward, one in an eval forward and
        # two in a training backward, one in an eval backward
        x, gamma, beta = self.operands(rng, shape)
        g = rng.standard_normal(shape).astype(np.float32)
        running = self.eval_buffers(rng, shape[1])
        want = batch_norm2d_exprs(x, gamma, beta, g, None if training else
                                  (running.mean, running.var))
        monkeypatch.setattr(T, "_CHUNK_BYTES", 1)
        submitted = count_submits(monkeypatch)
        results = []
        for cores in (2, 1):
            monkeypatch.setattr(T, "_CORES", cores)
            buffers = T.BNBuffers(shape[1])
            if not training:
                buffers.mean, buffers.var, buffers.initialized = running.mean, running.var, True
            xt, gt, bt = (T.Tensor(a, requires_grad=True) for a in (x, gamma, beta))
            out = T.batch_norm2d(xt, gt, bt, buffers, training)
            out._backward(g.copy())
            results.append((out.data, xt.grad, gt.grad, bt.grad, buffers.mean, buffers.var))
            assert len(submitted) == (5 if training else 2)
        for split, whole in zip(*results):
            assert split.tobytes() == whole.tobytes()
        for got, ref in zip(results[0], want):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("replicated", ["x", "x+gamma", "gamma", "beta", "gamma+beta"])
    def test_replica_forward(self, rng, replicated, training):
        shape, r = (8, 16, 32, 32), 3
        x, gamma, beta = self.operands(rng, shape)
        xr, gr, br = self.operands(rng, shape, leading=(r,))
        x = xr if "x" in replicated else x
        gamma = gr if "gamma" in replicated else gamma
        beta = br if "beta" in replicated else beta
        buffers = T.BNBuffers(shape[1]) if training else self.eval_buffers(rng, shape[1])
        running = None if training else (buffers.mean, buffers.var)
        with T.no_grad():
            out = T.batch_norm2d(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta), buffers,
                                 training).data
        want = batch_norm2d_exprs(x, gamma, beta, running=running)
        assert out.shape == want.shape == (r,) + shape
        assert out.tobytes() == want.tobytes()


class TestGradientOwnership:
    """Closures hand their own arrays over instead of copying them, and
    after backward every gradient is still private and writable."""

    @staticmethod
    def assert_private(tensors):
        grads = [t.grad for t in tensors]
        assert all(g is not None and g.flags.writeable for g in grads)
        for (i, a), (j, b) in itertools.combinations(enumerate(grads), 2):
            assert not np.shares_memory(a, b), (i, j)
        for g, t in itertools.product(grads, tensors):
            assert not np.shares_memory(g, t.data)

    def test_two_pod_resnet8(self, rng):
        spec = MultiPodSpec(pods=2, base=resnet_cifar(1), fusion=APPROACH1, classes=10)
        model = build_multipod(spec, dtype=np.float64)
        inputs = [t64(rng.normal(size=(2, 3, 8, 8)), requires_grad=True) for _ in range(2)]
        logits = model.forward(inputs, training=True)
        T.softmax_cross_entropy(logits, rng.integers(0, 10, size=2)).backward()
        self.assert_private([p for _, p in model.store.items()] + inputs)

    def test_self_add_broadcast_add_and_two_consumers(self, rng):
        x = t64(rng.normal(size=(3, 4)), requires_grad=True)
        bias = t64(rng.normal(size=(1, 4)), requires_grad=True)
        z = t64(rng.normal(size=(3, 4)), requires_grad=True)
        h = T.relu(x + x) + bias
        u = T.relu(z) + z
        tensor_sum(h + u).backward()
        assert np.array_equal(x.grad, 2.0 * (x.data > 0))
        assert np.array_equal(bias.grad, [[3.0] * 4])
        assert np.array_equal(z.grad, (z.data > 0) + 1.0)
        self.assert_private([x, bias, z])
        # a later backward accumulates into the adopted buffers and nowhere else
        tensor_sum(T.relu(z) + bias).backward()
        assert np.array_equal(z.grad, 2.0 * (z.data > 0) + 1.0)
        assert np.array_equal(x.grad, 2.0 * (x.data > 0))
        self.assert_private([x, bias, z])


@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 6), st.integers(2, 6))
def test_conv_output_shape_formula(b, c, h, w):
    x = T.Tensor(np.zeros((b, c, h, w)), dtype=np.float64)
    wt = T.Tensor(np.zeros((2, c, 2, 2)), dtype=np.float64)
    out = T.conv2d(x, wt, stride=2, padding=1)
    assert out.data.shape == (b, 2, (h + 2 - 2) // 2 + 1, (w + 2 - 2) // 2 + 1)


class TestReplicaAxis:
    """Ops given a leading replica axis equal, in value, one plain call per replica."""

    R = 3

    @staticmethod
    def assert_per_replica(got, plain_results):
        assert got.shape == (len(plain_results),) + plain_results[0].shape
        for r, ref in enumerate(plain_results):
            np.testing.assert_allclose(got[r], ref, rtol=1e-12, atol=1e-14)

    @classmethod
    def filter_copies(cls, rng, f, c, k):
        # R copies of an f-filter weight, each with one filter replaced (the
        # first and third the same one), and the same copies as whole weights
        w = rng.normal(size=(f, c, k, k))
        copies = T.FilterCopies(w, rng.normal(size=(cls.R, c, k, k)), np.array([f - 1, 0, f - 1]))
        whole = np.repeat(w[None], cls.R, axis=0)
        whole[np.arange(cls.R), copies.index] = copies.filters
        return copies, whole

    @staticmethod
    def conv(xa, wa, stride, padding, requires_grad=False):
        # a FilterCopies weight is set as a tensor's data, as the checker sets it
        w = t64(getattr(wa, "weight", wa), requires_grad)
        w.data = wa
        return T.conv2d(t64(xa), w, stride=stride, padding=padding)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (2, 0)])
    def test_conv2d(self, rng, stride, padding):
        x = rng.normal(size=(self.R, 2, 3, 6, 6))
        copies, whole = self.filter_copies(rng, 4, 3, 3)
        conv = lambda xa, wa: self.conv(xa, wa, stride, padding).data
        with T.no_grad():
            self.assert_per_replica(conv(x[0], copies), [conv(x[0], wr) for wr in whole])
            self.assert_per_replica(conv(x, whole[0]), [conv(xr, whole[0]) for xr in x])
            # filter copies take an unreplicated input, and a weight has four axes
            with pytest.raises(T.ShapeError):
                conv(x, copies)
            with pytest.raises(T.ShapeError):
                conv(x[0], whole)

    @pytest.mark.parametrize("k", [3, 1])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_conv2d_filter_copies_are_whole_weights(self, rng, k, stride, padding):
        x = rng.normal(size=(2, 3, 6, 6))
        copies, whole = self.filter_copies(rng, 4, 3, k)
        with T.no_grad():
            got = self.conv(x, copies, stride, padding).data
            self.assert_per_replica(got, [self.conv(x, wr, stride, padding).data
                                          for wr in whole])

    @pytest.mark.parametrize("k,s,p", CHUNK_CASES)
    def test_conv2d_chunk_boundaries(self, rng, monkeypatch, k, s, p):
        b, c, h = 5, 2, 7
        out = (h + 2 * p - k) // s + 1
        x = rng.normal(size=(self.R, b, c, h, h))
        copies, whole = self.filter_copies(rng, 3, c, k)
        conv = lambda xa, wa: self.conv(xa, wa, s, p).data
        with T.no_grad():
            # a replicated input unfolds all replicas of an image together
            monkeypatch.setattr(T, "_CONV_CHUNK_BYTES", 2 * col_bytes(c, k, out, self.R))
            self.assert_per_replica(conv(x, whole[0]), [conv(xr, whole[0]) for xr in x])
            monkeypatch.setattr(T, "_CONV_CHUNK_BYTES", 2 * col_bytes(c, k, out))
            self.assert_per_replica(conv(x[0], copies), [conv(x[0], wr) for wr in whole])

    def test_pooling(self, rng):
        x = rng.normal(size=(self.R, 2, 3, 5, 5))
        self.assert_per_replica(T.global_avg_pool(t64(x)).data,
                                [T.global_avg_pool(t64(xr)).data for xr in x])
        self.assert_per_replica(T.max_pool2d(t64(x), 3, 2, 1).data,
                                [T.max_pool2d(t64(xr), 3, 2, 1).data for xr in x])
        # max pooling's backward takes any leading axes, so it records a graph
        stacked = t64(x, requires_grad=True)
        tensor_sum(T.max_pool2d(stacked, 3, 2, 1)).backward()
        for r, xr in enumerate(x):
            plain = t64(xr, requires_grad=True)
            tensor_sum(T.max_pool2d(plain, 3, 2, 1)).backward()
            assert np.array_equal(stacked.grad[r], plain.grad)

    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm_per_replica_statistics(self, rng, training):
        x = rng.normal(1.0, 2.0, size=(self.R, 2, 3, 4, 4))
        gamma = rng.uniform(0.5, 2.0, size=(self.R, 3))
        beta = rng.normal(size=(self.R, 3))
        running = T.BNBuffers(3, np.float64)
        running.mean, running.var, running.initialized = rng.normal(size=3), rng.uniform(1, 2, 3), True
        before = (running.mean.copy(), running.var.copy())

        def bn(xa, ga, ba, buffers):
            return T.batch_norm2d(t64(xa), t64(ga), t64(ba), buffers, training).data

        def fresh():
            b = T.BNBuffers(3, np.float64)
            b.mean, b.var, b.initialized = before[0].copy(), before[1].copy(), True
            return b

        with T.no_grad():
            self.assert_per_replica(bn(x, gamma, beta, running),
                                    [bn(*ops, fresh()) for ops in zip(x, gamma, beta)])
            self.assert_per_replica(bn(x[0], gamma, beta[0], running),
                                    [bn(x[0], g, beta[0], fresh()) for g in gamma])
        assert np.array_equal(running.mean, before[0]) and np.array_equal(running.var, before[1])

    def test_heads_and_loss(self, rng):
        feats = [rng.normal(size=(self.R, 2, 4)), rng.normal(size=(2, 4))]
        w = rng.normal(size=(self.R, 5, 8))
        bias = rng.normal(size=(self.R, 5))
        scales = [rng.normal(size=(self.R, 4)), rng.normal(size=4)]
        labels = np.array([1, 3])
        with T.no_grad():
            got = T.concat_linear([t64(f) for f in feats], t64(w), t64(bias)).data
            self.assert_per_replica(got, [
                T.concat_linear([t64(feats[0][r]), t64(feats[1])], t64(w[r]), t64(bias[r])).data
                for r in range(self.R)])
            for mode in ("sum", "product"):
                got = T.elementwise_scale_combine([t64(f) for f in feats],
                                                  [t64(s) for s in scales], mode).data
                self.assert_per_replica(got, [
                    T.elementwise_scale_combine([t64(feats[0][r]), t64(feats[1])],
                                                [t64(scales[0][r]), t64(scales[1])], mode).data
                    for r in range(self.R)])
            got = T.linear(t64(feats[0]), t64(w[:, :, :4]), t64(bias[0])).data
            self.assert_per_replica(got, [T.linear(t64(feats[0][r]), t64(w[r, :, :4]),
                                                   t64(bias[0])).data for r in range(self.R)])
            logits = rng.normal(size=(self.R, 2, 5))
            got = T.softmax_cross_entropy(t64(logits), labels).data
            self.assert_per_replica(got, [T.softmax_cross_entropy(t64(lr), labels).data
                                          for lr in logits])

    def test_replica_path_is_forward_only(self, rng):
        x = t64(rng.normal(size=(2, 1, 3, 4, 4)))
        w = t64(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        copies, _ = self.filter_copies(rng, 2, 3, 3)
        ones = t64(np.ones(3), requires_grad=True)
        feats = t64(rng.normal(size=(2, 1, 3)))
        dense = t64(rng.normal(size=(4, 3)), requires_grad=True)
        bias = t64(np.zeros(4), requires_grad=True)
        running = T.BNBuffers(3, np.float64)
        logits = t64(rng.normal(size=(2, 1, 4)), requires_grad=True)
        for call in (lambda: T.conv2d(x, w, padding=1),
                     lambda: self.conv(x.data[0], copies, 1, 1, requires_grad=True),
                     lambda: T.batch_norm2d(x, ones, ones, running, training=True),
                     lambda: T.linear(feats, dense, bias),
                     lambda: T.concat_linear([feats], dense, bias),
                     lambda: T.elementwise_scale_combine([feats], [ones], "sum"),
                     lambda: T.softmax_cross_entropy(logits, [0])):
            with pytest.raises(T.StateError, match="forward-only"):
                call()
        assert not running.initialized
        with T.no_grad():
            assert T.conv2d(x, w, padding=1).shape == (2, 1, 2, 4, 4)
            assert self.conv(x.data[0], copies, 1, 1).shape == (self.R, 1, 2, 4, 4)
