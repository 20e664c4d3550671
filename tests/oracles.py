"""Independent brute-force reference implementations used to verify the
library. Everything here is deliberately naive (nested loops, direct
formulas) and shares no code with the package under test, except
``fd_quotients_oracle``, which references the gradient checker, so it drives
the model's own forward one perturbed scalar at a time, and ``tensor_sum``,
a graph node built with the engine's own node constructor. ``relu_where``
and ``batch_norm2d_exprs`` are not naive: they are the engine's earlier
whole-array expressions, one temporary per operation, kept as the bit
reference for its in-place forms."""

import numpy as np

from multipod import tensor as T


def tensor_sum(x):
    """Sum of all elements as a scalar graph node: the loss the op tests
    backpropagate from."""
    def backward(g):
        T._accumulate(x, np.broadcast_to(g, x.data.shape))
    return T._result(np.asarray(x.data.sum(), dtype=x.dtype), (x,), backward, "sum")


def concat(tensors):
    """B x P_i feature blocks joined into one B x sum(P_i) tensor, forward only."""
    return T.Tensor(np.concatenate([t.data for t in tensors], axis=1))


def conv2d_oracle(x, w, stride=1, padding=0):
    """Seven nested loops of plain cross-correlation."""
    b, c, h, wd = x.shape
    f, c2, kh, kw = w.shape
    assert c == c2
    xp = np.zeros((b, c, h + 2 * padding, wd + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((b, f, ho, wo), dtype=x.dtype)
    for bi in range(b):
        for fi in range(f):
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (xp[bi, ci, oi * stride + ki, oj * stride + kj]
                                        * w[fi, ci, ki, kj])
                    out[bi, fi, oi, oj] = acc
    return out


def conv2d_input_grad_oracle(g, w, x_shape, stride=1, padding=0):
    """d(loss)/d(input) of a conv given its output gradient g: each output
    cell scatters g times every tap's weight back onto the padded input
    cell that tap read, and the padding is cut off."""
    b, c, h, wd = x_shape
    f, _, kh, kw = w.shape
    dxp = np.zeros((b, c, h + 2 * padding, wd + 2 * padding), dtype=g.dtype)
    for oi in range(g.shape[2]):
        for oj in range(g.shape[3]):
            for ki in range(kh):
                for kj in range(kw):
                    dxp[:, :, oi * stride + ki, oj * stride + kj] += (
                        g[:, :, oi, oj] @ w[:, :, ki, kj])
    return dxp[:, :, padding:padding + h, padding:padding + wd]


def conv2d_weight_grad_oracle(x, g, stride=1, padding=0, kernel=(3, 3)):
    """d(loss)/d(weight) of a conv as ``g @ col.T`` per image, summed in
    image order from zero; col (C*kH*kW, outH*outW) is the image's padded
    input unfolded tap by tap."""
    b, c, h, wd = x.shape
    f, oh, ow = g.shape[1:]
    kh, kw = kernel
    xp = np.zeros((b, c, h + 2 * padding, wd + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    dw = 0
    for bi in range(b):
        col = np.empty((c, kh, kw, oh * ow), dtype=x.dtype)
        for ci in range(c):
            for ki in range(kh):
                for kj in range(kw):
                    col[ci, ki, kj] = xp[bi, ci, ki:ki + stride * oh:stride,
                                         kj:kj + stride * ow:stride].reshape(-1)
        dw = dw + g[bi].reshape(f, -1) @ col.reshape(c * kh * kw, -1).T
    return dw.reshape(f, c, kh, kw)


def batch_norm_train_oracle(x, gamma, beta, eps=1e-5):
    """Per-channel normalization over (B, H, W) with biased batch variance."""
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        vals = x[:, c, :, :]
        mean = vals.mean()
        var = ((vals - mean) ** 2).mean()
        out[:, c, :, :] = gamma[c] * (vals - mean) / np.sqrt(var + eps) + beta[c]
    return out


def relu_where(x):
    """relu as ``np.where(x > 0, x, 0)``: NaN and -0 give +0."""
    return np.where(x > 0, x, 0)


def batch_norm2d_exprs(x, gamma, beta, g=None, running=None, eps=1e-5):
    """Batch norm as whole-array expressions. Training mode takes the batch
    statistics of x, eval mode (``running`` = (mean, var), each (C,)) the
    given ones. x, gamma and beta may carry a leading replica axis. Returns
    the output, and with an output gradient g (plain 4-D operands only)
    also (dx, dgamma, dbeta)."""
    def channels(v):
        return v[..., None, :, None, None]

    axes = (-4, -2, -1)
    b, _, h, w = x.shape[-4:]
    n = b * h * w
    if running is None:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
    else:
        mean, var = channels(running[0]), channels(running[1])
    inv_std = 1.0 / np.sqrt(var + eps)
    out = channels(gamma) * ((x - mean) * inv_std) + channels(beta)
    if g is None:
        return out
    xhat = (x - mean) * inv_std
    dgamma = (g * xhat).sum(axis=(0, 2, 3))
    dbeta = g.sum(axis=(0, 2, 3))
    dxhat = g * channels(gamma)
    if running is None:
        s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (inv_std / n) * (n * dxhat - s1 - xhat * s2)
    else:
        dx = dxhat * inv_std
    return out, dx, dgamma, dbeta


def softmax_oracle(logits):
    out = np.empty_like(logits, dtype=np.float64)
    for i in range(logits.shape[0]):
        e = np.exp(logits[i].astype(np.float64) - logits[i].max())
        out[i] = e / e.sum()
    return out


def softmax_xent_oracle(logits, labels):
    probs = softmax_oracle(logits)
    return float(np.mean([-np.log(probs[i, labels[i]]) for i in range(len(labels))]))


def max_pool_oracle(x, kernel, stride, padding):
    b, c, h, w = x.shape
    xp = np.full((b, c, h + 2 * padding, w + 2 * padding), -np.inf, dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    out = np.zeros((b, c, ho, wo), dtype=x.dtype)
    for bi in range(b):
        for ci in range(c):
            for oi in range(ho):
                for oj in range(wo):
                    window = xp[bi, ci, oi * stride:oi * stride + kernel,
                                oj * stride:oj * stride + kernel]
                    out[bi, ci, oi, oj] = window.max()
    return out


def ten_crop_views_oracle(pixels, size):
    """The 10 views (4 corners + center, each plus horizontal flip),
    materialized independently of the library's generator."""
    h, w = pixels.shape[-2:]
    views = []
    for r, c in [(0, 0), (0, w - size), (h - size, 0), (h - size, w - size),
                 ((h - size) // 2, (w - size) // 2)]:
        crop = pixels[..., r:r + size, c:c + size].copy()
        views.append(crop)
        views.append(crop[..., ::-1].copy())
    return views


def synthetic_pixels_oracle(classes, samples, size, seed, noise=0.05):
    """The synthetic dataset's pixels, one image at a time: the bump of the
    image's class, then that image's own noise draw."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    centers = rng.uniform(0.2, 0.8, size=(classes, 2)) * size
    colors = rng.uniform(0.3, 1.0, size=(classes, 3))
    sigma = max(size / 6.0, 1.0)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float32)
    pixels = np.empty((samples, 3, size, size), dtype=np.float32)
    for i in range(samples):
        c = i % classes
        d2 = (ys - centers[c, 0]) ** 2 + (xs - centers[c, 1]) ** 2
        bump = np.exp(-d2 / (2 * sigma * sigma))
        img = colors[c][:, None, None] * bump[None]
        img = img + rng.normal(0.0, noise, size=img.shape)
        pixels[i] = np.clip(img, 0.0, 1.0)
    return pixels


def fd_gradient(f, arr, h=1e-6):
    """Central-difference gradient of scalar-valued f at a float64 array."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        up = f()
        flat[j] = orig - h
        down = f()
        flat[j] = orig
        gflat[j] = (up - down) / (2 * h)
    return grad


def fd_quotients_oracle(model, inputs, labels, h=1e-5, sample_stride=1):
    """Central differences of a multi-pod model's training-mode loss, one
    perturbed scalar and two suffix passes at a time: the checker's original
    loop, kept as the reference for its replica-batched rewrite. Returns
    {name: quotients at every ``sample_stride``-th flat index}. Perturbs
    parameters in place and restores each scalar; BN running buffers are
    updated as a side effect."""
    seg_inputs, feats = [], []
    with T.no_grad():
        for i in range(model.spec.pods):
            x = inputs[i]
            cached = []
            for _, fn in model.pods[i].segments:
                cached.append(x)
                x = fn(x, True)
            seg_inputs.append(cached)
            feats.append(x)

    def loss_after(pod_idx, seg_idx):
        with T.no_grad():
            cur = feats
            if pod_idx is not None:
                f = model.pods[pod_idx].run_from(seg_idx, seg_inputs[pod_idx][seg_idx], True)
                cur = feats[:pod_idx] + [f] + feats[pod_idx + 1:]
            return float(T.softmax_cross_entropy(model.head(cur), labels).data)

    out = {}
    for name, p in model.store.items():
        if name.startswith("pod"):
            pod_idx = int(name[3:name.index(".")])
            seg_idx = model.pods[pod_idx].segment_of(name[name.index(".") + 1:])
        else:
            pod_idx, seg_idx = None, 0
        flat = p.data.reshape(-1)
        positions = range(0, flat.size, sample_stride)
        fd = np.empty(len(positions))
        for slot, j in enumerate(positions):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_after(pod_idx, seg_idx)
            flat[j] = orig - h
            down = loss_after(pod_idx, seg_idx)
            flat[j] = orig
            fd[slot] = (up - down) / (2.0 * h)
        out[name] = fd
    return out
