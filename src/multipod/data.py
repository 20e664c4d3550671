"""Dataset loading, synthetic data, and the augmentation chain with per-pod routing.

Augmentation is a pure function of (pixels, spec, epoch, sample index): every
random draw comes from a stream seeded by those values, so results do not
depend on batch composition or worker scheduling.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .checks import ANY, INTEGER, NUMBER, NUMBERS, FieldError, Spec, nested, one_of, rule

CIFAR10_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR10_STD = (0.2023, 0.1994, 0.2010)

ROUTINGS = ("identical", "shared-jitter", "per-pod-jitter")

CIFAR10_SIZE = 32  # pixels per side of every dataset image
MAX_IMAGE_SIZE = 1024  # upper bound of data.size, augmentation.pad and crop_size
_RECORD_BYTES = 1 + 3 * CIFAR10_SIZE * CIFAR10_SIZE
_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
_TEST_FILES = ("test_batch.bin",)


class DataError(RuntimeError):
    """Raised for unreadable or malformed dataset files."""


@dataclass
class ImageBatch:
    """Pixels B x 3 x H x W in [0,1] (pre-normalization) plus integer labels."""

    pixels: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.pixels.ndim != 4 or self.pixels.shape[1] != 3:
            raise ValueError(f"pixels must be B x 3 x H x W, got {self.pixels.shape}")
        if self.labels.shape != (self.pixels.shape[0],):
            raise ValueError("labels length must match batch size")

    def __len__(self):
        return self.pixels.shape[0]

    def subset(self, indices):
        return ImageBatch(self.pixels[indices], self.labels[indices])


@dataclass(frozen=True)
class JitterSpec(Spec):
    brightness: tuple = (0.6, 1.4)
    contrast: tuple = (0.6, 1.4)
    saturation: tuple = (0.6, 1.4)

    FIELDS = tuple((name, NUMBERS, rule(lambda r: len(r) == 2 and 0 < r[0] <= 1 <= r[1],
                                        "must be a positive interval containing 1"))
                   for name in ("brightness", "contrast", "saturation"))


@dataclass(frozen=True)
class AugmentationSpec(Spec):
    pad: int = 4
    crop_size: int = 32
    hflip_prob: float = 0.5
    jitter: JitterSpec | None = None
    mean: tuple = CIFAR10_MEAN
    std: tuple = CIFAR10_STD
    routing: str = "identical"
    seed: int = 0

    FIELDS = (
        ("pad", INTEGER, rule(lambda pad: pad >= 0, "must be >= 0", MAX_IMAGE_SIZE)),
        ("crop_size", INTEGER, rule(lambda size: size >= 1, "must be >= 1", MAX_IMAGE_SIZE)),
        ("hflip_prob", NUMBER, rule(lambda p: 0.0 <= p <= 1.0, "must be in [0,1]")),
        ("jitter", nested(JitterSpec, optional=True), None),
        ("normalize.mean", NUMBERS, rule(lambda mean: len(mean) == 3, "must have 3 components")),
        ("normalize.std", NUMBERS, rule(lambda std: len(std) == 3 and all(s > 0 for s in std),
                                        "must have 3 components > 0")),
        ("routing", ANY, one_of(ROUTINGS)),
        ("seed", INTEGER, rule(lambda seed: seed >= 0, "must be >= 0")),
    )

    def check_crop(self, image_size):
        """Raise unless the crop fits an image of ``image_size`` padded by ``pad``."""
        padded = image_size + 2 * self.pad
        if self.crop_size > padded:
            raise FieldError([f"crop_size: {self.crop_size} exceeds padded image size {padded}"])


def _load_record_file(path):
    if not os.path.isfile(path):
        raise DataError(f"dataset file not found: {path}")
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % _RECORD_BYTES != 0:
        raise DataError(f"{path}: size {raw.size} is not a positive multiple of {_RECORD_BYTES}")
    records = raw.reshape(-1, _RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        offset = int(bad[0]) * _RECORD_BYTES
        raise DataError(f"{path}: invalid label byte {labels[bad[0]]} at offset {offset}")
    pixels = records[:, 1:].reshape(-1, 3, CIFAR10_SIZE, CIFAR10_SIZE).astype(np.float32) / 255.0
    return pixels, labels


def _load_files(root, names):
    parts = [_load_record_file(os.path.join(root, name)) for name in names]
    return ImageBatch(np.concatenate([p for p, _ in parts]),
                      np.concatenate([l for _, l in parts]))


def load_cifar10_train(root):
    """Load the train split alone, reading no test file."""
    return _load_files(root, _TRAIN_FILES)


def load_cifar10_test(root):
    """Load the test split alone, reading no train file."""
    return _load_files(root, _TEST_FILES)


# A binary PPM header: "P6", then width, height and maxval, each a decimal
# number of at most nine digits after whitespace that may hold "#" comments,
# then one whitespace byte.
_PPM_HEADER = re.compile(rb"P6" + 3 * rb"\s+(?:#[^\n]*\n\s*)*(\d{1,9})" + rb"\s")


def read_ppm(path):
    """Binary PPM (P6, maxval 255) to a 3 x H x W float array in [0,1]."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise DataError(f"cannot read image {path}: {e}") from e
    header = _PPM_HEADER.match(raw)
    if header is None:
        raise DataError(f"{path}: not a binary PPM (P6) image with a decimal header")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval} (need 255)")
    need = w * h * 3
    data = raw[header.end():header.end() + need]
    if len(data) < need:
        raise DataError(f"{path}: truncated pixel data ({len(data)} of {need} bytes)")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
    return arr.transpose(2, 0, 1).astype(np.float32) / 255.0


def write_ppm(path, img):
    """3 x H x W float array in [0,1] to a binary PPM file."""
    img = np.asarray(img)
    _, h, w = img.shape
    pixels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(pixels.transpose(1, 2, 0).tobytes())


def synthetic_dataset(classes, samples, size, seed, noise=0.05):
    """Gaussian class blobs rendered as images: each class is a colored bump
    at a class-specific location, plus pixel noise. Desk-scale stand-in for
    the real dataset."""
    if classes < 2 or samples < classes:
        raise ValueError("need classes >= 2 and samples >= classes")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    centers = rng.uniform(0.2, 0.8, size=(classes, 2)) * size
    colors = rng.uniform(0.3, 1.0, size=(classes, 3))
    sigma = max(size / 6.0, 1.0)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float32)
    labels = (np.arange(samples) % classes).astype(np.int64)
    d2 = (ys - centers[:, :1, None]) ** 2 + (xs - centers[:, 1:, None]) ** 2
    bumps = colors[:, :, None, None] * np.exp(-d2 / (2 * sigma * sigma))[:, None]
    # one draw over all images takes each image's noise in image order
    img = bumps[labels] + rng.normal(0.0, noise, size=(samples, 3, size, size))
    return ImageBatch(np.clip(img, 0.0, 1.0, out=img), labels)


def _luma(img):
    # img: (..., 3, H, W)
    r, g, b = img[..., 0, :, :], img[..., 1, :, :], img[..., 2, :, :]
    return 0.299 * r + 0.587 * g + 0.114 * b


_JITTER_OPS = ("brightness", "contrast", "saturation")


def color_jitter(img, brightness=1.0, contrast=1.0, saturation=1.0, *, order):
    """Blend brightness, contrast, and saturation by the given factors.

    Sub-operations run in ``order`` (a permutation of op names). The result
    is clamped to [0,1] at the end.
    """
    for name, f in (("brightness", brightness), ("contrast", contrast),
                    ("saturation", saturation)):
        if f < 0:
            raise ValueError(f"{name} factor must be >= 0, got {f}")
    out = np.asarray(img, dtype=np.float32)
    for op in order:
        if op == "brightness":
            out = brightness * out
        elif op == "contrast":
            mean = _luma(out).mean(axis=(-2, -1), keepdims=True)[..., None, :, :]
            out = contrast * out + (1.0 - contrast) * mean
        elif op == "saturation":
            out = saturation * out + (1.0 - saturation) * _luma(out)[..., None, :, :]
        else:
            raise ValueError(f"unknown jitter op {op!r}")
    return np.clip(out, 0.0, 1.0)


def _draw_jitter(rng, spec):
    factors = (rng.uniform(*spec.brightness), rng.uniform(*spec.contrast),
               rng.uniform(*spec.saturation))
    order = tuple(_JITTER_OPS[i] for i in rng.permutation(3))
    return factors, order


def normalize(images, mean, std):
    """Per-channel (x - mean) / std."""
    mean = np.asarray(mean, dtype=np.float32)
    std = np.asarray(std, dtype=np.float32)
    if np.any(std <= 0):
        raise ValueError(f"std components must be > 0, got {std.tolist()}")
    return (np.asarray(images, dtype=np.float32) - mean[:, None, None]) / std[:, None, None]


def sample_rng(seed, epoch, index):
    """The per-sample augmentation stream; fixed by (seed, epoch, index) only."""
    return np.random.default_rng(np.random.SeedSequence([seed, epoch, int(index)]))


def make_pod_inputs(pixels, spec, k, epoch=0, indices=None, train=True):
    """Produce the k per-pod input arrays for one batch.

    The batch is zero-padded by ``pad`` once; each sample's stream draws its
    crop row, crop column and flip, and its crop is a window of the padded
    batch. Geometry is always shared across pods. Routing sets how many
    photometric jitter draws each sample takes after its crop and flip:
    ``identical`` (or no jitter spec) none, ``shared-jitter`` one for all
    pods, ``per-pod-jitter`` one per pod. Eval mode (train=False) normalizes
    only, and returns one read-only array k times.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pixels = np.asarray(pixels, dtype=np.float32)
    b, _, h, w = pixels.shape
    if indices is None:
        indices = np.arange(b)

    if not train:
        out = normalize(pixels, spec.mean, spec.std)
        out.flags.writeable = False
        return [out] * k

    spec.check_crop(min(h, w))
    p, s = spec.pad, spec.crop_size
    padded = np.pad(pixels, ((0, 0), (0, 0), (p, p), (p, p)))
    draws = 0 if spec.routing == "identical" or spec.jitter is None else (
        1 if spec.routing == "shared-jitter" else k)
    views = np.empty((k, b, 3, s, s), dtype=np.float32)
    for i in range(b):
        rng = sample_rng(spec.seed, epoch, indices[i])
        r, c = rng.integers(0, h + 2 * p - s + 1), rng.integers(0, w + 2 * p - s + 1)
        img = padded[i, :, r:r + s, c:c + s]
        if rng.random() < spec.hflip_prob:
            img = img[..., ::-1]
        # one draw broadcasts to every pod; k draws give each pod its own
        jittered = [color_jitter(img, *factors, order=order)
                    for factors, order in (_draw_jitter(rng, spec.jitter) for _ in range(draws))]
        views[:, i] = jittered if draws else img
    return list(normalize(views, spec.mean, spec.std))
