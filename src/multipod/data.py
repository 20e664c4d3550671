"""Dataset loading, synthetic data, and the augmentation chain with per-pod routing.

Augmentation is a pure function of (pixels, spec, epoch, sample index): every
random draw comes from a stream seeded by those values, so results do not
depend on batch composition or worker scheduling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

CIFAR10_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR10_STD = (0.2023, 0.1994, 0.2010)
IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)

ROUTINGS = ("identical", "shared-jitter", "per-pod-jitter")

CIFAR10_SIZE = 32  # pixels per side of every dataset image
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
class JitterSpec:
    brightness: tuple = (0.6, 1.4)
    contrast: tuple = (0.6, 1.4)
    saturation: tuple = (0.6, 1.4)

    def __post_init__(self):
        for name in ("brightness", "contrast", "saturation"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            lo, hi = getattr(self, name)
            if not (0 < lo <= 1 <= hi):
                raise ValueError(f"{name} range must be a positive interval containing 1, got {(lo, hi)}")

    def to_dict(self):
        return {"brightness": list(self.brightness), "contrast": list(self.contrast),
                "saturation": list(self.saturation)}

    @staticmethod
    def from_dict(d):
        return JitterSpec(d["brightness"], d["contrast"], d["saturation"])


@dataclass(frozen=True)
class AugmentationSpec:
    pad: int = 4
    crop_size: int = 32
    hflip_prob: float = 0.5
    jitter: JitterSpec | None = None
    mean: tuple = CIFAR10_MEAN
    std: tuple = CIFAR10_STD
    routing: str = "identical"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mean", tuple(self.mean))
        object.__setattr__(self, "std", tuple(self.std))
        if self.pad < 0:
            raise ValueError(f"pad must be >= 0, got {self.pad}")
        if self.crop_size < 1:
            raise ValueError(f"crop_size must be >= 1, got {self.crop_size}")
        if not (0.0 <= self.hflip_prob <= 1.0):
            raise ValueError(f"hflip_prob must be in [0,1], got {self.hflip_prob}")
        if len(self.mean) != 3 or len(self.std) != 3:
            raise ValueError("mean and std must have 3 components")
        if any(s <= 0 for s in self.std):
            raise ValueError(f"std components must be > 0, got {self.std}")
        if self.routing not in ROUTINGS:
            raise ValueError(f"routing must be one of {ROUTINGS}, got {self.routing!r}")

    def check_crop(self, image_size):
        """Raise unless the crop fits an image of ``image_size`` padded by ``pad``."""
        padded = image_size + 2 * self.pad
        if self.crop_size > padded:
            raise ValueError(f"crop_size: {self.crop_size} exceeds padded image size {padded}")

    def to_dict(self):
        return {
            "pad": self.pad,
            "crop_size": self.crop_size,
            "hflip_prob": self.hflip_prob,
            "jitter": None if self.jitter is None else self.jitter.to_dict(),
            "normalize": {"mean": list(self.mean), "std": list(self.std)},
            "routing": self.routing,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d):
        norm = d.get("normalize", {})
        fields = {k: f(d[k]) for k, f in (("pad", int), ("crop_size", int), ("hflip_prob", float),
                                           ("seed", int)) if k in d}
        fields.update({k: norm[k] for k in ("mean", "std") if k in norm})
        if "routing" in d:
            fields["routing"] = d["routing"]
        if d.get("jitter") is not None:
            fields["jitter"] = JitterSpec.from_dict(d["jitter"])
        return AugmentationSpec(**fields)


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


def load_cifar10(root):
    """Load the binary-format dataset from a directory; returns (train, test)."""
    def load_files(names):
        parts = [_load_record_file(os.path.join(root, name)) for name in names]
        return ImageBatch(np.concatenate([p for p, _ in parts]),
                          np.concatenate([l for _, l in parts]))
    return load_files(_TRAIN_FILES), load_files(_TEST_FILES)


def read_ppm(path):
    """Binary PPM (P6, maxval 255) to a 3 x H x W float array in [0,1]."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise DataError(f"cannot read image {path}: {e}") from e
    fields = []
    pos = 0
    while len(fields) < 4 and pos < len(raw):
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # the single whitespace byte after maxval
    if len(fields) < 4 or fields[0] != b"P6":
        raise DataError(f"{path}: not a binary PPM (P6) image")
    try:
        w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError as e:
        raise DataError(f"{path}: malformed PPM header") from e
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval} (need 255)")
    need = w * h * 3
    data = raw[pos:pos + need]
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
    pixels = np.empty((samples, 3, size, size), dtype=np.float32)
    for i, c in enumerate(labels):
        d2 = (ys - centers[c, 0]) ** 2 + (xs - centers[c, 1]) ** 2
        bump = np.exp(-d2 / (2 * sigma * sigma))
        img = colors[c][:, None, None] * bump[None]
        img = img + rng.normal(0.0, noise, size=img.shape)
        pixels[i] = np.clip(img, 0.0, 1.0)
    return ImageBatch(pixels, labels)


def pad_random_crop(images, pad, size, rng=None, offsets=None):
    """Zero-pad by ``pad`` on all sides, then take a random size x size window.

    ``offsets`` (per-image (row, col) pairs) overrides the random draw; two
    uniform draws per image are consumed when it is None.
    """
    images = np.asarray(images)
    b, c, h, w = images.shape
    if size > h + 2 * pad or size > w + 2 * pad:
        raise ValueError(f"crop size {size} exceeds padded extent {(h + 2 * pad, w + 2 * pad)}")
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    max_r = h + 2 * pad - size
    max_c = w + 2 * pad - size
    if offsets is None:
        offsets = np.stack([rng.integers(0, max_r + 1, size=b),
                            rng.integers(0, max_c + 1, size=b)], axis=1)
    out = np.empty((b, c, size, size), dtype=images.dtype)
    for i, (r, col) in enumerate(np.asarray(offsets)):
        out[i] = padded[i, :, r:r + size, col:col + size]
    return out


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

    Geometry (crop, flip) is always shared across pods. Routing sets how many
    photometric jitter draws each sample takes after its crop and flip:
    ``identical`` (or no jitter spec) none, ``shared-jitter`` one for all
    pods, ``per-pod-jitter`` one per pod. Eval mode (train=False) normalizes
    only, and returns one read-only array k times.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pixels = np.asarray(pixels, dtype=np.float32)
    b = pixels.shape[0]
    if indices is None:
        indices = np.arange(b)

    if not train:
        out = normalize(pixels, spec.mean, spec.std)
        out.flags.writeable = False
        return [out] * k

    draws = 0 if spec.routing == "identical" or spec.jitter is None else (
        1 if spec.routing == "shared-jitter" else k)
    views = np.empty((k, b, 3, spec.crop_size, spec.crop_size), dtype=np.float32)
    for i in range(b):
        rng = sample_rng(spec.seed, epoch, indices[i])
        img = pad_random_crop(pixels[i:i + 1], spec.pad, spec.crop_size, rng=rng)[0]
        if rng.random() < spec.hflip_prob:
            img = img[..., ::-1]
        # one draw broadcasts to every pod; k draws give each pod its own
        jittered = [color_jitter(img, *factors, order=order)
                    for factors, order in (_draw_jitter(rng, spec.jitter) for _ in range(draws))]
        views[:, i] = jittered if draws else img
    return list(normalize(views, spec.mean, spec.std))
