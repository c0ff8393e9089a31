"""Datasets, the unlabeled attack pool, and input augmentation.

A Dataset is a float64 feature matrix with optional integer labels and an
optional image layout (height, width, channels) describing how each flat row
folds into a picture. PoolState tracks, per pool row, whether it is still
unlabeled, was sent to the oracle, was pseudo-labeled locally, or is held out
for validation; the oracle's answers live here too, so downstream stages
never touch ground truth by accident.

Augmentations are small declarative configs applied to a batch of rows
through an explicit numpy Generator, which keeps every perturbation
replayable. Synthetic sources (a separable Gaussian mixture and noisy
low-res digit glyphs) cover desk-scale experiments without external data.

Every file is written by write_bytes here, whole or not at all, and every
text file goes through the text codec here: UTF-8, "\n" line ends, CSV cells
by format_cell, JSON by json_text (two-space indent, sorted keys).
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
from contextlib import suppress
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .seeding import mask64

DATASET_MAGIC = b"AOTD"
DATASET_VERSION = 1

UNLABELED = 0
QUERIED = 1
PSEUDO = 2
VALIDATION = 3
STATUS_NAMES = ("unlabeled", "queried", "pseudo", "validation")


# ── datasets ─────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ImageLayout:
    height: int
    width: int
    channels: int = 1

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.channels < 1:
            raise InvalidConfigError(f"image layout must be positive, got {self}")

    @property
    def flat_dim(self) -> int:
        return self.height * self.width * self.channels


def is_integer(v) -> bool:
    """v is an int or a NumPy integer, and not a bool (an int subclass)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _integers(values, must: str) -> np.ndarray:
    """values as an array of an integer dtype, else InvalidInputError(f"{must},
    got ..."). No coercion: a list or tuple holds is_integer values only
    (np.asarray would take 0.7 as 0, '7' as 7 and True as 1) and becomes
    int64, a value outside int64 refused by its value; a uint64 array above
    the int64 maximum is refused too (a cast would wrap it negative)."""
    if isinstance(values, (list, tuple)):
        bad = next((v for v in values if not is_integer(v)), None)
        if bad is not None:
            raise InvalidInputError(f"{must}, got {type(bad).__name__} in a {type(values).__name__}")
        values = [int(v) for v in values]  # np.asarray makes float64 of a uint64 beside a signed value
        off = next((v for v in values if not -(2**63) <= v < 2**63), None)
        if off is not None:
            raise InvalidInputError(f"{must}, got value {off} outside the int64 range")
        values = np.array(values, dtype=np.int64)
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer):
        raise InvalidInputError(f"{must}, got dtype {arr.dtype}")
    if arr.dtype == np.uint64 and arr.size and arr.max() > np.iinfo(np.int64).max:
        raise InvalidInputError(f"{must}, got uint64 value {arr.max()} above the int64 maximum")
    return arr


def as_labels(labels, n: int) -> np.ndarray:
    """labels as int64 if they are n nonnegative integers (see _integers),
    else InvalidInputError: a float or bool label is a caller's bug, not a
    class."""
    labels = _integers(labels, "labels must be nonnegative integers")
    if labels.shape != (n,):
        raise InvalidInputError(f"expected {n} labels, got shape {labels.shape}")
    if n and labels.min() < 0:
        raise InvalidInputError(f"labels must be nonnegative integers, got dtype {labels.dtype}")
    return labels.astype(np.int64)


def as_indices(indices) -> np.ndarray:
    """indices as int64 if they are integers (see _integers), else
    InvalidInputError: a float, string or bool index is a caller's bug, not
    a row."""
    return _integers(indices, "indices must be integers").astype(np.int64, copy=False)


class Dataset:
    """Feature matrix (n, d) float64, optional int64 labels, optional layout."""

    __slots__ = ("features", "labels", "layout")

    def __init__(self, features, labels=None, layout: Optional[ImageLayout] = None):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise InvalidInputError(f"features must be 2-d, got shape {features.shape}")
        if not np.all(np.isfinite(features)):
            raise InvalidInputError("features contain non-finite values")
        if layout is not None and layout.flat_dim != features.shape[1]:
            raise InvalidInputError(
                f"layout {layout} implies {layout.flat_dim} features per row, "
                f"matrix has {features.shape[1]}"
            )
        self.features = features
        self.labels = None if labels is None else as_labels(labels, features.shape[0])
        self.layout = layout

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


# ── pool bookkeeping ─────────────────────────────────────────────────


class PoolState:
    """Per-row status over an unlabeled pool plus the labels acquired so far.

    Rows move UNLABELED -> QUERIED (oracle answered), QUERIED -> VALIDATION
    (held out, never trained on), or UNLABELED -> PSEUDO (locally guessed).
    `labels[i]` is row i's label under its status and means nothing while
    the row is unlabeled. Transitions validate fully before mutating, so a
    rejected call leaves the state untouched.
    """

    def __init__(self, pool: Dataset):
        if pool.labels is not None:
            raise InvalidInputError("attack pool must be unlabeled")
        self.pool = pool
        self.status = np.zeros(pool.n, dtype=np.int8)
        self.labels = np.zeros(pool.n, dtype=np.int64)

    # -- helpers

    def _check(self, indices, status: int) -> np.ndarray:
        """as_indices(indices) if they are nonempty, unique, in range and all
        in the given status, else InvalidInputError."""
        idx = as_indices(indices)
        if idx.ndim != 1 or idx.size == 0:
            raise InvalidInputError("expected a nonempty 1-d index array")
        ordered = np.sort(idx)  # np.unique would import numpy.ma on first use
        if np.any(ordered[1:] == ordered[:-1]):
            raise InvalidInputError("indices contain duplicates")
        if idx.min() < 0 or idx.max() >= self.pool.n:
            raise InvalidInputError(f"indices out of range [0, {self.pool.n})")
        if np.any(self.status[idx] != status):
            raise InvalidInputError(f"expected only {STATUS_NAMES[status]} rows")
        return idx

    def _set(self, idx: np.ndarray, status: int, labels) -> None:
        labels = as_labels(labels, idx.size)
        self.status[idx] = status
        self.labels[idx] = labels

    # -- transitions

    def query(self, indices, predict_batch) -> np.ndarray:
        """Label still-unlabeled rows with one predict_batch call on their
        features in ascending index order, and mark them queried only once
        it has answered every row, so a failed call marks nothing."""
        idx = np.sort(self._check(indices, UNLABELED))
        labels = predict_batch(self.pool.features[idx])
        self._set(idx, QUERIED, labels)
        return labels

    def convert_queried_to_validation(self, indices) -> None:
        idx = self._check(indices, QUERIED)
        self._set(idx, VALIDATION, self.labels[idx])

    def mark_pseudo(self, indices, labels) -> None:
        self._set(self._check(indices, UNLABELED), PSEUDO, labels)

    # -- views

    def indices_with_status(self, status: int) -> np.ndarray:
        return np.flatnonzero(self.status == status).astype(np.int64)

    def unlabeled_indices(self) -> np.ndarray:
        return self.indices_with_status(UNLABELED)

    def _gather(self, status: int):
        idx = self.indices_with_status(status)
        return self.pool.features[idx], self.labels[idx], idx

    def labeled_data(self):
        """(X, y, indices) of oracle-labeled training rows, ascending index."""
        return self._gather(QUERIED)

    def pseudo_data(self):
        return self._gather(PSEUDO)

    def validation_data(self):
        return self._gather(VALIDATION)

    def counts(self) -> dict[str, int]:
        return dict(zip(STATUS_NAMES, np.bincount(self.status, minlength=len(STATUS_NAMES)).tolist()))


# ── augmentation ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class HorizontalFlip:
    """Mirror each image row-wise with probability p. Image data only."""

    p: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InvalidConfigError("flip probability must lie in [0, 1]")


@dataclass(frozen=True)
class RandLite:
    """Compose n_ops randomly chosen structural edits (column shift, noise,
    square cutout filled with the dataset mean), each scaled by magnitude.
    Image data only."""

    n_ops: int = 2
    magnitude: float = 0.3
    dataset_mean: float = 0.0

    def __post_init__(self):
        if self.n_ops < 1:
            raise InvalidConfigError("n_ops must be positive")
        if not 0.0 <= self.magnitude <= 1.0:
            raise InvalidConfigError("magnitude must lie in [0, 1]")


@dataclass(frozen=True)
class JitterDrop:
    """Gaussian noise followed by zeroing a random fraction of coordinates;
    with drop_frac 0 it is plain jitter and draws no uniforms."""

    sigma: float
    drop_frac: float = 0.1

    def __post_init__(self):
        if self.sigma < 0:
            raise InvalidConfigError("jitter sigma must be nonnegative")
        if not 0.0 <= self.drop_frac <= 1.0:
            raise InvalidConfigError("drop fraction must lie in [0, 1]")


Transform = Union[HorizontalFlip, RandLite, JitterDrop]


@dataclass(frozen=True)
class AugmentConfig:
    """A weak and a strong perturbation sharing one seed namespace.

    The weak one is a flip or plain jitter (JitterDrop with drop_frac 0):
    each draws one row-major array (a uniform per row, a normal per value),
    so the pseudo-label filter's slice-by-slice draw equals one draw over
    the whole pool."""

    weak: Transform
    strong: Transform
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rng_seed", mask64(self.rng_seed))
        if not isinstance(self.weak, (HorizontalFlip, JitterDrop)) or getattr(self.weak, "drop_frac", 0.0) != 0.0:
            raise InvalidConfigError(
                f"the weak perturbation must be a flip or plain jitter (drop_frac 0), got {self.weak!r}"
            )
        w_sigma = getattr(self.weak, "sigma", None)
        s_sigma = getattr(self.strong, "sigma", None)
        if w_sigma is not None and s_sigma is not None and not w_sigma < s_sigma:
            raise InvalidConfigError(
                f"weak jitter sigma {w_sigma} must be below strong sigma {s_sigma}"
            )


def apply_transform(x, op: Transform, layout: Optional[ImageLayout], rng: np.random.Generator) -> np.ndarray:
    """Perturbed copies of an (n, d) batch of flat feature rows. Each op draws
    its random numbers batch-wise in a fixed order, so a given generator
    state yields exactly one outcome."""
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidInputError(f"expected an (n, d) batch, got shape {X.shape}")
    n, d = X.shape
    if isinstance(op, JitterDrop):
        out = X + rng.normal(0.0, op.sigma, size=X.shape) if op.sigma > 0 else X.copy()
        ndrop = int(round(op.drop_frac * d))
        if ndrop > 0:
            np.put_along_axis(out, rng.random(X.shape).argsort(axis=1)[:, :ndrop], 0.0, axis=1)
    elif layout is None:
        raise InvalidInputError(f"{type(op).__name__} needs an image layout")
    elif isinstance(op, HorizontalFlip):
        flip = rng.random(n) < op.p
        mirrored = X.reshape(n, layout.height, layout.width, layout.channels)[:, :, ::-1, :]
        out = np.where(flip[:, None], mirrored.reshape(n, d), X)
    elif isinstance(op, RandLite):
        h, w = layout.height, layout.width
        imgs = X.reshape(n, h, w, layout.channels).copy()
        shift = int(round(op.magnitude * w))
        side = int(round(op.magnitude * min(h, w)))
        for _ in range(op.n_ops):
            kind = rng.integers(0, 3, size=n)
            # kind 0: roll the columns by +-shift
            roll = np.where(kind == 0, (rng.integers(0, 2, size=n) * 2 - 1) * shift, 0)
            cols = (np.arange(w) - roll[:, None]) % w
            imgs = np.take_along_axis(imgs, cols[:, None, :, None], axis=2)
            # kind 1: additive noise
            noisy = kind == 1
            if op.magnitude > 0:
                imgs[noisy] += rng.normal(0.0, op.magnitude, size=(int(noisy.sum()), *imgs.shape[1:]))
            # kind 2: a side x side square filled with the dataset mean
            top = np.arange(h) - rng.integers(0, h - side + 1, size=n)[:, None]
            left = np.arange(w) - rng.integers(0, w - side + 1, size=n)[:, None]
            box = ((top >= 0) & (top < side))[:, :, None] & ((left >= 0) & (left < side))[:, None, :]
            imgs[box & (kind == 2)[:, None, None]] = op.dataset_mean
        out = imgs.reshape(n, d)
    else:
        raise InvalidInputError(f"unknown transform {op!r}")
    return out


def weak_augment(x, cfg: AugmentConfig, layout: Optional[ImageLayout], rng: np.random.Generator) -> np.ndarray:
    return apply_transform(x, cfg.weak, layout, rng)


def strong_augment(x, cfg: AugmentConfig, layout: Optional[ImageLayout], rng: np.random.Generator) -> np.ndarray:
    return apply_transform(x, cfg.strong, layout, rng)


# ── synthetic sources ────────────────────────────────────────────────


@dataclass(frozen=True)
class GaussianMixture:
    """Unit-variance Gaussian blobs whose closest pair of means sits exactly
    `separation` apart; class labels cycle 0..classes-1 over the rows."""

    classes: int = 4
    dim: int = 8
    separation: float = 5.0

    def __post_init__(self):
        if self.classes < 2:
            raise InvalidConfigError("a mixture needs at least two classes")
        if self.dim < 1:
            raise InvalidConfigError("dim must be positive")
        if not 0 < self.separation < math.inf:
            raise InvalidConfigError(f"separation must be finite and positive, got {self.separation!r}")

    @property
    def input_dim(self) -> int:
        return self.dim

    @property
    def num_classes(self) -> int:
        return self.classes


@dataclass(frozen=True)
class TinyDigits:
    """Noisy 10-class digit glyphs upscaled from a 3x5 dot-matrix font."""

    height: int = 10
    width: int = 6

    def __post_init__(self):
        if self.height < 5 or self.width < 3:
            raise InvalidConfigError("digit canvas must be at least 5x3")

    @property
    def input_dim(self) -> int:
        return self.height * self.width

    @property
    def num_classes(self) -> int:
        return 10


_GLYPHS = [
    "111101101101111",
    "010110010010111",
    "111001111100111",
    "111001111001111",
    "101101111001001",
    "111100111001111",
    "111100111101111",
    "111001001001001",
    "111101111101111",
    "111101111001111",
]


def _digit_templates(height: int, width: int) -> np.ndarray:
    base = np.array(
        [[float(ch) for ch in glyph] for glyph in _GLYPHS], dtype=np.float64
    ).reshape(10, 5, 3)
    # nearest-neighbor upscale of the 5x3 base grid
    rows = (np.arange(height) * 5) // height
    cols = (np.arange(width) * 3) // width
    return base[:, rows][:, :, cols]


SyntheticSource = Union[GaussianMixture, TinyDigits]


def mixture_means(source: GaussianMixture) -> np.ndarray:
    """Class means of the mixture, a fixed property of the source itself.

    The geometry derives from the source parameters alone, so train, test,
    and pool draws from equal configs sample one shared world. Means are
    scaled so the closest pair sits exactly `separation` apart.
    """
    geometry_seed = np.random.SeedSequence(
        [source.classes, source.dim, int(np.float64(source.separation).view(np.uint64))]
    ).generate_state(1, np.uint64)[0]
    rng = np.random.default_rng(int(geometry_seed))
    raw = rng.normal(size=(source.classes, source.dim))
    dists = np.linalg.norm(raw[:, None, :] - raw[None, :, :], axis=-1)
    np.fill_diagonal(dists, np.inf)
    return raw * (source.separation / dists.min())


def make_synthetic(source: SyntheticSource, n: int, seed: int) -> Dataset:
    """n iid rows from the source, labels cycling over the classes. The seed
    drives only the sample noise; the class structure is the source's own."""
    if n < 1:
        raise InvalidInputError("n must be positive")
    rng = np.random.default_rng(mask64(seed))
    if isinstance(source, GaussianMixture):
        means = mixture_means(source)
        labels = np.arange(n, dtype=np.int64) % source.classes
        features = means[labels] + rng.standard_normal((n, source.dim))
        return Dataset(features, labels, layout=None)
    if isinstance(source, TinyDigits):
        templates = _digit_templates(source.height, source.width)
        labels = np.arange(n, dtype=np.int64) % 10
        flat = templates[labels].reshape(n, -1)
        features = flat + rng.normal(0.0, 0.15, size=flat.shape)
        return Dataset(features, labels, ImageLayout(source.height, source.width, 1))
    raise InvalidInputError(f"unknown synthetic source {source!r}")


def strip_labels(data: Dataset) -> Dataset:
    return Dataset(data.features, None, data.layout)


# ── budget split ─────────────────────────────────────────────────────


def split_budget(budget: int, cycles: int, validation_fraction: float) -> tuple[int, list[int]]:
    """The query budget as (validation queries, per-cycle batch sizes): the
    one copy of this rule. Validation gets round(fraction * budget), half to
    even; the rest splits evenly over the cycles, the last batch taking the
    remainder. A split that leaves a batch empty is rejected."""
    if budget < 1:
        raise InvalidConfigError("query budget must be positive")
    if cycles < 1:
        raise InvalidConfigError("cycles must be positive")
    if not 0.0 <= validation_fraction < 1.0:
        raise InvalidConfigError("validation fraction must lie in [0, 1)")
    validation = int(round(validation_fraction * budget))
    per_cycle = (budget - validation) // cycles
    if per_cycle < 1:
        raise InvalidConfigError(
            f"budget {budget} too small for {cycles} cycles after {validation} validation queries"
        )
    return validation, [per_cycle] * (cycles - 1) + [budget - validation - per_cycle * (cycles - 1)]


def initial_split(pool_size: int, validation: int, first: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The validation rows and the first training batch, from one uniform
    draw without replacement (validation rows first), each returned sorted."""
    if pool_size < 1:
        raise InvalidInputError("pool is empty")
    if validation + first > pool_size:
        raise InvalidInputError("pool smaller than the initial draw")
    rng = np.random.default_rng(mask64(seed))
    pick = rng.choice(pool_size, size=validation + first, replace=False)
    return np.sort(pick[:validation]).astype(np.int64), np.sort(pick[validation:]).astype(np.int64)


# ── dataset files ────────────────────────────────────────────────────
#
# Little-endian binary: magic "AOTD", u32 version=1, u32 n, u32 d,
# u8 layout flag (0 = none, 1 = image followed by u32 h, w, c),
# u8 has_labels, f32 features row-major, then u32 labels when present.


def save_dataset(data: Dataset, path) -> None:
    parts = [struct.pack("<4sIII", DATASET_MAGIC, DATASET_VERSION, data.n, data.dim)]
    if data.layout is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts.append(
            struct.pack("<BIII", 1, data.layout.height, data.layout.width, data.layout.channels)
        )
    parts.append(struct.pack("<B", 0 if data.labels is None else 1))
    parts.append(data.features.astype("<f4").tobytes())
    if data.labels is not None:
        parts.append(data.labels.astype("<u4").tobytes())
    write_bytes(path, b"".join(parts))


def load_dataset(path) -> Dataset:
    blob = read_bytes(path)
    try:
        magic, version, n, d = struct.unpack_from("<4sIII", blob, 0)
        if magic != DATASET_MAGIC:
            raise InvalidInputError(f"bad dataset magic {magic!r}")
        if version != DATASET_VERSION:
            raise InvalidInputError(f"unsupported dataset version {version}")
        offset = 16
        (layout_flag,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        layout = None
        if layout_flag == 1:
            h, w, c = struct.unpack_from("<III", blob, offset)
            offset += 12
            layout = ImageLayout(h, w, c)
        elif layout_flag != 0:
            raise InvalidInputError(f"unknown layout flag {layout_flag}")
        (has_labels,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        if has_labels not in (0, 1):
            raise InvalidInputError(f"unknown label flag {has_labels}")
        size = offset + 4 * n * (d + has_labels)
        if len(blob) != size:
            raise InvalidInputError(f"dataset file holds {len(blob)} bytes, its header implies {size}")
        features = np.frombuffer(blob, dtype="<f4", count=n * d, offset=offset)
        labels = None
        if has_labels:
            labels = np.frombuffer(blob, dtype="<u4", count=n, offset=offset + 4 * n * d).astype(np.int64)
    except struct.error as exc:
        raise InvalidInputError(f"truncated dataset file: {exc}") from exc
    except InvalidConfigError as exc:
        raise InvalidInputError(f"bad dataset header: {exc}") from exc
    return Dataset(features.astype(np.float64).reshape(n, d), labels, layout)


# ── files ────────────────────────────────────────────────────────────


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def write_bytes(path, data: bytes) -> None:
    """The one file writer: data lands whole or not at all in the file path
    names (through any symlinks), by way of a ".tmp" file beside it, which
    is removed if anything raises. An existing file keeps its permission
    bits; an existing target that is not a regular file is refused before
    anything is written."""
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        raise InvalidInputError(f"cannot write {path}: not a regular file")
    tmp = f"{target}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:  # universal newlines: "\r\n" reads as "\n"
        return fh.read()


def write_text(path, text: str) -> None:
    write_bytes(path, text.encode("utf-8"))


def write_lines(path, lines) -> None:
    write_text(path, "\n".join(lines) + "\n")


def format_cell(v) -> str:
    """A CSV cell, or a value in a text line: empty for None, repr for a float."""
    return "" if v is None else repr(v) if isinstance(v, float) else str(v)


def write_csv(path, header, rows) -> None:
    write_lines(path, [",".join(header), *(",".join(map(format_cell, row)) for row in rows)])


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
