"""Datasets, the unlabeled attack pool, and input augmentation.

A Dataset is a float64 feature matrix with optional integer labels and an
optional image layout (height, width, channels) that folds each flat row
into a picture; as_matrix, the one row rule, checks its rows. PoolState
tracks, per pool row, whether it is still unlabeled, was sent to the
oracle, was pseudo-labeled locally, or is held out for validation; the
oracle's answers live here too, so downstream stages never touch ground
truth by accident.

The pseudo-label stage's weak and strong perturbations are fixed recipes,
picked by the layout, drawing from an explicit numpy Generator, which
keeps each perturbation replayable. Synthetic sources (a separable
Gaussian mixture and noisy digit glyphs) cover desk-scale experiments
without external data.

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


def as_rows(indices, n: Optional[int], k: Optional[int] = None) -> np.ndarray:
    """as_indices(indices) if they are a 1-d array of distinct nonnegative
    rows, each below n unless n is None, of which k can be picked (1 <= k
    <= their count) when k is given; else InvalidInputError. The one copy
    of the pool-index rules: PoolState's transitions and the selectors both
    check their rows here."""
    idx = as_indices(indices)
    if idx.ndim != 1:
        raise InvalidInputError(f"expected a 1-d index array, got shape {idx.shape}")
    ordered = np.sort(idx)  # np.unique would import numpy.ma on first use
    if np.any(ordered[1:] == ordered[:-1]):
        raise InvalidInputError("indices contain duplicates")
    if idx.size and ordered[0] < 0:
        raise InvalidInputError(f"indices must be nonnegative, got {ordered[0]}")
    if n is not None and idx.size and ordered[-1] >= n:
        raise InvalidInputError(f"indices out of range [0, {n})")
    if k is not None and not 1 <= k <= idx.size:
        raise InvalidInputError(f"k={k} out of range for {idx.size} candidates")
    return idx


def as_matrix(x, layout: Optional[ImageLayout] = None) -> np.ndarray:
    """x as a float64 (n, d) matrix, d = layout.flat_dim when a layout is
    given, else InvalidInputError: the one row rule, which Dataset, the
    perturbations, k-center and the wire client share."""
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidInputError(f"expected an (n, d) batch, got shape {X.shape}")
    if layout is not None and layout.flat_dim != X.shape[1]:
        raise InvalidInputError(f"layout {layout} implies {layout.flat_dim} features per row, matrix has {X.shape[1]}")
    return X


class Dataset:
    """Feature matrix (n, d) float64, optional int64 labels, optional layout."""

    __slots__ = ("features", "labels", "layout")

    def __init__(self, features, labels=None, layout: Optional[ImageLayout] = None):
        features = as_matrix(features, layout)
        if not np.all(np.isfinite(features)):
            raise InvalidInputError("features contain non-finite values")
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
        """as_rows(indices, pool rows) if they are nonempty and all in the
        given status, else InvalidInputError."""
        idx = as_rows(indices, self.pool.n)
        if idx.size == 0:
            raise InvalidInputError("expected a nonempty 1-d index array")
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
        return np.flatnonzero(self.status == status).astype(np.int64, copy=False)

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


# The pseudo-label stage's two perturbations, fixed per data layout.
WEAK_SIGMA = 0.05  # tabular weak: jitter
STRONG_SIGMA = 0.2  # tabular strong: jitter, then dropout
STRONG_DROP = 0.1
FLIP_P = 0.5  # image weak: a horizontal flip
EDITS = 2  # image strong: random structural edits
EDIT_MAGNITUDE = 0.3
CUTOUT_FILL = 0.0


def weak_augment(x, layout: Optional[ImageLayout], rng: np.random.Generator) -> np.ndarray:
    """A weakly perturbed copy of an (n, d) batch of flat rows: on tabular
    rows (layout None) one normal of sigma WEAK_SIGMA per value, on images a
    mirror of each row's columns when its uniform is below FLIP_P. Either
    draws one row-major array, so drawing a batch piece by piece from one
    generator gives the values one draw over the whole batch gives."""
    X = as_matrix(x, layout)
    if layout is None:
        return X + rng.normal(0.0, WEAK_SIGMA, size=X.shape)
    n, d = X.shape
    flip = rng.random(n) < FLIP_P
    mirrored = X.reshape(n, layout.height, layout.width, layout.channels)[:, :, ::-1, :]
    return np.where(flip[:, None], mirrored.reshape(n, d), X)


def strong_augment(x, layout: Optional[ImageLayout], rng: np.random.Generator) -> np.ndarray:
    """A strongly perturbed copy of an (n, d) batch of flat rows. Tabular
    rows get a normal of sigma STRONG_SIGMA per value, then each row zeroes
    round(STRONG_DROP * d) coordinates (its smallest uniforms; no uniforms
    are drawn when that is 0). Images get EDITS rounds in which each row
    takes one edit at EDIT_MAGNITUDE: its columns rolled by +-shift, added
    noise, or a square cutout filled with CUTOUT_FILL. Random numbers are
    drawn batch-wise in a fixed order, so a generator state gives exactly
    one outcome."""
    X = as_matrix(x, layout)
    n, d = X.shape
    if layout is None:
        out = X + rng.normal(0.0, STRONG_SIGMA, size=X.shape)
        ndrop = int(round(STRONG_DROP * d))
        if ndrop > 0:
            np.put_along_axis(out, rng.random(X.shape).argsort(axis=1)[:, :ndrop], 0.0, axis=1)
        return out
    h, w = layout.height, layout.width
    imgs = X.reshape(n, h, w, layout.channels).copy()
    shift = int(round(EDIT_MAGNITUDE * w))
    side = int(round(EDIT_MAGNITUDE * min(h, w)))
    for _ in range(EDITS):
        kind = rng.integers(0, 3, size=n)
        # kind 0: roll the columns by +-shift
        roll = np.where(kind == 0, (rng.integers(0, 2, size=n) * 2 - 1) * shift, 0)
        cols = (np.arange(w) - roll[:, None]) % w
        imgs = np.take_along_axis(imgs, cols[:, None, :, None], axis=2)
        # kind 1: additive noise
        noisy = kind == 1
        imgs[noisy] += rng.normal(0.0, EDIT_MAGNITUDE, size=(int(noisy.sum()), *imgs.shape[1:]))
        # kind 2: a side x side square set to CUTOUT_FILL
        top = np.arange(h) - rng.integers(0, h - side + 1, size=n)[:, None]
        left = np.arange(w) - rng.integers(0, w - side + 1, size=n)[:, None]
        box = ((top >= 0) & (top < side))[:, :, None] & ((left >= 0) & (left < side))[:, None, :]
        imgs[box & (kind == 2)[:, None, None]] = CUTOUT_FILL
    return imgs.reshape(n, d)


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
    drives only the sample noise; the class structure is the source's own.
    The noise is drawn as the result and each class's mean or flat template
    is added to its rows in place, so synthesis holds no array beside it."""
    if n < 1:
        raise InvalidInputError("n must be positive")
    rng = np.random.default_rng(mask64(seed))
    if isinstance(source, GaussianMixture):
        centers = mixture_means(source)
        features = rng.standard_normal((n, source.dim))
        layout = None
    elif isinstance(source, TinyDigits):
        centers = _digit_templates(source.height, source.width).reshape(10, -1)
        features = rng.normal(0.0, 0.15, size=(n, centers.shape[1]))
        layout = ImageLayout(source.height, source.width, 1)
    else:
        raise InvalidInputError(f"unknown synthetic source {source!r}")
    classes = centers.shape[0]
    for c in range(classes):
        features[c::classes] += centers[c]  # noise + center has the bits of center + noise
    return Dataset(features, np.arange(n, dtype=np.int64) % classes, layout)


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
