import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ensteal
import oracles
from ensteal.datapool import (
    PSEUDO,
    QUERIED,
    UNLABELED,
    VALIDATION,
    Dataset,
    GaussianMixture,
    ImageLayout,
    PoolState,
    TinyDigits,
    as_indices,
    as_labels,
    initial_split,
    load_dataset,
    make_synthetic,
    mixture_means,
    save_dataset,
    split_budget,
    strip_labels,
    strong_augment,
    weak_augment,
    _digit_templates,
)
from ensteal.errors import InvalidConfigError, InvalidInputError
from ensteal.numkit import MlpModel, MlpSpec, SgdConfig, accuracy, train_supervised
from ensteal.seeding import mask64
from ensteal.selection import kcenter_select, random_select, top_k_select


# ── datasets ─────────────────────────────────────────────────────────


def test_dataset_validation():
    with pytest.raises(InvalidInputError):
        Dataset(np.zeros(5))  # not 2-d
    with pytest.raises(InvalidInputError):
        Dataset(np.full((2, 3), np.nan))
    with pytest.raises(InvalidInputError):
        Dataset(np.zeros((4, 3)), labels=np.zeros(3, dtype=np.int64))
    with pytest.raises(InvalidInputError):
        Dataset(np.zeros((4, 3)), labels=np.array([-1, 0, 0, 0]))
    with pytest.raises(InvalidInputError):
        Dataset(np.zeros((4, 3)), layout=ImageLayout(2, 2, 1))  # 4 != 3


# ── pool state ───────────────────────────────────────────────────────


def make_pool(n=10, d=3):
    return PoolState(Dataset(np.arange(n * d, dtype=np.float64).reshape(n, d)))


def test_pool_requires_unlabeled():
    with pytest.raises(InvalidInputError):
        PoolState(Dataset(np.zeros((3, 2)), labels=np.array([0, 1, 0])))


def test_pool_transitions_and_views():
    ps = make_pool()
    ps.query([4, 1], lambda X: np.array([3, 2]))  # rows 1 and 4, in index order
    assert ps.status[1] == QUERIED and ps.status[4] == QUERIED
    X, y, idx = ps.labeled_data()
    assert np.array_equal(idx, [1, 4])  # ascending order
    assert np.array_equal(y, [3, 2])
    ps.convert_queried_to_validation([1])
    assert ps.status[1] == VALIDATION
    _, yv, iv = ps.validation_data()
    assert iv.tolist() == [1] and yv.tolist() == [3]
    _, y, idx = ps.labeled_data()
    assert idx.tolist() == [4] and y.tolist() == [2]
    ps.mark_pseudo([9, 7], [0, 1])
    assert ps.status[7] == PSEUDO
    Xp, yp, ip = ps.pseudo_data()
    assert ip.tolist() == [7, 9] and yp.tolist() == [1, 0]
    assert np.array_equal(Xp, ps.pool.features[[7, 9]])
    assert np.array_equal(ps.unlabeled_indices(), [0, 2, 3, 5, 6, 8])
    assert ps.counts() == {"unlabeled": 6, "queried": 1, "pseudo": 2, "validation": 1}


def test_pool_query_answers_in_index_order_and_marks_after():
    ps = make_pool()
    calls = []

    def predict_batch(X):
        calls.append(X.copy())
        return X[:, 0].astype(np.int64) // 3  # row i's first feature is 3 i

    assert ps.query([6, 2, 4], predict_batch).tolist() == [2, 4, 6]
    assert len(calls) == 1 and np.array_equal(calls[0], ps.pool.features[[2, 4, 6]])
    _, y, idx = ps.labeled_data()
    assert idx.tolist() == [2, 4, 6] and y.tolist() == [2, 4, 6]

    def failing(X):
        assert ps.counts()["queried"] == 3  # nothing marked before the answer
        raise RuntimeError("oracle down")

    with pytest.raises(RuntimeError):
        ps.query([0, 1], failing)
    with pytest.raises(InvalidInputError):
        ps.query([0, 1], lambda X: np.zeros(1, dtype=np.int64))  # one label short
    with pytest.raises(InvalidInputError):
        ps.query([0, 2], predict_batch)  # 2 already queried: predict_batch not called
    assert len(calls) == 1
    assert ps.counts()["queried"] == 3 and ps.status[0] == ps.status[1] == UNLABELED


def test_pool_rejects_bad_transitions():
    ps = make_pool()

    def ones(X):
        return np.ones(len(X), dtype=np.int64)

    ps.query([0], ones)
    before = ps.status.copy()
    with pytest.raises(InvalidInputError):
        ps.query([0, 2], ones)  # 0 already queried
    assert np.array_equal(ps.status, before)  # nothing partially applied
    assert ps.labeled_data()[2].tolist() == [0]
    with pytest.raises(InvalidInputError):
        ps.query([3, 3], ones)  # duplicates
    with pytest.raises(InvalidInputError):
        ps.query([99], ones)
    with pytest.raises(InvalidInputError):
        ps.convert_queried_to_validation([5])  # not queried
    with pytest.raises(InvalidInputError):
        ps.mark_pseudo([0], [1])  # queried, not unlabeled


def test_pool_transitions_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, which once cost the first
    # query of every run about 20 ms
    code = """
import sys
import numpy as np
from ensteal.datapool import Dataset, PoolState
from ensteal.errors import InvalidInputError
ps = PoolState(Dataset(np.zeros((6, 2))))
ps.query([4, 1, 2], lambda X: np.ones(len(X), dtype=np.int64))
ps.convert_queried_to_validation([2, 1])
ps.mark_pseudo([0, 5], [1, 0])
try:
    ps.mark_pseudo([3, 3], [1, 1])
except InvalidInputError as exc:
    print(exc)
print(ps.status.tolist(), "numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(ensteal.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["indices contain duplicates", "[2, 3, 3, 0, 1, 2] False"]


@pytest.mark.parametrize(
    "labels",
    [[0.7, 2.0], [True, False], [1, -3], np.array([1.0, 2.0])],
    ids=["floats", "bools", "negative", "float_array"],
)
@pytest.mark.parametrize(
    "transition",
    [
        lambda ps, labels: ps.mark_pseudo([0, 1], labels),
        lambda ps, labels: ps.query([0, 1], lambda X: np.asarray(labels)),
    ],
    ids=["mark_pseudo", "query"],
)
def test_pool_rejects_labels_that_are_not_nonnegative_integers(labels, transition):
    # these were truncated or kept as given: [0.7, -3] stored [0, -3]
    ps = make_pool()
    with pytest.raises(InvalidInputError, match="nonnegative integers"):
        transition(ps, labels)
    assert np.all(ps.status == UNLABELED)
    assert not ps.labels.any()


_MODEL = MlpModel.initialize(MlpSpec(2, (3,), 2, "relu", rng_seed=0))
LABEL_TAKERS = {
    "Dataset": lambda y: Dataset(np.zeros((4, 2)), y),
    "train_supervised": lambda y: train_supervised(_MODEL, (np.zeros((4, 2)), y), SgdConfig(base_lr=0.1), 0),
    "accuracy": lambda y: accuracy(_MODEL, np.zeros((4, 2)), y),
    "PoolState.query": lambda y: make_pool().query([0, 1, 2, 3], lambda X: y),
    "as_labels": lambda y: as_labels(y, 4),
}


@pytest.mark.parametrize(
    "labels",
    [
        [True, False, True, False],
        [1.0, 0.0, 1.0, 1.0],
        np.array([0, 1, 1, 0], dtype=np.float32),
        [0, 1, True, 0],
        [0, 1, np.True_, 0],
    ],
    ids=["bools", "integral_floats", "float32_array", "bool_in_int_list", "numpy_bool_in_int_list"],
)
@pytest.mark.parametrize("take", LABEL_TAKERS.values(), ids=LABEL_TAKERS.keys())
def test_labels_must_have_an_integer_dtype(take, labels):
    # bools and integral floats used to pass Dataset and numkit as 1/0 classes;
    # a bool among ints made an int64 array, so [0, 1, True, 0] was taken as [0, 1, 1, 0]
    with pytest.raises(InvalidInputError, match="labels must be (nonnegative )?integers, got "):
        take(labels)
    take(np.asarray(labels).astype(np.int64))  # the same classes as integers are taken


# a uint64 above the int64 maximum used to wrap to a negative number: labels
# [-9223372036854775803, ...] and index -9223372036854775803
_HUGE = np.array([2**63 + 5, 0, 1, 0], dtype=np.uint64)


@pytest.mark.parametrize("take", LABEL_TAKERS.values(), ids=LABEL_TAKERS.keys())
def test_labels_follow_the_integer_rule(take):
    with pytest.raises(InvalidInputError, match="labels must be nonnegative integers, got uint64 value 92233"):
        take(_HUGE)
    take(np.array([1, 0, 1, 0], dtype=np.uint64))  # small unsigned labels are taken
    take([np.int64(1), 0, 1, 0])  # a NumPy integer in a list is an integer, as for indices


def _all_queried(n=10):
    ps = make_pool(n)
    ps.query(np.arange(n), lambda X: np.zeros(len(X), dtype=np.int64))
    return ps


INDEX_TAKERS = {
    "PoolState.query": lambda ix: make_pool().query(ix, lambda X: np.zeros(len(X), dtype=np.int64)),
    "convert_queried_to_validation": lambda ix: _all_queried().convert_queried_to_validation(ix),
    "mark_pseudo": lambda ix: make_pool().mark_pseudo(ix, np.zeros(len(ix), dtype=np.int64)),
    "top_k_select": lambda ix: top_k_select(np.arange(len(ix), dtype=np.float64), ix, 1),
    "kcenter_candidates": lambda ix: kcenter_select(np.zeros((10, 1)), ix, np.zeros(0, dtype=np.int64), 1),
    "kcenter_centers": lambda ix: kcenter_select(np.arange(10.0)[:, None], np.array([0, 9]), ix, 1),
    "random_select": lambda ix: random_select(ix, 1, seed=0),
    "as_indices": as_indices,
}


@pytest.mark.parametrize(
    "indices",
    [[0.7, 2.2], np.array([4.0, 6.0]), ["7", "8"], [True, False], np.array([True, False]), [3, True]],
    ids=["floats", "float_array", "strings", "bools", "bool_array", "bool_in_int_list"],
)
@pytest.mark.parametrize("take", INDEX_TAKERS.values(), ids=INDEX_TAKERS.keys())
def test_indices_must_have_an_integer_dtype(take, indices):
    # np.asarray(..., dtype=np.int64) bought rows 0 and 2 for [0.7, 2.2],
    # rows 7 and 8 for ['7', '8'] and rows 1 and 0 for [True, False]
    with pytest.raises(InvalidInputError, match="indices must be integers, got "):
        take(indices)
    take(np.asarray(indices).astype(np.int64))  # the same rows as integers are taken


@pytest.mark.parametrize("take", INDEX_TAKERS.values(), ids=INDEX_TAKERS.keys())
def test_indices_follow_the_integer_rule(take):
    with pytest.raises(InvalidInputError, match="indices must be integers, got uint64 value 92233"):
        take(_HUGE[:2])
    take([np.int64(3), 1])  # a NumPy integer in a list is an integer, as for labels


def test_a_list_of_mixed_numpy_integers_is_taken_exactly():
    # np.asarray made float64 of a uint64 beside a signed value, so these
    # lists were refused as "got dtype float64"
    assert as_indices([np.uint64(3), np.int64(4)]).tolist() == [3, 4]
    assert as_labels([np.uint64(1), 2], 2).tolist() == [1, 2]
    assert as_indices([np.uint64(2**63 - 1), -(2**63)]).tolist() == [2**63 - 1, -(2**63)]
    for values in ([-1, 2**63 + 5], [np.int64(-1), np.uint64(2**63 + 5)]):
        with pytest.raises(InvalidInputError, match=r"^indices must be integers, got value 9223372036854775813 outside"):
            as_indices(values)
    with pytest.raises(InvalidInputError, match=r"^labels must be nonnegative integers, got value -9223372036854775809 "):
        as_labels([0, -(2**63) - 1], 2)


def test_as_indices_keeps_integers_and_the_empty_message():
    assert as_indices([2, 0]).dtype == np.int64 and as_indices([2, 0]).tolist() == [2, 0]
    assert as_indices(np.array([5, 1], dtype=np.uint8)).tolist() == [5, 1]
    assert as_indices(range(3)).tolist() == [0, 1, 2]
    assert as_indices([]).dtype == as_indices(()).dtype == np.int64
    with pytest.raises(InvalidInputError, match="got float64 in a list"):
        as_indices([np.float64(1.0)])
    with pytest.raises(InvalidInputError, match="expected a nonempty 1-d index array"):
        make_pool().query([], lambda X: np.zeros(0, dtype=np.int64))


# ── augmentation ─────────────────────────────────────────────────────


AUGMENT_CASES = [
    (None, (7, 12)),
    (None, (1, 30)),
    (None, (40, 8)),
    (None, (4, 5)),  # round(0.1 * 5) is 0: no coordinate dropped
    (ImageLayout(6, 6, 1), (9, 36)),
    (ImageLayout(10, 6, 1), (25, 60)),
    (ImageLayout(3, 2, 1), (12, 6)),
    (ImageLayout(5, 4, 3), (8, 60)),
    (ImageLayout(4, 4, 3), (1, 48)),
]


@pytest.mark.parametrize(
    "augment, replay", [(weak_augment, oracles.replay_weak_draw), (strong_augment, oracles.replay_strong_draw)]
)
@pytest.mark.parametrize("layout, shape", AUGMENT_CASES)
def test_augment_matches_its_row_by_row_replay(augment, replay, layout, shape):
    # the batch draw equals the oracle's row-by-row one value for value, and
    # leaves the generator where the oracle's draws leave it
    changed = 0
    for seed in range(6):
        X = np.random.default_rng(100 + seed).normal(size=shape)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        out = augment(X, layout, rng)
        assert np.array_equal(out, replay(X, layout, ref)), seed
        assert rng.bit_generator.state == ref.bit_generator.state
        changed += not np.array_equal(out, X)
    assert changed  # not vacuous: some draw perturbs the batch


@pytest.mark.parametrize("augment", [weak_augment, strong_augment])
def test_augment_refuses_a_row_that_is_not_a_batch(augment):
    with pytest.raises(InvalidInputError, match="batch"):
        augment(np.arange(6.0), ImageLayout(2, 3, 1), np.random.default_rng(0))
    with pytest.raises(InvalidInputError, match="batch"):
        augment(np.arange(6.0), None, np.random.default_rng(0))
    # a row as wide as no image of the layout raised numpy's reshape ValueError
    with pytest.raises(InvalidInputError, match=r"implies 4 features per row, matrix has 5$"):
        augment(np.zeros((2, 5)), ImageLayout(2, 2, 1), np.random.default_rng(0))


def test_weak_flip_mirrors_width():
    layout = ImageLayout(2, 3, 1)
    img = np.arange(6.0)
    mirrored = np.array([2.0, 1, 0, 5, 4, 3])
    out = weak_augment(np.tile(img, (40, 1)), layout, np.random.default_rng(0))
    flipped = [np.array_equal(r, mirrored) for r in out]
    assert all(f or np.array_equal(r, img) for f, r in zip(flipped, out))
    assert 0 < sum(flipped) < len(out)  # each row draws its own flip


def test_weak_jitter_statistics_and_draws_only_the_noise():
    # one normal per coordinate and no uniforms, so the generator ends where
    # the normals alone leave it
    out = weak_augment(np.zeros((1, 2000)), None, np.random.default_rng(1))
    assert abs(out.std() - 0.05) < 0.005
    x = np.arange(12.0).reshape(3, 4)
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    assert np.array_equal(weak_augment(x, None, rng), x + ref.normal(0.0, 0.05, size=x.shape))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_strong_jitter_drop_zeroes_coords(rng):
    out = strong_augment(np.full((1, 100), 7.0), None, rng)
    assert (out == 0.0).sum() == 10
    # every row of a batch loses exactly round(0.1 * d) coordinates
    batch = strong_augment(np.full((6, 30), 7.0), None, rng)
    assert np.array_equal((batch == 0.0).sum(axis=1), [3] * 6)
    assert len({tuple(np.flatnonzero(r == 0.0)) for r in batch}) > 1  # rows draw their own coords


def test_strong_edits_perturb_rows_independently():
    layout = ImageLayout(6, 6, 1)
    batch = np.tile(np.arange(1.0, 37.0), (60, 1))
    a = strong_augment(batch, layout, np.random.default_rng(3))
    b = strong_augment(batch, layout, np.random.default_rng(3))
    assert a.shape == batch.shape and np.array_equal(a, b)
    assert len({r.tobytes() for r in a}) > 1
    assert (a == 0.0).any()  # a cutout fills with 0.0, a value no input row holds


# ── synthetic sources ────────────────────────────────────────────────


def test_mixture_world_is_shared_across_draws():
    src = GaussianMixture(4, 6, 5.0)
    a = make_synthetic(src, 200, seed=1)
    b = make_synthetic(src, 200, seed=2)
    assert not np.array_equal(a.features, b.features)  # different samples
    # same class means underneath: per-class sample means land close together
    for c in range(4):
        ma = a.features[a.labels == c].mean(axis=0)
        mb = b.features[b.labels == c].mean(axis=0)
        assert np.linalg.norm(ma - mb) < 1.0


def test_mixture_separation_is_exact():
    means = mixture_means(GaussianMixture(5, 7, 3.25))
    dists = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
    np.fill_diagonal(dists, np.inf)
    assert dists.min() == pytest.approx(3.25, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_mixture_rejects_bad_separation(bad):
    with pytest.raises(InvalidConfigError, match="separation"):
        GaussianMixture(3, 4, bad)


def test_mixture_labels_cycle():
    data = make_synthetic(GaussianMixture(3, 4, 2.0), 10, seed=0)
    assert np.array_equal(data.labels, [0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
    assert data.layout is None


def test_tiny_digits_shapes_and_layout():
    data = make_synthetic(TinyDigits(10, 6), 25, seed=3)
    assert data.features.shape == (25, 60)
    assert data.layout == ImageLayout(10, 6, 1)
    assert np.array_equal(np.unique(data.labels), np.arange(10))
    # glyphs differ between classes
    d0 = data.features[data.labels == 0].mean(axis=0)
    d1 = data.features[data.labels == 1].mean(axis=0)
    assert np.linalg.norm(d0 - d1) > 1.0


def test_make_synthetic_deterministic():
    src = GaussianMixture(3, 5, 4.0)
    a = make_synthetic(src, 50, seed=9)
    b = make_synthetic(src, 50, seed=9)
    assert np.array_equal(a.features, b.features)


def _synthetic_by_gather(source, n: int, seed: int) -> np.ndarray:
    """make_synthetic's features as a gather of each row's class center plus
    a separate noise array: the form it had before it wrote in place."""
    rng = np.random.default_rng(mask64(seed))
    if isinstance(source, GaussianMixture):
        labels = np.arange(n, dtype=np.int64) % source.classes
        return mixture_means(source)[labels] + rng.standard_normal((n, source.dim))
    labels = np.arange(n, dtype=np.int64) % 10
    flat = _digit_templates(source.height, source.width)[labels].reshape(n, -1)
    return flat + rng.normal(0.0, 0.15, size=flat.shape)


@pytest.mark.parametrize("source", [GaussianMixture(4, 6, 5.0), TinyDigits(10, 6), TinyDigits(7, 4)])
@pytest.mark.parametrize("n", [1, 3, 13, 40, 1001])  # one row, fewer than the classes, no multiple, a multiple
@pytest.mark.bitwise
def test_make_synthetic_bitwise_matches_the_gathered_form(source, n):
    data = make_synthetic(source, n, seed=n)
    want = _synthetic_by_gather(source, n, seed=n)
    assert data.features.shape == want.shape
    assert data.features.tobytes() == want.tobytes()
    assert np.array_equal(data.labels, np.arange(n) % source.num_classes)


@pytest.mark.parametrize("source, n", [(TinyDigits(10, 6), 12_000), (GaussianMixture(4, 8, 4.5), 20_000)])
def test_make_synthetic_holds_its_output_and_under_1_mb(source, n):
    # the noise is drawn as the result and the centers added in place: no
    # gathered centers or separate noise array beside the features
    tracemalloc.start()
    try:
        data = make_synthetic(source, n, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < data.features.nbytes + 2**20, peak


def test_strip_labels():
    data = make_synthetic(GaussianMixture(3, 4, 2.0), 9, seed=0)
    bare = strip_labels(data)
    assert bare.labels is None and np.array_equal(bare.features, data.features)


# ── split arithmetic ─────────────────────────────────────────────────


def test_initial_split_sizes_and_disjointness():
    val, q0 = initial_split(1000, 60, 54, seed=4)
    assert val.size == 60 and q0.size == 54
    assert val.dtype == q0.dtype == np.int64
    assert np.intersect1d(val, q0).size == 0
    assert np.all(np.diff(val) > 0) and np.all(np.diff(q0) > 0)
    v2, q2 = initial_split(1000, 60, 54, seed=4)
    assert np.array_equal(val, v2) and np.array_equal(q0, q2)
    # one draw of validation + first rows, cut after the validation rows
    _, q_alone = initial_split(1000, 0, 114, seed=4)
    assert np.array_equal(np.sort(np.concatenate([val, q0])), q_alone)


def test_initial_split_validation():
    with pytest.raises(InvalidInputError, match="pool is empty"):
        initial_split(0, 0, 1)
    with pytest.raises(InvalidInputError, match="pool smaller than the initial draw"):
        initial_split(10, 6, 5)
    assert initial_split(10, 6, 4)[1].size == 4  # the whole pool is drawn


def test_split_budget_remainder():
    assert split_budget(600, 10, 0.1) == (60, [54] * 10)
    assert split_budget(100, 3, 0.1) == (10, [30, 30, 30])
    assert split_budget(103, 3, 0.0) == (0, [34, 34, 35])
    with pytest.raises(InvalidConfigError, match="query budget must be positive"):
        split_budget(0, 3, 0.1)
    with pytest.raises(InvalidConfigError, match="cycles must be positive"):
        split_budget(10, 0, 0.1)
    with pytest.raises(InvalidConfigError, match="validation fraction must lie in"):
        split_budget(10, 1, 1.0)
    with pytest.raises(InvalidConfigError, match="budget 10 too small for 20 cycles after 1 validation"):
        split_budget(10, 20, 0.1)  # empty per-cycle batch


# ── dataset files ────────────────────────────────────────────────────


def test_dataset_file_roundtrip(tmp_path):
    data = make_synthetic(TinyDigits(6, 4), 30, seed=8)
    path = tmp_path / "d.aotd"
    save_dataset(data, path)
    back = load_dataset(path)
    assert back.n == 30 and back.dim == 24
    assert back.layout == data.layout
    assert np.array_equal(back.labels, data.labels)
    # features stored as f32: equal after the same quantization
    assert np.array_equal(back.features, data.features.astype(np.float32).astype(np.float64))
    # identical bytes on rewrite
    path2 = tmp_path / "d2.aotd"
    save_dataset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_file_unlabeled_tabular(tmp_path):
    data = strip_labels(make_synthetic(GaussianMixture(3, 5, 4.0), 12, seed=1))
    path = tmp_path / "u.aotd"
    save_dataset(data, path)
    back = load_dataset(path)
    assert back.labels is None and back.layout is None and back.n == 12


def test_dataset_file_rejects_garbage(tmp_path):
    p = tmp_path / "junk.aotd"
    p.write_bytes(b"WHAT" + b"\x00" * 30)
    with pytest.raises(InvalidInputError):
        load_dataset(p)
    p.write_bytes(b"AOTD\x01\x00\x00\x00")
    with pytest.raises(InvalidInputError):
        load_dataset(p)


@pytest.mark.parametrize(
    "offset, fmt, values, error",
    [
        # the image layout follows the 16-byte header and the layout flag
        (17, "<III", (0, 4, 1), "bad dataset header: image layout must be positive"),
        (17, "<III", (5, 0, 1), "bad dataset header: image layout must be positive"),
        (17, "<III", (5, 4, 0), "bad dataset header: image layout must be positive"),
        (0, "<4s", (b"WHAT",), "bad dataset magic b'WHAT'"),
        (4, "<I", (9,), "unsupported dataset version 9"),
        (16, "<B", (2,), "unknown layout flag 2"),
    ],
)
def test_a_bad_dataset_header_is_not_called_truncated(tmp_path, offset, fmt, values, error):
    # each was reported as "truncated dataset file: ..."
    path = tmp_path / "d.aotd"
    save_dataset(make_synthetic(TinyDigits(5, 4), 3, seed=1), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, offset, *values)
    path.write_bytes(bytes(blob))
    with pytest.raises(InvalidInputError, match=f"^{re.escape(error)}"):
        load_dataset(path)


@pytest.mark.parametrize("labeled", [True, False])
def test_dataset_file_rejects_a_length_its_header_does_not_imply(tmp_path, labeled):
    data = make_synthetic(GaussianMixture(3, 5, 4.0), 5, seed=1)
    path = tmp_path / "d.aotd"
    save_dataset(data if labeled else strip_labels(data), path)
    blob = path.read_bytes()
    for bad in (blob + b"garbage!", blob + b"\x00", blob[:-1]):
        path.write_bytes(bad)
        with pytest.raises(InvalidInputError):
            load_dataset(path)
