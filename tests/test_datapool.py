import numpy as np
import pytest

import oracles
from ensteal.datapool import (
    PSEUDO,
    QUERIED,
    UNLABELED,
    VALIDATION,
    AugmentConfig,
    Dataset,
    GaussianJitter,
    GaussianMixture,
    HorizontalFlip,
    ImageLayout,
    JitterDrop,
    PoolState,
    RandLite,
    TinyDigits,
    apply_transform,
    initial_split,
    load_dataset,
    make_synthetic,
    mixture_means,
    per_cycle_batches,
    save_dataset,
    strip_labels,
    weak_augment,
)
from ensteal.errors import InvalidConfigError, InvalidInputError
from ensteal.numkit import MlpModel, MlpSpec, SgdConfig, accuracy, train_supervised


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
    "PoolState.query": lambda y: make_pool().query([0, 1, 2, 3], lambda X: np.asarray(y)),
}


@pytest.mark.parametrize(
    "labels",
    [[True, False, True, False], [1.0, 0.0, 1.0, 1.0], np.array([0, 1, 1, 0], dtype=np.float32)],
    ids=["bools", "integral_floats", "float32_array"],
)
@pytest.mark.parametrize("take", LABEL_TAKERS.values(), ids=LABEL_TAKERS.keys())
def test_labels_must_have_an_integer_dtype(take, labels):
    # bools and integral floats used to pass Dataset and numkit as 1/0 classes
    with pytest.raises(InvalidInputError, match="labels must be (nonnegative )?integers, got dtype"):
        take(labels)
    take(np.asarray(labels).astype(np.int64))  # the same classes as integers are taken


# ── augmentation ─────────────────────────────────────────────────────


def test_transform_validation():
    with pytest.raises(InvalidConfigError):
        HorizontalFlip(p=1.5)
    with pytest.raises(InvalidConfigError):
        GaussianJitter(-0.1)
    with pytest.raises(InvalidConfigError):
        RandLite(n_ops=0)
    with pytest.raises(InvalidConfigError):
        JitterDrop(0.1, drop_frac=2.0)
    with pytest.raises(InvalidConfigError):
        AugmentConfig(weak=GaussianJitter(0.5), strong=GaussianJitter(0.1))


def test_hflip_mirrors_width():
    layout = ImageLayout(2, 3, 1)
    img = np.arange(6.0)[None, :]
    out = apply_transform(img, HorizontalFlip(p=1.0), layout, np.random.default_rng(0))
    assert np.array_equal(out.reshape(2, 3), [[2, 1, 0], [5, 4, 3]])
    # p=0 never flips
    same = apply_transform(img, HorizontalFlip(p=0.0), layout, np.random.default_rng(0))
    assert np.array_equal(same, img)
    with pytest.raises(InvalidInputError):
        apply_transform(img, HorizontalFlip(p=1.0), None, np.random.default_rng(0))
    with pytest.raises(InvalidInputError, match="batch"):
        apply_transform(img[0], HorizontalFlip(p=1.0), layout, np.random.default_rng(0))
    # a batch flips row by row, as the filter oracle replays the draw
    batch = np.concatenate([img, img + 10.0, -img])
    both = apply_transform(batch[:2], HorizontalFlip(p=1.0), layout, np.random.default_rng(0))
    assert np.array_equal(both, np.concatenate([out, out + 10.0]))
    for seed in range(8):
        rows = apply_transform(batch, HorizontalFlip(p=0.5), layout, np.random.default_rng(seed))
        ref = oracles.replay_weak_draw(batch, HorizontalFlip(p=0.5), layout, np.random.default_rng(seed))
        assert np.array_equal(rows, ref)


def test_jitter_statistics_and_identity(rng):
    x = np.zeros((1, 2000))
    out = apply_transform(x, GaussianJitter(0.5), None, rng)
    assert abs(out.std() - 0.5) < 0.05
    same = apply_transform(x, GaussianJitter(0.0), None, rng)
    assert np.array_equal(same, x) and same is not x


def test_jitter_drop_zeroes_coords(rng):
    x = np.full((1, 100), 7.0)
    out = apply_transform(x, JitterDrop(sigma=0.01, drop_frac=0.25), None, rng)
    assert (out == 0.0).sum() == 25
    # every row of a batch loses exactly round(frac * d) coordinates
    batch = apply_transform(np.full((6, 30), 7.0), JitterDrop(sigma=0.01, drop_frac=0.1), None, rng)
    assert np.array_equal((batch == 0.0).sum(axis=1), [3] * 6)
    assert len({tuple(np.flatnonzero(r == 0.0)) for r in batch}) > 1  # rows draw their own coords
    # the filter oracle zeroes the same coordinates: each row's smallest uniforms
    op, X = JitterDrop(sigma=0.01, drop_frac=0.25), np.full((5, 12), 7.0)
    for seed in range(3):
        got = apply_transform(X, op, None, np.random.default_rng(seed))
        assert np.array_equal(got, oracles.replay_weak_draw(X, op, None, np.random.default_rng(seed)))


def test_rand_lite_identity_at_zero_magnitude():
    layout = ImageLayout(4, 4, 1)
    x = np.arange(16.0)
    out = apply_transform(x[None, :], RandLite(n_ops=3, magnitude=0.0), layout, np.random.default_rng(5))
    assert np.array_equal(out[0], x)
    batch = np.stack([x, -x, x * 2.0])
    out = apply_transform(batch, RandLite(n_ops=3, magnitude=0.0), layout, np.random.default_rng(5))
    assert np.array_equal(out, batch)


def test_rand_lite_perturbs(rng):
    layout = ImageLayout(6, 6, 1)
    x = np.arange(36.0)
    outs = [apply_transform(x[None, :], RandLite(2, 0.4), layout, np.random.default_rng(s)) for s in range(8)]
    assert any(not np.array_equal(o[0], x) for o in outs)
    # deterministic per generator state
    a = apply_transform(x[None, :], RandLite(2, 0.4), layout, np.random.default_rng(3))
    b = apply_transform(x[None, :], RandLite(2, 0.4), layout, np.random.default_rng(3))
    assert np.array_equal(a, b)
    # a batch is deterministic per generator state too, and perturbs its rows independently
    batch = np.tile(x, (12, 1))
    a = apply_transform(batch, RandLite(2, 0.4), layout, np.random.default_rng(3))
    b = apply_transform(batch, RandLite(2, 0.4), layout, np.random.default_rng(3))
    assert a.shape == batch.shape and np.array_equal(a, b)
    assert len({r.tobytes() for r in a}) > 1
    # with one op, each row is exactly one of: its columns rolled by 3, a
    # 3x3 square set to the dataset mean, or a noisy copy
    out = apply_transform(np.tile(x, (60, 1)), RandLite(1, 0.5, dataset_mean=-1.0), layout, rng)
    rolled_x = np.roll(x.reshape(6, 6), 3, axis=1).ravel()
    kinds = []
    for r in out:
        filled = r == -1.0
        if np.array_equal(r, rolled_x):
            kinds.append("roll")
        elif filled.sum() == 9 and np.array_equal(r[~filled], x[~filled]):
            kinds.append("square")
        else:
            assert not filled.any() and np.all(r != x), "row matches no RandLite op"
            kinds.append("noise")
    assert set(kinds) == {"roll", "square", "noise"}


def test_weak_augment_uses_config():
    cfg = AugmentConfig(weak=GaussianJitter(0.1), strong=JitterDrop(0.5, 0.2), rng_seed=4)
    x = np.zeros((1, 10))
    out = weak_augment(x, cfg, None, np.random.default_rng(2))
    ref = np.random.default_rng(2).normal(0.0, 0.1, (1, 10))
    assert np.array_equal(out, ref)


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


def test_strip_labels():
    data = make_synthetic(GaussianMixture(3, 4, 2.0), 9, seed=0)
    bare = strip_labels(data)
    assert bare.labels is None and np.array_equal(bare.features, data.features)


# ── split arithmetic ─────────────────────────────────────────────────


def test_initial_split_sizes_and_disjointness():
    val, q0 = initial_split(1000, 600, 10, 0.1, seed=4)
    assert val.size == 60 and q0.size == 54
    assert np.intersect1d(val, q0).size == 0
    assert np.all(np.diff(val) > 0) and np.all(np.diff(q0) > 0)
    v2, q2 = initial_split(1000, 600, 10, 0.1, seed=4)
    assert np.array_equal(val, v2) and np.array_equal(q0, q2)


def test_initial_split_validation():
    with pytest.raises(InvalidConfigError):
        initial_split(100, 0, 3)
    with pytest.raises(InvalidConfigError):
        initial_split(100, 10, 20)  # empty per-cycle batch
    with pytest.raises(InvalidInputError):
        initial_split(10, 600, 2, 0.1)  # pool too small


def test_per_cycle_batches_remainder():
    sizes = per_cycle_batches(600, 10, 0.1)
    assert sizes == [54] * 10
    sizes = per_cycle_batches(100, 3, 0.1)
    assert sizes == [30, 30, 30] and sum(sizes) == 90
    sizes = per_cycle_batches(103, 3, 0.0)
    assert sizes == [34, 34, 35] and sum(sizes) == 103


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
