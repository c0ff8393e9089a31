import copy
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import committee_probs, make_sharp_models, record_offers, verdicts_as_oracle_shapes
from ensteal.datapool import (
    AugmentConfig,
    Dataset,
    GaussianMixture,
    HorizontalFlip,
    ImageLayout,
    JitterDrop,
    PoolState,
    RandLite,
    make_synthetic,
    strip_labels,
    strong_augment,
)
from ensteal.ensemble import MEMBER_DTYPE, EnsembleRecipe, EnsembleState, train_cycle
from ensteal import numkit, semisup
from ensteal.errors import InvalidConfigError, InvalidInputError, TrainingDivergedError
from ensteal.numkit import accuracy, sgd_update
from ensteal.seeding import derive_seed, mask64
from ensteal.semisup import (
    SLICE_ROWS,
    SslConfig,
    apply_class_cap,
    harvest_pseudo_labels,
    ssl_filter,
    ssl_train,
)
from oracles import class_cap_bruteforce, loss_grad_float32, ssl_filter_bruteforce


def tabular_aug(seed=0):
    return AugmentConfig(weak=JitterDrop(0.05, 0.0), strong=JitterDrop(0.2, 0.1), rng_seed=seed)


def test_ssl_config_validation():
    with pytest.raises(InvalidConfigError):
        SslConfig(confidence_threshold=0.0)
    with pytest.raises(InvalidConfigError):
        SslConfig(max_label_changes=-1)
    with pytest.raises(InvalidConfigError):
        SslConfig(per_class_cap=0)
    with pytest.raises(InvalidConfigError):
        SslConfig(pseudo_loss_weight=-0.5)
    with pytest.raises(InvalidConfigError):
        SslConfig(lr=0.0)


def test_ssl_defaults():
    cfg = SslConfig()
    assert cfg.confidence_threshold == 0.9
    assert cfg.max_label_changes == 1
    assert cfg.per_class_cap == 100
    assert cfg.pseudo_loss_weight == 1.0
    assert cfg.lr == 0.002


# ── the filter vs its oracle ─────────────────────────────────────────


def test_filter_matches_bruteforce_bitwise(rng):
    # the acceptance suite hammers this at scale; here a quick spot check
    # across layouts of queried/unlabeled rows, with jitter and with a flip
    # of the image rows as the weak perturbation
    flips = 0
    for trial in range(20):
        n = int(rng.integers(30, 80))
        layout = ImageLayout(2, int(rng.integers(2, 5)))
        d = layout.flat_dim
        models = make_sharp_models(5, dim=d, classes=4, seed=trial)
        ps = PoolState(Dataset(rng.normal(size=(n, d)), layout=layout))
        pre = rng.choice(n, size=int(rng.integers(0, n // 3 + 1)), replace=False)
        if pre.size:
            ps.query(pre, lambda X: np.zeros(len(X), dtype=np.int64))
        probs = committee_probs(models, ps.pool.features)
        for weak in (JitterDrop(0.05, 0.0), HorizontalFlip(0.5)):
            aug = AugmentConfig(weak=weak, strong=JitterDrop(0.2, 0.1), rng_seed=trial)
            cfg = SslConfig(confidence_threshold=0.6)
            v = ssl_filter(models, probs, ps, cfg, aug, seed=trial * 13)
            sel, audit = verdicts_as_oracle_shapes(v)
            sel_ref, audit_ref = ssl_filter_bruteforce(models, ps, cfg, aug, seed=trial * 13)
            assert sel == sel_ref, f"trial {trial} {weak}"
            # every row's (changes, unanimous, min confidence); the confidences
            # are positive floats, so == compares them bit for bit
            assert audit == audit_ref, f"trial {trial} {weak}"
            flips += int(v.changes.sum()) if isinstance(weak, HorizontalFlip) else 0
    assert flips > 0  # the mirrored images flip some labels


def queried_pool(rng, n, unlabeled, layout):
    """A PoolState over n random image rows of which a random unlabeled are
    left unlabeled, the rest queried."""
    ps = PoolState(Dataset(rng.normal(size=(n, layout.flat_dim)), layout=layout))
    ps.query(rng.choice(n, size=n - unlabeled, replace=False), lambda X: np.zeros(len(X), dtype=np.int64))
    return ps


@pytest.mark.parametrize(
    "unlabeled, slices",
    [
        (numkit.BLOCK_ROWS - 1, [numkit.BLOCK_ROWS - 1]),  # one short slice: the whole set
        (2 * SLICE_ROWS, [SLICE_ROWS, SLICE_ROWS]),  # an exact multiple
        (2 * SLICE_ROWS + numkit.BLOCK_ROWS - 1, [SLICE_ROWS, SLICE_ROWS + numkit.BLOCK_ROWS - 1]),  # the tail merges
        (SLICE_ROWS + numkit.BLOCK_ROWS, [SLICE_ROWS, numkit.BLOCK_ROWS]),  # a tail long enough stands alone
    ],
)
@pytest.mark.parametrize("weak", [JitterDrop(0.05, 0.0), HorizontalFlip(0.5)])
def test_streamed_filter_matches_bruteforce_bitwise(rng, monkeypatch, unlabeled, slices, weak):
    # pools of several slices: the verdicts equal the oracle's, which draws
    # the perturbation once over the whole pool and runs each member once
    layout = ImageLayout(3, 2)
    models = make_sharp_models(3, dim=layout.flat_dim, classes=3, seed=unlabeled)
    ps = queried_pool(rng, unlabeled + 300, unlabeled, layout)
    probs = committee_probs(models, ps.pool.features)
    aug = AugmentConfig(weak=weak, strong=JitterDrop(0.2, 0.1), rng_seed=5)
    cfg = SslConfig(confidence_threshold=0.6)
    labeled, drawn = [], []
    real_predict, real_augment = numkit.predict_batch, semisup.weak_augment
    monkeypatch.setattr(numkit, "predict_batch", lambda m, X, *a: labeled.append(len(X)) or real_predict(m, X, *a))
    monkeypatch.setattr(semisup, "weak_augment", lambda X, *a: drawn.append(len(X)) or real_augment(X, *a))
    v = ssl_filter(models, probs, ps, cfg, aug, seed=21)
    assert labeled == [size for size in slices for _ in models]
    # each pool row through the last unlabeled one is drawn once, in order
    assert len(drawn) == len(slices) and sum(drawn) == ps.unlabeled_indices()[-1] + 1
    sel, audit = verdicts_as_oracle_shapes(v)
    sel_ref, audit_ref = ssl_filter_bruteforce(models, ps, cfg, aug, seed=21)
    assert sel == sel_ref
    assert audit == audit_ref
    assert v.changes.any() and v.accepted.any()  # the check is not vacuous


@pytest.mark.parametrize("weak", [JitterDrop(0.3, 0.0), HorizontalFlip(0.5)])
def test_filter_verdicts_do_not_depend_on_the_unlabeled_set(rng, weak):
    # one pool, two pool states: the second has more rows queried; a row
    # unlabeled in both gets the same perturbation, so the same verdict; the
    # pool spans several slices, whose bounds differ between the two states
    n = 3 * SLICE_ROWS
    models = make_sharp_models(5, dim=6, classes=4, seed=3)
    pool = Dataset(rng.normal(size=(n, 6)), layout=ImageLayout(3, 2))
    fewer, more = PoolState(pool), PoolState(pool)
    first = rng.choice(n, size=200, replace=False)
    extra = rng.choice(np.setdiff1d(np.arange(n), first), size=400, replace=False)
    fewer.query(first, lambda X: np.zeros(len(X), dtype=np.int64))
    more.query(np.union1d(first, extra), lambda X: np.zeros(len(X), dtype=np.int64))
    aug = AugmentConfig(weak=weak, strong=JitterDrop(0.5, 0.1), rng_seed=9)
    cfg = SslConfig(confidence_threshold=0.6)
    probs = committee_probs(models, pool.features)
    a = ssl_filter(models, probs, fewer, cfg, aug, seed=17)
    b = ssl_filter(models, probs, more, cfg, aug, seed=17)
    both = np.intersect1d(a.rows, b.rows)
    assert both.size == n - 600
    ia, ib = np.searchsorted(a.rows, both), np.searchsorted(b.rows, both)
    for field in ("labels", "changes", "unanimous", "min_confidence", "accepted"):
        assert np.array_equal(getattr(a, field)[ia], getattr(b, field)[ib]), field
    assert a.changes[ia].any() and a.accepted[ia].any()  # the check is not vacuous


def filter_peak(rng, n) -> int:
    """Bytes ssl_filter allocates at its peak above what was traced before
    it, on n image rows of 128 values with a quarter of them queried."""
    layout = ImageLayout(16, 8)
    models = make_sharp_models(3, dim=layout.flat_dim, classes=4, seed=0)
    ps = queried_pool(rng, n, 3 * n // 4, layout)
    probs = committee_probs(models, ps.pool.features)
    aug = AugmentConfig(weak=HorizontalFlip(0.5), strong=JitterDrop(0.2, 0.1), rng_seed=1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ssl_filter(models, probs, ps, SslConfig(), aug, seed=2)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_filter_memory_does_not_grow_with_the_pool(rng):
    # the filter holds its verdicts, a few bytes per unlabeled row, but
    # perturbs and labels a bounded slice at a time: a pool 4x larger raises
    # its peak by less than one float64 copy of the small pool's features
    small = 2 * SLICE_ROWS
    grown = filter_peak(rng, 4 * small) - filter_peak(rng, small)
    assert grown < small * 128 * 8, grown


@pytest.mark.parametrize("weak", [RandLite(2, 0.3), JitterDrop(0.05, 0.25), JitterDrop(0.05, 0.01)])
def test_augment_config_refuses_a_weak_transform_other_than_flip_or_plain_jitter(weak):
    # the filter draws the weak perturbation slice by slice, which equals one
    # whole-pool draw only for transforms drawing one row-major array
    with pytest.raises(InvalidConfigError, match="weak perturbation must be a flip or plain jitter"):
        AugmentConfig(weak=weak, strong=JitterDrop(0.5, 0.1))


def capped_map(rows, labels, confidence, cap):
    rows, labels = apply_class_cap(np.array(rows), np.array(labels), np.array(confidence), cap)
    assert rows.dtype == labels.dtype == np.int64
    return dict(zip(rows.tolist(), labels.tolist()))


def test_filter_threshold_is_inclusive():
    # fabricate an audit boundary: a row whose min confidence equals the
    # threshold exactly must pass the confidence leg
    assert capped_map([3, 7], [1, 1], [0.9, 0.95], cap=1) == {7: 1}  # higher confidence wins the single slot


def test_filter_empty_pool():
    models = make_sharp_models(3, dim=4, classes=3, seed=0)
    ps = PoolState(Dataset(np.zeros((3, 4))))
    ps.query([0, 1, 2], lambda X: np.arange(3))
    probs = committee_probs(models, ps.pool.features)
    v = ssl_filter(models, probs, ps, SslConfig(), tabular_aug(), seed=0)
    assert all(a.shape == (0,) for a in v)
    assert verdicts_as_oracle_shapes(v) == ({}, {})


def test_class_cap_ordering_and_ties():
    # rows 1 and 2 tie at 0.99: the lower row goes first
    capped = capped_map(range(6), [0] * 6, [0.97, 0.99, 0.99, 0.91, 0.93, 0.95], cap=3)
    assert capped == {0: 0, 1: 0, 2: 0}
    assert list(capped) == sorted(capped)
    assert capped_map([2, 1, 0], [0, 0, 0], [0.99, 0.99, 0.5], cap=1) == {1: 0}


def test_class_cap_is_per_class():
    capped = capped_map(range(5), [0, 0, 1, 1, 1], [0.9 + 0.01 * i for i in range(5)], cap=2)
    assert sum(1 for v in capped.values() if v == 0) == 2
    assert sum(1 for v in capped.values() if v == 1) == 2
    assert 2 not in capped  # lowest-confidence class-1 row dropped


@hst.composite
def cap_instances(draw):
    rows = draw(hst.lists(hst.integers(0, 2**40), unique=True, max_size=40))  # in any order
    n = len(rows)
    labels = draw(hst.lists(hst.integers(0, 4), min_size=n, max_size=n))
    levels = hst.sampled_from([0.25, 0.5, 0.9, 1.0])  # a few values, so many exact ties
    conf = draw(hst.lists(levels | hst.floats(0.0, 1.0), min_size=n, max_size=n))
    return rows, labels, conf, draw(hst.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(cap_instances())
def test_class_cap_matches_the_per_class_reference(instance):
    rows, labels, conf, cap = instance
    got_rows, got_labels = apply_class_cap(
        np.array(rows, dtype=np.int64), np.array(labels, dtype=np.int64), np.array(conf), cap
    )
    assert (got_rows.tolist(), got_labels.tolist()) == class_cap_bruteforce(rows, labels, conf, cap)


def test_harvest_marks_pool(rng):
    # five copies of one model agree on every row, so rows pass and the cap bites
    models = [m.copy() for m in make_sharp_models(1, dim=5, classes=3, seed=4) * 5]
    ps = PoolState(Dataset(rng.normal(size=(60, 5))))
    cfg = SslConfig(confidence_threshold=0.5, per_class_cap=4)
    probs = committee_probs(models, ps.pool.features)
    rows, labels, verdicts = harvest_pseudo_labels(models, probs, ps, cfg, tabular_aug(), seed=1)
    assert len(verdicts.rows) == 60
    assert ps.counts()["pseudo"] == rows.size
    _, yp, ip = ps.pseudo_data()
    assert np.array_equal(ip, rows) and np.array_equal(yp, labels)
    assert rows.size and np.bincount(labels).max() <= 4
    ok = verdicts.accepted
    assert (rows.tolist(), labels.tolist()) == class_cap_bruteforce(
        verdicts.rows[ok], verdicts.labels[ok], verdicts.min_confidence[ok], 4
    )


def test_harvest_runs_the_models_only_on_the_perturbed_rows(rng, monkeypatch):
    # the clean labels and confidences come from the committee's pool pass
    models = make_sharp_models(5, dim=5, classes=3, seed=4)
    ps = PoolState(Dataset(rng.normal(size=(60, 5))))
    ps.query(range(0, 60, 3), lambda X: np.zeros(len(X), dtype=np.int64))
    probs = committee_probs(models, ps.pool.features)
    Xu = ps.pool.features[ps.unlabeled_indices()]
    seen = []
    real = numkit.probs_batch
    monkeypatch.setattr(numkit, "probs_batch", lambda m, X, *rest: seen.append((m, X)) or real(m, X, *rest))
    cfg = SslConfig(confidence_threshold=0.5)
    harvest_pseudo_labels(models, probs, ps, cfg, tabular_aug(), seed=1)
    assert [m for m, _ in seen] == models
    for _, X in seen:
        assert X.shape == Xu.shape
        assert np.all(X != Xu) and np.all(np.abs(X - Xu) < 1.0)  # each row's jittered copy


def test_filter_compares_float32_confidences_with_the_threshold_as_given(rng):
    # the committee's softmax is float32; float32(0.9) is 0.89999998 and must
    # not pass a 0.9 threshold, while the next float32 up does
    models = make_sharp_models(2, dim=4, classes=3, seed=0)
    ps = PoolState(Dataset(rng.normal(size=(2, 4))))
    below = np.float32(0.9)
    above = np.nextafter(below, np.float32(1.0))
    probs = np.zeros((2, 2, 3), dtype=np.float32)
    probs[:, 0] = [below, 0.05, 0.05]
    probs[:, 1] = [above, 0.05, 0.05]
    cfg = SslConfig(confidence_threshold=0.9, max_label_changes=2)
    v = ssl_filter(models, probs, ps, cfg, tabular_aug())
    assert v.min_confidence.tolist() == [float(below), float(above)]
    assert v.accepted.tolist() == [False, True]


def test_filter_rejects_a_softmax_not_over_the_pool(rng):
    models = make_sharp_models(3, dim=4, classes=3, seed=0)
    ps = PoolState(Dataset(rng.normal(size=(10, 4))))
    ps.query([0, 1], lambda X: np.zeros(len(X), dtype=np.int64))
    probs = committee_probs(models, ps.pool.features)
    cfg = SslConfig()
    for bad_models, bad_probs in [
        (models, probs[:, ps.unlabeled_indices()]),  # the unlabeled rows only
        (models[:2], probs),
        (models, probs[0]),
        ([], probs[:0]),
    ]:
        with pytest.raises(InvalidInputError, match="softmax over the pool"):
            ssl_filter(bad_models, bad_probs, ps, cfg, tabular_aug())


# ── consistency training ─────────────────────────────────────────────


@pytest.fixture(scope="module")
def ssl_scenario():
    src = GaussianMixture(3, 6, 4.5)
    full = make_synthetic(src, 500, seed=60)
    ps = PoolState(strip_labels(full))
    # simulate the query stage using the true labels as stand-in answers
    qi = list(range(0, 90))
    ps.query(qi, lambda X: full.labels[qi])
    ps.convert_queried_to_validation(list(range(60, 90)))
    recipe = EnsembleRecipe(hidden_profile=((6,), (10,), (14,)), epochs=20)
    spec = recipe.spec(6, 3, 8)
    state = EnsembleState(spec)
    train_cycle(state, ps, recipe.sgd(spec), seed=90)
    return state, ps, full


def unsaturated_copy(state, val_accuracy=0.98):
    """Deep copy of state whose checkpoints read at most val_accuracy on
    validation, so ssl_train fine-tunes every member."""
    st = copy.deepcopy(state)
    for b in st.best:
        b.val_accuracy = min(b.val_accuracy, val_accuracy)
    return st


def spy_fit(monkeypatch) -> list:
    """Wrap numkit.fit; the returned list gets each call's (trained model,
    pass losses), in call order."""
    calls = []
    real = numkit.fit

    def fit(*args):
        out = real(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(numkit, "fit", fit)
    return calls


def test_ssl_train_noop_without_pseudo(ssl_scenario, monkeypatch):
    state, ps, _ = ssl_scenario
    cfg = SslConfig(epochs=2)
    assert ps.counts()["pseudo"] == 0
    st = copy.deepcopy(state)
    before = list(st.best)
    offered, fits = record_offers(st), spy_fit(monkeypatch)
    assert ssl_train(st, ps, cfg, tabular_aug(), seed=0) == [None] * st.spec.size
    assert offered == {} and fits == []
    assert all(b is b0 for b, b0 in zip(st.best, before))


def test_ssl_train_runs_and_traces(ssl_scenario, monkeypatch):
    state, ps, full = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    cfg = SslConfig(confidence_threshold=0.5, epochs=3, per_class_cap=30)
    kept, _, _ = harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, tabular_aug(), seed=5)
    assert kept.size, "scenario should produce at least one pseudo row"
    st = unsaturated_copy(state)
    before_best = [b.val_accuracy for b in st.best]
    before_cycle = [b.cycle for b in st.best]
    start_epochs = [m.epoch_counter for m in st.best_models()]
    offered, fits = record_offers(st), spy_fit(monkeypatch)
    accs = ssl_train(st, ps, cfg, tabular_aug(), seed=7)
    # every member fine-tuned: a labeled and a pseudo pass per epoch, each
    # with a positive finite loss, and the trained model offered
    assert len(fits) == len(accs) == st.spec.size and all(isinstance(a, float) for a in accs)
    Xv, yv, _ = ps.validation_data()
    for i, (model, losses) in enumerate(fits):
        assert offered[i] is model and model.epoch_counter == start_epochs[i] + cfg.epochs
        assert accs[i] == accuracy(model, Xv, yv, MEMBER_DTYPE)
        assert len(losses) == 2 * cfg.epochs
        assert all(np.isfinite(loss) and loss > 0.0 for loss in losses)
    # best checkpoints only advance on strict improvement
    for b, v0, c0 in zip(st.best, before_best, before_cycle):
        assert b.val_accuracy >= v0
        if b.val_accuracy == v0:
            assert b.cycle == c0


def test_ssl_train_lambda_zero_skips_pseudo_pass(ssl_scenario, monkeypatch):
    state, ps, full = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    base = SslConfig(confidence_threshold=0.5, epochs=2, per_class_cap=30)
    kept, _, _ = harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, base, tabular_aug(), seed=5)
    assert kept.size
    cfg0 = SslConfig(
        confidence_threshold=0.5, epochs=2,
        per_class_cap=30, pseudo_loss_weight=0.0,
    )
    # snapshot, run, compare: with weight 0 the pseudo rows contribute nothing
    s_a = unsaturated_copy(state)
    s_b = unsaturated_copy(state)
    o_a, o_b = record_offers(s_a), record_offers(s_b)
    fits = spy_fit(monkeypatch)
    augmented = []
    monkeypatch.setattr(semisup, "strong_augment", lambda *a: augmented.append(a))
    acc_a = ssl_train(s_a, ps, cfg0, tabular_aug(), seed=11)
    # one labeled pass per epoch and member, and no pseudo row is perturbed
    assert [len(losses) for _, losses in fits] == [cfg0.epochs] * state.spec.size
    assert augmented == []
    # identical labeled-only trajectory is reproducible
    acc_b = ssl_train(s_b, ps, cfg0, tabular_aug(), seed=11)
    assert acc_a == acc_b and all(isinstance(a, float) for a in acc_a)
    assert o_a.keys() == o_b.keys() == set(range(state.spec.size))
    for i in o_a:
        assert np.array_equal(o_a[i].params, o_b[i].params)
    n = state.spec.size
    assert [losses for _, losses in fits[:n]] == [losses for _, losses in fits[n:]]


def test_ssl_train_deterministic(ssl_scenario, monkeypatch):
    state, ps, _ = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    cfg = SslConfig(confidence_threshold=0.5, epochs=2, per_class_cap=30)
    harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, tabular_aug(), seed=5)
    s_a = unsaturated_copy(state)
    s_b = unsaturated_copy(state)
    o_a, o_b = record_offers(s_a), record_offers(s_b)
    fits = spy_fit(monkeypatch)
    n = state.spec.size
    acc_a = ssl_train(s_a, ps, cfg, tabular_aug(), seed=3)
    acc_b = ssl_train(s_b, ps, cfg, tabular_aug(), seed=3)
    assert acc_a == acc_b and len(acc_a) == n and None not in acc_a
    assert o_a.keys() == o_b.keys() == set(range(n))
    for i in o_a:
        assert np.array_equal(o_a[i].params, o_b[i].params)
    losses_a, losses_b = [f[1] for f in fits[:n]], [f[1] for f in fits[n:]]
    assert losses_a == losses_b
    ssl_train(unsaturated_copy(state), ps, cfg, tabular_aug(), seed=4)
    assert [f[1] for f in fits[2 * n :]] != losses_a


def test_ssl_train_improves_or_preserves_validation(ssl_scenario):
    # the headline SSL property at desk scale: agreement with the stand-in
    # labels on validation rows does not degrade materially
    state, ps, full = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    cfg = SslConfig(confidence_threshold=0.5, epochs=5, per_class_cap=50)
    harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, tabular_aug(), seed=5)
    Xv, yv, _ = ps.validation_data()
    st = copy.deepcopy(state)
    before = max(accuracy(m, Xv, yv) for m in st.best_models())
    ssl_train(st, ps, cfg, tabular_aug(), seed=21)
    after = max(accuracy(m, Xv, yv) for m in st.best_models())
    assert after >= before - 0.05


def test_ssl_train_replaced_checkpoints_get_fresh_outputs(ssl_scenario):
    state, ps, _ = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    cfg = SslConfig(confidence_threshold=0.5, epochs=2, per_class_cap=30)
    harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, tabular_aug(), seed=5)
    st = copy.deepcopy(state)
    stale = st.best_probs(ps.pool)
    for b in st.best:
        b.val_accuracy = -1.0  # any fine-tuned member now counts as an improvement
    ssl_train(st, ps, cfg, tabular_aug(), seed=3)
    assert all(b.cycle == st.cycle + 1 for b in st.best)
    fresh = st.best_probs(ps.pool)
    for i, b in enumerate(st.best):
        assert np.array_equal(fresh[i], committee_probs([b.model], ps.pool.features)[0])
        assert not np.array_equal(fresh[i], stale[i])


def test_ssl_train_skips_saturated_members(ssl_scenario, monkeypatch):
    state, ps, _ = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    assert any(b.saturated for b in state.best), "the fixture should saturate a member"
    cfg = SslConfig(confidence_threshold=0.5, epochs=2, per_class_cap=30)
    harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, tabular_aug(), seed=5)
    st = copy.deepcopy(state)
    st.best_probs(ps.pool)
    st.best[0].val_accuracy = 1.0
    st.best[1].val_accuracy = 0.98  # close to saturated, still fine-tuned
    st.best[2].val_accuracy = 1.0
    saturated = st.best[0]
    outputs = dict(saturated.outputs)
    cycle = saturated.cycle
    offered, fits = record_offers(st), spy_fit(monkeypatch)
    trained = []
    real = numkit.sgd_epoch
    monkeypatch.setattr(numkit, "sgd_epoch", lambda m, *a: trained.append(m) or real(m, *a))
    accs = ssl_train(st, ps, cfg, tabular_aug(), seed=3)
    assert accs[0] is None and accs[2] is None and isinstance(accs[1], float)
    assert len(fits) == 1 and len(fits[0][1]) == len(trained) == 2 * cfg.epochs
    assert offered.keys() == {1} and all(m is offered[1] for m in trained)
    assert fits[0][0] is offered[1]
    assert st.best[0] is saturated and saturated.cycle == cycle
    assert saturated.outputs.keys() == outputs.keys()
    assert all(saturated.outputs[k] is v for k, v in outputs.items())


def test_ssl_train_raises_on_divergence_naming_the_member(ssl_scenario):
    # it used to return NaN losses and NaN parameters, or fail on storing a
    # NaN checkpoint with "model parameters must be finite"
    state, ps, _ = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    cfg = SslConfig(confidence_threshold=0.5, epochs=3, per_class_cap=30, lr=1e6)
    harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, tabular_aug(), seed=5)
    st = unsaturated_copy(state)
    before = list(st.best)
    with pytest.raises(TrainingDivergedError, match="member 0"):
        ssl_train(st, ps, cfg, tabular_aug(), seed=7)
    assert all(b is b0 for b, b0 in zip(st.best, before))


def _reference_ssl_train(models, ps, cfg, augment, seed):
    """ssl_train's fine-tuning loop written out in float32 from the oracle's
    gradient: final parameters per member and every pass's mean loss."""
    Xl, yl, _ = ps.labeled_data()
    Xp, yp, _ = ps.pseudo_data()
    lam = cfg.pseudo_loss_weight
    params, losses = [], []
    for i, start in enumerate(models):
        p = start.params.astype(np.float32)
        velocity = np.zeros_like(p)
        for e in range(cfg.epochs):
            passes = [(Xl, yl, np.random.default_rng(derive_seed(seed, i, e, 0)).permutation(len(Xl)), 1.0)]
            if lam > 0.0:
                order = np.random.default_rng(derive_seed(seed, i, e, 1)).permutation(len(Xp))
                aug_rng = np.random.default_rng((mask64(seed), augment.rng_seed, i, e, 1))
                Xa = strong_augment(Xp[order], augment, None, aug_rng)
                passes.append((Xa, yp[order], np.arange(order.size), lam))
            for X, y, order, scale in passes:
                X = X.astype(np.float32)
                total = 0.0
                for s in range(0, order.size, cfg.batch_size):
                    sel = order[s : s + cfg.batch_size]
                    loss, grad = loss_grad_float32(start.spec, p, X[sel], y[sel])
                    total += float(loss) * sel.size
                    sgd_update(p, velocity, scale * grad, cfg.lr, cfg.momentum)
                losses.append(total / order.size)
        params.append(p)
    return params, losses


@pytest.mark.parametrize("weight", [0.0, 0.7])
def test_ssl_train_matches_reference_loop_bitwise(ssl_scenario, weight, monkeypatch):
    state, ps, _ = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    aug = tabular_aug(seed=2)
    cfg = SslConfig(
        confidence_threshold=0.5, epochs=3, per_class_cap=25,
        pseudo_loss_weight=weight, batch_size=16,
    )
    harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, aug, seed=5)
    st = unsaturated_copy(state)
    ref_params, ref_losses = _reference_ssl_train(st.best_models(), ps, cfg, aug, seed=13)
    offered, fits = record_offers(st), spy_fit(monkeypatch)
    ssl_train(st, ps, cfg, aug, seed=13)
    # every member, whether or not its checkpoint was replaced
    assert len(ref_params) == len(offered) == len(fits) == st.spec.size
    for i, params in enumerate(ref_params):
        assert np.array_equal(offered[i].params, params)
    assert [loss for _, losses in fits for loss in losses] == ref_losses
