import copy

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import committee_probs, make_sharp_models, record_offers, verdicts_as_oracle_shapes
from ensteal.datapool import (
    AugmentConfig,
    Dataset,
    GaussianJitter,
    GaussianMixture,
    JitterDrop,
    PoolState,
    make_synthetic,
    strip_labels,
    strong_augment,
)
from ensteal.ensemble import (
    EnsembleState,
    default_member_configs,
    make_default_ensemble,
    train_cycle,
)
from ensteal import numkit
from ensteal.errors import InvalidConfigError, InvalidInputError, TrainingDivergedError
from ensteal.numkit import accuracy, sgd_update
from ensteal.seeding import derive_seed, mask64
from ensteal.semisup import (
    SslConfig,
    apply_class_cap,
    harvest_pseudo_labels,
    ssl_filter,
    ssl_train,
)
from oracles import class_cap_bruteforce, loss_grad_float32, ssl_filter_bruteforce


def tabular_aug(seed=0):
    return AugmentConfig(weak=GaussianJitter(0.05), strong=JitterDrop(0.2, 0.1), rng_seed=seed)


def test_ssl_config_validation():
    aug = tabular_aug()
    with pytest.raises(InvalidConfigError):
        SslConfig(augment=None)
    with pytest.raises(InvalidConfigError):
        SslConfig(augment=aug, confidence_threshold=0.0)
    with pytest.raises(InvalidConfigError):
        SslConfig(augment=aug, max_label_changes=-1)
    with pytest.raises(InvalidConfigError):
        SslConfig(augment=aug, per_class_cap=0)
    with pytest.raises(InvalidConfigError):
        SslConfig(augment=aug, pseudo_loss_weight=-0.5)
    with pytest.raises(InvalidConfigError):
        SslConfig(augment=aug, lr=0.0)


def test_ssl_defaults():
    cfg = SslConfig(augment=tabular_aug())
    assert cfg.confidence_threshold == 0.9
    assert cfg.max_label_changes == 1
    assert cfg.per_class_cap == 100
    assert cfg.pseudo_loss_weight == 1.0
    assert cfg.lr == 0.002


# ── the filter vs its oracle ─────────────────────────────────────────


def test_filter_matches_bruteforce_bitwise(rng):
    # the acceptance suite hammers this at scale; here a quick spot check
    # across layouts of queried/unlabeled rows, with jitter and with
    # jitter-and-drop as the weak perturbation
    flips = 0
    for trial in range(20):
        n = int(rng.integers(30, 80))
        d = int(rng.integers(4, 8))
        models = make_sharp_models(5, dim=d, classes=4, seed=trial)
        ps = PoolState(Dataset(rng.normal(size=(n, d))))
        pre = rng.choice(n, size=int(rng.integers(0, n // 3 + 1)), replace=False)
        if pre.size:
            ps.query(pre, lambda X: np.zeros(len(X), dtype=np.int64))
        probs = committee_probs(models, ps.pool.features)
        for weak in (GaussianJitter(0.05), JitterDrop(0.05, 0.25)):
            aug = AugmentConfig(weak=weak, strong=JitterDrop(0.2, 0.1), rng_seed=trial)
            cfg = SslConfig(augment=aug, confidence_threshold=0.6)
            v = ssl_filter(models, probs, ps, cfg, seed=trial * 13)
            sel, audit = verdicts_as_oracle_shapes(v)
            sel_ref, audit_ref = ssl_filter_bruteforce(models, ps, cfg, seed=trial * 13)
            assert sel == sel_ref, f"trial {trial} {weak}"
            # every row's (changes, unanimous, min confidence); the confidences
            # are positive floats, so == compares them bit for bit
            assert audit == audit_ref, f"trial {trial} {weak}"
            flips += int(v.changes.sum()) if isinstance(weak, JitterDrop) else 0
    assert flips > 0  # the dropped coordinates flip some labels


@pytest.mark.parametrize("weak", [GaussianJitter(0.3), JitterDrop(0.05, 0.25)])
def test_filter_verdicts_do_not_depend_on_the_unlabeled_set(rng, weak):
    # one pool, two pool states: the second has more rows queried; a row
    # unlabeled in both gets the same perturbation, so the same verdict
    models = make_sharp_models(5, dim=6, classes=4, seed=3)
    pool = Dataset(rng.normal(size=(150, 6)))
    fewer, more = PoolState(pool), PoolState(pool)
    first = rng.choice(150, size=20, replace=False)
    extra = rng.choice(np.setdiff1d(np.arange(150), first), size=40, replace=False)
    fewer.query(first, lambda X: np.zeros(len(X), dtype=np.int64))
    more.query(np.union1d(first, extra), lambda X: np.zeros(len(X), dtype=np.int64))
    aug = AugmentConfig(weak=weak, strong=JitterDrop(0.5, 0.1), rng_seed=9)
    cfg = SslConfig(augment=aug, confidence_threshold=0.6)
    probs = committee_probs(models, pool.features)
    a = ssl_filter(models, probs, fewer, cfg, seed=17)
    b = ssl_filter(models, probs, more, cfg, seed=17)
    both = np.intersect1d(a.rows, b.rows)
    assert both.size == 150 - 60
    ia, ib = np.searchsorted(a.rows, both), np.searchsorted(b.rows, both)
    for field in ("labels", "changes", "unanimous", "min_confidence", "accepted"):
        assert np.array_equal(getattr(a, field)[ia], getattr(b, field)[ib]), field
    assert a.changes[ia].any() and a.accepted[ia].any()  # the check is not vacuous


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
    v = ssl_filter(models, probs, ps, SslConfig(augment=tabular_aug()), seed=0)
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
    cfg = SslConfig(augment=tabular_aug(), confidence_threshold=0.5, per_class_cap=4)
    probs = committee_probs(models, ps.pool.features)
    rows, labels, verdicts = harvest_pseudo_labels(models, probs, ps, cfg, seed=1)
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
    cfg = SslConfig(augment=tabular_aug(), confidence_threshold=0.5)
    harvest_pseudo_labels(models, probs, ps, cfg, seed=1)
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
    cfg = SslConfig(augment=tabular_aug(), confidence_threshold=0.9, max_label_changes=2)
    v = ssl_filter(models, probs, ps, cfg)
    assert v.min_confidence.tolist() == [float(below), float(above)]
    assert v.accepted.tolist() == [False, True]


def test_filter_rejects_a_softmax_not_over_the_pool(rng):
    models = make_sharp_models(3, dim=4, classes=3, seed=0)
    ps = PoolState(Dataset(rng.normal(size=(10, 4))))
    ps.query([0, 1], lambda X: np.zeros(len(X), dtype=np.int64))
    probs = committee_probs(models, ps.pool.features)
    cfg = SslConfig(augment=tabular_aug())
    for bad_models, bad_probs in [
        (models, probs[:, ps.unlabeled_indices()]),  # the unlabeled rows only
        (models[:2], probs),
        (models, probs[0]),
        ([], probs[:0]),
    ]:
        with pytest.raises(InvalidInputError, match="softmax over the pool"):
            ssl_filter(bad_models, bad_probs, ps, cfg)


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
    spec = make_default_ensemble(6, 3, rng_seed=8, hidden_profile=((6,), (10,), (14,)))
    state = EnsembleState(spec)
    train_cycle(state, ps, default_member_configs(spec, epochs=20), seed=90)
    return state, ps, full


def unsaturated_copy(state, val_accuracy=0.98):
    """Deep copy of state whose checkpoints read at most val_accuracy on
    validation, so ssl_train fine-tunes every member."""
    st = copy.deepcopy(state)
    for b in st.best:
        b.val_accuracy = min(b.val_accuracy, val_accuracy)
    return st


def test_ssl_train_noop_without_pseudo(ssl_scenario):
    state, ps, _ = ssl_scenario
    cfg = SslConfig(augment=tabular_aug(), epochs=2)
    assert ps.counts()["pseudo"] == 0
    traces = ssl_train(state, ps, cfg, seed=0)
    assert traces == []


def test_ssl_train_runs_and_traces(ssl_scenario):
    state, ps, full = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    cfg = SslConfig(augment=tabular_aug(), confidence_threshold=0.5, epochs=3, per_class_cap=30)
    kept, _, _ = harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, seed=5)
    assert kept.size, "scenario should produce at least one pseudo row"
    st = unsaturated_copy(state)
    before_best = [b.val_accuracy for b in st.best]
    before_cycle = [b.cycle for b in st.best]
    traces = ssl_train(st, ps, cfg, seed=7)
    assert len(traces) == st.spec.size * cfg.epochs
    for t in traces:
        assert t.total_loss == pytest.approx(
            t.labeled_loss + cfg.pseudo_loss_weight * t.pseudo_loss
        )
        assert t.pseudo_loss > 0.0
    # best checkpoints only advance on strict improvement
    for b, v0, c0 in zip(st.best, before_best, before_cycle):
        assert b.val_accuracy >= v0
        if b.val_accuracy == v0:
            assert b.cycle == c0


def test_ssl_train_lambda_zero_skips_pseudo_pass(ssl_scenario):
    state, ps, full = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    base = SslConfig(augment=tabular_aug(), confidence_threshold=0.5, epochs=2, per_class_cap=30)
    kept, _, _ = harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, base, seed=5)
    assert kept.size
    cfg0 = SslConfig(
        augment=tabular_aug(), confidence_threshold=0.5, epochs=2,
        per_class_cap=30, pseudo_loss_weight=0.0,
    )
    # snapshot, run, compare: with weight 0 the pseudo rows contribute nothing
    s_a = unsaturated_copy(state)
    s_b = unsaturated_copy(state)
    o_a, o_b = record_offers(s_a), record_offers(s_b)
    tr_a = ssl_train(s_a, ps, cfg0, seed=11)
    assert all(t.pseudo_loss == 0.0 for t in tr_a)
    # identical labeled-only trajectory is reproducible
    tr_b = ssl_train(s_b, ps, cfg0, seed=11)
    assert o_a.keys() == o_b.keys() == set(range(state.spec.size))
    for i in o_a:
        assert np.array_equal(o_a[i].params, o_b[i].params)
    assert [t.total_loss for t in tr_a] == [t.total_loss for t in tr_b]


def test_ssl_train_deterministic(ssl_scenario):
    state, ps, _ = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    cfg = SslConfig(augment=tabular_aug(), confidence_threshold=0.5, epochs=2, per_class_cap=30)
    harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, seed=5)
    s_a = unsaturated_copy(state)
    s_b = unsaturated_copy(state)
    o_a, o_b = record_offers(s_a), record_offers(s_b)
    tr_a = ssl_train(s_a, ps, cfg, seed=3)
    tr_b = ssl_train(s_b, ps, cfg, seed=3)
    assert tr_a == tr_b
    assert o_a.keys() == o_b.keys() == set(range(state.spec.size))
    for i in o_a:
        assert np.array_equal(o_a[i].params, o_b[i].params)
    tr_c = ssl_train(unsaturated_copy(state), ps, cfg, seed=4)
    assert [t.total_loss for t in tr_c] != [t.total_loss for t in tr_a]


def test_ssl_train_improves_or_preserves_validation(ssl_scenario):
    # the headline SSL property at desk scale: agreement with the stand-in
    # labels on validation rows does not degrade materially
    state, ps, full = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    cfg = SslConfig(augment=tabular_aug(), confidence_threshold=0.5, epochs=5, per_class_cap=50)
    harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, seed=5)
    Xv, yv, _ = ps.validation_data()
    st = copy.deepcopy(state)
    before = max(accuracy(m, Xv, yv) for m in st.best_models())
    ssl_train(st, ps, cfg, seed=21)
    after = max(accuracy(m, Xv, yv) for m in st.best_models())
    assert after >= before - 0.05


def test_ssl_train_replaced_checkpoints_get_fresh_outputs(ssl_scenario):
    state, ps, _ = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    cfg = SslConfig(augment=tabular_aug(), confidence_threshold=0.5, epochs=2, per_class_cap=30)
    harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, seed=5)
    st = copy.deepcopy(state)
    stale = st.best_probs(ps.pool)
    for b in st.best:
        b.val_accuracy = -1.0  # any fine-tuned member now counts as an improvement
    ssl_train(st, ps, cfg, seed=3)
    assert all(b.cycle == st.cycle + 1 for b in st.best)
    fresh = st.best_probs(ps.pool)
    for i, b in enumerate(st.best):
        assert np.array_equal(fresh[i], committee_probs([b.model], ps.pool.features)[0])
        assert not np.array_equal(fresh[i], stale[i])


def test_ssl_train_skips_saturated_members(ssl_scenario, monkeypatch):
    state, ps, _ = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    assert any(b.saturated for b in state.best), "the fixture should saturate a member"
    cfg = SslConfig(augment=tabular_aug(), confidence_threshold=0.5, epochs=2, per_class_cap=30)
    harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, seed=5)
    st = copy.deepcopy(state)
    st.best_probs(ps.pool)
    st.best[0].val_accuracy = 1.0
    st.best[1].val_accuracy = 0.98  # close to saturated, still fine-tuned
    st.best[2].val_accuracy = 1.0
    saturated = st.best[0]
    outputs = dict(saturated.outputs)
    cycle = saturated.cycle
    offered = record_offers(st)
    trained = []
    real = numkit.sgd_epoch
    monkeypatch.setattr(numkit, "sgd_epoch", lambda m, *a: trained.append(m) or real(m, *a))
    traces = ssl_train(st, ps, cfg, seed=3)
    assert {t.member for t in traces} == {1}
    assert len(traces) == cfg.epochs and len(trained) == 2 * cfg.epochs
    assert offered.keys() == {1} and all(m is offered[1] for m in trained)
    assert st.best[0] is saturated and saturated.cycle == cycle
    assert saturated.outputs.keys() == outputs.keys()
    assert all(saturated.outputs[k] is v for k, v in outputs.items())


def test_ssl_train_raises_on_divergence_naming_the_member(ssl_scenario):
    # it used to return NaN losses and NaN parameters, or fail on storing a
    # NaN checkpoint with "model parameters must be finite"
    state, ps, _ = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    cfg = SslConfig(augment=tabular_aug(), confidence_threshold=0.5, epochs=3, per_class_cap=30, lr=1e6)
    harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, seed=5)
    st = unsaturated_copy(state)
    before = list(st.best)
    with pytest.raises(TrainingDivergedError, match="member 0"):
        ssl_train(st, ps, cfg, seed=7)
    assert all(b is b0 for b, b0 in zip(st.best, before))


def _reference_ssl_train(models, ps, cfg, seed):
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
                aug_rng = np.random.default_rng((mask64(seed), cfg.augment.rng_seed, i, e, 1))
                Xa = strong_augment(Xp[order], cfg.augment, None, aug_rng)
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
def test_ssl_train_matches_reference_loop_bitwise(ssl_scenario, weight):
    state, ps, _ = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    cfg = SslConfig(
        augment=tabular_aug(seed=2), confidence_threshold=0.5, epochs=3, per_class_cap=25,
        pseudo_loss_weight=weight, batch_size=16,
    )
    harvest_pseudo_labels(state.best_models(), state.best_probs(ps.pool), ps, cfg, seed=5)
    st = unsaturated_copy(state)
    ref_params, ref_losses = _reference_ssl_train(st.best_models(), ps, cfg, seed=13)
    offered = record_offers(st)
    traces = ssl_train(st, ps, cfg, seed=13)
    # every member, whether or not its checkpoint was replaced
    assert len(ref_params) == len(offered) == st.spec.size
    for i, params in enumerate(ref_params):
        assert np.array_equal(offered[i].params, params)
    passes = [(t.labeled_loss, t.pseudo_loss) if weight else (t.labeled_loss,) for t in traces]
    assert [loss for p in passes for loss in p] == ref_losses
