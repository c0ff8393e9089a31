import copy

import numpy as np
import pytest

from conftest import make_sharp_models
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
from ensteal.errors import InvalidConfigError
from ensteal.numkit import accuracy, probs_batch, sgd_update
from ensteal.seeding import derive_seed, mask64
from ensteal.semisup import (
    FilterRecord,
    SslConfig,
    _row_entropy,
    apply_class_cap,
    harvest_pseudo_labels,
    ssl_filter,
    ssl_train,
)
from oracles import loss_grad_float32, ssl_filter_bruteforce


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
    # across layouts of queried/unlabeled rows
    for trial in range(20):
        n = int(rng.integers(30, 80))
        d = int(rng.integers(4, 8))
        models = make_sharp_models(5, dim=d, classes=4, seed=trial)
        ps = PoolState(Dataset(rng.normal(size=(n, d))))
        pre = rng.choice(n, size=int(rng.integers(0, n // 3 + 1)), replace=False)
        if pre.size:
            ps.mark_queried(np.sort(pre), [0] * pre.size)
        cfg = SslConfig(augment=tabular_aug(seed=trial), confidence_threshold=0.6)
        sel, audit = ssl_filter(models, ps, cfg, seed=trial * 13)
        sel_ref, audit_ref = ssl_filter_bruteforce(models, ps, cfg, seed=trial * 13)
        assert sel == sel_ref, f"trial {trial}"
        assert set(audit) == set(audit_ref)
        for i, rec in audit.items():
            changes, unanimous, min_conf = audit_ref[i]
            assert rec.label_changes == changes
            assert rec.unanimous == unanimous
            assert rec.min_confidence == min_conf  # bit-for-bit


@pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**64 - 5])
def test_row_entropy_replays_the_tuple_seeded_stream(seed):
    # seeds of one and two 32-bit words, the aug seed both ways, rows up to
    # the largest one-word index
    rows = np.array([0, 2**31, 2**32 - 1])
    for aug_seed in (seed, 7):
        entropy = _row_entropy(seed, aug_seed, rows)
        for j, row in enumerate(rows.tolist()):
            fast = np.random.default_rng(entropy[j])
            ref = np.random.default_rng((mask64(seed), mask64(aug_seed), row))
            assert np.array_equal(fast.normal(size=6), ref.normal(size=6))
            assert np.array_equal(fast.uniform(size=6), ref.uniform(size=6))


def test_filter_threshold_is_inclusive():
    # fabricate an audit boundary: a row whose min confidence equals the
    # threshold exactly must pass the confidence leg
    sel = {3: 1, 7: 1}
    audit = {
        3: FilterRecord(0, True, 0.9),
        7: FilterRecord(0, True, 0.95),
    }
    capped = apply_class_cap(sel, audit, cap=1)
    assert capped == {7: 1}  # higher confidence wins the single slot


def test_filter_empty_pool():
    models = make_sharp_models(3, dim=4, classes=3, seed=0)
    ps = PoolState(Dataset(np.zeros((3, 4))))
    ps.mark_queried([0, 1, 2], [0, 1, 2])
    sel, audit = ssl_filter(models, ps, SslConfig(augment=tabular_aug()), seed=0)
    assert sel == {} and audit == {}


def test_class_cap_ordering_and_ties():
    sel = {i: 0 for i in range(6)}
    audit = {
        0: FilterRecord(0, True, 0.97),
        1: FilterRecord(0, True, 0.99),
        2: FilterRecord(0, True, 0.99),  # tie with 1: lower index first
        3: FilterRecord(0, True, 0.91),
        4: FilterRecord(0, True, 0.93),
        5: FilterRecord(0, True, 0.95),
    }
    capped = apply_class_cap(sel, audit, cap=3)
    assert capped == {0: 0, 1: 0, 2: 0}
    assert list(capped) == sorted(capped)


def test_class_cap_is_per_class():
    sel = {0: 0, 1: 0, 2: 1, 3: 1, 4: 1}
    audit = {i: FilterRecord(0, True, 0.9 + 0.01 * i) for i in range(5)}
    capped = apply_class_cap(sel, audit, cap=2)
    assert sum(1 for v in capped.values() if v == 0) == 2
    assert sum(1 for v in capped.values() if v == 1) == 2
    assert 2 not in capped  # lowest-confidence class-1 row dropped


def test_harvest_marks_pool(rng):
    models = make_sharp_models(5, dim=5, classes=3, seed=4)
    ps = PoolState(Dataset(rng.normal(size=(60, 5))))
    cfg = SslConfig(augment=tabular_aug(), confidence_threshold=0.5, per_class_cap=4)
    capped, audit = harvest_pseudo_labels(models, ps, cfg, seed=1)
    assert len(audit) == 60
    counts = ps.counts()
    assert counts["pseudo"] == len(capped)
    _, yp, ip = ps.pseudo_data()
    assert dict(zip(ip.tolist(), yp.tolist())) == capped
    for lab in set(capped.values()):
        assert sum(1 for v in capped.values() if v == lab) <= 4


# ── consistency training ─────────────────────────────────────────────


@pytest.fixture(scope="module")
def ssl_scenario():
    src = GaussianMixture(3, 6, 4.5)
    full = make_synthetic(src, 500, seed=60)
    ps = PoolState(strip_labels(full))
    # simulate the query stage using the true labels as stand-in answers
    qi = list(range(0, 90))
    ps.mark_queried(qi, full.labels[qi])
    ps.convert_queried_to_validation(list(range(60, 90)))
    spec = make_default_ensemble(6, 3, rng_seed=8, hidden_profile=((6,), (10,), (14,)), victim_arch_index=None)
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
    capped, _ = harvest_pseudo_labels(state.best_models(), ps, cfg, seed=5)
    assert capped, "scenario should produce at least one pseudo row"
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
    capped, _ = harvest_pseudo_labels(state.best_models(), ps, base, seed=5)
    assert capped
    cfg0 = SslConfig(
        augment=tabular_aug(), confidence_threshold=0.5, epochs=2,
        per_class_cap=30, pseudo_loss_weight=0.0,
    )
    # snapshot, run, compare: with weight 0 the pseudo rows contribute nothing
    s_a = copy.deepcopy(state)
    s_b = copy.deepcopy(state)
    tr_a = ssl_train(s_a, ps, cfg0, seed=11)
    assert all(t.pseudo_loss == 0.0 for t in tr_a)
    # identical labeled-only trajectory is reproducible
    tr_b = ssl_train(s_b, ps, cfg0, seed=11)
    for m_a, m_b in zip(s_a.current, s_b.current):
        assert np.array_equal(m_a.params, m_b.params)
    assert [t.total_loss for t in tr_a] == [t.total_loss for t in tr_b]


def test_ssl_train_deterministic(ssl_scenario):
    state, ps, _ = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    cfg = SslConfig(augment=tabular_aug(), confidence_threshold=0.5, epochs=2, per_class_cap=30)
    harvest_pseudo_labels(state.best_models(), ps, cfg, seed=5)
    s_a = copy.deepcopy(state)
    s_b = copy.deepcopy(state)
    tr_a = ssl_train(s_a, ps, cfg, seed=3)
    tr_b = ssl_train(s_b, ps, cfg, seed=3)
    assert tr_a == tr_b
    for m_a, m_b in zip(s_a.current, s_b.current):
        assert np.array_equal(m_a.params, m_b.params)
    tr_c = ssl_train(copy.deepcopy(state), ps, cfg, seed=4)
    assert [t.total_loss for t in tr_c] != [t.total_loss for t in tr_a]


def test_ssl_train_improves_or_preserves_validation(ssl_scenario):
    # the headline SSL property at desk scale: agreement with the stand-in
    # labels on validation rows does not degrade materially
    state, ps, full = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    cfg = SslConfig(augment=tabular_aug(), confidence_threshold=0.5, epochs=5, per_class_cap=50)
    harvest_pseudo_labels(state.best_models(), ps, cfg, seed=5)
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
    harvest_pseudo_labels(state.best_models(), ps, cfg, seed=5)
    st = copy.deepcopy(state)
    stale = st.best_probs(ps.pool)
    for b in st.best:
        b.val_accuracy = -1.0  # any fine-tuned member now counts as an improvement
    ssl_train(st, ps, cfg, seed=3)
    assert all(b.cycle == st.cycle + 1 for b in st.best)
    fresh = st.best_probs(ps.pool)
    for i, b in enumerate(st.best):
        assert np.array_equal(fresh[i], probs_batch(b.model, ps.pool.features))
        assert not np.array_equal(fresh[i], stale[i])


def test_ssl_train_skips_saturated_members(ssl_scenario, monkeypatch):
    state, ps, _ = ssl_scenario
    ps = copy.deepcopy(ps)  # the pseudo-labels marked below stay in this test
    assert any(b.saturated for b in state.best), "the fixture should saturate a member"
    cfg = SslConfig(augment=tabular_aug(), confidence_threshold=0.5, epochs=2, per_class_cap=30)
    harvest_pseudo_labels(state.best_models(), ps, cfg, seed=5)
    st = copy.deepcopy(state)
    st.best_probs(ps.pool)
    st.best[0].val_accuracy = 1.0
    st.best[1].val_accuracy = 0.98  # close to saturated, still fine-tuned
    st.best[2].val_accuracy = 1.0
    saturated = st.best[0]
    outputs = dict(saturated.outputs)
    cycle, current = saturated.cycle, st.current[0]
    trained = []
    real = numkit.sgd_epoch
    monkeypatch.setattr(numkit, "sgd_epoch", lambda m, *a: trained.append(m) or real(m, *a))
    traces = ssl_train(st, ps, cfg, seed=3)
    assert {t.member for t in traces} == {1}
    assert len(traces) == cfg.epochs and len(trained) == 2 * cfg.epochs
    assert all(m is st.current[1] for m in trained)
    assert st.best[0] is saturated and saturated.cycle == cycle
    assert saturated.outputs.keys() == outputs.keys()
    assert all(saturated.outputs[k] is v for k, v in outputs.items())
    assert st.current[0] is current


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
    harvest_pseudo_labels(state.best_models(), ps, cfg, seed=5)
    st = unsaturated_copy(state)
    ref_params, ref_losses = _reference_ssl_train(st.best_models(), ps, cfg, seed=13)
    traces = ssl_train(st, ps, cfg, seed=13)
    assert len(ref_params) == len(st.current) == st.spec.size
    for model, params in zip(st.current, ref_params):
        assert np.array_equal(model.params, params)
    passes = [(t.labeled_loss, t.pseudo_loss) if weight else (t.labeled_loss,) for t in traces]
    assert [loss for p in passes for loss in p] == ref_losses
