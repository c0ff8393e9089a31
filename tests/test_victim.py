import numpy as np
import pytest

from ensteal.datapool import Dataset, GaussianMixture, PoolState, make_synthetic, strip_labels
from ensteal.errors import BudgetExhaustedError, InvalidConfigError, InvalidInputError
from ensteal.numkit import MlpModel, MlpSpec, predict_label
from ensteal.victim import (
    DEFAULT_VICTIM_HIDDEN,
    QueryBudget,
    VictimOracle,
    default_victim_sgd,
    train_victim,
)


def make_oracle(budget=50, n=20, d=4, classes=3, seed=0):
    spec = MlpSpec(d, (6,), classes, "relu", rng_seed=seed)
    model = MlpModel.initialize(spec)
    pool = PoolState(Dataset(np.random.default_rng(seed).normal(size=(n, d))))
    return VictimOracle(model, QueryBudget(budget)), pool, model


def test_budget_charging():
    b = QueryBudget(10)
    b.charge(4)
    assert b.spent == 4 and b.remaining == 6
    with pytest.raises(BudgetExhaustedError):
        b.charge(7)
    assert b.spent == 4  # rejected charge leaves the ledger untouched
    b.charge(6)
    assert b.remaining == 0
    with pytest.raises(BudgetExhaustedError):
        b.charge(1)


def test_budget_validation():
    with pytest.raises(InvalidConfigError):
        QueryBudget(-1)
    with pytest.raises(InvalidConfigError):
        QueryBudget(5, spent=6)
    b = QueryBudget(5)
    with pytest.raises(InvalidInputError):
        b.charge(0)
    with pytest.raises(InvalidInputError):
        b.charge(-2)


def test_oracle_query_marks_pool_and_logs():
    oracle, pool, model = make_oracle()
    labels = oracle.query_labels([5, 2, 9], pool)
    assert labels.shape == (3,)
    assert pool.counts()["queried"] == 3
    assert oracle.budget_remaining() == 47
    assert len(oracle.query_log) == 3
    # answers recomputed directly match the pool's stored labels
    _, y, idx = pool.labeled_data()
    assert idx.tolist() == [2, 5, 9]
    assert y.tolist() == [predict_label(model, pool.pool.features[i]) for i in (2, 5, 9)]


def test_oracle_rejects_before_charging():
    oracle, pool, model = make_oracle(budget=5)
    with pytest.raises(InvalidInputError):
        oracle.query_labels([1, 1], pool)  # duplicate
    with pytest.raises(InvalidInputError):
        oracle.query_labels([200], pool)  # out of range
    assert oracle.budget_remaining() == 5
    oracle.query_labels([3], pool)
    with pytest.raises(InvalidInputError):
        oracle.query_labels([3], pool)  # already queried
    assert oracle.budget_remaining() == 4


def test_oracle_budget_exhaustion_is_atomic():
    oracle, pool, model = make_oracle(budget=4)
    oracle.query_labels([0, 1, 2], pool)
    with pytest.raises(BudgetExhaustedError):
        oracle.query_labels([3, 4], pool)
    assert pool.counts()["queried"] == 3  # the failing batch marked nothing
    assert oracle.budget_remaining() == 1
    oracle.query_labels([3], pool)
    assert oracle.budget_remaining() == 0


def test_single_row_batch_charges():
    oracle, pool, model = make_oracle(budget=2)
    x = pool.pool.features[:1]
    a = oracle.predict_batch(x)
    b = oracle.predict_batch(x)  # no caching: every call pays
    assert a.tolist() == b.tolist() == [predict_label(model, x[0])]
    with pytest.raises(BudgetExhaustedError):
        oracle.predict_batch(x)
    assert len(oracle.query_log) == 2

    oracle, pool, model = make_oracle(budget=3)
    with pytest.raises(BudgetExhaustedError):
        oracle.predict_batch(pool.pool.features[:4])  # refused whole
    assert oracle.budget_remaining() == 3 and oracle.query_log == []
    labels = oracle.predict_batch(pool.pool.features[:3])
    assert labels.tolist() == [predict_label(model, row) for row in pool.pool.features[:3]]
    assert oracle.budget_remaining() == 0 and len(oracle.query_log) == 3


def test_train_victim_defaults_and_accuracy():
    src = GaussianMixture(4, 8, 4.5)
    train = make_synthetic(src, 1500, seed=100)
    test = make_synthetic(src, 500, seed=101)
    cfg = default_victim_sgd(epochs=40)
    model, acc = train_victim(train, test, cfg=cfg, seed=7)
    assert model.spec.hidden_layers == DEFAULT_VICTIM_HIDDEN
    assert acc > 0.9
    # deterministic
    model2, acc2 = train_victim(train, test, cfg=cfg, seed=7)
    assert acc == acc2
    assert np.array_equal(model.params, model2.params)


def test_train_victim_needs_labels():
    src = GaussianMixture(3, 4, 3.0)
    train = strip_labels(make_synthetic(src, 60, seed=0))
    test = make_synthetic(src, 30, seed=1)
    with pytest.raises(InvalidInputError):
        train_victim(train, test, seed=0)


def test_default_victim_sgd_constants():
    cfg = default_victim_sgd()
    assert cfg.base_lr == 0.1
    assert cfg.momentum == 0.5
    assert cfg.epochs == 200
    assert cfg.lr_decay_factor == 0.1
    assert cfg.lr_decay_every == 30
    assert cfg.weight_decay == 0.0
