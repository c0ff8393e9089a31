import numpy as np
import pytest

import oracles
from ensteal import numkit
from ensteal.datapool import Dataset, GaussianMixture, PoolState, make_synthetic, strip_labels
from ensteal.errors import BudgetExhaustedError, InvalidConfigError, InvalidInputError
from ensteal.numkit import MlpModel, MlpSpec, SgdConfig, predict_batch
from ensteal.victim import VictimOracle, VictimRecipe, train_victim


def make_oracle(budget=50, n=20, d=4, classes=3, seed=0):
    spec = MlpSpec(d, (6,), classes, "relu", rng_seed=seed)
    model = MlpModel.initialize(spec)
    pool = PoolState(Dataset(np.random.default_rng(seed).normal(size=(n, d))))
    return VictimOracle(model, budget), pool, model


def test_victim_labels_equal_the_float64_reference_bitwise():
    # the victim is the ground truth and infers in float64 while the committee
    # infers in float32. Class 1's weight exceeds class 0's by 1e-9, below
    # float32 resolution: float64 labels every row with x0 > 0 as 1, a float32
    # pass sees a tie and answers 0
    spec = MlpSpec(2, (), 2)
    model = MlpModel(spec, np.array([1.0, 1.0 + 1e-9, 0.0, 0.0, 0.0, 0.0]))
    X = np.random.default_rng(3).uniform(0.5, 2.0, size=(300, 2))
    want = np.argmax(oracles.forward_probs(model, X), axis=1)
    assert want.tolist() == [1] * 300
    assert predict_batch(model, X, np.float32).tolist() == [0] * 300  # not vacuous
    oracle = VictimOracle(model, 300)
    assert oracle.predict_batch(X).tolist() == want.tolist()
    assert np.array_equal(predict_batch(model, X), want)


def test_budget_charging():
    oracle, pool, _ = make_oracle(budget=10)
    X = pool.pool.features
    oracle.predict_batch(X[:4])
    assert oracle.budget_remaining() == 6
    with pytest.raises(BudgetExhaustedError, match=r"^query budget exhausted: need 7, have 6 of 10$"):
        oracle.predict_batch(X[:7])
    assert oracle.budget_remaining() == 6 and len(oracle.query_log) == 4  # a refused batch changes nothing
    oracle.predict_batch(X[4:10])
    assert oracle.budget_remaining() == 0
    with pytest.raises(BudgetExhaustedError, match="need 1, have 0 of 10"):
        oracle.predict_batch(X[:1])


def test_budget_validation():
    model = make_oracle()[2]
    with pytest.raises(InvalidConfigError, match="^budget total must be nonnegative$"):
        VictimOracle(model, -1)
    with pytest.raises(InvalidInputError, match="batch is empty"):  # refused before the ledger
        VictimOracle(model, 5).predict_batch(np.zeros((0, 4)))
    empty = VictimOracle(model, 0)
    with pytest.raises(BudgetExhaustedError, match="need 1, have 0 of 0"):
        empty.predict_batch(np.zeros((1, 4)))


@pytest.mark.parametrize("budget", [True, 2.5, np.float64(3.0), "5", None])
def test_budget_must_be_an_integer(budget):
    # True was a budget of 1 query and 2.5 one of 2.5, which a remote
    # client would refuse as a malformed budget reply
    model = make_oracle()[2]
    with pytest.raises(InvalidConfigError, match="^budget total must be an integer, got "):
        VictimOracle(model, budget)
    oracle = VictimOracle(model, np.int64(5))
    assert oracle.budget_remaining() == 5 and type(oracle.budget_remaining()) is int


def test_a_failed_answer_charges_nothing(monkeypatch):
    # the ledger was charged before the model answered: a 10-query oracle
    # whose model raised reported 7 queries left and an empty log
    oracle, pool, _ = make_oracle(budget=10)

    def fail(model, X):
        raise RuntimeError("model failed")

    monkeypatch.setattr(numkit, "predict_batch", fail)
    with pytest.raises(RuntimeError, match="model failed"):
        oracle.predict_batch(pool.pool.features[:3])
    assert oracle.budget_remaining() == 10 and oracle.query_log == []
    monkeypatch.undo()
    oracle.predict_batch(pool.pool.features[:3])
    assert oracle.budget_remaining() == 7 and len(oracle.query_log) == 3


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
    assert y.tolist() == [predict_batch(model, pool.pool.features[i : i + 1])[0] for i in (2, 5, 9)]


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


def test_single_row_batch_charges():
    oracle, pool, model = make_oracle(budget=2)
    x = pool.pool.features[:1]
    a = oracle.predict_batch(x)
    b = oracle.predict_batch(x)  # no caching: every call pays
    assert a.tolist() == b.tolist() == [predict_batch(model, x)[0]]
    with pytest.raises(BudgetExhaustedError):
        oracle.predict_batch(x)
    assert len(oracle.query_log) == 2

    oracle, pool, model = make_oracle(budget=3)
    with pytest.raises(BudgetExhaustedError):
        oracle.predict_batch(pool.pool.features[:4])  # refused whole
    assert oracle.budget_remaining() == 3 and oracle.query_log == []
    labels = oracle.predict_batch(pool.pool.features[:3])
    assert labels.tolist() == [predict_batch(model, row[None])[0] for row in pool.pool.features[:3]]
    assert oracle.budget_remaining() == 0 and len(oracle.query_log) == 3


def test_train_victim_defaults_and_accuracy():
    src = GaussianMixture(4, 8, 4.5)
    train = make_synthetic(src, 1500, seed=100)
    test = make_synthetic(src, 500, seed=101)
    recipe = VictimRecipe(epochs=40)
    model, acc = train_victim(train, test, recipe, seed=7)
    assert model.spec.hidden_layers == (64, 64)
    assert model.spec.num_classes == 4  # the largest training label plus one
    assert acc > 0.9
    # deterministic
    model2, acc2 = train_victim(train, test, recipe, seed=7)
    assert acc == acc2
    assert np.array_equal(model.params, model2.params)


def test_train_victim_needs_labels():
    src = GaussianMixture(3, 4, 3.0)
    train = strip_labels(make_synthetic(src, 60, seed=0))
    test = make_synthetic(src, 30, seed=1)
    with pytest.raises(InvalidInputError):
        train_victim(train, test, VictimRecipe(), seed=0)


@pytest.mark.parametrize(
    "test_set",
    [
        lambda src: strip_labels(make_synthetic(src, 30, seed=1)),  # unlabeled
        lambda src: make_synthetic(GaussianMixture(3, 5, 3.0), 30, seed=1),  # 5 features, not 4
        lambda src: make_synthetic(GaussianMixture(5, 4, 3.0), 30, seed=1),  # labels 3 and 4
    ],
    ids=["unlabeled", "wrong_width", "label_out_of_range"],
)
def test_train_victim_refuses_an_unscorable_test_set_before_training(monkeypatch, test_set):
    # each of these once trained the whole schedule and failed only when scoring
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(numkit, "train_supervised", no_training)
    src = GaussianMixture(3, 4, 3.0)
    with pytest.raises(InvalidInputError):
        train_victim(make_synthetic(src, 60, seed=0), test_set(src), VictimRecipe(), seed=0)


def test_train_victim_takes_the_class_count_it_is_given():
    train = make_synthetic(GaussianMixture(3, 4, 3.0), 60, seed=0)
    model, _ = train_victim(train, None, VictimRecipe(hidden_layers=(5,), epochs=2), seed=0, num_classes=5)
    assert model.spec.num_classes == 5 and model.spec.hidden_layers == (5,)


@pytest.mark.parametrize("bad", [{"epochs": 0}, {"batch_size": 0}, {"activation": "gelu"}, {"hidden_layers": (0,)}])
def test_victim_recipe_range_checks(bad):
    with pytest.raises(InvalidConfigError):
        VictimRecipe(**bad)


def test_victim_recipe_defaults():
    recipe = VictimRecipe()
    assert recipe.hidden_layers == (64, 64) and recipe.activation == "relu"
    # the optimizer is fixed: lr 0.1, momentum 0.5, decayed 10x
    assert recipe.sgd() == SgdConfig(base_lr=0.1, momentum=0.5, lr_decay_factor=0.1, epochs=200, batch_size=64)
    assert VictimRecipe(epochs=7, batch_size=16).sgd() == SgdConfig(0.1, 0.5, 0.1, epochs=7, batch_size=16)
