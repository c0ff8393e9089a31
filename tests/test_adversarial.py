import numpy as np
import pytest

from conftest import make_sharp_models
from ensteal.adversarial import (
    TRANSFER_CSV_HEADER,
    PgdConfig,
    pgd_attack_batch,
    random_sign_perturbation,
    transferability,
    write_transfer_csv,
)
from ensteal.datapool import GaussianMixture, make_synthetic
from ensteal.errors import InvalidConfigError, InvalidInputError
from ensteal.numkit import MlpModel, predict_batch
from ensteal.victim import VictimRecipe, train_victim


@pytest.fixture(scope="module")
def attack_setup():
    src = GaussianMixture(3, 5, 4.0)
    train = make_synthetic(src, 800, seed=70)
    test = make_synthetic(src, 200, seed=71)
    model, acc = train_victim(train, test, VictimRecipe(epochs=30), seed=3)
    assert acc > 0.9
    other, _ = train_victim(train, test, VictimRecipe(hidden_layers=(24,), epochs=30), seed=4)
    return model, other, test


def test_pgd_config_validation():
    with pytest.raises(InvalidConfigError):
        PgdConfig(epsilon=-0.1)
    with pytest.raises(InvalidConfigError):
        PgdConfig(epsilon=0.1, steps=0)
    with pytest.raises(InvalidConfigError):
        PgdConfig(epsilon=0.1, step_size=-1.0)
    with pytest.raises(InvalidConfigError, match="n_eval must be positive"):
        PgdConfig(epsilon=0.1, n_eval=0)
    with pytest.raises(InvalidConfigError, match="denominator must be source_fooled or all"):
        PgdConfig(epsilon=0.1, denominator="sideways")
    cfg = PgdConfig(epsilon=0.5, steps=20)
    assert cfg.resolved_step == pytest.approx(2.5 * 0.5 / 20)
    custom = PgdConfig(epsilon=0.5, steps=20, step_size=0.01)
    assert custom.resolved_step == 0.01


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_pgd_config_rejects_non_finite(bad):
    with pytest.raises(InvalidConfigError, match="epsilon"):
        PgdConfig(epsilon=bad)
    with pytest.raises(InvalidConfigError, match="step_size"):
        PgdConfig(epsilon=0.5, step_size=bad)


def test_pgd_zero_epsilon_is_exact_identity(attack_setup):
    model, _, test = attack_setup
    X = test.features[:20]
    out = pgd_attack_batch(model, X, test.labels[:20], PgdConfig(epsilon=0.0), 5)
    assert np.array_equal(out, X)
    assert out is not X


def test_pgd_stays_in_ball_and_box(attack_setup):
    model, _, test = attack_setup
    X = test.features[:40]
    y = test.labels[:40]
    eps = 0.7
    adv = pgd_attack_batch(model, X, y, PgdConfig(epsilon=eps, steps=10), 1)
    assert np.max(np.abs(adv - X)) <= eps + 1e-12


def test_pgd_reduces_source_accuracy(attack_setup):
    model, _, test = attack_setup
    X, y = test.features, test.labels
    clean_acc = float(np.mean(predict_batch(model, X) == y))
    accs = [clean_acc]
    for eps in (0.5, 1.0, 2.0):
        adv = pgd_attack_batch(model, X, y, PgdConfig(epsilon=eps, steps=15), 2)
        accs.append(float(np.mean(predict_batch(model, adv) == y)))
    assert accs[1] < accs[0]
    assert accs[-1] < 0.5  # large budget breaks most rows
    # wider budgets never help the defender at these scales
    assert accs[2] <= accs[1] + 0.02 and accs[3] <= accs[2] + 0.02


def test_pgd_deterministic(attack_setup):
    model, _, test = attack_setup
    X, y = test.features[:30], test.labels[:30]
    cfg = PgdConfig(epsilon=0.6, steps=8)
    a = pgd_attack_batch(model, X, y, cfg, 12)
    b = pgd_attack_batch(model, X, y, cfg, 12)
    assert np.array_equal(a, b)
    c = pgd_attack_batch(model, X, y, PgdConfig(epsilon=0.6, steps=8), 13)
    assert not np.array_equal(a, c)  # random start varies with the seed


def test_pgd_no_random_start_from_clean(attack_setup):
    model, _, test = attack_setup
    X, y = test.features[:10], test.labels[:10]
    cfg = PgdConfig(epsilon=0.4, steps=5, random_start=False)
    a = pgd_attack_batch(model, X, y, cfg, 0)
    b = pgd_attack_batch(model, X, y, PgdConfig(epsilon=0.4, steps=5, random_start=False), 77)
    assert np.array_equal(a, b)  # seed only matters for the random start


def test_random_sign_perturbation():
    model = make_sharp_models(1, dim=8, classes=2, seed=8)[0]
    X = np.zeros((30, 8))
    out = random_sign_perturbation(model, X, PgdConfig(epsilon=0.25), seed=4)
    assert set(np.unique(np.abs(out))) == {0.25}  # every coordinate moves fully
    again = random_sign_perturbation(model, X, PgdConfig(epsilon=0.25), seed=4)
    assert np.array_equal(out, again)
    assert np.array_equal(random_sign_perturbation(model, X, PgdConfig(epsilon=0.0), seed=4), X)


# ── transfer bookkeeping ─────────────────────────────────────────────


def test_transfer_counting_manual():
    # count by hand from the returned label arrays of two small fixed models
    src, tgt = make_sharp_models(2, dim=4, classes=3, seed=8)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 4))
    y = rng.integers(0, 3, size=50)
    res = transferability(src, tgt, X, y, PgdConfig(epsilon=0.8, steps=3), 1)
    src_fooled = res.adv_source_labels != y
    both = src_fooled & (res.adv_target_labels != y)
    assert res.n == 50
    assert res.source_fooled == int(src_fooled.sum())
    assert res.both_fooled == int(both.sum())
    if res.source_fooled:
        assert res.transfer_rate == pytest.approx(both.sum() / src_fooled.sum())
    assert res.clean_source_acc == pytest.approx(np.mean(res.clean_source_labels == y))
    assert res.random_transfer_rate is None  # no baseline without its seed


def test_transfer_rate_none_on_empty_denominator(attack_setup):
    model, other, test = attack_setup
    X, y = test.features, test.labels
    res = transferability(model, other, X, y, PgdConfig(epsilon=0.0, n_eval=15), 1, baseline_seed=2)
    assert res.n == 15
    # unperturbed rows the source classifies correctly leave nothing fooled
    if res.source_fooled == 0:
        assert res.transfer_rate is None and res.random_transfer_rate is None
    res_all = transferability(model, other, X, y, PgdConfig(epsilon=0.0, n_eval=15, denominator="all"), 1, 2)
    assert res_all.transfer_rate == pytest.approx(res_all.both_fooled / 15)
    assert res_all.random_transfer_rate == res_all.transfer_rate  # epsilon 0 leaves the rows as they are


def test_transfer_attacks_the_first_n_eval_rows(attack_setup):
    model, other, test = attack_setup
    X, y = test.features, test.labels
    cfg = PgdConfig(epsilon=0.8, steps=4, n_eval=30)
    whole = transferability(other, model, X, y, cfg, 3, 4)
    first = transferability(other, model, X[:30], y[:30], cfg, 3, 4)
    for name, value in vars(whole).items():
        assert np.array_equal(value, getattr(first, name)), name
    assert transferability(other, model, X[:12], y[:12], cfg, 3).n == 12  # fewer rows than n_eval
    with pytest.raises(InvalidInputError, match="labels"):
        transferability(other, model, X, y[:30], cfg, 3)  # labels checked against every row given


@pytest.mark.parametrize(
    "bad",
    [[0.7, 1.9, 1.0], [True, False, True], [0, -1, 1], [0, 1, 2], [0, 1, 5], [[0, 1, 1]], [0, 1], [0, 1, True]],
)
def test_attack_and_transfer_reject_bad_labels(bad):
    # float, bool (also one among ints), negative and out-of-range labels are
    # a caller's bug; they must not be truncated or scored as always fooled
    # (two classes here)
    src, tgt = make_sharp_models(2, dim=4, classes=2, seed=8)
    X = np.random.default_rng(0).normal(size=(3, 4))
    for eps in (0.0, 0.5):
        with pytest.raises(InvalidInputError, match="labels"):
            pgd_attack_batch(src, X, bad, PgdConfig(epsilon=eps, steps=2), 1)
    with pytest.raises(InvalidInputError, match="labels"):
        transferability(src, tgt, X, bad, PgdConfig(epsilon=0.5, steps=2), 1)


_ATTACKS = {
    "pgd": lambda src, X, cfg: pgd_attack_batch(src, X, np.zeros(len(X), dtype=np.int64), cfg, 1),
    "random_sign": lambda src, X, cfg: random_sign_perturbation(src, X, cfg, 1),
}


@pytest.mark.parametrize("attack", list(_ATTACKS))
@pytest.mark.parametrize(
    "X, message",
    [
        (np.array([[0.0, 1.0, 2.0, 3.0], [0.0, np.nan, 2.0, 3.0]]), "non-finite"),
        (np.zeros((2, 5)), r"\(batch, 4\) feature matrix, got shape \(2, 5\)"),
        (np.zeros((0, 4)), "batch is empty"),
    ],
    ids=["nan_row", "wrong_width", "empty"],
)
def test_attack_rejects_bad_rows_at_every_epsilon(X, message, attack):
    # epsilon 0 used to return these rows as they came, which every other
    # epsilon refuses; the random-sign baseline returned them at every epsilon
    src = make_sharp_models(1, dim=4, classes=2, seed=8)[0]
    for eps in (0.0, 0.5):
        with pytest.raises(InvalidInputError, match=message):
            _ATTACKS[attack](src, X, PgdConfig(epsilon=eps, steps=2))


def test_transferability_end_to_end(attack_setup):
    model, other, test = attack_setup
    X, y = test.features[:100], test.labels[:100]
    res = transferability(other, model, X, y, PgdConfig(epsilon=1.0, steps=10), 6)
    assert res.source_fooled > 0
    assert 0 <= res.both_fooled <= res.source_fooled
    assert res.adv_source_acc < res.clean_source_acc


def test_transfer_csv_format(attack_setup, tmp_path):
    model, other, test = attack_setup
    X, y = test.features[:12], test.labels[:12]
    res = transferability(other, model, X, y, PgdConfig(epsilon=0.8, steps=5), 2)
    path = tmp_path / "t.csv"
    write_transfer_csv(path, res)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(TRANSFER_CSV_HEADER)
    assert len(lines) == 13
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == str(int(res.clean_source_labels[0]))
    assert first[4] == str(int(res.adv_target_labels[0]))
