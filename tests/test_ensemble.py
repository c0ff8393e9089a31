import copy
import dataclasses

import numpy as np
import pytest

from conftest import committee_probs, record_offers
from ensteal import numkit
from ensteal.datapool import Dataset, GaussianMixture, PoolState, make_synthetic, strip_labels
from ensteal.ensemble import (
    MEMBER_DTYPE,
    BestCheckpoint,
    EnsembleRecipe,
    EnsembleSpec,
    EnsembleState,
    committee_vote,
    ensemble_predict,
    label_frequencies,
    load_ensemble,
    majority_vote,
    save_ensemble,
    train_cycle,
)
from ensteal.errors import InvalidConfigError, InvalidInputError, TrainingDivergedError
from ensteal.numkit import MlpModel, MlpSpec, predict_batch
from ensteal.victim import QueryBudget, VictimOracle, VictimRecipe, train_victim


def test_default_profile_capacities_strictly_increase():
    spec = EnsembleRecipe().spec(8, 4, 0)
    counts = [m.param_count() for m in spec.members]
    assert counts == sorted(counts)
    assert len(set(counts)) == len(counts)
    assert spec.members[2].hidden_layers == (64, 64)  # the reference victim's widths
    assert spec.size == 5


def test_member_seeds_differ():
    spec = EnsembleRecipe().spec(8, 4, 7)
    seeds = {m.rng_seed for m in spec.members}
    assert len(seeds) == 5


def test_ensemble_spec_validation():
    a = MlpSpec(4, (8,), 3, "relu", 0)
    b = MlpSpec(4, (8,), 3, "relu", 1)  # same architecture, different seed
    with pytest.raises(InvalidConfigError):
        EnsembleSpec((a, b))
    with pytest.raises(InvalidConfigError):
        EnsembleSpec((a,))
    c = MlpSpec(5, (16,), 3, "relu", 2)  # input_dim mismatch
    with pytest.raises(InvalidConfigError):
        EnsembleSpec((a, c))


def test_default_member_configs():
    recipe = EnsembleRecipe(epochs=12, batch_size=32)
    cfgs = recipe.sgd(recipe.spec(8, 4, 0))
    lrs = [c.base_lr for c in cfgs]
    assert lrs == [0.01, 0.02, 0.02, 0.02, 0.02]  # smallest member trains slower
    for c in cfgs:
        assert c.momentum == 0.9
        assert c.lr_decay_factor == 0.1 and c.lr_decay_every == 30
        assert c.weight_decay == 0.0
        assert c.epochs == 12 and c.batch_size == 32


# ── voting arithmetic ────────────────────────────────────────────────


def test_label_frequencies():
    labels = np.array([[0, 0, 1, 2, 0], [3, 3, 3, 3, 3]]).T  # (members=5, rows=2)
    freq = label_frequencies(labels, num_classes=4)
    assert freq.shape == (2, 4)
    assert np.allclose(freq[0], [0.6, 0.2, 0.2, 0.0])
    assert np.allclose(freq[1], [0.0, 0.0, 0.0, 1.0])
    assert np.allclose(freq.sum(axis=1), 1.0)


def test_majority_vote_needs_strict_majority():
    # 5 members: 3 votes carry; a 2-2-1 split falls back to consensus argmax
    labels = np.array([[1, 1, 1, 0, 2], [0, 0, 1, 1, 2]]).T
    consensus = np.array([[0.1, 0.2, 0.7], [0.5, 0.4, 0.1]])
    out = majority_vote(labels, consensus)
    assert out[0] == 1  # clear majority
    assert out[1] == 0  # no majority: argmax of mean probabilities


@pytest.mark.parametrize("k", [47, 55, 77, 94, 107])
def test_majority_vote_carries_a_bare_majority(k):
    # k // 2 + 1 votes carry the row even where that count, taken as a
    # frequency times k, reads just below k // 2 + 1
    need = k // 2 + 1
    labels = np.array([[0]] * need + [[1]] * (k - need))
    assert majority_vote(labels, np.array([[0.4, 0.6]])).tolist() == [0]
    assert np.array_equal(label_frequencies(labels, 2), np.array([[need, k - need]]) / k)


def test_vote_matrices_shapes(small_pool):
    models = [
        MlpModel.initialize(MlpSpec(small_pool.dim, (h,), 4, "relu", i))
        for i, h in enumerate((4, 8, 12))
    ]
    X = small_pool.features[:7]
    probs = committee_probs(models, X)
    assert probs.shape == (3, 7, 4)
    assert np.allclose(probs.sum(axis=2), 1.0)
    labels = np.argmax(probs, axis=2)
    assert labels.shape == (3, 7)
    assert np.array_equal(labels, np.stack([predict_batch(m, X, MEMBER_DTYPE) for m in models]))
    pred = ensemble_predict(models, X)
    assert pred.shape == (7,)
    assert np.array_equal(pred, committee_vote(probs))


# ── training cycles ──────────────────────────────────────────────────


@pytest.fixture(scope="module")
def trained_state():
    src = GaussianMixture(3, 6, 4.0)
    pool = PoolState(strip_labels(make_synthetic(src, 400, seed=21)))
    victim_train = make_synthetic(src, 800, seed=22)
    victim_test = make_synthetic(src, 300, seed=23)
    victim, _ = train_victim(victim_train, victim_test, VictimRecipe(epochs=30), seed=5)
    oracle = VictimOracle(victim, QueryBudget(200))
    oracle.query_labels(list(range(0, 60)), pool)
    oracle.query_labels(list(range(300, 330)), pool)
    pool.convert_queried_to_validation(list(range(300, 330)))
    recipe = EnsembleRecipe(hidden_profile=((4,), (8,), (12,)), epochs=15)
    spec = recipe.spec(6, 3, 77)
    state = EnsembleState(spec)
    cfgs = recipe.sgd(spec)
    accs1 = train_cycle(state, pool, cfgs, seed=31)
    return state, pool, cfgs, accs1


def test_train_cycle_tracks_best(trained_state):
    state, pool, cfgs, accs1 = trained_state
    assert state.cycle == 1
    assert all(b is not None for b in state.best)
    for b, a in zip(state.best, accs1):
        assert b.val_accuracy == a
        assert b.cycle == 1
    assert len(accs1) == 3
    assert all(0.0 <= a <= 1.0 for a in accs1)


def test_train_cycle_best_replaced_only_on_improvement(trained_state):
    state, pool, cfgs, _ = trained_state
    before = [(b.model, b.val_accuracy, b.cycle) for b in state.best]
    accs2 = train_cycle(state, pool, cfgs, seed=32)
    assert state.cycle == 2
    for (m0, v0, c0), b, a2 in zip(before, state.best, accs2):
        if a2 > v0:
            assert b.cycle == 2 and b.val_accuracy == a2
        else:
            assert b.cycle == c0 and b.val_accuracy == v0
            assert b.model is m0  # checkpoint object untouched


def test_train_cycle_same_init_each_cycle(trained_state):
    state, pool, cfgs, _ = trained_state
    # members restart from their spec-seeded init: two cycles with the same
    # seed produce identical weights
    s1 = EnsembleState(state.spec)
    s2 = EnsembleState(state.spec)
    t1, t2 = record_offers(s1), record_offers(s2)
    a1 = train_cycle(s1, pool, cfgs, seed=50)
    a2 = train_cycle(s2, pool, cfgs, seed=50)
    assert a1 == a2
    assert t1.keys() == t2.keys() == {0, 1, 2}
    for i in t1:
        assert np.array_equal(t1[i].params, t2[i].params)


def test_offer_keeps_a_copy_only_on_strict_improvement(trained_state):
    trained, pool, _, _ = trained_state
    Xv, yv, _ = pool.validation_data()
    state = EnsembleState(trained.spec)
    assert state.trainable() == [0, 1, 2]
    model = trained.best[0].model
    acc = state.offer(0, model, Xv, yv, 4)
    kept = state.best[0]
    assert (kept.val_accuracy, kept.cycle) == (acc, 4) and acc == trained.best[0].val_accuracy
    assert kept.model is not model and np.array_equal(kept.model.params, model.params)
    assert state.offer(0, model.copy(), Xv, yv, 5) == acc
    assert state.best[0] is kept  # an equal score keeps the checkpoint
    kept.val_accuracy = 1.0
    assert state.trainable() == [1, 2]
    diverged = model.copy()
    diverged.params[0] = np.nan
    with pytest.raises(InvalidInputError, match="finite"):
        state.offer(1, diverged, Xv, yv, 5)
    assert state.best[1] is None


def test_best_member_index(trained_state):
    state, _, _, _ = trained_state
    accs = [b.val_accuracy for b in state.best]
    assert state.best_member_index() == int(np.argmax(accs))


def _bias_only_committee(biases, rows: int):
    """A committee whose members output softmax(bias) on every row (zero
    weights, one architecture each), with its best_probs over random rows."""
    members = []
    for i, bias in enumerate(biases):
        spec = MlpSpec(4, (2,) * i, len(bias))
        params = np.zeros(spec.param_count())
        params[-len(bias) :] = bias
        members.append(MlpModel(spec, params))
    state = EnsembleState(EnsembleSpec(tuple(m.spec for m in members)))
    state.best = [BestCheckpoint(m, 0.5, 1) for m in members]
    data = Dataset(np.random.default_rng(0).normal(size=(rows, 4)))
    return members, data, state.best_probs(data)


def test_float32_ties_go_to_the_lowest_class():
    # a member's exact tie: the uniform member votes 0, the (a, b, b) one 1
    members, data, probs = _bias_only_committee([(0.0, 0.0, 0.0), (0.0, 1.0, 1.0)], rows=5)
    assert probs.dtype == np.float32
    assert np.all(probs[0] == probs[0, :, :1]) and np.all(probs[1, :, 1] == probs[1, :, 2])
    assert np.argmax(probs, axis=2).tolist() == [[0] * 5, [1] * 5]
    assert [predict_batch(m, data.features, MEMBER_DTYPE).tolist() for m in members] == [[0] * 5, [1] * 5]

    # the fallback's exact tie: votes 1 and 2 are no majority of two, and the
    # mean softmax (x, (x+y)/2, (y+x)/2) ties classes 1 and 2
    members, data, probs = _bias_only_committee([(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)], rows=5)
    mean = probs.mean(axis=0)
    assert np.all(mean[:, 1] == mean[:, 2]) and np.all(mean[:, 0] < mean[:, 1])
    assert committee_vote(probs).tolist() == [1] * 5
    assert ensemble_predict(members, data.features).tolist() == [1] * 5


def test_best_models_requires_training():
    spec = EnsembleRecipe(hidden_profile=((4,), (6,))).spec(4, 3, 0)
    state = EnsembleState(spec)
    with pytest.raises(InvalidInputError):
        state.best_models()
    with pytest.raises(InvalidInputError):
        state.best_probs(Dataset(np.zeros((2, 4))))


def test_best_probs_reused_until_checkpoint_replaced(trained_state, monkeypatch):
    _, pool, cfgs, _ = trained_state
    data = pool.pool
    state = EnsembleState(trained_state[0].spec)
    train_cycle(state, pool, cfgs, seed=31)
    first = state.best_probs(data)
    assert first.shape == (3, data.n, 3)
    for b in state.best:
        assert np.array_equal(b.outputs[data], committee_probs([b.model], data.features)[0])
        assert not b.outputs[data].flags.writeable
    with pytest.raises(ValueError):
        state.best[0].outputs[data][0, 0] = 0.5

    calls = []
    real = numkit.probs_batch
    monkeypatch.setattr(numkit, "probs_batch", lambda m, X, *rest: calls.append(len(X)) or real(m, X, *rest))
    # the same seed retrains every member to the same accuracy: none improves
    train_cycle(state, pool, cfgs, seed=31)
    assert [b.cycle for b in state.best] == [1, 1, 1]
    calls.clear()
    assert np.array_equal(state.best_probs(data), first)
    assert calls == []

    # a checkpoint the next retrain beats is replaced and gets fresh outputs
    state.best[0].val_accuracy = -1.0
    kept = [b.outputs[data] for b in state.best]
    train_cycle(state, pool, cfgs, seed=32)
    assert state.best[0].cycle == 3
    again = state.best_probs(data)
    assert np.array_equal(again[0], committee_probs([state.best[0].model], data.features)[0])
    assert not np.array_equal(again[0], first[0])
    for b, old in zip(state.best[1:], kept[1:]):
        assert (b.outputs[data] is old) == (b.cycle == 1)
        assert np.array_equal(b.outputs[data], committee_probs([b.model], data.features)[0])


def test_train_cycle_skips_saturated_members(trained_state, monkeypatch):
    _, pool, cfgs, _ = trained_state
    state = EnsembleState(trained_state[0].spec)
    train_cycle(state, pool, cfgs, seed=31)
    state.best_probs(pool.pool)
    state.best[0].val_accuracy = 1.0
    state.best[1].val_accuracy = 0.98  # close to saturated, still retrained
    saturated = state.best[0]
    outputs = dict(saturated.outputs)
    offered = record_offers(state)
    trained = []
    real = numkit.train_supervised
    monkeypatch.setattr(numkit, "train_supervised", lambda m, *a: trained.append(m.spec) or real(m, *a))
    accs = train_cycle(state, pool, cfgs, seed=32)
    assert trained == list(state.spec.members[1:])
    assert accs[0] is None and all(isinstance(a, float) for a in accs[1:])
    assert state.cycle == 2
    assert state.best[0] is saturated and saturated.cycle == 1
    assert saturated.outputs.keys() == outputs.keys()
    assert all(saturated.outputs[k] is v for k, v in outputs.items())
    assert offered.keys() == {1, 2}
    assert (state.best[1].cycle == 2) == (accs[1] > 0.98)


@pytest.mark.parametrize("scale, diverging", [(1e3, [0, 1, 2]), (1.0, [1])])
def test_a_diverging_retrain_names_the_member_and_changes_no_checkpoint(trained_state, scale, diverging):
    # it raised "non-finite loss at epoch 0" without naming the member
    state, pool, cfgs, _ = trained_state
    pool = copy.deepcopy(pool)
    pool.pool = Dataset(pool.pool.features * scale)
    cfgs = [dataclasses.replace(c, base_lr=1e9) if i in diverging else c for i, c in enumerate(cfgs)]
    st = copy.deepcopy(state)
    for b in st.best:
        b.val_accuracy = -1.0  # any finished fit would replace the checkpoint
    before = [(b, b.model.params.copy(), b.cycle) for b in st.best]
    offered = record_offers(st)
    with pytest.raises(TrainingDivergedError, match=rf"^non-finite loss at epoch \d+: member {diverging[0]}$"):
        train_cycle(st, pool, cfgs, seed=32)
    assert offered == {} and st.cycle == state.cycle
    for b, (b0, params, cycle) in zip(st.best, before):
        assert b is b0 and b.cycle == cycle and np.array_equal(b.model.params, params)


def test_train_cycle_needs_validation_rows():
    pool = PoolState(Dataset(np.random.default_rng(0).normal(size=(50, 4))))
    recipe = EnsembleRecipe(hidden_profile=((4,), (6,)), epochs=2)
    spec = recipe.spec(4, 3, 0)
    state = EnsembleState(spec)
    cfgs = recipe.sgd(spec)
    with pytest.raises(InvalidInputError):
        train_cycle(state, pool, cfgs, seed=0)


# ── persistence ──────────────────────────────────────────────────────


def test_ensemble_roundtrip(trained_state, tmp_path):
    state, _, _, _ = trained_state
    save_ensemble(state, tmp_path)
    back = load_ensemble(tmp_path)
    assert back.spec.size == state.spec.size
    assert back.cycle == state.cycle
    for b0, b1 in zip(state.best, back.best):
        assert b1.val_accuracy == b0.val_accuracy
        assert b1.cycle == b0.cycle
        assert np.array_equal(b1.model.params, b0.model.params)
        assert b1.model.spec.architecture() == b0.model.spec.architecture()


def test_load_ensemble_missing_dir(tmp_path):
    with pytest.raises(InvalidInputError):
        load_ensemble(tmp_path / "nope")
    # an empty index is malformed input, not a crash
    (tmp_path / "index.txt").write_text("")
    with pytest.raises(InvalidInputError):
        load_ensemble(tmp_path)


@pytest.mark.parametrize(
    "index, bad_line",
    [
        ("members x cycle 1\n0 0.5 1\n", "members x cycle 1"),
        ("members 1 cycle 1.5\n0 0.5 1\n", "members 1 cycle 1.5"),
        ("members 1 cycle 1\n0 high 1\n", "0 high 1"),
        ("members 1 cycle 1\nzero 0.5 1\n", "zero 0.5 1"),
        ("members 1 cycle 1\n0 0.5 one\n", "0 0.5 one"),
        # values save_ensemble never writes: a NaN accuracy used to load and win best_member_index
        ("members 1 cycle 1\n0 nan 1\n", "0 nan 1"),
        ("members 1 cycle 1\n0 inf 1\n", "0 inf 1"),
        ("members 1 cycle 1\n0 -0.1 1\n", "0 -0.1 1"),
        ("members 1 cycle 1\n0 1.5 1\n", "0 1.5 1"),
        ("members 1 cycle -1\n0 0.5 1\n", "members 1 cycle -1"),
        ("members 1 cycle 1\n0 0.5 -3\n", "0 0.5 -3"),
        # lines that parse but name no valid committee: one member, one architecture twice
        ("members 1 cycle 1\n0 0.5 1\n", "members 1 cycle 1"),
        ("members 2 cycle 1\n0 0.5 1\n1 0.5 1\n", "members 2 cycle 1"),
    ],
)
def test_load_ensemble_names_a_malformed_index_line(tmp_path, index, bad_line):
    # a non-numeric field used to leak a bare ValueError from int() or float()
    (tmp_path / "index.txt").write_text(index)
    model = MlpModel.initialize(MlpSpec(3, (4,), 2, "relu", rng_seed=0))
    for i in range(2):
        numkit.save_model(model, tmp_path / f"member{i}_best.ckpt")
    with pytest.raises(InvalidInputError, match=f"malformed ensemble index .*{bad_line!r}"):
        load_ensemble(tmp_path)


def test_load_ensemble_takes_a_member_cycle_past_the_header(trained_state, tmp_path):
    # ssl_train dates its checkpoints state.cycle + 1 without raising state.cycle
    save_ensemble(trained_state[0], tmp_path)
    (tmp_path / "index.txt").write_text("members 3 cycle 2\n0 0.0 0\n1 1.0 3\n2 0.5 2\n")
    back = load_ensemble(tmp_path)
    assert back.cycle == 2
    assert [(b.val_accuracy, b.cycle) for b in back.best] == [(0.0, 0), (1.0, 3), (0.5, 2)]
