import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ensteal.ensemble import make_default_ensemble
from ensteal.errors import InvalidConfigError, InvalidInputError, TrainingDivergedError
from ensteal.numkit import (
    BLOCK_ROWS,
    MlpModel,
    MlpSpec,
    SgdConfig,
    accuracy,
    effective_lr,
    input_grad_batch,
    load_model,
    loss_and_grad,
    predict_batch,
    probs_batch,
    save_model,
    sgd_epoch,
    sgd_update,
    train_supervised,
)
from ensteal.seeding import mask64


def small_model(seed=3, hidden=(7, 4), dim=5, classes=3, act="relu"):
    return MlpModel.initialize(MlpSpec(dim, hidden, classes, act, rng_seed=seed))


# ── spec and init ────────────────────────────────────────────────────


def test_spec_validation():
    with pytest.raises(InvalidConfigError):
        MlpSpec(0, (4,), 2)
    with pytest.raises(InvalidConfigError):
        MlpSpec(3, (0,), 2)
    with pytest.raises(InvalidConfigError):
        MlpSpec(3, (4,), 0)
    with pytest.raises(InvalidConfigError):
        MlpSpec(3, (4,), 2, activation="gelu")


def test_param_count_and_layout():
    spec = MlpSpec(5, (7, 4), 3)
    assert spec.param_count() == (5 * 7 + 7) + (7 * 4 + 4) + (4 * 3 + 3)
    model = MlpModel.initialize(spec)
    layers = model.layers()
    assert [w.shape for w, _ in layers] == [(5, 7), (7, 4), (4, 3)]
    assert [b.shape for _, b in layers] == [(7,), (4,), (3,)]
    # views alias the flat vector
    layers[0][0][0, 0] = 123.0
    assert model.params[0] == 123.0


def test_init_deterministic_and_bounded():
    a = MlpModel.initialize(MlpSpec(6, (8,), 4, rng_seed=99))
    b = MlpModel.initialize(MlpSpec(6, (8,), 4, rng_seed=99))
    c = MlpModel.initialize(MlpSpec(6, (8,), 4, rng_seed=100))
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)
    w0, b0 = a.layers()[0]
    limit = np.sqrt(6.0 / (6 + 8))
    assert np.all(np.abs(w0) <= limit) and np.all(np.abs(b0) <= limit)
    assert a.epoch_counter == 0


def test_model_validates_params():
    spec = MlpSpec(4, (3,), 2)
    with pytest.raises(InvalidInputError):
        MlpModel(spec, np.zeros(spec.param_count() - 1))
    bad = np.zeros(spec.param_count())
    bad[0] = np.nan
    with pytest.raises(InvalidInputError):
        MlpModel(spec, bad)


# ── forward pass ─────────────────────────────────────────────────────


def test_softmax_is_distribution(rng):
    model = small_model()
    p = probs_batch(model, rng.normal(size=(1, 5)))[0]
    assert p.shape == (3,)
    assert np.all(p > 0) and abs(p.sum() - 1.0) < 1e-12


def test_softmax_overflow_safe():
    model = small_model()
    model.params *= 200.0  # drive logits into the hundreds
    p = probs_batch(model, np.ones((1, 5)) * 10)[0]
    assert np.all(np.isfinite(p)) and abs(p.sum() - 1.0) < 1e-12


def test_predict_tie_breaks_low():
    # a zero-weight model yields identical logits for every class
    spec = MlpSpec(4, (), 5)
    model = MlpModel(spec, np.zeros(spec.param_count()))
    assert predict_batch(model, np.ones((1, 4)))[0] == 0
    assert np.all(predict_batch(model, np.ones((6, 4))) == 0)


def test_batch_matches_single(rng):
    # BLAS may pick different kernels for different batch shapes, so rows of
    # a batch agree with single-row calls to float precision, not bitwise
    model = small_model(act="tanh")
    X = rng.normal(size=(9, 5))
    batch = probs_batch(model, X)
    for i in range(9):
        single = probs_batch(model, X[i : i + 1])[0]
        assert np.allclose(batch[i], single, rtol=1e-12, atol=1e-14)
        assert np.argmax(batch[i]) == np.argmax(single)


def test_input_validation(rng):
    model = small_model()
    with pytest.raises(InvalidInputError):
        probs_batch(model, np.ones((3, 6)))
    with pytest.raises(InvalidInputError):
        probs_batch(model, np.zeros((0, 5)))
    bad = np.ones((2, 5))
    bad[0, 0] = np.inf
    with pytest.raises(InvalidInputError):
        probs_batch(model, bad)


def _input_grad_with_preactivations(model, X, y):
    # float64 reference that keeps each layer's pre-activation z and takes the
    # activation derivative from it
    layers = model.layers()
    a, zs = X, []
    for w, b in layers[:-1]:
        z = a @ w + b
        zs.append(z)
        a = np.maximum(z, 0.0) if model.spec.activation == "relu" else np.tanh(z)
    logits = a @ layers[-1][0] + layers[-1][1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    dz = e / e.sum(axis=1, keepdims=True)
    dz[np.arange(len(y)), y] -= 1.0
    for li in range(len(layers) - 1, 0, -1):
        z = zs[li - 1]
        if model.spec.activation == "relu":
            deriv = (z > 0.0).astype(np.float64)
        else:
            deriv = 1.0 - np.tanh(z) ** 2
        dz = (dz @ layers[li][0].T) * deriv
    return dz @ layers[0][0].T


@pytest.mark.parametrize("act", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [(), (9,), (9, 6, 4)])
@pytest.mark.parametrize("n", [1, 300])
def test_inference_bitwise_matches_references(rng, act, hidden, n):
    # the in-place forward pass must keep the bits of the separate-array form;
    # scaled weights saturate tanh units and leave dead relu units
    model = MlpModel.initialize(MlpSpec(5, hidden, 3, act, rng_seed=21))
    model.params *= 3.0
    X = rng.normal(size=(n, 5)) * 2.0
    y = rng.integers(0, 3, n)
    X_before = X.copy()
    assert np.array_equal(probs_batch(model, X), oracles.forward_probs(model, X))
    assert np.array_equal(X, X_before)
    assert np.array_equal(input_grad_batch(model, X, y), _input_grad_with_preactivations(model, X, y))
    assert np.array_equal(X, X_before)


@pytest.mark.parametrize("classes", [4, 64])
def test_inference_allocates_only_its_layer_outputs(rng, classes):
    # the network runs one block at a time, and bias, activation and softmax
    # are applied in each matmul's own output, so one call holds its (n,
    # classes) result plus one block's layer outputs; the slack covers
    # numpy's fixed 8192-element buffer for the broadcast bias add. A pass
    # that kept every row's layers would hold 78 times the block's share, a
    # temporary bias add shows with 4 classes, a softmax through temporaries
    # with 64.
    model = MlpModel.initialize(MlpSpec(8, (256, 128, 64), classes, rng_seed=1))
    X = rng.normal(size=(20_000, 8))
    out_bytes = X.shape[0] * classes * X.itemsize
    block_bytes = BLOCK_ROWS * (256 + 128 + 64 + classes) * X.itemsize
    tracemalloc.start()
    try:
        probs_batch(model, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out_bytes + 1.1 * block_bytes


@pytest.mark.parametrize("dim, classes", [(8, 4), (60, 10)])
@settings(max_examples=10, deadline=None)
@given(n=st.integers(BLOCK_ROWS, 3 * BLOCK_ROWS), seed=st.integers(0, 2**32 - 1))
def test_inference_bitwise_independent_of_the_batch(dim, classes, n, seed):
    # a row's softmax keeps its bits in any batch of at least BLOCK_ROWS rows,
    # although BLAS gives other bits in products of other shapes (at d=60 a
    # 2-row call already differs from a 256-row one)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim)) * 2.0
    perm = rng.permutation(n)
    subset = np.sort(rng.choice(n, size=int(rng.integers(BLOCK_ROWS, n + 1)), replace=False))
    for spec in make_default_ensemble(dim, classes, rng_seed=seed).members:
        model = MlpModel.initialize(spec)
        full = probs_batch(model, X)
        assert np.array_equal(probs_batch(model, X[perm]), full[perm])
        assert np.array_equal(probs_batch(model, X[subset]), full[subset])


@pytest.mark.parametrize("dim, classes", [(8, 4), (60, 10)])
def test_inference_bitwise_at_every_block_position(rng, dim, classes):
    # block p of the stacked matrix is the first block rolled by p rows, so
    # every row of it runs once at each position of a block
    block = rng.normal(size=(BLOCK_ROWS, dim)) * 2.0
    rolled = np.concatenate([np.roll(block, p, axis=0) for p in range(BLOCK_ROWS)])
    for spec in make_default_ensemble(dim, classes, rng_seed=3).members:
        model = MlpModel.initialize(spec)
        want = probs_batch(model, block)
        got = probs_batch(model, rolled).reshape(BLOCK_ROWS, BLOCK_ROWS, classes)
        for p in range(BLOCK_ROWS):
            assert np.array_equal(np.roll(got[p], -p, axis=0), want), f"{spec.hidden_layers} at offset {p}"


# ── gradients ────────────────────────────────────────────────────────


@pytest.mark.parametrize("act", ["relu", "tanh"])
def test_param_gradient_matches_fd(act, rng):
    model = small_model(seed=8, act=act)
    X = rng.normal(size=(12, 5))
    y = rng.integers(0, 3, 12)
    _, grad = loss_and_grad(model, X, y)

    def loss_at(params):
        return loss_and_grad(MlpModel(model.spec, params), X, y)[0]

    coords = rng.choice(model.params.size, 20, replace=False)
    fd = oracles.fd_loss_gradient(loss_at, model.params, coords)
    for k, g_fd in fd.items():
        rel = abs(g_fd - grad[k]) / max(abs(g_fd), abs(grad[k]), 1e-12)
        assert rel < 1e-6


def test_input_gradient_matches_fd(rng):
    model = small_model(seed=4, act="tanh")
    X = rng.normal(size=(6, 5))
    y = rng.integers(0, 3, 6)
    g = input_grad_batch(model, X, y)
    h = 1e-5
    for row, col in [(0, 0), (2, 3), (5, 4)]:
        Xp, Xm = X.copy(), X.copy()
        Xp[row, col] += h
        Xm[row, col] -= h
        lp = -np.log(probs_batch(model, Xp)[row, y[row]])
        lm = -np.log(probs_batch(model, Xm)[row, y[row]])
        fd = (lp - lm) / (2 * h)
        assert abs(fd - g[row, col]) / max(abs(fd), 1e-12) < 1e-6


def test_loss_label_validation(rng):
    model = small_model()
    X = rng.normal(size=(4, 5))
    with pytest.raises(InvalidInputError):
        loss_and_grad(model, X, np.array([0, 1, 2, 3]))  # class 3 out of range
    with pytest.raises(InvalidInputError):
        loss_and_grad(model, X, np.array([0, 1]))  # wrong length
    with pytest.raises(InvalidInputError):
        loss_and_grad(model, X, np.array([0.5, 0, 0, 0]))  # fractional


# ── SGD ──────────────────────────────────────────────────────────────


def test_sgd_config_validation():
    with pytest.raises(InvalidConfigError):
        SgdConfig(base_lr=0.0)
    with pytest.raises(InvalidConfigError):
        SgdConfig(base_lr=0.1, momentum=1.0)
    with pytest.raises(InvalidConfigError):
        SgdConfig(base_lr=0.1, lr_decay_factor=0.0)
    with pytest.raises(InvalidConfigError):
        SgdConfig(base_lr=0.1, epochs=0)


def test_effective_lr_schedule():
    cfg = SgdConfig(base_lr=0.1, lr_decay_factor=0.1, lr_decay_every=30, epochs=100)
    assert effective_lr(cfg, 0) == 0.1
    assert effective_lr(cfg, 29) == 0.1
    assert effective_lr(cfg, 30) == pytest.approx(0.01)
    assert effective_lr(cfg, 60) == pytest.approx(0.001)


def test_momentum_update_rule(rng):
    # one explicit replay of v <- mu*v + g; w <- w - lr*v
    params = rng.normal(size=7)
    vel = rng.normal(size=7)
    grad = rng.normal(size=7)
    p_ref = params.copy()
    v_ref = 0.9 * vel + grad
    p_ref = p_ref - 0.05 * v_ref
    sgd_update(params, vel, grad, lr=0.05, momentum=0.9)
    assert np.array_equal(vel, v_ref)
    assert np.array_equal(params, p_ref)


def test_train_is_deterministic_and_counts_epochs(rng):
    model = small_model(seed=5)
    X = rng.normal(size=(40, 5))
    y = rng.integers(0, 3, 40)
    cfg = SgdConfig(base_lr=0.05, momentum=0.9, epochs=7, batch_size=16)
    t1, losses1 = train_supervised(model, (X, y), cfg, 42)
    t2, losses2 = train_supervised(model, (X, y), cfg, 42)
    t3, _ = train_supervised(model, (X, y), cfg, 43)
    assert np.array_equal(t1.params, t2.params)
    assert losses1 == losses2 and len(losses1) == 7
    assert not np.array_equal(t1.params, t3.params)
    assert t1.epoch_counter == 7
    assert model.epoch_counter == 0  # input untouched
    assert np.all(np.isfinite(t1.params))


def _reference_train(model, X, y, cfg, seed, grad_scale=1.0):
    """The minibatch loop written out in float32 from the oracle's gradient."""
    params = model.params.astype(np.float32)
    velocity = np.zeros_like(params)
    X = X.astype(np.float32)
    losses = []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng(mask64(mask64(seed) ^ epoch)).permutation(len(X))
        total = 0.0
        for start in range(0, len(X), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grad = oracles.loss_grad_float32(model.spec, params, X[idx], y[idx])
            total += float(loss) * idx.size
            if grad_scale != 1.0:
                grad = grad * grad_scale
            if cfg.weight_decay > 0.0:
                grad = grad + cfg.weight_decay * params
            sgd_update(params, velocity, grad, effective_lr(cfg, epoch), cfg.momentum)
        losses.append(total / len(X))
    return params, losses


@pytest.mark.parametrize(
    "act, momentum, weight_decay",
    [("relu", 0.9, 0.0), ("tanh", 0.9, 0.01), ("relu", 0.0, 0.05), ("tanh", 0.5, 0.0)],
)
def test_train_matches_reference_loop_bitwise(rng, act, momentum, weight_decay):
    # 45 rows in batches of 16 leave a short last batch; the lr decays
    # at epochs 3 and 6, inside the run
    model = small_model(seed=11, hidden=(9, 6), act=act)
    X = rng.normal(size=(45, 5))
    y = rng.integers(0, 3, 45)
    cfg = SgdConfig(
        base_lr=0.05, momentum=momentum, lr_decay_factor=0.5, lr_decay_every=3,
        weight_decay=weight_decay, epochs=7, batch_size=16,
    )
    trained, losses = train_supervised(model, (X, y), cfg, 77)
    ref_params, ref_losses = _reference_train(model, X, y, cfg, 77)
    assert trained.params.dtype == np.float64
    assert np.array_equal(trained.params, ref_params)
    assert losses == ref_losses


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 9), max_size=3).map(tuple),
    classes=st.integers(1, 7),
    n=st.integers(1, 40),
    batch_extra=st.integers(0, 45),
    act=st.sampled_from(["relu", "tanh"]),
    weight_decay=st.sampled_from([0.0, 0.02]),
    grad_scale=st.sampled_from([0.37, 1.0, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_train_matches_reference_loop_bitwise_property(
    hidden, classes, n, batch_extra, act, weight_decay, grad_scale, seed
):
    # sgd_epoch, driven pass by pass as ssl_train drives it with grad_scale,
    # against the reference loop: batches from one row to more than all rows,
    # with a short last batch whenever the size does not divide n
    rng = np.random.default_rng(seed)
    model = MlpModel.initialize(MlpSpec(4, hidden, classes, act, rng_seed=seed))
    X = rng.normal(size=(n, 4)) * 2.0
    y = rng.integers(0, classes, n)
    cfg = SgdConfig(
        base_lr=0.1, momentum=0.9, lr_decay_factor=0.5, lr_decay_every=2,
        weight_decay=weight_decay, epochs=4, batch_size=1 + batch_extra,
    )
    trained, velocity, losses = model.copy(), np.zeros_like(model.params), []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng(mask64(mask64(seed) ^ epoch)).permutation(n)
        losses.append(sgd_epoch(trained, velocity, X, y, order, cfg, effective_lr(cfg, epoch), grad_scale))
    ref_params, ref_losses = _reference_train(model, X, y, cfg, seed, grad_scale)
    assert trained.params.tobytes() == ref_params.astype(np.float64).tobytes()
    assert np.array(losses).tobytes() == np.array(ref_losses).tobytes()


def test_concurrent_training_keeps_each_models_bits(rng):
    # every pass allocates its own workspace, so models of one shape trained
    # on more threads than cores, switching often, keep the bytes of their
    # sequential runs
    cfg = SgdConfig(base_lr=0.05, momentum=0.9, weight_decay=0.01, epochs=15, batch_size=32)
    jobs = [
        (small_model(seed=s, hidden=(32, 16)), (rng.normal(size=(300, 5)), rng.integers(0, 3, 300)), s)
        for s in (41, 42, 43)
    ]
    sequential = [train_supervised(model, data, cfg, s) for model, data, s in jobs]
    start = threading.Barrier(len(jobs))

    def train(model, data, s):
        start.wait(timeout=30)
        return train_supervised(model, data, cfg, s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(jobs)) as pool:
            futures = [pool.submit(train, *job) for job in jobs]
            concurrent = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (want, want_losses), (got, got_losses) in zip(sequential, concurrent):
        assert got.params.tobytes() == want.params.tobytes()
        assert got_losses == want_losses
    assert len({model.params.tobytes() for model, _ in sequential}) == len(jobs)


@pytest.mark.parametrize("act", ["relu", "tanh"])
def test_float32_step_gradient_matches_float64_reference(rng, act):
    # one plain step at lr 1 moves float32-representable params by the step's
    # float32 gradient, up to the rounding of the subtraction itself
    model = small_model(seed=12, hidden=(9, 6), act=act)
    model.params[:] = model.params.astype(np.float32)
    X = rng.normal(size=(32, 5))
    y = rng.integers(0, 3, 32)
    loss64, grad64 = loss_and_grad(model, X, y)
    stepped = model.copy()
    cfg = SgdConfig(base_lr=1.0, batch_size=32)
    loss32 = sgd_epoch(stepped, np.zeros_like(stepped.params), X, y, np.arange(32), cfg, 1.0)
    grad32 = model.params - stepped.params
    eps = float(np.finfo(np.float32).eps)
    assert abs(loss32 - loss64) <= 16 * eps * abs(loss64)
    scale = np.abs(model.params).max() + np.abs(grad64).max()
    assert np.max(np.abs(grad32 - grad64)) <= 16 * eps * scale


def test_float32_training_keeps_a_large_logit_gap_finite():
    # the true class trails by 120: its float32 softmax probability underflows
    # to 0, so a loss taken as -log(prob) would read as divergence
    spec = MlpSpec(1, (), 2)
    model = MlpModel(spec, np.array([0.0, 0.0, 120.0, 0.0]))
    cfg = SgdConfig(base_lr=1e-3, epochs=1, batch_size=1)
    _, losses = train_supervised(model, (np.ones((1, 1)), np.array([1])), cfg, 0)
    assert losses[0] == pytest.approx(120.0, rel=1e-6)


def test_training_reduces_loss(small_mixture):
    spec = MlpSpec(6, (16,), 4, rng_seed=2)
    cfg = SgdConfig(base_lr=0.05, momentum=0.9, epochs=20, batch_size=32)
    model, losses = train_supervised(
        MlpModel.initialize(spec), (small_mixture.features, small_mixture.labels), cfg, 7
    )
    assert losses[-1] < losses[0] * 0.5
    assert accuracy(model, small_mixture.features, small_mixture.labels) > 0.9


def test_weight_decay_shrinks_params(rng):
    model = small_model(seed=6)
    X = rng.normal(size=(30, 5))
    y = rng.integers(0, 3, 30)
    cfg0 = SgdConfig(base_lr=0.01, epochs=10, batch_size=10, weight_decay=0.0)
    cfg1 = SgdConfig(base_lr=0.01, epochs=10, batch_size=10, weight_decay=0.5)
    t0, _ = train_supervised(model, (X, y), cfg0, 1)
    t1, _ = train_supervised(model, (X, y), cfg1, 1)
    assert np.linalg.norm(t1.params) < np.linalg.norm(t0.params)


def test_divergence_raises(rng):
    model = small_model(seed=7)
    X = rng.normal(size=(16, 5)) * 1e3
    y = rng.integers(0, 3, 16)
    cfg = SgdConfig(base_lr=1e9, epochs=5, batch_size=8)
    with pytest.raises(TrainingDivergedError) as err:
        train_supervised(model, (X, y), cfg, 3)
    assert err.value.epoch >= 0


# ── checkpoints ──────────────────────────────────────────────────────


def test_checkpoint_roundtrip(tmp_path, rng):
    model = small_model(seed=9, act="tanh")
    model.epoch_counter = 17
    path = tmp_path / "m.ckpt"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.params, model.params)
    assert back.spec.hidden_layers == model.spec.hidden_layers
    assert back.spec.activation == "tanh"
    assert back.epoch_counter == 17
    # identical bytes when saved again
    path2 = tmp_path / "m2.ckpt"
    save_model(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(InvalidInputError):
        load_model(p)
    p.write_bytes(b"AOTM" + b"\x01")
    with pytest.raises(InvalidInputError):
        load_model(p)
