"""Dense feedforward classifier substrate.

Small MLP classifiers over float64 numpy arrays: seeded initialization,
overflow-safe softmax inference, analytic backpropagation for mean
cross-entropy, and mini-batch SGD with momentum under a step learning-rate
schedule (one step every LR_DECAY_EVERY epochs), in one epoch loop (`fit`)
that every training runs through.
Training arithmetic runs in float32 inside `sgd_epoch`, and so does
inference when asked (`probs_batch(model, X, np.float32)`, which the
committee uses); parameters, default inference (the victim's),
`loss_and_grad`, input gradients and checkpoints stay float64.
One forward pass serves all of them: bias, activation and softmax are
applied in each matmul's own output, and derivatives use activation outputs.
A training pass runs its steps in buffers allocated once for the pass (one
backprop kernel serves `loss_and_grad` too); the steps make the operations
of steps that allocate anew, in the same order, so the bits are the same.
Inference in either dtype runs over fixed blocks of BLOCK_ROWS rows, so a
row's softmax has the same bits in every batch of at least that many.
Passes over a whole pool that must not grow with it (the selection scorers,
the pseudo-label filter) read it SLICE_ROWS rows at a time.
Models are plain values (flat parameter vector + immutable spec): cheap to
copy, safe to train in parallel (buffers live per call, never in module
state), bitwise reproducible from a seed.

Parameter layout is canonical: layer by layer, weights then biases, with the
weight matrix of layer l stored row-major as (fan_in, fan_out).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .datapool import as_labels, is_integer, read_bytes, write_bytes
from .errors import InvalidConfigError, InvalidInputError, TrainingDivergedError
from .seeding import mask64

# every activation, by its checkpoint code
ACTIVATION_CODES = {"relu": 0, "tanh": 1}
_CODE_ACT = {v: k for k, v in ACTIVATION_CODES.items()}

CHECKPOINT_MAGIC = b"AOTM"
CHECKPOINT_VERSION = 1

BLOCK_ROWS = 256  # rows per matrix product in inference (see probs_batch)
SLICE_ROWS = 4 * BLOCK_ROWS  # pool rows a streamed pass over the pool reads at a time
LR_DECAY_EVERY = 30  # epochs between steps of a decaying learning rate (see effective_lr)


# ── model definition ─────────────────────────────────────────────────


@dataclass(frozen=True)
class MlpSpec:
    """Architecture plus init seed. Equal specs produce identical parameters."""

    input_dim: int
    hidden_layers: tuple[int, ...] = ()
    num_classes: int = 2
    activation: str = "relu"
    rng_seed: int = 0

    def __post_init__(self):
        if not all(map(is_integer, self.hidden_layers)):  # int() would take 8.7, True and '8'
            raise InvalidConfigError(f"hidden layer widths must be integers, got {self.hidden_layers!r}")
        object.__setattr__(self, "hidden_layers", tuple(int(w) for w in self.hidden_layers))
        object.__setattr__(self, "rng_seed", mask64(self.rng_seed))
        for name in ("input_dim", "num_classes"):
            n = getattr(self, name)
            if not is_integer(n):  # MlpModel.initialize would fail on 4.0, and take True as 1
                raise InvalidConfigError(f"{name} must be an integer, got {n!r}")
            if n < 1:
                raise InvalidConfigError(f"{name} must be positive, got {n}")
        if any(w < 1 for w in self.hidden_layers):
            raise InvalidConfigError(f"hidden layer widths must be positive, got {self.hidden_layers}")
        if self.activation not in ACTIVATION_CODES:
            raise InvalidConfigError(f"unknown activation {self.activation!r}")

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) for each layer, input to output."""
        dims = [self.input_dim, *self.hidden_layers, self.num_classes]
        return list(zip(dims[:-1], dims[1:]))

    def param_count(self) -> int:
        return sum((fi + 1) * fo for fi, fo in self.layer_dims())

    def architecture(self) -> tuple:
        """Identity of the network shape, ignoring the init seed."""
        return (self.input_dim, self.hidden_layers, self.num_classes, self.activation)


class MlpModel:
    """A spec plus a flat float64 parameter vector."""

    __slots__ = ("spec", "params", "epoch_counter")

    def __init__(self, spec: MlpSpec, params: np.ndarray, epoch_counter: int = 0):
        params = np.asarray(params, dtype=np.float64).ravel()
        if params.size != spec.param_count():
            raise InvalidInputError(
                f"parameter count {params.size} does not match spec ({spec.param_count()})"
            )
        if not np.all(np.isfinite(params)):
            raise InvalidInputError("model parameters must be finite")
        self.spec = spec
        self.params = params
        self.epoch_counter = int(epoch_counter)

    @classmethod
    def initialize(cls, spec: MlpSpec) -> "MlpModel":
        """Seeded init: each layer's weights and biases drawn uniformly in
        +-sqrt(6 / (fan_in + fan_out))."""
        rng = np.random.default_rng(spec.rng_seed)
        chunks = []
        for fi, fo in spec.layer_dims():
            limit = np.sqrt(6.0 / (fi + fo))
            chunks.append(rng.uniform(-limit, limit, size=fi * fo))
            chunks.append(rng.uniform(-limit, limit, size=fo))
        return cls(spec, np.concatenate(chunks), epoch_counter=0)

    def copy(self) -> "MlpModel":
        return MlpModel(self.spec, self.params.copy(), self.epoch_counter)

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) views into the flat parameter vector, one pair per layer."""
        return _layer_views(self.spec, self.params)


def _layer_views(spec: MlpSpec, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into any flat vector laid out in canonical parameter order."""
    out = []
    offset = 0
    for fi, fo in spec.layer_dims():
        w = flat[offset : offset + fi * fo].reshape(fi, fo)
        offset += fi * fo
        b = flat[offset : offset + fo]
        offset += fo
        out.append((w, b))
    return out


# ── validation helpers ───────────────────────────────────────────────


def as_batch(model: MlpModel, X) -> np.ndarray:
    """X as a float64 (n, input_dim) matrix of finite values with n >= 1,
    else InvalidInputError."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.spec.input_dim:
        raise InvalidInputError(
            f"expected a (batch, {model.spec.input_dim}) feature matrix, got shape {X.shape}"
        )
    if X.shape[0] == 0:
        raise InvalidInputError("batch is empty")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("feature matrix contains non-finite values")
    return X


def as_class_labels(model: MlpModel, y, n: int) -> np.ndarray:
    """y as int64 if it is n integer labels of model's classes, else
    InvalidInputError."""
    y = as_labels(y, n)
    if n and y.max() >= model.spec.num_classes:
        raise InvalidInputError(
            f"labels must lie in [0, {model.spec.num_classes}), got range "
            f"[{y.min()}, {y.max()}]"
        )
    return y


def check_shape(model: MlpModel, want: tuple[int, int], name: str, other: str) -> None:
    """InvalidInputError, naming model as name and want's owner as other,
    unless model's (input_dim, num_classes) equals want."""
    shape = (model.spec.input_dim, model.spec.num_classes)
    if shape != want:
        raise InvalidInputError(f"{name} has (input_dim, num_classes) {shape}, {other} has {want}")


# ── forward / inference ──────────────────────────────────────────────


def _activate_grad_into(a: np.ndarray, kind: str) -> np.ndarray:
    """Overwrites the activation output a with the activation's derivative
    and returns it: relu's 1.0 or 0.0 of a > 0, exactly z > 0, and tanh's
    1 - a*a, exactly 1 - tanh(z)**2."""
    if kind == "relu":
        return np.greater(a, 0.0, out=a)
    np.multiply(a, a, out=a)
    return np.subtract(1.0, a, out=a)


def _forward(layers: list, act: str, X: np.ndarray, outs: list | None = None):
    """Returns (logits, activations incl. input). Each layer's bias add and
    activation write into that layer's matmul output: a new array, or with
    `outs` (one buffer per layer, logits last) the first X.shape[0] rows of
    the layer's buffer. X is never written."""
    a = X
    acts: list[np.ndarray] = [X]
    last = len(layers) - 1
    for li, (w, b) in enumerate(layers):
        a = a @ w if outs is None else np.matmul(a, w, out=outs[li][: X.shape[0]])
        a += b
        if li == last:
            return a, acts
        if act == "relu":
            np.maximum(a, 0.0, out=a)
        else:
            np.tanh(a, out=a)
        acts.append(a)


def _softmax_inplace(logits: np.ndarray) -> np.ndarray:
    """Overwrites each row of logits with its max-shifted softmax."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def probs_batch(model: MlpModel, X, dtype=np.float64, out=None) -> np.ndarray:
    """Softmax class probabilities, one distribution per row, computed over
    blocks of exactly BLOCK_ROWS rows (fewer rows as one block), so a row's
    bits are the same in every batch of at least BLOCK_ROWS rows.

    dtype is float64 or float32: the pass runs on the parameters cast to it
    (no copy for float64) and on each block of X cast to it (likewise), and
    the softmax comes back in it, written into out when given (a C-ordered
    (rows, classes) array of dtype). Each hidden layer's block buffer is
    allocated once per call, and the logits of a block are taken in its
    rows of the result."""
    X = as_batch(model, X)
    layers = _layer_views(model.spec, model.params.astype(dtype, copy=False))
    act, n = model.spec.activation, X.shape[0]
    size = min(n, BLOCK_ROWS)
    if out is None:
        out = np.empty((n, model.spec.num_classes), dtype)
    hidden = [np.empty((size, w), dtype) for w in model.spec.hidden_layers]
    for start in range(0, n, size):
        start = min(start, n - size)  # the last block overlaps the one before
        block = X[start : start + size].astype(dtype, copy=False)
        _softmax_inplace(_forward(layers, act, block, [*hidden, out[start : start + size]])[0])
    return out


def predict_batch(model: MlpModel, X, dtype=np.float64) -> np.ndarray:
    # argmax returns the first (lowest-index) maximum, which is the tie rule.
    return np.argmax(probs_batch(model, X, dtype), axis=1).astype(np.int64)


# ── loss and gradients ───────────────────────────────────────────────


def loss_and_grad(model: MlpModel, X, y) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the batch and its exact analytic
    gradient, flattened in canonical parameter order."""
    X = as_batch(model, X)
    y = as_class_labels(model, y, X.shape[0])
    spec, n = model.spec, X.shape[0]
    grad = np.empty_like(model.params)
    loss = _loss_grad_into(
        _Workspace(spec, n, np.float64), model.layers(), _layer_views(spec, grad), spec.activation,
        X, *_targets(y, spec.num_classes, n, np.float64),
    )
    return loss, grad


class _Workspace:
    """Every intermediate of one backprop kernel call on up to `rows` rows:
    each layer's output (logits last), each hidden layer's back-propagated
    delta, and the row max, row sum and true-class logit. A call on m rows
    uses the first m rows of each buffer."""

    __slots__ = ("outs", "deltas", "row_max", "row_sum", "picked")

    def __init__(self, spec: MlpSpec, rows: int, dtype):
        widths = (*spec.hidden_layers, spec.num_classes)
        self.outs = [np.empty((rows, w), dtype) for w in widths]
        self.deltas = [np.empty((rows, w), dtype) for w in spec.hidden_layers]
        self.row_max = np.empty((rows, 1), dtype)
        self.row_sum = np.empty(rows, dtype)
        self.picked = np.empty(rows, dtype)


def _targets(y: np.ndarray, num_classes: int, rows: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The labels y as one-hot rows, and each label's flat index into the
    logits of its batch when batches of `rows` rows start at row 0."""
    onehot = np.zeros((y.size, num_classes), dtype)
    onehot[np.arange(y.size), y] = 1.0
    return onehot, np.arange(y.size) % rows * num_classes + y


def _loss_grad_into(
    ws: _Workspace, layers: list, grads: list, act: str, X: np.ndarray, onehot: np.ndarray, flat: np.ndarray
) -> float:
    """The backprop kernel, on already validated inputs: returns the batch's
    mean loss and writes the gradient into `grads`, (dW, db) views laid out
    like `layers`. Labels come as `_targets` rows for X. Every intermediate
    is written into `ws`, so a call allocates no array."""
    m = X.shape[0]
    z, acts = _forward(layers, act, X, ws.outs)
    np.subtract(z, np.maximum.reduce(z, axis=1, out=ws.row_max[:m], keepdims=True), out=z)
    # log-softmax form: in float32 the true-class probability underflows to 0
    # once its logit trails the top one by about 103, and log(0) would read
    # as divergence. The indices are in range; mode="clip" only spares take
    # the buffered copy that its default mode makes of `out`
    picked = np.take(z.reshape(-1), flat, out=ws.picked[:m], mode="clip")
    np.exp(z, out=z)
    total = np.add.reduce(z, axis=1, out=ws.row_sum[:m])
    np.divide(z, total[:, None], out=z)  # softmax, turned into d(loss)/d(logits) in place
    np.log(total, out=total)
    # np.mean's value: for float32 it divides in float64 and rounds to this quotient
    loss = float(np.add.reduce(np.subtract(total, picked, out=total)) / m)
    np.subtract(z, onehot, out=z)  # subtracting 0.0 leaves a value's bits as they are
    np.divide(z, m, out=z)
    dz = z
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = grads[li]
        np.matmul(acts[li].T, dz, out=gw)
        np.add.reduce(dz, axis=0, out=gb)
        if li > 0:
            # the activations are dead once their weight gradient is taken
            deriv = _activate_grad_into(acts[li], act)
            dz = np.matmul(dz, layers[li][0].T, out=ws.deltas[li - 1][:m])
            dz *= deriv
    return loss


def input_grad_batch(model: MlpModel, X, y) -> np.ndarray:
    """Per-row gradient of each sample's own cross-entropy w.r.t. its input."""
    X = as_batch(model, X)
    y = as_class_labels(model, y, X.shape[0])
    act = model.spec.activation
    layers = model.layers()
    logits, acts = _forward(layers, act, X)
    dz = _softmax_inplace(logits)
    dz[np.arange(X.shape[0]), y] -= 1.0
    for li in range(len(layers) - 1, 0, -1):
        deriv = _activate_grad_into(acts[li], act)
        dz = dz @ layers[li][0].T
        dz *= deriv
    return dz @ layers[0][0].T


# ── SGD with momentum ────────────────────────────────────────────────


@dataclass(frozen=True)
class SgdConfig:
    base_lr: float
    momentum: float = 0.0
    lr_decay_factor: float = 1.0
    epochs: int = 1
    batch_size: int = 64

    def __post_init__(self):
        if self.base_lr <= 0:
            raise InvalidConfigError("base_lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfigError("momentum must lie in [0, 1)")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise InvalidConfigError("lr_decay_factor must lie in (0, 1]")
        if self.epochs < 1:
            raise InvalidConfigError("epochs must be positive")
        if self.batch_size < 1:
            raise InvalidConfigError("batch_size must be positive")


def effective_lr(cfg: SgdConfig, epoch: int) -> float:
    """Step schedule: base_lr * factor^floor(epoch / LR_DECAY_EVERY), epoch 0-based."""
    return cfg.base_lr * cfg.lr_decay_factor ** (epoch // LR_DECAY_EVERY)


def sgd_update(params: np.ndarray, velocity: np.ndarray, grad: np.ndarray, lr: float, momentum: float) -> None:
    """In-place momentum step: v <- mu*v + g; params <- params - lr*v.
    grad is spent as scratch: it holds lr*v on return."""
    velocity *= momentum
    velocity += grad
    params -= np.multiply(velocity, lr, out=grad)


def sgd_epoch(
    model: MlpModel,
    velocity: np.ndarray,
    X,
    y,
    order: np.ndarray,
    cfg: SgdConfig,
    lr: float,
) -> float:
    """One pass of momentum SGD over the rows X[order] in minibatches of
    cfg.batch_size, updating model.params and velocity in place. Each step
    follows the batch's mean cross-entropy gradient. Returns the pass's mean
    loss.

    The pass computes in float32 on working copies of the rows, params,
    velocity and gradient, and writes params and velocity back at the end.
    The float64 copies then hold float32 values exactly, so consecutive
    passes chain as one float32 run. Inputs are validated once per pass.
    Every buffer a step writes (layer outputs, deltas, softmax rows, the
    one-hot targets) is allocated once per pass, and a short last batch uses
    their first rows. A step runs the same operations in the same order as
    one that allocates its arrays anew, so the bits are the same.
    """
    X = as_batch(model, X)
    y = as_class_labels(model, y, X.shape[0])
    X, y = X[order].astype(np.float32), y[order]
    params = model.params.astype(np.float32)
    vel = velocity.astype(np.float32)
    grad = np.empty_like(params)
    spec, bs = model.spec, cfg.batch_size
    layers, grads = _layer_views(spec, params), _layer_views(spec, grad)
    ws = _Workspace(spec, min(bs, y.size), np.float32)
    onehot, flat = _targets(y, spec.num_classes, bs, np.float32)
    total = 0.0
    # float32 overflows far sooner than float64; a non-finite loss is what
    # reports divergence, so the intermediate warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, y.size, bs):
            batch = slice(start, start + bs)
            Xb = X[batch]
            loss = _loss_grad_into(ws, layers, grads, spec.activation, Xb, onehot[batch], flat[batch])
            total += loss * Xb.shape[0]
            sgd_update(params, vel, grad, lr, cfg.momentum)
    model.params[:] = params
    velocity[:] = vel
    return total / order.size


def fit(model: MlpModel, cfg: SgdConfig, passes) -> tuple[MlpModel, list[float]]:
    """The one training loop: cfg.epochs epochs of momentum SGD, with one
    velocity, on a copy of model. passes(epoch) yields (X, y, order)
    passes, each run by sgd_epoch at the epoch's scheduled lr.
    Returns the copy and every pass's mean loss; a non-finite one raises
    TrainingDivergedError."""
    out = model.copy()
    velocity = np.zeros_like(out.params)
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        lr = effective_lr(cfg, epoch)
        for X, y, order in passes(epoch):
            loss = sgd_epoch(out, velocity, X, y, order, cfg, lr)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            losses.append(loss)
    out.epoch_counter += cfg.epochs
    return out, losses


def train_supervised(model: MlpModel, data: tuple, cfg: SgdConfig, rng_seed: int) -> tuple[MlpModel, list[float]]:
    """fit with one pass over every row per epoch, in an order reshuffled
    from the derived seed (rng_seed XOR epoch index), so runs replay exactly."""
    X, y = data
    X = as_batch(model, X)
    y = as_class_labels(model, y, X.shape[0])
    rng_seed = mask64(rng_seed)

    def passes(epoch: int):
        yield X, y, np.random.default_rng(mask64(rng_seed ^ epoch)).permutation(X.shape[0])

    return fit(model, cfg, passes)


def accuracy(model: MlpModel, X, y, dtype=np.float64) -> float:
    """Fraction of rows whose predicted label, inferred in dtype, matches y."""
    X = as_batch(model, X)
    y = as_class_labels(model, y, X.shape[0])
    return float(np.mean(predict_batch(model, X, dtype) == y))


# ── checkpoint files ─────────────────────────────────────────────────
#
# Little-endian binary: magic "AOTM", u32 version=1, u32 input_dim,
# u32 n_hidden, u32[n_hidden] widths, u32 num_classes, u8 activation code
# (relu=0, tanh=1), u64 epoch_counter, then parameters as f64 in canonical
# order. The init seed is not persisted; loaded specs carry rng_seed=0.


def save_model(model: MlpModel, path) -> None:
    spec = model.spec
    parts = [
        struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, spec.input_dim),
        struct.pack(f"<I{len(spec.hidden_layers)}I", len(spec.hidden_layers), *spec.hidden_layers),
        struct.pack("<IBQ", spec.num_classes, ACTIVATION_CODES[spec.activation], model.epoch_counter),
        model.params.astype("<f8").tobytes(),
    ]
    write_bytes(path, b"".join(parts))


def load_model(path) -> MlpModel:
    blob = read_bytes(path)
    try:
        magic, version, input_dim = struct.unpack_from("<4sII", blob, 0)
        if magic != CHECKPOINT_MAGIC:
            raise InvalidInputError(f"bad checkpoint magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise InvalidInputError(f"unsupported checkpoint version {version}")
        offset = 12
        (n_hidden,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        widths = struct.unpack_from(f"<{n_hidden}I", blob, offset)
        offset += 4 * n_hidden
        num_classes, act_code, epochs = struct.unpack_from("<IBQ", blob, offset)
        offset += 13
        if act_code not in _CODE_ACT:
            raise InvalidInputError(f"unknown activation code {act_code}")
        spec = MlpSpec(input_dim, tuple(widths), num_classes, _CODE_ACT[act_code])
    except struct.error as exc:
        raise InvalidInputError(f"truncated checkpoint: {exc}") from exc
    except InvalidConfigError as exc:
        raise InvalidInputError(f"bad checkpoint header: {exc}") from exc
    size = offset + 8 * spec.param_count()
    if len(blob) != size:
        raise InvalidInputError(f"checkpoint holds {len(blob)} bytes, its header implies {size}")
    params = np.frombuffer(blob, dtype="<f8", offset=offset)
    return MlpModel(spec, params.astype(np.float64), epoch_counter=int(epochs))
