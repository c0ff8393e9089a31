"""Heterogeneous committee of substitute models.

The attacker trains several MLPs of different capacities on the same stolen
labels. Each refresh retrains the members from their seeded initialization
on the current labeled set (no warm start) and keeps one best checkpoint per
member. EnsembleState holds the one checkpoint rule that refreshes and
semi-supervised fine-tuning share: a trained model replaces a checkpoint
only if it scores strictly better on the held-out validation rows, so a
member already at 1.0 is not trained at all, since no output could see it.
Committee outputs (mean probabilities, label frequency vectors, majority
vote) always come from those best checkpoints. A checkpoint's softmax over a
fixed matrix (the attack pool, the test set) is computed once and kept on the
checkpoint; replacing a checkpoint starts it with no stored outputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numkit
from .datapool import Dataset, PoolState
from .errors import InvalidConfigError, InvalidInputError
from .numkit import MlpModel, MlpSpec, SgdConfig
from .seeding import derive_seed

# Capacity ladder for the default five-member committee; index 2 matches the
# reference victim's architecture.
DEFAULT_HIDDEN_PROFILE: tuple[tuple[int, ...], ...] = (
    (8,),
    (32,),
    (64, 64),
    (128, 64),
    (256, 128, 64),
)


@dataclass(frozen=True)
class EnsembleSpec:
    """Member architectures: at least two, pairwise distinct, one shape."""

    members: tuple[MlpSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 2:
            raise InvalidConfigError("an ensemble needs at least two members")
        archs = [m.architecture() for m in self.members]
        if len(set(archs)) != len(archs):
            raise InvalidConfigError("ensemble member architectures must be pairwise distinct")
        dims = {(m.input_dim, m.num_classes) for m in self.members}
        if len(dims) != 1:
            raise InvalidConfigError("members must share input_dim and num_classes")

    @property
    def size(self) -> int:
        return len(self.members)


def make_default_ensemble(
    input_dim: int,
    num_classes: int,
    rng_seed: int = 0,
    activation: str = "relu",
    hidden_profile: tuple[tuple[int, ...], ...] = DEFAULT_HIDDEN_PROFILE,
) -> EnsembleSpec:
    members = tuple(
        MlpSpec(
            input_dim=input_dim,
            hidden_layers=hidden,
            num_classes=num_classes,
            activation=activation,
            rng_seed=derive_seed(rng_seed, i),
        )
        for i, hidden in enumerate(hidden_profile)
    )
    return EnsembleSpec(members)


def default_member_configs(
    spec: EnsembleSpec,
    epochs: int = 30,
    batch_size: int = 64,
) -> list[SgdConfig]:
    """Per-member recipes: momentum 0.9, lr decayed 10x every 30 epochs,
    lr 0.01 for the smallest-capacity member and 0.02 for the rest."""
    counts = [m.param_count() for m in spec.members]
    smallest = int(np.argmin(counts))
    return [
        SgdConfig(
            base_lr=0.01 if i == smallest else 0.02,
            momentum=0.9,
            lr_decay_factor=0.1,
            lr_decay_every=30,
            weight_decay=0.0,
            epochs=epochs,
            batch_size=batch_size,
        )
        for i in range(spec.size)
    ]


@dataclass
class BestCheckpoint:
    model: MlpModel
    val_accuracy: float
    cycle: int
    # read-only (rows, classes) softmax per Dataset, keyed by identity
    outputs: dict = field(default_factory=dict)

    @property
    def saturated(self) -> bool:  # no strictly better validation score exists
        return self.val_accuracy == 1.0


class EnsembleState:
    """The members' best checkpoints and the refresh counter.

    trainable() and offer() are the checkpoint rule: a model replaces member
    i's checkpoint only with a strictly better validation accuracy, so a
    member whose checkpoint already scores 1.0 is not worth training.
    """

    def __init__(self, spec: EnsembleSpec):
        self.spec = spec
        self.best: list[Optional[BestCheckpoint]] = [None] * spec.size
        self.cycle = 0

    def trainable(self) -> list[int]:
        """Members that a trained model could still improve, in order."""
        return [i for i, b in enumerate(self.best) if b is None or not b.saturated]

    def offer(self, i: int, model: MlpModel, Xv, yv, cycle: int) -> float:
        """Score model on (Xv, yv) and keep a copy as member i's checkpoint,
        dated cycle, if it beats the current one. Returns the score."""
        acc = numkit.accuracy(model, Xv, yv)
        prev = self.best[i]
        if prev is None or acc > prev.val_accuracy:
            self.best[i] = BestCheckpoint(model.copy(), acc, cycle)
        return acc

    def best_models(self) -> list[MlpModel]:
        if any(b is None for b in self.best):
            raise InvalidInputError("ensemble has no trained checkpoint yet")
        return [b.model for b in self.best]  # type: ignore[union-attr]

    def best_probs(self, data: Dataset) -> np.ndarray:
        """(members, rows, classes) softmax of the best checkpoints over
        data; each checkpoint runs its forward pass once per Dataset."""
        self.best_models()  # raises until every member has a checkpoint
        for b in self.best:
            if data not in b.outputs:
                probs = numkit.probs_batch(b.model, data.features)
                probs.flags.writeable = False
                b.outputs[data] = probs
        return np.stack([b.outputs[data] for b in self.best])

    def best_member_index(self) -> int:
        """Member with the top validation accuracy; ties go to the lower index."""
        accs = [b.val_accuracy if b is not None else -np.inf for b in self.best]
        return int(np.argmax(accs))


def train_cycle(
    state: EnsembleState,
    pool_state: PoolState,
    cfgs: list[SgdConfig],
    seed: int,
) -> list[Optional[float]]:
    """One committee refresh on the oracle-labeled rows.

    Every member restarts from its spec's seeded initialization and trains
    with its own config; shuffle seeds derive from (seed, member index), so
    distinct cycles see distinct batch orders. Only state.trainable() members
    train, and each result goes to state.offer. Returns the per-member
    validation accuracies of this refresh, None for a skipped member.
    """
    if len(cfgs) != state.spec.size:
        raise InvalidConfigError("one SGD config per member required")
    X, y, _ = pool_state.labeled_data()
    if X.shape[0] == 0:
        raise InvalidInputError("no labeled rows to train on")
    Xv, yv, _ = pool_state.validation_data()
    if Xv.shape[0] == 0:
        raise InvalidInputError("validation rows are required to rank checkpoints")
    state.cycle += 1
    accs: list[Optional[float]] = [None] * state.spec.size
    for i in state.trainable():
        fresh = MlpModel.initialize(state.spec.members[i])
        trained, _ = numkit.train_supervised(fresh, (X, y), cfgs[i], derive_seed(seed, i))
        accs[i] = state.offer(i, trained, Xv, yv, state.cycle)
    return accs


# ── committee outputs ────────────────────────────────────────────────


def _vote_counts(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-row int64 vote counts per class from hard votes: (members, n) -> (n, C)."""
    if labels.ndim != 2:
        raise InvalidInputError(f"expected (members, rows) labels, got shape {labels.shape}")
    n = labels.shape[1]
    counts = np.zeros((n, num_classes), dtype=np.int64)
    for row in labels:
        counts[np.arange(n), row] += 1
    return counts


def label_frequencies(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-row class frequency vectors from hard votes: (members, n) -> (n, C).

    Row j of the result is the fraction of members voting each class on
    sample j, so each row sums to 1.
    """
    labels = np.asarray(labels)
    return _vote_counts(labels, num_classes) / labels.shape[0]


def majority_vote(labels: np.ndarray, consensus: np.ndarray) -> np.ndarray:
    """Per-row majority label (more than half the votes); rows without a
    majority fall back to the argmax of the consensus distribution."""
    labels = np.asarray(labels)
    consensus = np.asarray(consensus, dtype=np.float64)
    k, n = labels.shape
    if consensus.shape[0] != n:
        raise InvalidInputError("consensus rows must match label columns")
    # whole counts: a float frequency times k can land just below k // 2 + 1
    counts = _vote_counts(labels, consensus.shape[1])
    top = np.argmax(counts, axis=1)
    need = k // 2 + 1
    out = np.where(counts[np.arange(n), top] >= need, top, np.argmax(consensus, axis=1))
    return out.astype(np.int64)


def committee_vote(probs: np.ndarray) -> np.ndarray:
    """The committee's decision from its (members, rows, classes) softmax:
    each row's majority label, else the argmax of the mean distribution."""
    return majority_vote(np.argmax(probs, axis=2), probs.mean(axis=0))


def ensemble_predict(models: list[MlpModel], X) -> np.ndarray:
    """Majority-vote labels with consensus fallback."""
    return committee_vote(np.stack([numkit.probs_batch(m, X) for m in models]))


# ── persistence ──────────────────────────────────────────────────────


def save_ensemble(state: EnsembleState, directory) -> None:
    """Best checkpoints to member{i}_best.ckpt plus an index.txt manifest."""
    models = state.best_models()
    os.makedirs(directory, exist_ok=True)
    lines = [f"members {state.spec.size} cycle {state.cycle}"]
    for i, (model, ckpt) in enumerate(zip(models, state.best)):
        numkit.save_model(model, os.path.join(directory, f"member{i}_best.ckpt"))
        lines.append(f"{i} {ckpt.val_accuracy!r} {ckpt.cycle}")  # type: ignore[union-attr]
    with open(os.path.join(directory, "index.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_ensemble(directory) -> EnsembleState:
    """Rebuild an ensemble from saved best checkpoints. Loaded states serve
    scoring and evaluation; member init seeds are not persisted."""
    index_path = os.path.join(directory, "index.txt")
    try:
        with open(index_path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise InvalidInputError(f"cannot read ensemble index: {exc}") from exc
    if not lines:
        raise InvalidInputError(f"ensemble index {index_path} is empty")
    header = lines[0].split()
    # a wrong layout, a non-numeric field and a value that save_ensemble never
    # writes (an accuracy outside [0, 1], a negative cycle) get the same error
    try:
        if len(header) != 4 or header[0] != "members" or header[2] != "cycle":
            raise ValueError
        size, cycle = int(header[1]), int(header[3])
        if cycle < 0:
            raise ValueError
    except ValueError:
        raise InvalidInputError(f"malformed ensemble index header: {lines[0]!r}") from None
    if len(lines) != size + 1:
        raise InvalidInputError("ensemble index member count mismatch")
    checkpoints: list[Optional[BestCheckpoint]] = []
    for i, line in enumerate(lines[1:]):
        fields = line.split()
        try:
            if len(fields) != 3 or int(fields[0]) != i:
                raise ValueError
            val_accuracy, best_cycle = float(fields[1]), int(fields[2])
            if not 0 <= val_accuracy <= 1 or best_cycle < 0:  # NaN fails too
                raise ValueError
        except ValueError:
            raise InvalidInputError(f"malformed ensemble index line: {line!r}") from None
        model = numkit.load_model(os.path.join(directory, f"member{i}_best.ckpt"))
        checkpoints.append(BestCheckpoint(model, val_accuracy, best_cycle))
    try:
        spec = EnsembleSpec(tuple(b.model.spec for b in checkpoints))
    except InvalidConfigError as exc:
        raise InvalidInputError(f"malformed ensemble index {index_path}: {exc} ({lines[0]!r})") from None
    state = EnsembleState(spec)
    state.best = checkpoints
    state.cycle = cycle
    return state
