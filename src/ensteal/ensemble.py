"""Heterogeneous committee of substitute models.

The attacker trains several MLPs of different capacities on the same stolen
labels. Each refresh retrains every member from its seeded initialization on
the current labeled set (no warm start), scores it on the held-out
validation rows, and keeps the best checkpoint seen so far per member.
Committee outputs (mean probabilities, label frequency vectors, majority
vote) always come from those best checkpoints. A checkpoint's softmax over
a fixed matrix (the attack pool, the test set) is computed once and kept on
the checkpoint; replacing a checkpoint starts it with no stored outputs.
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
VICTIM_ARCH_INDEX = 2


@dataclass(frozen=True)
class EnsembleSpec:
    """Member architectures plus which member, if any, mirrors the victim."""

    members: tuple[MlpSpec, ...]
    victim_arch_index: Optional[int] = None

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
        if self.victim_arch_index is not None and not 0 <= self.victim_arch_index < len(self.members):
            raise InvalidConfigError("victim_arch_index out of range")

    @property
    def size(self) -> int:
        return len(self.members)


def make_default_ensemble(
    input_dim: int,
    num_classes: int,
    rng_seed: int = 0,
    activation: str = "relu",
    hidden_profile: tuple[tuple[int, ...], ...] = DEFAULT_HIDDEN_PROFILE,
    victim_arch_index: Optional[int] = VICTIM_ARCH_INDEX,
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
    if victim_arch_index is not None and victim_arch_index >= len(members):
        victim_arch_index = None
    return EnsembleSpec(members, victim_arch_index)


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


class EnsembleState:
    """Current members, their best checkpoints, and the refresh counter."""

    def __init__(self, spec: EnsembleSpec):
        self.spec = spec
        self.current: list[MlpModel] = [MlpModel.initialize(m) for m in spec.members]
        self.best: list[Optional[BestCheckpoint]] = [None] * spec.size
        self.cycle = 0

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
) -> list[float]:
    """One committee refresh on the oracle-labeled rows.

    Every member restarts from its spec's seeded initialization and trains
    with its own config; shuffle seeds derive from (seed, member index), so
    distinct cycles see distinct batch orders. Members whose validation
    accuracy strictly improves replace their best checkpoint. Returns the
    per-member validation accuracies of this refresh.
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
    accs: list[float] = []
    for i, member_spec in enumerate(state.spec.members):
        fresh = MlpModel.initialize(member_spec)
        trained, _ = numkit.train_supervised(fresh, (X, y), cfgs[i], derive_seed(seed, i))
        acc = numkit.accuracy(trained, Xv, yv)
        state.current[i] = trained
        prev = state.best[i]
        if prev is None or acc > prev.val_accuracy:
            state.best[i] = BestCheckpoint(trained.copy(), acc, state.cycle)
        accs.append(acc)
    return accs


# ── committee outputs ────────────────────────────────────────────────


def member_probs_matrix(models: list[MlpModel], X) -> np.ndarray:
    """(members, rows, classes) stack of softmax outputs."""
    if not models:
        raise InvalidInputError("no models given")
    return np.stack([numkit.probs_batch(m, X) for m in models])


def consensus_mean(probs: np.ndarray) -> np.ndarray:
    """Mean class distribution over members: (members, n, C) -> (n, C)."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 3:
        raise InvalidInputError(f"expected (members, rows, classes), got shape {probs.shape}")
    return probs.mean(axis=0)


def label_frequencies(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-row class frequency vectors from hard votes: (members, n) -> (n, C).

    Row j of the result is the fraction of members voting each class on
    sample j, so each row sums to 1.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise InvalidInputError(f"expected (members, rows) labels, got shape {labels.shape}")
    k, n = labels.shape
    freq = np.zeros((n, num_classes), dtype=np.float64)
    for row in labels:
        freq[np.arange(n), row] += 1.0
    return freq / k


def majority_vote(labels: np.ndarray, consensus: np.ndarray) -> np.ndarray:
    """Per-row majority label (more than half the votes); rows without a
    majority fall back to the argmax of the consensus distribution."""
    labels = np.asarray(labels)
    consensus = np.asarray(consensus, dtype=np.float64)
    k, n = labels.shape
    if consensus.shape[0] != n:
        raise InvalidInputError("consensus rows must match label columns")
    freq = label_frequencies(labels, consensus.shape[1])
    counts = freq * k
    top = np.argmax(counts, axis=1)
    need = k // 2 + 1
    out = np.where(counts[np.arange(n), top] >= need, top, np.argmax(consensus, axis=1))
    return out.astype(np.int64)


def ensemble_predict(models: list[MlpModel], X) -> np.ndarray:
    """Majority-vote labels with consensus fallback."""
    probs = member_probs_matrix(models, X)
    return majority_vote(np.argmax(probs, axis=2), consensus_mean(probs))


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


def load_ensemble(directory, victim_arch_index: Optional[int] = None) -> EnsembleState:
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
    if len(header) != 4 or header[0] != "members" or header[2] != "cycle":
        raise InvalidInputError(f"malformed ensemble index header: {lines[0]!r}")
    size, cycle = int(header[1]), int(header[3])
    if len(lines) != size + 1:
        raise InvalidInputError("ensemble index member count mismatch")
    models: list[MlpModel] = []
    checkpoints: list[BestCheckpoint] = []
    for i in range(size):
        fields = lines[i + 1].split()
        if len(fields) != 3 or int(fields[0]) != i:
            raise InvalidInputError(f"malformed ensemble index line: {lines[i + 1]!r}")
        model = numkit.load_model(os.path.join(directory, f"member{i}_best.ckpt"))
        models.append(model)
        checkpoints.append(BestCheckpoint(model, float(fields[1]), int(fields[2])))
    spec = EnsembleSpec(tuple(m.spec for m in models), victim_arch_index)
    state = EnsembleState.__new__(EnsembleState)
    state.spec = spec
    state.current = [m.copy() for m in models]
    state.best = list(checkpoints)
    state.cycle = cycle
    return state
