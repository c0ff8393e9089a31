"""Heterogeneous committee of substitute models.

The attacker trains several MLPs of different capacities on the same stolen
labels. Each refresh retrains the members from their seeded initialization
on the current labeled set (no warm start) and keeps one best checkpoint per
member. EnsembleState holds the one loop over members (refit) and the one
checkpoint rule that refreshes and semi-supervised fine-tuning share: a
trained model replaces a checkpoint only if it scores strictly better on the
held-out validation rows, so a member already at 1.0 is not trained at all,
since no output could see it.
Committee outputs always come from those best checkpoints, and vote_counts
is the one count of their hard votes. Members infer in float32
(MEMBER_DTYPE), the precision they train in, for their stored outputs and
their validation score alike. A checkpoint's float32 softmax over a fixed
matrix (the attack pool, the validation and test rows) is computed once and
kept on the checkpoint; replacing a checkpoint starts it with no stored
outputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import numkit
from .datapool import Dataset, PoolState, read_text, write_lines
from .errors import InvalidConfigError, InvalidInputError, TrainingDivergedError
from .numkit import MlpModel, MlpSpec, SgdConfig
from .seeding import derive_seed

# Members train in float32 (numkit.sgd_epoch), so they infer in float32 too.
MEMBER_DTYPE = np.float32


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


@dataclass(frozen=True)
class EnsembleRecipe:
    """How the committee is built and fit. The default capacity ladder has
    five members, and its (64, 64) member matches the reference victim's
    architecture. Every member trains with momentum 0.9 and its lr decayed
    10x every 30 epochs: lr 0.01 for the smallest-capacity member and 0.02
    for the rest."""

    hidden_profile: tuple[tuple[int, ...], ...] = ((8,), (32,), (64, 64), (128, 64), (256, 128, 64))
    activation: str = "relu"
    epochs: int = 30
    batch_size: int = 64

    def __post_init__(self):
        # built without spec(): its seed derivation would import numpy.random
        # while the config is parsed, and the checks do not read the seeds
        self.sgd(EnsembleSpec(tuple(MlpSpec(1, hidden, 2, self.activation) for hidden in self.hidden_profile)))

    def spec(self, input_dim: int, num_classes: int, rng_seed: int) -> EnsembleSpec:
        """Member i is initialized from derive_seed(rng_seed, i)."""
        return EnsembleSpec(
            tuple(
                MlpSpec(input_dim, hidden, num_classes, self.activation, derive_seed(rng_seed, i))
                for i, hidden in enumerate(self.hidden_profile)
            )
        )

    def sgd(self, spec: EnsembleSpec) -> list[SgdConfig]:
        """One SGD config per member of spec."""
        smallest = int(np.argmin([m.param_count() for m in spec.members]))
        return [
            SgdConfig(
                base_lr=0.01 if i == smallest else 0.02,
                momentum=0.9,
                lr_decay_factor=0.1,
                lr_decay_every=30,
                weight_decay=0.0,
                epochs=self.epochs,
                batch_size=self.batch_size,
            )
            for i in range(spec.size)
        ]


@dataclass
class BestCheckpoint:
    model: MlpModel
    val_accuracy: float
    cycle: int
    # read-only (rows, classes) float32 softmax per Dataset, keyed by identity
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
        acc = numkit.accuracy(model, Xv, yv, MEMBER_DTYPE)
        prev = self.best[i]
        if prev is None or acc > prev.val_accuracy:
            self.best[i] = BestCheckpoint(model.copy(), acc, cycle)
        return acc

    def refit(self, pool_state: PoolState, cycle: int, fit: Callable[[int], MlpModel]) -> list[Optional[float]]:
        """The one loop over members: fit(i) trains each trainable() member,
        and every result is offered dated cycle once all are fit, so a
        divergence (raised naming the member) changes no checkpoint. Returns
        the validation accuracies, None for a skipped member."""
        Xv, yv, _ = pool_state.validation_data()
        if Xv.shape[0] == 0:
            raise InvalidInputError("validation rows are required to rank checkpoints")
        trained = {}
        for i in self.trainable():
            try:
                trained[i] = fit(i)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(exc.epoch, f"member {i}") from None
        accs: list[Optional[float]] = [None] * self.spec.size
        for i, model in trained.items():
            accs[i] = self.offer(i, model, Xv, yv, cycle)
        return accs

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
                probs = numkit.probs_batch(b.model, data.features, MEMBER_DTYPE)
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
    """One committee refresh on the oracle-labeled rows: state.refit of every
    member from its spec's seeded initialization with its own config, and
    shuffle seeds from (seed, member index). state.cycle advances on success."""
    if len(cfgs) != state.spec.size:
        raise InvalidConfigError("one SGD config per member required")
    X, y, _ = pool_state.labeled_data()
    if X.shape[0] == 0:
        raise InvalidInputError("no labeled rows to train on")

    def member_fit(i: int) -> MlpModel:
        fresh = MlpModel.initialize(state.spec.members[i])
        return numkit.train_supervised(fresh, (X, y), cfgs[i], derive_seed(seed, i))[0]

    accs = state.refit(pool_state, state.cycle + 1, member_fit)
    state.cycle += 1
    return accs


# ── committee outputs ────────────────────────────────────────────────


def vote_counts(probs: np.ndarray) -> np.ndarray:
    """The one vote count: (members, rows, classes) softmax -> (rows, classes)
    int64 count of members whose argmax is each class, lowest class on ties."""
    labels = np.argmax(probs, axis=2)
    n = labels.shape[1]
    counts = np.zeros((n, probs.shape[2]), dtype=np.int64)
    for row in labels:
        counts[np.arange(n), row] += 1
    return counts


def committee_vote(probs: np.ndarray) -> np.ndarray:
    """The committee's decision from its (members, rows, classes) softmax: a
    row's label with more than half the votes, else the mean's argmax."""
    counts = vote_counts(probs)
    top = np.argmax(counts, axis=1)
    majority = counts[np.arange(counts.shape[0]), top] > probs.shape[0] // 2
    # the exact float64 cast changes no label; its allocation moves glibc's mmap
    # threshold: without it desk_ref's peak RSS read 0.14-0.21 MB higher and
    # ssl_digits' 0.34-0.36 MB lower (3 pairs each, 2 vCPUs)
    return np.where(majority, top, np.argmax(np.asarray(probs.mean(axis=0), dtype=np.float64), axis=1))


# Kept only for the benchmark tracer (perfbench/spans.py); ROADMAP item 3 deletes it.
def ensemble_predict(models: list[MlpModel], X) -> np.ndarray:
    """Majority-vote labels with consensus fallback."""
    return committee_vote(np.stack([numkit.probs_batch(m, X, MEMBER_DTYPE) for m in models]))


# ── persistence ──────────────────────────────────────────────────────


def save_ensemble(state: EnsembleState, directory) -> None:
    """Best checkpoints to member{i}_best.ckpt plus an index.txt manifest."""
    models = state.best_models()
    os.makedirs(directory, exist_ok=True)
    lines = [f"members {state.spec.size} cycle {state.cycle}"]
    for i, (model, ckpt) in enumerate(zip(models, state.best)):
        numkit.save_model(model, os.path.join(directory, f"member{i}_best.ckpt"))
        lines.append(f"{i} {ckpt.val_accuracy!r} {ckpt.cycle}")  # type: ignore[union-attr]
    write_lines(os.path.join(directory, "index.txt"), lines)


def load_ensemble(directory) -> EnsembleState:
    """Rebuild an ensemble from saved best checkpoints. Loaded states serve
    scoring and evaluation; member init seeds are not persisted."""
    index_path = os.path.join(directory, "index.txt")
    try:
        lines = [ln.strip() for ln in read_text(index_path).split("\n") if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
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
