"""The model under attack, wrapped behind a hard-label budgeted oracle.

The oracle answers argmax labels only. Every answered input burns budget
through a single atomic ledger: a batch either fits in the remaining budget
and is charged once, or the whole call is rejected and nothing changes.
Confidence vectors, logits, and the underlying model never cross this
boundary; experiment code that wants ground-truth metrics must keep its own
reference to the raw model.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import numkit
from .datapool import Dataset, PoolState
from .errors import BudgetExhaustedError, InvalidConfigError, InvalidInputError
from .numkit import MlpModel, MlpSpec, SgdConfig
from .seeding import derive_seed


@dataclass(frozen=True)
class VictimRecipe:
    """How the target model is built and fit. The defaults are the reference
    victim: two relu layers of 64, lr 0.1 with momentum 0.5, decayed 10x
    every 30 epochs, no weight decay, 200 epochs of batches of 64."""

    hidden_layers: tuple[int, ...] = (64, 64)
    activation: str = "relu"
    base_lr: float = 0.1
    momentum: float = 0.5
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 30
    weight_decay: float = 0.0
    epochs: int = 200
    batch_size: int = 64

    def __post_init__(self):
        self.sgd()
        self.spec(1, 2, 0)

    def sgd(self) -> SgdConfig:
        return SgdConfig(**{f.name: getattr(self, f.name) for f in fields(SgdConfig)})

    def spec(self, input_dim: int, num_classes: int, rng_seed: int) -> MlpSpec:
        return MlpSpec(input_dim, self.hidden_layers, num_classes, self.activation, rng_seed)


def train_victim(
    train: Dataset,
    test: Optional[Dataset],
    recipe: VictimRecipe,
    seed: int,
    num_classes: Optional[int] = None,
) -> tuple[MlpModel, Optional[float]]:
    """Fit the target model on labeled data; returns (model, test accuracy).
    num_classes defaults to the largest training label plus one. A test set
    that could not be scored is refused before the first epoch."""
    if train.labels is None:
        raise InvalidInputError("victim training data must be labeled")
    if test is not None and test.labels is None:
        raise InvalidInputError("test data must be labeled")
    if num_classes is None:
        num_classes = int(train.labels.max()) + 1
    model = MlpModel.initialize(recipe.spec(train.dim, num_classes, derive_seed(seed, 0)))
    if test is not None:  # its width and label range, as accuracy() will check them
        numkit.as_batch(model, test.features)
        numkit.as_class_labels(model, test.labels, test.n)
    model, _ = numkit.train_supervised(model, (train.features, train.labels), recipe.sgd(), derive_seed(seed, 1))
    acc = None if test is None else numkit.accuracy(model, test.features, test.labels)
    return model, acc


# ── budget ledger ────────────────────────────────────────────────────


@dataclass
class QueryBudget:
    """Monotone spend counter with an immutable ceiling."""

    total: int
    spent: int = 0

    def __post_init__(self):
        if self.total < 0:
            raise InvalidConfigError("budget total must be nonnegative")
        if not 0 <= self.spent <= self.total:
            raise InvalidConfigError("spent must lie in [0, total]")

    @property
    def remaining(self) -> int:
        return self.total - self.spent

    def charge(self, n: int) -> None:
        """Spend n queries, atomically: rejects leave the counter untouched."""
        if n < 1:
            raise InvalidInputError("charge must be positive")
        if n > self.remaining:
            raise BudgetExhaustedError(
                f"query budget exhausted: need {n}, have {self.remaining} of {self.total}"
            )
        self.spent += n


def _row_hash(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype=np.float64).tobytes()).hexdigest()[:16]


class VictimOracle:
    """Hard-label query interface with budget accounting and an audit log.

    The log records (input hash, answered label) in answer order. All entry
    points charge the ledger under one lock, so concurrent callers cannot
    overspend even when their requests interleave.
    """

    def __init__(self, model: MlpModel, budget: QueryBudget):
        self._model = model
        self._budget = budget
        self._lock = threading.Lock()
        self.query_log: list[tuple[str, int]] = []

    def budget_remaining(self) -> int:
        with self._lock:
            return self._budget.remaining

    def predict_batch(self, X) -> np.ndarray:
        """Answer a batch of inputs, all or nothing: the batch is charged
        once, and a batch that does not fit the budget changes nothing."""
        X = numkit.as_batch(self._model, X)  # a bad batch charges nothing
        with self._lock:
            self._budget.charge(X.shape[0])
            labels = numkit.predict_batch(self._model, X)
            self.query_log.extend(zip(map(_row_hash, X), labels.tolist()))
        return labels

    def query_labels(self, indices, pool_state: PoolState) -> np.ndarray:
        """Label unlabeled pool rows with one charged batch (PoolState.query)."""
        return pool_state.query(indices, self.predict_batch)
