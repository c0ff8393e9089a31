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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numkit
from .datapool import Dataset, PoolState
from .errors import BudgetExhaustedError, InvalidConfigError, InvalidInputError
from .numkit import MlpModel, MlpSpec, SgdConfig
from .seeding import derive_seed

DEFAULT_VICTIM_HIDDEN = (64, 64)


def default_victim_sgd(epochs: int = 200, batch_size: int = 64) -> SgdConfig:
    """Reference victim recipe: lr 0.1 with momentum 0.5, decayed 10x every
    30 epochs, no weight decay."""
    return SgdConfig(
        base_lr=0.1,
        momentum=0.5,
        lr_decay_factor=0.1,
        lr_decay_every=30,
        weight_decay=0.0,
        epochs=epochs,
        batch_size=batch_size,
    )


def train_victim(
    train: Dataset,
    test: Optional[Dataset] = None,
    spec: Optional[MlpSpec] = None,
    cfg: Optional[SgdConfig] = None,
    seed: int = 0,
) -> tuple[MlpModel, Optional[float]]:
    """Fit the target model on labeled data; returns (model, test accuracy)."""
    if train.labels is None:
        raise InvalidInputError("victim training data must be labeled")
    if spec is None:
        num_classes = int(train.labels.max()) + 1
        spec = MlpSpec(
            input_dim=train.dim,
            hidden_layers=DEFAULT_VICTIM_HIDDEN,
            num_classes=num_classes,
            activation="relu",
            rng_seed=derive_seed(seed, 0),
        )
    if cfg is None:
        cfg = default_victim_sgd()
    model = MlpModel.initialize(spec)
    model, _ = numkit.train_supervised(model, (train.features, train.labels), cfg, derive_seed(seed, 1))
    acc = None
    if test is not None:
        if test.labels is None:
            raise InvalidInputError("test data must be labeled")
        acc = numkit.accuracy(model, test.features, test.labels)
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

    @property
    def num_classes(self) -> int:
        return self._model.spec.num_classes

    @property
    def input_dim(self) -> int:
        return self._model.spec.input_dim

    def budget_remaining(self) -> int:
        with self._lock:
            return self._budget.remaining

    def predict_batch(self, X) -> np.ndarray:
        """Answer a batch of inputs, all or nothing: the batch is charged
        once, and a batch that does not fit the budget changes nothing."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] != self.input_dim:
            raise InvalidInputError(
                f"expected a nonempty (n, {self.input_dim}) feature batch, got shape {X.shape}"
            )
        if not np.all(np.isfinite(X)):
            raise InvalidInputError("feature batch contains non-finite values")
        with self._lock:
            self._budget.charge(X.shape[0])
            labels = numkit.predict_batch(self._model, X)
            self.query_log.extend(zip(map(_row_hash, X), labels.tolist()))
        return labels

    def query_labels(self, indices, pool_state: PoolState) -> np.ndarray:
        """Label unlabeled pool rows with one charged batch (PoolState.query)."""
        return pool_state.query(indices, self.predict_batch)
