"""The model under attack, wrapped behind a hard-label budgeted oracle.

The oracle answers argmax labels only. The budget ledger lives in the
oracle (VictimOracle(model, budget)), behind its one lock: a batch either
fits in the remaining budget, is answered and is charged once, or the whole
call is rejected and nothing changes.
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
from .datapool import Dataset, PoolState, is_integer
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
    if train.n == 0:
        raise InvalidInputError("victim training data has no rows")
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


def _row_hash(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype=np.float64).tobytes()).hexdigest()[:16]


class VictimOracle:
    """Hard-label query interface with its budget ledger and an audit log.

    The oracle owns the ledger: `budget` queries in total, spent only under
    the oracle's one lock, so concurrent callers cannot overspend even when
    their requests interleave. The log records (input hash, answered label)
    in answer order.
    """

    def __init__(self, model: MlpModel, budget: int):
        if not is_integer(budget):
            raise InvalidConfigError(f"budget total must be an integer, got {budget!r}")
        if budget < 0:
            raise InvalidConfigError("budget total must be nonnegative")
        self._model = model
        self._total = int(budget)
        self._spent = 0
        self._lock = threading.Lock()
        self.query_log: list[tuple[str, int]] = []

    @property
    def budget_total(self) -> int:
        return self._total

    @property
    def input_dim(self) -> int:
        return self._model.spec.input_dim

    def budget_remaining(self) -> int:
        with self._lock:
            return self._total - self._spent

    def predict_batch(self, X) -> np.ndarray:
        """Answer a batch of inputs, all or nothing: a batch that does not
        fit the budget, or that the model fails to answer, changes nothing;
        an answered batch is charged once and logged."""
        X = numkit.as_batch(self._model, X)  # a bad batch charges nothing
        n = X.shape[0]
        with self._lock:
            remaining = self._total - self._spent
            if n > remaining:
                raise BudgetExhaustedError(f"query budget exhausted: need {n}, have {remaining} of {self._total}")
            labels = numkit.predict_batch(self._model, X)
            self._spent += n
            self.query_log.extend(zip(map(_row_hash, X), labels.tolist()))
        return labels

    def query_labels(self, indices, pool_state: PoolState) -> np.ndarray:
        """Label unlabeled pool rows with one charged batch (PoolState.query)."""
        return pool_state.query(indices, self.predict_batch)
