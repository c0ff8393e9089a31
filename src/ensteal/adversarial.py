"""Gradient attacks on substitute models and transfer measurement.

Projected gradient descent under an L-infinity ball: optional uniform
random start, fixed sign-gradient steps, projection back onto the ball
after every step. Crafted inputs are then replayed against a second model
to measure how often fooling the source also fools the target; the
companion baseline replaces the crafted perturbation with uniform random
corner noise of the same radius.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numkit
from .errors import AttackFailedError, InvalidConfigError, InvalidInputError
from .numkit import MlpModel
from .seeding import mask64

# what a transfer rate divides by: the source-fooling rows, or every row
DENOMINATORS = ("source_fooled", "all")


@dataclass(frozen=True)
class PgdConfig:
    epsilon: float
    steps: int = 20
    step_size: Optional[float] = None  # defaults to 2.5 * epsilon / steps
    random_start: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.epsilon < math.inf:
            raise InvalidConfigError(f"epsilon must be finite and nonnegative, got {self.epsilon!r}")
        if self.steps < 1:
            raise InvalidConfigError("steps must be positive")
        if self.step_size is not None and not 0 < self.step_size < math.inf:
            raise InvalidConfigError(f"step_size must be finite and positive, got {self.step_size!r}")

    @property
    def resolved_step(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return 2.5 * self.epsilon / self.steps


def pgd_attack_batch(model: MlpModel, X, y, cfg: PgdConfig) -> np.ndarray:
    """Adversarial copies of X targeting higher loss on the true labels.

    Every step moves along the sign of each sample's own input gradient and
    projects back into the epsilon ball around the original row. epsilon 0
    returns X unchanged.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidInputError(f"expected a feature matrix, got shape {X.shape}")
    y = numkit.as_class_labels(model, y, X.shape[0])
    if cfg.epsilon == 0.0:
        return X.copy()
    lo = X - cfg.epsilon
    hi = X + cfg.epsilon
    if cfg.random_start:
        rng = np.random.default_rng(mask64(cfg.seed))
        adv = X + rng.uniform(-cfg.epsilon, cfg.epsilon, size=X.shape)
    else:
        adv = X.copy()
    alpha = cfg.resolved_step
    for _ in range(cfg.steps):
        grads = numkit.input_grad_batch(model, adv, y)
        if not np.all(np.isfinite(grads)):
            raise AttackFailedError("non-finite input gradient during attack")
        adv = np.clip(adv + alpha * np.sign(grads), lo, hi)
    return adv


def random_sign_perturbation(X, epsilon: float, seed: int = 0) -> np.ndarray:
    """Baseline noise: each coordinate moves by exactly +-epsilon, signs
    drawn uniformly."""
    X = np.asarray(X, dtype=np.float64)
    if not 0 <= epsilon < math.inf:
        raise InvalidConfigError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    if epsilon == 0.0:
        return X.copy()
    rng = np.random.default_rng(mask64(seed))
    signs = rng.integers(0, 2, size=X.shape) * 2 - 1
    return X + epsilon * signs


# ── transfer measurement ─────────────────────────────────────────────


@dataclass
class TransferResult:
    n: int
    source_fooled: int
    both_fooled: int
    transfer_rate: Optional[float]  # None when the denominator is empty
    clean_source_acc: float
    clean_target_acc: float
    adv_source_acc: float
    adv_target_acc: float
    clean_source_labels: np.ndarray
    clean_target_labels: np.ndarray
    adv_source_labels: np.ndarray
    adv_target_labels: np.ndarray


def transfer_from_adversarials(
    source: MlpModel,
    target: MlpModel,
    X,
    y,
    X_adv,
    denominator: str = "source_fooled",
) -> TransferResult:
    """How often inputs that fool the source also fool the target.

    A model is fooled when its label on the crafted row differs from the
    true label. The default rate divides by the number of source-fooling
    rows and is None when that count is zero; denominator="all" divides by
    the full row count instead.
    """
    if denominator not in DENOMINATORS:
        raise InvalidConfigError(f"unknown denominator {denominator!r}")
    X = np.asarray(X, dtype=np.float64)
    X_adv = np.asarray(X_adv, dtype=np.float64)
    if X.shape != X_adv.shape:
        raise InvalidInputError("clean and adversarial matrices must align")
    n = X.shape[0]
    y = numkit.as_class_labels(source, y, n)
    numkit.as_class_labels(target, y, n)
    clean_src = numkit.predict_batch(source, X)
    clean_tgt = numkit.predict_batch(target, X)
    adv_src = numkit.predict_batch(source, X_adv)
    adv_tgt = numkit.predict_batch(target, X_adv)
    src_fooled = adv_src != y
    both = src_fooled & (adv_tgt != y)
    if denominator == "all":
        rate: Optional[float] = float(both.sum() / n)
    elif src_fooled.sum() == 0:
        rate = None
    else:
        rate = float(both.sum() / src_fooled.sum())
    return TransferResult(
        n=n,
        source_fooled=int(src_fooled.sum()),
        both_fooled=int(both.sum()),
        transfer_rate=rate,
        clean_source_acc=float(np.mean(clean_src == y)),
        clean_target_acc=float(np.mean(clean_tgt == y)),
        adv_source_acc=float(np.mean(adv_src == y)),
        adv_target_acc=float(np.mean(adv_tgt == y)),
        clean_source_labels=clean_src,
        clean_target_labels=clean_tgt,
        adv_source_labels=adv_src,
        adv_target_labels=adv_tgt,
    )


def transferability(
    source: MlpModel,
    target: MlpModel,
    X,
    y,
    cfg: PgdConfig,
    denominator: str = "source_fooled",
) -> TransferResult:
    """Craft on the source with PGD, then measure transfer to the target."""
    X_adv = pgd_attack_batch(source, X, y, cfg)
    return transfer_from_adversarials(source, target, X, y, X_adv, denominator)


TRANSFER_CSV_HEADER = ("sample_index", "clean_src", "clean_victim", "adv_src", "adv_victim")


def write_transfer_csv(path, result: TransferResult) -> None:
    """Per-sample predicted labels, one row per attacked input."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRANSFER_CSV_HEADER)
        for i in range(result.n):
            writer.writerow(
                [
                    i,
                    int(result.clean_source_labels[i]),
                    int(result.clean_target_labels[i]),
                    int(result.adv_source_labels[i]),
                    int(result.adv_target_labels[i]),
                ]
            )
