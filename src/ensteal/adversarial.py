"""Gradient attacks on substitute models and transfer measurement.

L-infinity PGD: optional uniform random start, sign-gradient steps each
projected onto the ball. PGD and its random-sign baseline check rows with
numkit.as_batch, the one row rule, before the epsilon-0 identity. One
transferability call measures a member: it attacks the first n_eval rows,
labels them once, and replays PGD's rows and the baseline's corner noise
of equal radius on a second model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numkit
from .datapool import write_csv
from .errors import AttackFailedError, InvalidConfigError
from .numkit import MlpModel
from .seeding import mask64

# what a transfer rate divides by: the source-fooled rows, or every row
DENOMINATORS = ("source_fooled", "all")


@dataclass(frozen=True)
class PgdConfig:
    """The adversarial recipe: PGD's settings, the rows attacked and the
    transfer rate's denominator (one of DENOMINATORS)."""

    epsilon: float
    steps: int = 20
    step_size: Optional[float] = None  # defaults to 2.5 * epsilon / steps
    random_start: bool = True
    n_eval: int = 200
    denominator: str = "source_fooled"

    def __post_init__(self):
        if self.n_eval < 1:
            raise InvalidConfigError("n_eval must be positive")
        if self.denominator not in DENOMINATORS:
            raise InvalidConfigError(f"denominator must be {' or '.join(DENOMINATORS)}")
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


def pgd_attack_batch(model: MlpModel, X, y, cfg: PgdConfig, seed: int = 0) -> np.ndarray:
    """Adversarial copies of X targeting higher loss on the true labels.

    Every step moves along the sign of each sample's own input gradient and
    projects back into the epsilon ball around the original row; the random
    start is drawn from seed. epsilon 0 returns X unchanged.
    """
    X = numkit.as_batch(model, X)
    y = numkit.as_class_labels(model, y, X.shape[0])
    if cfg.epsilon == 0.0:
        return X.copy()
    lo = X - cfg.epsilon
    hi = X + cfg.epsilon
    if cfg.random_start:
        rng = np.random.default_rng(mask64(seed))
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


def random_sign_perturbation(model: MlpModel, X, cfg: PgdConfig, seed: int = 0) -> np.ndarray:
    """Baseline noise: each coordinate of X moves by exactly +-cfg.epsilon,
    signs drawn uniformly from seed."""
    X = numkit.as_batch(model, X)
    if cfg.epsilon == 0.0:
        return X.copy()
    rng = np.random.default_rng(mask64(seed))
    signs = rng.integers(0, 2, size=X.shape) * 2 - 1
    return X + cfg.epsilon * signs


# ── transfer measurement ─────────────────────────────────────────────


@dataclass
class TransferResult:
    n: int
    source_fooled: int
    both_fooled: int
    transfer_rate: Optional[float]  # None when the denominator is empty
    random_transfer_rate: Optional[float]  # the baseline's; None also without one
    clean_source_acc: float
    clean_target_acc: float
    adv_source_acc: float
    adv_target_acc: float
    clean_source_labels: np.ndarray
    clean_target_labels: np.ndarray
    adv_source_labels: np.ndarray
    adv_target_labels: np.ndarray


def _replay(source: MlpModel, target: MlpModel, X_adv: np.ndarray, y: np.ndarray, denominator: str):
    """Both models' labels on X_adv, the source-fooled and both-fooled
    counts, and the transfer rate over the denominator."""
    adv_src, adv_tgt = numkit.predict_batch(source, X_adv), numkit.predict_batch(target, X_adv)
    src_fooled = adv_src != y
    fooled, both = int(src_fooled.sum()), int((src_fooled & (adv_tgt != y)).sum())
    if denominator == "all":
        return adv_src, adv_tgt, fooled, both, both / len(y)
    return adv_src, adv_tgt, fooled, both, both / fooled if fooled else None


def transferability(
    source: MlpModel,
    target: MlpModel,
    X,
    y,
    cfg: PgdConfig,
    seed: int = 0,
    baseline_seed: Optional[int] = None,
) -> TransferResult:
    """How often PGD rows crafted on the source's first cfg.n_eval rows
    also fool the target. A model is fooled when its label differs from the
    true one; the rate divides by the source-fooled rows (None if there are
    none) or, under denominator "all", by every row. Given baseline_seed,
    the random-sign baseline is replayed too. A target of another
    (input_dim, num_classes) is refused before the attack."""
    numkit.check_shape(target, (source.spec.input_dim, source.spec.num_classes), "target", "the source")
    X = numkit.as_batch(source, X)
    y = numkit.as_class_labels(source, y, X.shape[0])
    X, y = X[: cfg.n_eval], y[: cfg.n_eval]
    adv_src, adv_tgt, fooled, both, rate = _replay(
        source, target, pgd_attack_batch(source, X, y, cfg, seed), y, cfg.denominator
    )
    random_rate = None
    if baseline_seed is not None:
        X_rand = random_sign_perturbation(source, X, cfg, baseline_seed)
        random_rate = _replay(source, target, X_rand, y, cfg.denominator)[-1]
    clean_src, clean_tgt = numkit.predict_batch(source, X), numkit.predict_batch(target, X)
    return TransferResult(
        n=len(y),
        source_fooled=fooled,
        both_fooled=both,
        transfer_rate=rate,
        random_transfer_rate=random_rate,
        clean_source_acc=float(np.mean(clean_src == y)),
        clean_target_acc=float(np.mean(clean_tgt == y)),
        adv_source_acc=float(np.mean(adv_src == y)),
        adv_target_acc=float(np.mean(adv_tgt == y)),
        clean_source_labels=clean_src,
        clean_target_labels=clean_tgt,
        adv_source_labels=adv_src,
        adv_target_labels=adv_tgt,
    )


TRANSFER_CSV_HEADER = ("sample_index", "clean_src", "clean_victim", "adv_src", "adv_victim")


def write_transfer_csv(path, result: TransferResult) -> None:
    """Per-sample predicted labels, one row per attacked input."""
    cols = (result.clean_source_labels, result.clean_target_labels, result.adv_source_labels, result.adv_target_labels)
    write_csv(path, TRANSFER_CSV_HEADER, ([i, *(int(c[i]) for c in cols)] for i in range(result.n)))
