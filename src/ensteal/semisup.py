"""Pseudo-label harvesting and consistency training.

After the query budget is gone, the committee mines the remaining unlabeled
rows for inputs it is collectively sure about: a row is accepted when at
most a fixed number of members change their label under a weak
perturbation, every member agrees on the unperturbed label, and the least
confident member still clears a probability threshold. Accepted rows are
capped per class (most confident first) and become pseudo-labeled training
data.

The training stage then minimizes labeled loss plus a weighted pseudo loss,
where pseudo rows are strongly perturbed afresh every epoch, at a low fixed
learning rate. Checkpoints still only advance on validation improvement, so
a member already at 1.0 on validation is not fine-tuned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numkit
from .datapool import AugmentConfig, PoolState, strong_augment, weak_augment
from .ensemble import BestCheckpoint, EnsembleState
from .errors import InvalidConfigError, InvalidInputError
from .numkit import MlpModel
from .seeding import derive_seed, mask64


@dataclass(frozen=True)
class SslConfig:
    """Knobs for the filter and the consistency-training pass."""

    augment: AugmentConfig
    confidence_threshold: float = 0.9
    max_label_changes: int = 1
    per_class_cap: int = 100
    pseudo_loss_weight: float = 1.0
    lr: float = 0.002
    momentum: float = 0.9
    epochs: int = 30
    batch_size: int = 64

    def __post_init__(self):
        if not isinstance(self.augment, AugmentConfig):
            raise InvalidConfigError("augment must be an AugmentConfig")
        if not 0.0 < self.confidence_threshold <= 1.0:
            raise InvalidConfigError("confidence_threshold must lie in (0, 1]")
        if self.max_label_changes < 0:
            raise InvalidConfigError("max_label_changes must be nonnegative")
        if self.per_class_cap < 1:
            raise InvalidConfigError("per_class_cap must be positive")
        if self.pseudo_loss_weight < 0:
            raise InvalidConfigError("pseudo_loss_weight must be nonnegative")
        if self.lr <= 0:
            raise InvalidConfigError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfigError("momentum must lie in [0, 1)")
        if self.epochs < 1:
            raise InvalidConfigError("epochs must be positive")
        if self.batch_size < 1:
            raise InvalidConfigError("batch_size must be positive")


@dataclass(frozen=True)
class FilterRecord:
    """Audit row for one evaluated candidate."""

    label_changes: int
    unanimous: bool
    min_confidence: float


def _row_entropy(seed: int, aug_seed: int, rows: np.ndarray) -> np.ndarray:
    """Row j seeds the stream of default_rng((mask64(seed), mask64(aug_seed),
    rows[j])) without coercing a tuple per row, so any row's perturbation
    replays in isolation. Raises OverflowError for a row index >= 2**32."""
    prefix: list[int] = []
    for n in (mask64(seed), mask64(aug_seed)):
        # SeedSequence codes an int as its little-endian 32-bit words, at least one
        prefix += [n & 0xFFFFFFFF, n >> 32] if n >> 32 else [n]
    return np.array([prefix + [row] for row in rows.tolist()], dtype=np.uint32)


def ssl_filter(
    models: list[MlpModel],
    pool_state: PoolState,
    cfg: SslConfig,
    seed: int = 0,
) -> tuple[dict[int, int], dict[int, FilterRecord]]:
    """Score every unlabeled row and keep the stable, unanimous, confident ones.

    For each row x with weakly perturbed copy x': count members whose label
    flips between x and x', require at most cfg.max_label_changes flips,
    require all members to agree on the label of x itself, and require every
    member's probability for its own label on x to be at least the
    confidence threshold. Returns (accepted row -> label) plus an audit
    record for every evaluated row.
    """
    if not models:
        raise InvalidInputError("no models given")
    idx = pool_state.unlabeled_indices()
    if idx.size == 0:
        return {}, {}
    layout = pool_state.pool.layout
    Xu = pool_state.pool.features[idx]
    Xw = np.stack(
        [
            weak_augment(x, cfg.augment, layout, np.random.default_rng(words))
            for x, words in zip(Xu, _row_entropy(seed, cfg.augment.rng_seed, idx))
        ]
    )
    orig_probs = np.stack([numkit.probs_batch(m, Xu) for m in models])
    orig_labels = np.argmax(orig_probs, axis=2)
    aug_labels = np.stack([numkit.predict_batch(m, Xw) for m in models])

    changes = (orig_labels != aug_labels).sum(axis=0)
    unanimous = np.all(orig_labels == orig_labels[0], axis=0)
    own_conf = np.take_along_axis(orig_probs, orig_labels[:, :, None], axis=2)[:, :, 0]
    min_conf = own_conf.min(axis=0)
    keep = (changes <= cfg.max_label_changes) & unanimous & (min_conf >= cfg.confidence_threshold)

    selected: dict[int, int] = {}
    audit: dict[int, FilterRecord] = {}
    for j, i in enumerate(idx.tolist()):
        audit[i] = FilterRecord(int(changes[j]), bool(unanimous[j]), float(min_conf[j]))
        if keep[j]:
            selected[i] = int(orig_labels[0, j])
    return selected, audit


def apply_class_cap(
    selected: dict[int, int],
    audit: dict[int, FilterRecord],
    cap: int,
) -> dict[int, int]:
    """At most cap rows per class, keeping the highest minimum confidence;
    confidence ties keep the lower row index. Output is index-sorted."""
    if cap < 1:
        raise InvalidConfigError("cap must be positive")
    by_class: dict[int, list[int]] = {}
    for i, lab in selected.items():
        by_class.setdefault(lab, []).append(i)
    kept: list[tuple[int, int]] = []
    for lab, rows in by_class.items():
        rows.sort(key=lambda i: (-audit[i].min_confidence, i))
        kept.extend((i, lab) for i in rows[:cap])
    return dict(sorted(kept))


def harvest_pseudo_labels(
    models: list[MlpModel],
    pool_state: PoolState,
    cfg: SslConfig,
    seed: int = 0,
) -> tuple[dict[int, int], dict[int, FilterRecord]]:
    """Filter, cap, and record pseudo-labels in the pool in one call."""
    selected, audit = ssl_filter(models, pool_state, cfg, seed)
    capped = apply_class_cap(selected, audit, cfg.per_class_cap) if selected else {}
    if capped:
        pool_state.mark_pseudo(list(capped), list(capped.values()))
    return capped, audit


# ── consistency training ─────────────────────────────────────────────


@dataclass(frozen=True)
class SslEpochTrace:
    member: int
    epoch: int
    labeled_loss: float
    pseudo_loss: float
    total_loss: float


def ssl_train(
    state: EnsembleState,
    pool_state: PoolState,
    cfg: SslConfig,
    seed: int = 0,
) -> list[SslEpochTrace]:
    """Fine-tune each member's best checkpoint on labeled plus pseudo rows.

    Each epoch runs the labeled minibatches, then the pseudo minibatches
    with gradients scaled by the pseudo loss weight; the shuffled pseudo
    inputs are strongly perturbed anew that epoch, as one batch. The
    learning rate stays fixed. Members whose validation accuracy strictly
    improves replace their best checkpoint; one already at 1.0 is skipped,
    with no traces (random streams are per member). With no pseudo rows
    recorded this is a no-op returning [].
    """
    Xp, yp, _ = pool_state.pseudo_data()
    if Xp.shape[0] == 0:
        return []
    Xl, yl, _ = pool_state.labeled_data()
    if Xl.shape[0] == 0:
        raise InvalidInputError("labeled rows are required for consistency training")
    Xv, yv, _ = pool_state.validation_data()
    if Xv.shape[0] == 0:
        raise InvalidInputError("validation rows are required to rank checkpoints")
    layout = pool_state.pool.layout
    lam = cfg.pseudo_loss_weight
    traces: list[SslEpochTrace] = []
    starting_points = state.best_models()
    sgd = numkit.SgdConfig(base_lr=cfg.lr, momentum=cfg.momentum, batch_size=cfg.batch_size)

    for i in range(state.spec.size):
        if state.best[i].saturated:
            continue
        model = starting_points[i].copy()
        velocity = np.zeros_like(model.params)
        for e in range(cfg.epochs):
            order_l = np.random.default_rng(derive_seed(seed, i, e, 0)).permutation(Xl.shape[0])
            labeled_loss = numkit.sgd_epoch(model, velocity, Xl, yl, order_l, sgd, cfg.lr)
            pseudo_loss = 0.0
            if lam > 0.0:
                order_p = np.random.default_rng(derive_seed(seed, i, e, 1)).permutation(Xp.shape[0])
                aug_rng = np.random.default_rng(
                    (mask64(seed), mask64(cfg.augment.rng_seed), i, e, 1)
                )
                Xa = strong_augment(Xp[order_p], cfg.augment, layout, aug_rng)
                pseudo_loss = numkit.sgd_epoch(
                    model, velocity, Xa, yp[order_p], np.arange(order_p.size), sgd, cfg.lr, lam
                )
            traces.append(
                SslEpochTrace(i, e, labeled_loss, pseudo_loss, labeled_loss + lam * pseudo_loss)
            )
        model.epoch_counter += cfg.epochs
        acc = numkit.accuracy(model, Xv, yv)
        state.current[i] = model
        if acc > state.best[i].val_accuracy:
            state.best[i] = BestCheckpoint(model.copy(), acc, state.cycle + 1)
    return traces
