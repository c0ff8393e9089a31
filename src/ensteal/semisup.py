"""Pseudo-label harvesting and consistency training.

After the query budget is gone, the committee mines the remaining unlabeled
rows for inputs it is collectively sure about: a row is accepted when at most
a fixed number of members change their label under a weak perturbation, every
member agrees on the unperturbed label, and the least confident member still
clears a probability threshold. Unperturbed votes are read from the
committee's pool softmax (EnsembleState.best_probs). The filter walks the
unlabeled rows in slices of numkit.SLICE_ROWS, so its working memory does
not grow with the pool. The weak perturbation (datapool.weak_augment:
jitter on tabular rows, a flip on images) is drawn slice by slice over the
pool rows in order, from one generator seeded from the SSL stage seed, and
read at the unlabeled rows. That equals one whole-pool draw, so a row's
perturbation depends only on its pool index and the pool's shape, never on
which other rows are still unlabeled. The filter's verdicts are aligned
arrays over the unlabeled rows (FilterVerdicts). Accepted rows, capped per
class (most confident first, then the lower row), become pseudo-labeled
training data.

The training stage then runs numkit.fit from each member's checkpoint at a
low fixed learning rate (SslConfig.sgd): per epoch a labeled pass, then a
pass over the pseudo rows strongly perturbed afresh (datapool.strong_augment:
jitter and dropout on tabular rows, structural edits on images), whose loss
counts as much as a labeled row's. It goes through EnsembleState.refit, as
a committee refresh does, so a member already at 1.0 on validation is not
fine-tuned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import numkit
from .datapool import PoolState, strong_augment, weak_augment
from .ensemble import MEMBER_DTYPE, EnsembleState
from .errors import InvalidConfigError, InvalidInputError
from .numkit import SLICE_ROWS, MlpModel
from .seeding import derive_seed, mask64


@dataclass(frozen=True)
class SslConfig:
    """Knobs for the filter, and the fine-tune's epochs and batch size under
    a fixed optimizer (sgd)."""

    confidence_threshold: float = 0.9
    max_label_changes: int = 1
    per_class_cap: int = 100
    epochs: int = 30
    batch_size: int = 64

    def __post_init__(self):
        if not 0.0 < self.confidence_threshold <= 1.0:
            raise InvalidConfigError("confidence_threshold must lie in (0, 1]")
        if self.max_label_changes < 0:
            raise InvalidConfigError("max_label_changes must be nonnegative")
        if self.per_class_cap < 1:
            raise InvalidConfigError("per_class_cap must be positive")
        self.sgd()

    def sgd(self) -> numkit.SgdConfig:
        """The fine-tune's optimizer: lr 0.002 with momentum 0.9, never decayed."""
        return numkit.SgdConfig(base_lr=0.002, momentum=0.9, epochs=self.epochs, batch_size=self.batch_size)


class FilterVerdicts(NamedTuple):
    """The filter's verdict on each unlabeled row: aligned arrays, one entry
    per row, rows ascending."""

    rows: np.ndarray  # pool row index
    labels: np.ndarray  # member 0's label on the clean row
    changes: np.ndarray  # members whose label flips under the weak perturbation
    unanimous: np.ndarray  # every member agrees on the clean row
    min_confidence: np.ndarray  # the least own-label probability on the clean row, float64
    accepted: np.ndarray  # passes all three guards


def ssl_filter(
    models: list[MlpModel],
    probs: np.ndarray,
    pool_state: PoolState,
    cfg: SslConfig,
    seed: int = 0,
) -> FilterVerdicts:
    """Score every unlabeled row and accept the stable, unanimous, confident ones.

    For each row x with weakly perturbed copy x': count members whose label
    flips between x and x', require at most cfg.max_label_changes flips,
    require all members to agree on the label of x itself, and require
    every member's probability for its own label on x to be at least the
    confidence threshold. Labels and probabilities on x are read from probs,
    the (members, pool rows, classes) softmax over the whole pool.

    The unlabeled rows are taken SLICE_ROWS at a time, a tail shorter than
    numkit.BLOCK_ROWS joining the slice before it, so each member call sees
    at least BLOCK_ROWS rows (or all of them) and each row's float32 softmax
    has the bits of one whole-pool call. Each slice perturbs the pool rows
    from the previous slice's end through its own last row with one
    generator, seeded by (derive_seed(seed, 0), seed): the values one
    whole-pool draw gives those rows.
    """
    if not models or probs.ndim != 3 or probs.shape[:2] != (len(models), pool_state.pool.n):
        raise InvalidInputError("the filter needs models and their softmax over the pool")
    idx = pool_state.unlabeled_indices()
    features, layout = pool_state.pool.features, pool_state.pool.layout
    labels = np.empty(idx.size, dtype=np.int64)
    changes = np.empty(idx.size, dtype=np.int64)
    unanimous = np.empty(idx.size, dtype=bool)
    # widened, so the threshold is compared as it is given: in float32 a 0.9
    # threshold would round to 0.89999998 and pass a confidence of that value
    min_conf = np.empty(idx.size, dtype=np.float64)
    rng = np.random.default_rng((derive_seed(seed, 0), mask64(seed)))
    # no slice when no row is unlabeled: the members see an empty batch as an error
    ends = [*range(SLICE_ROWS, idx.size - numkit.BLOCK_ROWS + 1, SLICE_ROWS), idx.size] if idx.size else []
    lo = drawn = 0
    for hi in ends:
        rows = idx[lo:hi]
        stop = int(rows[-1]) + 1
        Xw = weak_augment(features[drawn:stop], layout, rng)[rows - drawn]
        aug_labels = np.stack([numkit.predict_batch(m, Xw, MEMBER_DTYPE) for m in models])
        del Xw  # freed before the clean rows are read and the next slice is drawn
        clean = probs[:, rows]
        clean_labels = np.argmax(clean, axis=2)  # (members, rows)
        labels[lo:hi] = clean_labels[0]
        changes[lo:hi] = (clean_labels != aug_labels).sum(axis=0)
        unanimous[lo:hi] = np.all(clean_labels == clean_labels[0], axis=0)
        min_conf[lo:hi] = clean.max(axis=2).min(axis=0)
        lo, drawn = hi, stop
    accepted = (changes <= cfg.max_label_changes) & unanimous & (min_conf >= cfg.confidence_threshold)
    return FilterVerdicts(idx, labels, changes, unanimous, min_conf, accepted)


def apply_class_cap(
    rows: np.ndarray, labels: np.ndarray, confidence: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """At most cap rows per class, keeping the highest confidence; confidence
    ties keep the lower row. Returns the kept (rows, labels), rows ascending."""
    if cap < 1:
        raise InvalidConfigError("cap must be positive")
    order = np.lexsort((rows, -confidence, labels))
    sorted_labels = labels[order]
    rank_in_class = np.arange(order.size) - np.searchsorted(sorted_labels, sorted_labels)
    kept = order[rank_in_class < cap]
    kept = kept[np.argsort(rows[kept])]
    return rows[kept], labels[kept]


def harvest_pseudo_labels(
    models: list[MlpModel],
    probs: np.ndarray,
    pool_state: PoolState,
    cfg: SslConfig,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, FilterVerdicts]:
    """Filter, cap, and record pseudo-labels in the pool in one call. Returns
    the kept (rows, labels), rows ascending, and the filter's verdicts, from
    which every reject count can be read."""
    v = ssl_filter(models, probs, pool_state, cfg, seed)
    rows, labels = apply_class_cap(
        v.rows[v.accepted], v.labels[v.accepted], v.min_confidence[v.accepted], cfg.per_class_cap
    )
    if rows.size:
        pool_state.mark_pseudo(rows, labels)
    return rows, labels, v


# ── consistency training ─────────────────────────────────────────────


def ssl_train(
    state: EnsembleState,
    pool_state: PoolState,
    cfg: SslConfig,
    seed: int = 0,
) -> list[Optional[float]]:
    """Fine-tune each member's best checkpoint on labeled plus pseudo rows.

    state.refit, dated the next cycle, runs numkit.fit from each trainable
    member's checkpoint at the fixed lr. Each epoch runs a labeled pass,
    then a pseudo pass; the shuffled pseudo inputs are strongly perturbed
    anew that epoch, as one batch. Random streams are per member and epoch,
    derived from derive_seed(seed, 1) and seed, so a skipped member changes
    no other member's draws. Returns refit's
    per-member accuracies, every entry None when no pseudo rows were
    recorded (nothing is trained then).
    """
    Xp, yp, _ = pool_state.pseudo_data()
    if Xp.shape[0] == 0:
        return [None] * state.spec.size
    Xl, yl, _ = pool_state.labeled_data()
    if Xl.shape[0] == 0:
        raise InvalidInputError("labeled rows are required for consistency training")
    layout = pool_state.pool.layout
    starting_points = state.best_models()
    train_seed = derive_seed(seed, 1)

    def member_fit(i: int) -> MlpModel:
        def passes(e: int):
            yield Xl, yl, np.random.default_rng(derive_seed(train_seed, i, e, 0)).permutation(Xl.shape[0])
            order = np.random.default_rng(derive_seed(train_seed, i, e, 1)).permutation(Xp.shape[0])
            aug_rng = np.random.default_rng((train_seed, mask64(seed), i, e, 1))
            yield strong_augment(Xp[order], layout, aug_rng), yp[order], np.arange(order.size)

        return numkit.fit(starting_points[i], cfg.sgd(), passes)[0]

    return state.refit(pool_state, state.cycle + 1, member_fit)
