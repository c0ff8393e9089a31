"""Query acquisition strategies over the unlabeled pool.

Two committee-driven scores: entropy of the members' mean class distribution
(consensus uncertainty) and entropy of the members' hard-vote frequency
vector (how split the committee is), counted by ensemble.vote_counts, the
one vote count. Both read the committee's softmax over the whole pool, a
(members, pool rows, classes) stack, at the candidate rows, and use natural
log and the 0*log(0)=0 convention. Baselines: uniform random draws and
greedy farthest-point k-center coverage in raw feature space. Score-based
strategies can optionally shortlist the top scores and then spread the
shortlist with k-center before spending budget.

All selections break ties toward the lowest pool index and return sorted
index arrays, which keeps every strategy replayable bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datapool import QUERIED, PoolState, as_indices
from .ensemble import vote_counts
from .errors import InvalidConfigError, InvalidInputError
from .seeding import mask64

SCORED_KINDS = ("consensus_entropy", "label_disagreement")
STRATEGY_KINDS = SCORED_KINDS + ("random", "kcenter")


# ── entropy ──────────────────────────────────────────────────────────


def entropy_rows(P: np.ndarray) -> np.ndarray:
    """Row-wise entropy of a (n, C) stack of distributions."""
    P = np.asarray(P, dtype=np.float64)
    safe = np.where(P > 0, P, 1.0)
    np.log(safe, out=safe)
    safe *= P  # P * log(P), each term in the buffer it was taken in
    return -safe.sum(axis=1)


def consensus_entropy_scores(probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Entropy of the mean member softmax, one score per listed row of the
    (members, n, classes) stack."""
    return entropy_rows(probs.mean(axis=0)[rows])


def disagreement_scores(probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Entropy of the committee's hard-vote frequency vector, per listed row.

    Each member votes the argmax of its softmax, lowest class on ties. With
    k members the score lives on a finite grid: it depends only on the
    partition of k votes among classes.
    """
    return entropy_rows(vote_counts(probs)[rows] / probs.shape[0])


# ── primitive selectors ──────────────────────────────────────────────


def top_k_select(scores: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores; equal scores prefer the lower index."""
    scores = np.asarray(scores, dtype=np.float64)
    candidates = as_indices(candidates)
    if scores.shape != candidates.shape:
        raise InvalidInputError("scores and candidates must align")
    if not 1 <= k <= candidates.size:
        raise InvalidInputError(f"k={k} out of range for {candidates.size} candidates")
    order = np.lexsort((candidates, -scores))
    return np.sort(candidates[order[:k]])


def kcenter_select(
    features: np.ndarray,
    candidates: np.ndarray,
    center_indices: np.ndarray,
    k: int,
) -> np.ndarray:
    """Greedy farthest-point picks: repeatedly take the candidate whose
    squared distance to the nearest chosen-or-existing center is largest.

    With no centers yet, the first pick is the lowest candidate index.
    """
    candidates = np.sort(as_indices(candidates))
    center_indices = as_indices(center_indices)
    if not 1 <= k <= candidates.size:
        raise InvalidInputError(f"k={k} out of range for {candidates.size} candidates")
    cand_X = features[candidates]
    mindist = np.full(candidates.size, np.inf)
    for ci in center_indices:
        d = ((cand_X - features[ci]) ** 2).sum(axis=1)
        mindist = np.minimum(mindist, d)
    chosen: list[int] = []
    alive = np.ones(candidates.size, dtype=bool)
    for _ in range(k):
        masked = np.where(alive, mindist, -np.inf)
        pick = int(np.argmax(masked))  # argmax takes the first max, ties go low
        chosen.append(int(candidates[pick]))
        alive[pick] = False
        d = ((cand_X - cand_X[pick]) ** 2).sum(axis=1)
        mindist = np.minimum(mindist, d)
    return np.sort(np.array(chosen, dtype=np.int64))


def random_select(candidates: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Uniform draw without replacement, seeded."""
    candidates = np.sort(as_indices(candidates))
    if not 1 <= k <= candidates.size:
        raise InvalidInputError(f"k={k} out of range for {candidates.size} candidates")
    rng = np.random.default_rng(mask64(seed))
    return np.sort(rng.choice(candidates, size=k, replace=False))


# ── strategy dispatch ────────────────────────────────────────────────


@dataclass(frozen=True)
class SelectionStrategy:
    kind: str
    hybrid_kcenter: bool = False
    hybrid_pool_factor: int = 5

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise InvalidConfigError(
                f"unknown strategy {self.kind!r}, expected one of {STRATEGY_KINDS}"
            )
        if self.hybrid_pool_factor < 1:
            raise InvalidConfigError("hybrid_pool_factor must be positive")
        if self.hybrid_kcenter and self.kind not in SCORED_KINDS:
            raise InvalidConfigError("hybrid k-center only composes with scored strategies")


@dataclass
class SelectionResult:
    selected: np.ndarray
    candidates: np.ndarray
    scores: Optional[np.ndarray]  # aligned with candidates; None for unscored kinds


def select_queries(
    strategy: SelectionStrategy,
    probs: Optional[np.ndarray],
    pool_state: PoolState,
    k: int,
    seed: int = 0,
) -> SelectionResult:
    """Pick the next k queries from the currently unlabeled rows.

    Scored strategies rank every candidate by its row of probs, the
    committee's (members, pool rows, classes) softmax over the whole pool;
    random and k-center ignore probs, which may then be None. With
    hybrid_kcenter the top factor*k shortlist is thinned to k by
    farthest-point coverage against the already-queried rows.
    """
    candidates = pool_state.unlabeled_indices()
    if not 1 <= k <= candidates.size:
        raise InvalidInputError(f"batch {k} out of range for {candidates.size} unlabeled rows")
    features = pool_state.pool.features

    if strategy.kind == "random":
        return SelectionResult(random_select(candidates, k, seed), candidates, None)
    if strategy.kind == "kcenter":
        centers = pool_state.indices_with_status(QUERIED)
        return SelectionResult(kcenter_select(features, candidates, centers, k), candidates, None)

    if probs is None or probs.ndim != 3 or probs.shape[1] != pool_state.pool.n:
        raise InvalidInputError("scored strategies need the committee's softmax over the pool")
    if strategy.kind == "consensus_entropy":
        scores = consensus_entropy_scores(probs, candidates)
    else:
        scores = disagreement_scores(probs, candidates)

    if strategy.hybrid_kcenter:
        shortlist_n = min(strategy.hybrid_pool_factor * k, candidates.size)
        shortlist = top_k_select(scores, candidates, shortlist_n)
        centers = pool_state.indices_with_status(QUERIED)
        selected = kcenter_select(features, shortlist, centers, k)
    else:
        selected = top_k_select(scores, candidates, k)
    return SelectionResult(selected, candidates, scores)
