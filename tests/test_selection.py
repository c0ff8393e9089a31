import numpy as np
import pytest

from ensteal.datapool import Dataset, PoolState
from ensteal.ensemble import MEMBER_DTYPE, vote_counts
from ensteal.errors import InvalidConfigError, InvalidInputError
from ensteal.numkit import predict_batch
from ensteal.selection import (
    SCORED_KINDS,
    STRATEGY_KINDS,
    SelectionStrategy,
    consensus_entropy_scores,
    disagreement_scores,
    entropy_rows,
    kcenter_select,
    random_select,
    select_queries,
    top_k_select,
)

from conftest import committee_probs, make_sharp_models
from oracles import entropy_direct, kcenter_bruteforce, topk_bruteforce


# ── entropy ──────────────────────────────────────────────────────────


def test_entropy_edge_values():
    assert entropy_rows([[1.0, 0.0, 0.0]]).tolist() == [0.0]
    n = 7
    assert entropy_rows([np.full(n, 1.0 / n)])[0] == pytest.approx(np.log(n), abs=1e-12)


def test_entropy_matches_direct_sum(rng):
    for _ in range(200):
        k = int(rng.integers(2, 9))
        p = rng.random(k)
        p /= p.sum()
        assert entropy_rows(p[None])[0] == pytest.approx(entropy_direct(p), abs=1e-12)


def test_entropy_rows_matches_scalar(rng):
    P = rng.random((20, 5))
    P /= P.sum(axis=1, keepdims=True)
    rows = entropy_rows(P)
    for i in range(20):
        assert rows[i] == pytest.approx(entropy_direct(P[i]), abs=1e-12)


# ── committee scores ─────────────────────────────────────────────────


def test_disagreement_scores_live_in_partition_set(rng):
    # 5 hard votes over >=5 classes: the frequency vector is a partition of
    # 5, so the score can only take one of the 7 partition entropies
    models = make_sharp_models(5, dim=6, classes=6, seed=3)
    X = rng.normal(size=(300, 6))
    scores = disagreement_scores(committee_probs(models, X), np.arange(300))
    parts = [
        (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1),
    ]
    allowed = {round(entropy_direct(np.array(p) / 5.0), 12) for p in parts}
    assert {round(float(s), 12) for s in scores} <= allowed


@pytest.mark.parametrize("members", range(2, 10))
def test_disagreement_scores_keep_their_bits_when_votes_are_counted_over_the_pool(rng, members):
    # the votes were counted over a copy of the listed rows' stack; the counts
    # are integers, so counting the whole pool and taking the rows is exact
    models = make_sharp_models(members, dim=6, classes=5, seed=members)
    probs = committee_probs(models, rng.normal(size=(400, 6)))
    rows = np.sort(rng.choice(400, size=300, replace=False))
    copied = entropy_rows(vote_counts(probs[:, rows]) / members)
    assert disagreement_scores(probs, rows).tobytes() == copied.tobytes()


@pytest.mark.parametrize("members", range(1, 10))
def test_consensus_entropy_scores_keep_their_bits_when_the_mean_is_taken_over_the_pool(rng, members):
    # the mean was taken over a copy of the listed rows' stack, and the entropy
    # as -(P * log(where(P > 0, P, 1))).sum(1); the mean over members is
    # elementwise, so it is the same per row, and so is each entropy term
    models = make_sharp_models(members, dim=6, classes=5, seed=members)
    probs = committee_probs(models, rng.normal(size=(400, 6)))
    probs[:, ::7, 2] = 0.0  # zero entries take the 0 * log(0) = 0 branch
    rows = np.sort(rng.choice(400, size=300, replace=False))
    P = probs[:, rows].mean(axis=0).astype(np.float64)
    copied = -(P * np.log(np.where(P > 0, P, 1.0))).sum(axis=1)
    assert consensus_entropy_scores(probs, rows).tobytes() == copied.tobytes()


def test_consensus_entropy_bounds(rng):
    models = make_sharp_models(4, dim=5, classes=3, seed=1)
    X = rng.normal(size=(50, 5))
    rows = np.arange(3, 50, 2)
    scores = consensus_entropy_scores(committee_probs(models, X), rows)
    assert scores.shape == rows.shape
    assert np.all(scores >= 0.0) and np.all(scores <= np.log(3) + 1e-12)


# ── top-k and k-center vs brute force ────────────────────────────────


def test_top_k_matches_bruteforce(rng):
    for trial in range(200):
        n = int(rng.integers(3, 40))
        k = int(rng.integers(1, n + 1))
        cands = np.sort(rng.choice(1000, size=n, replace=False))
        scores = rng.choice([0.0, 0.3, 0.7, 1.1], size=n)  # force plenty of ties
        got = top_k_select(scores, cands, k)
        want = topk_bruteforce(scores, cands, k)
        assert np.array_equal(got, np.sort(want)), f"trial {trial}"


def test_kcenter_matches_bruteforce(rng):
    for trial in range(60):
        n_pool = int(rng.integers(10, 60))
        d = int(rng.integers(2, 6))
        features = rng.normal(size=(n_pool, d))
        n_cand = int(rng.integers(2, n_pool + 1))
        cands = np.sort(rng.choice(n_pool, size=n_cand, replace=False))
        rest = np.setdiff1d(np.arange(n_pool), cands)
        n_cent = int(rng.integers(0, min(5, rest.size) + 1))
        centers = rng.choice(rest, size=n_cent, replace=False) if n_cent else np.array([], dtype=np.int64)
        k = int(rng.integers(1, n_cand + 1))
        got = kcenter_select(features, cands, centers, k)
        want = kcenter_bruteforce(features, cands, centers, k)
        assert np.array_equal(got, np.sort(want)), f"trial {trial}"


def test_kcenter_first_pick_without_centers():
    features = np.array([[0.0], [10.0], [20.0]])
    out = kcenter_select(features, np.array([2, 0, 1]), np.array([], dtype=np.int64), 1)
    assert np.array_equal(out, [0])  # lowest index seeds the empty case


def test_random_select_properties():
    cands = np.arange(100, 200)
    a = random_select(cands, 10, seed=5)
    b = random_select(cands, 10, seed=5)
    c = random_select(cands, 10, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.diff(a) > 0)
    assert np.all((a >= 100) & (a < 200))


def test_select_k_validation():
    with pytest.raises(InvalidInputError):
        top_k_select(np.array([1.0]), np.array([0]), 2)
    with pytest.raises(InvalidInputError):
        random_select(np.array([3, 4]), 0, seed=0)
    with pytest.raises(InvalidInputError):
        top_k_select(np.array([1.0, 2.0]), np.array([0]), 1)  # misaligned


# ── strategy dispatch ────────────────────────────────────────────────


def test_strategy_validation():
    with pytest.raises(InvalidConfigError):
        SelectionStrategy("maximal_vibes")
    with pytest.raises(InvalidConfigError):
        SelectionStrategy("random", hybrid_kcenter=True)
    with pytest.raises(InvalidConfigError):
        SelectionStrategy("consensus_entropy", hybrid_pool_factor=0)


@pytest.fixture()
def scored_pool(rng):
    features = rng.normal(size=(120, 6))
    ps = PoolState(Dataset(features))
    ps.query(range(10), lambda X: np.zeros(len(X), dtype=np.int64))
    models = make_sharp_models(5, dim=6, classes=4, seed=9)
    return ps, committee_probs(models, features)


def test_select_queries_scored_alignment(scored_pool):
    ps, probs = scored_pool
    res = select_queries(SelectionStrategy("consensus_entropy"), probs, ps, 8, seed=0)
    assert res.selected.shape == (8,)
    assert np.array_equal(res.candidates, ps.unlabeled_indices())
    assert res.scores.shape == res.candidates.shape
    # selected are exactly the top-k of the reported scores
    want = topk_bruteforce(res.scores, res.candidates, 8)
    assert np.array_equal(res.selected, np.sort(want))
    assert not np.intersect1d(res.selected, np.arange(10)).size


def test_select_queries_hybrid_is_subset_of_shortlist(scored_pool):
    ps, probs = scored_pool
    strat = SelectionStrategy("label_disagreement", hybrid_kcenter=True, hybrid_pool_factor=4)
    res = select_queries(strat, probs, ps, 6, seed=0)
    shortlist = top_k_select(res.scores, res.candidates, 24)
    assert np.all(np.isin(res.selected, shortlist))
    assert res.selected.size == 6
    # and differs from the plain top-6 at least sometimes given spread-out picks
    plain = select_queries(SelectionStrategy("label_disagreement"), probs, ps, 6, seed=0)
    assert res.selected.shape == plain.selected.shape


def test_select_queries_unscored_kinds(scored_pool):
    ps, probs = scored_pool
    r = select_queries(SelectionStrategy("random"), None, ps, 5, seed=3)
    assert r.scores is None and r.selected.size == 5
    assert np.array_equal(select_queries(SelectionStrategy("random"), probs, ps, 5, seed=3).selected, r.selected)
    kc = select_queries(SelectionStrategy("kcenter"), None, ps, 5, seed=3)
    want = kcenter_bruteforce(ps.pool.features, ps.unlabeled_indices(), np.arange(10), 5)
    assert np.array_equal(kc.selected, np.sort(want))


@pytest.mark.parametrize(
    "kind, hybrid", [(kind, False) for kind in STRATEGY_KINDS] + [(kind, True) for kind in SCORED_KINDS]
)
def test_select_queries_rejects_k_zero(scored_pool, kind, hybrid):
    ps, probs = scored_pool
    strat = SelectionStrategy(kind, hybrid_kcenter=hybrid)
    for k in (0, -1, ps.unlabeled_indices().size + 1):
        with pytest.raises(InvalidInputError):
            select_queries(strat, probs, ps, k, seed=0)
    assert select_queries(strat, probs, ps, 1, seed=0).selected.size == 1


def test_select_queries_exhausted_pool():
    ps = PoolState(Dataset(np.zeros((4, 2))))
    ps.query([0, 1, 2, 3], lambda X: np.zeros(len(X), dtype=np.int64))
    with pytest.raises(InvalidInputError):
        select_queries(SelectionStrategy("random"), None, ps, 1, seed=0)


def _per_candidate_scores(kind, models, X):
    """Scores from a forward pass over exactly the candidate rows, with hard
    votes from predict_batch: how they were computed before the committee's
    pool-wide softmax was reused."""
    if kind == "consensus_entropy":
        return entropy_rows(committee_probs(models, X).mean(axis=0))
    labels = np.stack([predict_batch(m, X, MEMBER_DTYPE) for m in models])
    counts = np.zeros((X.shape[0], models[0].spec.num_classes))
    for member_labels in labels:
        for j, label in enumerate(member_labels):
            counts[j, label] += 1
    return entropy_rows(counts / len(models))


@pytest.mark.parametrize("hybrid", [False, True])
@pytest.mark.parametrize("kind", SCORED_KINDS)
def test_select_queries_matches_per_candidate_scoring(kind, hybrid, rng):
    features = rng.normal(size=(400, 6))
    ps = PoolState(Dataset(features))
    queried = np.arange(0, 400, 7)
    ps.query(queried, lambda X: np.zeros(len(X), dtype=np.int64))
    models = make_sharp_models(5, dim=6, classes=4, seed=21)
    probs = committee_probs(models, features)
    cands = ps.unlabeled_indices()
    want_scores = _per_candidate_scores(kind, models, features[cands])
    # no near-ties: neither between a member's top two classes nor between scores
    top2 = np.sort(probs, axis=2)[:, :, -2:]
    assert np.min(top2[..., 1] - top2[..., 0]) > 1e-9
    assert np.min(np.diff(np.unique(want_scores))) > 1e-9

    strat = SelectionStrategy(kind, hybrid_kcenter=hybrid, hybrid_pool_factor=3)
    res = select_queries(strat, probs, ps, 12, seed=0)
    assert np.array_equal(res.candidates, cands)
    np.testing.assert_allclose(res.scores, want_scores, rtol=0, atol=1e-12)
    if hybrid:
        want = kcenter_select(features, top_k_select(want_scores, cands, 36), queried, 12)
    else:
        want = top_k_select(want_scores, cands, 12)
    assert np.array_equal(res.selected, want)


@pytest.mark.parametrize("kind", SCORED_KINDS)
def test_select_queries_scored_kinds_need_pool_probs(scored_pool, kind):
    ps, probs = scored_pool
    for bad in (None, probs[:, :-1], probs[0]):
        with pytest.raises(InvalidInputError):
            select_queries(SelectionStrategy(kind), bad, ps, 4, seed=0)
