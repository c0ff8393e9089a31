"""Stateful property test of the budget ledger and the pool's labels.

One PoolState and one in-process VictimOracle take an interleaved sequence
of queries (valid, duplicate, out-of-range, already-labeled and over-budget
batches), pseudo-labels and validation conversions. A reference model of
what each row should hold is kept alongside.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from ensteal.datapool import PSEUDO, QUERIED, UNLABELED, VALIDATION, Dataset, PoolState
from ensteal.errors import BudgetExhaustedError, InvalidInputError
from ensteal.numkit import MlpModel, MlpSpec
from ensteal.victim import QueryBudget, VictimOracle

POOL_N = 12
BUDGET = 8
CLASSES = 4

# index lists that may be empty, repeat an index or leave [0, POOL_N)
index_lists = st.lists(st.integers(-1, POOL_N), max_size=6)


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        model = MlpModel.initialize(MlpSpec(3, (5,), CLASSES, "relu", rng_seed=1))
        self.pool = PoolState(Dataset(rng.normal(size=(POOL_N, 3))))
        self.oracle = VictimOracle(model, QueryBudget(BUDGET))
        self.status = {i: UNLABELED for i in range(POOL_N)}
        self.labels: dict[int, int] = {}

    def _valid(self, indices, status) -> bool:
        return (
            len(indices) > 0
            and len(set(indices)) == len(indices)
            and all(0 <= i < POOL_N and self.status[i] == status for i in indices)
        )

    def _snapshot(self):
        views = [self.pool.labeled_data(), self.pool.pseudo_data(), self.pool.validation_data()]
        return self.pool.status.copy(), [(y.tolist(), idx.tolist()) for _, y, idx in views], self.spent()

    def _attempt(self, ok: bool, call) -> None:
        """Run call; a call the model deems invalid must raise and change
        nothing, a valid one must succeed."""
        if ok:
            call()
            return
        before = self._snapshot()
        try:
            call()
        except (InvalidInputError, BudgetExhaustedError):
            pass
        else:
            raise AssertionError("an invalid call went through")
        after = self._snapshot()
        assert np.array_equal(before[0], after[0]) and before[1:] == after[1:]

    def spent(self) -> int:
        return BUDGET - self.oracle.budget_remaining()

    @rule(indices=index_lists)
    def query(self, indices):
        ok = self._valid(indices, UNLABELED) and len(indices) <= BUDGET - self.spent()
        answers = []
        self._attempt(ok, lambda: answers.append(self.oracle.query_labels(indices, self.pool)))
        if ok:
            (labels,) = answers
            assert labels.shape == (len(indices),)
            for i, lab in zip(sorted(indices), labels.tolist()):
                assert 0 <= lab < CLASSES
                self.status[i], self.labels[i] = QUERIED, lab

    @rule(indices=index_lists, offset=st.integers(0, CLASSES - 1))
    def mark_pseudo(self, indices, offset):
        labels = [(offset + j) % CLASSES for j in range(len(indices))]
        ok = self._valid(indices, UNLABELED)
        self._attempt(ok, lambda: self.pool.mark_pseudo(indices, labels))
        if ok:
            for i, lab in zip(indices, labels):
                self.status[i], self.labels[i] = PSEUDO, lab

    @rule(indices=index_lists)
    def convert_to_validation(self, indices):
        ok = self._valid(indices, QUERIED)
        self._attempt(ok, lambda: self.pool.convert_queried_to_validation(indices))
        if ok:
            for i in indices:
                self.status[i] = VALIDATION

    @invariant()
    def budget_matches_bought_rows(self):
        counts = self.pool.counts()
        assert self.spent() == counts["queried"] + counts["validation"] <= BUDGET
        assert len(self.oracle.query_log) == self.spent()

    @invariant()
    def views_hold_the_assigned_labels(self):
        views = {
            QUERIED: self.pool.labeled_data(),
            PSEUDO: self.pool.pseudo_data(),
            VALIDATION: self.pool.validation_data(),
        }
        for status, (X, y, idx) in views.items():
            want = sorted(i for i, s in self.status.items() if s == status)
            assert idx.tolist() == want
            assert y.tolist() == [self.labels[i] for i in want]
            assert np.array_equal(X, self.pool.pool.features[want])
        assert self.pool.unlabeled_indices().tolist() == sorted(
            i for i, s in self.status.items() if s == UNLABELED
        )


LedgerMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)
test_ledger = LedgerMachine.TestCase
