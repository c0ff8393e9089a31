"""Stateful property test of the budget ledger over the wire.

One VictimService in this process takes an interleaved sequence of requests
on several connections: new predict_batch requests from raw sockets (some
over budget, refused whole), replays of an id on the same or another
connection, resends after a connection dropped before its reply was read,
reused ids with another payload, the same payload in other bytes, request
lines one byte over the service's line bound, budget requests, and
RemoteVictimClient query_labels calls that label a PoolState.
Request lines carry their rows through netvictim's encoder. A reference
count of the rows that should have been charged is kept alongside.
"""

import json
import socket

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from ensteal.config import RemoteSection
from ensteal.datapool import Dataset, PoolState
from ensteal.errors import BudgetExhaustedError, InvalidInputError
from ensteal.netvictim import RemoteVictimClient, VictimService, encode_rows
from ensteal.numkit import MlpModel, MlpSpec, predict_batch
from ensteal.victim import VictimOracle

POOL_N = 10
BUDGET = 12
CONNECTIONS = 3

connections = st.integers(0, CONNECTIONS - 1)
# row indices into the pool; a batch may repeat a row
batches = st.lists(st.integers(0, POOL_N - 1), min_size=1, max_size=5)


class WireLedgerMachine(RuleBasedStateMachine):
    sent = Bundle("sent")

    def __init__(self):
        super().__init__()
        self.model = MlpModel.initialize(MlpSpec(3, (5,), 3, "relu", rng_seed=1))
        self.pool = PoolState(Dataset(np.random.default_rng(0).normal(size=(POOL_N, 3))))
        self.oracle = VictimOracle(self.model, BUDGET)
        self.service = VictimService(self.oracle)
        self.addr = (self.service.host, self.service.port)
        self.conns = [socket.create_connection(self.addr, timeout=5) for _ in range(CONNECTIONS)]
        self.files = [conn.makefile("rwb") for conn in self.conns]
        self.client = RemoteVictimClient(RemoteSection(*self.addr, timeout=5.0), id_seed=3)
        self.next_id = 1
        self.lines: dict[int, tuple[bytes, bytes]] = {}  # id -> (request, reply)
        self.charged = 0  # rows the server should have charged
        self.labels_answered = 0  # labels the server sent for ids it had not seen
        self.bought: dict[int, int] = {}  # pool row -> label bought by query_labels

    def teardown(self):
        for f, conn in zip(self.files, self.conns):
            f.close()
            conn.close()
        self.client.close()
        self.service.close()

    def _request(self, rid: int, batch) -> bytes:
        x = encode_rows(self.pool.pool.features[batch])
        return json.dumps({"id": rid, "op": "predict_batch", **x}).encode() + b"\n"

    def _exchange(self, conn: int, line: bytes) -> bytes:
        f = self.files[conn]
        f.write(line)
        f.flush()
        reply = f.readline()
        assert reply.endswith(b"\n")
        return reply

    @rule(target=sent, conn=connections, batch=batches, drop_first=st.booleans())
    def new_batch(self, conn, batch, drop_first):
        rid, self.next_id = self.next_id, self.next_id + 1
        line = self._request(rid, batch)
        if drop_first:
            # the first send's reply is never read: the resend must be charged once
            with socket.create_connection(self.addr, timeout=5) as lost:
                lost.sendall(line)
        raw = self._exchange(conn, line)
        reply = json.loads(raw)
        if len(batch) <= BUDGET - self.charged:
            want = predict_batch(self.model, self.pool.pool.features[batch]).tolist()
            assert reply == {"id": rid, "labels": want}
            self.charged += len(batch)
            self.labels_answered += len(reply["labels"])
        else:
            assert reply["code"] == "BUDGET_EXHAUSTED" and "labels" not in reply
        self.lines[rid] = (line, raw)
        return rid

    @rule(conn=connections, rid=sent)
    def replay(self, conn, rid):
        line, raw = self.lines[rid]
        assert self._exchange(conn, line) == raw  # the original answer, not charged again

    @rule(conn=connections, rid=sent, batch=batches)
    def reuse_id(self, conn, rid, batch):
        line = self._request(rid, batch)
        if line == self.lines[rid][0]:
            return  # the same payload is a replay
        reply = json.loads(self._exchange(conn, line))
        assert reply["id"] == rid and reply["code"] == "BAD_INPUT"

    @rule(conn=connections, rid=sent)
    def resend_in_other_bytes(self, conn, rid):
        # the same rows re-encoded with other spacing and key order
        req = json.loads(self.lines[rid][0])
        line = json.dumps(dict(reversed(req.items())), separators=(",", ":")).encode() + b"\n"
        reply = json.loads(self._exchange(conn, line))
        assert reply == {"id": rid, "error": "id reused with a different payload", "code": "BAD_INPUT"}

    @rule(batch=batches)
    def over_long_line(self, batch):
        # a new request padded one byte past the bound: refused uncharged, and
        # its connection ends
        rid, self.next_id = self.next_id, self.next_id + 1
        line = self._request(rid, batch)
        line = line[:-2] + b" " * (self.service.line_limit + 1 - len(line)) + line[-2:]
        with socket.create_connection(self.addr, timeout=5) as s, s.makefile("rb") as f:
            s.sendall(line)
            assert json.loads(f.readline()) == {
                "id": 0,
                "error": f"request line longer than {self.service.line_limit} bytes",
                "code": "BAD_INPUT",
            }
            assert f.readline() == b""

    @rule(conn=connections)
    def budget(self, conn):
        rid, self.next_id = self.next_id, self.next_id + 1
        line = json.dumps({"id": rid, "op": "budget"}).encode() + b"\n"
        assert json.loads(self._exchange(conn, line)) == {"id": rid, "remaining": BUDGET - self.charged}

    @rule(indices=st.lists(st.integers(0, POOL_N - 1), min_size=1, max_size=4, unique=True))
    def query_labels(self, indices):
        unlabeled = not any(i in self.bought for i in indices)
        fits = len(indices) <= BUDGET - self.charged
        try:
            labels = self.client.query_labels(indices, self.pool)
        except InvalidInputError:
            assert not unlabeled
        except BudgetExhaustedError:
            assert unlabeled and not fits
        else:
            assert unlabeled and fits
            self.charged += len(indices)
            self.labels_answered += len(labels)
            self.bought.update(zip(sorted(indices), labels.tolist()))

    @invariant()
    def ledger_matches_rows_charged(self):
        assert self.labels_answered == self.charged <= BUDGET
        assert self.oracle.budget_remaining() == BUDGET - self.charged
        assert self.client.budget_remaining() == BUDGET - self.charged
        assert len(self.oracle.query_log) == self.charged

    @invariant()
    def pool_marks_only_answered_rows(self):
        X, y, idx = self.pool.labeled_data()
        assert idx.tolist() == sorted(self.bought)
        assert y.tolist() == [self.bought[i] for i in sorted(self.bought)]
        if len(idx):
            assert y.tolist() == predict_batch(self.model, X).tolist()


WireLedgerMachine.TestCase.settings = settings(max_examples=20, stateful_step_count=20, deadline=None)
test_wire_ledger = WireLedgerMachine.TestCase
