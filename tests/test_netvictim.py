import contextlib
import json
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from conftest import assert_lf_text
from ensteal import netvictim, numkit
from ensteal.config import RemoteSection, parse_config
from ensteal.datapool import Dataset, PoolState
from ensteal.errors import (
    BudgetExhaustedError,
    InvalidConfigError,
    InvalidInputError,
    RemoteUnavailableError,
)
from ensteal.netvictim import RemoteVictimClient, VictimService, decode_rows, encode_rows
from ensteal.numkit import MlpModel, MlpSpec, predict_batch
from ensteal.victim import VictimOracle, _row_hash

pytestmark = pytest.mark.dev

@pytest.fixture()
def service(tmp_path):
    spec = MlpSpec(4, (6,), 3, "relu", rng_seed=2)
    model = MlpModel.initialize(spec)
    oracle = VictimOracle(model, 100)
    svc = VictimService(oracle, log_path=tmp_path / "qlog.csv")
    yield svc, model, oracle
    svc.close()


def predict_line(rid, rows, **fields) -> bytes:
    """A predict_batch request line for the (n, d) rows, encoded by
    netvictim's encoder; fields add to or replace the request's fields."""
    req = {"id": rid, "op": "predict_batch", **encode_rows(np.asarray(rows, dtype=np.float64)), **fields}
    return json.dumps(req).encode() + b"\n"


def raw_exchange(svc, *lines):
    """Speak the wire protocol directly; returns one parsed reply per line."""
    with socket.create_connection((svc.host, svc.port), timeout=5) as s:
        f = s.makefile("rwb")
        out = []
        for line in lines:
            f.write(line)
            f.flush()
            out.append(json.loads(f.readline()))
        return out


def assert_threads_end(before: set) -> None:
    """Wait up to 5 s for every thread not in before to end."""
    deadline = time.monotonic() + 5.0
    while set(threading.enumerate()) - before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not set(threading.enumerate()) - before


def test_predict_over_wire_matches_local(service):
    svc, model, oracle = service
    x = [0.5, -1.0, 2.0, 0.25]
    X = np.random.default_rng(5).normal(size=(12, 4)) * 3
    single, batch = raw_exchange(
        svc,
        predict_line(7, [x]),
        predict_line(8, X),
    )
    assert single == {"id": 7, "labels": predict_batch(model, np.array([x])).tolist()}
    assert batch == {"id": 8, "labels": predict_batch(model, X).tolist()}
    assert oracle.budget_remaining() == 100 - 1 - 12


def test_budget_op_and_charging(service):
    svc, _, oracle = service
    replies = raw_exchange(
        svc,
        b'{"id": 1, "op": "budget"}\n',
        predict_line(2, [[0, 0, 0, 0]]),
        b'{"id": 3, "op": "budget"}\n',
        b'{"id": 1, "op": "budget"}\n',  # budget replies are never cached
    )
    assert replies[0]["remaining"] == 100
    assert replies[2]["remaining"] == 99
    assert replies[3] == {"id": 1, "remaining": 99}


def test_duplicate_id_answered_from_cache(service):
    svc, model, oracle = service
    line = predict_line(42, [[1, 1, 1, 1]])
    a, b = raw_exchange(svc, line, line)
    assert a == b
    assert oracle.budget_remaining() == 99  # charged once, not twice
    batch = predict_line(43, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0]])
    a, b = raw_exchange(svc, batch, batch)
    assert a == b and len(a["labels"]) == 3
    assert oracle.budget_remaining() == 96
    # the same id with another payload is refused, not answered from the cache
    x = np.array([-3.0, 0.0, 3.0, 0.0])
    assert predict_batch(model, x[None])[0] != a["labels"][0]
    (c,) = raw_exchange(svc, predict_line(43, [x]))
    (d,) = raw_exchange(svc, predict_line(42, [x]))
    assert c["code"] == d["code"] == "BAD_INPUT"
    assert oracle.budget_remaining() == 96
    assert len(oracle.query_log) == 4


def test_resend_in_other_bytes_is_refused(service):
    # a replay is the byte-identical line: an equal payload encoded in other
    # bytes under a used id is refused, and charges nothing
    svc, _, oracle = service
    line = predict_line(4, [[1, 0, 0, 0]])
    (first,) = raw_exchange(svc, line)
    assert "labels" in first
    req = json.loads(line)
    x = req["x"]
    escaped = line.replace(x.encode(), f"\\u{ord(x[0]):04x}{x[1:]}".encode())  # JSON for the same string
    assert json.loads(escaped) == req
    resends = raw_exchange(
        svc,
        json.dumps(req, separators=(",", ":")).encode() + b"\n",
        json.dumps(dict(reversed(req.items()))).encode() + b"\n",
        escaped,
    )
    assert resends == [{"id": 4, "error": "id reused with a different payload", "code": "BAD_INPUT"}] * 3
    assert oracle.budget_remaining() == 99 and len(oracle.query_log) == 1


def test_predict_is_an_unknown_op(service):
    svc, _, oracle = service
    (reply,) = raw_exchange(svc, predict_line(7, [[0, 0, 0, 0]], op="predict"))
    assert reply == {"id": 7, "error": "unknown op 'predict'", "code": "BAD_INPUT"}
    assert oracle.budget_remaining() == 100 and oracle.query_log == []


def test_bool_id_is_not_an_integer_id(service):
    svc, _, oracle = service
    replies = raw_exchange(
        svc,
        predict_line(1, [[1, 0, 0, 0]]),
        predict_line(True, [[1, 0, 0, 0]]),  # not id 1's cached reply
        predict_line(False, [[0, 1, 0, 0]]),
        b'{"id": true, "op": "budget"}\n',
    )
    assert replies[1:] == [{"id": 0, "error": "missing integer id", "code": "BAD_INPUT"}] * 3
    assert oracle.budget_remaining() == 99 and len(oracle.query_log) == 1


def test_duplicate_id_across_connections(service):
    svc, _, oracle = service
    line = predict_line(9, [[2, 0, 1, 0]])
    (a,) = raw_exchange(svc, line)
    (b,) = raw_exchange(svc, line)  # new TCP connection, same id
    assert a == b
    assert oracle.budget_remaining() == 99
    batch = predict_line(10, [[2, 0, 1, 0], [0, 1, 0, 2]])
    (a,) = raw_exchange(svc, batch)
    (b,) = raw_exchange(svc, batch)
    assert a == b and len(a["labels"]) == 2
    assert oracle.budget_remaining() == 97


def test_duplicate_id_concurrent_charged_once(service):
    svc, _, oracle = service
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rid in range(100, 110):
            line = predict_line(rid, [[rid, 0, 0, 0]])
            gate = threading.Barrier(6)
            replies = []

            def send():
                gate.wait(timeout=10)
                replies.extend(raw_exchange(svc, line))

            threads = [threading.Thread(target=send) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(replies) == 6 and all(r == replies[0] for r in replies)
    finally:
        sys.setswitchinterval(old_interval)
    assert oracle.budget_remaining() == 90  # one charge per id, however many resent it


def test_a_request_being_decoded_holds_up_no_other_connection(service, monkeypatch):
    # connection A's predict stalls inside decode_rows; a budget request on
    # connection B is answered meanwhile, and A is charged once it goes on
    svc, _, oracle = service
    entered, release = threading.Event(), threading.Event()
    real = netvictim.decode_rows

    def stalled(req):
        entered.set()
        release.wait(timeout=30)
        return real(req)

    monkeypatch.setattr(netvictim, "decode_rows", stalled)
    replies = []
    a = threading.Thread(target=lambda: replies.extend(raw_exchange(svc, predict_line(5, [[1, 0, 0, 0]]))))
    a.start()
    try:
        assert entered.wait(timeout=10)
        with socket.create_connection((svc.host, svc.port), timeout=2) as s:
            s.sendall(b'{"id": 6, "op": "budget"}\n')
            assert json.loads(s.makefile("rb").readline()) == {"id": 6, "remaining": 100}
    finally:
        release.set()
        a.join(timeout=10)
    assert not a.is_alive()
    assert len(replies) == 1 and len(replies[0]["labels"]) == 1
    assert oracle.budget_remaining() == 99 and len(oracle.query_log) == 1


def test_bad_input_codes_keep_connection_open(service):
    svc, _, oracle = service
    nan = float("nan")
    zero = encode_rows(np.zeros((1, 4)))["x"]
    replies = raw_exchange(
        svc,
        b"this is not json\n",
        b'{"id": "nope", "op": "predict_batch"}\n',
        b'{"id": 5, "op": "dance"}\n',
        predict_line(6, [[0, 0, 0, 0]], x="wat"),
        predict_line(8, [[1, 2]]),
        predict_line(12, [[1, nan, 0, 0]]),
        predict_line(13, [[0, 0, 0, 0], [1, nan, 0, 0]]),
        predict_line(14, [[0, 0, 0, 0, 1, 2, 3]], cols=4),
        predict_line(15, np.zeros((0, 4))),
        predict_line(16, [[0, 0, 0], [1, 2, 3]]),
        predict_line(17, [[0, 0, 0, 0]], x=[0, 0, 0, 0]),
        predict_line(18, [[0, 0, 0, 0]], cols="4"),
        predict_line(19, [[0, 0, 0, 0]], cols=True),
        predict_line(20, [[0, 0, 0, 0]], x=[[0, 0, 0, 0]]),
        predict_line(21, [[0, 0, 0, 0]], x="!" + zero[1:]),
        predict_line(22, [[0, 0, 0, 0]], x=zero[:20] + "\n" + zero[20:]),
        predict_line(23, [[0, 0, 0, 0]], cols=0),
        predict_line(24, [[0, 0, 0, 0]], cols=10**400),
        b'{"id": 11, "op": "budget"}\n',
    )
    not_b64 = "x must be a base64 string of little-endian float64 rows"
    bad_cols = "cols must be an integer of at least 1"
    assert replies[0] == {"id": 0, "error": "unparseable request line", "code": "BAD_INPUT"}
    assert replies[1]["code"] == "BAD_INPUT"
    assert replies[2]["code"] == "BAD_INPUT"
    assert replies[3]["code"] == "BAD_INPUT" and replies[3]["error"].startswith("x is not valid base64")
    assert replies[4]["code"] == "BAD_INPUT"  # wrong input_dim
    assert replies[5]["code"] == "BAD_INPUT"  # NaN row
    assert replies[6]["code"] == "BAD_INPUT"  # NaN row in a batch
    assert replies[7] == {  # ragged: 7 values do not fill rows of 4
        "id": 14, "error": "x decodes to 56 bytes, not a nonzero multiple of 8 x cols = 32", "code": "BAD_INPUT"
    }
    assert replies[8] == {  # empty batch
        "id": 15, "error": "x decodes to 0 bytes, not a nonzero multiple of 8 x cols = 32", "code": "BAD_INPUT"
    }
    assert replies[9]["code"] == "BAD_INPUT"  # wrong width
    assert replies[10] == {"id": 17, "error": not_b64, "code": "BAD_INPUT"}  # a flat row
    assert replies[11] == {"id": 18, "error": bad_cols, "code": "BAD_INPUT"}  # a string is not a number
    assert replies[12] == {"id": 19, "error": bad_cols, "code": "BAD_INPUT"}  # nor is a JSON bool
    assert replies[13] == {"id": 20, "error": not_b64, "code": "BAD_INPUT"}  # the list form
    assert replies[14]["code"] == "BAD_INPUT" and replies[14]["error"].startswith("x is not valid base64")
    assert replies[15]["code"] == "BAD_INPUT" and replies[15]["error"].startswith("x is not valid base64")
    assert replies[16] == {"id": 23, "error": bad_cols, "code": "BAD_INPUT"}
    assert replies[17] == {"id": 24, "error": bad_cols, "code": "BAD_INPUT"}
    assert replies[18]["remaining"] == 100  # nothing above was charged
    assert oracle.query_log == []


def test_an_integer_beyond_float_range_is_bad_input(service):
    # base64 float64 bytes cannot hold 10**400, so the integer the wire still
    # parses is cols; the old list form of such a row is refused for its type
    svc, _, oracle = service
    huge = predict_line(21, [[0, 0, 0, 0]], cols=10**400)
    reply, budget = raw_exchange(svc, huge, b'{"id": 22, "op": "budget"}\n')
    assert reply == {"id": 21, "error": "cols must be an integer of at least 1", "code": "BAD_INPUT"}
    assert budget == {"id": 22, "remaining": 100}
    with RemoteVictimClient(RemoteSection(svc.host, svc.port)) as client:
        with pytest.raises(InvalidInputError, match="base64 string"):
            client._request({"op": "predict_batch", "cols": 4, "x": [[10**400, 1, 0, 0]]}, "labels", bool)
    assert oracle.budget_remaining() == 100 and oracle.query_log == []


def test_the_wire_carries_rows_bit_for_bit(service):
    # values whose shortest repr needs 17 digits, a negative zero, the
    # smallest subnormal and the largest finite float reach the oracle exactly
    svc, model, oracle = service
    X = np.array(
        [
            [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2],
            [1 / 3, -2 / 3, np.nextafter(1.0, 2.0), -1e-310],
            [2.0**-1074, -1.7976931348623157e308, 0.0, 9007199254740993.0],
        ]
    )
    assert repr(float(X[0, 3])) == "0.30000000000000004"
    line = predict_line(1, X)
    assert np.array_equal(decode_rows(json.loads(line)).view(np.uint64), X.view(np.uint64))
    local = VictimOracle(model, 100)
    with RemoteVictimClient(RemoteSection(svc.host, svc.port)) as client:
        labels = client.predict_batch(X)
    assert labels.tolist() == local.predict_batch(X).tolist()
    assert [h for h, _ in oracle.query_log] == [_row_hash(row) for row in X]
    assert oracle.query_log == local.query_log


def test_lines_split_across_reads(service):
    svc, model, _ = service
    x = [0.5, -1.0, 2.0, 0.25]
    line = predict_line(3, [x])
    with socket.create_connection((svc.host, svc.port), timeout=5) as s:
        f = s.makefile("rb")
        # a partial line, then its last byte with a second, shorter line
        s.sendall(line[:-1])
        time.sleep(0.05)
        s.sendall(line[-1:] + b'{"id":4,"op":"budget"}\n')
        assert json.loads(f.readline()) == {"id": 3, "labels": predict_batch(model, np.array([x])).tolist()}
        assert json.loads(f.readline()) == {"id": 4, "remaining": 99}


def test_unterminated_last_line_is_not_answered(service):
    svc, _, oracle = service
    with socket.create_connection((svc.host, svc.port), timeout=5) as s:
        s.sendall(predict_line(3, [[1, 0, 0, 0]])[:-1])  # no newline
        s.shutdown(socket.SHUT_WR)
        assert s.recv(100) == b""  # the server ends the connection without a reply
    assert oracle.budget_remaining() == 100 and oracle.query_log == []


def padded_line(req: dict, length: int) -> bytes:
    """req as a JSON line of exactly length bytes, its newline included:
    spaces pad it before the closing brace."""
    body = json.dumps(req).encode()
    assert len(body) < length
    return body[:-1] + b" " * (length - len(body) - 1) + b"}\n"


def test_the_longest_answerable_request_line_is_answered(service):
    # the bound is the whole budget of rows in base64 plus a fixed allowance
    svc, model, oracle = service
    X = np.random.default_rng(5).normal(size=(100, 4))
    assert svc.line_limit == netvictim.request_line_limit(100, 4)
    line = padded_line({"id": 5, "op": "predict_batch", **encode_rows(X)}, svc.line_limit)
    (reply,) = raw_exchange(svc, line)
    assert reply == {"id": 5, "labels": predict_batch(model, X).tolist()}
    assert oracle.budget_remaining() == 0


def test_a_request_line_over_the_bound_is_refused_uncharged_and_ends_its_connection(service, tmp_path):
    # the server used to buffer a line of any length until its newline came
    svc, model, oracle = service
    limit = svc.line_limit
    refused = {"id": 0, "error": f"request line longer than {limit} bytes", "code": "BAD_INPUT"}
    over = padded_line({"id": 5, "op": "predict_batch", **encode_rows(np.zeros((1, 4)))}, limit + 1)
    # one byte over, and limit + 1 bytes of a line whose end never comes
    for sent in (over, b"x" * (limit + 1)):
        with socket.create_connection((svc.host, svc.port), timeout=5) as s, s.makefile("rb") as f:
            s.sendall(sent)
            assert json.loads(f.readline()) == refused
            assert f.readline() == b""  # the server closed the connection
    # a new connection is served, and the refused lines charged and logged nothing
    x = [0.5, -1.0, 2.0, 0.25]
    reply, budget = raw_exchange(svc, predict_line(5, [x]), b'{"id": 6, "op": "budget"}\n')
    assert reply == {"id": 5, "labels": predict_batch(model, np.array([x])).tolist()}
    assert budget == {"id": 6, "remaining": 99}
    svc.close()
    label = reply["labels"][0]
    assert (tmp_path / "qlog.csv").read_bytes() == f"sample_hash,label\n{_row_hash(np.array(x))},{label}\n".encode()


def test_finished_handlers_are_dropped(service):
    svc, _, _ = service
    before = set(threading.enumerate())
    for i in range(50):
        raw_exchange(svc, b'{"id": 1, "op": "budget"}\n')
    assert_threads_end(before)  # no thread outlives its connection


def test_dropped_connections_end_quietly(service, capsys):
    svc, _, _ = service
    before = set(threading.enumerate())
    line = predict_line(5, [[0.5, 1, 2, 3]] * 2000)
    for _ in range(10):
        s = socket.create_connection((svc.host, svc.port), timeout=5)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        s.sendall(line[:-1])
        s.close()  # a reset, with a partial request in flight
    assert_threads_end(before)
    assert capsys.readouterr().err == ""  # no traceback from a handler


def test_close_with_idle_client(tmp_path):
    spec = MlpSpec(3, (4,), 2, "relu", rng_seed=0)
    oracle = VictimOracle(MlpModel.initialize(spec), 5)
    log = tmp_path / "log.csv"
    svc = VictimService(oracle, log_path=log)
    with socket.create_connection((svc.host, svc.port), timeout=5) as s, s.makefile("rwb") as f:
        f.write(predict_line(1, [[1, 2, 3]]))
        f.flush()
        assert "labels" in json.loads(f.readline())
        t0 = time.monotonic()
        svc.close()  # the connection above is still open and idle
        assert time.monotonic() - t0 < 2.0
        # a request sent after close() is neither answered nor charged, and
        # its connection ends
        try:
            f.write(predict_line(2, [[3, 2, 1]]))
            f.flush()
            reply = f.readline()
        except ConnectionResetError:
            reply = b""
        assert reply == b""
    assert oracle.budget_remaining() == 4
    assert len(oracle.query_log) == 1
    assert len(log.read_text().splitlines()) == 2  # header and the one answered row
    svc.close()  # idempotent


def test_dedup_cache_keeps_the_most_recently_used_ids():
    spec = MlpSpec(2, (4,), 2, "relu", rng_seed=1)
    oracle = VictimOracle(MlpModel.initialize(spec), 2000)

    def line(rid):
        return predict_line(rid, [[rid % 7, 1]])

    with VictimService(oracle) as svc:
        raw_exchange(svc, *map(line, range(1, 1025)))  # fills the window; id 1 is least recent
        raw_exchange(svc, line(2))  # a replay moves id 2 to the front, uncharged
        assert oracle.budget_remaining() == 2000 - 1024
        raw_exchange(svc, line(1025))  # evicts id 1
        raw_exchange(svc, line(2), line(1))  # id 2 is still cached; id 1 is charged again
        assert oracle.budget_remaining() == 2000 - 1026
        assert len(oracle.query_log) == 1026


def test_budget_exhausted_code(tmp_path):
    spec = MlpSpec(3, (4,), 2, "relu", rng_seed=0)
    oracle = VictimOracle(MlpModel.initialize(spec), 1)
    with VictimService(oracle) as svc:
        replies = raw_exchange(
            svc,
            predict_line(1, [[0, 0, 0]]),
            predict_line(2, [[0, 0, 0]]),
        )
        assert "labels" in replies[0]
        assert replies[1]["code"] == "BUDGET_EXHAUSTED"
    oracle = VictimOracle(MlpModel.initialize(spec), 2)
    with VictimService(oracle) as svc:
        (reply,) = raw_exchange(svc, predict_line(1, [[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        assert reply["code"] == "BUDGET_EXHAUSTED"  # refused whole: no label answered
        assert oracle.budget_remaining() == 2
        assert oracle.query_log == []


def test_a_failed_answer_is_internal_and_charges_nothing(service, monkeypatch):
    # the server used to answer INTERNAL yet keep the charge, so its ledger
    # and its query log disagreed
    svc, _, oracle = service

    def fail(model, X):
        raise RuntimeError("model failed")

    monkeypatch.setattr(numkit, "predict_batch", fail)
    failed, budget = raw_exchange(svc, predict_line(1, np.zeros((3, 4))), b'{"id": 2, "op": "budget"}\n')
    assert failed == {"id": 1, "error": "RuntimeError: model failed", "code": "INTERNAL"}
    assert budget == {"id": 2, "remaining": 100}
    assert oracle.query_log == []


def test_query_log_written_on_close(tmp_path):
    spec = MlpSpec(3, (4,), 2, "relu", rng_seed=0)
    oracle = VictimOracle(MlpModel.initialize(spec), 5)
    log = tmp_path / "log.csv"
    svc = VictimService(oracle, log_path=log)
    raw_exchange(svc, predict_line(1, [[1, 2, 3]]))
    svc.close()
    lines = log.read_text().strip().split("\n")
    assert lines[0] == "sample_hash,label"
    assert len(lines) == 2
    h, lab = lines[1].split(",")
    assert len(h) == 16 and lab in ("0", "1")


def test_query_log_is_utf8_with_lf_line_ends(tmp_path):
    # csv.writer ended every line of the log in "\r\n"
    oracle = VictimOracle(MlpModel.initialize(MlpSpec(3, (4,), 2, "relu", rng_seed=0)), 5)
    log = tmp_path / "log.csv"
    svc = VictimService(oracle, log_path=log)
    raw_exchange(svc, predict_line(1, [[1, 2, 3], [3, 2, 1]]), predict_line(2, [[0, 0, 1]]))
    svc.close()
    rows = [f"{h},{label}" for h, label in oracle.query_log]
    assert len(rows) == 3
    assert assert_lf_text(log) == "\n".join(["sample_hash,label", *rows]) + "\n"


def test_concurrent_clients_never_overspend():
    spec = MlpSpec(2, (4,), 2, "relu", rng_seed=1)
    oracle = VictimOracle(MlpModel.initialize(spec), 40)
    with VictimService(oracle) as svc:
        errors: list[str] = []
        answered = []

        def worker(wid):
            try:
                with RemoteVictimClient(RemoteSection(svc.host, svc.port), id_seed=wid) as cl:
                    for j in range(10):
                        try:
                            cl.predict([wid * 0.1, j * 0.1])
                            answered.append(1)
                        except BudgetExhaustedError:
                            pass
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(answered) == 40  # exactly the budget, no overspend
        assert oracle.budget_remaining() == 0

    # batches of 3 against budget 40: each batch is answered or refused whole
    oracle = VictimOracle(MlpModel.initialize(spec), 40)
    with VictimService(oracle) as svc:
        errors.clear()
        batches: list[np.ndarray] = []

        def batch_worker(wid):
            try:
                with RemoteVictimClient(RemoteSection(svc.host, svc.port), id_seed=wid) as cl:
                    for j in range(10):
                        X = [[wid * 0.1, j * 0.1], [j * 0.1, wid * 0.1], [wid * 0.1, -j * 0.1]]
                        try:
                            batches.append(cl.predict_batch(X))
                        except BudgetExhaustedError:
                            pass
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [threading.Thread(target=batch_worker, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert not errors
        assert all(labels.shape == (3,) for labels in batches)
        assert sum(labels.size for labels in batches) == 39  # 13 whole batches
        assert oracle.budget_remaining() == 1
        assert len(oracle.query_log) == 39


# ── client behavior ──────────────────────────────────────────────────


def test_client_roundtrip_and_error_mapping(service):
    svc, model, _ = service
    with RemoteVictimClient(RemoteSection(svc.host, svc.port)) as cl:
        assert cl.budget_remaining() == 100
        x = np.array([1.0, 0.0, -1.0, 0.5])
        assert cl.predict(x) == predict_batch(model, x[None])[0]
        with pytest.raises(InvalidInputError):
            cl.predict(np.zeros((2, 2)))  # local shape check
        with pytest.raises(InvalidInputError):
            cl.predict(np.zeros(9))  # server-side dim check


def test_client_seeded_ids_deterministic(service):
    svc, _, _ = service
    a = RemoteVictimClient(RemoteSection(svc.host, svc.port), id_seed=5)
    b = RemoteVictimClient(RemoteSection(svc.host, svc.port), id_seed=5)
    assert a._next_id == b._next_id
    c = RemoteVictimClient(RemoteSection(svc.host, svc.port), id_seed=6)
    assert a._next_id != c._next_id
    for cl in (a, b, c):
        cl.close()


def test_client_reconnects_after_drop(service):
    svc, model, oracle = service
    with RemoteVictimClient(RemoteSection(svc.host, svc.port, retries=3)) as cl:
        x = np.array([0.0, 1.0, 0.0, 1.0])
        assert cl.predict(x) == predict_batch(model, x[None])[0]
        severed = cl._sock
        severed.shutdown(socket.SHUT_RDWR)  # sever the transport under the client
        assert cl.predict(x) == predict_batch(model, x[None])[0]  # silently reconnects
        assert cl._sock is not None and cl._sock is not severed
        assert oracle.budget_remaining() == 98


@pytest.mark.parametrize(
    "kwargs",
    [
        {"retries": 0}, {"retries": -3}, {"timeout": 0}, {"timeout": -1.0},
        # 70000 used to reach whatever listened on 70000 - 65536
        {"port": 0}, {"port": -1}, {"port": 65536}, {"port": 70000},
    ],
)
def test_client_rejects_out_of_range_settings(kwargs):
    settings = {"host": "127.0.0.1", "port": 1, **kwargs}
    with pytest.raises(InvalidConfigError) as client_error:
        RemoteVictimClient(RemoteSection(**settings))  # the client's settings are a section
    # the top port is accepted; the client connects at the first query
    RemoteVictimClient(RemoteSection("127.0.0.1", 65535)).close()
    # a config's remote section obeys the same rules, with the same words
    raw = {
        "seed": 0,
        "victim": {"data": {"source": "gaussian_mixture", "classes": 2, "dim": 4, "separation": 3.0}},
        "attack": {"pool_n": 40, "budget": 20, "cycles": 2, "strategy": {"kind": "random"}, "remote": settings},
    }
    with pytest.raises(InvalidConfigError) as parse_error:
        parse_config(raw)
    assert str(parse_error.value) == f"attack.remote: {client_error.value}"


def one_try_client(srv) -> RemoteVictimClient:
    """A client of srv that sends each request once."""
    return RemoteVictimClient(RemoteSection(srv.host, srv.port, timeout=5.0, retries=1))


class LineServer:
    """A fake victim service for one connection: it answers every request
    line with the same canned reply line, whatever the request."""

    def __init__(self, reply: bytes):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.host, self.port = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, args=(reply,), daemon=True)
        self._thread.start()

    def _serve(self, reply: bytes) -> None:
        conn, _ = self._listener.accept()
        with conn, conn.makefile("rwb") as f:
            for _ in f:
                f.write(reply + b"\n")
                f.flush()

    def __enter__(self) -> "LineServer":
        return self

    def __exit__(self, *exc) -> None:
        self._thread.join(timeout=5.0)
        self._listener.close()
        assert not self._thread.is_alive()  # the client closed its connection


@pytest.mark.parametrize(
    "reply",
    [
        b'{"id": 1, "labels": [0.7, 2.9]}',  # floats, not truncated to [0, 2]
        b'{"id": 1, "labels": [1.0, 2.0]}',  # integral floats are still floats
        b'{"id": 1, "labels": [true, false]}',  # bools, not [1, 0]
        b'{"id": 1, "labels": [1]}',  # one label short
        b'{"id": 1, "labels": [1, 2, 0]}',  # one label too many
        b'{"id": 1, "labels": [1, -2]}',  # not a class index
        b'{"id": 1, "labels": [1, 18446744073709551616]}',  # beyond int64
        b'{"id": 1, "labels": "12"}',
        b'{"id": 1, "labels": null}',
        b'{"id": 1, "label": 1}',
        b"[1, 2]",  # not an object
    ],
)
def test_client_rejects_malformed_labels(reply):
    pool = PoolState(Dataset(np.zeros((5, 3))))
    with LineServer(reply) as srv, one_try_client(srv) as cl:
        with pytest.raises(RemoteUnavailableError, match="malformed"):
            cl.query_labels([4, 1], pool)
    assert pool.counts()["unlabeled"] == 5  # nothing marked


@pytest.mark.parametrize(
    "reply",
    [
        b'{"id": 1, "remaining": 2.5}',  # not truncated to 2
        b'{"id": 1, "remaining": 3.0}',
        b'{"id": 1, "remaining": -1}',
        b'{"id": 1, "remaining": true}',
        b'{"id": 1, "remaining": "7"}',
        b'{"id": 1}',
        b"7",
    ],
)
def test_client_rejects_malformed_remaining(reply):
    with LineServer(reply) as srv, one_try_client(srv) as cl:
        with pytest.raises(RemoteUnavailableError, match="malformed"):
            cl.budget_remaining()


@pytest.mark.parametrize("reply", [b'{"id": 1, "label": 1.5}', b'{"id": 1, "label": true}', b'{"id": 1, "labels": [1, 2]}'])
def test_client_rejects_malformed_label(reply):
    with LineServer(reply) as srv, one_try_client(srv) as cl:
        with pytest.raises(RemoteUnavailableError, match="malformed"):
            cl.predict(np.zeros(3))


def test_client_accepts_well_formed_replies():
    with LineServer(b'{"id": 1, "labels": [0, 2], "remaining": 0}') as srv:
        with one_try_client(srv) as cl:
            labels = cl.predict_batch(np.zeros((2, 3)))
            assert labels.dtype == np.int64 and labels.tolist() == [0, 2]
            assert cl.budget_remaining() == 0


def test_client_refuses_a_reply_line_over_its_bound():
    # a reply to n rows needs at most n labels of 19 digits and a comma each
    limit = netvictim.reply_line_limit(2)
    assert limit == 2 * 20 + netvictim.reply_line_limit(0)
    longest = padded_line({"id": 1, "labels": [0, 2]}, limit)[:-1]  # LineServer adds the newline
    with LineServer(longest) as srv, one_try_client(srv) as cl:
        assert cl.predict_batch(np.zeros((2, 3))).tolist() == [0, 2]
    with LineServer(longest + b" ") as srv, one_try_client(srv) as cl:
        with pytest.raises(RemoteUnavailableError, match=f"reply line longer than {limit} bytes"):
            cl.predict_batch(np.zeros((2, 3)))
    remaining = padded_line({"id": 1, "remaining": 7}, netvictim.reply_line_limit(0) + 1)[:-1]
    with LineServer(remaining) as srv, one_try_client(srv) as cl:
        with pytest.raises(RemoteUnavailableError, match="reply line longer than"):
            cl.budget_remaining()


def test_client_unreachable():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    cl = RemoteVictimClient(RemoteSection("127.0.0.1", dead_port, timeout=0.3, retries=2))
    with pytest.raises(RemoteUnavailableError):
        cl.budget_remaining()


# ── remote oracle ────────────────────────────────────────────────────


def test_remote_oracle_query_labels(service):
    svc, model, oracle = service
    pool = PoolState(Dataset(np.random.default_rng(3).normal(size=(20, 4))))
    local_pool = PoolState(pool.pool)
    local = VictimOracle(model, 100)
    with RemoteVictimClient(RemoteSection(svc.host, svc.port)) as remote:
        labels = remote.query_labels([8, 3, 15], pool)
        assert labels.shape == (3,)
        assert np.array_equal(labels, local.query_labels([8, 3, 15], local_pool))
        assert oracle.query_log == local.query_log
        assert pool.counts()["queried"] == 3
        _, y, idx = pool.labeled_data()
        assert idx.tolist() == [3, 8, 15]
        assert y.tolist() == [predict_batch(model, pool.pool.features[i : i + 1])[0] for i in (3, 8, 15)]
        assert remote.budget_remaining() == 97
        with pytest.raises(InvalidInputError):
            remote.query_labels([3], pool)  # already queried
        with pytest.raises(InvalidInputError):
            remote.query_labels([1, 1], pool)


@pytest.mark.parametrize("remote", [False, True], ids=["local", "remote"])
def test_remote_oracle_precheck_blocks_partial_batches(remote):
    # the local oracle and the remote client have one surface: a batch over
    # the budget is refused whole, a batch that fits is charged once
    model = MlpModel.initialize(MlpSpec(4, (6,), 3, "relu", rng_seed=2))
    ledger = VictimOracle(model, 4)
    pool = PoolState(Dataset(np.random.default_rng(4).normal(size=(10, 4))))
    with contextlib.ExitStack() as stack:
        oracle = ledger
        if remote:
            svc = stack.enter_context(VictimService(ledger))
            oracle = stack.enter_context(RemoteVictimClient(RemoteSection(svc.host, svc.port)))
        with pytest.raises(BudgetExhaustedError):
            oracle.query_labels([1, 2, 3, 4, 5], pool)
        assert pool.counts()["queried"] == 0  # nothing marked
        assert oracle.budget_remaining() == ledger.budget_remaining() == 4  # nothing spent
        assert ledger.query_log == []
        oracle.query_labels([0, 1, 2], pool)
        assert oracle.budget_remaining() == ledger.budget_remaining() == 1
        with pytest.raises(BudgetExhaustedError):
            oracle.query_labels([3, 4], pool)
        assert pool.counts()["queried"] == 3  # the refused batch marked nothing
        assert oracle.budget_remaining() == ledger.budget_remaining() == 1
        assert len(ledger.query_log) == 3
        labels = oracle.query_labels([3], pool)
        assert oracle.budget_remaining() == ledger.budget_remaining() == 0
        _, y, idx = pool.labeled_data()
        assert idx.tolist() == [0, 1, 2, 3]
        assert y.tolist() == predict_batch(model, pool.pool.features[:4]).tolist()
        assert labels.tolist() == y[3:].tolist()


# ── the wire, byte for byte ──────────────────────────────────────────


def test_wire_transcript_is_pinned_byte_for_byte(tmp_path, monkeypatch):
    # one connection through every kind of line the server tells apart; each
    # reply line and the query log written at close are pinned as bytes
    model = MlpModel.initialize(MlpSpec(4, (6,), 3, "relu", rng_seed=2))
    oracle = VictimOracle(model, 5)
    log = tmp_path / "qlog.csv"
    failing = False
    real = numkit.predict_batch

    def predict(m, X, *args):
        if failing:
            raise RuntimeError("model failed")
        return real(m, X, *args)

    monkeypatch.setattr(numkit, "predict_batch", predict)
    rows = [[0.5, -1.0, 2.0, 0.25], [-3.0, 0.0, 3.0, 0.0]]
    predict_2 = predict_line(2, rows)
    unknown = b'{"id": 3, "op": "dance"}\n'
    over_long = b"{" + b" " * netvictim.request_line_limit(5, 4) + b"}\n"
    sent = [
        b'{"id": 1, "op": "budget"}\n',
        predict_2,
        predict_2,
        json.dumps(json.loads(predict_2), separators=(",", ":")).encode() + b"\n",
        unknown,
        unknown,
        predict_line(4, rows, x="!!!!"),
        predict_line(5, rows, cols=0),
        predict_line(6, [[1.0, 2.0, 3.0]]),
        b"not json\n",
        b'{"id": true, "op": "budget"}\n',
        b"[1, 2]\n",
        predict_line(7, np.eye(4)),
        predict_line(8, [[1.0, float("nan"), 0.0, 0.0]]),
        b'{"id": 9, "op": "budget"}\n',
        predict_line(10, rows[:1]),
        b'{"id": 11, "op": "budget"}\n',
    ]
    replies = []
    with VictimService(oracle, log_path=log) as svc:
        with socket.create_connection((svc.host, svc.port), timeout=5) as s, s.makefile("rb") as f:
            for i, line in enumerate(sent):
                failing = i == 15
                s.sendall(line)
                replies.append(f.readline())
            s.sendall(over_long)
            replies.append(f.readline())
            assert f.readline() == b""  # the server ended the connection
    bad_input = b',"code":"BAD_INPUT"}\n'
    assert replies == [
        b'{"id":1,"remaining":5}\n',
        b'{"id":2,"labels":[0,1]}\n',
        b'{"id":2,"labels":[0,1]}\n',  # the resent line, answered from the cache
        b'{"id":2,"error":"id reused with a different payload"' + bad_input,
        b'{"id":3,"error":"unknown op \'dance\'"' + bad_input,
        b'{"id":3,"error":"unknown op \'dance\'"' + bad_input,
        b'{"id":4,"error":"x is not valid base64: Only base64 data is allowed"' + bad_input,
        b'{"id":5,"error":"cols must be an integer of at least 1"' + bad_input,
        b'{"id":6,"error":"expected a (batch, 4) feature matrix, got shape (1, 3)"' + bad_input,
        b'{"id":0,"error":"unparseable request line"' + bad_input,
        b'{"id":0,"error":"missing integer id"' + bad_input,
        b'{"id":0,"error":"missing integer id"' + bad_input,
        b'{"id":7,"error":"query budget exhausted: need 4, have 3 of 5","code":"BUDGET_EXHAUSTED"}\n',
        b'{"id":8,"error":"feature matrix contains non-finite values"' + bad_input,
        b'{"id":9,"remaining":3}\n',
        b'{"id":10,"error":"RuntimeError: model failed","code":"INTERNAL"}\n',
        b'{"id":11,"remaining":3}\n',
        b'{"id":0,"error":"request line longer than 4312 bytes"' + bad_input,
    ]
    assert log.read_bytes() == b"sample_hash,label\n563f100456da516b,0\n2923985a90a310c3,1\n"
