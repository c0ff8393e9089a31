"""Serving the oracle over a socket, and RemoteVictimClient, the remote oracle.

Wire protocol: one JSON object per newline-terminated line, both ways.
Requests carry a caller-chosen integer id, echoed back. The two ops:

    {"id": 9, "op": "predict_batch", "cols": 4, "x": "<base64>"}
                                                 ->  {"id": 9, "labels": [3, ...]}
    {"id": 8, "op": "budget"}                    ->  {"id": 8, "remaining": 512}

A predict_batch carries its rows as their exact float64 values: "x" is the
RFC 4648 base64 of the rows' little-endian float64 bytes, row-major, and
"cols" is the row width. encode_rows builds these two fields and
decode_rows reads them back; nothing else knows the format. A request is
BAD_INPUT when "x" is not a string of valid base64, "cols" is not an
integer of at least 1, or the decoded length is 0 or not a multiple of
8 x cols; the oracle then refuses a width other than its input_dim and
any non-finite value.

A predict_batch is all or nothing: it is charged once, and a batch larger
than the remaining budget, or one the model fails to answer (INTERNAL), is
refused whole, charging and logging nothing.
Failures answer {"id": ..., "error": msg, "code": code}, all built by
_error. ERROR_CODES, read both ways by server and client, pairs
BUDGET_EXHAUSTED with BudgetExhaustedError and BAD_INPUT (any fault of the
request) with InvalidInputError; any other failure is INTERNAL. A line
that does not parse or has no integer id (datapool.is_integer: a bool is
not one) gets id 0 and BAD_INPUT; the connection stays open either way.

Lines are bounded both ways, so one peer cannot make the other buffer
without end. The server reads at most request_line_limit(budget total,
input_dim) bytes of a line: the whole budget's rows in base64 plus
LINE_ALLOWANCE. A longer line gets one BAD_INPUT reply with id 0 and no
charge, and its connection ends. The client reads at most
reply_line_limit(rows) bytes of a reply and raises RemoteUnavailableError
on a longer one.

The server caches the answers to the last DEDUP_WINDOW ids, most recently
used kept, keyed by (id, sha256 of the request line as received): a client
that lost a response resends the byte-identical line and receives the
original answer without spending budget again. A reused id with any other
line, an equal payload in other bytes included, is refused as BAD_INPUT,
and budget replies are never cached. Budget charging itself lives in the
wrapped oracle's single lock, which keeps concurrent connections honest.

VictimService runs on socketserver: one thread accepts connections and each
is answered on a thread of its own, along one path. The handler tests a
line's bound; _parse alone decides what the line is (a refusal without an
id, a budget request, or a predict_batch with its decoded rows or its
BAD_INPUT reply), before the one lock that _respond takes for the closed
check, the budget read, the dedup lookup and the charge in _answer, so a
long line holds up no other connection. Once close() begins, a request is
neither answered nor charged, and its connection ends. Given a log path,
close() writes the query log with datapool.write_csv: UTF-8 CSV with "\n"
line ends, like every text file ensteal writes.

RemoteVictimClient(endpoint: RemoteSection, id_seed=0) is the remote
oracle: the section gives the address, the socket timeout and the number of
tries, and id_seed the first request id. It has VictimOracle's surface
(predict_batch, budget_remaining, query_labels), so run_attack drives both
the same way.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from typing import Callable, Optional

import numpy as np

from .config import RemoteSection
from .datapool import as_matrix, is_integer, write_csv
from .errors import BudgetExhaustedError, InvalidInputError, RemoteUnavailableError
from .seeding import mask64
from .victim import VictimOracle

# the codes of ensteal's own errors, one table read both ways: the server
# from error to code, the client from code to error
ERROR_CODES = (("BUDGET_EXHAUSTED", BudgetExhaustedError), ("BAD_INPUT", InvalidInputError))
DEDUP_WINDOW = 1024  # predict_batch answers the server keeps for resent requests
LINE_ALLOWANCE = 4096  # bytes a line may hold beyond its rows or labels: keys, id, op, an error


def request_line_limit(rows: int, cols: int) -> int:
    """The longest request line a service answers, its newline included:
    rows x cols float64 values in base64, plus LINE_ALLOWANCE."""
    return 4 * -(-8 * rows * cols // 3) + LINE_ALLOWANCE


def reply_line_limit(rows: int) -> int:
    """The longest reply line a client reads for a request of rows rows (0
    for a budget request): a label of at most 19 digits and a comma per
    row, plus LINE_ALLOWANCE."""
    return 20 * rows + LINE_ALLOWANCE


def _encode(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def _error(rid: int, message: str, code: str = "BAD_INPUT") -> bytes:
    """The reply line that refuses request rid: every refusal is built here."""
    return _encode({"id": rid, "error": message, "code": code})


def _is_count(v) -> bool:
    """An integer (datapool.is_integer: not a bool) that fits a non-negative int64."""
    return is_integer(v) and 0 <= v < 1 << 63


def encode_rows(X: np.ndarray) -> dict:
    """The predict_batch fields for the (n, d) batch X: "cols" is d and "x"
    the base64 of X's little-endian float64 bytes, row-major."""
    X = np.ascontiguousarray(X, dtype="<f8")
    return {"cols": X.shape[1], "x": base64.b64encode(X.tobytes()).decode("ascii")}


def decode_rows(req: dict) -> np.ndarray:
    """The read-only (n, cols) float64 batch of a predict_batch request,
    else InvalidInputError. Width and finiteness are the oracle's checks."""
    x, cols = req.get("x"), req.get("cols")
    if not isinstance(x, str):
        raise InvalidInputError("x must be a base64 string of little-endian float64 rows")
    if not (_is_count(cols) and cols >= 1):
        raise InvalidInputError("cols must be an integer of at least 1")
    try:
        raw = base64.b64decode(x, validate=True)
    except ValueError as exc:  # binascii.Error
        raise InvalidInputError(f"x is not valid base64: {exc}") from None
    if not raw or len(raw) % (8 * cols):
        raise InvalidInputError(
            f"x decodes to {len(raw)} bytes, not a nonzero multiple of 8 x cols = {8 * cols}"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(-1, cols)


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    block_on_close = False  # close() does not wait for idle connections
    allow_reuse_address = True  # a restarted server can rebind its port at once


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service = self.server.service
        try:
            while True:
                line = self.rfile.readline(service.line_limit + 1)
                too_long = len(line) > service.line_limit
                if not too_long:
                    if not line.endswith(b"\n"):
                        return  # the peer closed, mid-line or between lines: nothing to answer
                    if not line.strip():
                        continue
                reply = service._respond(line, too_long)
                if reply is None:
                    return
                self.wfile.write(reply)
                if too_long:
                    return  # the rest of the line is never read
        except OSError:
            pass  # the client dropped the connection


class VictimService:
    """Threaded TCP front end for a VictimOracle.

    close() refuses every request that arrives after it: a request already
    being answered finishes, is charged and is logged, and any later one
    gets no answer, no charge and its connection ends. close() then stops
    accepting and, when a log path was given, writes the oracle's query log
    as CSV (sample_hash,label). It does not wait for idle connections.
    """

    def __init__(self, oracle: VictimOracle, host: str = "127.0.0.1", port: int = 0, log_path=None):
        self._oracle = oracle
        self._log_path = log_path
        self._seen: OrderedDict[int, tuple[bytes, bytes]] = OrderedDict()
        self._seen_lock = threading.Lock()
        self._closed = False
        self.line_limit = request_line_limit(oracle.budget_total, oracle.input_dim)
        self._server = _Server((host, port), _Handler)
        self._server.service = self
        self.host, self.port = self._server.server_address[:2]
        # serve_forever looks for a shutdown() request once per poll interval
        threading.Thread(target=self._server.serve_forever, args=(0.05,), daemon=True).start()

    # -- lifecycle

    def __enter__(self) -> "VictimService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        with self._seen_lock:
            if self._closed:
                return
            self._closed = True
        self._server.shutdown()
        self._server.server_close()
        if self._log_path is not None:
            write_csv(self._log_path, ("sample_hash", "label"), self._oracle.query_log)

    # -- serving

    def _respond(self, line: bytes, too_long: bool) -> Optional[bytes]:
        """The reply line to one request line, or None once close() began.
        The cache lookup and the charge share one lock, so a request resent
        on several connections at once is still charged once."""
        rid, answer = self._parse(line, too_long)
        digest = hashlib.sha256(line).digest()
        with self._seen_lock:
            if self._closed:
                return None
            if rid is None:
                return answer()
            cached = self._seen.get(rid)
            if cached is not None:
                if cached[0] != digest:
                    return _error(rid, "id reused with a different payload")
                self._seen.move_to_end(rid)
                return cached[1]
            reply = answer()
            self._seen[rid] = (digest, reply)
            while len(self._seen) > DEDUP_WINDOW:
                self._seen.popitem(last=False)
            return reply

    def _parse(self, line: bytes, too_long: bool) -> tuple[Optional[int], Callable[[], bytes]]:
        """(rid, answer): answer() builds the line's reply under the lock, and
        the reply is cached under rid unless rid is None (a refusal without an
        id, a budget request). answer() runs the oracle on a predict_batch's
        decoded rows, or gives the BAD_INPUT reply naming the request's fault."""
        if too_long:
            return None, lambda: _error(0, f"request line longer than {self.line_limit} bytes")
        try:
            req = json.loads(line)
        except (ValueError, UnicodeDecodeError):
            return None, lambda: _error(0, "unparseable request line")
        rid = req.get("id") if isinstance(req, dict) else None
        if not is_integer(rid):
            return None, lambda: _error(0, "missing integer id")
        op = req.get("op")
        if op == "budget":
            return None, lambda: _encode({"id": rid, "remaining": self._oracle.budget_remaining()})
        try:
            if op != "predict_batch":
                raise InvalidInputError(f"unknown op {op!r}")
            rows = decode_rows(req)
        except InvalidInputError as exc:
            refusal = _error(rid, str(exc))
            return rid, lambda: refusal
        return rid, lambda: self._answer(rid, rows)

    def _answer(self, rid: int, rows: np.ndarray) -> bytes:
        """The oracle's labels for rows, or the refusal its error maps to."""
        try:
            labels = self._oracle.predict_batch(rows)
        except Exception as exc:  # noqa: BLE001 - the wire must answer something
            for code, error in ERROR_CODES:
                if isinstance(exc, error):
                    return _error(rid, str(exc), code)
            return _error(rid, f"{type(exc).__name__}: {exc}", "INTERNAL")
        return _encode({"id": rid, "labels": labels.tolist()})


def serve(oracle: VictimOracle, host: str = "127.0.0.1", port: int = 0, log_path=None) -> None:
    """Run a service until interrupted (Ctrl-C or SIGTERM mapped by the CLI)."""
    with contextlib.suppress(KeyboardInterrupt), VictimService(oracle, host, port, log_path) as service:
        print(f"serving victim oracle on {service.host}:{service.port}", flush=True)
        while True:
            time.sleep(0.5)


# ── client side ──────────────────────────────────────────────────────


class RemoteVictimClient:
    """The remote oracle: VictimOracle's surface over line-JSON, with
    reconnect-and-resend retries.

    Request ids start at a seeded random point and count up, so a retried
    request reuses its id and the server's dedup cache answers it without
    double charging. Replies are checked, not coerced: labels must be one
    non-negative int per row and remaining a non-negative int, or the call
    raises RemoteUnavailableError. query_labels sends the rows as one
    predict_batch request, which the server answers or refuses whole, and
    records the answers in the pool only after the whole reply arrived, so
    a failed batch leaves pool state unchanged.
    """

    def __init__(self, endpoint: RemoteSection, id_seed: int = 0):
        self._endpoint = endpoint
        self._addr = (endpoint.host, endpoint.port)
        rng = np.random.default_rng(mask64(id_seed))
        self._next_id = int(rng.integers(1, 1 << 62))
        self._sock: Optional[socket.socket] = None
        self._reader = None  # the socket's makefile("rb"), which holds its fd open too
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "RemoteVictimClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _drop_connection(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def _roundtrip(self, payload: dict, reply_limit: int) -> dict:
        """payload's reply; each failed try drops the connection, endpoint.retries tries in all."""
        last_err: Optional[Exception] = None
        for _ in range(self._endpoint.retries):
            try:
                if self._sock is None:
                    sock = socket.create_connection(self._addr, timeout=self._endpoint.timeout)
                    self._sock, self._reader = sock, sock.makefile("rb")
                self._sock.sendall(_encode(payload))
                line = self._reader.readline(reply_limit + 1)
                if len(line) > reply_limit:
                    raise OSError(f"reply line longer than {reply_limit} bytes")
                if not line.endswith(b"\n"):
                    raise OSError("connection closed by server")
                reply = json.loads(line)
                break
            except (OSError, ValueError) as exc:
                last_err = exc
                self._drop_connection()
        else:
            raise RemoteUnavailableError(f"victim service unreachable: {last_err}")
        if not isinstance(reply, dict):
            raise RemoteUnavailableError(f"malformed reply from victim service: {reply!r:.200}")
        if "error" in reply:
            error = next((error for code, error in ERROR_CODES if code == reply.get("code")), None)
            if error is None:
                raise RemoteUnavailableError(f"server error: {reply['error']}")
            raise error(reply["error"])
        return reply

    def _request(self, body: dict, key: str, valid, rows: int = 0):
        """The reply's value under key, checked by valid: a reply without a
        valid value raises RemoteUnavailableError naming it, never coerced.
        rows is the request's row count, which bounds the reply line."""
        with self._lock:
            rid = self._next_id
            self._next_id += 1
            reply = self._roundtrip({"id": rid, **body}, reply_line_limit(rows))
        if not valid(reply.get(key)):
            raise RemoteUnavailableError(f"malformed {body['op']} reply from victim service: {reply!r:.200}")
        return reply[key]

    def predict(self, x) -> int:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise InvalidInputError(f"expected a flat feature row, got shape {x.shape}")
        return int(self.predict_batch(x[None])[0])

    def predict_batch(self, X) -> np.ndarray:
        """Labels for every row of X from one atomic request."""
        X = as_matrix(X)
        labels = self._request(
            {"op": "predict_batch", **encode_rows(X)},
            "labels",
            lambda v: isinstance(v, list) and len(v) == len(X) and all(map(_is_count, v)),
            len(X),
        )
        return np.array(labels, dtype=np.int64)

    def budget_remaining(self) -> int:
        return self._request({"op": "budget"}, "remaining", _is_count)

    def query_labels(self, indices, pool_state) -> np.ndarray:
        return pool_state.query(indices, self.predict_batch)


# Only the benchmark tracer (perfbench/spans.py) still names this alias;
# ROADMAP item 3 deletes it.
RemoteVictimOracle = RemoteVictimClient
