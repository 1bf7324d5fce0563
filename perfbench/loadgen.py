"""Single-threaded open-loop HTTP load generator.

Requests are due on a fixed schedule whether or not earlier ones have been
answered. At most `max_in_flight` connections are open at once; a request
whose turn comes while all are busy waits in the generator's backlog. Every
latency counts from when the request was due, so a stall is charged to the
requests queued behind it, and the generator reports how late it ran.
"""

from __future__ import annotations

import bisect
import errno
import selectors
import socket
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

REQUEST_HEADER = "X-Request-Id"  # lets a traced server tag its spans per request
BACKLOG_SAMPLE_S = 0.1
BACKLOG_GROWING_SAMPLES = 10
MAX_BACKLOG = 10
TIMEOUT_S = 5.0  # a request without a full reply by then fails
GET_TIMEOUT_S = 1.0


@dataclass
class Outcome:
    rid: int
    due: float
    ready: float = 0.0  # due, or later when no connection was free at due time
    sent: float = 0.0  # when the generator opened the connection
    done: float = 0.0
    status: int = 0  # HTTP status; 0 when the connection failed or timed out
    body: bytes = b""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def queue_wait(self) -> float:
        return self.ready - self.due

    @property
    def late(self) -> float:
        return self.sent - self.ready


def schedule(rate: float, duration: float, start: float) -> List[float]:
    """Due times of an evenly spaced open-loop schedule."""
    return [start + k / rate for k in range(int(round(rate * duration)))]


def http_request(method: str, path: str, body: bytes, rid: int) -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"{REQUEST_HEADER}: {rid}\r\nConnection: close\r\n\r\n"
    )
    return head.encode() + body


def parse_response(raw: bytes) -> Tuple[int, bytes]:
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        return 0, b""
    parts = head.split(b"\r\n", 1)[0].split()
    try:
        return int(parts[1]), body
    except (IndexError, ValueError):
        return 0, b""


class _Conn:
    def __init__(self, outcome: Outcome, payload: bytes) -> None:
        self.outcome = outcome
        self.payload = payload
        self.chunks: List[bytes] = []
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setblocking(False)


def run_open_loop(
    address: Tuple[str, int],
    payloads: Sequence[bytes],
    due: Sequence[float],
    max_in_flight: int = 2,
    first_rid: int = 0,
) -> Tuple[List[Outcome], bool]:
    """Send payloads[k] at due[k]; returns the outcomes sent and whether the
    run was abandoned because the backlog kept growing.

    A request is dispatched when it is due and a connection slot is free.
    Once the backlog is above MAX_BACKLOG and has not shrunk over
    BACKLOG_GROWING_SAMPLES samples, the remaining requests are dropped unsent.
    """
    sel = selectors.DefaultSelector()
    outcomes: List[Outcome] = []
    in_flight = 0
    # When each idle connection slot became free, oldest first.
    free_since = [due[0] if due else 0.0] * max_in_flight
    nxt = 0
    backlog_trend: List[int] = []
    next_sample = due[0] + BACKLOG_SAMPLE_S if due else 0.0
    abandoned = False

    def finish(conn: _Conn, status: int, body: bytes, error: str) -> None:
        nonlocal in_flight
        conn.outcome.done = time.perf_counter()
        conn.outcome.status, conn.outcome.body, conn.outcome.error = status, body, error
        sel.unregister(conn.sock)
        conn.sock.close()
        in_flight -= 1
        free_since.append(conn.outcome.done)

    try:
        while nxt < len(due) or in_flight:
            now = time.perf_counter()
            while nxt < len(due) and due[nxt] <= now and in_flight < max_in_flight:
                out = Outcome(rid=first_rid + nxt, due=due[nxt])
                out.ready = max(due[nxt], free_since.pop(0))
                conn = _Conn(out, payloads[nxt])
                out.sent = time.perf_counter()
                err = conn.sock.connect_ex(address)
                outcomes.append(out)
                in_flight += 1
                nxt += 1
                sel.register(conn.sock, selectors.EVENT_WRITE, conn)
                if err not in (0, errno.EINPROGRESS):
                    finish(conn, 0, b"", f"connect: {errno.errorcode.get(err, err)}")
            if nxt < len(due) and now >= next_sample:
                next_sample = now + BACKLOG_SAMPLE_S
                backlog = bisect.bisect_right(due, now) - nxt
                if backlog_trend and backlog < backlog_trend[-1]:
                    backlog_trend.clear()
                backlog_trend.append(backlog)
                if len(backlog_trend) > BACKLOG_GROWING_SAMPLES and backlog > MAX_BACKLOG:
                    abandoned = True
                    due = due[:nxt]
            if nxt < len(due) and in_flight < max_in_flight:
                wait = max(0.0, due[nxt] - time.perf_counter())
            else:
                wait = BACKLOG_SAMPLE_S
            for key, events in sel.select(min(wait, BACKLOG_SAMPLE_S)):
                conn = key.data
                if events & selectors.EVENT_WRITE:
                    err = conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                    if err:
                        finish(conn, 0, b"", f"connect: {errno.errorcode.get(err, err)}")
                        continue
                    try:
                        conn.sock.sendall(conn.payload)
                    except OSError as e:
                        finish(conn, 0, b"", f"send: {e}")
                        continue
                    sel.modify(conn.sock, selectors.EVENT_READ, conn)
                elif events & selectors.EVENT_READ:
                    try:
                        chunk = conn.sock.recv(65536)
                    except BlockingIOError:
                        continue
                    except OSError as e:
                        finish(conn, 0, b"", f"recv: {e}")
                        continue
                    if chunk:
                        conn.chunks.append(chunk)
                    else:
                        status, body = parse_response(b"".join(conn.chunks))
                        finish(conn, status, body, "" if status else "malformed reply")
            now = time.perf_counter()
            for key in list(sel.get_map().values()):
                if now - key.data.outcome.sent > TIMEOUT_S:
                    finish(key.data, 0, b"", "timeout")
    finally:
        for key in list(sel.get_map().values()):
            key.fileobj.close()
        sel.close()
    return outcomes, abandoned


def get(address: Tuple[str, int], path: str) -> Optional[int]:
    """Blocking GET; the HTTP status, or None when the server cannot be reached."""
    try:
        with socket.create_connection(address, timeout=GET_TIMEOUT_S) as sock:
            sock.sendall(http_request("GET", path, b"", -1))
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return None
    return parse_response(b"".join(chunks))[0] or None
