"""`phishdefense serve` in this process: the handler's replies, the selector
loop that runs it, and the point at which the loop deems a request complete.
Most tests serve from a thread through conftest's `serving` harness; the
completeness property drives the loop's state by hand, and
test_serve_processes.py runs the CLI's serving processes."""

import io
import json
import os
import re
import selectors
import socket
import struct
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr
from pathlib import Path

import pytest
import requests
from hypothesis import example, given, settings, strategies as st

from conftest import address, confusion_fixture, read_until_close, serving
from phishdefense import cli, serve
from phishdefense.cli import make_handler
from phishdefense.store import load_model


def raw_exchange(base, request):
    """The bytes the server at base replies to request, read until it closes."""
    with socket.create_connection(address(base), timeout=5) as sock:
        sock.sendall(request)
        return read_until_close(sock)


@pytest.fixture(scope="module")
def http_server(fixture_model_path):
    with serving(make_handler(load_model(fixture_model_path))) as base:
        yield base


class TestServe:
    def test_health(self, http_server):
        r = requests.get(http_server + "/health", timeout=5)
        assert r.status_code == 200
        assert r.json() == {"status": "ok", "model_loaded": True}

    def test_check_scores_url(self, http_server):
        r = requests.post(http_server + "/check", json={"url": "a"}, timeout=5)
        assert r.status_code == 200
        body = r.json()
        assert body["url"] == "a"
        assert 0 < body["score"] < 1
        assert body["verdict"] == "phishing"

    def test_malformed_json_400(self, http_server):
        r = requests.post(http_server + "/check", data="not json", timeout=5)
        assert r.status_code == 400

    def test_missing_url_field_400(self, http_server):
        r = requests.post(http_server + "/check", json={"link": "x"}, timeout=5)
        assert r.status_code == 400

    # Content-Length is 1*DIGIT in one field: int() would take "1_2" and "+12"
    @pytest.mark.parametrize("length", ["abc", "-1", "1_2", "+12",
                                        pytest.param("12\r\nContent-Length: 500", id="two-fields"),
                                        pytest.param("9" * 5000, id="more-digits-than-int-takes")])
    def test_bad_content_length_400(self, http_server, length):
        # raw socket: the reply must come without the server reading a body
        host, port = address(http_server)
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                f"POST /check HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {length}\r\n\r\n".encode()
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1] == b"400"
        assert json.loads(rest.partition(b"\r\n\r\n")[2])["error"].startswith("bad request")

    def test_deeply_nested_json_400(self, http_server):
        # json.loads gives up on deep nesting with a RecursionError
        host, port = address(http_server)
        with socket.create_connection((host, port), timeout=5) as sock:
            body = b"[" * 16000
            sock.sendall(
                f"POST /check HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode() + body
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1:2] == [b"400"]
        assert json.loads(rest.partition(b"\r\n\r\n")[2])["error"].startswith("bad request")
        r = requests.post(http_server + "/check", json={"url": "a"}, timeout=5)
        assert r.status_code == 200

    def test_short_body_times_out_and_closes(self, fixture_model_path, monkeypatch):
        # a body shorter than its Content-Length: the read times out and the
        # connection closes without a reply instead of holding the thread
        monkeypatch.setattr(serve, "REQUEST_TIMEOUT_S", 0.5)
        with serving(make_handler(load_model(fixture_model_path))) as base:
            host, port = address(base)
            clients = [socket.create_connection((host, port), timeout=5) for _ in range(2)]
            for sock in clients:
                sock.sendall(
                    f"POST /check HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Length: 50\r\n\r\n".encode() + b'{"url"'
                )
            t0 = time.monotonic()
            for sock in clients:
                with sock:
                    assert sock.recv(4096) == b""
            assert time.monotonic() - t0 < 4 * serve.REQUEST_TIMEOUT_S
            r = requests.post(base + "/check", json={"url": "a"}, timeout=5)
            assert r.status_code == 200

    def test_predict_error_replies_json_500(self, http_server, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("predict failed")

        monkeypatch.setattr(cli, "predict", fail)
        r = requests.post(http_server + "/check", json={"url": "a"}, timeout=5)
        assert r.status_code == 500
        assert r.json() == {"error": "internal error"}

    def test_oversized_body_413(self, http_server):
        r = requests.post(
            http_server + "/check",
            data=json.dumps({"url": "x" * (17 * 1024)}),
            timeout=5,
        )
        assert r.status_code == 413

    def test_concurrent_requests_match_serial(self, http_server):
        urls = list("abcdefghij") * 3
        serial = [
            requests.post(http_server + "/check", json={"url": u}, timeout=5).json()["score"]
            for u in urls
        ]
        results = [None] * len(urls)

        def worker(k, u):
            results[k] = requests.post(
                http_server + "/check", json={"url": u}, timeout=10
            ).json()["score"]

        threads = [
            threading.Thread(target=worker, args=(k, u)) for k, u in enumerate(urls)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == serial

    @pytest.mark.parametrize("request_bytes, status", [
        (b"PUT /check HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /health HTTP/1.1\r\n" + b"X-A: b\r\n" * 150 + b"\r\n", 431),
        (b"GET /health HTTP/9.9\r\n\r\n", 505),
        (b"\0" * 32 + b"\r\n\r\n", 400),
        (b"POST /check\r\n\r\n", 400),  # no version: an HTTP/0.9 request
    ], ids=["method", "long-line", "headers", "version", "nul", "http-0.9"])
    def test_errors_of_the_http_server_reply_json(self, http_server, request_bytes, status):
        head, body = raw_exchange(http_server, request_bytes).split(b"\r\n\r\n", 1)
        status_line, *headers = head.split(b"\r\n")
        assert status_line.split()[1] == b"%d" % status
        assert b"Content-Type: application/json" in headers
        assert b"Content-Length: %d" % len(body) in headers
        assert list(json.loads(body)) == ["error"]

    @pytest.mark.parametrize("reset", [False, True])
    def test_a_client_that_hangs_up_costs_one_log_line(self, fixture_model_path, capsys, reset):
        # 13 of 14 promised body bytes, then the client closes (or resets)
        with serving(make_handler(load_model(fixture_model_path))) as base:
            sock = socket.create_connection(address(base), timeout=5)
            if reset:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.sendall(b'POST /check HTTP/1.1\r\nContent-Length: 14\r\n\r\n{"url": "abc"')
            sock.close()
            # the hung-up connection was accepted first, so it is logged before this reply
            assert requests.get(base + "/health", timeout=5).status_code == 200
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lost = [line for line in err.splitlines() if "connection lost" in line]
        # a reset always breaks the exchange; a plain close may come after the reply
        assert len(lost) == 1 if reset else len(lost) <= 1

    def test_a_burst_of_connections_waits_in_the_backlog(self, fixture_model_path):
        clients = []

        def burst(server_address):
            # connect before the server accepts: each connection waits in the
            # listen backlog, and a connect that finds it full times out
            for _ in range(30):
                clients.append(socket.create_connection(server_address, timeout=0.5))

        try:
            with serving(make_handler(load_model(fixture_model_path)), before=burst):
                body = b'{"url": "a"}'
                for sock in clients:
                    sock.settimeout(5)
                    sock.sendall(b"POST /check HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
                                 % (len(body), body))
                for sock in clients:
                    with sock.makefile("rb") as reply:
                        assert reply.readline().split()[1:2] == [b"200"]
        finally:
            for sock in clients:
                sock.close()


def check_request(body):
    return b"POST /check HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


class TestServeLoop:
    """One selector loop answers every connection of a serving process."""

    def test_idle_connections_start_no_thread(self, http_server):
        threads = threading.active_count()
        idle = [socket.create_connection(address(http_server), timeout=5) for _ in range(16)]
        try:
            # accepted in turn, so the 16 are accepted before this is answered
            assert requests.post(http_server + "/check", json={"url": "a"}, timeout=1).status_code == 200
            assert threading.active_count() == threads
        finally:
            for sock in idle:
                sock.close()

    def test_a_client_that_reads_no_reply_holds_up_no_other(self, fixture_model_path, monkeypatch):
        class SmallSendBuffers(serve._Server):
            def server_activate(self):  # accepted sockets take the listener's buffer size
                super().server_activate()
                self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

        # so a 16 KiB reply cannot all be written at once
        monkeypatch.setattr(serve, "_Server", SmallSendBuffers)
        body = json.dumps({"url": "x" * (cli.MAX_REQUEST_BODY - 11)}).encode()
        assert len(body) == cli.MAX_REQUEST_BODY
        with serving(make_handler(load_model(fixture_model_path))) as base, socket.socket() as stalled:
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
            stalled.settimeout(5)
            stalled.connect(address(base))
            stalled.sendall(check_request(body))
            time.sleep(0.1)  # the loop reads it and starts its reply
            assert requests.post(base + "/check", json={"url": "a"}, timeout=1).status_code == 200

    def test_a_request_sent_byte_by_byte_is_answered_once(self, fixture_model_path):
        handler = make_handler(load_model(fixture_model_path))
        do_post, paths = handler.do_POST, []

        def counted(self):
            paths.append(self.path)
            do_post(self)

        handler.do_POST = counted
        with serving(handler) as base, socket.create_connection(address(base), timeout=5) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in check_request(b'{"url": "a"}'):
                sock.send(bytes([byte]))
                time.sleep(0.001)
            reply = read_until_close(sock)
        assert reply.split()[1] == b"200" and json.loads(reply.partition(b"\r\n\r\n")[2])["url"] == "a"
        assert paths == ["/check"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the server's CPU time from /proc")
    def test_out_of_file_descriptors_the_loop_waits_for_a_close(self, fixture_model_path):
        # one serving process allowed 32 descriptors, and more idle clients
        # than that: accept fails with EMFILE while the connections queue
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        child = (
            "import os, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (32, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from phishdefense.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", child, "serve", "--model", fixture_model_path, "--bind", "127.0.0.1:0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, text=True,
        )
        idle = []
        try:
            port = int(re.search(r"serving on 127\.0\.0\.1:(\d+) ", proc.stderr.readline())[1])
            idle = [socket.create_connection(("127.0.0.1", port), timeout=5) for _ in range(40)]
            time.sleep(0.2)  # the loop accepts up to its limit

            def cpu_s():
                fields = Path(f"/proc/{proc.pid}/stat").read_text().rpartition(")")[2].split()
                return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")  # utime + stime

            start = cpu_s()
            time.sleep(2)
            assert cpu_s() - start < 0.2
            for sock in idle:
                sock.close()
            r = requests.post(f"http://127.0.0.1:{port}/check", json={"url": "a"}, timeout=5)
            assert r.status_code == 200
        finally:
            for sock in idle:
                sock.close()
            proc.kill()
            err = proc.communicate(timeout=10)[1]
        assert "cannot accept a connection: [Errno 24] Too many open files" in err
        assert "Traceback" not in err


class _Reads(io.BytesIO):
    """A request file that keeps, when closed, how many bytes were read."""

    def close(self):
        self.read_bytes = self.tell()
        super().close()


class _Recorder:
    """A stand-in for a socket over a whole request, keeping the handler's
    request file and its reply: the oracle for what http.server reads."""

    def __init__(self, request: bytes):
        self.rfile, self.reply = _Reads(request), bytearray()

    def makefile(self, mode, buffering=-1):
        return self.rfile

    def sendall(self, data):
        self.reply += data


HTTP_MAX_LINE = 65536  # http.client's longest line; http.server answers a longer one 414 or 431


LATIN1 = st.text(st.characters(max_codepoint=255), max_size=12)


def mostly(choices):
    """One of choices three times in four, else latin-1 text."""
    return st.one_of(*[st.sampled_from(choices)] * 3, LATIN1)


@st.composite
def request_bytes(draw):
    """Request bytes near and beyond what http.server accepts: odd request
    lines and paths, header lines past its limits, a Content-Length of any
    text."""
    method = draw(mostly(["POST", "GET", "PUT"]))
    version = draw(mostly(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/01.1", "HTTP/1.1.1", "HTTP/\xb2.1", ""]))
    path = draw(st.sampled_from(["/check"] * 3 + ["/x", "/check?x=1", "//check", "/"]))
    line = draw(st.sampled_from([f"{method} {path} {version}".rstrip()] * 4 + ["", method, "a b c d"]))
    names = mostly(["Content-Length", "content-length", "Host", "Content-Length ", "From ", ""])
    values = mostly(["0", "12", " 5 ", "-1", "16384", "16385", "x", "\xa012", "1\x0b2", "1\r2"])
    headers = draw(st.lists(st.tuples(names, st.sampled_from([":", ": ", ""]), values), max_size=6))
    sep = draw(st.sampled_from(["\r\n", "\n"]))
    lines = [line] + ["".join(h) for h in headers]
    extra = draw(st.sampled_from(["", "", "", "", "", "folded", "headers", "line"]))
    if extra == "folded":  # a header line that continues the one before
        lines.append(" 3")
    elif extra == "headers":  # at and past http.client's limit of 100
        lines += ["X-A: b"] * draw(st.integers(98, 101))
    elif extra == "line":  # a line of 64 KiB, the longest http.server reads
        lines.insert(draw(st.integers(0, 1)), "X" * draw(st.integers(HTTP_MAX_LINE - 3, HTTP_MAX_LINE)))
    head = sep.join(lines).encode("latin-1") + sep.encode() * 2
    return head + draw(st.binary(max_size=40))


def _headers(*lines):
    return "".join(line + "\r\n" for line in lines).encode("latin-1") + b"\r\n"


@pytest.fixture(scope="module")
def fixture_handler(fixture_model_path):
    """The serve handler, listing the do_<METHOD> calls it enters in `entered`."""

    class Handler(make_handler(load_model(fixture_model_path))):
        entered = []

        def do_GET(self):
            self.entered.append("GET")
            super().do_GET()

        def do_POST(self):
            self.entered.append("POST")
            super().do_POST()

    return Handler


@pytest.fixture(scope="module")
def loop(fixture_handler):
    """A serving loop's state without its select: a test adds a connection
    and calls _read on it as select would."""
    server = serve._Server(("127.0.0.1", 0), fixture_handler)
    with server, selectors.DefaultSelector() as server._selector:
        server._open = {}
        yield server


def received(sock):
    """What the peer of a non-blocking sock sent before it closed, or None
    while it has sent nothing and is still open."""
    reply = b""
    try:
        while chunk := sock.recv(65536):
            reply += chunk
    except BlockingIOError:
        assert not reply, "a reply without a close"
        return None
    except ConnectionResetError:  # a close with sent bytes unread
        pass
    return reply


def status_and_body(reply):
    head, _, body = bytes(reply).partition(b"\r\n\r\n")
    return head.partition(b"\r\n")[0], body


@settings(max_examples=300, deadline=None)
@given(data=request_bytes(), cuts=st.lists(st.floats(0, 1), max_size=20))
@example(data=_headers("POST /check HTTP/1.1", "Content-Length: 5") + b"abcde", cuts=[])
@example(data=_headers("POST /check HTTP/1.0", "content-length:  3 ") + b"abcde", cuts=[])
@example(data=_headers("POST /check HTTP/1.1", "Content-Length: 16384") + b"a" * 16384, cuts=[])
@example(data=_headers("GET /check HTTP/1.1", "Content-Length: 5") + b"abc", cuts=[])
@example(data=_headers("GET /health", "Host: x"), cuts=[])
@example(data=_headers("POST /check HTTP/2.0", "Content-Length: 5") + b"abc", cuts=[])
@example(data=_headers("POST /check HTTP/1.1", *["X-A: b"] * 98, "Content-Length: 5") + b"abcde", cuts=[])
@example(data=_headers("POST /check HTTP/1.1", *["X-A: b"] * 99, "Content-Length: 5") + b"abcde", cuts=[])
@example(data=_headers("POST /check HTTP/1.1", *["X-A: b"] * 100, "Content-Length: 5") + b"abcde", cuts=[])
@example(data=_headers("GET /" + "a" * (HTTP_MAX_LINE - 16) + " HTTP/1.1"), cuts=[])
@example(data=_headers("GET /" + "a" * (HTTP_MAX_LINE - 15) + " HTTP/1.1"), cuts=[])
@example(data=_headers("GET / HTTP/1.1", "X" * (HTTP_MAX_LINE - 2)), cuts=[])
@example(data=_headers("GET / HTTP/1.1", "X" * (HTTP_MAX_LINE - 1)), cuts=[])
@example(data=_headers("GET / HTTP/1.1", "X" * (HTTP_MAX_LINE + 10)), cuts=[])
@example(data=_headers("POST /check HTTP/1.1", "Content-Length: 5", " 1") + b"abc", cuts=[])
@example(data=_headers("POST /check HTTP/1.1", "Content-Length: 5\rX: 1") + b"abc", cuts=[])
@example(data=_headers("POST /x HTTP/1.1", "Content-Length: 500"), cuts=[])
@example(data=_headers("POST /check?x=1 HTTP/1.1", "Content-Length: 5") + b"abcde", cuts=[])
@example(data=_headers("POST //check HTTP/1.0", "Content-Length: 5") + b"abc", cuts=[])
@example(data=_headers("POST /x HTTP/1.1", "Content-Length: x"), cuts=[])
def test_a_request_is_complete_once_http_server_has_read_all_it_reads(fixture_handler, loop, data, cuts):
    # the oracle: http.server's reads on the request followed by more bytes
    # than any read of it takes
    recorder = _Recorder(data + b"x" * (2 * HTTP_MAX_LINE))
    with redirect_stderr(io.StringIO()):
        fixture_handler(recorder, ("127.0.0.1", 0), None)
    need, entered = recorder.rfile.read_bytes, list(fixture_handler.entered)
    fixture_handler.entered.clear()
    # the loop reads data from a socket in pieces, one of them ending just before need
    ends = sorted({round(cut * len(data)) for cut in cuts} | {need - 1, need, len(data)})
    ends = [end for end in ends if 0 < end <= len(data)]
    server_end, client = socket.socketpair()
    server_end.setblocking(False)
    client.setblocking(False)
    conn = serve._Connection(server_end, ("127.0.0.1", 0))
    loop._selector.register(server_end, selectors.EVENT_READ, conn)
    loop._touch(conn)
    try:
        with client, redirect_stderr(io.StringIO()):
            for start, end in zip([0, *ends], ends):
                client.sendall(data[start:end])
                loop._read(conn)
                reply = received(client)
                if end < need:
                    assert reply is None, (end, need)
                else:
                    assert reply is not None, (end, need)
                    assert status_and_body(reply) == status_and_body(recorder.reply)
                    break
            else:  # the oracle read past data: the loop waits for the client to finish sending
                assert need > len(data)
                client.shutdown(socket.SHUT_WR)
                loop._read(conn)
                assert received(client)
    finally:
        if conn in loop._open:
            loop._close(conn)
    assert fixture_handler.entered == entered and len(entered) <= 1
    fixture_handler.entered.clear()


def test_a_request_line_of_control_characters_logs_one_escaped_line(fixture_model_path, capsys):
    with serving(make_handler(load_model(fixture_model_path))) as base:
        reply = raw_exchange(base, b"GET /\x1b[2Jx\rfake-line HTTP/1.0\r\n\r\n")
    assert reply.split()[1] == b"400"
    (line,) = capsys.readouterr().err.splitlines()
    assert "\\x1b[2Jx\\x0dfake-line" in line
    assert not re.search("[\x00-\x1f\x7f-\x9f]", line)


@pytest.fixture
def nan_model():
    model, _ = confusion_fixture()
    for tensor in model.params.values():
        tensor[...] = float("nan")
    return model


def test_serve_answers_a_nan_score_with_500_and_keeps_serving(nan_model, capsys):
    with serving(make_handler(nan_model)) as base:
        for _ in range(2):
            r = requests.post(base + "/check", json={"url": "a"}, timeout=5)
            assert r.status_code == 500 and r.json() == {"error": "internal error"}
        assert requests.get(base + "/health", timeout=5).status_code == 200
    assert "Exception occurred during processing" not in capsys.readouterr().err
