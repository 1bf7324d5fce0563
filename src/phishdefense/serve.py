"""`phishdefense serve`'s transport: how connections are read, timed out and
spread over processes. The http.server handler class it runs answers them."""

from __future__ import annotations

import errno
import os
import selectors
import signal
import sys
import threading
import time
import traceback
from http.server import HTTPServer

# seconds a serve connection may go without a byte from or to its client (a
# request line that never comes, a body shorter than its Content-Length, a
# reply the client does not read) before it is closed without a reply
REQUEST_TIMEOUT_S = 10.0
_RECV_BYTES = 65536
STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)
# C0 and C1 control characters and DEL, written as \xNN
_CONTROL_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}


class _Incomplete(Exception):
    """The handler read past the bytes its client has sent so far."""


class _Connection:
    """A client's connection, in the shape of the socket a
    StreamRequestHandler writes and of the file it reads. The handler reads
    the bytes received so far from `pos`, and its reply collects in `reply`,
    so it never waits on the client; the loop then writes the reply as it
    drains. A read past those bytes, while the client may still send, keeps
    in `wants` what it waited for and raises _Incomplete; once the client has
    finished sending (`eof`), reads return short, as io.BytesIO does."""

    def __init__(self, sock, address):
        self.sock, self.address = sock, address
        self.data = bytearray()
        self.reads = {}  # the handler's reads of data, by (start, end)
        # what the handler's last read waited for: data up to end, or with
        # line, a line break; before the handler has run, any byte
        self.wants = 1, False
        self.eof, self.pos = False, 0
        self.reply = bytearray()
        self.deadline = 0.0

    def makefile(self, mode, buffering=-1):  # the handler's reading file; its writer calls sendall
        return self

    def readline(self, limit):
        end = self.data.find(b"\n", self.pos) + 1 or sys.maxsize
        if limit < end - self.pos:
            end = self.pos + limit
        return self._take(end, line=True)

    def read(self, size):
        return self._take(self.pos + size, line=False)

    def _take(self, end: int, line: bool) -> bytes:
        if end > len(self.data) and not self.eof:
            self.wants = end, line
            raise _Incomplete
        # data only grows, so what an earlier run read is kept, not copied again
        chunk = self.reads.get((self.pos, end))
        if chunk is None:
            chunk = self.reads[self.pos, end] = bytes(self.data[self.pos:end])
        self.pos += len(chunk)
        return chunk

    def sendall(self, data):
        self.reply += data

    def close(self):  # the loop closes the socket
        pass


class _Server(HTTPServer):
    """Serves every connection from one selector loop: it runs the handler
    on a connection's bytes whenever they hold what its last read waited
    for, until a run reads all it needs, and writes the reply without
    blocking, so an idle or slow client costs a file descriptor, not a
    thread. Scoring runs inline in the loop."""

    # socketserver's listen backlog of 5 drops most connects of a burst
    request_queue_size = 128
    supervisor = None  # in a forked worker, the pid of the process that forked it

    def __init__(self, server_address, RequestHandlerClass):
        super().__init__(server_address, RequestHandlerClass)
        self._stopping = False
        self._stopped = threading.Event()

    def server_activate(self):
        super().server_activate()
        # every serving process polls this socket: a connect wakes them all
        # and the first to accept takes it, so the others' accept must not wait
        self.socket.setblocking(False)

    def service_actions(self):
        # a worker whose supervisor is gone (killed, say) stops serving, so
        # nothing is left holding the port
        if self.supervisor is not None and os.getppid() != self.supervisor:
            os._exit(0)

    def serve_forever(self, poll_interval=0.5):
        self._stopped.clear()
        # open connections in the order of their deadlines: each deadline is
        # REQUEST_TIMEOUT_S after the connection's last byte
        self._open = {}
        try:
            with selectors.DefaultSelector() as self._selector:
                self._listen()
                while not self._stopping:
                    paused = self.socket not in self._selector.get_map()
                    timeout = poll_interval
                    if self._open:
                        timeout = min(timeout, max(next(iter(self._open)).deadline - time.monotonic(), 0.0))
                    for key, events in self._selector.select(timeout):
                        conn = key.data
                        if conn is None:
                            self._accept()
                        elif events & selectors.EVENT_WRITE:
                            self._write(conn)
                        else:
                            self._read(conn)
                    now = time.monotonic()
                    while self._open and (conn := next(iter(self._open))).deadline <= now:
                        log(f"{conn.address[0]} - connection timed out: no byte for {REQUEST_TIMEOUT_S:g} s")
                        self._close(conn)
                    if paused and not self._open:  # out of descriptors with none to free: retry after a poll
                        self._listen()
                    self.service_actions()
        finally:
            for conn in self._open:
                conn.sock.close()
            self._stopping = False
            self._stopped.set()

    def shutdown(self):
        self._stopping = True
        self._stopped.wait()

    def _touch(self, conn) -> None:
        self._open.pop(conn, None)
        self._open[conn] = None
        conn.deadline = time.monotonic() + REQUEST_TIMEOUT_S

    def _close(self, conn) -> None:
        self._selector.unregister(conn.sock)
        del self._open[conn]
        self.shutdown_request(conn.sock)
        self._listen()

    def _listen(self) -> None:
        """Poll the listening socket, unless it is polled already."""
        if self.socket not in self._selector.get_map():
            self._selector.register(self.socket, selectors.EVENT_READ)

    def _lost(self, conn, error: OSError) -> None:
        log(f"{conn.address[0]} - connection lost: {error!r}")
        self._close(conn)

    def _accept(self) -> None:
        try:
            sock, address = self.socket.accept()
        except OSError as e:  # another process took it, or its client gave up
            if e.errno in (errno.EMFILE, errno.ENFILE):
                # the connection stays queued and the socket readable: poll it
                # again once a connection closes and frees a descriptor
                log(f"serve: cannot accept a connection: {e}; accepting again once one closes")
                self._selector.unregister(self.socket)
            return
        sock.setblocking(False)
        conn = _Connection(sock, address)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        self._touch(conn)
        self._read(conn)  # the request often arrives with the connect

    def _read(self, conn) -> None:
        had = len(conn.data)
        while True:
            try:
                chunk = conn.sock.recv(_RECV_BYTES)
            except BlockingIOError:  # what the handler waits for has not arrived
                if len(conn.data) > had:
                    self._touch(conn)
                return
            except OSError as e:
                self._lost(conn, e)
                return
            conn.data += chunk
            end, line = conn.wants
            if chunk and len(conn.data) < end and not (line and b"\n" in chunk):
                continue
            # the handler's reads are met, or the client has finished sending
            conn.eof, conn.pos, conn.reply = not chunk, 0, bytearray()
            try:
                self.finish_request(conn, conn.address)
            except _Incomplete:
                continue
            except Exception:
                self.handle_error(conn.sock, conn.address)
                self._close(conn)
                return
            self._write(conn)
            return

    def _write(self, conn) -> None:
        left = len(conn.reply)
        try:
            while conn.reply:
                del conn.reply[:conn.sock.send(conn.reply)]
        except BlockingIOError:  # the client's window is full: wait for it to read
            self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
            if len(conn.reply) < left:
                self._touch(conn)
            return
        except OSError as e:
            self._lost(conn, e)
            return
        self._close(conn)


def log(msg: str) -> None:
    """One stderr line, written at once (serve's processes share stderr),
    with every control character escaped: a client's request line cannot
    move the operator's cursor, nor a path split the line."""
    sys.stderr.write(msg.translate(_CONTROL_ESCAPES) + "\n")


def _process_count() -> int:
    """One serving process per CPU this process may run on (`taskset` sets
    them); one where the platform cannot fork or tell them."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _fork_workers(server: _Server, n: int, pids: list) -> None:
    """Fork n processes that serve on server's socket too, adding each pid
    to pids as it starts."""
    sys.stdout.flush()  # or a buffered line would be written once per process
    sys.stderr.flush()
    supervisor = os.getpid()
    signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)  # a stop waits until every pid is listed
    try:
        for _ in range(n):
            pid = os.fork()
            if pid == 0:
                _work(server, supervisor)
            pids.append(pid)
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)


def _work(server: _Server, supervisor: int) -> None:
    """A forked worker's life: serve until a stop signal or until the
    supervisor is gone. It leaves through os._exit, never returning into the
    code that forked it, so only the supervisor runs exit handlers."""
    try:
        for sig in STOP_SIGNALS:
            signal.signal(sig, lambda *_: os._exit(0))
        server.supervisor = supervisor
        signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)
        server.serve_forever()
    except BaseException:
        sys.stderr.write(traceback.format_exc())
    finally:
        os._exit(1)


def serve(address: tuple, handler) -> int:
    """Answer every connection to address, (host, port), with the http.server
    handler class, from one process per usable CPU, until SIGINT or SIGTERM
    stops them all; the exit code, 1 when address cannot be bound."""
    host, port = address
    try:
        server = _Server((host, port), handler)
    except OSError as e:
        log(f"serve: cannot bind {host}:{port}: {e}")
        return 1
    processes = _process_count()
    log(f"serving on {host}:{server.server_address[1]} ({processes} process{'es' * (processes > 1)})")
    workers = []
    try:
        for sig in STOP_SIGNALS:  # SIGTERM stops serve the way SIGINT does
            signal.signal(sig, signal.default_int_handler)
        if processes > 1:  # before any thread starts or any request is scored
            _fork_workers(server, processes - 1, workers)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for pid in workers:
            os.kill(pid, signal.SIGINT)
        for pid in workers:
            os.waitpid(pid, 0)
        server.server_close()
    return 0
