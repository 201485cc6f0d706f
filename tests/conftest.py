"""Shared fixtures: a stub scorer service on 127.0.0.1, over http or https,
a raw-reply server and a CONNECT proxy."""

import contextlib
import json
import select
import socket
import socketserver
import ssl
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

# A self-signed certificate for 127.0.0.1 (valid until 2126) and its key.
TLS_CERT = Path(__file__).parent / "data" / "localhost-cert.pem"
TLS_KEY = Path(__file__).parent / "data" / "localhost-key.pem"


class StubHandler(BaseHTTPRequestHandler):
    """Answers each POST through ``behaviors[prompt_id](body)``, which returns
    a status and a JSON payload (or the raw body bytes).

    Keeps connections alive (HTTP/1.1) and serves each one on its own thread,
    so concurrent clients really overlap; ``peak_in_flight`` records how far.
    ``connections`` and ``closed`` count the TCP connections accepted and
    ended. ``after_reply`` "announce" answers with ``Connection: close``;
    "drop" closes the connection after each reply without saying so, as a
    server does with an idle keep-alive connection.
    """

    protocol_version = "HTTP/1.1"
    # Buffer the reply so headers and body leave in one send; two small
    # writes on a kept-alive connection wait ~40 ms on Nagle and delayed ACK.
    wbufsize = 1 << 16
    behaviors = {}  # prompt_id -> callable(body) -> (status, payload)
    calls = []  # request bodies, in arrival order
    paths = []  # request targets
    seen_headers = []  # request headers
    lock = threading.Lock()
    in_flight = 0
    peak_in_flight = 0
    connections = 0
    closed = 0
    after_reply = "keep"
    content_type = "application/json"

    def setup(self):
        super().setup()
        with self.lock:
            type(self).connections += 1

    def finish(self):
        try:
            super().finish()
        finally:
            with self.lock:
                type(self).closed += 1

    def do_POST(self):
        cls = type(self)
        with cls.lock:
            cls.in_flight += 1
            cls.peak_in_flight = max(cls.peak_in_flight, cls.in_flight)
        try:
            n = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(n))
            cls.calls.append(body)
            cls.paths.append(self.path)
            cls.seen_headers.append(self.headers)
            behavior = cls.behaviors.get(body["prompt_id"], default_behavior)
            status, payload = behavior(body)
        finally:
            with cls.lock:
                cls.in_flight -= 1
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", cls.content_type)
        self.send_header("Content-Length", str(len(data)))
        if cls.after_reply == "announce":
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)
        if cls.after_reply == "drop":
            self.close_connection = True

    def log_message(self, *args):
        pass


def default_behavior(body):
    if body["mode"] == "direct":
        return 200, {"mode": "direct", "score": 7, "model": "stub"}
    return 200, {"mode": "clarity", "l_clear": 1.5}


@contextlib.contextmanager
def _serve(handler, wrap=None):
    """Serve ``handler`` on a free 127.0.0.1 port, given to the ``with`` block."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    if wrap is not None:
        server.socket = wrap(server.socket)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


def _reset_stub():
    StubHandler.behaviors = {}
    StubHandler.calls = []
    StubHandler.paths = []
    StubHandler.seen_headers = []
    StubHandler.in_flight = 0
    StubHandler.peak_in_flight = 0
    StubHandler.connections = 0
    StubHandler.closed = 0
    StubHandler.after_reply = "keep"
    StubHandler.content_type = "application/json"


@pytest.fixture
def stub_server():
    _reset_stub()
    with _serve(StubHandler) as port:
        yield f"http://127.0.0.1:{port}/score", StubHandler


def _tls_wrap(sock):
    """``sock`` serving TLS with the certificate in ``TLS_CERT``."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS_CERT, TLS_KEY)
    return context.wrap_socket(sock, server_side=True)


@pytest.fixture
def tls_stub_server():
    """The stub behind TLS, with the certificate in ``TLS_CERT``."""
    _reset_stub()
    with _serve(StubHandler, _tls_wrap) as port:
        yield f"https://127.0.0.1:{port}/score", StubHandler


def ok_reply(body) -> tuple[bytes, bool]:
    """``default_behavior``'s answer as a plain HTTP/1.1 reply with a
    Content-Length, keeping the connection open."""
    payload = json.dumps(default_behavior(body)[1]).encode()
    head = f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {len(payload)}"
    return f"{head}\r\n\r\n".encode() + payload, False


class RawHandler(socketserver.StreamRequestHandler):
    """Reads each request, its head and then a Content-Length body, and
    answers with the bytes ``reply(body)`` returns, verbatim, in one write;
    ``reply`` also says whether to close the connection after them.
    ``requests`` keeps the bytes of every request, ``connections`` counts
    the connections accepted."""

    reply = staticmethod(ok_reply)
    requests = []
    connections = 0
    lock = threading.Lock()

    def setup(self):
        super().setup()
        with self.lock:
            type(self).connections += 1

    def handle(self):
        cls = type(self)
        try:
            while True:
                head = []
                while not head or head[-1] != b"\r\n":
                    head.append(self.rfile.readline(1 << 16))
                    if not head[-1]:
                        return
                fields = dict(line.split(b":", 1) for line in head[1:-1])
                body = self.rfile.read(int(fields.get(b"Content-Length", 0)))
                with cls.lock:
                    cls.requests.append(b"".join(head) + body)
                data, close = cls.reply(json.loads(body))
                self.wfile.write(data)
                if close:
                    return
        except OSError:  # the client hung up, say after a reply it could not read
            return


def _raw_server(wrap, scheme):
    RawHandler.reply = staticmethod(ok_reply)
    RawHandler.requests = []
    RawHandler.connections = 0
    with _serve(RawHandler, wrap) as port:
        yield f"{scheme}://127.0.0.1:{port}/score", RawHandler


@pytest.fixture
def raw_server():
    yield from _raw_server(None, "http")


@pytest.fixture
def tls_raw_server():
    """``raw_server`` behind TLS, with the certificate in ``TLS_CERT``."""
    yield from _raw_server(_tls_wrap, "https")


class ConnectProxyHandler(BaseHTTPRequestHandler):
    """A proxy that only tunnels: each CONNECT relays bytes both ways.
    ``tunnels`` records each target and its Proxy-Authorization header."""

    protocol_version = "HTTP/1.1"
    tunnels = []

    def do_CONNECT(self):
        type(self).tunnels.append((self.path, self.headers.get("Proxy-Authorization")))
        host, _, port = self.path.rpartition(":")
        upstream = socket.create_connection((host, int(port)), timeout=10)
        self.send_response(200, "Connection established")
        self.end_headers()
        self.close_connection = True
        ends = {self.connection: upstream, upstream: self.connection}
        try:
            while True:
                readable, _, _ = select.select(list(ends), [], [], 10)
                data = readable and readable[0].recv(1 << 16)
                if not data:
                    return
                ends[readable[0]].sendall(data)
        except OSError:
            return
        finally:
            upstream.close()

    def log_message(self, *args):
        pass


@pytest.fixture
def connect_proxy():
    ConnectProxyHandler.tunnels = []
    with _serve(ConnectProxyHandler) as port:
        yield f"http://127.0.0.1:{port}", ConnectProxyHandler
