"""Shared fixtures: a stub scorer service on 127.0.0.1."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class StubHandler(BaseHTTPRequestHandler):
    """Answers each POST through ``behaviors[prompt_id](body)``.

    Keeps connections alive (HTTP/1.1) and serves each one on its own thread,
    so concurrent clients really overlap; ``peak_in_flight`` records how far.
    """

    protocol_version = "HTTP/1.1"
    # Buffer the reply so headers and body leave in one send; two small
    # writes on a kept-alive connection wait ~40 ms on Nagle and delayed ACK.
    wbufsize = 1 << 16
    behaviors = {}  # prompt_id -> callable(body) -> (status, payload)
    calls = []
    lock = threading.Lock()
    in_flight = 0
    peak_in_flight = 0

    def do_POST(self):
        cls = type(self)
        with cls.lock:
            cls.in_flight += 1
            cls.peak_in_flight = max(cls.peak_in_flight, cls.in_flight)
        try:
            n = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(n))
            cls.calls.append(body)
            behavior = cls.behaviors.get(body["prompt_id"], default_behavior)
            status, payload = behavior(body)
        finally:
            with cls.lock:
                cls.in_flight -= 1
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def default_behavior(body):
    if body["mode"] == "direct":
        return 200, {"mode": "direct", "score": 7, "model": "stub"}
    if body["mode"] == "logits":
        return 200, {"mode": "logits", "logits": [0.0] * 8 + [50.0] + [0.0] * 2}
    return 200, {"mode": "clarity", "l_clear": 1.5}


@pytest.fixture
def stub_server():
    StubHandler.behaviors = {}
    StubHandler.calls = []
    StubHandler.in_flight = 0
    StubHandler.peak_in_flight = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/score", StubHandler
    server.shutdown()
    server.server_close()
