"""Stub scorer service for the remote_score workload.

Answers every POST the way lanefuse's synthetic backend would for the same
seed and the ``SCENARIO`` below, after ``DELAY_MS``, so a remote run's scores
CSV must equal the synthetic one. It binds 127.0.0.1 on a free port, prints
the port on its first stdout line, and serves until its stdin closes.
``GET /stats`` returns the attempt, 5xx and peak-concurrency counts.

Usage: python3 perfbench/stub.py --seed N  (with lanefuse importable, e.g.
PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from lanefuse.backends import synthetic_score
from lanefuse.evaluation import SCENARIOS_BY_NAME

SCENARIO = "clean"
DELAY_MS = 2.0


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.attempts = 0
        self.errors_5xx = 0
        self.in_flight = 0
        self.in_flight_max = 0

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "attempts": self.attempts,
                "errors_5xx": self.errors_5xx,
                "in_flight_max": self.in_flight_max,
            }


def make_handler(scenario, seed: int, delay_s: float, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode()
            head = (
                f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            # One send for headers and body: a separate body write waits on
            # Nagle plus the client's delayed ACK (~40 ms per request), which
            # would measure the stub instead of the client.
            self.wfile.write(head + body)

        def do_POST(self):
            with stats.lock:
                stats.attempts += 1
                stats.in_flight += 1
                stats.in_flight_max = max(stats.in_flight_max, stats.in_flight)
            try:
                request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                time.sleep(delay_s)
                resp = synthetic_score(
                    scenario, seed, request["image"], request["prompt_id"], request["mode"]
                )
                payload = {"mode": resp.mode, "model": "stub", "latency_ms": delay_s * 1e3}
                if resp.mode == "direct":
                    payload["score"] = resp.score
                elif resp.mode == "logits":
                    payload["logits"] = list(resp.logits.values)
                else:
                    payload["l_clear"] = resp.l_clear
                status = 200
            except Exception as exc:  # the client must see a 5xx, the stub keeps serving
                payload, status = {"error": repr(exc)}, 500
                with stats.lock:
                    stats.errors_5xx += 1
            finally:
                with stats.lock:
                    stats.in_flight -= 1
            self._send(status, payload)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, stats.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    stats = Stats()
    handler = make_handler(SCENARIOS_BY_NAME[SCENARIO], args.seed, DELAY_MS / 1e3, stats)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()  # the benchmark closes stdin to stop the stub
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
