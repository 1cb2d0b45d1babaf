"""Out-of-process mock of an OpenAI-compatible chat-completions endpoint.

Answers like the stub backend: the first `match` rule of a stub script found
in the user messages gives the response. Each request costs a fixed service
delay of DELAY_MS. A seeded share (THROTTLE_SHARE) of request bodies is
answered 429 on their first attempt after a reset, chosen by a hash of the
body, so the same units retry on every run. HTTP/1.1 keep-alive with Nagle's
algorithm disabled, so the client's timings are not inflated by delayed ACKs.

    python3 bench/mock_endpoint.py --script check_stub.jsonl --seed 7

Prints "PORT <n>" once listening. `POST /reset` clears the counters;
`GET /stats` returns requests, statuses and service time since the last
reset. On SIGTERM it prints the totals since start to stdout and exits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# A stand-in, not a measured figure: no latency of a real chat endpoint has been
# measured for this benchmark. It keeps the run network-heavy while leaving the
# client's own CPU time visible; `run.py` reports the share of wall time it takes.
DELAY_MS = 30.0
THROTTLE_SHARE = 0.02


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.requests = 0
        self.statuses: dict[str, int] = {}
        self.service_s = 0.0
        self.throttled: set[bytes] = set()

    def snapshot(self) -> dict:
        return {"requests": self.requests, "statuses": dict(self.statuses), "service_s": self.service_s}


def make_handler(rules: list[tuple[str, str]], delay_s: float, share: float, seed: int,
                 since_reset: Counters, total: Counters):
    threshold = int(share * 2**32)

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def _send(self, status: int, body: bytes, service_s: float | None = None):
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if service_s is not None:
                self.send_header("X-Service-Time", f"{service_s:.9f}")
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, b"{}")
                return
            with since_reset.lock:
                body = json.dumps(since_reset.snapshot()).encode()
            self._send(200, body)

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path == "/reset":
                with since_reset.lock:
                    since_reset.reset()
                self._send(200, b"{}")
                return
            started = time.perf_counter()
            digest = hashlib.sha256(seed.to_bytes(8, "big") + raw).digest()
            with since_reset.lock:
                throttle = int.from_bytes(digest[:4], "big") < threshold and digest not in since_reset.throttled
                if throttle:
                    since_reset.throttled.add(digest)
            status, body = 429, b'{"error": "rate limited"}'
            if not throttle:
                status, body = self._complete(json.loads(raw))
            time.sleep(delay_s)
            service_s = time.perf_counter() - started
            for counters in (since_reset, total):
                with counters.lock:
                    counters.requests += 1
                    counters.statuses[str(status)] = counters.statuses.get(str(status), 0) + 1
                    counters.service_s += service_s
            self._send(status, body, service_s)

        def _complete(self, payload: dict) -> tuple[int, bytes]:
            messages = payload.get("messages", [])
            request_text = "\n".join(m["content"] for m in messages if m.get("role") == "user")
            for match, response in rules:
                if match in request_text:
                    break
            else:
                return 400, b'{"error": "no scripted response"}'
            prompt_chars = sum(len(m["content"]) for m in messages)
            body = {
                "choices": [{"message": {"role": "assistant", "content": response}}],
                "usage": {"prompt_tokens": math.ceil(prompt_chars / 4),
                          "completion_tokens": math.ceil(len(response) / 4)},
            }
            return 200, json.dumps(body).encode()

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--script", required=True, help="stub script JSONL with match rules")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rules = []
    with open(args.script, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                rules.append((rec["match"], rec["response"]))
    since_reset, total = Counters(), Counters()
    handler = make_handler(rules, DELAY_MS / 1000, THROTTLE_SHARE, args.seed, since_reset, total)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True

    def stop(*_):
        print(json.dumps(total.snapshot()), flush=True)
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, stop)
    print(f"PORT {server.server_port}", flush=True)
    server.serve_forever()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
