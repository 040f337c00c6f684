"""Loopback completion server that answers like the dict backend.

Serves POST requests in the JSON completion shape the http backend speaks,
on 127.0.0.1 at an ephemeral port, which it prints as its first stdout line.
The answer mirrors a lookahead-0 dictionary: the translation of the next
untranslated source word in the prompt; once every revealed word is
translated, "<WAIT>" when the request allows it (the wait literal is among
its stop sequences), otherwise empty text with finish_reason "stop".

Every POST is counted with its arrival stamp (when the request line was
read) and its handling time. GET /stats returns both and resets them.

Each response goes out in one write on a TCP_NODELAY socket: writing headers
and body separately lets Nagle's algorithm and delayed ACKs stall every call
by tens of milliseconds, which would measure this server, not the client.

    python3 perfbench/stub_server.py --dict dict.json
"""

import argparse
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

WAIT = "<WAIT>"
MARKER = " [/INST] "
LEAD = "Translate this text: "


def complete(mapping, prompt, stop):
    """(text, finish_reason) for one prompt."""
    head, sep, target_text = prompt.rpartition(MARKER)
    pos = head.rfind(LEAD)
    source = head[pos + len(LEAD):].split() if sep and pos >= 0 else []
    target = target_text.split()
    idx = len(target)
    if idx >= len(source):
        return (WAIT, "stop") if WAIT in stop else ("", "stop")
    word = source[idx]
    return mapping.get(word, word), "stop"


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, mapping):
        super().__init__(("127.0.0.1", 0), Handler)
        self.mapping = mapping
        self._lock = threading.Lock()
        self._arrivals = []
        self._handle_ns = []

    def record(self, arrival_ns, done_ns):
        with self._lock:
            self._arrivals.append(arrival_ns)
            self._handle_ns.append(done_ns - arrival_ns)

    def take_stats(self):
        with self._lock:
            stats = {
                "requests": len(self._arrivals),
                "arrival_ns": self._arrivals,
                "handle_ns": self._handle_ns,
            }
            self._arrivals, self._handle_ns = [], []
        return stats


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def parse_request(self):
        self.arrival_ns = time.perf_counter_ns()
        return super().parse_request()

    def log_message(self, format, *args):
        pass

    def _send_json(self, code, reason, obj):
        body = json.dumps(obj).encode("utf-8")
        head = (
            f"HTTP/1.1 {code} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        try:
            request = json.loads(self.rfile.read(length))
            text, finish = complete(self.server.mapping, request["prompt"], request.get("stop") or [])
        except (ValueError, KeyError, TypeError) as exc:
            self._send_json(400, "Bad Request", {"error": str(exc)})
            return
        self._send_json(200, "OK", {"choices": [{"text": text, "finish_reason": finish}]})
        self.server.record(self.arrival_ns, time.perf_counter_ns())

    def do_GET(self):
        if self.path == "/stats":
            self._send_json(200, "OK", self.server.take_stats())
        else:
            self._send_json(404, "Not Found", {"error": self.path})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dict", required=True, help="JSON source-word -> target-word map")
    args = parser.parse_args()
    with open(args.dict, encoding="utf-8") as fh:
        mapping = json.load(fh)
    server = StubServer(mapping)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
