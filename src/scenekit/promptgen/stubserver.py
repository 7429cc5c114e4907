"""Hermetic chat-completions endpoint for tests and offline runs.

The server replays a scripted list of responses in request order, repeating
the last entry once exhausted.  Entries are either plain content strings or
dicts: {"content": "..."} for a completion, {"status": 429, "body": "..."}
for an HTTP failure.  Received request payloads are recorded for assertions.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubLLMServer:
    def __init__(self, responses: list, host: str = "127.0.0.1", port: int = 0):
        if not responses:
            raise ValueError("need at least one scripted response")
        self._scripted = [self._normalize(r) for r in responses]
        self._host = host
        self._requested_port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self.requests: list[dict] = []
        self.request_headers: list[dict] = []

    @staticmethod
    def _normalize(entry) -> dict:
        """A scripted entry as a response dict; ValueError when it is malformed."""
        if isinstance(entry, str):
            return {"status": 200, "content": entry}
        if isinstance(entry, dict):
            status, body = entry.get("status", 200), entry.get("body", "")
            status_ok = isinstance(status, int) and not isinstance(status, bool)
            if status_ok and isinstance(entry.get("content"), str):
                return {"status": status, "content": entry["content"]}
            if status_ok and "content" not in entry and "status" in entry and isinstance(body, str):
                return {"status": status, "body": body}
        raise ValueError(
            f"scripted response {entry!r} is neither a string nor an object with "
            "a string 'content' or an integer 'status'"
        )

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self._host}:{self.port}/v1"

    def start(self) -> "StubLLMServer":
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                if not self.path.endswith("/chat/completions"):
                    self.send_error(404)
                    return
                length = int(self.headers.get("Content-Length", "0"))
                try:
                    payload = json.loads(self.rfile.read(length) or b"{}")
                except (ValueError, RecursionError):  # not UTF-8, not JSON, too deep
                    payload = None
                if not isinstance(payload, dict):
                    self.send_error(400, "body is not a JSON object")
                    return
                with stub._lock:
                    index = min(len(stub.requests), len(stub._scripted) - 1)
                    stub.requests.append(payload)
                    stub.request_headers.append({k.lower(): v for k, v in self.headers.items()})
                entry = stub._scripted[index]
                if entry["status"] != 200 or "content" not in entry:
                    body = entry.get("body", "scripted failure").encode()
                    self.send_response(entry["status"])
                    self.send_header("Content-Type", "text/plain")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                    return
                envelope = {
                    "id": f"stub-{index}",
                    "object": "chat.completion",
                    "model": payload.get("model", "stub"),
                    "choices": [
                        {
                            "index": 0,
                            "message": {"role": "assistant", "content": entry["content"]},
                            "finish_reason": "stop",
                        }
                    ],
                }
                body = json.dumps(envelope).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._server = ThreadingHTTPServer((self._host, self._requested_port), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "StubLLMServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
