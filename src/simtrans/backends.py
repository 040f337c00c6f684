"""Translator backends: word-unit producers driven by the session prompt.

A backend maps a prompt to exactly one unit per call: a word, a wait signal
or end-of-sentence. The prompt is a prompt.Prompt: remote, recording and
replay backends send or hash its text, and the dictionary backend reads the
source and target words it carries. The engine passes allow_wait=False when
waits are being suppressed after source exhaustion; honoring it is
best-effort for remote backends and exact for the rule-based mocks.
"""

import base64
import hashlib
import http.client
import json
import os
import ssl
import threading
import urllib.parse
import urllib.request
from dataclasses import dataclass

from .errors import (
    BackendUnavailable,
    MalformedResponse,
    ParseError,
    ReplayMiss,
    ScriptUnderrun,
)
from .prompt import Prompt
from .units import Signal, Unit, WAIT_TOKEN, unit_from_str, unit_to_str


class ScriptedBackend:
    """Replays a fixed unit sequence verbatim, ignoring the prompt."""

    def __init__(self, units):
        self.units = [unit_from_str(u) if isinstance(u, str) else u for u in units]
        self.pos = 0

    def next_unit(self, prompt: str, allow_wait: bool = True) -> Unit:
        if self.pos >= len(self.units):
            raise ScriptUnderrun(f"script exhausted after {self.pos} units")
        unit = self.units[self.pos]
        self.pos += 1
        return unit


class DictionaryBackend:
    """Word-for-word translation via a lookup table.

    Translates revealed source word i once i+lookahead is revealed, waits
    otherwise, and ends once every revealed word is translated and waiting
    is no longer allowed. Unknown words pass through unchanged.
    """

    def __init__(self, mapping, lookahead: int = 0):
        self.mapping = dict(mapping)
        self.lookahead = lookahead

    def next_unit(self, prompt: Prompt, allow_wait: bool = True) -> Unit:
        source_words, target_words = prompt.source, prompt.target
        idx = len(target_words)
        if idx >= len(source_words):
            return Signal.WAIT if allow_wait else Signal.EOS
        if allow_wait and idx + self.lookahead >= len(source_words):
            return Signal.WAIT
        return self.mapping.get(source_words[idx], source_words[idx])


@dataclass
class HttpBackendConfig:
    endpoint_url: str
    model_name: str = ""
    api_key_env: str = None       # name of the env var holding the bearer token
    top_p: float = 0.7
    max_unit_tokens: int = 12
    timeout_ms: float = 30000.0
    retries: int = 2

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")


class HttpBackend:
    """Client for JSON-over-HTTP completion servers.

    Requests one unit per call using greedy decoding (temperature 0 with
    top_p passed through) and stop sequences [" ", "<WAIT>"] so the
    server returns at most one word. Responses: {"choices": [{"text": ...,
    "finish_reason": "stop"|"length"}]}; empty text with finish_reason
    "stop" means the sequence ended.

    Each thread keeps one keep-alive connection, so one backend can serve a
    pool of workers. The HTTP(S)_PROXY and NO_PROXY environment variables
    are read once, here. Client errors (4xx) other than 408 and 429 are not
    retried; other failures are retried cfg.retries times.
    """

    def __init__(self, cfg: HttpBackendConfig):
        self.cfg = cfg
        url = urllib.parse.urlsplit(cfg.endpoint_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise BackendUnavailable(f"endpoint {cfg.endpoint_url!r} is not an http(s) URL")
        self._https = url.scheme == "https"
        self._host = url.hostname
        self._port = url.port or (443 if self._https else 80)
        self._path = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        proxy = _proxy_for(url)
        self._proxy_addr = proxy[:2] if proxy else None
        self._proxy_headers = proxy[2] if proxy else {}
        if proxy and not self._https:
            # a plain-HTTP proxy takes the absolute URI in the request line
            self._path = urllib.parse.urlunsplit(url._replace(fragment=""))
        self._ssl_context = ssl.create_default_context() if self._https else None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open = []

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        timeout = self.cfg.timeout_ms / 1000.0
        host, port = self._proxy_addr or (self._host, self._port)
        if self._https:
            conn = http.client.HTTPSConnection(host, port, timeout=timeout,
                                               context=self._ssl_context)
            if self._proxy_addr:
                conn.set_tunnel(self._host, self._port, headers=self._proxy_headers)
        else:
            conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self._local.conn = conn
        with self._lock:
            self._open.append(conn)
        return conn

    def close(self):
        """Close every connection this backend opened, in any thread."""
        with self._lock:
            conns, self._open = self._open, []
            self._local = threading.local()
        for conn in conns:
            conn.close()

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.cfg.api_key_env:
            token = os.environ.get(self.cfg.api_key_env, "")
            if token:
                headers["Authorization"] = f"Bearer {token}"
        if not self._https:
            headers.update(self._proxy_headers)
        return headers

    def _post(self, body: bytes):
        """(status, response body) of one POST on this thread's connection.

        A kept-alive connection the server closed while idle fails on its
        next use; it is reopened once, and that does not count as a retry.
        """
        conn = self._connection()
        reused = conn.sock is not None
        try:
            return self._exchange(conn, body)
        except ConnectionError:
            if not reused:
                raise
        return self._exchange(conn, body)

    def _exchange(self, conn, body: bytes):
        try:
            conn.request("POST", self._path, body, self._headers())
            resp = conn.getresponse()
            return resp.status, resp.read()
        except BaseException:
            conn.close()  # its state is unknown; the next request reconnects
            raise

    def _request(self, prompt: str, allow_wait: bool) -> dict:
        stop = [" "]
        if allow_wait:
            stop.append(WAIT_TOKEN)
        payload = {
            "model": self.cfg.model_name,
            "prompt": prompt,
            "max_tokens": self.cfg.max_unit_tokens,
            "temperature": 0.0,
            "top_p": self.cfg.top_p,
            "stop": stop,
        }
        body = json.dumps(payload).encode("utf-8")
        last_error = None
        for _ in range(self.cfg.retries + 1):
            try:
                status, data = self._post(body)
                if status == 200:
                    return json.loads(data)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                last_error = str(exc) or type(exc).__name__
                continue
            if 400 <= status < 500 and status not in (408, 429):
                raise BackendUnavailable(
                    f"{self.cfg.endpoint_url} refused the request: HTTP {status}"
                )
            last_error = f"HTTP {status}"
        raise BackendUnavailable(
            f"{self.cfg.endpoint_url} unavailable after "
            f"{self.cfg.retries + 1} attempts: {last_error}"
        )

    def next_unit(self, prompt: str, allow_wait: bool = True) -> Unit:
        data = self._request(prompt, allow_wait)
        try:
            choice = data["choices"][0]
            text = choice.get("text", "")
            finish = choice.get("finish_reason")
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"unexpected response shape: {data!r}") from exc

        stripped = text.strip()
        if not allow_wait:
            # suppression is best-effort: skip leading wait literals
            while stripped.startswith(WAIT_TOKEN):
                stripped = stripped[len(WAIT_TOKEN):].lstrip()
        if not stripped:
            if finish == "stop":
                return Signal.EOS
            raise MalformedResponse(
                f"whitespace-only completion with finish_reason={finish!r}"
            )
        if stripped.startswith(WAIT_TOKEN):
            return Signal.WAIT
        return stripped.split()[0]


class RecordingBackend:
    """Wraps another backend, appending (prompt hash, unit) pairs to a file."""

    def __init__(self, path, inner):
        self.path = path
        self.inner = inner
        self._fh = open(path, "a", encoding="utf-8")

    def next_unit(self, prompt: str, allow_wait: bool = True) -> Unit:
        unit = self.inner.next_unit(prompt, allow_wait=allow_wait)
        record = {"prompt_sha256": prompt_hash(prompt), "unit": unit_to_str(unit)}
        self._fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        self._fh.flush()
        return unit

    def close(self):
        self._fh.close()


class ReplayBackend:
    """Serves units recorded by RecordingBackend; unseen prompts error.

    Repeated occurrences of the same prompt replay in recorded order, so a
    session re-run with identical inputs reproduces the original unit
    sequence exactly. Each session should use its own instance (fresh
    cursors); build them cheaply from a shared load_recording() result.
    """

    def __init__(self, recording):
        self.recording = recording
        self._cursor = {}

    def next_unit(self, prompt: str, allow_wait: bool = True) -> Unit:
        h = prompt_hash(prompt)
        units = self.recording.get(h)
        if not units:
            raise ReplayMiss(f"no recorded unit for prompt hash {h[:12]}...")
        idx = self._cursor.get(h, 0)
        if idx >= len(units):
            idx = len(units) - 1  # stationary tail: repeat the last recording
        self._cursor[h] = idx + 1
        return unit_from_str(units[idx])


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def load_recording(path) -> dict:
    table = {}
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc}", n, path) from exc
            if not (isinstance(rec, dict) and isinstance(rec.get("prompt_sha256"), str)
                    and isinstance(rec.get("unit"), str)):
                raise ParseError("a record needs prompt_sha256 and unit strings", n, path)
            table.setdefault(rec["prompt_sha256"], []).append(rec["unit"])
    return table


def _proxy_for(url):
    """(host, port, headers) of the proxy the environment sets for url, or None.

    HTTP_PROXY or HTTPS_PROXY (by the endpoint's scheme, else ALL_PROXY)
    names the proxy, which is spoken to in plain HTTP; NO_PROXY exempts
    hosts. Credentials in the proxy URL become a Proxy-Authorization header.
    """
    proxies = urllib.request.getproxies_environment()
    proxy = proxies.get(url.scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass_environment(url.netloc, proxies):
        return None
    parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    headers = {}
    if parts.username is not None:
        user = urllib.parse.unquote(parts.username)
        password = urllib.parse.unquote(parts.password or "")
        token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
        headers["Proxy-Authorization"] = f"Basic {token}"
    return parts.hostname, parts.port or 80, headers
