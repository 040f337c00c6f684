"""Translator backends: word-unit producers driven by the session prompt.

A backend maps a prompt to exactly one unit per call: a word, a wait signal
or end-of-sentence. The engine passes a prompt.StepPrompt; a prompt.Prompt
or any other object with source and target word sequences and str() text
serves the same way. The remote backend sends str(prompt), the only place
the text is rendered; the dictionary, scripted and replay backends never
render it. The engine passes allow_wait=False when waits are being
suppressed after source exhaustion; honoring it is best-effort for remote
backends and exact for the dictionary; replay serves the recorded unit.
"""

import base64
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
    ReplayMiss,
    ScriptUnderrun,
    SimtransError,
)
from .units import Signal, Unit, WAIT_TOKEN, unit_from_str


class ScriptedBackend:
    """Replays a fixed unit sequence verbatim, ignoring the prompt."""

    def __init__(self, units):
        self.units = [unit_from_str(u) if isinstance(u, str) else u for u in units]
        self.pos = 0

    def next_unit(self, prompt, allow_wait: bool = True) -> Unit:
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

    def next_unit(self, prompt, allow_wait: bool = True) -> Unit:
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

    def next_unit(self, prompt, allow_wait: bool = True) -> Unit:
        data = self._request(str(prompt), allow_wait)
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


class ReplayBackend:
    """Serves the units of one session trace record, in call order.

    Each step must reveal as many source words as the trace had read before
    that unit, and the words revealed since the previous step must be the
    trace's; only those are compared, so a step costs no more than its new
    words. Past the last unit, a failed trace raises its recorded error
    again and a finished one raises ReplayMiss.
    """

    def __init__(self, trace):
        self.source = []  # the trace's read words, in order
        self.steps = []   # (words read before the unit, unit); None re-raises error
        for event in trace.get("events", ()):
            kind = event["kind"]
            if kind == "read":
                self.source.append(event["word"])
            else:
                unit = event["word"] if kind == "write" else Signal[kind.upper()]
                self.steps.append((len(self.source), unit))
        self.error = trace.get("error")
        if self.error is not None:
            self.steps.append((len(self.source), None))
        self.pos = 0
        self._checked = 0

    def next_unit(self, prompt, allow_wait: bool = True) -> Unit:
        step = self.pos + 1
        if self.pos >= len(self.steps):
            raise ReplayMiss(f"step {step} runs past the {self.pos} units of the trace")
        reads, unit = self.steps[self.pos]
        revealed = prompt.source
        if len(revealed) != reads:
            raise ReplayMiss(f"step {step} reveals {len(revealed)} source words, "
                             f"the trace {reads}")
        if any(revealed[i] != self.source[i] for i in range(self._checked, reads)):
            raise ReplayMiss(f"step {step} reveals other source words than the trace")
        self._checked = reads
        self.pos = step
        if unit is None:
            raise SimtransError(self.error)
        return unit


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
