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
import re
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


# a space or control character, which neither a request line nor a Host
# header can carry
_UNSAFE_IN_URL = re.compile("[\x00-\x20\x7f]")
# the characters of a header value: tab, space, visible ASCII and obs-text
_FIELD_VALUE = re.compile("[\t\x20-\x7e\x80-\xff]*")
# http.client's limits on a response: bytes in one line, header lines
_MAX_LINE = 65536
_MAX_HEADERS = 100
_BLANK_LINES = (b"\r\n", b"\n", b"")


class HttpBackend:
    """Client for JSON-over-HTTP completion servers.

    Requests one unit per call using greedy decoding (temperature 0 with
    top_p passed through) and stop sequences [" ", "<WAIT>"] so the
    server returns at most one word. Responses: {"choices": [{"text": ...,
    "finish_reason": "stop"|"length"}]}; empty text with finish_reason
    "stop" means the sequence ended.

    Each thread keeps one keep-alive connection, so one backend can serve a
    pool of workers. http.client opens it (TLS, a proxy's CONNECT tunnel);
    each request then goes out in one write on its socket, and
    _read_response reads the answer. The HTTP(S)_PROXY and NO_PROXY
    environment variables and the bearer token are read once, here, where
    an endpoint or token the request head cannot carry is refused. Client
    errors (4xx) other than 408 and 429 are not retried; other failures are
    retried cfg.retries times.
    """

    def __init__(self, cfg: HttpBackendConfig):
        self.cfg = cfg
        try:
            url = urllib.parse.urlsplit(cfg.endpoint_url)
            port = url.port
        except ValueError as exc:  # a port out of range, an unclosed IPv6 bracket
            raise BackendUnavailable(f"endpoint {cfg.endpoint_url!r}: {exc}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise BackendUnavailable(f"endpoint {cfg.endpoint_url!r} is not an http(s) URL")
        self._https = url.scheme == "https"
        self._host = url.hostname
        self._port = port or (443 if self._https else 80)
        path = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        proxy = _proxy_for(url)
        self._proxy_addr = proxy[:2] if proxy else None
        self._proxy_headers = proxy[2] if proxy else {}
        if proxy and not self._https:
            # a plain-HTTP proxy takes the absolute URI in the request line,
            # without the endpoint's user:password@
            path = urllib.parse.urlunsplit(
                url._replace(netloc=url.netloc.rpartition("@")[2], fragment=""))
        if _UNSAFE_IN_URL.search(path) or _UNSAFE_IN_URL.search(self._host):
            raise BackendUnavailable(
                f"endpoint {cfg.endpoint_url!r} holds a space or a control character")
        if not path.isascii():
            raise BackendUnavailable(f"endpoint {cfg.endpoint_url!r} has a non-ASCII path")
        try:
            host = _host_header(self._host, self._port, 443 if self._https else 80)
        except UnicodeError:
            raise BackendUnavailable(
                f"endpoint {cfg.endpoint_url!r}: the host is not a valid domain name") from None
        # the request head up to the Content-Length value, the same for every call
        head = [f"POST {path} HTTP/1.1", f"Host: {host}", "Accept-Encoding: identity",
                "Content-Type: application/json"]
        token = os.environ.get(cfg.api_key_env, "") if cfg.api_key_env else ""
        if token:
            if not _FIELD_VALUE.fullmatch(token):
                # refused before any connection, so no byte of it is sent
                raise BackendUnavailable(f"the bearer token in ${cfg.api_key_env} holds a "
                                         "line break, a control or a non-Latin-1 character")
            head.append(f"Authorization: Bearer {token}")
        if not self._https:
            head += [f"{name}: {value}" for name, value in self._proxy_headers.items()]
        head.append("Content-Length: ")
        self._head = "\r\n".join(head).encode("latin-1")
        self._ssl_context = ssl.create_default_context() if self._https else None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open = []

    def _channel(self) -> "_Channel":
        channel = getattr(self._local, "channel", None)
        if channel is not None:
            return channel
        timeout = self.cfg.timeout_ms / 1000.0
        host, port = self._proxy_addr or (self._host, self._port)
        if self._https:
            conn = http.client.HTTPSConnection(host, port, timeout=timeout,
                                               context=self._ssl_context)
            if self._proxy_addr:
                conn.set_tunnel(self._host, self._port, headers=self._proxy_headers)
        else:
            conn = http.client.HTTPConnection(host, port, timeout=timeout)
        channel = self._local.channel = _Channel(conn)
        with self._lock:
            self._open.append(channel)
        return channel

    def close(self):
        """Close every connection this backend opened, in any thread."""
        with self._lock:
            channels, self._open = self._open, []
            self._local = threading.local()
        for channel in channels:
            channel.close()

    def _post(self, body: bytes):
        """(status, response body) of one POST on this thread's connection.

        A kept-alive connection the server closed while idle fails on its
        next use; it is reopened once, and that does not count as a retry.
        """
        channel = self._channel()
        reused = channel.reader is not None
        try:
            return self._exchange(channel, body)
        except ConnectionError:
            if not reused:
                raise
        return self._exchange(channel, body)

    def _exchange(self, channel, body: bytes):
        request = b"".join((self._head, b"%d\r\n\r\n" % len(body), body))
        try:
            if channel.reader is None:
                channel.open()
            channel.conn.sock.sendall(request)
            status, data, keep_alive = _read_response(channel.reader)
        except BaseException:
            channel.close()  # its state is unknown; the next request reconnects
            raise
        if not keep_alive:
            channel.close()
        return status, data

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


def _host_header(host, port, default_port) -> str:
    """The Host header value as http.client writes it: the host IDNA-encoded,
    an IPv6 literal in brackets without its zone, the port unless default."""
    try:
        value = host.encode("ascii").decode("ascii")
    except UnicodeEncodeError:
        value = host.encode("idna").decode("ascii")
    if ":" in value:
        value = f"[{value.partition('%')[0]}]"
    return value if port == default_port else f"{value}:{port}"


class _Channel:
    """One keep-alive connection and the buffered reader of its responses.

    The reader keeps the socket open until it is closed itself, so the two
    are opened and closed together.
    """

    def __init__(self, conn: http.client.HTTPConnection):
        self.conn = conn
        self.reader = None

    def open(self):
        self.conn.connect()
        self.reader = self.conn.sock.makefile("rb")

    def close(self):
        if self.reader is not None:
            self.reader.close()
            self.reader = None
        self.conn.close()


def _read_line(reader, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong(what)
    return line


def _read_response(reader):
    """(status, body, keep_alive) of the next HTTP/1.x response on reader.

    1xx interim responses are skipped. The body is delimited by chunked
    transfer coding, else by Content-Length, else by the end of the
    connection. keep_alive is false after Connection: close, after HTTP/1.0
    without keep-alive, and after a body read to the end. Failures raise
    http.client's exceptions: RemoteDisconnected when the connection ends
    before a status line, BadStatusLine, LineTooLong, IncompleteRead.
    """
    while True:
        line = _read_line(reader, "status line")
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        fields = line.split(None, 2)
        try:
            status = int(fields[1])
        except (IndexError, ValueError):
            status = 0
        if not (100 <= status <= 999 and fields[0].startswith(b"HTTP/")):
            raise http.client.BadStatusLine(str(line, "iso-8859-1"))
        version = fields[0]
        if version in (b"HTTP/1.0", b"HTTP/0.9"):
            http10 = True
        elif version.startswith(b"HTTP/1."):
            http10 = False
        else:
            raise http.client.UnknownProtocol(str(version, "iso-8859-1"))
        headers = {}
        count = 0
        while (line := _read_line(reader, "header line")) not in _BLANK_LINES:
            count += 1
            if count > _MAX_HEADERS:
                raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")
            name, colon, value = line.partition(b":")
            if colon:
                headers.setdefault(name.strip().lower(), value.strip())
        if status >= 200:
            break

    connection = headers.get(b"connection", b"").lower()
    if http10:
        keep_alive = b"keep-alive" in connection or b"keep-alive" in headers
    else:
        keep_alive = b"close" not in connection
    if status in (204, 304):
        return status, b"", keep_alive
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, _read_chunked(reader), keep_alive
    try:
        length = int(headers[b"content-length"])
    except (KeyError, ValueError):
        length = -1
    if length < 0:
        return status, reader.read(), False
    body = reader.read(length)
    if len(body) < length:
        raise http.client.IncompleteRead(body, length - len(body))
    return status, body, keep_alive


def _read_chunked(reader) -> bytes:
    """The body of a chunked response, its trailer read and dropped."""
    chunks = []
    while True:
        line = _read_line(reader, "chunk size")
        try:
            size = int(line.partition(b";")[0], 16)
            if size < 0:
                raise ValueError(size)
        except ValueError:
            raise http.client.IncompleteRead(b"".join(chunks)) from None
        if size == 0:
            break
        chunk = reader.read(size + 2)  # the data and its CRLF
        if len(chunk) < size + 2:
            raise http.client.IncompleteRead(b"".join(chunks) + chunk[:size],
                                             size + 2 - len(chunk))
        chunks.append(chunk[:size])
    while _read_line(reader, "trailer line") not in _BLANK_LINES:
        pass
    return b"".join(chunks)


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
