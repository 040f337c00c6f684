import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from simtrans import backends, engine
from simtrans.backends import (
    DictionaryBackend,
    HttpBackend,
    HttpBackendConfig,
    ReplayBackend,
    ScriptedBackend,
)
from simtrans.cli import main as cli_main
from simtrans.engine import run_session
from simtrans.errors import (
    BackendUnavailable,
    MalformedResponse,
    ReplayMiss,
    SessionError,
)
from simtrans.prompt import StepPrompt, build_prompt
from simtrans.units import Signal

from conftest import trace_bytes
from oracles import prompt_words


class _CompletionHandler(BaseHTTPRequestHandler):
    server_version = "MockLLM/0.1"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        self.server.requests.append(
            {"payload": payload, "auth": self.headers.get("Authorization")}
        )
        status, body = self.server.responses[
            min(len(self.server.requests) - 1, len(self.server.responses) - 1)
        ]
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CompletionHandler)
    server.requests = []
    server.responses = [(200, {"choices": [{"text": "", "finish_reason": "stop"}]})]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _cfg(server, **kwargs):
    defaults = dict(
        endpoint_url=f"http://127.0.0.1:{server.server_address[1]}/v1/completions",
        retries=0,
        timeout_ms=5000,
    )
    defaults.update(kwargs)
    return HttpBackendConfig(**defaults)


def completion(text, finish="length"):
    return (200, {"choices": [{"text": text, "finish_reason": finish}]})


def test_http_word_takes_first_whitespace_chunk(mock_server):
    mock_server.responses = [completion("Ich habe")]
    backend = HttpBackend(_cfg(mock_server))
    assert backend.next_unit("p") == "Ich"


def test_http_wait_literal(mock_server):
    mock_server.responses = [completion("<WAIT>", "stop")]
    assert HttpBackend(_cfg(mock_server)).next_unit("p") is Signal.WAIT


def test_http_wait_with_remainder_is_wait(mock_server):
    mock_server.responses = [completion("<WAIT>extra")]
    assert HttpBackend(_cfg(mock_server)).next_unit("p") is Signal.WAIT


def test_http_eos_on_empty_stop(mock_server):
    mock_server.responses = [completion("", "stop")]
    assert HttpBackend(_cfg(mock_server)).next_unit("p") is Signal.EOS


@pytest.mark.parametrize("body", [
    {"choices": [{"text": "   ", "finish_reason": "length"}]},
    {"choices": [{"text": None}]},
    {"choices": [{"text": 5}]},
    {"choices": ["x"]},
], ids=["whitespace-only", "null-text", "number-text", "string-choice"])
def test_http_malformed_completion(mock_server, body):
    mock_server.responses = [(200, body)]
    with pytest.raises(MalformedResponse):
        HttpBackend(_cfg(mock_server)).next_unit("p")


def test_http_request_shape(mock_server):
    mock_server.responses = [completion("wort")]
    backend = HttpBackend(_cfg(mock_server, model_name="m1", top_p=0.7))
    backend.next_unit("the prompt")
    payload = mock_server.requests[0]["payload"]
    assert payload["model"] == "m1"
    assert payload["prompt"] == "the prompt"
    assert payload["temperature"] == 0.0
    assert payload["top_p"] == 0.7
    assert payload["stop"] == [" ", "<WAIT>"]


def test_http_suppressed_wait_drops_stop_and_skips_literal(mock_server):
    mock_server.responses = [completion("<WAIT> Ich habe")]
    backend = HttpBackend(_cfg(mock_server))
    assert backend.next_unit("p", allow_wait=False) == "Ich"
    assert mock_server.requests[0]["payload"]["stop"] == [" "]


def test_http_bearer_token_from_env(mock_server, monkeypatch):
    monkeypatch.setenv("MOCK_LLM_KEY", "sekret")
    mock_server.responses = [completion("x")]
    backend = HttpBackend(_cfg(mock_server, api_key_env="MOCK_LLM_KEY"))
    backend.next_unit("p")
    assert mock_server.requests[0]["auth"] == "Bearer sekret"


def test_http_retries_then_unavailable(mock_server):
    mock_server.responses = [(500, {})]
    backend = HttpBackend(_cfg(mock_server, retries=2))
    with pytest.raises(BackendUnavailable):
        backend.next_unit("p")
    assert len(mock_server.requests) == 3  # 1 attempt + 2 retries


def test_http_unreachable():
    cfg = HttpBackendConfig(
        endpoint_url="http://127.0.0.1:1/v1/completions", retries=1, timeout_ms=500
    )
    with pytest.raises(BackendUnavailable):
        HttpBackend(cfg).next_unit("p")


def test_http_config_validation():
    with pytest.raises(ValueError):
        HttpBackendConfig(endpoint_url="u", retries=-1)
    with pytest.raises(ValueError):
        HttpBackendConfig(endpoint_url="u", timeout_ms=0)


def test_record_then_replay_identical_trace():
    source = ["a", "b", "c", "d"]
    mapping = {w: w.upper() for w in source}
    first = run_session(source, DictionaryBackend(mapping, lookahead=1), k=2)
    replayed = run_session(source, ReplayBackend(json.loads(first.to_json())), k=2)
    assert replayed.to_json() == first.to_json()


def test_replay_altered_k_misses():
    source = ["a", "b", "c"]
    trace = run_session(source, DictionaryBackend({w: w for w in source}), k=1)
    backend = ReplayBackend(json.loads(trace.to_json()))
    with pytest.raises(SessionError, match="step 1 reveals 3 source words, the trace 1"):
        run_session(source, backend, k=3)  # ReplayMiss surfaces as a session failure


def test_replay_empty_recording():
    with pytest.raises(ReplayMiss, match="step 1 runs past the 0 units of the trace"):
        ReplayBackend({"events": [], "error": None}).next_unit(build_prompt([], []))


def test_replay_repeated_prompts_in_order():
    # a dry stream: the same prompt is asked again after each wait
    trace = {"events": [{"kind": "read", "word": "a"}, {"kind": "wait"},
                        {"kind": "write", "word": "first"}, {"kind": "eos"}], "error": None}
    backend = ReplayBackend(trace)
    prompt = build_prompt(["a"], [])
    assert backend.next_unit(prompt) is Signal.WAIT
    assert backend.next_unit(prompt, allow_wait=False) == "first"
    assert backend.next_unit(prompt) is Signal.EOS
    with pytest.raises(ReplayMiss, match="step 4 runs past the 3 units of the trace"):
        backend.next_unit(prompt)  # a finished trace is not repeated


def test_replay_compares_only_the_words_revealed_since_the_last_step():
    reads = []

    class Words(list):
        def __getitem__(self, index):
            reads.append(index)
            return super().__getitem__(index)

    source = [f"w{i}" for i in range(50)]
    trace = json.loads(run_session(source, DictionaryBackend({}), k=1).to_json())
    backend, revealed = ReplayBackend(trace), Words()
    for word in source:
        revealed.append(word)
        assert backend.next_unit(StepPrompt(revealed, [])) == word
    assert backend.next_unit(StepPrompt(revealed, [])) is Signal.WAIT
    assert reads == list(range(len(source)))


def test_scripted_units_from_strings():
    backend = ScriptedBackend(["<WAIT>", "word", "<EOS>"])
    assert backend.next_unit("p") is Signal.WAIT
    assert backend.next_unit("p") == "word"
    assert backend.next_unit("p") is Signal.EOS


def test_dictionary_unknown_word_passthrough():
    backend = DictionaryBackend({"a": "x"})
    trace = run_session(["a", "mystery"], backend, k=2)
    assert trace.hypothesis_words == ["x", "mystery"]


class _DictHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 keep-alive server answering like a lookahead-0 dictionary.

    The translation of a source word is the word in upper case. With
    server.close_after_response set, it closes every connection after one
    response without announcing it, as a server does to an idle client.
    """

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        # headers and body go out in two writes; without this, Nagle's
        # algorithm holds the body until the client's delayed ACK
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _note(self):
        with self.server.lock:
            self.server.seen.append({
                "method": self.command,
                "path": self.path,
                "host": self.headers.get("Host"),
                "proxy_auth": self.headers.get("Proxy-Authorization"),
                "client": self.client_address,
            })

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self._note()
        source, target = prompt_words(payload["prompt"])
        if len(target) < len(source):
            text = source[len(target)].upper()
        else:
            text = "<WAIT>" if "<WAIT>" in payload["stop"] else ""
        data = json.dumps({"choices": [{"text": text, "finish_reason": "stop"}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.close_connection = self.server.close_after_response

    def do_CONNECT(self):
        self._note()
        self.send_error(502)

    def log_message(self, *args):
        pass


@pytest.fixture
def dict_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _DictHandler)
    server.lock = threading.Lock()
    server.seen = []
    server.close_after_response = False
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def no_proxy_env(monkeypatch):
    for scheme in ("http", "https", "all", "no"):
        monkeypatch.delenv(f"{scheme}_proxy", raising=False)
        monkeypatch.delenv(f"{scheme.upper()}_PROXY", raising=False)
    return monkeypatch


def _ask(backend, source, target):
    return backend.next_unit(build_prompt(source, target, None))


def test_http_client_error_is_not_retried(mock_server):
    mock_server.responses = [(400, {})]
    backend = HttpBackend(_cfg(mock_server, retries=2))
    with pytest.raises(BackendUnavailable, match="HTTP 400"):
        backend.next_unit("p")
    assert len(mock_server.requests) == 1


@pytest.mark.parametrize("status", [408, 429])
def test_http_timeout_and_rate_limit_are_retried(mock_server, status):
    mock_server.responses = [(status, {})]
    backend = HttpBackend(_cfg(mock_server, retries=2))
    with pytest.raises(BackendUnavailable, match=f"HTTP {status}"):
        backend.next_unit("p")
    assert len(mock_server.requests) == 3


def test_http_keeps_one_connection_alive(dict_server, no_proxy_env):
    backend = HttpBackend(_cfg(dict_server))
    assert [_ask(backend, ["a", "b"], done) for done in ([], ["A"], ["A", "B"])] \
        == ["A", "B", Signal.WAIT]
    backend.close()
    assert len({seen["client"] for seen in dict_server.seen}) == 1


def test_http_reopens_a_connection_the_server_closed(dict_server, no_proxy_env):
    dict_server.close_after_response = True
    backend = HttpBackend(_cfg(dict_server, retries=0))
    source = ["a", "b", "c", "d"]
    units = [_ask(backend, source, [w.upper() for w in source[:n]]) for n in range(4)]
    backend.close()
    assert units == ["A", "B", "C", "D"]
    assert len(dict_server.seen) == 4
    assert len({seen["client"] for seen in dict_server.seen}) == 4


def test_http_proxy_from_environment(dict_server, no_proxy_env):
    port = dict_server.server_address[1]
    no_proxy_env.setenv("HTTP_PROXY", f"http://user:pw@127.0.0.1:{port}")
    cfg = HttpBackendConfig(endpoint_url="http://backend.invalid:8000/v1/completions",
                            retries=0, timeout_ms=5000)
    backend = HttpBackend(cfg)
    assert _ask(backend, ["a"], []) == "A"
    backend.close()
    assert dict_server.seen == [{
        "method": "POST",
        "path": "http://backend.invalid:8000/v1/completions",
        "host": "backend.invalid:8000",
        "proxy_auth": "Basic dXNlcjpwdw==",  # user:pw
        "client": dict_server.seen[0]["client"],
    }]


def test_https_proxy_tunnels_with_connect(dict_server, no_proxy_env):
    port = dict_server.server_address[1]
    no_proxy_env.setenv("HTTPS_PROXY", f"http://user:pw@127.0.0.1:{port}")
    cfg = HttpBackendConfig(endpoint_url="https://backend.invalid/v1/completions",
                            retries=0, timeout_ms=5000)
    backend = HttpBackend(cfg)
    with pytest.raises(BackendUnavailable, match="502"):  # this proxy refuses tunnels
        _ask(backend, ["a"], [])
    backend.close()
    assert [(s["method"], s["path"], s["proxy_auth"]) for s in dict_server.seen] \
        == [("CONNECT", "backend.invalid:443", "Basic dXNlcjpwdw==")]


def test_no_proxy_reaches_the_endpoint_directly(dict_server, no_proxy_env):
    no_proxy_env.setenv("HTTP_PROXY", "http://127.0.0.1:1")
    no_proxy_env.setenv("NO_PROXY", "127.0.0.1")
    backend = HttpBackend(_cfg(dict_server))
    assert _ask(backend, ["a"], []) == "A"
    backend.close()
    assert dict_server.seen[0]["path"] == "/v1/completions"


def test_simulate_http_workers_match_one_worker(tmp_path, dict_server, no_proxy_env):
    test_set = tmp_path / "test.jsonl"
    mapping = {}
    with open(test_set, "w", encoding="utf-8") as fh:
        for i in range(12):
            words = " ".join(f"w{i}x{j}" for j in range(2 + i % 5))
            fh.write(json.dumps({"source": words, "target": words.upper()}) + "\n")
            mapping.update((w, w.upper()) for w in words.split())
    endpoint = f"http://127.0.0.1:{dict_server.server_address[1]}/v1/completions"

    def simulate(workers):
        out_dir = tmp_path / f"w{workers}"
        dict_server.seen = []
        assert cli_main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                         "--backend", "http", "--endpoint", endpoint, "--k", "1,3",
                         "--workers", str(workers)]) == 0
        clients = {seen["client"] for seen in dict_server.seen}
        return trace_bytes(out_dir), clients

    one, one_clients = simulate(1)
    four, four_clients = simulate(4)
    assert len(one) == 24 and four == one
    assert len(one_clients) == 1 and 1 <= len(four_clients) <= 4
    # the server answers like a lookahead-0 dictionary, so the dict backend
    # writes the same traces, byte for byte
    dict_file = tmp_path / "dict.json"
    dict_file.write_text(json.dumps(mapping))
    assert cli_main(["simulate", "--input", str(test_set), "--out-dir", str(tmp_path / "dict"),
                     "--backend", "dict", "--dict-file", str(dict_file), "--lookahead", "0",
                     "--k", "1,3"]) == 0
    assert trace_bytes(tmp_path / "dict") == one


class _RawServer:
    """A loopback server that answers the i-th request it reads with the
    canned bytes of replies[i] (the last reply once they run out), each a
    (bytes, close the connection afterwards) pair.

    It keeps the bytes of every request and notes whether each one arrived
    whole in the first recv that saw any of it.
    """

    def __init__(self, replies):
        self.replies = replies
        self.requests = []
        self.whole = []
        self.connections = 0
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:  # the listening socket was shut down
                return
            self.connections += 1
            with conn:
                try:
                    while self._answer(conn):
                        pass
                except OSError:  # the client hung up mid-reply
                    pass

    def _answer(self, conn):
        data = first = conn.recv(1 << 20)
        while b"\r\n\r\n" not in data:
            more = conn.recv(1 << 20)
            if not more:
                return False
            data += more
        head = data.partition(b"\r\n\r\n")[0]
        length = int(re.search(rb"(?im)^content-length: *(\d+)", head)[1])
        while len(data) < len(head) + 4 + length:
            more = conn.recv(1 << 20)
            if not more:
                return False
            data += more
        self.requests.append(data)
        self.whole.append(first == data)
        reply, close = self.replies[min(len(self.requests), len(self.replies)) - 1]
        conn.sendall(reply)
        return not close

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()
        self.thread.join(5)


@pytest.fixture
def raw_server():
    servers = []

    def start(replies):
        servers.append(_RawServer(replies))
        return servers[-1]

    yield start
    for server in servers:
        server.close()
        assert not server.thread.is_alive()


_WORD = json.dumps({"choices": [{"text": "Wort", "finish_reason": "stop"}]}).encode()


def _sized(head, body=_WORD):
    return b"%s\r\nContent-Length: %d\r\n\r\n%s" % (head, len(body), body)


def _chunked(body, size=7):
    chunks = [body[i:i + size] for i in range(0, len(body), size)]
    return b"".join(b"%x;ext=1\r\n%s\r\n" % (len(c), c) for c in chunks) + b"0\r\nX-Trailer: t\r\n\r\n"


# name: (replies, connections the server sees, the error of the first call or None)
_RESPONSES = {
    "content-length": ([(_sized(b"HTTP/1.1 200 OK"), False)], 1, None),
    "chunked": ([(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + _chunked(_WORD),
                  False)], 1, None),
    "http/1.0 body read to close": ([(b"HTTP/1.0 200 OK\r\n\r\n" + _WORD, True)], 2, None),
    # the next two servers leave the connection open: the client must close it
    "http/1.0 without keep-alive": ([(_sized(b"HTTP/1.0 200 OK"), False)], 2, None),
    "connection close, then a reconnect": (
        [(_sized(b"HTTP/1.1 200 OK\r\nConnection: close"), False)], 2, None),
    "http/1.0 keep-alive": ([(_sized(b"HTTP/1.0 200 OK\r\nConnection: Keep-Alive"), False)],
                            1, None),
    "100 continue first": ([(b"HTTP/1.1 100 Continue\r\n\r\n" + _sized(b"HTTP/1.1 200 OK"),
                             False)], 1, None),
    "truncated body": ([(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + _WORD[:10], True)],
                       2, "IncompleteRead(10 bytes read, 90 more expected)"),
    "garbage status line": ([(b"garbage\r\n\r\n", True)], 2, "garbage\r\n"),
    "header line over 64 KiB": ([(b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n",
                                  True)], 2, "got more than 65536 bytes when reading header line"),
}


@pytest.mark.parametrize("name", _RESPONSES)
def test_http_response_reader(raw_server, no_proxy_env, name):
    replies, connections, error = _RESPONSES[name]
    server = raw_server(replies)
    endpoint = f"http://127.0.0.1:{server.port}/v1/completions"
    backend = HttpBackend(HttpBackendConfig(endpoint_url=endpoint, retries=1, timeout_ms=5000))
    if error is None:
        assert [backend.next_unit("p"), backend.next_unit("p")] == ["Wort", "Wort"]
    else:
        with pytest.raises(BackendUnavailable) as exc:
            backend.next_unit("p")
        assert str(exc.value) == f"{endpoint} unavailable after 2 attempts: {error}"
    backend.close()
    assert server.connections == connections
    # each request goes out in one write, so it arrives whole in one recv
    assert server.whole == [True] * len(server.requests) and server.requests
    assert server.requests[0].startswith(b"POST /v1/completions HTTP/1.1\r\n")


@pytest.mark.parametrize("endpoint, request_line, host", [
    ("http://backend.example/v1?a=1#frag",
     b"POST http://backend.example/v1?a=1 HTTP/1.1", b"backend.example"),
    ("http://backend.example:80/v1", b"POST http://backend.example:80/v1 HTTP/1.1",
     b"backend.example"),
    ("http://user:pw@backend.example/v1", b"POST http://backend.example/v1 HTTP/1.1",
     b"backend.example"),
    ("http://[::1]:8080/v1", b"POST http://[::1]:8080/v1 HTTP/1.1", b"[::1]:8080"),
    ("http://xn--bcher-kva.example:81/", b"POST http://xn--bcher-kva.example:81/ HTTP/1.1",
     b"xn--bcher-kva.example:81"),
])
def test_http_request_line_and_host_through_a_proxy(raw_server, no_proxy_env, endpoint,
                                                    request_line, host):
    server = raw_server([(_sized(b"HTTP/1.1 200 OK"), False)])
    no_proxy_env.setenv("HTTP_PROXY", f"http://127.0.0.1:{server.port}")
    backend = HttpBackend(HttpBackendConfig(endpoint_url=endpoint, retries=0, timeout_ms=5000))
    assert backend.next_unit("p") == "Wort"
    backend.close()
    head = server.requests[0].partition(b"\r\n\r\n")[0].split(b"\r\n")
    assert head[0] == request_line
    assert f"Host: {host.decode()}".encode() in head[1:]


def test_simulate_http_malformed_completion_fails_the_session(tmp_path, raw_server, no_proxy_env,
                                                             capsys):
    server = raw_server([(_sized(b"HTTP/1.1 200 OK", b'{"choices": [{"text": null}]}'), False)])
    test_set = tmp_path / "test.jsonl"
    test_set.write_text(json.dumps({"source": "a b", "target": "A B"}) + "\n")
    out_dir = tmp_path / "traces"
    assert cli_main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                     "--backend", "http", "--k", "1", "--retries", "0",
                     "--endpoint", f"http://127.0.0.1:{server.port}/v1/completions"]) == 2
    trace = json.loads((out_dir / "0000_k1.json").read_text(encoding="utf-8"))
    assert not trace["finished"] and "unexpected response shape" in trace["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_simulate_http_runaway_writer_fails_only_its_session(tmp_path, raw_server, no_proxy_env):
    # a server that answers one more word to every call would keep a session
    # going forever; the engine's write cap ends it, in a process the test
    # bounds in time. "a b" at k=1 takes one write to reveal "b", then
    # 2 * cap writes that find the source ended and one past the cap.
    calls = 2 + 2 * engine.MAX_TAIL_WRITES_PER_WORD
    word = b'{"choices": [{"text": "x", "finish_reason": "length"}]}'
    end = b'{"choices": [{"text": "", "finish_reason": "stop"}]}'
    server = raw_server([(_sized(b"HTTP/1.1 200 OK", word), False)] * calls
                        + [(_sized(b"HTTP/1.1 200 OK", end), False)])
    test_set = tmp_path / "test.jsonl"
    test_set.write_text("".join(json.dumps({"source": s, "target": s}) + "\n"
                                for s in ["a b", "c"]))
    out_dir = tmp_path / "traces"
    src = Path(engine.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "simtrans.cli", "simulate", "--input", str(test_set),
         "--out-dir", str(out_dir), "--backend", "http", "--k", "1", "--retries", "0",
         "--endpoint", f"http://127.0.0.1:{server.port}/v1/completions"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert len(server.requests) == calls + 1
    failed = json.loads((out_dir / "0000_k1.json").read_text(encoding="utf-8"))
    assert failed["error"] == "backend kept writing after source exhaustion"
    assert failed["hypothesis"] == ["x"] * calls
    ended = json.loads((out_dir / "0001_k1.json").read_text(encoding="utf-8"))
    assert ended["finished"] and ended["hypothesis"] == []


def test_simulate_http_completion_with_a_lone_surrogate_fails_only_its_session(
        tmp_path, raw_server, no_proxy_env, capsys):
    surrogate = b'{"choices": [{"text": "\\ud800", "finish_reason": "length"}]}'
    end = b'{"choices": [{"text": "", "finish_reason": "stop"}]}'
    server = raw_server([(_sized(b"HTTP/1.1 200 OK", surrogate), False),
                         (_sized(b"HTTP/1.1 200 OK", end), False)])
    test_set = tmp_path / "test.jsonl"
    test_set.write_text("".join(json.dumps({"source": s, "target": s}) + "\n" for s in "ab"))
    out_dir = tmp_path / "traces"
    assert cli_main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                     "--backend", "http", "--k", "1", "--retries", "0",
                     "--endpoint", f"http://127.0.0.1:{server.port}/v1/completions"]) == 2
    assert sorted(p.name for p in out_dir.iterdir()) == ["0000_k1.json", "0001_k1.json"]
    failed = json.loads((out_dir / "0000_k1.json").read_text(encoding="utf-8"))
    assert failed["error"] == "completion '\\ud800' holds an unpaired surrogate"
    ended = json.loads((out_dir / "0001_k1.json").read_text(encoding="utf-8"))
    assert ended["finished"] and ended["hypothesis"] == []
    assert "Traceback" not in capsys.readouterr().err


def test_http_host_header_as_http_client_writes_it():
    # hosts a proxied request line cannot carry, so not reachable above
    assert backends._host_header("bücher.example", 8443, 443) == "xn--bcher-kva.example:8443"
    assert backends._host_header("fe80::1%eth0", 443, 443) == "[fe80::1]"


@pytest.mark.parametrize("token", [
    "sekret\r\nX-Injected: 1", "sekret\n", "sek\rret", "sek\x1bret", "sekret\u20ac",
])
def test_http_bearer_token_a_header_cannot_carry_is_never_sent(raw_server, no_proxy_env, token):
    server = raw_server([(_sized(b"HTTP/1.1 200 OK"), False)])
    no_proxy_env.setenv("MOCK_LLM_KEY", token)
    cfg = HttpBackendConfig(endpoint_url=f"http://127.0.0.1:{server.port}/v1",
                            api_key_env="MOCK_LLM_KEY", retries=2, timeout_ms=5000)
    with pytest.raises(BackendUnavailable, match=r"bearer token in \$MOCK_LLM_KEY") as exc:
        HttpBackend(cfg).next_unit("p")
    assert "sekret" not in str(exc.value)
    assert server.connections == 0 and server.requests == []


@pytest.mark.parametrize("endpoint", [
    "http://127.0.0.1:9/v1 x", "http://127.0.0.1:9/v1\x00", "http://127.0.0.1:9/v1\x7f",
    "http://127.0.0.1:9/wörter", "http://127.0.0.1:99999/v1", "http://[::1/v1",
    "ftp://127.0.0.1/v1",
])
def test_http_endpoint_refused_before_any_request(endpoint):
    with pytest.raises(BackendUnavailable, match="endpoint"):
        HttpBackend(HttpBackendConfig(endpoint_url=endpoint))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_http_closes_every_socket_it_opens(dict_server, no_proxy_env):
    dict_server.close_after_response = True
    backend = HttpBackend(_cfg(dict_server, retries=0))
    _ask(backend, ["a"], [])  # the server's handler threads are up
    start = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        assert _ask(backend, ["a"], []) == "A"
    backend.close()
    deadline = time.monotonic() + 5
    while len(os.listdir("/proc/self/fd")) > start and time.monotonic() < deadline:
        time.sleep(0.01)  # the server closes its side in its own threads
    assert len(os.listdir("/proc/self/fd")) <= start
