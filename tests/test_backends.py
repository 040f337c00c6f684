import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from simtrans.backends import (
    DictionaryBackend,
    HttpBackend,
    HttpBackendConfig,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    load_recording,
    prompt_hash,
)
from simtrans.cli import main as cli_main
from simtrans.engine import run_session
from simtrans.errors import (
    BackendUnavailable,
    MalformedResponse,
    ReplayMiss,
    SessionError,
)
from simtrans.prompt import build_prompt
from simtrans.units import Signal

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


def test_http_whitespace_only_is_malformed(mock_server):
    mock_server.responses = [completion("   ", "length")]
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


def test_record_then_replay_identical_trace(tmp_path):
    source = ["a", "b", "c", "d"]
    mapping = {w: w.upper() for w in source}
    path = tmp_path / "rec.jsonl"
    recorder = RecordingBackend(path, DictionaryBackend(mapping))
    first = run_session(source, recorder, k=2)
    recorder.close()

    replayed = run_session(source, ReplayBackend(load_recording(path)), k=2)
    assert replayed.to_json() == first.to_json()


def test_replay_altered_k_misses(tmp_path):
    source = ["a", "b", "c"]
    path = tmp_path / "rec.jsonl"
    recorder = RecordingBackend(path, DictionaryBackend({w: w for w in source}))
    run_session(source, recorder, k=1)
    recorder.close()

    backend = ReplayBackend(load_recording(path))
    with pytest.raises(SessionError):  # ReplayMiss surfaces as a session failure
        run_session(source, backend, k=3)


def test_replay_empty_recording(tmp_path):
    path = tmp_path / "rec.jsonl"
    path.write_text("")
    with pytest.raises(ReplayMiss):
        ReplayBackend(load_recording(path)).next_unit("anything")


def test_replay_repeated_prompts_in_order(tmp_path):
    path = tmp_path / "rec.jsonl"
    h = prompt_hash("same")
    lines = [
        {"prompt_sha256": h, "unit": "first"},
        {"prompt_sha256": h, "unit": "second"},
    ]
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    backend = ReplayBackend(load_recording(path))
    assert backend.next_unit("same") == "first"
    assert backend.next_unit("same") == "second"
    assert backend.next_unit("same") == "second"  # stationary tail


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
    with open(test_set, "w", encoding="utf-8") as fh:
        for i in range(12):
            words = " ".join(f"w{i}x{j}" for j in range(2 + i % 5))
            fh.write(json.dumps({"source": words, "target": words.upper()}) + "\n")
    endpoint = f"http://127.0.0.1:{dict_server.server_address[1]}/v1/completions"

    def simulate(workers):
        out_dir = tmp_path / f"w{workers}"
        dict_server.seen = []
        assert cli_main(["simulate", "--input", str(test_set), "--out-dir", str(out_dir),
                         "--backend", "http", "--endpoint", endpoint, "--k", "1,3",
                         "--workers", str(workers)]) == 0
        clients = {seen["client"] for seen in dict_server.seen}
        return {p.name: p.read_bytes() for p in out_dir.glob("*.json")}, clients

    one, one_clients = simulate(1)
    four, four_clients = simulate(4)
    assert len(one) == 24 and four == one
    assert len(one_clients) == 1 and 1 <= len(four_clients) <= 4
