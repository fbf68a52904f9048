import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from spokenud.backends import (
    AuthMissing,
    BackendConfig,
    BackendError,
    HttpStatus,
    ReplayMiss,
    ReplayStore,
    StubBackend,
    make_backend,
    request_fingerprint,
)
from spokenud.config import load_config
from spokenud.pipeline import SentenceFailure, parse_sentence

from pipeline_helpers import input_sentence


def test_fingerprint_normalizes_line_endings():
    a = request_fingerprint("sys\r\nprompt", "user\r\ntext", "m")
    b = request_fingerprint("sys\nprompt", "user\ntext", "m")
    assert a == b


def test_fingerprint_distinguishes_prompts():
    assert request_fingerprint("a", "b", "m") != request_fingerprint("a", "c", "m")
    assert request_fingerprint("a", "b", "m") != request_fingerprint("a", "b", "n")


def test_replay_store_roundtrip(tmp_path):
    store = ReplayStore(tmp_path)
    fp = request_fingerprint("s", "u", "m")
    store.save("x.sph", fp, "{\"ok\": true}")
    assert store.load("x.sph", fp) == "{\"ok\": true}"


def test_replay_miss_on_absent_key(tmp_path):
    store = ReplayStore(tmp_path)
    with pytest.raises(ReplayMiss):
        store.load("nope", "abc")


def test_replay_miss_on_stale_hash(tmp_path):
    store = ReplayStore(tmp_path)
    store.save("x", "hash1", "old response")
    with pytest.raises(ReplayMiss):
        store.load("x", "hash2")


@pytest.mark.parametrize("content", ['{"request_hash": "ab'.encode(),
                                     '{"raw_response": "é'.encode()[:-1]],
                         ids=["truncated-json", "truncated-utf8"])
def test_replay_store_corrupt_record_is_a_backend_error_naming_the_file(
        tmp_path, content):
    store = ReplayStore(tmp_path)
    store.path_for("x.sph").write_bytes(content)
    with pytest.raises(BackendError, match="corrupt replay record") as err:
        store.load("x.sph", "ab")
    assert str(tmp_path / "x.sph.json") in str(err.value)


@pytest.mark.parametrize("key", ["../x.sph", "a/b.sph", "a\\b.sph", ".x.sph",
                                 "/abs.sph", ""])
def test_replay_store_refuses_keys_outside_its_directory(tmp_path, key):
    store = ReplayStore(tmp_path / "replay")
    with pytest.raises(BackendError, match="is not a plain file name") as err:
        store.save(key, "hash", "response")
    assert repr(key) in str(err.value)
    with pytest.raises(BackendError, match="is not a plain file name"):
        store.load(key, "hash")
    assert list(tmp_path.rglob("*")) == []


def test_replay_store_save_replaces_atomically(tmp_path):
    store = ReplayStore(tmp_path)
    store.save("x.sph", "hash1", "first")
    path = store.save("x.sph", "hash2", "second")
    assert store.load("x.sph", "hash2") == "second"
    assert json.loads(path.read_text("utf-8"))["raw_response"] == "second"
    assert [p.name for p in tmp_path.iterdir()] == ["x.sph.json"]


def test_replay_hit_is_byte_identical(tmp_path):
    config = BackendConfig(mode="replay", replay_dir=str(tmp_path))
    fp = request_fingerprint("sys", "user", config.model_name)
    ReplayStore(tmp_path).save(fp[:16], fp, "response éxacte")
    first = make_backend(config).complete("sys", "user")
    second = make_backend(config).complete("sys", "user")
    assert first == second == "response éxacte"


def test_stub_pattern_table():
    backend = StubBackend(table=[("hello", "world"), ("", "default")])
    assert backend.complete("s", "say hello") == "world"
    assert backend.complete("s", "anything") == "default"


def test_stub_queue_consumed_per_call():
    backend = StubBackend(table=[("x", ["first", "second"])])
    assert backend.complete("s", "x") == "first"
    assert backend.complete("s", "x") == "second"
    assert backend.complete("s", "x") == "second"


def test_stub_miss_raises():
    backend = StubBackend(table=[("needle", "y")])
    with pytest.raises(BackendError):
        backend.complete("s", "haystack")


def test_live_requires_credentials(monkeypatch):
    monkeypatch.delenv("SPOKENUD_API_KEY", raising=False)
    config = BackendConfig(mode="live", base_url="http://localhost:1")
    with pytest.raises(AuthMissing):
        make_backend(config).complete("s", "u")


def test_config_mode_requirements():
    with pytest.raises(BackendError):
        BackendConfig(mode="replay")
    with pytest.raises(BackendError):
        BackendConfig(mode="bogus")


class _MockCompletionHandler(BaseHTTPRequestHandler):
    status_queue: list = []
    payload_queue: list = []  # completion payloads to send instead of the echo
    calls: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).calls.append(body)
        status = self.status_queue.pop(0) if self.status_queue else 200
        if status != 200:
            self.send_response(status)
            self.end_headers()
            return
        prompt = body["messages"][1]["content"]
        payload = json.dumps(self.payload_queue.pop(0) if self.payload_queue else {
            "choices": [{"message": {"content": f"echo: {prompt}"}}],
        }).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_server():
    _MockCompletionHandler.status_queue = []
    _MockCompletionHandler.payload_queue = []
    _MockCompletionHandler.calls = []
    server = HTTPServer(("127.0.0.1", 0), _MockCompletionHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_live_round_trip(mock_server, monkeypatch):
    monkeypatch.setenv("SPOKENUD_API_KEY", "test-token")
    config = BackendConfig(mode="live", base_url=mock_server, timeout_s=5)
    assert make_backend(config).complete("sys", "ping") == "echo: ping"
    call = _MockCompletionHandler.calls[0]
    assert call["temperature"] == 0.0
    assert call["messages"][0]["role"] == "system"


def test_live_retries_on_transient_status(mock_server, monkeypatch):
    monkeypatch.setenv("SPOKENUD_API_KEY", "test-token")
    _MockCompletionHandler.status_queue = [429, 500]
    config = BackendConfig(mode="live", base_url=mock_server, timeout_s=5,
                           backoff_base_s=0.01)
    assert make_backend(config).complete("sys", "ping") == "echo: ping"
    assert len(_MockCompletionHandler.calls) == 3


def test_live_fatal_status_raises(mock_server, monkeypatch):
    monkeypatch.setenv("SPOKENUD_API_KEY", "test-token")
    _MockCompletionHandler.status_queue = [401]
    config = BackendConfig(mode="live", base_url=mock_server, timeout_s=5)
    with pytest.raises(HttpStatus) as err:
        make_backend(config).complete("sys", "ping")
    assert err.value.code == 401


@pytest.mark.parametrize("message, error", [
    ({"content": None}, "completion for key 's1.sph' has non-string content: NoneType"),
    ({"content": 42}, "completion for key 's1.sph' has non-string content: int"),
    (None, "malformed completion payload: 'NoneType' object is not subscriptable"),
])
def test_live_completion_without_string_content_is_a_backend_error(
        mock_server, monkeypatch, message, error):
    monkeypatch.setenv("SPOKENUD_API_KEY", "test-token")
    config = BackendConfig(mode="live", base_url=mock_server, timeout_s=5)
    _MockCompletionHandler.payload_queue = [{"choices": [{"message": message}]}] * 2
    with pytest.raises(BackendError) as err:
        make_backend(config).complete("sys", "ping", key="s1.sph")
    assert str(err.value) == error
    assert len(_MockCompletionHandler.calls) == 1

    failure = parse_sentence(input_sentence("t1", ["yo", "creo", "si"]),
                             make_backend(config), load_config())
    assert isinstance(failure, SentenceFailure) and failure.stage == "SPH"
    assert failure.error == error.replace("s1.sph", "t1.sph")


def test_record_then_replay_round_trip(mock_server, monkeypatch, tmp_path):
    monkeypatch.setenv("SPOKENUD_API_KEY", "test-token")
    record = BackendConfig(mode="record", base_url=mock_server,
                           replay_dir=str(tmp_path), timeout_s=5)
    recorded = make_backend(record).complete("sys", "hola", key="s1.sph")
    replay = BackendConfig(mode="replay", replay_dir=str(tmp_path))
    replayed = make_backend(replay).complete("sys", "hola", key="s1.sph")
    assert recorded == replayed == "echo: hola"
    # A different prompt misses loudly instead of reusing the stale file.
    with pytest.raises(ReplayMiss):
        make_backend(replay).complete("sys", "adios", key="s1.sph")
