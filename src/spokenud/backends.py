"""Pluggable completion backends: live HTTP, record/replay store, test stub.

Replay files are keyed by a content hash of the prompts (line endings
normalized first), so editing a prompt template invalidates stale recordings
loudly instead of silently reusing them. Credentials come from an
environment variable only; config files never hold secrets.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .core import SpokenUdError


class BackendError(SpokenUdError):
    pass


class AuthMissing(BackendError):
    pass


class RequestTimeout(BackendError):
    pass


class HttpStatus(BackendError):
    def __init__(self, code: int, body: str = ""):
        self.code = code
        super().__init__(f"HTTP status {code}: {body[:200]}")


class ReplayMiss(BackendError):
    def __init__(self, key: str, fingerprint: str):
        self.key = key
        self.fingerprint = fingerprint
        super().__init__(
            f"no recorded response for key {key!r} (request hash {fingerprint})")


@dataclass(frozen=True)
class BackendConfig:
    mode: str = "stub"  # live | record | replay | stub
    base_url: str = "https://api.openai.com/v1"
    model_name: str = "gpt-4.1"
    temperature: float = 0.0
    max_tokens: int = 4096
    timeout_s: float = 60.0
    retries: int = 2
    backoff_base_s: float = 1.0
    replay_dir: str | None = None
    max_in_flight: int = 4
    auth_env_var: str = "SPOKENUD_API_KEY"

    def __post_init__(self):
        if self.mode not in ("live", "record", "replay", "stub"):
            raise BackendError(f"unknown backend mode {self.mode!r}")
        if self.mode in ("record", "replay") and not self.replay_dir:
            raise BackendError(f"{self.mode} mode requires a replay directory")
        if self.mode in ("live", "record") and not self.base_url:
            raise BackendError(f"{self.mode} mode requires a base URL")


def request_fingerprint(system_prompt: str, user_prompt: str, model: str) -> str:
    """Stable content hash of a request; line endings are normalized."""
    digest = _prefix_digest(model, system_prompt).copy()
    digest.update(user_prompt.replace("\r\n", "\n").encode("utf-8"))
    return digest.hexdigest()


@functools.lru_cache(maxsize=32)
def _prefix_digest(model: str, system_prompt: str):
    """The hash state after the model and system prompt, hashed once per pair."""
    import hashlib

    return hashlib.sha256("\n".join((model, "##SYSTEM##", system_prompt.replace(
        "\r\n", "\n"), "##USER##", "")).encode("utf-8"))


class ReplayStore:
    """Directory of recorded raw responses, one JSON file per request key."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def path_for(self, key: str) -> Path:
        """The file of ``key``; a key that could name a path outside the
        directory, or a hidden file, is refused."""
        if not key or key[0] == "." or "/" in key or "\\" in key:
            raise BackendError(f"replay key {key!r} is not a plain file name")
        return self.directory / f"{key}.json"

    def save(self, key: str, fingerprint: str, raw_response: str) -> Path:
        """Write the record to a temporary file, then rename it into place,
        so an interrupted run never leaves a truncated record."""
        path = self.path_for(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            tmp.write_text(json.dumps({
                "request_hash": fingerprint,
                "raw_response": raw_response,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            }, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def load(self, key: str, fingerprint: str) -> str:
        """The recorded response; the record must be UTF-8 without a BOM."""
        path = self.path_for(key)
        try:
            with open(path, "rb", buffering=0) as handle:
                record = json.loads(handle.read().decode("utf-8"))
        except FileNotFoundError:
            raise ReplayMiss(key, fingerprint) from None
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise BackendError(f"corrupt replay record {path}: {err}") from err
        if not isinstance(record, dict) or not isinstance(record.get("raw_response"), str):
            raise BackendError(f"corrupt replay record {path}: "
                               "expected an object with a string raw_response")
        if record.get("request_hash") != fingerprint:
            raise ReplayMiss(key, fingerprint)
        return record["raw_response"]


class StubBackend:
    """Deterministic canned responses from a pattern table.

    Each entry pairs a substring pattern (matched against the user prompt)
    with either a single response or a queue of responses consumed one call
    at a time (the last one repeats). A programmable callable can override
    the table entirely, which tests use for scripted agents.
    """

    def __init__(self, table=(), script=None):
        self._script = script
        self._table: list[tuple[str, list[str]]] = []
        for pattern, response in table:
            queue = list(response) if isinstance(response, (list, tuple)) else [response]
            self._table.append((pattern, queue))
        self._lock = threading.Lock()

    def complete(self, system_prompt: str, user_prompt: str,
                 key: str | None = None) -> str:
        if self._script is not None:
            return self._script(system_prompt, user_prompt, key)
        with self._lock:
            for pattern, queue in self._table:
                if pattern in user_prompt or pattern in (key or ""):
                    return queue.pop(0) if len(queue) > 1 else queue[0]
        raise BackendError(f"no stub response matches request (key={key!r})")


class LiveBackend:
    """One chat-completion HTTP round trip with exponential backoff."""

    RETRYABLE_STATUS = (429, 500, 502, 503, 504)

    def __init__(self, config: BackendConfig):
        self.config = config
        self._semaphore = threading.BoundedSemaphore(config.max_in_flight)

    def _token(self) -> str:
        token = os.environ.get(self.config.auth_env_var, "")
        if not token:
            raise AuthMissing(
                f"set {self.config.auth_env_var} to use the live backend")
        return token

    def complete(self, system_prompt: str, user_prompt: str,
                 key: str | None = None) -> str:
        import requests

        payload = {
            "model": self.config.model_name,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_prompt},
            ],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        headers = {"Authorization": f"Bearer {self._token()}"}
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        last_error: BackendError | None = None
        for attempt in range(self.config.retries + 1):
            if attempt:
                time.sleep(self.config.backoff_base_s * 2 ** (attempt - 1))
            try:
                with self._semaphore:
                    response = requests.post(url, json=payload, headers=headers,
                                             timeout=self.config.timeout_s)
            except requests.Timeout:
                last_error = RequestTimeout(f"request timed out after "
                                            f"{self.config.timeout_s}s")
                continue
            except requests.RequestException as err:
                last_error = BackendError(f"transport failure: {err}")
                continue
            if response.status_code in self.RETRYABLE_STATUS:
                last_error = HttpStatus(response.status_code, response.text)
                continue
            if response.status_code != 200:
                raise HttpStatus(response.status_code, response.text)
            try:
                content = response.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as err:
                raise BackendError(f"malformed completion payload: {err}")
            if not isinstance(content, str):
                raise BackendError(f"completion for key {key!r} has non-string "
                                   f"content: {type(content).__name__}")
            return content
        raise last_error if last_error else BackendError("request failed")


class RecordBackend:
    def __init__(self, config: BackendConfig):
        self._live = LiveBackend(config)
        self._store = ReplayStore(config.replay_dir)
        self._model = config.model_name

    def complete(self, system_prompt: str, user_prompt: str,
                 key: str | None = None) -> str:
        fingerprint = request_fingerprint(system_prompt, user_prompt, self._model)
        raw = self._live.complete(system_prompt, user_prompt, key)
        self._store.save(key or fingerprint[:16], fingerprint, raw)
        return raw


class ReplayBackend:
    def __init__(self, config: BackendConfig):
        self._store = ReplayStore(config.replay_dir)
        self._model = config.model_name

    def complete(self, system_prompt: str, user_prompt: str,
                 key: str | None = None) -> str:
        fingerprint = request_fingerprint(system_prompt, user_prompt, self._model)
        return self._store.load(key or fingerprint[:16], fingerprint)


def make_backend(config: BackendConfig):
    if config.mode == "stub":
        raise BackendError("backend mode stub has no responses to give: use "
                           "replay --replay-dir DIR, record or live")
    if config.mode == "live":
        return LiveBackend(config)
    if config.mode == "record":
        return RecordBackend(config)
    return ReplayBackend(config)

