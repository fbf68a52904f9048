"""Pluggable completion backends: live HTTP, record/replay store, test stub.

Every request carries a key, ``<sentence id>.<stage>`` (``.retryN`` on a
repair round), that names its replay file. The file holds a content hash of the
prompts (line endings normalized), so an edited prompt template misses loudly
instead of reusing a stale record. Credentials come from the environment only.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

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


BACKEND_MODES = ("live", "record", "replay", "stub")
MAX_WORKERS = 32  # calls in flight, one per worker; 50 ms calls scale linearly to 16


@dataclass(frozen=True)
class BackendConfig:
    mode: str = "stub"  # one of BACKEND_MODES
    base_url: str = "https://api.openai.com/v1"
    model_name: str = "gpt-4.1"
    temperature: float = 0.0
    max_tokens: int = 4096
    timeout_s: float = 60.0
    retries: int = 2
    replay_dir: str | None = None
    auth_env_var: str = "SPOKENUD_API_KEY"


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


@contextlib.contextmanager
def replaced_atomically(path: Path):
    """A UTF-8 temporary file to write, renamed to ``path`` only on success."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
        """Write the record; an interrupted run never leaves a truncated one."""
        path = self.path_for(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        with replaced_atomically(path) as handle:
            handle.write(json.dumps({
                "request_hash": fingerprint,
                "raw_response": raw_response,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            }, ensure_ascii=False, indent=2) + "\n")
        return path

    def load(self, key: str, fingerprint: str) -> str:
        """The recorded response; the record must be UTF-8 without a BOM."""
        path = self.path_for(key)
        try:
            with open(path, "rb", buffering=0) as handle:
                record = json.loads(handle.read().decode("utf-8"))
        except FileNotFoundError:
            raise ReplayMiss(key, fingerprint) from None
        except (ValueError, RecursionError) as err:  # also bad UTF-8, a huge int
            raise BackendError(f"corrupt replay record {path}: {err}") from err
        if not isinstance(record, dict) or not isinstance(record.get("raw_response"), str):
            raise BackendError(f"corrupt replay record {path}: "
                               "expected an object with a string raw_response")
        if record.get("request_hash") != fingerprint:
            raise ReplayMiss(key, fingerprint)
        return record["raw_response"]


class StubBackend:
    """Answers each request by calling ``script(system, user, key)``."""

    def __init__(self, script):
        self._script = script

    def complete(self, system_prompt: str, user_prompt: str, key: str) -> str:
        return self._script(system_prompt, user_prompt, key)


class LiveBackend:
    """One chat-completion HTTP round trip; retries wait 1 s, 2 s, 4 s, ..."""

    RETRYABLE_STATUS = (429, 500, 502, 503, 504)

    def __init__(self, config: BackendConfig):
        self.config = config

    def complete(self, system_prompt: str, user_prompt: str, key: str) -> str:
        import http.client  # imported here, so that no other command loads them
        import urllib.error
        import urllib.request
        from . import __version__

        if not (token := os.environ.get(self.config.auth_env_var, "")):
            raise AuthMissing(f"set {self.config.auth_env_var} to use the live backend")
        body = json.dumps({
            "model": self.config.model_name,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_prompt},
            ],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }).encode("utf-8")
        headers = {"Content-Type": "application/json", "User-Agent": f"spokenud/{__version__}"}
        statuses = urllib.request.HTTPErrorProcessor()  # every status comes back as a reply:
        statuses.http_response = statuses.https_response = lambda request, reply: reply
        opener = urllib.request.build_opener(statuses)  # so no redirect is followed
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        last_error: BackendError | None = None
        for attempt in range(self.config.retries + 1):
            if attempt:
                time.sleep(2 ** (attempt - 1))
            try:  # the Request too: a bad URL or header raises ValueError
                request = urllib.request.Request(url, body, headers, method="POST")
                request.add_unredirected_header("Authorization", f"Bearer {token}")
                with opener.open(request, timeout=self.config.timeout_s) as reply:
                    status, raw = reply.status, reply.read()
            except (OSError, http.client.HTTPException, ValueError) as err:
                reason = err.reason if isinstance(err, urllib.error.URLError) else err
                last_error = (RequestTimeout(f"request timed out after {self.config.timeout_s}s")
                              if isinstance(reason, TimeoutError) else
                              BackendError(f"transport failure: {reason}"))
                continue
            if status in self.RETRYABLE_STATUS:
                last_error = HttpStatus(status, raw.decode("utf-8", errors="replace"))
                continue
            if status != 200:
                raise HttpStatus(status, raw.decode("utf-8", errors="replace"))
            try:
                content = json.loads(raw)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as err:
                raise BackendError(f"malformed completion payload: {err}")
            if not isinstance(content, str):
                raise BackendError(f"completion for key {key!r} has non-string "
                                   f"content: {type(content).__name__}")
            return content
        raise last_error if last_error else BackendError("request failed")


class RecordBackend(LiveBackend):
    def complete(self, system_prompt: str, user_prompt: str, key: str) -> str:
        raw = super().complete(system_prompt, user_prompt, key)
        fingerprint = request_fingerprint(system_prompt, user_prompt, self.config.model_name)
        ReplayStore(self.config.replay_dir).save(key, fingerprint, raw)
        return raw


class ReplayBackend:
    def __init__(self, config: BackendConfig):
        self._store = ReplayStore(config.replay_dir)
        self._model = config.model_name

    def complete(self, system_prompt: str, user_prompt: str, key: str) -> str:
        fingerprint = request_fingerprint(system_prompt, user_prompt, self._model)
        return self._store.load(key, fingerprint)


def make_backend(config: BackendConfig):
    """The backend of ``config.mode``, once the settings it needs are given."""
    backend = {"live": LiveBackend, "record": RecordBackend,
               "replay": ReplayBackend}.get(config.mode)
    if backend is None:
        raise BackendError(f"backend mode {config.mode} has no responses to give: "
                           "use replay --replay-dir DIR, record or live")
    if config.mode != "live" and not config.replay_dir:
        raise BackendError(f"{config.mode} mode requires a replay directory")
    if config.mode != "replay" and not config.base_url:
        raise BackendError(f"{config.mode} mode requires a base URL")
    if config.mode != "replay" and (scheme := urlsplit(config.base_url)[0]) not in (
            "http", "https"):  # urllib would open file: and ftp: too
        raise BackendError(f"{config.mode} mode requires an http or https base URL, not {scheme!r}")
    return backend(config)
