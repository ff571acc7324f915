"""Wire client for chat-completion endpoints, with a scriptable mock.

One request shape covers every provider: a JSON body with ``model``,
``messages``, ``temperature`` and ``max_tokens``; the response must carry
generated text plus provider-reported token usage (field-name variants
are normalized at the transport edge). Token counts are never estimated
client-side.

Request bodies are serialized canonically, so identical inputs produce
identical bytes: :func:`build_request_body` writes the one request shape
directly, with sorted keys, no whitespace and every string escaped to
ASCII by ``json.encoder.encode_basestring_ascii``. The bytes equal
``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` of that
payload.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Mapping, Protocol, Sequence


class GatewayError(Exception):
    """Base for all gateway failures."""


class AuthMissing(GatewayError):
    """The binding's auth environment variable is not set."""


class RetriesExhausted(GatewayError):
    """Transient transport failures persisted beyond the retry budget."""


class MalformedResponse(GatewayError):
    """The provider response lacks text or usage fields."""


class ScriptExhausted(GatewayError):
    """A mock transport ran out of scripted entries."""


class TransientTransportError(GatewayError):
    """Retryable failure: connection trouble, 429, or a 5xx status."""


@dataclass(frozen=True)
class ModelBinding:
    model_id: str
    endpoint_url: str = ""
    auth_env_var: str = ""
    max_retries: int = 2
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    tokens_in: int
    tokens_out: int
    latency: float
    attempt: int


Message = Mapping[str, str]


def build_request_body(binding: ModelBinding, messages: Sequence[Message]) -> bytes:
    """Greedy decoding: temperature 0.0, at most 2048 tokens out.

    The body holds ``max_tokens``, ``messages`` (each message's ``content``
    and ``role``, which must be strings), ``model`` and ``temperature``,
    in that sorted order.
    """
    turns = ",".join([
        '{"content":' + encode_basestring_ascii(m["content"])
        + ',"role":' + encode_basestring_ascii(m["role"]) + "}"
        for m in messages
    ])
    return (
        '{"max_tokens":2048,"messages":[' + turns + '],"model":'
        + encode_basestring_ascii(binding.model_id) + ',"temperature":0.0}'
    ).encode("ascii")


def normalize_response(payload: Mapping[str, Any]) -> tuple[str, int, int]:
    """Extract (text, tokens_in, tokens_out) from provider response variants."""
    text: Any = payload.get("text")
    if text is None:
        choices = payload.get("choices")
        if isinstance(choices, list) and choices:
            message = choices[0].get("message", {})
            text = message.get("content")
    if text is None:
        content = payload.get("content")
        if isinstance(content, list) and content:
            text = content[0].get("text")
    if not isinstance(text, str):
        raise MalformedResponse("response carries no text field")

    usage = payload.get("usage")
    if not isinstance(usage, Mapping):
        raise MalformedResponse("response carries no usage field")
    tokens_in = usage.get("input_tokens", usage.get("prompt_tokens"))
    tokens_out = usage.get("output_tokens", usage.get("completion_tokens"))
    if not isinstance(tokens_in, int) or not isinstance(tokens_out, int):
        raise MalformedResponse("usage lacks integer token counts")
    return text, tokens_in, tokens_out


class Transport(Protocol):
    def send(self, binding: ModelBinding, body: bytes) -> Mapping[str, Any]: ...


class HttpTransport:
    """POSTs the canonical JSON body; auth comes from the environment.

    The HTTP client is imported on the first send, so runs that never
    reach an endpoint do not pay for it.
    """

    def send(self, binding: ModelBinding, body: bytes) -> Mapping[str, Any]:
        if not binding.auth_env_var or binding.auth_env_var not in os.environ:
            raise AuthMissing(f"environment variable {binding.auth_env_var!r} is not set")
        import http.client
        import urllib.error
        import urllib.request

        headers = {
            "Content-Type": "application/json",
            "Authorization": f"Bearer {os.environ[binding.auth_env_var]}",
        }
        try:
            request = urllib.request.Request(binding.endpoint_url, data=body, headers=headers)
            try:
                response = urllib.request.urlopen(request, timeout=binding.timeout)
            except urllib.error.HTTPError as exc:
                response = exc  # an error status still carries a body
            with response:
                status, raw = response.status, response.read()
        # refused, reset or timed out; a broken reply; a URL urllib cannot open
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransientTransportError(str(exc)) from exc
        if status == 429 or status >= 500:
            raise TransientTransportError(f"status {status}")
        if status >= 400:
            text = raw.decode("utf-8", errors="replace")
            raise GatewayError(f"status {status}: {text[:200]}")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise MalformedResponse("response body is not JSON") from exc


@dataclass
class MockEntry:
    """One scripted mock response.

    Exactly one of the behaviours applies: a normal (text, tokens) reply,
    a transient transport failure, or a structurally malformed response.
    """

    text: str = ""
    tokens_in: int = 0
    tokens_out: int = 0
    fail_transient: bool = False
    malformed: bool = False


class MockTransport:
    """Deterministic transport that replays a script of canned entries.

    Consumption order matches call order. Like the other transports and
    the ledgers, it is used from one thread only. ``requests`` retains the
    bytes of every request body sent, undecoded, for inspection.
    """

    def __init__(self, script: Iterable[MockEntry]):
        self._script = list(script)
        self._index = 0
        self.requests: list[bytes] = []

    def send(self, binding: ModelBinding, body: bytes) -> Mapping[str, Any]:
        self.requests.append(body)
        if self._index >= len(self._script):
            raise ScriptExhausted(f"mock script exhausted after {self._index} calls")
        entry = self._script[self._index]
        self._index += 1
        if entry.fail_transient:
            raise TransientTransportError("scripted transient failure")
        if entry.malformed:
            return {"unexpected": "shape"}
        return {
            "text": entry.text,
            "usage": {"input_tokens": entry.tokens_in, "output_tokens": entry.tokens_out},
        }


def install_mock(script: Iterable[MockEntry | Mapping[str, Any]]) -> MockTransport:
    """Build a mock transport from entries or plain dicts."""
    entries = []
    for item in script:
        if isinstance(item, MockEntry):
            entries.append(item)
        else:
            entries.append(MockEntry(**item))
    return MockTransport(entries)


def complete(
    binding: ModelBinding,
    messages: Sequence[Message],
    transport: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> CompletionResult:
    """Send one chat completion, retrying transient failures with backoff.

    Raises :class:`RetriesExhausted` once transient failures outlast
    ``binding.max_retries``; malformed provider responses surface
    immediately as :class:`MalformedResponse`.
    """
    if transport is None:
        transport = HttpTransport()
    body = build_request_body(binding, messages)
    start = time.monotonic()
    last_error: Exception | None = None
    for attempt in range(1, binding.max_retries + 2):
        try:
            payload = transport.send(binding, body)
        except TransientTransportError as exc:
            last_error = exc
            if attempt <= binding.max_retries:
                sleep(min(0.05 * 2 ** (attempt - 1), 2.0))
            continue
        text, tokens_in, tokens_out = normalize_response(payload)
        return CompletionResult(
            text=text,
            tokens_in=tokens_in,
            tokens_out=tokens_out,
            latency=time.monotonic() - start,
            attempt=attempt,
        )
    raise RetriesExhausted(
        f"gave up after {binding.max_retries + 1} attempts: {last_error}"
    ) from last_error
