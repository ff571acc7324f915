"""Wire-client tests against the scripted mock transport."""

from __future__ import annotations

import json
import socket
import threading
import types
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allocsim.gateway import (
    AuthMissing,
    GatewayError,
    HttpTransport,
    MalformedResponse,
    MockEntry,
    ModelBinding,
    RetriesExhausted,
    ScriptExhausted,
    TransientTransportError,
    build_request_body,
    complete,
    install_mock,
    normalize_response,
)

BINDING = ModelBinding(model_id="gpt-4o-mini", max_retries=3)
MESSAGES = [{"role": "user", "content": "act"}]


def no_sleep(_: float) -> None:
    pass


class TestComplete:
    def test_mock_passthrough(self):
        transport = install_mock([{"text": "noop(agent0)", "tokens_in": 120, "tokens_out": 8}])
        result = complete(BINDING, MESSAGES, transport=transport, sleep=no_sleep)
        assert result.text == "noop(agent0)"
        assert result.tokens_in == 120
        assert result.tokens_out == 8
        assert result.attempt == 1

    def test_fail_twice_then_succeed(self):
        transport = install_mock(
            [
                MockEntry(fail_transient=True),
                MockEntry(fail_transient=True),
                MockEntry(text="ok", tokens_in=1, tokens_out=1),
            ]
        )
        result = complete(BINDING, MESSAGES, transport=transport, sleep=no_sleep)
        assert result.attempt == 3
        assert result.text == "ok"

    def test_retries_exhausted(self):
        transport = install_mock([MockEntry(fail_transient=True)] * 5)
        binding = ModelBinding(model_id="m", max_retries=2)
        with pytest.raises(RetriesExhausted):
            complete(binding, MESSAGES, transport=transport, sleep=no_sleep)
        assert len(transport.requests) == 3  # 1 + 2 retries consumed

    @pytest.mark.parametrize("counts", [{"tokens_in": -5}, {"tokens_out": -1}, {"tokens_in": True}])
    def test_bad_token_count_is_malformed(self, counts):
        transport = install_mock([{"text": "noop(agent0)", "tokens_in": 3, "tokens_out": 2, **counts}])
        with pytest.raises(MalformedResponse):
            complete(BINDING, MESSAGES, transport=transport, sleep=no_sleep)
        assert len(transport.requests) == 1  # no retry on malformed

    def test_malformed_response_surfaces_immediately(self):
        transport = install_mock([MockEntry(malformed=True), MockEntry(text="never")])
        with pytest.raises(MalformedResponse):
            complete(BINDING, MESSAGES, transport=transport, sleep=no_sleep)
        assert len(transport.requests) == 1  # no retry on malformed

    def test_greedy_decoding_request_fields(self):
        transport = install_mock([{"text": "x", "tokens_in": 1, "tokens_out": 1}])
        complete(BINDING, MESSAGES, transport=transport, sleep=no_sleep)
        assert b'"max_tokens":2048,"messages":' in transport.requests[0]
        assert transport.requests[0].endswith(b'"temperature":0.0}')
        body = json.loads(transport.requests[0])
        assert body["model"] == "gpt-4o-mini"
        assert body["messages"] == [{"role": "user", "content": "act"}]


class TestMockTransport:
    def test_empty_script_exhausts(self):
        transport = install_mock([])
        with pytest.raises(ScriptExhausted):
            complete(BINDING, MESSAGES, transport=transport, sleep=no_sleep)

    def test_entries_consumed_in_order(self):
        transport = install_mock(
            [{"text": f"r{i}", "tokens_in": i, "tokens_out": i} for i in range(3)]
        )
        texts = [
            complete(BINDING, MESSAGES, transport=transport, sleep=no_sleep).text
            for _ in range(3)
        ]
        assert texts == ["r0", "r1", "r2"]


def request_body_oracle(binding, messages):
    payload = {
        "model": binding.model_id,
        "messages": [{"role": m["role"], "content": m["content"]} for m in messages],
        "temperature": 0.0,
        "max_tokens": 2048,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


# the characters of JSON's syntax and escapes, plus non-ASCII text
TEXT = st.text(st.one_of(st.sampled_from('{}[],:"\\\n\t /'), st.characters()), max_size=40)


class TestRequestBodies:
    def test_byte_stable(self):
        a = build_request_body(BINDING, MESSAGES)
        b = build_request_body(BINDING, MESSAGES)
        assert a == b

    @given(TEXT, st.lists(st.fixed_dictionaries({"role": TEXT, "content": TEXT}), max_size=4))
    @settings(max_examples=150, deadline=None)
    @example("m", [])
    def test_equals_json_dumps(self, model_id, messages):
        binding = ModelBinding(model_id=model_id)
        assert build_request_body(binding, messages) == request_body_oracle(binding, messages)

    def test_other_message_keys_are_left_out(self):
        messages = [{"role": "system", "content": "sé", "name": "x"}, {"content": "{}", "role": "user"}]
        assert build_request_body(BINDING, messages) == request_body_oracle(BINDING, messages)

    def test_normalize_variants(self):
        openai_like = {
            "choices": [{"message": {"content": "hello"}}],
            "usage": {"prompt_tokens": 10, "completion_tokens": 4},
        }
        assert normalize_response(openai_like) == ("hello", 10, 4)
        anthropic_like = {
            "content": [{"text": "hi"}],
            "usage": {"input_tokens": 3, "output_tokens": 2},
        }
        assert normalize_response(anthropic_like) == ("hi", 3, 2)

    def test_missing_usage_is_malformed(self):
        with pytest.raises(MalformedResponse):
            normalize_response({"text": "no usage"})

    def test_usage_may_be_any_mapping(self):
        usage = types.MappingProxyType({"input_tokens": 3, "output_tokens": 0})
        assert normalize_response({"text": "hi", "usage": usage}) == ("hi", 3, 0)

    @pytest.mark.parametrize("usage", [
        {"input_tokens": -5, "output_tokens": 3},
        {"prompt_tokens": 5, "completion_tokens": -1},
        {"input_tokens": True, "output_tokens": 3},
        {"input_tokens": 5, "output_tokens": False},
        {"input_tokens": 5.0, "output_tokens": 3},
        {"input_tokens": 5},
        ["input_tokens", 5],
    ])
    def test_bad_token_counts_are_malformed(self, usage):
        with pytest.raises(MalformedResponse):
            normalize_response({"text": "hi", "usage": usage})


class _Endpoint(BaseHTTPRequestHandler):
    """Answers every POST with the server's ``reply`` and keeps what it got."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.server.seen.append((dict(self.headers), self.rfile.read(length)))
        status, body = self.server.reply
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def local_env(monkeypatch):
    """The auth variable set, and no proxy, so requests stay on loopback."""
    for var in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("ALLOCSIM_TEST_KEY", "sekret")


@pytest.fixture
def endpoint(local_env):
    """A loopback HTTP server in a thread, and a binding that points at it."""
    server = HTTPServer(("127.0.0.1", 0), _Endpoint)
    server.seen = []
    server.reply = (200, b"{}")
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    binding = ModelBinding(
        model_id="gpt-4o-mini",
        endpoint_url=f"http://127.0.0.1:{server.server_address[1]}/v1/chat",
        auth_env_var="ALLOCSIM_TEST_KEY",
        timeout=5.0,
    )
    try:
        yield server, binding
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


class TestHttpTransport:
    def test_ok_reply_and_what_was_sent(self, endpoint):
        server, binding = endpoint
        reply = {"text": "noop(agent0)", "usage": {"input_tokens": 3, "output_tokens": 1}}
        server.reply = (200, json.dumps(reply).encode())
        body = build_request_body(binding, MESSAGES)
        assert HttpTransport().send(binding, body) == reply
        [(headers, sent)] = server.seen
        assert sent == body
        assert headers["Authorization"] == "Bearer sekret"
        assert headers["Content-Type"] == "application/json"

    def test_through_complete(self, endpoint):
        server, binding = endpoint
        server.reply = (200, b'{"text": "hi", "usage": {"prompt_tokens": 4, "completion_tokens": 2}}')
        result = complete(binding, MESSAGES, transport=HttpTransport(), sleep=no_sleep)
        assert (result.text, result.tokens_in, result.tokens_out) == ("hi", 4, 2)

    @pytest.mark.parametrize("status", [429, 500, 503])
    def test_retryable_status_is_transient(self, endpoint, status):
        server, binding = endpoint
        server.reply = (status, b"busy")
        with pytest.raises(TransientTransportError, match=f"status {status}"):
            HttpTransport().send(binding, b"{}")

    def test_client_error_carries_the_body_head(self, endpoint):
        server, binding = endpoint
        server.reply = (404, b"n" * 300)
        with pytest.raises(GatewayError) as caught:
            HttpTransport().send(binding, b"{}")
        assert type(caught.value) is GatewayError
        assert str(caught.value) == "status 404: " + "n" * 200

    def test_body_that_is_not_json(self, endpoint):
        server, binding = endpoint
        server.reply = (200, b"<html>oops</html>")
        with pytest.raises(MalformedResponse):
            HttpTransport().send(binding, b"{}")

    def test_refused_connection_is_transient(self, local_env):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        binding = ModelBinding(
            model_id="m", endpoint_url=f"http://127.0.0.1:{port}/", auth_env_var="ALLOCSIM_TEST_KEY"
        )
        with pytest.raises(TransientTransportError):
            HttpTransport().send(binding, b"{}")

    def test_missing_auth_variable(self, monkeypatch):
        monkeypatch.delenv("ALLOCSIM_TEST_KEY", raising=False)
        binding = ModelBinding(
            model_id="m", endpoint_url="http://127.0.0.1:9/", auth_env_var="ALLOCSIM_TEST_KEY"
        )
        with pytest.raises(AuthMissing):
            HttpTransport().send(binding, b"{}")
