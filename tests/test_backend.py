from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import tandem.backend as backend_mod
from tandem.backend import (
    BackendError,
    BackendExhausted,
    ChatMessage,
    ChatRequest,
    HttpChatBackend,
    MAX_RESPONSE_TOKENS,
    PASSAGE_WORD_LIMIT,
    ResponseEmpty,
    RetrievedPassage,
    ScriptedBackend,
    ScriptedExchange,
    StaticSearchProvider,
    TransportError,
    augment_with_search,
    call_llm,
    load_script_file,
    truncate_to_words,
)
from tandem.transcript import ForceStopInterrupt, RunRecorder

from conftest import DATA


def make_request(text: str = "hello", system: str = "sys") -> ChatRequest:
    return ChatRequest(system_prompt=system, messages=(ChatMessage("user", text),))


# ---------------------------------------------------------------------
# ChatRequest
# ---------------------------------------------------------------------


def test_rendered_joins_system_and_messages():
    req = make_request("do the thing", system="you are an agent")
    assert req.rendered() == "you are an agent\n\ndo the thing"


def test_with_followup_extends_conversation():
    req = make_request("first")
    follow = req.with_followup("bad reply", "please fix the format")
    assert len(follow.messages) == 3
    assert follow.messages[1].role == "assistant"
    assert follow.messages[2].content == "please fix the format"
    assert follow.temperature == req.temperature
    # original is untouched
    assert len(req.messages) == 1


# ---------------------------------------------------------------------
# Scripted backend
# ---------------------------------------------------------------------


def test_scripted_first_unconsumed_match_in_file_order():
    backend = ScriptedBackend(
        [
            ScriptedExchange("plan", "first plan"),
            ScriptedExchange("plan", "second plan"),
            ScriptedExchange("verdict", "move"),
        ]
    )
    assert backend.complete(make_request("make a plan")) == "first plan"
    assert backend.complete(make_request("verdict time")) == "move"
    assert backend.complete(make_request("make a plan")) == "second plan"
    assert backend.remaining == 0


def test_scripted_exhaustion_reports_prompt_head():
    backend = ScriptedBackend([ScriptedExchange("plan", "only")])
    backend.complete(make_request("plan now"))
    with pytest.raises(BackendExhausted) as err:
        backend.complete(make_request("plan again"))
    assert "plan again" in str(err.value)


def test_scripted_regex_matcher():
    backend = ScriptedBackend([ScriptedExchange(r"phase \d+", "ok", regex=True)])
    assert backend.complete(make_request("work on phase 2 now")) == "ok"


def test_load_script_file_round_trip(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(
        "format: tandem-script\nexchanges:\n  - match: alpha\n    response: beta\n",
        encoding="utf-8",
    )
    exchanges = load_script_file(path)
    assert exchanges == [ScriptedExchange(matcher="alpha", response="beta", regex=False)]


def test_load_script_file_rejects_wrong_format(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("format: something-else\nexchanges: []\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_script_file(path)


def test_bundled_scenario_scripts_load():
    for name in ("scn-happy", "scn-revise", "scn-replan", "scn-overrule", "scn-forcestop"):
        exchanges = load_script_file(DATA / "scripts" / f"{name}.yaml")
        assert exchanges, name


# ---------------------------------------------------------------------
# call_llm plumbing
# ---------------------------------------------------------------------


def test_call_llm_records_exchange_and_latency():
    recorder = RunRecorder()
    backend = ScriptedBackend([ScriptedExchange("hi", "hello there")])
    out = call_llm(backend, make_request("hi"), role="local", recorder=recorder)
    assert out == "hello there"
    assert recorder.exchanges == 1
    event = recorder.events[0]
    assert event.payload["role"] == "local"
    assert event.payload["response"] == "hello there"
    assert event.payload["latency"] >= 0


@pytest.mark.parametrize(
    "backend, error",
    [
        (ScriptedBackend([]), "BackendExhausted: no unconsumed scripted exchange"),
        (ScriptedBackend([ScriptedExchange("hi", " \n")]), "ResponseEmpty: backend returned"),
    ],
    ids=["exhausted", "blank-reply"],
)
def test_call_llm_records_a_failed_call_and_reraises(backend, error):
    recorder = RunRecorder()
    with pytest.raises(BackendError):
        call_llm(backend, make_request("hi"), role="local", recorder=recorder)
    [event] = recorder.events
    assert event.kind.value == "LlmFailed"
    assert event.payload["role"] == "local"
    assert event.payload["prompt"] == make_request("hi").rendered()
    assert event.payload["error"].startswith(error)
    assert event.payload["latency"] >= 0
    assert recorder.exchanges == 0  # a failed call is not an exchange


def test_call_llm_gates_before_the_call():
    recorder = RunRecorder()
    recorder.exchange_cap = 0
    backend = ScriptedBackend([ScriptedExchange("hi", "hello")])
    with pytest.raises(ForceStopInterrupt) as err:
        call_llm(backend, make_request("hi"), role="local", recorder=recorder)
    assert err.value.exchange_count == 0
    assert backend.remaining == 1  # the backend was never consulted


# ---------------------------------------------------------------------
# HTTP backend
# ---------------------------------------------------------------------


def test_http_body_shape(monkeypatch):
    posted = []

    class FakeResponse:
        status_code = 200
        text = ""

        def json(self):
            return {"choices": [{"message": {"content": "ok"}}]}

    def fake_post(url, headers=None, json=None, timeout=None):
        posted.append(json)
        return FakeResponse()

    monkeypatch.setattr(requests, "post", fake_post)
    backend = HttpChatBackend(endpoint="http://x/v1/chat", model="m1")
    req = ChatRequest(
        system_prompt="sys",
        messages=(ChatMessage("user", "u1"), ChatMessage("assistant", "a1")),
        temperature=1.0,
    )
    assert backend.complete(req) == "ok"
    [body] = posted
    assert body["model"] == "m1"
    assert body["temperature"] == 1.0
    assert body["max_tokens"] == MAX_RESPONSE_TOKENS == 1024
    assert body["messages"][0] == {"role": "system", "content": "sys"}
    assert [m["role"] for m in body["messages"]] == ["system", "user", "assistant"]


def test_http_retries_then_succeeds(monkeypatch):
    calls = []

    class FakeResponse:
        def __init__(self, status, payload=None):
            self.status_code = status
            self._payload = payload or {}
            self.text = json.dumps(self._payload)
            self.headers = {}

        def json(self):
            return self._payload

    responses = [
        FakeResponse(503),
        FakeResponse(200, {"choices": [{"message": {"content": "recovered"}}]}),
    ]

    def fake_post(url, headers=None, json=None, timeout=None):
        calls.append(json)
        return responses[len(calls) - 1]

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(backend_mod.time, "sleep", lambda s: None)
    backend = HttpChatBackend(endpoint="http://x/v1/chat", model="m1")
    assert backend.complete(make_request("hi")) == "recovered"
    assert len(calls) == 2


def test_http_gives_up_after_retries(monkeypatch):
    def fake_post(url, **kwargs):
        raise requests.ConnectionError("refused")

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(backend_mod.time, "sleep", lambda s: None)
    backend = HttpChatBackend(endpoint="http://x/v1/chat", model="m1")
    with pytest.raises(TransportError):
        backend.complete(make_request("hi"))


def test_http_4xx_is_fatal_without_retry(monkeypatch):
    calls = []

    class FakeResponse:
        status_code = 401
        text = "unauthorized"

    def fake_post(url, **kwargs):
        calls.append(1)
        return FakeResponse()

    monkeypatch.setattr(requests, "post", fake_post)
    backend = HttpChatBackend(endpoint="http://x/v1/chat", model="m1")
    with pytest.raises(TransportError):
        backend.complete(make_request("hi"))
    assert len(calls) == 1


def test_http_retries_rate_limits_honouring_retry_after(monkeypatch):
    statuses = [429, 429, 200]
    sleeps = []

    class FakeResponse:
        def __init__(self, status):
            self.status_code = status
            self.text = ""
            self.headers = {"Retry-After": "3"} if status == 429 else {}

        def json(self):
            return {"choices": [{"message": {"content": "finally"}}]}

    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(statuses.pop(0)))
    monkeypatch.setattr(backend_mod.time, "sleep", sleeps.append)
    backend = HttpChatBackend(endpoint="http://x/v1/chat", model="m1")
    assert backend.complete(make_request("hi")) == "finally"
    assert statuses == []
    assert sleeps == [3, 3]  # Retry-After outlasts the 0.5 s and 1 s backoff


def test_http_retry_after_an_http_date_waits_until_then(monkeypatch):
    now = 1_700_000_000.0
    # An HTTP-date 7 s ahead, one a minute past, and one that does not parse.
    waits = [formatdate(now + 7, usegmt=True), formatdate(now - 60, usegmt=True), "soon"]
    statuses = [429, 503, 429, 200]
    sleeps = []

    class FakeResponse:
        def __init__(self, status):
            self.status_code = status
            self.text = ""
            self.headers = {"Retry-After": waits.pop(0)} if status != 200 else {}

        def json(self):
            return {"choices": [{"message": {"content": "finally"}}]}

    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(statuses.pop(0)))
    monkeypatch.setattr(backend_mod.time, "sleep", sleeps.append)
    monkeypatch.setattr(backend_mod.time, "time", lambda: now)
    monkeypatch.setattr(backend_mod, "HTTP_RETRIES", 3)
    backend = HttpChatBackend(endpoint="http://x/v1/chat", model="m1")
    assert backend.complete(make_request("hi")) == "finally"
    assert statuses == []
    # The future date outlasts the 0.5 s backoff; the past and garbage ones wait the backoff.
    assert sleeps == [7.0, 1.0, 2.0]


def test_http_retry_after_longer_than_the_timeout_fails_at_once(monkeypatch):
    calls, sleeps = [], []

    class FakeResponse:
        status_code = 503
        text = ""
        headers = {"Retry-After": "86400"}

    def fake_post(*args, **kwargs):
        calls.append(1)
        return FakeResponse()

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(backend_mod.time, "sleep", sleeps.append)
    backend = HttpChatBackend(endpoint="http://x/v1/chat", model="m1")
    with pytest.raises(TransportError, match="Retry-After asks for 86400s, more than the 60s"):
        backend.complete(make_request("hi"))
    assert calls == [1]
    assert sleeps == []


def test_http_empty_completion_raises(monkeypatch):
    class FakeResponse:
        status_code = 200
        text = "{}"

        def json(self):
            return {"choices": [{"message": {"content": "   "}}]}

    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse())
    backend = HttpChatBackend(endpoint="http://x/v1/chat", model="m1")
    recorder = RunRecorder()
    with pytest.raises(ResponseEmpty, match="backend returned an empty completion"):
        call_llm(backend, make_request("hi"), role="global", recorder=recorder)
    assert recorder.exchanges == 0


class _Recorder(BaseHTTPRequestHandler):
    bodies: list[dict] = []

    def do_POST(self):  # noqa: N802 (stdlib naming)
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).bodies.append(body)
        payload = json.dumps(
            {"choices": [{"message": {"content": "live reply"}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # keep test output quiet
        pass


def test_http_against_local_server():
    server = HTTPServer(("127.0.0.1", 0), _Recorder)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
        backend = HttpChatBackend(endpoint=url, model="m-live", api_key="k")
        out = backend.complete(make_request("ping", system="sys prompt"))
        assert out == "live reply"
        body = _Recorder.bodies[-1]
        assert body["model"] == "m-live"
        assert body["temperature"] == 1.0
        assert body["messages"][0]["role"] == "system"
    finally:
        server.shutdown()
        server.server_close()


_STARTUP_PROBE = """
import sys
import tandem.cli as cli
from tandem.backend import ChatMessage, ChatRequest, HttpChatBackend

scripts, out, url = sys.argv[1:]
assert "requests" not in sys.modules, "import tandem.cli"
for argv in (
    ["suite", "demo", "--backend", "scripted:" + scripts, "--out", out],
    ["replay", out + "/scn-happy.transcript.jsonl"],
    ["report", out + "/report.json"],
):
    assert cli.main(argv) == 0, argv
    assert "requests" not in sys.modules, argv
backend = HttpChatBackend(endpoint=url, model="m-live")
assert "requests" in sys.modules
request = ChatRequest(system_prompt="sys", messages=(ChatMessage("user", "ping"),))
assert backend.complete(request) == "live reply"
print("probe ok")
"""


def test_only_the_http_backend_loads_requests(tmp_path):
    """Offline verbs never import requests; building an HttpChatBackend does."""
    server = HTTPServer(("127.0.0.1", 0), _Recorder)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
        src = Path(backend_mod.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_PROBE, str(DATA / "scripts"), str(tmp_path), url],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        server.shutdown()
        server.server_close()
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("probe ok\n")


# ---------------------------------------------------------------------
# Search augmentation
# ---------------------------------------------------------------------


def test_passage_clamped_to_word_limit():
    long_text = " ".join(f"w{i}" for i in range(250))
    passage = RetrievedPassage(query="q", passage=long_text)
    assert len(passage.passage.split()) == PASSAGE_WORD_LIMIT


@settings(max_examples=200)
@given(st.text(max_size=2000))
def test_passage_word_limit_property(text):
    passage = RetrievedPassage(query="q", passage=text)
    assert len(passage.passage.split()) <= PASSAGE_WORD_LIMIT


def test_truncate_to_words_keeps_short_text():
    assert truncate_to_words("a b c", 5) == "a b c"
    assert truncate_to_words("a b c d", 2) == "a b"


def test_static_provider_trigger_matching():
    provider = StaticSearchProvider([("kettle", "kettle facts", "guide")])
    hits = augment_with_search("Find the price of the Copper Pour-Over Kettle", provider)
    assert len(hits) == 1
    assert hits[0].source == "guide"
    assert augment_with_search("unrelated query", provider) == ()


def test_bundled_passages_load_and_fire():
    provider = StaticSearchProvider.from_file(DATA / "search" / "passages.yaml")
    hits = augment_with_search("How many electronics products does the shop list?", provider)
    assert hits
    for hit in hits:
        assert len(hit.passage.split()) <= PASSAGE_WORD_LIMIT
