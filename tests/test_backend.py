from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tandem.backend as backend_mod
from tandem.backend import (
    BackendExhausted,
    ChatMessage,
    ChatRequest,
    HttpChatBackend,
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


def test_call_llm_gates_before_the_call():
    recorder = RunRecorder(exchange_cap=0)
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

    monkeypatch.setattr(backend_mod.requests, "post", fake_post)
    backend = HttpChatBackend(endpoint="http://x/v1/chat", model="m1")
    req = ChatRequest(
        system_prompt="sys",
        messages=(ChatMessage("user", "u1"), ChatMessage("assistant", "a1")),
        temperature=1.0,
        max_response_tokens=256,
    )
    assert backend.complete(req) == "ok"
    [body] = posted
    assert body["model"] == "m1"
    assert body["temperature"] == 1.0
    assert body["max_tokens"] == 256
    assert body["messages"][0] == {"role": "system", "content": "sys"}
    assert [m["role"] for m in body["messages"]] == ["system", "user", "assistant"]


def test_http_retries_then_succeeds(monkeypatch):
    calls = []

    class FakeResponse:
        def __init__(self, status, payload=None):
            self.status_code = status
            self._payload = payload or {}
            self.text = json.dumps(self._payload)

        def json(self):
            return self._payload

    responses = [
        FakeResponse(503),
        FakeResponse(200, {"choices": [{"message": {"content": "recovered"}}]}),
    ]

    def fake_post(url, headers=None, json=None, timeout=None):
        calls.append(json)
        return responses[len(calls) - 1]

    monkeypatch.setattr(backend_mod.requests, "post", fake_post)
    monkeypatch.setattr(backend_mod.time, "sleep", lambda s: None)
    backend = HttpChatBackend(endpoint="http://x/v1/chat", model="m1", retries=2)
    assert backend.complete(make_request("hi")) == "recovered"
    assert len(calls) == 2


def test_http_gives_up_after_retries(monkeypatch):
    def fake_post(url, **kwargs):
        raise backend_mod.requests.ConnectionError("refused")

    monkeypatch.setattr(backend_mod.requests, "post", fake_post)
    monkeypatch.setattr(backend_mod.time, "sleep", lambda s: None)
    backend = HttpChatBackend(endpoint="http://x/v1/chat", model="m1", retries=1)
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

    monkeypatch.setattr(backend_mod.requests, "post", fake_post)
    backend = HttpChatBackend(endpoint="http://x/v1/chat", model="m1", retries=3)
    with pytest.raises(TransportError):
        backend.complete(make_request("hi"))
    assert len(calls) == 1


def test_http_empty_completion_raises(monkeypatch):
    class FakeResponse:
        status_code = 200
        text = "{}"

        def json(self):
            return {"choices": [{"message": {"content": "   "}}]}

    monkeypatch.setattr(backend_mod.requests, "post", lambda *a, **k: FakeResponse())
    backend = HttpChatBackend(endpoint="http://x/v1/chat", model="m1")
    with pytest.raises(ResponseEmpty):
        backend.complete(make_request("hi"))


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
