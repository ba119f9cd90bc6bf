from __future__ import annotations

import json
import os
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tandem.backend as backend_mod
import tandem.cli as cli
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
from tandem.protocol import InputError
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


def test_request_text_is_joined_once_when_built():
    req = make_request("do the thing", system="")
    assert req.text == "do the thing"
    assert req.rendered() is req.text
    assert req.with_followup("bad reply", "fix it").text == "do the thing\n\nbad reply\n\nfix it"


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
    assert exchanges == [ScriptedExchange(match="alpha", response="beta", regex=False)]


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
# HTTP backend, on the wire to a loopback chat endpoint
# ---------------------------------------------------------------------


def _completion(content) -> bytes:
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


class _Endpoint(BaseHTTPRequestHandler):
    """A chat endpoint on a loopback port.

    It serves the queued (status, headers, body) `replies` in turn, then a
    200 holding "live reply", and records each POST's path, headers and
    JSON body in `posts`.  `stall` holds every reply back until `release`
    is set: before its status line ("head") or after its headers ("body").
    """

    replies: list
    posts: list
    release: threading.Event
    stall = ""
    origin = url = ""

    def do_POST(self):  # noqa: N802 (stdlib naming)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.posts.append((self.path, self.headers, body))
        reply = self.replies.pop(0) if self.replies else (200, {}, _completion("live reply"))
        status, headers, payload = reply
        try:
            if self.stall == "head":
                self.release.wait(30)
            self.send_response(status)
            for name, value in {"Content-Length": str(len(payload)), **headers}.items():
                self.send_header(name, value)
            self.end_headers()
            if self.stall == "body":
                self.release.wait(30)
            self.wfile.write(payload)
        except OSError:  # the client gave up on a stalled reply
            pass

    def log_message(self, *args):  # keep test output quiet
        pass


@contextmanager
def _serving(tls: ssl.SSLContext | None = None):
    """A fresh `_Endpoint` class, served on a loopback port until the block ends."""
    handler = type("Endpoint", (_Endpoint,), {"replies": [], "posts": [], "release": threading.Event()})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    if tls:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    # A short poll interval lets shutdown return at once.
    threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
    handler.origin = f"{'https' if tls else 'http'}://127.0.0.1:{server.server_port}"
    handler.url = handler.origin + "/v1/chat/completions"
    try:
        yield handler
    finally:
        handler.release.set()
        server.shutdown()
        server.server_close()


@pytest.fixture()
def endpoint():
    with _serving() as handler:
        yield handler


@pytest.fixture()
def sleeps(monkeypatch):
    """The backoff waits the backend asks for; none is slept."""
    waits = []
    monkeypatch.setattr(backend_mod.time, "sleep", waits.append)
    return waits


def _closed_port() -> str:
    """The origin of a loopback port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"


SRC = Path(backend_mod.__file__).resolve().parents[1]
_COMPLETE = (
    "import sys; from tandem.backend import ChatRequest, HttpChatBackend; "
    "print(HttpChatBackend(sys.argv[1], 'm').complete(ChatRequest('sys', ())))"
)


def _complete_in_child(url: str, **env: str) -> subprocess.CompletedProcess:
    """One call in a fresh interpreter, whose urllib reads its proxies and trust store from `env`."""
    base = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    return subprocess.run(
        [sys.executable, "-c", _COMPLETE, url], capture_output=True, text=True, timeout=60,
        env={**base, "PYTHONPATH": str(SRC), **env},
    )


def test_http_body_shape(endpoint):
    backend = HttpChatBackend(endpoint=endpoint.url, model="m1", api_key="k")
    req = ChatRequest(
        system_prompt="sys",
        messages=(ChatMessage("user", "u1"), ChatMessage("assistant", "a1")),
        temperature=1.0,
    )
    assert backend.complete(req) == "live reply"
    [(path, headers, body)] = endpoint.posts
    assert path == "/v1/chat/completions"
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer k"
    assert body["model"] == "m1"
    assert body["temperature"] == 1.0
    assert body["max_tokens"] == MAX_RESPONSE_TOKENS == 1024
    assert body["messages"][0] == {"role": "system", "content": "sys"}
    assert [m["role"] for m in body["messages"]] == ["system", "user", "assistant"]


@pytest.mark.parametrize(
    "url, reason",
    [
        # urllib would open file:, ftp: and data: URLs, and fail on one without a scheme.
        *[(url, "the endpoint must be an http:// or https:// URL") for url in (
            "file:///etc/hostname", "ftp://127.0.0.1/x", "data:,hi", "127.0.0.1:9/v1",
            "localhost:9/v1", "http:///v1", "https:127.0.0.1/v1",
        )],
        ("http://[::1/v1", "Invalid IPv6 URL"),
        ("http://127.0.0.1:99999/v1", "Port out of range 0-65535"),
    ],
)
def test_http_endpoint_must_be_an_http_url_with_a_host(url, reason):
    with pytest.raises(InputError) as err:
        HttpChatBackend(endpoint=url, model="m1")
    assert str(err.value) == f"{url}: {reason}"


def test_http_retries_then_succeeds(endpoint, sleeps):
    endpoint.replies += [(503, {}, b""), (200, {}, _completion("recovered"))]
    backend = HttpChatBackend(endpoint=endpoint.url, model="m1")
    assert backend.complete(make_request("hi")) == "recovered"
    assert len(endpoint.posts) == 2


def test_http_gives_up_after_retries(sleeps):
    backend = HttpChatBackend(endpoint=_closed_port() + "/v1/chat", model="m1")
    with pytest.raises(TransportError, match="^backend unreachable after 3 attempts: .*refused"):
        backend.complete(make_request("hi"))
    assert sleeps == [0.5, 1.0]


def test_http_4xx_is_fatal_without_retry(endpoint, sleeps):
    endpoint.replies.append((401, {}, b"unauthorized \xff" + b"x" * 300))
    backend = HttpChatBackend(endpoint=endpoint.url, model="m1")
    with pytest.raises(TransportError) as err:
        backend.complete(make_request("hi"))
    # The first 200 characters of the body, decoded with replacement characters.
    assert str(err.value) == "backend returned 401: unauthorized �" + "x" * 186
    assert len(endpoint.posts) == 1
    assert sleeps == []


def test_http_retries_rate_limits_honouring_retry_after(endpoint, sleeps):
    wait = {"Retry-After": "3"}
    endpoint.replies += [(408, wait, b""), (429, wait, b""), (200, {}, _completion("finally"))]
    backend = HttpChatBackend(endpoint=endpoint.url, model="m1")
    assert backend.complete(make_request("hi")) == "finally"
    assert endpoint.replies == []
    assert sleeps == [3, 3]  # Retry-After outlasts the 0.5 s and 1 s backoff


def test_http_retry_after_an_http_date_waits_until_then(endpoint, sleeps, monkeypatch):
    now = 1_700_000_000.0
    # An HTTP-date 7 s ahead, one a minute past, and one that does not parse.
    waits = [formatdate(now + 7, usegmt=True), formatdate(now - 60, usegmt=True), "soon"]
    endpoint.replies += [(s, {"Retry-After": w}, b"") for s, w in zip((429, 503, 429), waits)]
    endpoint.replies.append((200, {}, _completion("finally")))
    monkeypatch.setattr(backend_mod.time, "time", lambda: now)
    monkeypatch.setattr(backend_mod, "HTTP_RETRIES", 3)
    backend = HttpChatBackend(endpoint=endpoint.url, model="m1")
    assert backend.complete(make_request("hi")) == "finally"
    assert endpoint.replies == []
    # The future date outlasts the 0.5 s backoff; the past and garbage ones wait the backoff.
    assert sleeps == [7.0, 1.0, 2.0]


def test_http_retry_after_longer_than_the_timeout_fails_at_once(endpoint, sleeps):
    endpoint.replies.append((503, {"Retry-After": "86400"}, b""))
    backend = HttpChatBackend(endpoint=endpoint.url, model="m1")
    with pytest.raises(TransportError, match="Retry-After asks for 86400s, more than the 60s"):
        backend.complete(make_request("hi"))
    assert len(endpoint.posts) == 1
    assert sleeps == []


def test_http_empty_completion_raises(endpoint):
    endpoint.replies.append((200, {}, _completion("   ")))
    backend = HttpChatBackend(endpoint=endpoint.url, model="m1")
    recorder = RunRecorder()
    with pytest.raises(ResponseEmpty, match="backend returned an empty completion"):
        call_llm(backend, make_request("hi"), role="global", recorder=recorder)
    assert recorder.exchanges == 0


@pytest.mark.parametrize(
    "body",
    [
        b"<html>busy</html>", b'{"choices": "\xff"}', b'{"choices": []}', b'{"choices": [{}]}',
        _completion("no plan here \ud800"),
    ],
    ids=["not-json", "not-utf8", "no-choice", "no-message", "a-lone-surrogate"],
)
def test_http_malformed_body_is_one_transport_error(endpoint, sleeps, body):
    endpoint.replies.append((200, {}, body))
    backend = HttpChatBackend(endpoint=endpoint.url, model="m1")
    with pytest.raises(TransportError, match="^malformed backend response: "):
        backend.complete(make_request("hi"))
    assert len(endpoint.posts) == 1
    assert sleeps == []


def test_a_reply_no_transcript_can_hold_fails_the_task_on_transport(endpoint, tmp_path, capsys):
    # A lone surrogate cannot be written as UTF-8; it must not lose the run.
    endpoint.replies.append((200, {}, _completion("no plan here \ud800")))
    out = tmp_path / "out"
    argv = ["run", str(DATA / "tasks" / "scn-happy.yaml"), "--backend", "http",
            "--endpoint", endpoint.url, "--model", "m", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_UNREACHABLE
    assert "termination=protocol_error" in capsys.readouterr().out
    transcript = out / "scn-happy.transcript.jsonl"
    assert "TransportError: malformed backend response: " in transcript.read_text(encoding="utf-8")
    assert (out / "report.json").is_file()
    assert cli.main(["replay", str(transcript)]) == cli.EXIT_OK


@pytest.mark.parametrize("status", [200, 503])
@pytest.mark.parametrize("stall", ["head", "body"])
def test_http_reply_slower_than_the_timeout_is_retried(endpoint, sleeps, monkeypatch, stall, status):
    # A reply stalled after its headers times out while its body is read.
    monkeypatch.setattr(backend_mod, "HTTP_TIMEOUT_S", 0.1)
    endpoint.stall = stall
    endpoint.replies += [(status, {}, _completion("late"))] * 3
    backend = HttpChatBackend(endpoint=endpoint.url, model="m1")
    with pytest.raises(TransportError, match="^backend unreachable after 3 attempts: .*timed out"):
        backend.complete(make_request("hi"))
    assert sleeps == [0.5, 1.0]


def test_one_http_backend_serves_two_tasks_at_once(endpoint):
    # make_backend_factory gives every task the same backend, under --parallel too.
    endpoint.stall = "head"
    backend = HttpChatBackend(endpoint=endpoint.url, model="m1")
    with ThreadPoolExecutor(2) as pool:
        calls = [pool.submit(backend.complete, make_request(text)) for text in ("a", "b")]
        deadline = time.monotonic() + 30
        while len(endpoint.posts) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        in_flight = len(endpoint.posts)
        endpoint.release.set()
        assert [call.result(timeout=30) for call in calls] == ["live reply", "live reply"]
    assert in_flight == 2
    assert sorted(body["messages"][1]["content"] for _, _, body in endpoint.posts) == ["a", "b"]


def test_http_honours_the_proxy_variables(endpoint):
    target = _closed_port() + "/v1/chat"
    proc = _complete_in_child(target, HTTP_PROXY=endpoint.origin)
    assert proc.stdout == "live reply\n", proc.stderr
    proc = _complete_in_child(endpoint.url, HTTP_PROXY=_closed_port(), NO_PROXY="127.0.0.1")
    assert proc.stdout == "live reply\n", proc.stderr
    # A proxy is sent the whole URL; a direct request only its path.
    assert [path for path, _, _ in endpoint.posts] == [target, "/v1/chat/completions"]


@pytest.fixture(scope="module")
def certificate(tmp_path_factory):
    """A self-signed certificate for 127.0.0.1 and its key."""
    if shutil.which("openssl") is None:
        pytest.skip("making a certificate needs the openssl command")
    where = tmp_path_factory.mktemp("tls")
    cert, key = where / "cert.pem", where / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-keyout", str(key), "-out", str(cert), "-days", "1",
         "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True, timeout=60,
    )
    return cert, key


def test_https_trusts_the_system_store_or_ssl_cert_file(certificate, sleeps, monkeypatch):
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    tls.load_cert_chain(*certificate)
    with _serving(tls) as server:
        backend = HttpChatBackend(endpoint=server.url, model="m1")
        # A TLS error is a transport failure, retried like any other.
        with pytest.raises(TransportError, match="after 3 attempts: .*CERTIFICATE_VERIFY_FAILED"):
            backend.complete(make_request("hi"))
        assert sleeps == [0.5, 1.0]
        proc = _complete_in_child(server.url, SSL_CERT_FILE=str(certificate[0]))
    assert proc.stdout == "live reply\n", proc.stderr
    assert len(server.posts) == 1


_STARTUP_PROBE = """
import sys
import tandem.cli as cli
from tandem.backend import HttpChatBackend

HTTP_CLIENT = {"urllib.request", "http.client", "ssl"}
scripts, out = sys.argv[1:]
for argv in (
    ["suite", "demo", "--backend", "scripted:" + scripts, "--out", out],
    ["replay", out + "/scn-happy.transcript.jsonl"],
    ["report", out + "/report.json"],
):
    assert cli.main(argv) == 0, argv
    assert not HTTP_CLIENT & set(sys.modules), (argv, HTTP_CLIENT & set(sys.modules))
HttpChatBackend(endpoint="http://127.0.0.1:9/v1/chat/completions", model="m-live")
assert "urllib.request" in sys.modules
print("probe ok")
"""


def test_only_the_http_backend_loads_the_http_client(tmp_path):
    """Offline verbs load no HTTP client module; building an HttpChatBackend loads urllib's."""
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(DATA / "scripts"), str(tmp_path)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
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
