"""LLM chat backends and search augmentation.

Three interchangeable backends implement ``complete(request) -> str``:

  HttpChatBackend   a real chat-completions endpoint over HTTP
  ScriptedBackend   deterministic match/response pairs from a script
                    file, for offline tests
  (ReplayBackend lives in ``transcript`` since it feeds on recorded
  transcripts)

Every failed model call is a ``BackendError``.  The agents (``Agent``)
make every call through ``call_llm``, which rejects a blank reply and
records an LlmCall event (one exchange) or an LlmFailed event;
``Agent._ask`` adds their one repair round.
"""

import json
import logging
import re
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Protocol, TypeVar

from .grammar import GrammarError
from .prompts import PACKAGED_PROMPTS, PromptLibrary
from .protocol import (
    ARRAY, EventKind, InputError, checked, decode_at, load_yaml, read_data, record
)

if TYPE_CHECKING:  # pragma: no cover - for type hints only
    from email.message import Message

    from .transcript import RunRecorder

logger = logging.getLogger(__name__)

__all__ = [
    "Agent",
    "BackendError",
    "BackendExhausted",
    "ChatBackend",
    "ChatMessage",
    "ChatRequest",
    "HttpChatBackend",
    "Passage",
    "ProviderError",
    "ResponseEmpty",
    "RetrievedPassage",
    "ScriptedBackend",
    "ScriptedExchange",
    "SearchProvider",
    "StaticSearchProvider",
    "TransportError",
    "augment_with_search",
    "call_llm",
    "truncate_to_words",
]

PASSAGE_WORD_LIMIT = 100
# The completion length every chat request asks for.
MAX_RESPONSE_TOKENS = 1024
PASSAGES_FORMAT = "tandem-passages"


class BackendError(Exception):
    """A model call failed; call_llm records it as an LlmFailed event."""


class TransportError(BackendError):
    """The backend endpoint could not be reached or answered garbage."""


class BackendExhausted(BackendError):
    """A scripted backend had no unconsumed exchange matching the prompt."""


class ResponseEmpty(BackendError):
    """The backend returned an empty or whitespace-only response."""


class ProviderError(Exception):
    """A search provider failed; planning proceeds without passages."""


# =====================================================================
# Requests
# =====================================================================


class ChatMessage(NamedTuple):
    role: str  # "user" | "assistant"
    content: str


class _ChatRequest(NamedTuple):
    system_prompt: str
    messages: tuple[ChatMessage, ...]
    temperature: float
    text: str


class ChatRequest(_ChatRequest):
    """One chat completion request. Temperature defaults to 1.

    `text` is the system prompt and the messages joined, once, since the
    backend and call_llm both read it.  The constructor is its own rather
    than `checked`'s hook, which would build each per-call request twice.
    """

    __slots__ = ()

    def __new__(
        cls, system_prompt: str, messages: tuple[ChatMessage, ...], temperature: float = 1.0
    ) -> "ChatRequest":
        text = "\n\n".join([p for p in (system_prompt, *[m.content for m in messages]) if p])
        return tuple.__new__(cls, (system_prompt, messages, temperature, text))

    def rendered(self) -> str:
        """Flat text view of the whole request.

        Scripted matchers run against this, and it is what transcripts
        store as the prompt.
        """
        return self.text

    def with_followup(self, assistant_text: str, user_text: str) -> "ChatRequest":
        """Extend the conversation for a repair round."""
        return ChatRequest(
            system_prompt=self.system_prompt,
            messages=self.messages
            + (ChatMessage("assistant", assistant_text), ChatMessage("user", user_text)),
            temperature=self.temperature,
        )


class ChatBackend(Protocol):
    def complete(self, request: ChatRequest) -> str: ...


# =====================================================================
# Live HTTP backend
# =====================================================================


# Client-side statuses worth a retry: 408 Request Timeout and 429 Too Many Requests.
_RETRIED_STATUSES = (408, 429)
# Seconds a request may take, retries after the first attempt, and the
# first retry's backoff in seconds (doubled for each later one).
HTTP_TIMEOUT_S = 60.0
HTTP_RETRIES = 2
HTTP_BACKOFF_S = 0.5


class HttpChatBackend:
    """OpenAI-style chat-completions client on the standard library's urllib.

    Retries transient failures (a connection, timeout or TLS error, a
    5xx, 408 Request Timeout or 429 Too Many Requests) up to
    ``HTTP_RETRIES`` times with exponential backoff from ``HTTP_BACKOFF_S``,
    waiting at least the ``Retry-After`` delay or until its HTTP-date
    (RFC 6585 §4, RFC 9110 §10.2.3); a ``Retry-After`` wait longer than the
    ``HTTP_TIMEOUT_S`` request timeout raises TransportError at once instead.
    A retried call only counts as one exchange because counting happens
    in call_llm after a response arrives.

    The endpoint must be an http or https URL with a host (and a valid
    port, if it names one), since urllib would also open ``file:``,
    ``ftp:`` and ``data:`` URLs.  Each attempt opens its own connection,
    so one backend serves parallel tasks.
    """

    def __init__(self, endpoint: str, model: str, api_key: str = "") -> None:
        # Imported here, so offline runs never load the HTTP client and no
        # recorded call latency includes the import.
        import urllib.request

        try:
            url = urllib.parse.urlsplit(endpoint)
            host, _ = url.hostname, url.port  # reading the port checks it
        except ValueError as exc:  # an unclosed IPv6 bracket or a port out of range, say
            raise InputError(endpoint, str(exc)) from exc
        if url.scheme not in ("http", "https") or not host:
            raise InputError(endpoint, "the endpoint must be an http:// or https:// URL")
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def _body(self, request: ChatRequest) -> dict:
        messages = [{"role": "system", "content": request.system_prompt}]
        messages += [{"role": m.role, "content": m.content} for m in request.messages]
        return {
            "model": self.model,
            "messages": messages,
            "temperature": request.temperature,
            "max_tokens": MAX_RESPONSE_TOKENS,
        }

    def _post(self, data: bytes) -> tuple[int, "Message", bytes]:
        """One attempt's status, headers and whole body, whatever the status;
        a transport failure, reading the body included, raises OSError or
        http.client.HTTPException."""
        import urllib.request  # loads urllib.error too

        post = urllib.request.Request(self.endpoint, data, self._headers())
        try:
            with urllib.request.urlopen(post, timeout=HTTP_TIMEOUT_S) as resp:
                return resp.status, resp.headers, resp.read()
        except urllib.error.HTTPError as exc:  # not 2xx; an OSError, so caught first
            with exc:
                return exc.code, exc.headers, exc.read()

    def complete(self, request: ChatRequest) -> str:
        from http.client import HTTPException

        data = json.dumps(self._body(request)).encode()
        last_error: Exception | None = None
        retry_after = 0
        for attempt in range(HTTP_RETRIES + 1):
            if attempt:
                delay = max(HTTP_BACKOFF_S * (2 ** (attempt - 1)), retry_after)
                logger.warning("retrying backend call in %.1fs: %s", delay, last_error)
                time.sleep(delay)
            try:
                status, headers, body = self._post(data)
            except (OSError, HTTPException) as exc:
                last_error = exc
                continue
            if status >= 500 or status in _RETRIED_STATUSES:
                last_error = TransportError(f"backend returned {status}")
                retry_after = _retry_after(headers.get("Retry-After", ""))
                if retry_after > HTTP_TIMEOUT_S:  # waiting would stall the run; fail now
                    raise TransportError(
                        f"{last_error}: Retry-After asks for {retry_after:g}s, "
                        f"more than the {HTTP_TIMEOUT_S:g}s timeout"
                    )
                continue
            if status != 200:
                text = body.decode("utf-8", "replace")
                raise TransportError(f"backend returned {status}: {text[:200]}")
            try:
                content = json.loads(body.decode())["choices"][0]["message"]["content"]
                if isinstance(content, str):  # a lone surrogate, which no transcript holds, raises
                    content.encode()
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"malformed backend response: {exc}") from exc
            if not isinstance(content, str):
                raise ResponseEmpty("backend returned an empty completion")
            return content
        raise TransportError(f"backend unreachable after {HTTP_RETRIES + 1} attempts: {last_error}")


def _retry_after(value: str) -> float:
    """The seconds a Retry-After value asks to wait: delay-seconds, or the
    time until an HTTP-date (RFC 9110 §10.2.3); 0 for a past date or garbage."""
    if not value:
        return 0
    if value.isascii() and value.isdigit():
        return int(value)
    from datetime import timezone
    from email.utils import parsedate_to_datetime  # imported only when a date arrives

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return 0
    # An HTTP-date is in GMT; parsedate_to_datetime leaves a "-0000" zone naive.
    return max(0.0, when.replace(tzinfo=when.tzinfo or timezone.utc).timestamp() - time.time())


# =====================================================================
# Scripted backend
# =====================================================================


@record
class ScriptedExchange(NamedTuple):
    """One match/response pair; `regex` switches substring to pattern."""

    match: str
    response: str
    regex: bool = False

    def _checked(self) -> "ScriptedExchange":
        if self.regex:
            try:
                re.compile(self.match)
            except re.error as exc:
                raise ValueError(f"match is not a valid regex: {exc}") from None
        return self

    def matches(self, prompt: str) -> bool:
        if self.regex:
            return re.search(self.match, prompt) is not None
        return self.match in prompt


SCRIPT_FORMAT = "tandem-script"


class ScriptedBackend:
    """Serves canned responses by first-unconsumed-match in file order."""

    def __init__(self, exchanges: list[ScriptedExchange] | tuple[ScriptedExchange, ...]) -> None:
        self._exchanges = list(exchanges)
        self._consumed = [False] * len(self._exchanges)

    @property
    def remaining(self) -> int:
        return self._consumed.count(False)

    def complete(self, request: ChatRequest) -> str:
        prompt = request.rendered()
        for i, exchange in enumerate(self._exchanges):
            if self._consumed[i]:
                continue
            if exchange.matches(prompt):
                self._consumed[i] = True
                return exchange.response
        head = "\n".join(prompt.splitlines()[:5])
        raise BackendExhausted(
            f"no unconsumed scripted exchange matches the prompt "
            f"({self.remaining} left); prompt starts:\n{head}"
        )


def _exchanges(doc: dict) -> list[ScriptedExchange]:
    entries = ARRAY.check(doc.get("exchanges", []), "exchanges")
    return [decode_at(ScriptedExchange, entry, f"exchange {i}") for i, entry in enumerate(entries)]


def load_script_file(path: str | Path) -> list[ScriptedExchange]:
    """Load match/response pairs from a YAML script file; a bad one is an InputError."""
    return read_data(path, load_yaml, SCRIPT_FORMAT, _exchanges)


# =====================================================================
# Recorded call plumbing
# =====================================================================


def call_llm(backend: ChatBackend, request: ChatRequest, role: str, recorder: "RunRecorder") -> str:
    """Run one exchange: budget gate, backend call, transcript record.

    The recorder's force-stop gate raises before the call when the
    exchange budget is spent, so a run can never exceed it.  A blank
    reply is a ResponseEmpty.  A failed call is recorded as an LlmFailed
    event, which is not an exchange, and its BackendError propagates.
    """
    recorder.check_exchange_budget()
    started = time.perf_counter()
    try:
        response = backend.complete(request)
        if not response.strip():
            raise ResponseEmpty("backend returned an empty completion")
    except BackendError as exc:
        error = f"{type(exc).__name__}: {exc}"
        recorder.append(
            EventKind.LLM_FAILED,
            {"role": role, "prompt": request.rendered(), "error": error,
             "latency": time.perf_counter() - started},
        )
        raise
    latency = time.perf_counter() - started
    payload = {"role": role, "prompt": request.rendered(), "response": response, "latency": latency}
    recorder.append(EventKind.LLM_CALL, payload)
    return response


T = TypeVar("T")


class Agent:
    """What both agents share; ``role`` prefixes their prompt keys and names their calls."""

    role: str  # "global" or "local"

    def __init__(
        self, backend: ChatBackend, library: PromptLibrary | None = None, temperature: float = 1.0
    ) -> None:
        self.backend = backend
        self.library = library or PACKAGED_PROMPTS
        self.temperature = temperature

    def _request(self, user_text: str) -> ChatRequest:
        return ChatRequest(
            system_prompt=self.library.get(f"{self.role}/intro"),
            messages=(ChatMessage("user", user_text),),
            temperature=self.temperature,
        )

    def _ask(
        self, call: Callable[..., str], prompt: str, recorder: "RunRecorder",
        parse: Callable[[str], T], repair_text: str,
    ) -> T:
        """Ask `call` (``call_llm``'s signature) with user text `prompt` and
        parse the reply; on a GrammarError, ask once more with a repair
        follow-up.

        The repair round extends the conversation with the unparseable
        response and `repair_text`.  A second parse failure propagates.
        Each agent passes `call_llm` and `parse` as its own module names
        them, so wrappers installed at those names (the benchmark's tracer)
        still see every call, repair calls included.
        """
        chat = self._request(prompt)
        response = call(self.backend, chat, self.role, recorder)
        try:
            return parse(response)
        except GrammarError as exc:
            logger.info("response unparseable, repairing: %s", exc)
            chat = chat.with_followup(response, repair_text)
            return parse(call(self.backend, chat, self.role, recorder))


# =====================================================================
# Search augmentation
# =====================================================================


@checked
class RetrievedPassage(NamedTuple):
    """A short background passage attached to planning prompts.

    Passages are clamped to PASSAGE_WORD_LIMIT whitespace-delimited words
    at construction time, so an oversized one cannot exist.
    """

    query: str
    passage: str
    source: str = ""

    def _checked(self) -> "RetrievedPassage":
        passage = truncate_to_words(self.passage, PASSAGE_WORD_LIMIT)
        return tuple.__new__(RetrievedPassage, (self.query, passage, self.source))


def truncate_to_words(text: str, limit: int = PASSAGE_WORD_LIMIT) -> str:
    """Keep the first `limit` whitespace-delimited words."""
    words = text.split()
    return " ".join(words[:limit])


class SearchProvider(Protocol):
    def search(self, query: str) -> list[tuple[str, str]]:
        """Return (passage, source) pairs; raise ProviderError on failure."""
        ...


@record
class Passage(NamedTuple):
    """One passage-file entry: `passage` fires when `trigger` occurs in a query."""

    trigger: str
    passage: str
    source: str = ""


class StaticSearchProvider:
    """Keyword-triggered passages from a fixed table (or YAML file).

    An entry fires when its trigger occurs in the query,
    case-insensitively.  Deterministic, so replays reproduce the same
    augmented prompts.
    """

    def __init__(self, entries: list[tuple[str, str, str]]) -> None:
        # entries: (trigger, passage, source), such as Passage records
        self._entries = list(entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "StaticSearchProvider":
        """Load a `tandem-passages` file; a bad one is an InputError."""

        def decode(doc: dict) -> "StaticSearchProvider":
            entries = ARRAY.check(doc.get("passages", []), "passages")
            return cls([decode_at(Passage, e, f"passage {i}") for i, e in enumerate(entries)])

        return read_data(path, load_yaml, PASSAGES_FORMAT, decode)

    def search(self, query: str) -> list[tuple[str, str]]:
        q = query.casefold()
        return [(p, s) for trigger, p, s in self._entries if trigger.casefold() in q]


def augment_with_search(query: str, provider: SearchProvider) -> tuple[RetrievedPassage, ...]:
    """Fetch background passages for a query, each clamped to 100 words.

    ProviderError propagates; callers treat it as non-fatal and plan
    without passages.
    """
    results = provider.search(query)
    return tuple(RetrievedPassage(query=query, passage=p, source=s) for p, s in results)
