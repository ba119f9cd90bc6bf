"""LLM chat backends and search augmentation.

Three interchangeable backends implement ``complete(request) -> str``:

  HttpChatBackend   a real chat-completions endpoint over HTTP
  ScriptedBackend   deterministic matcher/response pairs from a fixture
                    file, for offline tests
  (ReplayBackend lives in ``transcript`` since it feeds on recorded
  transcripts)

All agent traffic goes through ``call_llm`` which times the call,
records an LlmCall transcript event on the caller-supplied recorder and
counts the exchange.  ``ask_with_repair`` adds the agents' one repair
round on top of it.
"""

from __future__ import annotations

import logging
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, TypeVar

from .grammar import GrammarError
from .protocol import load_yaml, read_data

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from .transcript import RunRecorder

logger = logging.getLogger(__name__)

__all__ = [
    "BackendExhausted",
    "ChatBackend",
    "ChatMessage",
    "ChatRequest",
    "HttpChatBackend",
    "ProviderError",
    "ResponseEmpty",
    "RetrievedPassage",
    "ScriptedBackend",
    "ScriptedExchange",
    "SearchProvider",
    "StaticSearchProvider",
    "TransportError",
    "ask_with_repair",
    "augment_with_search",
    "call_llm",
    "truncate_to_words",
]

PASSAGE_WORD_LIMIT = 100
PASSAGES_FORMAT = "tandem-passages"


class TransportError(Exception):
    """The backend endpoint could not be reached or answered garbage."""


class BackendExhausted(Exception):
    """A scripted backend had no unconsumed exchange matching the prompt."""


class ResponseEmpty(Exception):
    """The backend returned an empty or whitespace-only response."""


class ProviderError(Exception):
    """A search provider failed; planning proceeds without passages."""


# =====================================================================
# Requests
# =====================================================================


@dataclass(frozen=True)
class ChatMessage:
    role: str  # "user" | "assistant"
    content: str


@dataclass(frozen=True)
class ChatRequest:
    """One chat completion request. Temperature defaults to 1."""

    system_prompt: str
    messages: tuple[ChatMessage, ...]
    temperature: float = 1.0
    max_response_tokens: int = 1024

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        # Joined once: the backend and call_llm both read it.
        parts = [self.system_prompt] + [m.content for m in self.messages]
        object.__setattr__(self, "_rendered", "\n\n".join(p for p in parts if p))

    def rendered(self) -> str:
        """Flat text view of the whole request.

        Scripted matchers run against this, and it is what transcripts
        store as the prompt.
        """
        return self._rendered

    def with_followup(self, assistant_text: str, user_text: str) -> "ChatRequest":
        """Extend the conversation for a repair round."""
        return ChatRequest(
            system_prompt=self.system_prompt,
            messages=self.messages
            + (ChatMessage("assistant", assistant_text), ChatMessage("user", user_text)),
            temperature=self.temperature,
            max_response_tokens=self.max_response_tokens,
        )


class ChatBackend(Protocol):
    def complete(self, request: ChatRequest) -> str: ...


# =====================================================================
# Live HTTP backend
# =====================================================================


class HttpChatBackend:
    """OpenAI-style chat-completions client.

    Retries transient transport failures up to ``retries`` times with
    exponential backoff; a retried call only counts as one exchange
    because counting happens in call_llm after a response arrives.

    ``requests`` is imported when the backend is built rather than with
    this module, so offline runs never load the HTTP stack and no
    recorded call latency includes the import.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str = "",
        timeout: float = 60.0,
        retries: int = 2,
        backoff: float = 0.5,
    ) -> None:
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        import requests

        self._requests = requests

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
            "max_tokens": request.max_response_tokens,
        }

    def complete(self, request: ChatRequest) -> str:
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                delay = self.backoff * (2 ** (attempt - 1))
                logger.warning("retrying backend call in %.1fs: %s", delay, last_error)
                time.sleep(delay)
            try:
                resp = self._requests.post(
                    self.endpoint,
                    headers=self._headers(),
                    json=self._body(request),
                    timeout=self.timeout,
                )
            except self._requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code >= 500:
                last_error = TransportError(f"server error {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise TransportError(f"backend returned {resp.status_code}: {resp.text[:200]}")
            try:
                content = resp.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"malformed backend response: {exc}") from exc
            if not isinstance(content, str) or not content.strip():
                raise ResponseEmpty("backend returned an empty completion")
            return content
        raise TransportError(f"backend unreachable after {self.retries + 1} attempts: {last_error}")


# =====================================================================
# Scripted backend
# =====================================================================


@dataclass(frozen=True)
class ScriptedExchange:
    """One matcher/response pair; `regex` switches substring to pattern."""

    matcher: str
    response: str
    regex: bool = False

    def matches(self, prompt: str) -> bool:
        if self.regex:
            return re.search(self.matcher, prompt) is not None
        return self.matcher in prompt


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
                response = exchange.response
                if not response.strip():
                    raise ResponseEmpty(f"scripted exchange {i} has an empty response")
                return response
        head = "\n".join(prompt.splitlines()[:5])
        raise BackendExhausted(
            f"no unconsumed scripted exchange matches the prompt "
            f"({self.remaining} left); prompt starts:\n{head}"
        )


def _exchanges(doc: dict) -> list[ScriptedExchange]:
    entries = doc.get("exchanges", [])
    if not isinstance(entries, list):
        raise TypeError("exchanges must be a list")
    exchanges = []
    for i, entry in enumerate(entries):
        regex = bool(entry.get("regex", False))
        exchange = ScriptedExchange(entry["match"], entry["response"], regex)
        if not isinstance(exchange.matcher, str) or not isinstance(exchange.response, str):
            raise TypeError(f"exchange {i}: match and response must be strings")
        if regex:
            try:
                re.compile(exchange.matcher)
            except re.error as exc:
                raise ValueError(f"exchange {i}: match is not a valid regex: {exc}") from None
        exchanges.append(exchange)
    return exchanges


def load_script_file(path: str | Path) -> list[ScriptedExchange]:
    """Load matcher/response pairs from a YAML script file; a bad one is an InputError."""
    return read_data(path, load_yaml, SCRIPT_FORMAT, _exchanges)


# =====================================================================
# Recorded call plumbing
# =====================================================================


def call_llm(backend: ChatBackend, request: ChatRequest, role: str, recorder: "RunRecorder") -> str:
    """Run one exchange: budget gate, backend call, transcript record.

    The recorder's force-stop gate raises before the call when the
    exchange budget is spent, so a run can never exceed it.
    """
    recorder.check_exchange_budget()
    started = time.perf_counter()
    response = backend.complete(request)
    latency = time.perf_counter() - started
    if not response.strip():
        raise ResponseEmpty("backend returned an empty completion")
    recorder.record_llm_call(role=role, prompt=request.rendered(), response=response, latency=latency)
    return response


T = TypeVar("T")


def ask_with_repair(
    ask: Callable[[ChatRequest], str],
    chat: ChatRequest,
    parse: Callable[[str], T],
    repair_text: str,
) -> T:
    """Ask and parse; on a GrammarError, ask once more with a repair follow-up.

    The repair round extends the conversation with the unparseable
    response and `repair_text`.  A second parse failure propagates.
    Each agent passes an `ask` and `parse` built from the names its own
    module imports, so wrappers installed at those names (the benchmark's
    tracer) still see every call.
    """
    response = ask(chat)
    try:
        return parse(response)
    except GrammarError as exc:
        logger.info("response unparseable, repairing: %s", exc)
        return parse(ask(chat.with_followup(response, repair_text)))


# =====================================================================
# Search augmentation
# =====================================================================


@dataclass(frozen=True)
class RetrievedPassage:
    """A short background passage attached to planning prompts.

    Passages are clamped to PASSAGE_WORD_LIMIT whitespace-delimited words
    at construction time, so an oversized one cannot exist.
    """

    query: str
    passage: str
    source: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "passage", truncate_to_words(self.passage, PASSAGE_WORD_LIMIT))


def truncate_to_words(text: str, limit: int = PASSAGE_WORD_LIMIT) -> str:
    """Keep the first `limit` whitespace-delimited words."""
    words = text.split()
    return " ".join(words[:limit])


class SearchProvider(Protocol):
    def search(self, query: str) -> list[tuple[str, str]]:
        """Return (passage, source) pairs; raise ProviderError on failure."""
        ...


class StaticSearchProvider:
    """Keyword-triggered passages from a fixed table (or YAML file).

    An entry fires when its trigger occurs in the query,
    case-insensitively.  Deterministic, so replays reproduce the same
    augmented prompts.
    """

    def __init__(self, entries: list[tuple[str, str, str]]) -> None:
        # entries: (trigger, passage, source)
        self._entries = list(entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "StaticSearchProvider":
        """Load a `tandem-passages` file; a bad one is an InputError."""

        def decode(doc: dict) -> "StaticSearchProvider":
            entries = [
                (e["trigger"], e["passage"], e.get("source", "")) for e in doc.get("passages", [])
            ]
            if not all(isinstance(value, str) for entry in entries for value in entry):
                raise TypeError("trigger, passage and source must be strings")
            return cls(entries)

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
