"""Deterministic simulated web environment.

A site fixture declares entity collections (products, orders, repos…)
and pages whose node trees may embed a listing rendered live from those
entities.  Interactive nodes carry behaviors: navigation, sorting,
filtering, or a search box that routes typed text to a results page.
Given the same fixture and action sequence the environment produces
byte-identical observations, which is what makes scripted runs and
replays reproducible.

Environment errors never raise: ``apply`` returns a StepOutcome whose
error is one of the four fixed messages ("unknown node id", "action not
applicable to role", "unknown url", "environment stopped").
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cache, lru_cache
from pathlib import Path
from typing import Callable, Iterator, TypeVar
from urllib.parse import parse_qs, quote_plus, urlsplit

from .grammar import render_action
from .protocol import (
    ActionKind,
    DictCodec,
    EvaluatorSpec,
    InputError,
    Observation,
    PageAction,
    StepOutcome,
    load_yaml,
    packaged,
    parse_data,
    read_text,
)

__all__ = [
    "ClearFilter",
    "Condition",
    "FilterBy",
    "ListingSpec",
    "Navigate",
    "NodeSpec",
    "PageDef",
    "PageNode",
    "SearchBox",
    "SiteFixture",
    "SortBy",
    "WebEnv",
    "evaluate",
    "load_fixture",
    "normalize_answer",
]

WINDOW_NODES = 120

# Rendered pages and observation texts a fixture keeps for every env over
# it.  Search urls carry free text, so the set of views is open; a full
# cache is cleared.
SHARED_RENDERS_CAP = 256

ERR_UNKNOWN_NODE = "unknown node id"
ERR_NOT_APPLICABLE = "action not applicable to role"
ERR_UNKNOWN_URL = "unknown url"
ERR_STOPPED = "environment stopped"

FIXTURE_FORMAT = "tandem-fixture"


# =====================================================================
# Behaviors
# =====================================================================


@dataclass(frozen=True)
class Navigate:
    url: str


@dataclass(frozen=True)
class SortBy(DictCodec):
    field: str
    ascending: bool = True


@dataclass(frozen=True)
class ClearFilter:
    pass


@dataclass(frozen=True)
class SearchBox:
    """Typing into the box navigates to `results_url?q=<text>`."""

    results_url: str
    collection: str
    match_field: str = "name"
    item_template: str = "{name}"
    link_template: str | None = None

    def listing(self) -> "ListingSpec":
        """The results page's listing: the collection, unsorted and unfiltered."""
        return ListingSpec(self.collection, self.item_template, self.link_template)


_OPS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "contains": lambda a, b: str(b).casefold() in str(a).casefold(),
}


@dataclass(frozen=True)
class Condition(DictCodec):
    field: str
    value: object
    op: str = "eq"

    def holds(self, row: dict) -> bool:
        return _OPS[self.op](row[self.field], self.value)


class FilterBy(Condition):
    """A control that narrows its page's listing to the rows where it holds."""


Behavior = Navigate | SortBy | FilterBy | ClearFilter | SearchBox


# =====================================================================
# Fixture structure
# =====================================================================


@dataclass(frozen=True)
class NodeSpec:
    """A static node in a page tree (label already fully expanded)."""

    role: str
    label: str
    behavior: Behavior | None = None
    children: tuple["NodeSpec", ...] = ()


@dataclass(frozen=True)
class ListingSpec:
    """A page section rendered live from an entity collection."""

    collection: str
    item_template: str
    link_template: str | None = None
    where: Condition | None = None
    default_sort: SortBy | None = None


@dataclass(frozen=True)
class PageDef:
    url: str
    title: str
    nodes: tuple[NodeSpec, ...] = ()
    listing: ListingSpec | None = None


@dataclass(frozen=True)
class SiteFixture:
    """Entities plus a closed world of pages. Immutable and shareable.

    `renders` is the one mutable part: the page renders and observation
    texts every WebEnv over this fixture shares (see WebEnv.render_nodes
    and WebEnv.render_axtree).
    """

    start_url: str
    entities: dict[str, tuple[dict, ...]]
    pages: dict[str, PageDef]
    search_pages: dict[str, SearchBox] = field(default_factory=dict)
    renders: dict[tuple, list[PageNode] | str] = field(
        default_factory=dict, compare=False, repr=False
    )

    def rows(self, collection: str) -> tuple[dict, ...]:
        return self.entities[collection]


@dataclass(frozen=True)
class PageNode:
    """One rendered node; ids are dense (1..N in depth-first order) and
    stable for a given (page, fixture, view state)."""

    node_id: int
    role: str
    label: str
    depth: int
    behavior: Behavior | None = None


# =====================================================================
# Fixture loading
# =====================================================================


def slugify(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


def _with_derived_fields(row: dict) -> dict:
    out = dict(row)
    if "name" in out and "slug" not in out:
        out["slug"] = slugify(str(out["name"]))
    for key, value in list(out.items()):
        if isinstance(value, list) and f"{key}_count" not in out:
            out[f"{key}_count"] = len(value)
    return out


def _format(template: str, row: dict, where: str) -> str:
    try:
        return template.format_map(row)
    except (KeyError, ValueError, IndexError) as exc:
        raise ValueError(f"{where}: template {template!r} failed: {exc}") from exc


def _parse_condition(raw: dict, where: str, kind: type[Condition] = Condition) -> Condition:
    cond = kind.from_dict(raw)
    if cond.op not in _OPS:
        raise ValueError(f"{where}: unknown condition op {cond.op!r}")
    if isinstance(cond.value, (list, dict)):
        # A filter keys the shared page renders, so its value must hash.
        raise ValueError(f"{where}: condition value {cond.value!r} is not a scalar")
    return cond


def _parse_behavior(raw: dict, where: str) -> Behavior | None:
    keys = [k for k in ("navigate", "sort", "filter", "clear_filter", "search") if k in raw]
    if len(keys) > 1:
        raise ValueError(f"{where}: node declares multiple behaviors {keys}")
    if not keys:
        return None
    key = keys[0]
    if key == "navigate":
        return Navigate(url=str(raw["navigate"]))
    if key == "sort":
        return SortBy.from_dict(raw["sort"])
    if key == "filter":
        return _parse_condition(raw["filter"], where, FilterBy)
    if key == "clear_filter":
        return ClearFilter()
    spec = raw["search"]
    return SearchBox(
        results_url=spec["results_url"],
        collection=spec["collection"],
        match_field=spec.get("match_field", "name"),
        item_template=spec.get("item", "{name}"),
        link_template=spec.get("item_link"),
    )


def _parse_node(raw: dict, where: str, row: dict | None) -> list[NodeSpec]:
    """Parse one node entry; with a template row this may expand to many."""
    role, label = raw["role"], raw["label"]
    behavior = _parse_behavior(raw, where)
    children_raw = raw.get("children", [])

    if "for_each_item" in raw:
        if row is None:
            raise ValueError(f"{where}: for_each_item only works inside page templates")
        items = row.get(raw["for_each_item"], [])
        nodes = []
        for item in items:
            ctx = {**row, "item": item}
            nodes.append(
                NodeSpec(role=role, label=_format(label, ctx, where), behavior=behavior)
            )
        return nodes

    if row is not None:
        label = _format(label, row, where)
        if isinstance(behavior, Navigate):
            behavior = Navigate(url=_format(behavior.url, row, where))
    children: list[NodeSpec] = []
    for i, child in enumerate(children_raw):
        children.extend(_parse_node(child, f"{where}.children[{i}]", row))
    return [NodeSpec(role=role, label=label, behavior=behavior, children=tuple(children))]


def _parse_listing(raw: dict, where: str) -> ListingSpec:
    return ListingSpec(
        collection=raw["collection"],
        item_template=raw["item"],
        link_template=raw.get("item_link"),
        where=_parse_condition(raw["where"], where) if raw.get("where") else None,
        default_sort=SortBy.from_dict(raw["default_sort"]) if raw.get("default_sort") else None,
    )


def _parse_page(raw: dict, where: str, row: dict | None = None) -> PageDef:
    url = raw["url"] if row is None else _format(raw["url_template"], row, where)
    title = _format(raw.get("title", ""), row, where) if row is not None else raw.get("title", "")
    if not title:
        raise ValueError(f"{where}: page needs a title")
    nodes: list[NodeSpec] = []
    for i, node_raw in enumerate(raw.get("nodes", [])):
        nodes.extend(_parse_node(node_raw, f"{where}.nodes[{i}]", row))
    listing = _parse_listing(raw["listing"], where) if raw.get("listing") else None
    return PageDef(url=url, title=title, nodes=tuple(nodes), listing=listing)


@lru_cache(maxsize=16)  # bounded: every edit of a file adds an entry
def _parse_fixture(path: Path, text: str) -> SiteFixture:
    return parse_data(path, text, load_yaml, FIXTURE_FORMAT, _fixture)


def _fixture(doc: dict) -> SiteFixture:
    entities: dict[str, tuple[dict, ...]] = {}
    for name, rows in (doc.get("entities") or {}).items():
        if not isinstance(rows, list):
            raise ValueError(f"collection {name!r} must be a list")
        entities[name] = tuple(_with_derived_fields(r) for r in rows)

    pages: dict[str, PageDef] = {}
    for i, raw in enumerate(doc.get("pages", [])):
        where = f"pages[{i}]"
        if "url_template" in raw:
            collection = raw.get("for_each")
            if collection not in entities:
                raise ValueError(f"{where}: for_each references unknown collection")
            for row in entities[collection]:
                page = _parse_page(raw, where, row)
                pages[page.url] = page
        elif "url" in raw:
            page = _parse_page(raw, where)
            pages[page.url] = page
        else:
            raise ValueError(f"{where}: page needs url or url_template")

    fixture = SiteFixture(
        start_url=doc.get("start_url", ""),
        entities=entities,
        pages=pages,
        search_pages=_collect_search_pages(pages),
    )
    _check_fixture(fixture)
    return fixture


def _tree(nodes: tuple[NodeSpec, ...]) -> Iterator[NodeSpec]:
    """Every node of a page tree, depth first."""
    for node in nodes:
        yield node
        yield from _tree(node.children)


def _collect_search_pages(pages: dict[str, PageDef]) -> dict[str, SearchBox]:
    return {
        node.behavior.results_url: node.behavior
        for page in pages.values()
        for node in _tree(page.nodes)
        if isinstance(node.behavior, SearchBox)
    }


def _check_fixture(fixture: SiteFixture) -> None:
    """Every link must resolve, and every listing view a page's controls reach must render."""
    problems: list[str] = []
    if fixture.start_url not in fixture.pages:
        problems.append(f"start_url {fixture.start_url!r} is not a page")

    def check_url(url: str, where: str) -> None:
        if url not in fixture.pages and not _is_search_url(fixture, url):
            problems.append(f"{where}: link target {url!r} does not resolve")

    def check_listing(
        listing: ListingSpec, where: str, views: list[_ViewState], box: SearchBox | None = None
    ) -> None:
        rows = fixture.entities.get(listing.collection)
        if rows is None:
            problems.append(f"{where}: unknown collection {listing.collection!r}")
            return
        try:
            for view in views:
                _listing_rows(fixture, listing, view, "", box)
        except KeyError as exc:
            problems.append(f"{where}: a row has no field {exc.args[0]!r}")
        except TypeError as exc:
            problems.append(f"{where}: listing cannot be filtered or sorted: {exc}")
        for row in rows:
            _format(listing.item_template, row, where)
            if listing.link_template:
                check_url(_format(listing.link_template, row, where), where)

    for url, page in fixture.pages.items():
        nodes = list(_tree(page.nodes))
        for node in nodes:
            if isinstance(node.behavior, Navigate):
                check_url(node.behavior.url, f"{url} {node.label!r}")
            elif isinstance(node.behavior, SearchBox):
                box = node.behavior
                check_listing(box.listing(), f"{url} search", [_ViewState()], box)
        if page.listing:
            sorts = [None, *(n.behavior for n in nodes if isinstance(n.behavior, SortBy))]
            filters = [None, *(n.behavior for n in nodes if isinstance(n.behavior, FilterBy))]
            views = [_ViewState(sort, filt) for sort in sorts for filt in filters]
            check_listing(page.listing, url, views)

    if problems:
        raise ValueError("; ".join(problems))


def _is_search_url(fixture: SiteFixture, url: str) -> bool:
    base = url.split("?", 1)[0]
    return base in fixture.search_pages


# Bundled fixtures shipped as package data.
_BUNDLED = {"shop": "shop.yaml", "cms": "cms.yaml", "gitlab": "gitlab.yaml"}


@cache
def _fixture_path(name: str) -> Path:
    """The resolved path of a bundled fixture or a fixture file.

    Each name is located once per process.  A name that is neither raises
    InputError, and the cache keeps no failure.
    """
    if name in _BUNDLED:
        return packaged("fixtures", _BUNDLED[name])
    if Path(name).exists():
        return Path(name).resolve()
    raise InputError(name, "unknown fixture (not bundled, not a file)")


def load_fixture(name_or_path: str | Path) -> SiteFixture:
    """Load and cross-check a fixture by bundled id or filesystem path.

    The fixture is located once per process, but its file is read on every
    call: parsed fixtures are cached keyed by the resolved path and the
    file's contents, so an edited file is parsed again.  A file that fails
    to load raises InputError on every call.  Every caller shares the
    returned fixture, so nothing may mutate it, its entity rows included.
    """
    path = _fixture_path(str(name_or_path))
    return _parse_fixture(path, read_text(path))


# =====================================================================
# Environment
# =====================================================================


@dataclass
class _ViewState:
    sort: SortBy | None = None
    filter: FilterBy | None = None


def _listing_rows(fixture: SiteFixture, listing: ListingSpec, view: _ViewState,
                  query: str | None = None, box: SearchBox | None = None) -> list[dict]:
    """The listing's rows under a view and, on a results page, a search query.

    Raises KeyError for a field a row lacks and TypeError for values the
    view's condition or sort cannot compare; the fixture check runs every
    view a page's controls reach, so neither happens while rendering.
    """
    rows = list(fixture.rows(listing.collection))
    if listing.where is not None:
        rows = [r for r in rows if listing.where.holds(r)]
    if box is not None and query is not None:
        needle = query.casefold()
        rows = [r for r in rows if needle in str(r[box.match_field]).casefold()]
    if view.filter is not None:
        rows = [r for r in rows if view.filter.holds(r)]
    sort = view.sort or listing.default_sort
    if sort is not None:
        rows = sorted(rows, key=lambda r: r[sort.field], reverse=not sort.ascending)
    return rows


_Shared = TypeVar("_Shared", list[PageNode], str)


def _axtree_text(nodes: list[PageNode], scroll: int, size: int) -> str:
    """The node lines of one window of a render, plus a marker for the rest."""
    window = nodes[scroll : scroll + size]
    lines = [f"{'  ' * n.depth}[{n.node_id}] {n.role} '{n.label}'" for n in window]
    below = len(nodes) - (scroll + len(window))
    if below > 0:
        lines.append(f"... {below} more nodes below (scroll down to reveal)")
    return "\n".join(lines)


class WebEnv:
    """Mutable session over an immutable SiteFixture.

    An observation shows WINDOW_NODES nodes of the rendered page, from
    the scroll offset on; a scroll moves the offset by that many.
    """

    def __init__(self, fixture: SiteFixture) -> None:
        self.fixture = fixture
        self.current_url = fixture.start_url
        self.stopped = False
        self.stop_answer: str | None = None
        self.previous_action = "None"
        self._history: list[str] = []
        self._views: dict[str, _ViewState] = {}
        self._scroll = 0

    # -- lifecycle ------------------------------------------------------

    def reset(self) -> Observation:
        self.current_url = self.fixture.start_url
        self.stopped = False
        self.stop_answer = None
        self.previous_action = "None"
        self._history.clear()
        self._views.clear()
        self._scroll = 0
        return self.observe()

    # -- rendering ------------------------------------------------------

    def _view(self, url: str) -> _ViewState:
        view = self._views.get(url)
        if view is None:
            view = self._views[url] = _ViewState()
        return view

    def _shared(self, key: tuple, make: Callable[[], _Shared]) -> _Shared:
        """The fixture's shared entry for `key`, made and stored on a miss.

        Only single dict operations touch the shared cache, so envs on
        other threads at worst make the same entry twice, or hold a few
        entries past the cap until the next insert clears it.
        """
        renders = self.fixture.renders
        value = renders.get(key)
        if value is None:
            value = make()
            if len(renders) >= SHARED_RENDERS_CAP:
                renders.clear()
            renders[key] = value
        return value

    def render_nodes(self) -> list[PageNode]:
        """The full rendered tree for the current page, before windowing.

        Renders are shared by every env over the fixture, keyed on all a
        render reads besides the immutable fixture: the url and that url's
        sort and filter.  Callers share the returned list and must not
        mutate it.
        """
        view = self._view(self.current_url)
        return self._shared((self.current_url, view.sort, view.filter), self._render_nodes)

    def _render_nodes(self) -> list[PageNode]:
        url = self.current_url
        base = url.split("?", 1)[0]
        nodes: list[PageNode] = []
        counter = [0]

        def emit(role: str, label: str, depth: int, behavior: Behavior | None = None) -> None:
            counter[0] += 1
            nodes.append(PageNode(counter[0], role, label, depth, behavior))

        def emit_spec(spec: NodeSpec, depth: int) -> None:
            emit(spec.role, spec.label, depth, spec.behavior)
            for child in spec.children:
                emit_spec(child, depth + 1)

        def emit_listing(listing: ListingSpec, query: str | None, box: SearchBox | None) -> None:
            view = self._view(url)
            rows = _listing_rows(self.fixture, listing, view, query, box)
            emit("list", f"{listing.collection} ({len(rows)} items)", 0)
            for row in rows:
                label = listing.item_template.format_map(row)
                behavior = (
                    Navigate(url=listing.link_template.format_map(row))
                    if listing.link_template
                    else None
                )
                emit("link" if behavior else "listitem", label, 1, behavior)

        page = self.fixture.pages.get(url)
        if page is None and base in self.fixture.search_pages:
            box = self.fixture.search_pages[base]
            query = parse_qs(urlsplit(url).query).get("q", [""])[0]
            emit("heading", f"Search results for '{query}'", 0)
            emit_listing(box.listing(), query, box)
            return nodes
        if page is None:  # unreachable while apply() validates urls
            raise RuntimeError(f"current url {url!r} has no page")

        emit("heading", page.title, 0)
        for spec in page.nodes:
            emit_spec(spec, 0)
        if page.listing is not None:
            emit_listing(page.listing, None, None)
        return nodes

    def render_axtree(self) -> str:
        """Window of node lines plus a trailing marker when nodes remain.

        The text is shared like the renders, keyed on the render's key
        plus the scroll offset and window size, so text made under another
        WINDOW_NODES is never served.
        """
        url, scroll, size = self.current_url, self._scroll, WINDOW_NODES
        view = self._view(url)
        return self._shared(
            (url, view.sort, view.filter, scroll, size),
            lambda: _axtree_text(self.render_nodes(), scroll, size),
        )

    def observe(self) -> Observation:
        return Observation(
            axtree=self.render_axtree(),
            url=self.current_url,
            open_tabs=(self.current_url,),
            previous_action=self.previous_action,
        )

    # -- actions ----------------------------------------------------------

    def _find_node(self, node_id: int) -> PageNode | None:
        for node in self.render_nodes():
            if node.node_id == node_id:
                return node
        return None

    def _resolvable(self, url: str) -> bool:
        return url in self.fixture.pages or _is_search_url(self.fixture, url)

    def _navigate(self, url: str) -> None:
        self._history.append(self.current_url)
        self.current_url = url
        self._scroll = 0

    def apply(self, action: PageAction) -> StepOutcome:
        """Apply one action; errors come back as outcomes, never raises."""
        if self.stopped:
            return StepOutcome.env_error(ERR_STOPPED)

        kind = action.kind
        ok = StepOutcome.success()

        if kind is ActionKind.STOP:
            self.stopped = True
            self.stop_answer = str(action.target or "")
            self.previous_action = render_action(action)
            return ok

        if kind is ActionKind.CLICK:
            node = self._find_node(int(action.target))  # type: ignore[arg-type]
            if node is None:
                return StepOutcome.env_error(ERR_UNKNOWN_NODE)
            behavior = node.behavior
            if behavior is None or isinstance(behavior, SearchBox):
                return StepOutcome.env_error(ERR_NOT_APPLICABLE)
            if isinstance(behavior, Navigate):
                if not self._resolvable(behavior.url):
                    return StepOutcome.env_error(ERR_UNKNOWN_URL)
                self._navigate(behavior.url)
            elif isinstance(behavior, SortBy):
                self._view(self.current_url).sort = behavior
                self._scroll = 0
            elif isinstance(behavior, FilterBy):
                self._view(self.current_url).filter = behavior
                self._scroll = 0
            elif isinstance(behavior, ClearFilter):
                self._view(self.current_url).filter = None
                self._scroll = 0

        elif kind is ActionKind.TYPE:
            node = self._find_node(int(action.target))  # type: ignore[arg-type]
            if node is None:
                return StepOutcome.env_error(ERR_UNKNOWN_NODE)
            if node.role != "textbox" or not isinstance(node.behavior, SearchBox):
                return StepOutcome.env_error(ERR_NOT_APPLICABLE)
            box = node.behavior
            query = action.text or ""
            self._navigate(f"{box.results_url}?q={quote_plus(query)}")

        elif kind is ActionKind.SCROLL:
            total = len(self.render_nodes())
            max_offset = max(0, total - WINDOW_NODES)
            if action.target == "down":
                self._scroll = min(self._scroll + WINDOW_NODES, max_offset)
            else:
                self._scroll = max(self._scroll - WINDOW_NODES, 0)

        elif kind is ActionKind.GOTO:
            url = str(action.target)
            if not self._resolvable(url):
                return StepOutcome.env_error(ERR_UNKNOWN_URL)
            self._navigate(url)

        elif kind is ActionKind.GO_BACK:
            if self._history:
                self.current_url = self._history.pop()
                self._scroll = 0
            # with no history this is a no-op, like a real browser

        self.previous_action = render_action(action)
        return ok


# =====================================================================
# Evaluation
# =====================================================================


def normalize_answer(text: str) -> str:
    """Trim, collapse internal whitespace, casefold."""
    return " ".join(text.split()).casefold()


def _strip_slash(url: str) -> str:
    return url[:-1] if url.endswith("/") else url


def evaluate(answer: str, env: WebEnv, spec: EvaluatorSpec) -> bool:
    """Judge a final answer / final page against an evaluator spec."""
    if spec.kind == "exact_match":
        normalized = normalize_answer(answer)
        return any(normalized == normalize_answer(e) for e in spec.expected)
    if spec.kind == "must_include":
        haystack = answer.casefold()
        return all(e.casefold() in haystack for e in spec.expected)
    if spec.kind == "url_match":
        final = _strip_slash(env.current_url)
        return any(final == _strip_slash(e) for e in spec.expected)
    raise ValueError(f"unknown evaluator kind {spec.kind!r}")
