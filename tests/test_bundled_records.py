"""Every record block of the bundled data decodes without losing a key.

A record's `from_dict` ignores a key that no field names, so a field
named apart from its file key would take its default in silence.  Each
script exchange, passage and fixture search, listing, sort, filter and
`where` block is decoded through its record here, and every key of its
YAML mapping must come back from `to_dict` with the same value.
"""

from __future__ import annotations

import pytest

from tandem.backend import Passage, ScriptedExchange
from tandem.protocol import load_yaml
from tandem.webenv import Condition, FilterBy, ListingSpec, SearchBox, SortBy

from conftest import DATA

NODE_RECORDS = {"search": SearchBox, "sort": SortBy, "filter": FilterBy}
LISTING_RECORDS = {"where": Condition, "default_sort": SortBy}


def _load(path) -> dict:
    return load_yaml(path.read_text(encoding="utf-8"))


def _nodes(nodes: list) -> list:
    return [n for node in nodes for n in (node, *_nodes(node.get("children", [])))]


def _fixture_blocks(doc: dict) -> list:
    blocks = []
    for page in doc["pages"]:
        for node in _nodes(page.get("nodes", [])):
            blocks += [(kind, node[key]) for key, kind in NODE_RECORDS.items() if key in node]
        listing = page.get("listing")
        if listing is not None:
            blocks.append((ListingSpec, listing))
            blocks += [(kind, listing[k]) for k, kind in LISTING_RECORDS.items() if k in listing]
    return blocks


SOURCES = {
    **{
        f"scripts/{path.name}": lambda doc: [(ScriptedExchange, e) for e in doc["exchanges"]]
        for path in sorted((DATA / "scripts").glob("*.yaml"))
    },
    "search/passages.yaml": lambda doc: [(Passage, e) for e in doc["passages"]],
    **{
        f"fixtures/{path.name}": _fixture_blocks
        for path in sorted((DATA / "fixtures").glob("*.yaml"))
    },
}


def _kept(raw: dict, decoded: dict) -> bool:
    """Whether `decoded` holds every key of `raw` with its value; a nested
    mapping may gain the defaults of its record's other fields."""
    return all(
        key in decoded
        and (_kept(value, decoded[key]) if isinstance(value, dict) else decoded[key] == value)
        for key, value in raw.items()
    )


def test_every_record_kind_is_covered():
    kinds = {kind for name, blocks in SOURCES.items() for kind, _ in blocks(_load(DATA / name))}
    assert kinds == {ScriptedExchange, Passage, SearchBox, ListingSpec, SortBy, FilterBy, Condition}


@pytest.mark.parametrize("name", SOURCES)
def test_bundled_blocks_decode_without_losing_a_key(name):
    blocks = SOURCES[name](_load(DATA / name))
    assert blocks
    lost = [(k.__name__, raw) for k, raw in blocks if not _kept(raw, k.from_dict(raw).to_dict())]
    assert lost == []
