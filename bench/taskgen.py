"""Seeded task and script generator for the tandem benchmark.

``generate(seed, dest)`` writes a complete suite input set under ``dest``:

    tasks/<id>.yaml        tandem-task files
    scripts/<id>.yaml      tandem-script files, one per task
    suite-main.yaml        manifest of every task run under default budgets
    suite-forcestop.yaml   manifest of scn-forcestop, run under max_exchanges=4
    plan.json              budget groups plus the expected outcome of each task

The set is the six packaged demo scenarios plus generated tasks over all
three bundled fixtures.  A generated task walks its fixture with
``goto``, ``scroll``, ``go_back`` and search ``type`` actions, and its
phases end in ``move``, in a ``revise`` after a clean run, or in a
``revise`` after a failed action (the ``false_check`` prompt).  The
generator tracks the page a browser would be on from the fixture's own
URLs, so every task ends on a known URL scored with ``url_match`` and is
expected to succeed with a known exchange count.

The mix of fixtures and phase flows is the same for every seed; the seed
draws the pages, queries, scroll directions and task order.  That keeps
the per-task cost distribution, and so the benchmark's percentiles,
comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path
from urllib.parse import quote_plus

import yaml

from tandem.prompts import PROMPT_MARKERS
from tandem.webenv import SearchBox, SiteFixture, load_fixture

__all__ = ["DEMO_EXPECTED", "PROFILES", "generate"]

# Site category written into generated task files, per bundled fixture.
FIXTURES = {"shop": "shopping", "cms": "cms", "gitlab": "gitlab"}

# Golden outcomes of the packaged demo scenarios: (success, termination,
# exchanges_used).  scn-forcestop runs under its golden budget.
DEMO_EXPECTED = {
    "scn-happy": (True, "completed", 6),
    "scn-revise": (True, "completed", 6),
    "scn-replan": (True, "completed", 8),
    "scn-overrule": (True, "completed", 7),
    "scn-forcestop": (False, "force_stopped", 4),
    "scn-gitlab": (True, "completed", 6),
}
FORCESTOP_TASK = "scn-forcestop"
FORCESTOP_MAX_EXCHANGES = 4
DEFAULT_MAX_EXCHANGES = 30

# Phase flows of the generated tasks, one tuple per task, repeated for
# every fixture.  Exchanges: 2 per move phase, 4 per revise or
# false_check phase, plus the plan and the collation, so 4, 6, 8 (x3)
# and 12 (x3).  With the demo scenarios, the suite's median and 90th
# percentile task then fall inside the 8- and 12-exchange groups rather
# than on the edge between two groups, which keeps op_ms_p50 and
# op_ms_p90 steady on latency-parallel.
PROFILES = (
    ("move",),
    ("false_check",),
    ("move", "revise"),
    ("revise", "move"),
    ("move", "false_check"),
    ("false_check", "move", "revise"),
    ("revise", "move", "false_check"),
    ("move", "revise", "revise"),
)
_FLOW_EXCHANGES = {"move": 2, "revise": 4, "false_check": 4}
_DIFFICULTY = {1: "easy", 2: "medium", 3: "hard"}

# Relative weights of the page visits drawn for a phase; scrolls are
# frequent so the environment's render path gets exercised.
_VISITS = (("goto", 3), ("scroll", 4), ("go_back", 2), ("search", 2))


@dataclass(frozen=True)
class _Site:
    name: str
    start_url: str
    urls: tuple[str, ...]
    search_page: str | None
    search_node: int | None
    search_box: SearchBox | None
    queries: tuple[str, ...]


def _site(name: str, fixture: SiteFixture) -> _Site:
    """Page URLs, the search box and its node id, read off the fixture."""
    search_page = search_node = box = None
    for url in sorted(fixture.pages):
        node_id = 1  # the page heading is node 1
        stack = list(reversed(fixture.pages[url].nodes))
        while stack:
            spec = stack.pop()
            node_id += 1
            if isinstance(spec.behavior, SearchBox) and search_page is None:
                search_page, search_node, box = url, node_id, spec.behavior
            stack.extend(reversed(spec.children))
    queries: tuple[str, ...] = ()
    if box is not None:
        words = {
            word.casefold()
            for row in fixture.rows(box.collection)
            for word in str(row[box.match_field]).split()
            if len(word) >= 4 and word.isalpha()
        }
        queries = tuple(sorted(words))
    return _Site(
        name=name,
        start_url=fixture.start_url,
        urls=tuple(sorted(fixture.pages)),
        search_page=search_page,
        search_node=search_node,
        search_box=box,
        queries=queries,
    )


class _Browser:
    """The page a WebEnv would show, tracked from the actions alone."""

    def __init__(self, start_url: str) -> None:
        self.url = start_url
        self.history: list[str] = []

    def goto(self, url: str) -> None:
        self.history.append(self.url)
        self.url = url

    def back(self) -> None:
        if self.history:
            self.url = self.history.pop()


def _visits(rng: random.Random, site: _Site, browser: _Browser, count: int) -> list[str]:
    """`count` page visits that all succeed, applied to `browser`."""
    kinds = [(k, w) for k, w in _VISITS if k != "search" or site.search_box is not None]
    names = [k for k, _ in kinds]
    weights = [w for _, w in kinds]
    actions: list[str] = []
    for _ in range(count):
        kind = rng.choices(names, weights)[0]
        if kind == "goto":
            url = rng.choice(site.urls)
            browser.goto(url)
            actions.append(f"goto [{url}]")
        elif kind == "scroll":
            actions.append(f"scroll [{rng.choice(('down', 'up'))}]")
        elif kind == "go_back":
            browser.back()
            actions.append("go_back")
        else:
            assert site.search_box is not None and site.search_page is not None
            if browser.url != site.search_page:
                browser.goto(site.search_page)
                actions.append(f"goto [{site.search_page}]")
            query = rng.choice(site.queries)
            browser.goto(f"{site.search_box.results_url}?q={quote_plus(query)}")
            actions.append(f"type [{site.search_node}] [{query}]")
    return actions


def _failing_action(rng: random.Random, site: _Site) -> str:
    if rng.random() < 0.5:
        return "click [999]"
    return f"goto [{site.start_url}missing-{rng.randint(1, 99)}]"


def _action_text(actions: list[str]) -> str:
    return "\n".join(f"**Action {i}:** {a}" for i, a in enumerate(actions, start=1)) + "\n"


def _exchange(key: str, response: str) -> dict:
    return {"match": PROMPT_MARKERS[key], "response": response}


def _task(rng: random.Random, site: _Site, task_id: str, flows: tuple[str, ...]) -> tuple[dict, dict, int]:
    """One generated task: (task doc, script doc, expected exchanges)."""
    browser = _Browser(site.start_url)
    phase_lines: list[str] = []
    exchanges: list[dict] = []
    for k, flow in enumerate(flows, start=1):
        last = k == len(flows)
        phase_lines.append(
            f"Phase {k}: Walk leg {k} of the {site.name} site tour | "
            f"Expected: Leg {k} ends on its planned page"
        )
        if flow == "false_check":
            # Visits after the failing action are never applied.
            first = _visits(rng, site, browser, rng.randint(0, 2))
            first += [_failing_action(rng, site), "scroll [down]"]
        else:
            first = _visits(rng, site, browser, rng.randint(2, 5))
        if flow == "move" and last:
            first.append(f"stop [Finished on {browser.url}]")
        exchanges.append(_exchange("local/plan", _action_text(first)))
        if flow == "move":
            exchanges.append(_exchange("local/pass_check", "Action: ```move```\nReasons: The leg ended where planned.\n"))
            continue
        if flow == "revise":
            exchanges.append(_exchange(
                "local/pass_check",
                "Action: ```revise```\nReasons: The page is not the planned end of this leg.\n",
            ))
        else:
            exchanges.append(_exchange(
                "local/false_check",
                "Action: ```revise```\nReasons: That action failed; continue the leg with valid actions.\n",
            ))
        second = _visits(rng, site, browser, rng.randint(1, 3))
        if last:
            second.append(f"stop [Finished on {browser.url}]")
        exchanges.append(_exchange("local/revise", _action_text(second)))
        exchanges.append(_exchange("local/pass_check", "Action: ```move```\nReasons: The leg ended where planned.\n"))

    plan = _exchange("global/plan", "\n".join(phase_lines) + "\n")
    collate = _exchange("global/collate", f"The tour finished on {browser.url}\n")
    script = {"format": "tandem-script", "exchanges": [plan, *exchanges, collate]}
    task = {
        "format": "tandem-task",
        "id": task_id,
        "objective": f"Tour the {site.name} site leg by leg and finish on {browser.url}",
        "env_fixture": site.name,
        "difficulty": _DIFFICULTY[len(flows)],
        "site_category": FIXTURES[site.name],
        "task_class": "navigation",
        "evaluator": {"kind": "url_match", "expected": [browser.url]},
    }
    return task, script, 2 + sum(_FLOW_EXCHANGES[f] for f in flows)


class _BlockDumper(yaml.SafeDumper):
    """Writes multi-line strings as ``|`` blocks, like the packaged scripts."""


def _str_representer(dumper: yaml.SafeDumper, value: str) -> yaml.Node:
    style = "|" if "\n" in value else None
    return dumper.represent_scalar("tag:yaml.org,2002:str", value, style=style)


_BlockDumper.add_representer(str, _str_representer)


def _dump(path: Path, doc: dict) -> None:
    path.write_text(
        yaml.dump(doc, Dumper=_BlockDumper, sort_keys=False, allow_unicode=True, width=4096),
        encoding="utf-8",
    )


def generate(seed: int, dest: str | Path) -> dict:
    """Write the seeded suite inputs under `dest` and return plan.json's content."""
    dest = Path(dest)
    rng = random.Random(seed)
    (dest / "tasks").mkdir(parents=True, exist_ok=True)
    (dest / "scripts").mkdir(parents=True, exist_ok=True)

    data = files("tandem") / "data"
    expected: dict[str, dict] = {}
    for task_id, (success, termination, exchanges) in DEMO_EXPECTED.items():
        for kind in ("tasks", "scripts"):
            (dest / kind / f"{task_id}.yaml").write_bytes((data / kind / f"{task_id}.yaml").read_bytes())
        expected[task_id] = {"success": success, "termination": termination, "exchanges_used": exchanges}

    for name in FIXTURES:
        site = _site(name, load_fixture(name))
        for i, flows in enumerate(PROFILES, start=1):
            task_id = f"gen-{name}-{i:02d}"
            task, script, exchanges = _task(rng, site, task_id, flows)
            _dump(dest / "tasks" / f"{task_id}.yaml", task)
            _dump(dest / "scripts" / f"{task_id}.yaml", script)
            expected[task_id] = {"success": True, "termination": "completed", "exchanges_used": exchanges}

    main_ids = sorted(t for t in expected if t != FORCESTOP_TASK)
    rng.shuffle(main_ids)
    groups = [
        {"manifest": "suite-main.yaml", "max_exchanges": DEFAULT_MAX_EXCHANGES, "tasks": main_ids},
        {"manifest": "suite-forcestop.yaml", "max_exchanges": FORCESTOP_MAX_EXCHANGES, "tasks": [FORCESTOP_TASK]},
    ]
    for group in groups:
        _dump(dest / group["manifest"], {
            "format": "tandem-suite",
            "name": Path(group["manifest"]).stem,
            "tasks": [f"tasks/{t}.yaml" for t in group.pop("tasks")],
        })
    plan = {"seed": seed, "groups": groups, "expected": expected}
    (dest / "plan.json").write_text(json.dumps(plan, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return plan
