"""Malformed-input corpus: every kind of file tandem reads fails the same way.

Each case writes one damaged file, runs ``tandem.cli.main`` on it and
requires exit 1, exactly one stderr line of the form ``error: <path>:
<reason>``, no traceback (none escaping ``main`` and none logged) and no
report written.  Each kind's undamaged file is checked to run cleanly, so
every failure is the damage's doing.
"""

from __future__ import annotations

import json
import logging
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tandem.cli import EXIT_CONFIG, EXIT_OK, main

from conftest import DATA, REPO

TASKS = DATA / "tasks"
SCRIPTS = DATA / "scripts"
HAPPY_TASK = TASKS / "scn-happy.yaml"
HAPPY_SCRIPT = SCRIPTS / "scn-happy.yaml"
RECORDED = REPO / "tests" / "recorded" / "scn-overrule.transcript.jsonl"
EVALUATOR = 'evaluator:\n  kind: must_include\n  expected: ["34.50"]\n'


def _text(path) -> str:
    return path.read_text(encoding="utf-8")


def _report() -> str:
    """A report whose one row is the recorded run's, as a suite writes it."""
    row = {
        "task_id": "scn-overrule",
        "success": True,
        "final_answer": "The Trail Hiking Boots cost $74.50.",
        "termination": "completed",
        "detail": "",
        "exchanges_used": 7,
        "plan_versions": 1,
        "site_category": "shopping",
        "difficulty": "Medium",
        "transcript": RECORDED.name,
    }
    return json.dumps(
        {
            "format": "tandem-report",
            "version": 1,
            "n_tasks": 1,
            "n_success": 1,
            "overall_sr": 100.0,
            "categories": {"shopping": 100.0},
            "difficulties": {"Medium": 100.0},
            "tasks": [row],
        },
        indent=2,
    )


def _report_argv(path, tmp_path) -> list[str]:
    # `tandem report` rebuilds each row from its transcript beside the report.
    (path.parent / RECORDED.name).write_text(_text(RECORDED), encoding="utf-8")
    return ["report", str(path)]


# Versions a reader refuses: another number, a boolean (JSON's true is no 1)
# and none at all.
WRONG_VERSIONS = ('"version": 99', '"version": true', "")


def _with_version(version: str) -> tuple[Callable[[str], str], str]:
    def edit(s: str) -> str:
        return s.replace('"version": 1,', version + "," if version else "", 1)

    return edit, "this tandem reads only version 1"


def _with_event_line(edit: Callable[[str], str], words: str) -> tuple[Callable[[str], str], str]:
    """A transcript with `edit` applied to its seq 1 event, the third line."""

    def apply(s: str) -> str:
        lines = s.split("\n")
        lines[2] = edit(lines[2])
        return "\n".join(lines)

    return apply, f"line 3: bad event record: {words}"


# An event line is one JSON object whose envelope has its exact JSON types.
BAD_EVENTS = (
    _with_event_line(lambda _: "[1, 2]", "TranscriptEvent: expected an object, got list [1, 2]"),
    _with_event_line(lambda _: "5", "TranscriptEvent: expected an object, got int 5"),
    _with_event_line(lambda line: line.replace('"seq": 1,', '"seq": true,', 1),
                     "seq: expected an integer, got bool True"),
    _with_event_line(lambda line: line.replace('"seq": 1,', '"seq": 1.0,', 1),
                     "seq: expected an integer, got float 1.0"),
    _with_event_line(lambda line: re.sub(r'"ts": [0-9.]+', '"ts": "yesterday"', line, count=1),
                     "ts: expected a number, got str 'yesterday'"),
)


# Every payload decodes through its kind's record wherever its transcript is
# read: the recorded run's seq 0 call (line 2), seq 1 plan (line 3), seq 3
# env step (line 5), seq 5 verdict (line 7), seq 8 overrule (line 10) and
# seq 15 result (line 17).
BAD_PAYLOADS = (
    (lambda s: s.replace('"plan_version": 1,', '"plan_version": 1.0,', 1),
     "line 3: PlanIssued payload: plan_version: expected an integer, got float 1.0"),
    (lambda s: s.replace('"index": 1,', '"index": true,', 1),
     "line 3: PlanIssued payload: index: expected an integer, got bool True"),
    (lambda s: s.replace('"decision": "request"', '"decision": "maybe"', 1),
     "line 7: VerdictIssued payload: 'maybe' is not a valid VerdictDecision"),
    (lambda s: s.replace('"ruling": "overrule"', '"ruling": "veto"', 1),
     "line 10: DecisionIssued payload: 'veto' is not a valid Ruling"),
    (lambda s: s.replace('"termination": "completed"', '"termination": "exploded"', 1),
     "line 17: TaskResult payload: 'exploded' is not a valid Termination"),
    (lambda s: s.replace(', "error": ""}', "}", 1), "line 5: EnvStep payload: missing key 'error'"),
    (lambda s: re.sub(r'"latency": [^,}]+', '"latency": true', s, count=1),
     "line 2: LlmCall payload: latency: expected a number, got bool True"),
    (lambda s: s.replace('"ok": true', '"ok": "true"', 1),
     "line 5: EnvStep payload: ok: expected a boolean, got str 'true'"),
    # UTF-8 cannot encode a lone surrogate, so a run could not write it back.
    (lambda s: s.replace('"response": "', '"response": "\\ud800', 1),
     "line 2: a string holds the lone surrogate '\\ud800'"),
)


def _task_on_fixture(path) -> str:
    return _text(HAPPY_TASK).replace("env_fixture: shop", f"env_fixture: {json.dumps(str(path))}")


@dataclass(frozen=True)
class Kind:
    """One kind of input file: a valid instance and the CLI call that reads it."""

    name: str
    base: str
    argv: Callable  # (path, tmp_path) -> list[str]
    truncated: Callable[[str], str]  # a prefix of `base` that no longer decodes
    wrong_scalars: tuple  # of str -> str: `base` with one value of the wrong type
    syntax: str = "yaml"  # yaml, json or jsonl
    # Of (str -> str, words): `base` with one value a field rule rejects, and
    # words its error must contain.
    bad_values: tuple = ()


def _run(tmp_path, *extra, task=HAPPY_TASK, script=HAPPY_SCRIPT):
    out = str(tmp_path / "out")
    return ["run", str(task), "--backend", f"scripted:{script}", "--out", out, *extra]


def _fixture_argv(path, tmp_path):
    task = tmp_path / "fixture-task.yaml"
    task.write_text(_task_on_fixture(path), encoding="utf-8")
    return _run(tmp_path, task=task)


KINDS = [
    Kind(
        "task",
        _text(HAPPY_TASK),
        lambda p, t: _run(t, task=p),
        lambda s: s[: s.index("evaluator:")],
        (lambda s: s.replace("id: scn-happy", "id: 7"),),
        bad_values=(
            # The id names the transcript file, which must stay inside --out.
            (lambda s: s.replace("id: scn-happy", "id: ../escaped"),
             "task id must be one path component"),
            # A difficulty may be spelled in any case, but must be one of them.
            (lambda s: s.replace("difficulty: easy", "difficulty: trivial"),
             "'trivial' is not a valid Difficulty"),
            # A record is decoded from an object, never from a string's characters.
            (lambda s: s.replace(EVALUATOR, "evaluator: url_match\n"),
             "EvaluatorSpec: expected an object, got str 'url_match'"),
            (lambda s: s.replace(EVALUATOR, "evaluator: kind expected\n"),
             "EvaluatorSpec: expected an object, got str 'kind expected'"),
            # A tuple field is decoded from an array, never from a mapping's keys.
            (lambda s: s.replace('expected: ["34.50"]', "expected: {kettle: 1, copper: 2}"),
             "expected: expected an array, got dict {'kettle': 1, 'copper': 2}"),
        ),
    ),
    Kind(
        "suite",
        f"format: tandem-suite\nname: mini\ntasks:\n  - {json.dumps(str(HAPPY_TASK))}\n",
        lambda p, t: ["suite", str(p), "--backend", f"scripted:{SCRIPTS}", "--out", str(t / "out")],
        lambda s: s[: s.index("tasks:")],
        (lambda s: s[: s.index("tasks:")] + "tasks: 5\n",),
        bad_values=(
            # A task path must be a string, not a value printed as one.
            (lambda s: s[: s.index("tasks:")] + "tasks: [{a: 1}]\n",
             "tasks[0]: expected a string, got dict {'a': 1}"),
            (lambda s: s[: s.index("tasks:")] + "tasks: [5]\n",
             "tasks[0]: expected a string, got int 5"),
        ),
    ),
    Kind(
        "fixture",
        _text(DATA / "fixtures" / "shop.yaml"),
        _fixture_argv,
        lambda s: s[: s.index("pages:")],
        (
            lambda s: s[: s.index("pages:")] + "pages: [1]\n",
            lambda s: s.replace("entities:", "entities: [1]\nunused:", 1),
            # A string is no boolean, though bool("false") is true.
            lambda s: s.replace("ascending: false}", 'ascending: "false"}', 1),
            lambda s: s.replace("default_sort: {field: name, ascending: true}",
                                'default_sort: {field: name, ascending: "true"}', 1),
        ),
        bad_values=(
            (lambda s: s.replace("sort: {field: price, ascending: true}", "sort: price", 1),
             "pages[1].nodes[1]: SortBy: expected an object, got str 'price'"),
            (lambda s: s.replace("sort: {field: price, ascending: true}", "sort: field", 1),
             "pages[1].nodes[1]: SortBy: expected an object, got str 'field'"),
            # An empty condition is refused, not read as no condition at all.
            (lambda s: s.replace("where: {field: category, op: eq, value: shoes}", "where: {}"),
             "pages[1]: missing key 'field'"),
            (lambda s: s.replace("results_url: http://shop.local/search", "results_url: 5"),
             "pages[0].nodes[0]: results_url: expected a string, got int 5"),
            (lambda s: s.replace('item: "{name} - ${price:.2f} (rating {rating})"', "item: 5", 1),
             "pages[0].nodes[0]: item: expected a string, got int 5"),
        ),
    ),
    Kind(
        "script",
        _text(HAPPY_SCRIPT),
        lambda p, t: _run(t, script=p),
        lambda s: s[: s.index("response:")],
        (
            lambda s: s.replace("response: |", "response: 5\n    unused: |", 1),
            lambda s: s.replace("  - match:", '  - regex: "false"\n    match:', 1),
        ),
        bad_values=(
            (lambda s: s.replace("exchanges:\n", "exchanges:\n  - just a string\n", 1),
             "exchange 0: ScriptedExchange: expected an object, got str 'just a string'"),
            (lambda s: s.replace("  - match:", "  - prompt:", 1), "exchange 0: missing key 'match'"),
            (lambda s: s.replace("exchanges:\n", "exchanges: {}\nunused:\n", 1),
             "exchanges: expected an array, got dict {}"),
        ),
    ),
    Kind(
        "passages",
        _text(DATA / "search" / "passages.yaml"),
        lambda p, t: _run(t, "--augment-search", "--search-passages", str(p)),
        lambda s: s[: s.index("passage: >")],
        (lambda s: s.replace("trigger: kettle", "trigger: 5"),),
        bad_values=(
            (lambda s: s.replace("passages:\n", "passages:\n  - just a string\n", 1),
             "passage 0: Passage: expected an object, got str 'just a string'"),
            (lambda s: s.replace("- trigger: kettle", "- keyword: kettle"),
             "passage 0: missing key 'trigger'"),
        ),
    ),
    Kind(
        "report",
        _report(),
        _report_argv,
        lambda s: s[: len(s) // 2],
        (lambda s: s.replace('"tasks": [', '"tasks": 5, "unused": ['),),
        syntax="json",
        bad_values=tuple(_with_version(v) for v in WRONG_VERSIONS),
    ),
    Kind(
        "transcript",
        _text(RECORDED),
        lambda p, t: ["replay", str(p)],
        lambda s: s[: s.index("\n") // 2],
        (
            lambda s: s.replace('"kind": "LlmCall"', '"kind": 5', 1),
            lambda s: s.replace('"response": "', '"response": 5, "unused": "', 1),
        ),
        syntax="jsonl",
        bad_values=(*(_with_version(v) for v in WRONG_VERSIONS), *BAD_EVENTS, *BAD_PAYLOADS),
    ),
    Kind(
        "replay-backend",
        _text(RECORDED),
        lambda p, t: [
            "run", str(TASKS / "scn-overrule.yaml"), "--backend", f"replay:{p}",
            "--out", str(t / "out"),
        ],
        lambda s: s[: s.index("\n") // 2],
        (
            lambda s: s.replace('"kind": "LlmCall"', '"kind": 5', 1),
            lambda s: s.replace('"response": "', '"response": 5, "unused": "', 1),
        ),
        syntax="jsonl",
        bad_values=(*(_with_version(v) for v in WRONG_VERSIONS), *BAD_EVENTS, *BAD_PAYLOADS),
    ),
]


def _without_format(kind: Kind) -> str:
    if kind.syntax == "yaml":
        return kind.base.split("\n", 1)[1]  # each YAML base opens with its format line
    header, sep, rest = kind.base.partition("\n") if kind.syntax == "jsonl" else (kind.base, "", "")
    doc = json.loads(header)
    del doc["format"]
    return json.dumps(doc) + sep + rest


def _with_first_line(base: str, line: str) -> str:
    return line + "\n" + base.split("\n", 1)[1]


def damaged(kind: Kind, case: str) -> bytes:
    first_newline = kind.base.index("\n")
    if case == "truncated":
        text = kind.truncated(kind.base)
    elif case == "not-utf8":
        return kind.base.encode("utf-8").replace(b"\n", b"\n\xff", 1)
    elif case == "syntax-error":
        text = {
            "yaml": kind.base + "\nextra: [\n",
            "json": kind.base + "{",
            "jsonl": _with_first_line(kind.base, kind.base[:first_newline] + "{"),
        }[kind.syntax]
    elif case == "wrong-top-level-type":
        text = _with_first_line(kind.base, "[1]") if kind.syntax == "jsonl" else "[1]\n"
    elif case == "missing-key":
        text = _without_format(kind)
    else:
        edits, i = case.rsplit("-", 1)
        edit = kind.bad_values[int(i)][0] if edits == "bad-value" else kind.wrong_scalars[int(i)]
        text = edit(kind.base)
    return text.encode("utf-8")


CASES = [
    pytest.param(kind, case, id=f"{kind.name}-{case}")
    for kind in KINDS
    for case in [
        "truncated",
        "not-utf8",
        "syntax-error",
        "wrong-top-level-type",
        "missing-key",
        *(f"wrong-scalar-type-{i}" for i in range(len(kind.wrong_scalars))),
        *(f"bad-value-{i}" for i in range(len(kind.bad_values))),
    ]
]


def run_main(argv, capsys, caplog) -> tuple[int, str]:
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        code = main(argv)
    assert [r for r in caplog.records if r.exc_info] == [], "a traceback was logged"
    return code, capsys.readouterr().err


def assert_one_input_error(code: int, err: str, path, tmp_path) -> None:
    assert code == EXIT_CONFIG
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: ") and str(path) in line
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("kind", KINDS, ids=[k.name for k in KINDS])
def test_valid_input_runs(tmp_path, capsys, caplog, kind):
    path = tmp_path / f"{kind.name}.input"
    path.write_text(kind.base, encoding="utf-8")
    code, _ = run_main(kind.argv(path, tmp_path), capsys, caplog)
    assert code == EXIT_OK


@pytest.mark.parametrize("kind, case", CASES)
def test_damaged_input_is_one_input_error(tmp_path, capsys, caplog, kind, case):
    path = tmp_path / f"{kind.name}.input"
    path.write_bytes(damaged(kind, case))
    code, err = run_main(kind.argv(path, tmp_path), capsys, caplog)
    assert_one_input_error(code, err, path, tmp_path)
    if case.startswith("bad-value-"):
        assert kind.bad_values[int(case.rsplit("-", 1)[1])][1] in err


@pytest.mark.parametrize(
    "key, damage",
    [
        ("global/plan", lambda path: path.write_bytes(b"\xff\xfe plan\n")),
        ("global/plan", lambda path: path.mkdir()),
        ("local/revise", lambda path: path.write_text("Revise: {oops}\n", encoding="utf-8")),
        ("global/collate", lambda path: path.write_text("{report} }\n", encoding="utf-8")),
    ],
    ids=["not-utf8", "a-directory", "unknown-field", "stray-brace"],
)
def test_bad_prompt_override_fails_before_any_task_runs(tmp_path, capsys, caplog, key, damage):
    path = tmp_path / "prompts" / f"{key}.txt"
    path.parent.mkdir(parents=True)
    damage(path)
    argv = _run(tmp_path, "--prompt-dir", str(tmp_path / "prompts"))
    code, err = run_main(argv, capsys, caplog)
    assert_one_input_error(code, err, path, tmp_path)
    assert not (tmp_path / "out").exists()


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_any_prefix_of_an_input_runs_or_is_one_input_error(tmp_path, capsys, caplog, data):
    # A transcript cut inside its events is readable by design (the
    # truncated last line is dropped), so only the other kinds are cut here.
    kind = data.draw(st.sampled_from([k for k in KINDS if k.syntax != "jsonl"]), label="kind")
    cut = data.draw(st.integers(0, len(kind.base) - 1), label="cut")
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    path = work / f"{kind.name}.input"
    path.write_text(kind.base[:cut], encoding="utf-8")
    code, err = run_main(kind.argv(path, work), capsys, caplog)
    if code != EXIT_OK:
        assert_one_input_error(code, err, path, work)


SHOP = _text(DATA / "fixtures" / "shop.yaml")
KITCHEN = ("Copper Pour-Over Kettle", "Ceramic Mug Set", "Cast Iron Skillet")
UNRENDERABLE = {
    **{
        f"{product}-name-{value}": SHOP.replace(f"- name: {product}", f"- name: {value}")
        for product in KITCHEN
        for value in ("5", "[1]", "{}", "null", "true")
    },
    "where-compares-number-to-text": SHOP.replace(
        "where: {field: category, op: eq, value: kitchen}",
        "where: {field: price, op: lt, value: cheap}",
    ),
    "search-match-field-no-row-has": SHOP.replace("match_field: name", "match_field: maker"),
}


@pytest.mark.parametrize("text", UNRENDERABLE.values(), ids=UNRENDERABLE.keys())
def test_fixture_whose_listing_cannot_render_is_one_input_error(tmp_path, capsys, caplog, text):
    # Each fixture loads as YAML; its listing or search page would only
    # fail when rendered, so the load-time check must catch it.
    assert text != SHOP
    path = tmp_path / "shop.yaml"
    path.write_text(text, encoding="utf-8")
    code, err = run_main(_fixture_argv(path, tmp_path), capsys, caplog)
    assert_one_input_error(code, err, path, tmp_path)
    assert "http://shop.local/" in err
