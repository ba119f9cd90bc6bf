"""Command line interface tests.

Every test drives ``tandem.cli.main`` in process with an argv list and
asserts on the returned exit code plus captured output, so the whole
surface runs without spawning interpreters.  One subprocess smoke test
at the end checks that the installed console script resolves.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tandem.backend as backend_mod
from tandem.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNREACHABLE,
    main,
    make_backend_factory,
)
from tandem.harness import _RECOUNTED, _tally, run_single
from tandem.protocol import Budgets, InputError

from conftest import DATA, REPO, scenario_task

TASKS = DATA / "tasks"
SCRIPTS = DATA / "scripts"
HAPPY_TASK = TASKS / "scn-happy.yaml"
HAPPY_SCRIPT = SCRIPTS / "scn-happy.yaml"


def run_cli(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture(autouse=True)
def clean_backend_env(monkeypatch):
    for name in ("TANDEM_ENDPOINT", "TANDEM_MODEL", "TANDEM_API_KEY"):
        monkeypatch.delenv(name, raising=False)


# =====================================================================
# Parser and configuration errors
# =====================================================================


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc_info:
        run_cli("--help")
    assert exc_info.value.code == 0


def test_missing_verb_is_a_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        run_cli()
    assert exc_info.value.code == 2


def test_run_without_backend_is_a_config_error(capsys):
    assert run_cli("run", str(HAPPY_TASK)) == EXIT_CONFIG
    assert "--backend is required" in capsys.readouterr().err


def test_unknown_backend_spec(capsys):
    code = run_cli("run", str(HAPPY_TASK), "--backend", "telepathy")
    assert code == EXIT_CONFIG
    assert "unknown backend" in capsys.readouterr().err


def test_http_backend_without_endpoint_or_model(capsys):
    code = run_cli("run", str(HAPPY_TASK), "--backend", "http")
    assert code == EXIT_CONFIG
    assert "http backend needs" in capsys.readouterr().err


def test_scripted_backend_with_missing_path(tmp_path, capsys):
    code = run_cli(
        "run", str(HAPPY_TASK), "--backend", f"scripted:{tmp_path / 'absent.yaml'}"
    )
    assert code == EXIT_CONFIG
    assert "does not exist" in capsys.readouterr().err


def test_scripted_directory_must_cover_every_task(tmp_path, capsys):
    code = run_cli("run", str(HAPPY_TASK), "--backend", f"scripted:{tmp_path}")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "lacks files for" in err
    assert "scn-happy" in err


BAD_SCRIPTS = {
    "bad-yaml": "format: tandem-script\nexchanges: [\n",
    "no-response": "format: tandem-script\nexchanges:\n  - match: plan\n",
    "exchanges-not-a-list": "format: tandem-script\nexchanges: 3\n",
    "bad-regex": (
        "format: tandem-script\nexchanges:\n"
        "  - match: Construct the (global plan\n    regex: true\n    response: x\n"
    ),
}


@pytest.mark.parametrize("verb", ["run", "suite"])
@pytest.mark.parametrize("case", sorted(BAD_SCRIPTS))
def test_malformed_script_is_a_config_error(tmp_path, capsys, verb, case):
    scripts = tmp_path / "scripts"
    shutil.copytree(SCRIPTS, scripts)
    (scripts / "scn-happy.yaml").write_text(BAD_SCRIPTS[case], encoding="utf-8")
    target = str(HAPPY_TASK) if verb == "run" else "demo"
    out = tmp_path / "out"
    code = run_cli(verb, target, "--backend", f"scripted:{scripts}", "--out", str(out))
    assert code == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "scn-happy.yaml" in line
    assert not (out / "report.json").exists()


def test_replay_backend_needs_an_existing_file(tmp_path, capsys):
    code = run_cli(
        "run", str(HAPPY_TASK), "--backend", f"replay:{tmp_path / 'none.jsonl'}"
    )
    assert code == EXIT_CONFIG
    assert "does not exist" in capsys.readouterr().err


def test_missing_task_file(tmp_path, capsys):
    code = run_cli(
        "run", str(tmp_path / "ghost.yaml"), "--backend", f"scripted:{HAPPY_SCRIPT}"
    )
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_run_rejects_an_invalid_task_before_any_model_call(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(
        backend_mod.ScriptedBackend, "complete", lambda self, request: calls.append(request)
    )
    task = tmp_path / "bogus.yaml"
    task.write_text(
        HAPPY_TASK.read_text(encoding="utf-8").replace("must_include", "bogus"),
        encoding="utf-8",
    )
    code = run_cli(
        "run", str(task), "--backend", f"scripted:{HAPPY_SCRIPT}", "--out", str(tmp_path)
    )
    assert code == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "scn-happy.transcript.jsonl").exists()


def test_run_rejects_a_fixture_that_is_not_yaml(tmp_path, capsys):
    fixture = tmp_path / "broken-fixture.yaml"
    fixture.write_text("pages: [\n", encoding="utf-8")
    task = tmp_path / "task.yaml"
    task.write_text(
        HAPPY_TASK.read_text(encoding="utf-8").replace(
            "env_fixture: shop", f"env_fixture: {json.dumps(str(fixture))}"
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = run_cli("run", str(task), "--backend", f"scripted:{HAPPY_SCRIPT}", "--out", str(out))
    assert code == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "broken-fixture.yaml" in line
    assert not (out / "report.json").exists()


RUN_HAPPY = ("run", str(HAPPY_TASK), "--backend", f"scripted:{HAPPY_SCRIPT}")
REPLAN_RECORDING = REPO / "tests" / "recorded" / "scn-replan.transcript.jsonl"


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            [*RUN_HAPPY, "--max-exchanges", "0"],
            "budget flags: Budgets.max_exchanges: max_exchanges must be positive",
        ),
        (
            [*RUN_HAPPY, "--max-local-revisions", "-1", "--no-force-stop"],
            "budget flags: Budgets.max_local_revisions_per_phase: "
            "max_local_revisions_per_phase must be >= 0",
        ),
        (
            [*RUN_HAPPY, "--max-exchanges", "-3", "--no-force-stop"],
            "budget flags: Budgets.max_exchanges: max_exchanges must be positive",
        ),
        (
            ["suite", "demo", "--backend", f"scripted:{SCRIPTS}", "--parallel", "0"],
            "--parallel: parallel must be >= 1",
        ),
        ([*RUN_HAPPY, "--prompt-dir", "{tmp}/missing"], "{tmp}/missing: not a directory"),
        *(
            (
                [*RUN_HAPPY, "--temperature", value],
                f"--temperature: must be a finite number >= 0, got {shown}",
            )
            for value, shown in (("nan", "nan"), ("inf", "inf"), ("-1", "-1.0"))
        ),
    ],
    ids=[
        "max-exchanges-0",
        "local-revisions-below-0",
        "max-exchanges-below-0",
        "parallel-0",
        "prompt-dir-missing",
        "temperature-nan",
        "temperature-inf",
        "temperature-below-0",
    ],
)
def test_a_bad_run_flag_fails_before_any_task_runs(tmp_path, monkeypatch, capsys, argv, error):
    calls = []
    monkeypatch.setattr(
        backend_mod.ScriptedBackend, "complete", lambda self, request: calls.append(request)
    )
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: " + error.replace("{tmp}", str(tmp_path))]
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_an_out_path_that_is_a_file_fails_before_any_task_runs(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(
        backend_mod.ScriptedBackend, "complete", lambda self, request: calls.append(request)
    )
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    code = run_cli(*RUN_HAPPY, "--out", str(taken))
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {taken}: not a usable output directory: File exists"
    ]
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert taken.read_text(encoding="utf-8") == "kept\n"


def test_replay_with_a_missing_prompt_dir_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    code = run_cli("replay", str(REPLAN_RECORDING), "--prompt-dir", str(missing))
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {missing}: not a directory"]


def test_unknown_suite_name(capsys):
    code = run_cli("suite", "no-such-suite", "--backend", f"scripted:{SCRIPTS}")
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_http_factory_reads_environment(monkeypatch):
    monkeypatch.setenv("TANDEM_ENDPOINT", "http://127.0.0.1:9/v1/chat")
    monkeypatch.setenv("TANDEM_MODEL", "test-model")
    parser_args = type(
        "Args", (), {"endpoint": "", "model": "", "backend": "http"}
    )()
    factory, label = make_backend_factory("http", parser_args, [])
    assert label == "http:http://127.0.0.1:9/v1/chat"
    backend = factory(None)
    assert backend.model == "test-model"


def test_http_factory_without_any_config_raises():
    parser_args = type("Args", (), {"endpoint": "", "model": ""})()
    with pytest.raises(InputError):
        make_backend_factory("http", parser_args, [])


# =====================================================================
# run
# =====================================================================


def test_run_scripted_task(tmp_path, capsys):
    code = run_cli(
        "run",
        str(HAPPY_TASK),
        "--backend",
        f"scripted:{HAPPY_SCRIPT}",
        "--out",
        str(tmp_path),
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "scn-happy: success=True termination=completed" in out
    assert "success rate by site category" in out
    assert (tmp_path / "scn-happy.transcript.jsonl").is_file()
    assert (tmp_path / "report.json").is_file()


def test_run_accepts_tuning_flags(tmp_path, capsys):
    code = run_cli(
        "run",
        str(HAPPY_TASK),
        "--backend",
        f"scripted:{HAPPY_SCRIPT}",
        "--out",
        str(tmp_path),
        "--max-exchanges",
        "12",
        "--max-local-revisions",
        "1",
        "--max-replan-requests",
        "1",
        "--no-force-stop",
        "--temperature",
        "0.5",
        "-v",
    )
    assert code == EXIT_OK
    assert "success=True" in capsys.readouterr().out
    header = json.loads(
        (tmp_path / "scn-happy.transcript.jsonl")
        .read_text(encoding="utf-8")
        .splitlines()[0]
    )
    assert header["budgets"]["max_exchanges"] == 12
    assert header["budgets"]["force_stop_enabled"] is False
    assert header["temperature"] == 0.5


def test_run_with_search_augmentation(tmp_path, capsys):
    code = run_cli(
        "run",
        str(HAPPY_TASK),
        "--backend",
        f"scripted:{HAPPY_SCRIPT}",
        "--out",
        str(tmp_path),
        "--augment-search",
        "--search-passages",
        "bundled",
    )
    assert code == EXIT_OK
    assert "success=True" in capsys.readouterr().out
    header = json.loads(
        (tmp_path / "scn-happy.transcript.jsonl")
        .read_text(encoding="utf-8")
        .splitlines()[0]
    )
    assert header["augment_search"] is True


def test_search_passages_without_augment_search_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "run", str(HAPPY_TASK), "--backend", f"scripted:{HAPPY_SCRIPT}",
        "--search-passages", "bundled", "--out", str(out),
    )
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "error: --search-passages: needs --augment-search"
    ]
    assert not out.exists()


def test_run_against_unreachable_http_backend(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(backend_mod.time, "sleep", lambda s: None)
    code = run_cli(
        "run",
        str(HAPPY_TASK),
        "--backend",
        "http",
        "--endpoint",
        "http://127.0.0.1:9/v1/chat",
        "--model",
        "test-model",
        "--out",
        str(tmp_path),
    )
    assert code == EXIT_UNREACHABLE
    captured = capsys.readouterr()
    assert "backend unreachable" in captured.err
    assert "termination=protocol_error" in captured.out


# The script answers the plan, then names TransportError in an action
# reply and in its repair, so the run fails on a GrammarError.
NAMES_TRANSPORT_ERROR = """\
format: tandem-script
exchanges:
  - match: Construct the global plan
    response: "Phase 1: Open the kitchen category | Expected: The kitchen listing is visible"
  - match: Work out the action sequence
    response: "**Action 1:** TransportError"
  - match: Work out the action sequence
    response: "**Action 1:** TransportError"
"""


def test_a_reply_naming_transport_error_is_not_an_unreachable_backend(tmp_path, capsys):
    script = tmp_path / "scn-happy.yaml"
    script.write_text(NAMES_TRANSPORT_ERROR, encoding="utf-8")
    code = run_cli(
        "run", str(HAPPY_TASK), "--backend", f"scripted:{script}", "--out", str(tmp_path)
    )
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "backend unreachable" not in captured.err
    assert "termination=protocol_error exchanges=3" in captured.out


# =====================================================================
# suite
# =====================================================================


def test_suite_demo_with_script_directory(tmp_path, capsys):
    code = run_cli(
        "suite", "demo", "--backend", f"scripted:{SCRIPTS}", "--out", str(tmp_path)
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    for task_id in (
        "scn-happy",
        "scn-revise",
        "scn-replan",
        "scn-overrule",
        "scn-forcestop",
        "scn-gitlab",
    ):
        assert f"{task_id}: success=" in out
        assert (tmp_path / f"{task_id}.transcript.jsonl").is_file()
    assert (tmp_path / "report.json").is_file()
    assert (tmp_path / "report.txt").is_file()


def test_suite_parallel_matches_serial(tmp_path, capsys):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    assert (
        run_cli(
            "suite",
            "demo",
            "--backend",
            f"scripted:{SCRIPTS}",
            "--out",
            str(serial_dir),
        )
        == EXIT_OK
    )
    assert (
        run_cli(
            "suite",
            "demo",
            "--backend",
            f"scripted:{SCRIPTS}",
            "--out",
            str(parallel_dir),
            "--parallel",
            "4",
        )
        == EXIT_OK
    )
    capsys.readouterr()
    serial = json.loads((serial_dir / "report.json").read_text(encoding="utf-8"))
    parallel = json.loads((parallel_dir / "report.json").read_text(encoding="utf-8"))
    assert serial["overall_sr"] == parallel["overall_sr"]
    assert serial["categories"] == parallel["categories"]


# =====================================================================
# replay
# =====================================================================


@pytest.fixture()
def happy_transcript(tmp_path):
    code = run_cli(
        "run",
        str(HAPPY_TASK),
        "--backend",
        f"scripted:{HAPPY_SCRIPT}",
        "--out",
        str(tmp_path),
    )
    assert code == EXIT_OK
    return tmp_path / "scn-happy.transcript.jsonl"


def test_replay_fresh_transcript(happy_transcript, capsys):
    code = run_cli("replay", str(happy_transcript))
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "scn-happy: success=True" in out


def test_replay_tampered_transcript(happy_transcript, tmp_path, capsys):
    lines = happy_transcript.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if i and record["kind"] == "LlmCall":
            record["payload"]["response"] = "Phase 1 looks wrong, start over."
            lines[i] = json.dumps(record)
            break
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = run_cli("replay", str(tampered))
    assert code == EXIT_CONFIG
    assert "diverge" in capsys.readouterr().out.lower()


@pytest.mark.parametrize(
    "flags",
    [
        ["--augment-search"],
        ["--search-passages", "missing.yaml"],
        ["--augment-search", "--search-passages", "missing.yaml"],
    ],
    ids=["augment-search", "search-passages", "both"],
)
def test_replay_rejects_search_flags(tmp_path, capsys, flags):
    flags = [str(tmp_path / f) if f.endswith(".yaml") else f for f in flags]
    recorded = REPO / "tests" / "recorded" / "scn-overrule.transcript.jsonl"
    code = run_cli("replay", str(recorded), *flags)
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {flags[0]}: replay takes search from the transcript"
    ]


@pytest.mark.parametrize(
    "flags",
    [
        ["--max-exchanges", "1"],
        ["--max-local-revisions", "0"],
        ["--max-replan-requests", "0"],
        ["--force-stop", "--no-force-stop"],
        ["--temperature", "0.2"],
        ["--backend", "scripted:/nonexistent"],
        ["--endpoint", "http://x", "--model", "m"],
        ["--model", "m"],
        ["--out", "out"],
    ],
    ids=lambda flags: flags[0].lstrip("-"),
)
def test_replay_rejects_every_flag_it_ignores(tmp_path, capsys, flags):
    flags = [str(tmp_path / f) if f == "out" else f for f in flags]
    recorded = REPO / "tests" / "recorded" / "scn-overrule.transcript.jsonl"
    code = run_cli("replay", str(recorded), *flags)
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {flags[0]}: replay ")
    assert not (tmp_path / "out").exists()


def test_replay_accepts_the_flags_it_reads(capsys):
    recorded = REPO / "tests" / "recorded" / "scn-overrule.transcript.jsonl"
    code = run_cli("replay", str(recorded), "--prompt-dir", str(DATA / "prompts"), "-v")
    assert code == EXIT_OK
    assert "replay reproduced the recording" in capsys.readouterr().out


def test_replay_missing_transcript(tmp_path, capsys):
    code = run_cli("replay", str(tmp_path / "void.jsonl"))
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_replay_corrupt_transcript(tmp_path, capsys):
    path = tmp_path / "garbled.jsonl"
    path.write_text("this is not a transcript\n", encoding="utf-8")
    code = run_cli("replay", str(path))
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage",
    [
        lambda payload: {k: v for k, v in payload.items() if k != "prompt"},
        lambda payload: "oops",
    ],
    ids=["missing-prompt", "payload-not-an-object"],
)
def test_replay_rejects_a_damaged_event_payload(happy_transcript, tmp_path, capsys, damage):
    lines = happy_transcript.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    assert record["kind"] == "LlmCall"
    record["payload"] = damage(record["payload"])
    lines[1] = json.dumps(record)
    damaged = tmp_path / "damaged.jsonl"
    damaged.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = run_cli("replay", str(damaged))
    assert code == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {damaged}: line 2: ")


def test_replay_detects_an_edited_event_that_no_prompt_shows(tmp_path, capsys):
    # The verdict's reasons reach no later prompt, so only the final
    # event-stream comparison can catch the edit.
    recorded = REPO / "tests" / "recorded" / "scn-overrule.transcript.jsonl"
    lines = recorded.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines[1:], start=1):
        record = json.loads(line)
        if record["kind"] == "VerdictIssued":
            record["payload"]["reasons"] += " (edited)"
            lines[i] = json.dumps(record)
            break
    edited = tmp_path / "edited.jsonl"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli("replay", str(edited)) == EXIT_CONFIG
    assert capsys.readouterr().out.splitlines()[0] == "event stream diverged at seq 5"


@pytest.mark.parametrize("kind", ["scripted", "replay"])
def test_single_file_backend_is_read_once(happy_transcript, tmp_path, kind):
    source = HAPPY_SCRIPT if kind == "scripted" else happy_transcript
    copy = tmp_path / "once" / source.name
    copy.parent.mkdir()
    shutil.copy(source, copy)
    task = scenario_task("scn-happy")
    factory, _ = make_backend_factory(f"{kind}:{copy}", argparse.Namespace(), [task])
    copy.unlink()
    # Each task still gets a backend with nothing consumed.
    for _ in range(2):
        assert run_single(task, factory(task), Budgets()).outcome.success


def test_run_with_replay_backend(happy_transcript, tmp_path, capsys):
    out_dir = tmp_path / "replayed"
    code = run_cli(
        "run",
        str(HAPPY_TASK),
        "--backend",
        f"replay:{happy_transcript}",
        "--out",
        str(out_dir),
    )
    assert code == EXIT_OK
    assert "scn-happy: success=True" in capsys.readouterr().out


# =====================================================================
# report
# =====================================================================


@pytest.fixture()
def demo_report(tmp_path):
    code = run_cli(
        "suite", "demo", "--backend", f"scripted:{SCRIPTS}", "--out", str(tmp_path)
    )
    assert code == EXIT_OK
    return tmp_path / "report.json"


def test_report_verifies_clean_file(demo_report, capsys):
    code = run_cli("report", str(demo_report))
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "overall" in out


def test_report_detects_tampered_rates(demo_report, capsys):
    raw = json.loads(demo_report.read_text(encoding="utf-8"))
    category = next(iter(raw["categories"]))
    raw["categories"][category] = 99.9
    demo_report.write_text(json.dumps(raw), encoding="utf-8")
    code = run_cli("report", str(demo_report))
    assert code == EXIT_CONFIG
    assert "integrity mismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tamper",
    [
        lambda raw: raw["difficulties"].update({next(iter(raw["difficulties"])): 99.9}),
        lambda raw: raw.update(overall_sr=99.0),
        lambda raw: raw.update(n_tasks=raw["n_tasks"] + 1),
        lambda raw: raw.update(n_success=raw["n_success"] - 1),
        lambda raw: raw.update(n_tasks=float(raw["n_tasks"])),
        lambda raw: raw.update(n_success=float(raw["n_success"])),
    ],
    ids=["difficulty-rate", "overall_sr", "n_tasks", "n_success", "float-n_tasks", "float-n_success"],
)
def test_report_detects_each_tampered_summary_field(demo_report, capsys, tamper):
    raw = json.loads(demo_report.read_text(encoding="utf-8"))
    tamper(raw)
    demo_report.write_text(json.dumps(raw), encoding="utf-8")
    code = run_cli("report", str(demo_report))
    assert code == EXIT_CONFIG
    assert "integrity mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["site_category", "difficulty"])
def test_report_detects_a_list_valued_group(demo_report, capsys, key):
    raw = json.loads(demo_report.read_text(encoding="utf-8"))
    raw["tasks"][0][key] = [raw["tasks"][0][key]]
    demo_report.write_text(json.dumps(raw), encoding="utf-8")
    code = run_cli("report", str(demo_report))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"integrity mismatch - tasks[0].{key}:" in err


def test_report_detects_a_forged_row_with_recounted_rates(demo_report, capsys):
    raw = json.loads(demo_report.read_text(encoding="utf-8"))
    i, row = next((i, row) for i, row in enumerate(raw["tasks"]) if row["task_id"] == "scn-happy")
    row.update(success=False, final_answer="forged")
    recounted = _tally(raw["tasks"]).to_dict()
    raw.update({key: recounted[key] for key in _RECOUNTED})
    demo_report.write_text(json.dumps(raw), encoding="utf-8")
    code = run_cli("report", str(demo_report))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == [
        f"integrity mismatch - tasks[{i}].success",
        f"integrity mismatch - tasks[{i}].final_answer",
    ]
    assert "stored 'forged' != transcript " in err[1]


@pytest.mark.parametrize(
    "forge,expected",
    [
        (
            lambda rows: rows[5].update(site_category="shopping"),
            "tasks[5].site_category: stored 'shopping' != transcript 'gitlab'",
        ),
        (lambda rows: rows.append(dict(rows[0])), "tasks[6].task_id: 'scn-happy' is also tasks[0]'s"),
        # JSON tells a number from a boolean and 6.0 from 6, as the protocol does.
        (lambda rows: rows[0].update(success=1), "tasks[0].success: stored 1 != transcript True"),
        (
            lambda rows: rows[0].update(exchanges_used=6.0),
            "tasks[0].exchanges_used: stored 6.0 != transcript 6",
        ),
        (
            lambda rows: rows[0].update(plan_versions=True),
            "tasks[0].plan_versions: stored True != transcript 1",
        ),
    ],
    ids=["moved-to-another-group", "duplicated", "int-success", "float-count", "bool-count"],
)
def test_report_detects_a_forged_row_set_with_recounted_rates(demo_report, capsys, forge, expected):
    raw = json.loads(demo_report.read_text(encoding="utf-8"))
    forge(raw["tasks"])
    recounted = _tally(raw["tasks"]).to_dict()
    raw.update({key: recounted[key] for key in _RECOUNTED})
    demo_report.write_text(json.dumps(raw), encoding="utf-8")
    code = run_cli("report", str(demo_report))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [f"integrity mismatch - {expected}"]


def test_report_notes_a_missing_transcript(demo_report, capsys):
    raw = json.loads(demo_report.read_text(encoding="utf-8"))
    Path(raw["tasks"][0]["transcript"]).unlink()
    code = run_cli("report", str(demo_report))
    assert code == EXIT_OK
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("note: tasks[0]: no transcript at ")


def test_report_flags_a_transcript_without_its_task_result(demo_report, capsys):
    raw = json.loads(demo_report.read_text(encoding="utf-8"))
    path = Path(raw["tasks"][0]["transcript"])
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert '"kind": "TaskResult"' in lines[-1]
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    code = run_cli("report", str(demo_report))
    assert code == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"integrity mismatch - tasks[0]: transcript {path} has no closing TaskResult"


def test_report_rejects_a_transcript_with_a_bad_header(demo_report, capsys):
    raw = json.loads(demo_report.read_text(encoding="utf-8"))
    path = Path(raw["tasks"][0]["transcript"])
    header, rest = path.read_text(encoding="utf-8").split("\n", 1)
    path.write_text(json.dumps({**json.loads(header), "backend": 5}) + "\n" + rest, encoding="utf-8")
    code = run_cli("report", str(demo_report))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {path}: bad transcript header: backend: expected a string, got int 5\n"
    )


@pytest.mark.parametrize(
    "content",
    ["not json", "[1, 2]", json.dumps({"format": "tandem-report", "tasks": [1, 2]})],
    ids=["not-json", "json-array", "rows-not-objects"],
)
def test_report_rejects_a_malformed_file(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    path.write_text(content, encoding="utf-8")
    code = run_cli("report", str(path))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_report_rejects_foreign_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
    code = run_cli("report", str(path))
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_report_with_no_tasks(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(
        json.dumps({"format": "tandem-report", "tasks": []}), encoding="utf-8"
    )
    code = run_cli("report", str(path))
    assert code == EXIT_CONFIG
    assert "lists no tasks" in capsys.readouterr().err


# =====================================================================
# Console script
# =====================================================================


def test_console_script_is_installed():
    exe = shutil.which("tandem")
    if exe is None:
        pytest.skip("package not installed with scripts on PATH")
    proc = subprocess.run(
        [exe, "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "run one task file" in proc.stdout


def test_module_reports_usage_without_args():
    proc = subprocess.run(
        [sys.executable, "-m", "tandem.cli"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_closed_stdout_pipe_exits_1_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tandem.cli", "replay",
             str(REPO / "tests" / "recorded" / "scn-replan.transcript.jsonl")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1
