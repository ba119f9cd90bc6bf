"""The correctness gate fails on wrong scripts, tampered reports and bad replays."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from benchsupport import replay_inputs  # noqa: F401
import workload

BENCH = Path(__file__).resolve().parents[1]


def _suite(tmp_path, seed=3):
    inputs = workload.prepare("scripted-suite", seed, tmp_path)
    return inputs, workload.run_pass("scripted-suite", inputs, tmp_path / "out")


def test_wrong_generated_script_fails_the_gate(tmp_path):
    inputs = workload.prepare("scripted-suite", 3, tmp_path)
    script = inputs.dir / "scripts" / "gen-cms-01.yaml"
    text = script.read_text()
    assert "Action: ```move```" in text
    script.write_text(text.replace("Action: ```move```", "Action: ```revise```", 1))

    result = workload.run_pass("scripted-suite", inputs, tmp_path / "out")
    failures, _ = workload.check_pass("scripted-suite", inputs, result)
    assert len(failures) == 1
    assert failures[0].startswith("gen-cms-01: outcome")


def test_tampered_report_fails_every_op_of_its_suite(tmp_path):
    inputs, result = _suite(tmp_path)
    _, report, out = result.results[0]
    path = out / "report.json"
    raw = json.loads(path.read_text())
    raw["categories"]["cms"] = 0.0
    path.write_text(json.dumps(raw))

    failures, _ = workload.check_pass("scripted-suite", inputs, result)
    assert len(failures) == len(report.runs)
    assert all("does not recount" in f for f in failures)


def test_diverging_replay_fails_the_gate(replay_inputs, tmp_path):
    task_id, path = replay_inputs.transcripts[0]
    lines = path.read_text().splitlines()
    call = next(i for i, line in enumerate(lines) if '"LlmCall"' in line)
    event = json.loads(lines[call])
    event["payload"]["prompt"] += " (edited)"
    tampered = tmp_path / path.name
    tampered.write_text("\n".join(lines[:call] + [json.dumps(event)] + lines[call + 1:]) + "\n")
    inputs = workload.Inputs(replay_inputs.dir, replay_inputs.plan, [(task_id, tampered)])

    result = workload.run_pass("replay-verify", inputs, tmp_path / "out")
    failures, _ = workload.check_pass("replay-verify", inputs, result)
    assert len(failures) == 1 and "replay ok=False" in failures[0]


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scripted-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
