from __future__ import annotations

import json

import pytest

from tandem.backend import ChatMessage, ChatRequest
from tandem.protocol import EventKind, TranscriptEvent
from tandem.transcript import (
    ForceStopInterrupt,
    ReplayBackend,
    ReplayDivergence,
    RunRecorder,
    TranscriptCorrupt,
    first_divergence,
    read_transcript,
    strip_volatile,
    write_transcript,
)


def sample_events(n: int = 3) -> list[TranscriptEvent]:
    recorder = RunRecorder()
    recorder.append(
        EventKind.LLM_CALL,
        {
            "role": "global",
            "prompt": "plan please",
            "response": "Phase 1: x | Expected: y",
            "latency": 0.01,
        },
    )
    recorder.append(EventKind.ENV_STEP, {"action": "click [3]", "ok": True, "error": ""})
    recorder.append(
        EventKind.TASK_RESULT,
        {"success": True, "answer": "42", "termination": "completed", "detail": ""},
    )
    return recorder.events[:n]


def request_for(prompt: str) -> ChatRequest:
    return ChatRequest(system_prompt="", messages=(ChatMessage("user", prompt),))


# ---------------------------------------------------------------------
# RunRecorder
# ---------------------------------------------------------------------


def test_seq_numbers_are_dense_from_zero():
    events = sample_events()
    assert [e.seq for e in events] == [0, 1, 2]


def test_recorder_closes_on_task_result():
    recorder = RunRecorder()
    recorder.append(EventKind.TASK_RESULT, {"success": False, "answer": "", "termination": "completed", "detail": ""})
    assert recorder.closed
    with pytest.raises(RuntimeError):
        recorder.append(EventKind.ENV_STEP, {"action": "x", "ok": True, "error": ""})


def test_exchange_counter_tracks_llm_calls():
    recorder = RunRecorder()
    assert recorder.exchanges == 0
    recorder.append(
        EventKind.LLM_CALL,
        {"role": "local", "prompt": "p", "response": "r", "latency": 0.0},
    )
    recorder.append(
        EventKind.LLM_CALL,
        {"role": "global", "prompt": "p2", "response": "r2", "latency": 0.0},
    )
    assert recorder.exchanges == 2
    llm_events = [e for e in recorder.events if e.kind is EventKind.LLM_CALL]
    assert len(llm_events) == 2
    assert llm_events[0].payload["role"] == "local"


def test_budget_gate_trips_at_cap_before_the_call():
    recorder = RunRecorder()
    recorder.exchange_cap = 2
    recorder.check_exchange_budget()  # 0 < 2
    recorder.append(
        EventKind.LLM_CALL,
        {"role": "local", "prompt": "p", "response": "r", "latency": 0.0},
    )
    recorder.check_exchange_budget()  # 1 < 2
    recorder.append(
        EventKind.LLM_CALL,
        {"role": "local", "prompt": "p", "response": "r", "latency": 0.0},
    )
    with pytest.raises(ForceStopInterrupt) as err:
        recorder.check_exchange_budget()
    assert err.value.exchange_count == 2


def test_budget_gate_disarmed_without_cap():
    recorder = RunRecorder()
    for _ in range(50):
        recorder.append(
            EventKind.LLM_CALL,
            {"role": "local", "prompt": "p", "response": "r", "latency": 0.0},
        )
        recorder.check_exchange_budget()
    assert recorder.exchanges == 50


# ---------------------------------------------------------------------
# Persistence round trip
# ---------------------------------------------------------------------


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "run.jsonl"
    events = sample_events()
    write_transcript(path, {"task": "t-1"}, events)
    header, loaded, warnings = read_transcript(path)
    assert header["format"] == "tandem-transcript"
    assert header["version"] == 1
    assert header["task"] == "t-1"
    assert warnings == []
    assert first_divergence(events, loaded) is None
    # timestamps survive byte-exact
    assert [e.timestamp for e in loaded] == [e.timestamp for e in events]


def test_truncated_last_line_is_dropped_with_warning(tmp_path):
    path = tmp_path / "run.jsonl"
    write_transcript(path, {}, sample_events())
    whole = path.read_text(encoding="utf-8")
    path.write_text(whole[: len(whole) - 20], encoding="utf-8")
    header, events, warnings = read_transcript(path)
    assert len(events) == 2
    assert warnings and "truncated" in warnings[0]


def test_invalid_json_mid_file_is_corrupt(tmp_path):
    path = tmp_path / "run.jsonl"
    write_transcript(path, {}, sample_events())
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = "{definitely not json"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TranscriptCorrupt) as err:
        read_transcript(path)
    assert err.value.line_no == 2


def test_seq_gap_is_corrupt(tmp_path):
    path = tmp_path / "run.jsonl"
    events = sample_events()
    write_transcript(path, {}, events)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[2])
    record["seq"] = 7
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TranscriptCorrupt) as err:
        read_transcript(path)
    assert "seq 7" in str(err.value)


def test_bad_event_record_is_corrupt(tmp_path):
    path = tmp_path / "run.jsonl"
    write_transcript(path, {}, sample_events())
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps({"seq": 0, "ts": 0.0, "kind": "NotAKind", "payload": {}})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TranscriptCorrupt):
        read_transcript(path)


def test_wrong_format_header_is_corrupt(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text('{"format": "other"}\n', encoding="utf-8")
    with pytest.raises(TranscriptCorrupt):
        read_transcript(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(TranscriptCorrupt):
        read_transcript(path)


# ---------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------


def test_strip_volatile_drops_ts_and_latency():
    event = sample_events(1)[0]
    stripped = strip_volatile(event)
    assert "ts" not in stripped
    assert "latency" not in stripped["payload"]
    assert stripped["payload"]["prompt"] == "plan please"


def test_first_divergence_ignores_latency_and_time():
    a = RunRecorder()
    b = RunRecorder()
    a.append(
        EventKind.LLM_CALL,
        {"role": "local", "prompt": "p", "response": "r", "latency": 0.123},
    )
    b.append(
        EventKind.LLM_CALL,
        {"role": "local", "prompt": "p", "response": "r", "latency": 9.876},
    )
    assert first_divergence(a.events, b.events) is None


def test_first_divergence_points_at_the_difference():
    a = RunRecorder()
    b = RunRecorder()
    for rec in (a, b):
        rec.append(
            EventKind.LLM_CALL,
            {"role": "local", "prompt": "same", "response": "same", "latency": 0.0},
        )
    a.append(EventKind.ENV_STEP, {"action": "click [3]", "ok": True, "error": ""})
    b.append(EventKind.ENV_STEP, {"action": "click [4]", "ok": True, "error": ""})
    assert first_divergence(a.events, b.events) == 1


def test_first_divergence_flags_length_mismatch():
    a = RunRecorder()
    a.append(EventKind.LLM_CALL, {"role": "local", "prompt": "p", "response": "r", "latency": 0.0})
    b = RunRecorder()
    assert first_divergence(a.events, b.events) == 0
    assert first_divergence(b.events, a.events) == 0
    assert first_divergence([], []) is None


def _event(seq: int, kind: EventKind, payload: dict, ts: float = 1.0) -> TranscriptEvent:
    return TranscriptEvent(seq=seq, timestamp=ts, kind=kind, payload=payload)


_STEP = {"action": "click [3]", "ok": True, "error": ""}
_CALL = {"role": "local", "prompt": "p", "response": "r", "latency": 0.5}
_COMMON = [_event(0, EventKind.LLM_CALL, _CALL)]

FIRST_DIVERGENCE_CASES = {
    "kind only": ([_event(1, EventKind.ENV_STEP, _STEP)], [_event(1, EventKind.VERDICT_ISSUED, _STEP)], 1),
    "seq only": ([_event(1, EventKind.ENV_STEP, _STEP)], [_event(2, EventKind.ENV_STEP, _STEP)], 1),
    "payload key on one side": (
        [_event(1, EventKind.ENV_STEP, _STEP)],
        [_event(1, EventKind.ENV_STEP, {**_STEP, "note": ""})],
        1,
    ),
    "payload key on one side, set to None": (
        [_event(1, EventKind.ENV_STEP, _STEP)],
        [_event(1, EventKind.ENV_STEP, {**_STEP, "note": None})],
        1,
    ),
    "payload value": (
        [_event(1, EventKind.ENV_STEP, _STEP)],
        [_event(1, EventKind.ENV_STEP, {**_STEP, "ok": False})],
        1,
    ),
    "latency on one side": (
        [_event(1, EventKind.ENV_STEP, _STEP)],
        [_event(1, EventKind.ENV_STEP, {**_STEP, "latency": 0.25})],
        None,
    ),
    "ts only": ([_event(1, EventKind.ENV_STEP, _STEP, ts=1.0)], [_event(1, EventKind.ENV_STEP, _STEP, ts=2.0)], None),
    "common prefix, unequal lengths": ([_event(1, EventKind.ENV_STEP, _STEP)], [], 1),
}


@pytest.mark.parametrize("case", sorted(FIRST_DIVERGENCE_CASES))
def test_first_divergence_cases(case):
    tail_a, tail_b, expected = FIRST_DIVERGENCE_CASES[case]
    a, b = _COMMON + tail_a, _COMMON + tail_b
    assert first_divergence(a, b) == expected
    assert first_divergence(b, a) == expected


# ---------------------------------------------------------------------
# ReplayBackend
# ---------------------------------------------------------------------


def test_replay_serves_responses_in_order():
    recorder = RunRecorder()
    recorder.append(
        EventKind.LLM_CALL,
        {"role": "global", "prompt": "prompt one", "response": "response one", "latency": 0.0},
    )
    recorder.append(
        EventKind.LLM_CALL,
        {"role": "local", "prompt": "prompt two", "response": "response two", "latency": 0.0},
    )
    replay = ReplayBackend(recorder.events)
    assert replay.complete(request_for("prompt one")) == "response one"
    assert replay.complete(request_for("prompt two")) == "response two"


def test_replay_diverges_on_prompt_mismatch():
    recorder = RunRecorder()
    recorder.append(EventKind.ENV_STEP, {"action": "click [3]", "ok": True, "error": ""})
    recorder.append(
        EventKind.LLM_CALL,
        {"role": "global", "prompt": "recorded prompt", "response": "resp", "latency": 0.0},
    )
    replay = ReplayBackend(recorder.events)
    with pytest.raises(ReplayDivergence) as err:
        replay.complete(request_for("different prompt"))
    assert str(err.value) == "rendered prompt differs from recording (recorded call #1)"


def test_replay_diverges_on_exhaustion():
    recorder = RunRecorder()
    recorder.append(
        EventKind.LLM_CALL,
        {"role": "global", "prompt": "p", "response": "r", "latency": 0.0},
    )
    replay = ReplayBackend(recorder.events)
    replay.complete(request_for("p"))
    with pytest.raises(ReplayDivergence):
        replay.complete(request_for("p"))


def test_replay_from_file(tmp_path):
    recorder = RunRecorder()
    recorder.append(
        EventKind.LLM_CALL,
        {"role": "global", "prompt": "p", "response": "r", "latency": 0.0},
    )
    path = tmp_path / "run.jsonl"
    write_transcript(path, {"task": "x"}, recorder.events)
    replay = ReplayBackend(read_transcript(path)[1])
    assert replay.complete(request_for("p")) == "r"
