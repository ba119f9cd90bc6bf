"""Acceptance gate.

One test per acceptance criterion, each printing a single
``ACCEPTANCE <n> <name>: PASS`` (or FAIL) line.  Run with::

    python3 -m pytest tests/test_acceptance.py -v -s

Criterion 8 needs a live chat-completions endpoint and skips itself
when TANDEM_ENDPOINT is not set; everything else runs offline.
"""

from __future__ import annotations

import os
import random
import string
import time
from contextlib import contextmanager
from decimal import Decimal
from pathlib import Path

import pytest

from tandem.backend import (
    PASSAGE_WORD_LIMIT,
    HttpChatBackend,
    ProviderError,
    RetrievedPassage,
    ScriptedBackend,
    load_script_file,
)
from tandem.grammar import (
    GrammarError,
    parse_action_sequence,
    parse_action_text,
    parse_global_plan,
    parse_verdict,
    render_action,
    render_action_sequence,
    render_plan_text,
)
from tandem.harness import overall_rate, replay_transcript, run_single
from tandem.planner import GlobalPlanner
from tandem.protocol import Budgets
from tandem.transcript import read_transcript
from tandem.webenv import WebEnv, load_fixture

from conftest import (
    DATA,
    SCENARIOS,
    golden_budgets,
    load_golden,
    outcome_dict,
    project,
    run_scenario,
    scenario_task,
)
from test_grammar import SEED as GRAMMAR_SEED
from test_grammar import _random_action, _random_plan, _random_sequence
from test_orchestrator import FUZZ_RUNS, FUZZ_SEED, run_adversarial
from test_webenv import SEED as ENV_SEED
from test_webenv import run_listing_oracle, run_search_oracle


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS", flush=True)


# =====================================================================
# 1. Scripted end-to-end scenarios against golden traces
# =====================================================================


def test_criterion_1_scripted_scenarios():
    with criterion(1, "scripted-scenarios"):
        for task_id in SCENARIOS:
            golden = load_golden(task_id)
            started = time.monotonic()
            outcome, recorder, _ = run_scenario(task_id, golden_budgets(golden))
            elapsed = time.monotonic() - started
            assert elapsed < 1.0, f"{task_id} took {elapsed:.3f}s"
            assert project(recorder.events) == golden["events"], task_id
            assert outcome_dict(outcome) == golden["outcome"], task_id


# =====================================================================
# 2. Protocol invariants under adversarial backends
# =====================================================================


def test_criterion_2_adversarial_invariants():
    with criterion(2, "adversarial-invariants"):
        assert FUZZ_RUNS >= 1000
        started = time.monotonic()
        terminations, _ = run_adversarial(FUZZ_RUNS, FUZZ_SEED)
        elapsed = time.monotonic() - started
        assert sum(terminations.values()) == FUZZ_RUNS
        assert elapsed < 60.0, f"{FUZZ_RUNS} runs took {elapsed:.1f}s"


# =====================================================================
# 3. Parser round trips and typed failures
# =====================================================================


def _garbage(rng: random.Random) -> str:
    alphabet = string.printable
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))


def test_criterion_3_parser_properties():
    with criterion(3, "parser-round-trips"):
        rng = random.Random(GRAMMAR_SEED + 10)
        cases = 0
        for _ in range(4000):
            plan = _random_plan(rng)
            back = parse_global_plan(
                render_plan_text(plan), plan_version=plan.plan_version
            )
            assert back == plan
            cases += 1
        for _ in range(4000):
            seq = _random_sequence(rng)
            assert parse_action_sequence(render_action_sequence(seq)) == seq
            cases += 1
        for _ in range(2000):
            act = _random_action(rng, allow_stop=True)
            assert parse_action_text(render_action(act)) == act
            cases += 1
        assert cases >= 10_000

        for _ in range(500):
            text = _garbage(rng)
            for parse in (
                lambda t: parse_global_plan(t, plan_version=1),
                parse_action_sequence,
                parse_action_text,
                lambda t: parse_verdict(t, allow_move=True),
            ):
                try:
                    parse(text)
                except GrammarError:
                    pass  # typed failure is the contract


# =====================================================================
# 4. Environment oracle equivalence and determinism
# =====================================================================


def test_criterion_4_environment_oracles():
    with criterion(4, "environment-oracles"):
        cases = run_listing_oracle(ENV_SEED + 20, 90)
        cases += run_search_oracle(ENV_SEED + 21, 40)
        assert cases >= 100

        trace = ["click [3]", "scroll [down]", "go_back", "click [2]"]
        streams = []
        for _ in range(2):
            env = WebEnv(load_fixture("shop"))
            stream = [env.reset().axtree]
            for line in trace:
                step = env.apply(parse_action_text(line))
                obs = env.observe()
                stream.append((obs.url, obs.axtree, obs.previous_action, step.error))
            streams.append(stream)
        assert streams[0] == streams[1]


# =====================================================================
# 5. Metric arithmetic
# =====================================================================


def test_criterion_5_metric_arithmetic():
    with criterion(5, "metric-arithmetic"):
        row_a = {
            "a": (12, 100),
            "b": (11, 100),
            "c": (9, 100),
            "d": (7, 100),
            "e": (8, 100),
        }
        row_b = {
            "a": (22, 100),
            "b": (14, 100),
            "c": (12, 100),
            "d": (9, 100),
            "e": (12, 100),
        }
        assert overall_rate(row_a) == Decimal("9.4")
        assert overall_rate(row_b) == Decimal("13.8")


# =====================================================================
# 6. Search augmentation stays within bounds and degrades gracefully
# =====================================================================


class _ExplodingProvider:
    def search(self, query: str):
        raise ProviderError("provider offline")


def test_criterion_6_search_augmentation():
    with criterion(6, "search-augmentation"):
        rng = random.Random(ENV_SEED + 30)
        words = ["lorem", "ipsum", "dolor", "sit", "amet", "etc"]
        for _ in range(500):
            text = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 400)))
            passage = RetrievedPassage(query="q", passage=text)
            assert len(passage.passage.split()) <= PASSAGE_WORD_LIMIT
            assert text.startswith(passage.passage)

        planner = GlobalPlanner(
            ScriptedBackend([]),
            search_provider=_ExplodingProvider(),
        )
        assert planner.fetch_passages("count electronics products") == ()

        run = run_single(
            scenario_task("scn-happy"),
            ScriptedBackend(load_script_file(DATA / "scripts" / "scn-happy.yaml")),
            Budgets(),
            search_provider=_ExplodingProvider(),
        )
        assert run.outcome.success


# =====================================================================
# 7. Replay fidelity for every scripted scenario
# =====================================================================


def test_criterion_7_replay_fidelity(tmp_path):
    with criterion(7, "replay-fidelity"):
        for task_id in SCENARIOS:
            golden = load_golden(task_id)
            run = run_single(
                scenario_task(task_id),
                ScriptedBackend(load_script_file(DATA / "scripts" / f"{task_id}.yaml")),
                golden_budgets(load_golden(task_id)),
                out_dir=tmp_path,
                backend_label="scripted",
            )
            result = replay_transcript(run.transcript_path)
            assert result.ok, f"{task_id}: {result.message}"
            assert outcome_dict(result.outcome) == outcome_dict(run.outcome), task_id
            assert outcome_dict(result.outcome) == golden["outcome"], task_id


# =====================================================================
# 8. Live smoke test (non-gating)
# =====================================================================


def test_criterion_8_live_smoke(tmp_path):
    endpoint = os.environ.get("TANDEM_ENDPOINT", "")
    if not endpoint:
        print("\nACCEPTANCE 8 live-smoke: SKIP (TANDEM_ENDPOINT not set)", flush=True)
        pytest.skip("live smoke needs TANDEM_ENDPOINT")
    with criterion(8, "live-smoke"):
        model = os.environ.get("TANDEM_MODEL", "")
        assert model, "TANDEM_MODEL must accompany TANDEM_ENDPOINT"
        backend = HttpChatBackend(
            endpoint=endpoint,
            model=model,
            api_key=os.environ.get("TANDEM_API_KEY", ""),
        )
        task = load_task("shop-easy-1")
        run = run_single(
            task,
            backend,
            Budgets(),
            temperature=1.0,
            out_dir=tmp_path,
            backend_label="http",
        )
        _, events, warnings = read_transcript(run.transcript_path)
        assert not warnings
        assert events[-1].kind.value == "TaskResult"


def load_task(task_id: str):
    from tandem.harness import load_task_file

    return load_task_file(Path(DATA) / "tasks" / f"{task_id}.yaml")
