"""Hierarchical two-agent web task runner with a simulated environment.

A global planning agent decomposes an objective into phases; a local
execution agent turns each phase into page actions, checks its own work
and can ask for a global replan.  Everything runs offline against
deterministic site fixtures, with scripted or recorded LLM backends for
testing and an HTTP backend for live runs.
"""

from __future__ import annotations

from .backend import (
    BackendExhausted,
    ChatBackend,
    ChatMessage,
    ChatRequest,
    HttpChatBackend,
    ProviderError,
    ResponseEmpty,
    RetrievedPassage,
    ScriptedBackend,
    ScriptedExchange,
    StaticSearchProvider,
    TransportError,
    augment_with_search,
    load_script_file,
)
from .executor import LocalExecutor
from .grammar import (
    ActionParseError,
    DecisionParseError,
    EmptyPlan,
    GrammarError,
    PlanParseError,
    VerdictParseError,
    parse_action_sequence,
    parse_action_text,
    parse_decision,
    parse_global_plan,
    parse_verdict,
    render_action,
    render_action_sequence,
    render_plan_text,
)
from .harness import (
    ReplayResult,
    SuiteReport,
    TaskRun,
    aggregate,
    load_manifest,
    load_suite,
    load_task_file,
    overall_rate,
    render_report,
    replay_transcript,
    run_single,
    run_suite,
    success_rate,
)
from .orchestrator import (
    BudgetCounters,
    BudgetVerdict,
    IllegalTransition,
    Mode,
    OrchestratorState,
    TaskOutcome,
    Termination,
    enforce_budget,
    run_task,
    step,
)
from .planner import GlobalPlanner, MissingContextField, PlannerContext
from .prompts import PromptLibrary, context_block
from .protocol import (
    ActionKind,
    ActionSequence,
    Budgets,
    Difficulty,
    EvaluatorSpec,
    EventKind,
    ExecutionReport,
    ExecutionStep,
    GlobalDecision,
    GlobalPlan,
    LocalVerdict,
    Observation,
    PageAction,
    PhaseSpec,
    ReplanRequest,
    StepOutcome,
    Task,
    TranscriptEvent,
    VerdictDecision,
    validate,
)
from .transcript import (
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
from .webenv import FixtureLoadError, SiteFixture, WebEnv, evaluate, load_fixture

__version__ = "0.1.0"
