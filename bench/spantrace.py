"""Outside-in span tracer for the tandem benchmark.

The tracer instruments tandem without editing it: for each layer it
replaces a public function at the name its caller looks it up by (for
example ``tandem.harness.load_fixture``, which ``run_single`` calls, or
the class attribute ``WebEnv.render_nodes``) with a wrapper that records
a span, and it puts every original object back when it is uninstalled.

A span is its id, layer name, start, end, parent span id and op id.
Spans are kept in memory; ``dump`` writes them out once the run is over.
An *op* span takes its own id as op id, and every span under it shares
that op id.  On the suite workloads an op opens when ``run_suite`` asks
the backend factory for the task's backend and closes when
``run_single`` returns; on replay-verify it is one ``replay_transcript``
call.  Spans opened on a pool thread
with nothing open on that thread take the innermost span open on the
installing thread as parent, so a suite's worker spans nest under its
``run_suite`` span.

Self time is a span's duration minus the part of it its child spans
cover; overlapping children (parallel workers) are counted once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

__all__ = ["LAYERS", "Span", "Target", "Tracer"]


@dataclass(frozen=True)
class Target:
    """One wrapped name: `name` is the layer, `path` is "module:Attr.attr".

    An op target may name a `begin` path as well: a call there opens the
    op span, and the op target's return on the same thread closes it.
    """

    name: str
    path: str
    op: bool = False
    begin: str | None = None

    def resolve(self, path: str | None = None) -> tuple[object, str]:
        module_name, dotted = (path or self.path).split(":")
        owner: object = importlib.import_module(module_name)
        *parents, attr = dotted.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr


# Layer boundaries, each at the name its caller looks up.  The op span
# and the backend's complete() are added per workload.
LAYERS = (
    Target("webenv.load_fixture", "tandem.harness:load_fixture"),
    Target("backend.load_script_file", "tandem.cli:load_script_file"),
    Target("prompts.libraries", "tandem.prompts:PromptLibrary.__init__"),
    Target("prompts.get", "tandem.prompts:PromptLibrary.get"),
    Target("prompts.context_block", "tandem.planner:context_block"),
    Target("prompts.context_block", "tandem.executor:context_block"),
    Target("webenv.apply", "tandem.webenv:WebEnv.apply"),
    Target("webenv.observe", "tandem.webenv:WebEnv.observe"),
    Target("webenv.render_nodes", "tandem.webenv:WebEnv.render_nodes"),
    Target("transcript.write_transcript", "tandem.harness:write_transcript"),
    Target("protocol.to_json", "tandem.protocol:TranscriptEvent.to_json"),
    Target("transcript.append", "tandem.transcript:RunRecorder.append"),
    Target("transcript.read_transcript", "tandem.harness:read_transcript"),
    Target("protocol.from_dict", "tandem.protocol:TranscriptEvent.from_dict"),
    Target("transcript.first_divergence", "tandem.harness:first_divergence"),
    Target("backend.call_llm", "tandem.planner:call_llm"),
    Target("backend.call_llm", "tandem.executor:call_llm"),
    Target("grammar.parse", "tandem.planner:parse_global_plan"),
    Target("grammar.parse", "tandem.planner:parse_decision"),
    Target("grammar.parse", "tandem.executor:parse_action_sequence"),
    Target("grammar.parse", "tandem.executor:parse_verdict"),
    Target("planner.render_prompt", "tandem.planner:GlobalPlanner.render_prompt"),
    Target("executor.render_prompt", "tandem.executor:LocalExecutor.render_prompt"),
    Target("executor.execute_actions", "tandem.executor:LocalExecutor.execute_actions"),
    Target("orchestrator.run_task", "tandem.harness:run_task"),
    Target("orchestrator.step", "tandem.orchestrator:step"),
    Target("harness.run_suite", "tandem.harness:run_suite"),
)


class Span(NamedTuple):
    """A finished span.  `parent` is the parent's id, 0 for none."""

    id: int
    name: str
    t0: float
    t1: float
    parent: int
    op: int  # 0 outside any op
    cpu: float  # thread CPU seconds, op spans only
    ok: bool  # False when the wrapped call raised


class Tracer:
    """Installs span wrappers on `targets`; use as a context manager."""

    def __init__(self, targets: tuple[Target, ...] | list[Target]) -> None:
        self.targets = tuple(targets)
        self.spans: list[tuple] = []
        self._installed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: list[tuple[int, int]] = []
        self._ids = itertools.count(1)

    # -- install / uninstall --------------------------------------------

    def install(self) -> "Tracer":
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main_stack
        try:
            for target in self.targets:
                self._install(target.resolve(), self._wrap(target))
                if target.begin:
                    self._install(target.resolve(target.begin), self._wrap_begin(target))
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self, where: tuple[object, str], wrap: Callable[[Callable], Callable]) -> None:
        owner, attr = where
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped: object = classmethod(wrap(original.__func__))
        else:
            wrapped = wrap(original)
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put back every original object, newest wrapper first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, is_op: bool) -> tuple[int, int, int, float, float]:
        stack = self._stack()
        parent, parent_op = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else (0, 0)
        )
        span_id = next(self._ids)
        op = span_id if is_op else parent_op
        stack.append((span_id, op))
        return span_id, parent, op, time.thread_time() if is_op else 0.0, time.perf_counter()

    def _close(self, name: str, opened: tuple[int, int, int, float, float], ok: bool) -> None:
        t1 = time.perf_counter()
        span_id, parent, op, cpu0, t0 = opened
        cpu = time.thread_time() - cpu0 if span_id == op else 0.0
        self._stack().pop()
        # A plain tuple of numbers and strings, which the garbage collector
        # stops tracking; a traced pass would otherwise slow every
        # collection in the program.
        self.spans.append((span_id, name, t0, t1, parent, op, cpu, ok))

    def _wrap(self, target: Target) -> Callable[[Callable], Callable]:
        name, is_op, local = target.name, target.op, self._local

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # An op opened at its `begin` call is already on the stack.
                opened = (vars(local).pop("begun", None) if is_op else None) or self._open(is_op)
                ok = False
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    self._close(name, opened, ok)

            return wrapper

        return wrap

    def _wrap_begin(self, target: Target) -> Callable[[Callable], Callable]:
        """Open `target`'s op span at this call and leave it open."""

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def begin(*args, **kwargs):
                opened = self._open(True)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self._close(target.name, opened, False)
                    raise
                self._local.begun = opened
                return result

            return begin

        return wrap

    def finished(self) -> list[Span]:
        return [Span._make(s) for s in self.spans]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, failed calls, wall, self and op CPU seconds.

        Self time is the span's duration minus the union of its
        children's intervals.
        """
        spans = self.finished()
        children: dict[int, list[tuple[float, float]]] = {}
        for s in spans:
            if s.parent:
                children.setdefault(s.parent, []).append((s.t0, s.t1))
        out: dict[str, dict[str, float]] = {}
        for s in spans:
            covered, end = 0.0, s.t0
            for c0, c1 in sorted(children.get(s.id, ())):
                c0, c1 = max(c0, end), min(c1, s.t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            row = out.setdefault(s.name, {"calls": 0, "failed": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
            row["calls"] += 1
            row["failed"] += 0 if s.ok else 1
            row["wall_s"] += s.t1 - s.t0
            row["self_s"] += (s.t1 - s.t0) - covered
            row["cpu_s"] += s.cpu
        return out

    def dump(self, path: str | Path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.finished():
                fh.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")
