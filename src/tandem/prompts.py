"""Prompt resources for both agents.

Prompt text lives in editable files under ``data/prompts/<agent>/<action>.txt``
inside the package; a PromptLibrary can overlay a user directory with the
same layout, so deployments can tune wording without touching code.
A library reads every prompt when it is built.  ``_FORMAT_FIELDS`` is
the one list of the fields each prompt is formatted with: ``render``
fills exactly those, and the library formats each such prompt with
placeholder values when it is built, so a bad override (one that cannot
be read, or names another field), or an override path that is not a
directory, fails before any task runs.
PACKAGED_PROMPTS is the one library without an overlay, shared by all
agents.  The shared tail block every prompt ends with (OBSERVATION /
URL / OBJECTIVE / PREVIOUS ACTION) is rendered by ``context_block``.

PROMPT_MARKERS maps each prompt key to a phrase unique to that prompt,
which scripted-backend fixtures use to recognize what kind of response a
prompt expects.
"""

from __future__ import annotations

from pathlib import Path

from .protocol import InputError, Observation, packaged, read_text

__all__ = [
    "PACKAGED_PROMPTS",
    "PROMPT_KEYS",
    "PROMPT_MARKERS",
    "PromptLibrary",
    "context_block",
]

PROMPT_KEYS = (
    "global/intro",
    "global/plan",
    "global/decide",
    "global/revise",
    "global/collate",
    "local/intro",
    "local/plan",
    "local/pass_check",
    "local/false_check",
    "local/revise",
    "local/overruled",
)

# One stable, distinctive phrase per prompt, for scripted matchers.  Each
# phrase sits on a single line of its prompt file; a test enforces that.
PROMPT_MARKERS = {
    "global/plan": "Construct the global plan",
    "global/decide": "Judge whether the fault lies",
    "global/revise": "You accepted the replan request",
    "global/collate": "Produce the final answer",
    "local/plan": "Work out the action sequence",
    "local/pass_check": "ran without errors",
    "local/false_check": "An action in this phase failed",
    "local/revise": "You decided to adjust your action sequence",
    "local/overruled": "kept the global plan",
}

# The fields each formatted prompt is rendered with, with placeholder
# values of their types.  Every other prompt is used as written, braces
# and all.
_FORMAT_FIELDS = {
    "global/decide": {"reasons": "", "phase_index": 0, "previous_plan": ""},
    "global/revise": {"reasons": "", "phase_index": 0, "previous_plan": ""},
    "global/collate": {"report": ""},
    "local/revise": {"reasons": ""},
    "local/overruled": {"guidance": ""},
    "local/false_check": {"feedback": ""},
}

# Repair follow-ups appended when a response does not parse.
REPAIR_PLAN = (
    "Your reply could not be parsed. Reply again using exactly one line per "
    "phase in the format 'Phase 1: <subtask> | Expected: <expected state>', "
    "with no other text."
)
REPAIR_ACTIONS = (
    "Your reply could not be parsed. Reply again with one action per line in "
    "the format '**Action 1:** [action]', using only the documented actions, "
    "with no other text."
)
REPAIR_VERDICT = (
    "Your reply could not be parsed. Reply again in exactly the format "
    "'Action: [token]' on one line and 'Reasons: [your reasons]' on the "
    "next, choosing a token that is allowed for this check."
)
REPAIR_DECISION = (
    "Your reply could not be parsed. Reply again with exactly one ruling "
    "token, ```revise``` or ```overrule```, followed by your suggestions if "
    "you overrule."
)


class PromptLibrary:
    """Prompt texts by key, from the override directory where it has the file."""

    def __init__(self, override_dir: str | Path | None = None) -> None:
        if override_dir and not Path(override_dir).is_dir():
            raise InputError(override_dir, "not a directory")
        self._texts: dict[str, str] = {}
        for key in PROMPT_KEYS:
            path = Path(override_dir, f"{key}.txt") if override_dir else None
            if path is None or not path.exists():
                path = packaged("prompts", f"{key}.txt")
            self._texts[key] = text = read_text(path)
            if key not in _FORMAT_FIELDS:
                continue
            try:
                text.format(**_FORMAT_FIELDS[key])
            except (LookupError, ValueError, AttributeError, TypeError) as exc:
                raise InputError(path, f"does not format: {type(exc).__name__}: {exc}") from None

    def get(self, key: str) -> str:
        return self._texts[key]

    def render(self, key: str, **values: object) -> str:
        """Prompt `key` formatted with `values`, which name exactly its fields."""
        text = self.get(key)
        fields = _FORMAT_FIELDS.get(key, {})
        if values.keys() != fields.keys():
            raise TypeError(f"prompt {key} takes fields {sorted(fields)}, got {sorted(values)}")
        return text.format(**values) if values else text


PACKAGED_PROMPTS = PromptLibrary()


def context_block(observation: Observation, objective: str) -> str:
    """The shared prompt tail carrying page context and the objective."""
    tabs = " | ".join(observation.open_tabs) if observation.open_tabs else "none"
    return (
        f"OBSERVATION: {observation.axtree}\n"
        f"URL: {observation.url}\n"
        f"OPEN TABS: {tabs}\n"
        f"OBJECTIVE: {objective}\n"
        f"PREVIOUS ACTION: {observation.previous_action}"
    )
