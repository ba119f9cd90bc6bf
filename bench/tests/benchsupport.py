"""Shared set-up for the bench tests: import paths and recorded inputs.

Not a conftest.py: the repository's own tests import their conftest by
module name, and a second conftest module would shadow it.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workload  # noqa: E402


@pytest.fixture(scope="session")
def replay_inputs(tmp_path_factory):
    """Seed-0 inputs with their scripted-suite transcripts recorded."""
    return workload.prepare("replay-verify", 0, tmp_path_factory.mktemp("replay"))
