"""The start-up probe, run end to end on one revision against itself."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from conftest import REPO

FIGURES = [
    "import_cached_ms", "import_cached_rss_mb", "import_compiling_ms",
    "import_compiling_rss_mb", "replay_wall_ms", "live_first_request_ms",
]


def test_startup_probe_compares_head_with_itself_and_leaves_no_trees(tmp_path):
    proc = subprocess.run(
        [sys.executable, "tools/startup.py", "--parent", "HEAD", "--change", "HEAD", "--runs", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=120,
        env={**os.environ, "TMPDIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["revisions"] == {"parent": "HEAD", "change": "HEAD"}
    for side in ("parent", "change"):
        assert list(summary[side]) == FIGURES
        for figure in summary[side].values():
            assert len(figure["values"]) == 1 and figure["median"] > 0
    assert list(summary["change_minus_parent"]) == FIGURES
    assert list(tmp_path.iterdir()) == []
