"""The seeded generator: reproducible, seed-dependent, and always solvable."""

from pathlib import Path

import pytest

import benchsupport  # noqa: F401
import taskgen
import workload


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_byte_identical_files(tmp_path):
    taskgen.generate(5, tmp_path / "a")
    taskgen.generate(5, tmp_path / "b")
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a == b
    assert len([name for name in a if name.startswith("scripts/gen-")]) == 3 * len(taskgen.PROFILES)


def test_different_seeds_give_different_sets(tmp_path):
    taskgen.generate(5, tmp_path / "a")
    taskgen.generate(6, tmp_path / "b")
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a.keys() == b.keys()
    changed = [name for name in a if name.startswith("scripts/gen-") and a[name] != b[name]]
    assert len(changed) > len(taskgen.PROFILES)
    # The packaged demo scenarios are copied unchanged.
    assert all(a[f"scripts/{t}.yaml"] == b[f"scripts/{t}.yaml"] for t in taskgen.DEMO_EXPECTED)


def test_generated_tasks_use_every_visit_kind_and_flow(tmp_path):
    plan = taskgen.generate(5, tmp_path)
    scripts = "".join((tmp_path / "scripts" / f"{t}.yaml").read_text() for t in plan["expected"])
    for needle in ("goto [", "scroll [", "go_back", "type [", "click [999]", "missing-",
                   "An action in this phase failed", "You decided to adjust", "```revise```"):
        assert needle in scripts, needle
    for task_id in plan["expected"]:
        if task_id.startswith("gen-"):
            assert "kind: url_match" in (tmp_path / "tasks" / f"{task_id}.yaml").read_text()


@pytest.mark.parametrize("seed", [0, 1])
def test_every_generated_task_succeeds(tmp_path, seed):
    inputs = workload.prepare("scripted-suite", seed, tmp_path)
    result = workload.run_pass("scripted-suite", inputs, tmp_path / "out")
    failures, _ = workload.check_pass("scripted-suite", inputs, result)
    assert failures == []
    assert result.attempted == len(inputs.plan["expected"])
    generated = [t for t, want in inputs.plan["expected"].items() if t.startswith("gen-")]
    assert generated and all(inputs.plan["expected"][t]["success"] for t in generated)
