"""The outside-in tracer: same outputs traced or not, nothing left installed."""

import pytest

from benchsupport import replay_inputs  # noqa: F401
import workload
from spantrace import LAYERS, Tracer


def _paths(targets):
    return [path for t in targets for path in (t.path, t.begin) if path]


def _installed(targets):
    current = {}
    for t in targets:
        for path in _paths([t]):
            owner, attr = t.resolve(path)
            current[path] = vars(owner)[attr]
    return current


def _pass(name, inputs, out, traced):
    tracer = Tracer(workload.targets(name, traced))
    with tracer:
        result = workload.run_pass(name, inputs, out)
    failures, digest = workload.check_pass(name, inputs, result)
    assert failures == []
    return tracer, result, digest


def _outcomes(name, result):
    if name == "replay-verify":
        return [(task_id, r.ok, r.outcome) for task_id, r in result.results]
    return [run.outcome for _, report, _ in result.results for run in report.runs]


@pytest.mark.parametrize("name", ["scripted-suite", "replay-verify"])
def test_traced_pass_matches_untraced_and_restores_every_name(name, replay_inputs, tmp_path):
    targets = workload.targets(name, traced=True)
    before = _installed(targets)

    _, plain, plain_digest = _pass(name, replay_inputs, tmp_path / "plain", traced=False)
    tracer, traced, traced_digest = _pass(name, replay_inputs, tmp_path / "traced", traced=True)

    # Transcripts minus volatile fields (suites) or replay verdicts agree.
    assert traced_digest == plain_digest
    assert _outcomes(name, traced) == _outcomes(name, plain)
    after = _installed(targets)
    assert after.keys() == before.keys() and all(after[p] is before[p] for p in before)

    totals = tracer.totals()
    op = targets[0].name
    assert totals[op]["calls"] == traced.attempted
    for layer in ("webenv.load_fixture", "webenv.render_nodes", "backend.call_llm", "grammar.parse"):
        assert totals[layer]["calls"] > 0
    sums = workload.layer_sums(tracer, traced.injected_s)
    metrics = workload.per_layer_metrics(sums, traced.attempted)
    assert metrics["webenv.load_fixture.calls"][0] == 1.0
    if name == "replay-verify":
        assert metrics["transcript.read_transcript.ms"][0] > 0
        assert metrics["backend.load_script_file.calls"][0] == 0
    else:
        assert metrics["transcript.write_transcript.ms"][0] > 0
        assert metrics["transcript.read_transcript.ms"][0] == 0
        # Each task's op opens at the backend factory call, so its script
        # load sits inside the op.
        loads = [s for s in tracer.finished() if s.name == "backend.load_script_file"]
        ops = {s.id: s for s in tracer.finished() if s.name == op}
        assert len(loads) == traced.attempted
        assert all(s.op in ops and s.parent == s.op and ops[s.op].t0 < s.t0 for s in loads)


def test_uninstall_restores_names_after_an_error():
    targets = workload.targets("latency-parallel", traced=True)
    before = _installed(targets)
    with pytest.raises(RuntimeError), Tracer(targets):
        assert _installed(targets) != before
        raise RuntimeError("boom")
    after = _installed(targets)
    assert after.keys() == before.keys() and all(after[p] is before[p] for p in before)
    assert {t.name for t in LAYERS} <= {name.rsplit(".", 1)[0] for name in workload.PER_LAYER}
