"""Self-tests of the benchmark harness.  From the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

REFS = json.loads((HERE / "references.json").read_text())


@pytest.fixture
def work():
    path = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _small_ops(work: Path) -> list[gen.Op]:
    """One cheap op of each kind, taken from the seeded workloads."""
    ops = []
    for workload, kinds in (("pipeline", ("verify", "chain")), ("subdivided", ("check",)),
                            ("iso", ("iso",))):
        generated = gen.generate(workload, 3, work / workload, REFS)
        for kind in kinds:
            ops.append(next(op for op in generated if op.kind == kind))
    return ops


def _execute_all(worker, ops, work):
    slot = work / "op"
    slot.mkdir(exist_ok=True)
    outcomes = []
    for op in ops:
        outcomes.append(run.execute(worker, op, slot, REFS))
        run.cleanup(op)
    return outcomes


def test_traced_and_untraced_stdout_identical(work):
    ops = _small_ops(work)
    plain = run.Worker(ROOT, traced=False)
    traced = run.Worker(ROOT, traced=True)
    try:
        untraced_out = _execute_all(plain, ops, work)
        traced_out = _execute_all(traced, ops, work)
    finally:
        plain.close()
        traced.close()
    for op, a, b in zip(ops, untraced_out, traced_out):
        assert a.failure is None and b.failure is None, (op.argv, a.failure, b.failure)
        assert a.stdout == b.stdout, op.argv
        assert a.trace is None and b.trace["functions"]["cli.main"][0] == 1


def test_traced_call_counts_repeat(work):
    ops = _small_ops(work)
    traced = run.Worker(ROOT, traced=True)
    try:
        first = _execute_all(traced, ops, work)
        second = _execute_all(traced, ops, work)
    finally:
        traced.close()
    for a, b in zip(first, second):
        calls_a = {k: v[0] for k, v in a.trace["functions"].items()}
        calls_b = {k: v[0] for k, v in b.trace["functions"].items()}
        assert calls_a == calls_b
        assert a.trace["counts"] == b.trace["counts"]
    metrics = run.layer_metrics([o.trace for o in first])
    assert set(metrics) == set(run.LAYER_METRICS)


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    produced = {k: (unit, better) for k, (unit, better, _) in run.LAYER_METRICS.items()}
    produced[run.OVERHEAD] = ("ratio", "lower")
    assert declared == produced
    assert {w["name"] for w in spec["workloads"]} == set(gen.WORKLOADS)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(work, workload):
    def snapshot(directory: Path, seed: int):
        ops = gen.generate(workload, seed, directory, REFS)
        files = {p.name: p.read_text() for p in sorted(directory.rglob("*.fan"))}
        argv = [[a.replace(str(directory), "") for a in op.argv] for op in ops]
        return argv, files

    assert snapshot(work / "a", 11) == snapshot(work / "b", 11)
    assert snapshot(work / "a", 11) != snapshot(work / "c", 12)


def _report(ops, kind, work):
    worker = run.Worker(ROOT, traced=False)
    try:
        op = next(op for op in ops if op.kind == kind and op.expect.get("isomorphic", True))
        outcome = run.execute(worker, op, work / "op", REFS)
    finally:
        worker.close()
    assert outcome.failure is None
    return op, outcome


def test_checker_flags_tampered_relation(work):
    (work / "op").mkdir()
    op, outcome = _report(gen.generate("subdivided", 5, work, REFS), "check", work)
    report = json.loads(outcome.stdout)
    check.check(op, outcome.code, outcome.stdout, REFS)
    lhs, rhs = report["relation"][0].split(" = ")
    report["relation"][0] = f"{lhs} = {rhs} + 1*{lhs.split('+')[0]}"
    with pytest.raises(check.CheckFailure):
        check.check(op, outcome.code, json.dumps(report), REFS)


def test_checker_flags_wrong_iso_matrix(work):
    (work / "op").mkdir()
    op, outcome = _report(gen.generate("iso", 5, work, REFS), "iso", work)
    report = json.loads(outcome.stdout)
    check.check(op, outcome.code, outcome.stdout, REFS)
    rows = [[int(x) for x in r.split()] for r in report["matrix_row"]]
    rows[0] = [a + b for a, b in zip(rows[0], rows[1])]  # still unimodular
    report["matrix_row"] = [" ".join(map(str, r)) for r in rows]
    with pytest.raises(check.CheckFailure):
        check.check(op, outcome.code, json.dumps(report), REFS)
    report["matrix_row"] = report["matrix_row"][::-1]
    with pytest.raises(check.CheckFailure):
        check.check(op, outcome.code, json.dumps(report), REFS)


def test_reference_task_never_loads_fanshear():
    """Scaling by the reference task must leave a change to fanshear visible."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import calib; calib.measure_ns(); "
            "print(sorted(m for m in sys.modules if m.startswith('fanshear')))")
    done = subprocess.run([sys.executable, "-c", code, str(HERE)], env=run.worker_env(ROOT),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
