"""Record the input pools and the reference answers the checker uses.

Runs every candidate input through the CLI, each op in a fresh process
exactly as run.py does: the ten catalog verifies, SUBDIVISION_CANDIDATES
subdivisions per (base, ray count) and CHAIN_CANDIDATES twist pairs per
dimension.  Per slot it keeps the POOL_SIZE candidates whose op times,
at the reference speed (run.at_reference), lie closest together, so a
seed's choice among them moves the workload's cost little, and writes
their mathematical facts to references.json.  Rerun it only when the program's answers are meant to
change.  From the repository root:

    python3 perfbench/record_refs.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

POOL_SIZE = 4
TIMING_PASSES = 5


def _tightest(costs: dict[str, float]) -> list[str]:
    """The POOL_SIZE keys whose costs span the smallest ratio."""
    ranked = sorted(costs, key=lambda k: (costs[k], k))
    start = min(range(len(ranked) - POOL_SIZE + 1),
                key=lambda i: costs[ranked[i + POOL_SIZE - 1]] / costs[ranked[i]])
    return ranked[start:start + POOL_SIZE]


def main() -> None:
    root = HERE.parent
    work = root / ".perfbench_work" / "record"
    slot = work / "op"
    slot.mkdir(parents=True, exist_ok=True)
    worker = run.Worker(root, traced=False)
    try:
        def measure(ops: dict[str, gen.Op]) -> tuple[dict[str, float], dict[str, dict]]:
            """Median of TIMING_PASSES cold runs per op at the reference speed,
            and its facts."""
            times: dict[str, list[float]] = {key: [] for key in ops}
            facts: dict[str, dict] = {}
            for _ in range(TIMING_PASSES):
                for key, op in ops.items():
                    outcome = run.execute(worker, op, slot, None)
                    if outcome.failure or outcome.ms is None:
                        raise SystemExit(f"{key}: {outcome.failure}")
                    times[key].append(run.at_reference(outcome))
                    facts[key] = check.facts(op.kind, outcome.code, json.loads(outcome.stdout))
            return {key: statistics.median(t) for key, t in times.items()}, facts

        verify_ops = {n: gen.Op("verify", ["--json", "catalog", "verify", n])
                      for n in gen.VERIFY_NAMES}
        refs = {"verify": measure(verify_ops)[1], "check": {}, "chain": {}}

        inputs = work / "inputs"
        inputs.mkdir()
        check_ops = {}
        for key, fan in gen.subdivision_candidates().items():
            path = inputs / f"{len(check_ops)}.fan"
            path.write_text(fan.text())
            check_ops[key] = gen.Op("check", ["--json", "check", str(path)])
        costs, facts = measure(check_ops)
        for base in gen.SUBDIVIDED_BASES:
            for ray_count in gen.SUBDIVIDED_RAYS:
                prefix = f"{base}/{ray_count}/"
                slot_costs = {k: c for k, c in costs.items() if k.startswith(prefix)}
                for key in _tightest(slot_costs):
                    refs["check"][key] = facts[key]

        chain_ops = {}
        for d, pairs in gen.chain_candidates().items():
            for p, q in pairs:
                argv = ["--json", "chain", "--dim", str(d), "--from", ",".join(map(str, p)),
                        "--to", ",".join(map(str, q))]
                chain_ops[gen.chain_key(d, p, q)] = gen.Op("chain", argv)
        costs, facts = measure(chain_ops)
        for d in gen.CHAIN_DIMS:
            slot_costs = {k: c for k, c in costs.items() if k.startswith(f"{d}:")}
            for key in _tightest(slot_costs):
                refs["chain"][key] = facts[key]
    finally:
        worker.close()
        shutil.rmtree(work, ignore_errors=True)
    sections = [
        f"  {json.dumps(section)}: {{\n" + ",\n".join(
            f"    {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in sorted(entries.items())
        ) + "\n  }"
        for section, entries in refs.items()
    ]
    (HERE / "references.json").write_text("{\n" + ",\n".join(sections) + "\n}\n")


if __name__ == "__main__":
    main()
