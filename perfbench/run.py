"""fanshear benchmark: cold-process CLI ops, checked, timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {pipeline,subdivided,iso} \\
        --seed N --seconds S --trace {0,1}

The seed fixes the inputs (gen.py), which are written under
.perfbench_work/ before timing starts.  One client runs a closed loop:
each op is forked from a worker that has only imported fanshear.cli
(worker.py), so every op starts with cold library caches, the way a CLI
invocation does, and is timed inside its own process around
`fanshear.cli.main(argv)`.  Ops run one at a time in rounds over the
workload's fixed input mix; rounds repeat while another one fits in S
seconds.  Every output is checked (check.py) against references recorded
in references.json or against facts known by construction.

Time metrics count CPU time at a fixed reference speed of the machine:
each op's CPU time (and each set-up's) is scaled by the CPU time of
calib.py's reference task, run in the same process right after it,
relative to REFERENCE_CALIB_MS.  The unscaled wall-clock figures are
printed too.

--trace 0 prints the end-to-end metrics; --trace 1 runs each op both
untraced and traced (tracer.py), requires byte-identical stdout from the
two, prints the per-layer metrics and writes the per-op trace summaries
to .perfbench_out/.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

HASH_SEED = "0"
OP_LIMIT_S = 20
# Set-up is sampled after every round, so its median spans the whole run.
SETUP_PER_ROUND = 2
SETUP_MIN_SAMPLES = 11
# A round has an odd number of ops (31, 33 and 23), and its mix (gen.py)
# puts the median inside a cluster of ops of like cost.  The tail percentile
# is the highest whole one that keeps at least ten samples beyond it at the
# round counts a run_seconds run reaches on a slow moment of a two-core
# machine; it falls inside the cluster of each workload's dearest ops.
TAIL_PERCENTILE = {"pipeline": 94, "subdivided": 94, "iso": 92}
# Round r runs input set r % INPUT_SETS of the seed, so a run's figures
# average over several draws of pool members and relabellings instead of
# resting on one; a run holds six to nine rounds.
INPUT_SETS = 8
# Time metrics are CPU times at the speed where calib.py's reference task
# takes this much CPU time in an op process: about its median on the
# two-vCPU host where the benchmark was added.  That host takes the core
# away for tens of milliseconds at a time and its speed drifts by up to a
# factor of two over minutes.  CPU time leaves out the first, and scaling
# each sample by the reference task timed in the same process right after
# it takes out most of the second, while a change to fanshear moves the
# figures as it moves the op's own time.
REFERENCE_CALIB_MS = 9.0

SETUP_CODE = (
    "import sys, time\n"
    "cpu_start, start = time.process_time(), time.perf_counter()\n"
    "import fanshear.cli\n"
    "wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import calib\n"
    "print(wall, cpu, calib.measure_ns() / 1e6)\n"
)


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def measure_setup(root: Path, count: int) -> list[tuple[float, float, float]]:
    """For `count` fresh interpreters: wall and CPU seconds spent importing
    fanshear.cli, and the CPU milliseconds the reference task took right
    after."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(HERE)], env=worker_env(root), cwd=root,
            capture_output=True, text=True, timeout=60, check=True,
        )
        wall, cpu, calib_ms = map(float, done.stdout.split())
        samples.append((wall, cpu, calib_ms))
    return samples


class Worker:
    """A running worker.py process and its request/reply pipes."""

    def __init__(self, root: Path, traced: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=worker_env(root),
            cwd=root, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("worker failed to start")

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Outcome:
    """What one execution of one op produced."""

    ms: float | None = None
    cpu_ms: float | None = None
    calib_ms: float | None = None
    maxrss_kb: int = 0
    stdout: str = ""
    failure: str | None = None
    trace: dict | None = None
    code: int | None = None


def execute(worker: Worker, op: gen.Op, slot: Path, refs: dict | None) -> Outcome:
    """Run one op in a fresh process and check its output, unless refs is None."""
    files = {k: str(slot / f"{k}.txt") for k in ("stdout", "stderr", "result")}
    reply = worker.run({"argv": op.argv, "limit_s": OP_LIMIT_S, **files})
    status = reply["status"]
    if os.WIFSIGNALED(status):
        return Outcome(failure=f"killed by signal {os.WTERMSIG(status)} "
                               f"(limit {OP_LIMIT_S} s)")
    if os.WEXITSTATUS(status) != 0:
        return Outcome(failure=f"op process exited with {os.WEXITSTATUS(status)}")
    result = json.loads(Path(files["result"]).read_text())
    stdout = Path(files["stdout"]).read_text()
    outcome = Outcome(result["ns"] / 1e6, result["cpu_ns"] / 1e6, result["calib_ns"] / 1e6,
                      reply["maxrss_kb"], stdout, trace=result.get("trace"), code=result["code"])
    if result["error"]:
        outcome.failure = "traceback: " + result["error"].strip().splitlines()[-1]
        return outcome
    if refs is None:
        return outcome
    try:
        check.check(op, result["code"], stdout, refs)
    except check.CheckFailure as exc:
        outcome.failure = str(exc)
    return outcome


def cleanup(op: gen.Op) -> None:
    if "out_dir" in op.expect:
        shutil.rmtree(op.expect["out_dir"], ignore_errors=True)


def at_reference(outcome: Outcome) -> float:
    """The op's CPU milliseconds at the reference speed.

    The op's CPU time is scaled by how much longer or shorter than
    REFERENCE_CALIB_MS the reference task took in the same process right
    after it.  An op killed at the limit, or whose process died, counts as
    taking the limit.
    """
    if outcome.cpu_ms is None or outcome.calib_ms is None:
        return OP_LIMIT_S * 1000
    return outcome.cpu_ms * REFERENCE_CALIB_MS / outcome.calib_ms


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ---- per-layer metrics -------------------------------------------------------

def _calls(name):
    return lambda f, c, n: f.get(name, (0, 0, 0))[0] / n


def _self_ms(name):
    return lambda f, c, n: f.get(name, (0, 0, 0))[2] / 1e6 / n


def _module_self_ms(module):
    return lambda f, c, n: sum(
        row[2] for k, row in f.items() if k.split(".", 1)[0] == module) / 1e6 / n


def _count(key):
    return lambda f, c, n: c.get(key, 0) / n


def _ratio(key, name):
    def metric(f, c, n):
        calls = f.get(name, (0, 0, 0))[0]
        return c.get(key, 0) / calls if calls else 0.0
    return metric


LAYER_METRICS = {
    # name: (unit, better, function of (functions, counts, ops))
    "lattice.linear_feasible.calls": ("count/op", "lower", _calls("lattice.linear_feasible")),
    "lattice.linear_feasible.self_ms": ("ms/op", "lower", _self_ms("lattice.linear_feasible")),
    "fan.make_fan.calls": ("count/op", "lower", _calls("fan.make_fan")),
    "fan.make_fan.self_ms": ("ms/op", "lower", _self_ms("fan.make_fan")),
    "fan.make_fan.face_pairs": ("count/op", "lower", _count("fan.make_fan.face_pairs")),
    "fan.primitive_collections.calls": ("count/op", "lower",
                                        _calls("fan.primitive_collections")),
    "fan.primitive_collections.self_ms": ("ms/op", "lower",
                                          _self_ms("fan.primitive_collections")),
    "fan.fan_isomorphism.calls": ("count/op", "lower", _calls("fan.fan_isomorphism")),
    "fan.fan_isomorphism.self_ms": ("ms/op", "lower", _self_ms("fan.fan_isomorphism")),
    "fan.fan_isomorphism.frames_per_call": (
        "frames/call", "lower", _ratio("fan.fan_isomorphism.frames", "fan.fan_isomorphism")),
    "lattice.change_of_basis.calls": ("count/op", "lower", _calls("lattice.change_of_basis")),
    "lattice.unimodular_map.constructions": ("count/op", "lower",
                                             _calls("lattice.UnimodularMap.__post_init__")),
    "fan.fan_from_relations.calls": ("count/op", "lower", _calls("fan.fan_from_relations")),
    "fan.fan_from_relations.self_ms": ("ms/op", "lower", _self_ms("fan.fan_from_relations")),
    "fan.fan_from_relations.make_fan_per_call": (
        "count/call", "lower", _ratio("fan.fan_from_relations.make_fan",
                                      "fan.fan_from_relations")),
    "deform.find_splittings.calls": ("count/op", "lower", _calls("deform.find_splittings")),
    "deform.find_splittings.self_ms": ("ms/op", "lower", _self_ms("deform.find_splittings")),
    "deform.fiber_type.calls": ("count/op", "lower", _calls("deform.fiber_type")),
    "deform.fiber_type.self_ms": ("ms/op", "lower", _self_ms("deform.fiber_type")),
    "deform.fiber_type.useful_ratio": ("ratio", "higher",
                                       _ratio("deform.fiber_type.useful", "deform.fiber_type")),
    "deform.star_equivalent.frames_per_call": (
        "frames/call", "lower", _ratio("deform.star_equivalent.frames",
                                       "deform.star_equivalent")),
    "deform.shear_lower.calls": ("count/op", "lower", _calls("deform.shear_lower")),
    "deform.shear_lower.self_ms": ("ms/op", "lower", _self_ms("deform.shear_lower")),
    "scroll.reduce_step.calls": ("count/op", "lower", _calls("scroll.reduce_step")),
    "scroll.reduce_step.self_ms": ("ms/op", "lower", _self_ms("scroll.reduce_step")),
    "scroll.bundle_fan.calls": ("count/op", "lower", _calls("scroll.bundle_fan")),
    "divisor.classify_fano.calls": ("count/op", "lower", _calls("divisor.classify_fano")),
    "divisor.classify_fano.self_ms": ("ms/op", "lower", _self_ms("divisor.classify_fano")),
    "divisor.nef_ample_status.self_ms": ("ms/op", "lower",
                                         _self_ms("divisor.nef_ample_status")),
    "divisor.class_group.calls": ("count/op", "lower", _calls("divisor.class_group")),
    "lattice.det.calls": ("count/op", "lower", _calls("lattice.det")),
    "lattice.det.self_ms": ("ms/op", "lower", _self_ms("lattice.det")),
    "lattice.solve_integer.calls": ("count/op", "lower", _calls("lattice.solve_integer")),
    "lattice.solve_integer.self_ms": ("ms/op", "lower", _self_ms("lattice.solve_integer")),
    "fileformats.parse_fan.self_ms": ("ms/op", "lower", _self_ms("fileformats.parse_fan")),
    "fileformats.parse_fan.bytes": ("B/op", "lower", _count("fileformats.parse_fan.bytes")),
    "fileformats.serialize_fan.self_ms": ("ms/op", "lower",
                                          _self_ms("fileformats.serialize_fan")),
    "fileformats.serialize_fan.bytes": ("B/op", "lower",
                                        _count("fileformats.serialize_fan.bytes")),
    **{f"{m}.self_ms": ("ms/op", "lower", _module_self_ms(m))
       for m in ("lattice", "fan", "divisor", "deform", "scroll", "catalog",
                 "fileformats", "cli")},
}
OVERHEAD = "trace.overhead_ratio"


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-op means (and per-call ratios) over the traced ops of the run."""
    functions: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for trace in traces:
        for name, row in trace["functions"].items():
            total = functions.setdefault(name, [0, 0, 0])
            for i, v in enumerate(row):
                total[i] += v
        for key, v in trace["counts"].items():
            counts[key] = counts.get(key, 0) + v
    n = len(traces)
    return {name: fn(functions, counts, n) for name, (_, _, fn) in LAYER_METRICS.items()}


# ---- the run -----------------------------------------------------------------

def run(workload: str, seed: int, seconds: int, traced: bool, root: Path) -> dict:
    refs = json.loads((HERE / "references.json").read_text())
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workers = []
    try:
        op_sets = [gen.generate(workload, seed, work / f"set{k}", refs, k)
                   for k in range(INPUT_SETS)]
        slot = work / "op"
        slot.mkdir(parents=True)
        measure_setup(root, 1)  # compiles bytecode; not timed
        setup: list[tuple[float, float, float]] = []
        workers.append(Worker(root, traced=False))
        if traced:
            workers.append(Worker(root, traced=True))
        plain: list[Outcome] = []
        traced_runs: list[Outcome] = []
        ran: list[gen.Op] = []
        failures: list[str] = []
        start = time.monotonic()
        rounds = 0
        while True:
            round_start = time.monotonic()
            for i, op in enumerate(op_sets[rounds % INPUT_SETS]):
                # Alternate which side runs first, so neither gets a warmer machine.
                order = workers if (i + rounds) % 2 == 0 else workers[::-1]
                outcomes = {}
                for worker in order:
                    outcomes[worker] = execute(worker, op, slot, refs)
                    cleanup(op)
                mine = outcomes[workers[0]]
                plain.append(mine)
                ran.append(op)
                if traced:
                    other = outcomes[workers[1]]
                    traced_runs.append(other)
                    if other.failure is None and other.stdout != mine.stdout:
                        other.failure = "traced stdout differs from untraced stdout"
                for outcome in outcomes.values():
                    if outcome.failure:
                        failures.append(f"{' '.join(op.argv)}: {outcome.failure}")
            rounds += 1
            round_end = time.monotonic()
            setup += measure_setup(root, SETUP_PER_ROUND)
            if time.monotonic() - start + (round_end - round_start) > seconds:
                break
        setup += measure_setup(root, max(0, SETUP_MIN_SAMPLES - len(setup)))
    finally:
        for worker in workers:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(plain) + len(traced_runs)
    latencies = [at_reference(o) for o in plain]
    wall = [OP_LIMIT_S * 1000 if o.ms is None else o.ms for o in plain]
    correct = sum(o.failure is None for o in plain)
    calib = [o.calib_ms for o in plain if o.calib_ms is not None] or [math.nan]
    p = TAIL_PERCENTILE[workload]
    info = {
        "workload": workload, "seed": seed, "rounds": rounds,
        "ops_per_round": len(op_sets[0]), "input_sets": INPUT_SETS,
        "samples": len(latencies), "tail_percentile": p,
        "samples_beyond_tail": sum(v > percentile(latencies, p) for v in latencies),
        "calib_ms": round(statistics.median(calib), 3),
        "calib_ms_range": [round(min(calib), 3), round(max(calib), 3)],
        "wall": {
            "latency_p50_ms": round(statistics.median(wall), 3),
            "latency_tail_ms": round(percentile(wall, p), 3),
            "throughput_ops_s": round(correct / (sum(wall) / 1000), 3),
            "setup_s": round(statistics.median(wall for wall, _, _ in setup), 5),
        },
        "setup_s_samples": len(setup), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "pythonhashseed": HASH_SEED,
        "failed_ops_frac": len(failures) / attempted,
    }
    if traced:
        metrics = layer_metrics([o.trace for o in traced_runs if o.trace])
        traced_ms = [at_reference(o) for o in traced_runs]
        metrics[OVERHEAD] = statistics.median(traced_ms) / statistics.median(latencies)
        units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
        units[OVERHEAD] = "ratio"
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        ops_out = [
            {"round": k // len(op_sets[0]), "slot": op.slot, "argv": op.argv, "ms": o.ms,
             **(o.trace or {})}
            for k, (op, o) in enumerate(zip(ran, traced_runs))
        ]
        (out_dir / f"trace-{workload}-seed{seed}.json").write_text(
            json.dumps({"info": info, "metrics": metrics, "ops": ops_out}))
    else:
        metrics = {
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": percentile(latencies, p),
            "throughput_ops_s": correct / (sum(latencies) / 1000),
            "setup_s": statistics.median(cpu * REFERENCE_CALIB_MS / calib_ms
                                         for _, cpu, calib_ms in setup),
            "peak_rss_mb": max(o.maxrss_kb for o in plain) / 1024,
        }
        units = {"latency_p50_ms": "ms", "latency_tail_ms": "ms", "throughput_ops_s": "1/s",
                 "setup_s": "s", "peak_rss_mb": "MB"}
    return {
        "info": info,
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fanshear" / "cli.py").is_file():
        print("perfbench: run from a fanshear checkout (src/fanshear/cli.py not found)",
              file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    for failure in out["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    info = out["info"]
    print(f"workload {info['workload']}  seed {info['seed']}  rounds {info['rounds']}  "
          f"samples {info['samples']}  tail p{info['tail_percentile']} "
          f"({info['samples_beyond_tail']} beyond)")
    for name, metric in out["result"]["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"CPU time at reference speed (calib.py task {REFERENCE_CALIB_MS} ms); wall clock: "
          + ", ".join(f"{k} {v:.6g}" for k, v in info["wall"].items())
          + f"; calib task median {info['calib_ms']} ms")
    r = out["result"]
    print(f"failed_ops_frac: {info['failed_ops_frac']:.6g} ({r['failed']}/{r['attempted']})")
    print("diagnostics: " + json.dumps(info))
    print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
