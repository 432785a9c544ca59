"""Fork server: runs each op in a fresh process, as a CLI invocation would.

Started by run.py with the checkout's `src` on PYTHONPATH and a fixed
PYTHONHASHSEED.  It imports `fanshear.cli`, calls nothing else, and then
serves requests, one JSON object per line on stdin:

    {"argv": [...], "stdout": path, "stderr": path, "result": path,
     "limit_s": seconds}

For each request it forks.  The child points sys.stdout and sys.stderr at
the given files, arms a SIGALRM timer whose default action kills it past
the limit, times `fanshear.cli.main(argv)` in wall time (perf_counter_ns)
and in CPU time (calib.cpu_ns), then times the reference task of
calib.py, and writes {"ns", "cpu_ns", "calib_ns", "code", "error"} (plus
"trace" when traced) to the result file.  The worker waits for the child
and answers with one line:
{"status": wait status, "maxrss_kb": the child's ru_maxrss}.

The lru_caches inside fanshear are empty in every child because the
worker never calls the library.  The worker is single-threaded, so
forking it is safe.

Usage: python3 worker.py <0|1>   (1 installs the tracer)
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback

import calib


def _run_child(cli, request: dict, tracer) -> None:
    signal.setitimer(signal.ITIMER_REAL, request["limit_s"])
    sys.stdout = open(request["stdout"], "w")
    sys.stderr = open(request["stderr"], "w")
    error = None
    cpu_start = calib.cpu_ns()
    start = time.perf_counter_ns()
    try:
        code = cli.main(request["argv"])
        sys.stdout.flush()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except BaseException:  # recorded as a traceback, which fails the op
        code = None
        error = traceback.format_exc()
    elapsed = time.perf_counter_ns() - start
    cpu = calib.cpu_ns() - cpu_start
    result = {"ns": elapsed, "cpu_ns": cpu, "calib_ns": calib.measure_ns(), "code": code,
              "error": error}
    signal.setitimer(signal.ITIMER_REAL, 0)
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(request["result"], "w") as handle:
        json.dump(result, handle)
    sys.stdout.close()
    sys.stderr.close()
    os._exit(0)


def main() -> None:
    traced = sys.argv[1] == "1"
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    import fanshear.cli as cli

    tracer = None
    if traced:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    calib.measure_ns()  # specializes its bytecode once, before any fork
    replies.write("ready\n")
    replies.flush()
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            try:
                _run_child(cli, request, tracer)
            finally:
                os._exit(70)
        _, status, usage = os.wait4(pid, 0)
        replies.write(json.dumps({"status": status, "maxrss_kb": usage.ru_maxrss}) + "\n")
        replies.flush()


if __name__ == "__main__":
    main()
