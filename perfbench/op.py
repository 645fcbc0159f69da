"""Run pipeline ops, each in a fresh process forked from a warm server.

Usage: python3 op.py --serve

The server imports ``trustnet.pipeline`` and the tracer once, then reads one
JSON request per stdin line. For each it forks a child that runs one op and
exits, waits for the child, and answers with one JSON line on stdout. The
server itself never runs an op, so every child starts from the same state: a
process that has done the imports and nothing else. That is the state a fresh
``python3`` process reaches before the op's clock starts, without paying for
the imports on every op.

A request names the input files, the run directory, the cv_seed, whether to
trace, the result file, the file that takes the child's stdout and stderr,
and a timeout. ``wall_s`` and ``cpu_s`` cover the ``run_pipeline`` call only.
``peak_rss_mb`` is the child's peak resident set, which starts from the
server's resident set at the fork.

A child that outlives its timeout is killed. If stdin closes while an op
runs, the server kills the child, waits for it and exits.
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import sys
import time
import traceback


def run_one(req: dict) -> int:
    """Run one op in this process and write its measurements to ``req["result"]``."""
    from trustnet import pipeline

    tracer = None
    if req["trace"]:
        from tracing import Tracer

        tracer = Tracer(op=req["op"])
        tracer.install()
    config = pipeline.PipelineConfig(
        posts=req["posts"], knowledge_base=req["knowledge_base"], out_dir=req["out_dir"],
        cv_seed=req["cv_seed"],
    )
    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        pipeline.run_pipeline(config)
    except Exception:  # a failed op is reported in the result, not raised
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error,
    }
    if tracer is not None:
        tracer.uninstall()
        result["counts"] = tracer.counts()
        result["spans"] = tracer.span_dicts()
        result["count_errors"] = tracer.count_errors
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 1 if error else 0


def _child(req: dict) -> None:
    """Body of a forked child: redirect output, run the op, exit without cleanup."""
    code = 70
    try:
        out = os.open(req["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(out, 1)
        os.dup2(out, 2)
        os.close(out)
        null = os.open(os.devnull, os.O_RDONLY)
        os.dup2(null, 0)
        os.close(null)
        code = run_one(req)
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def _wait(pid: int, timeout_s: float) -> tuple[int, str | None]:
    """Wait for the child; kill it on timeout or when stdin closes. (status, why killed)."""
    pidfd = os.pidfd_open(pid)
    killed = None
    try:
        deadline = time.monotonic() + timeout_s
        while killed is None:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([pidfd, sys.stdin], [], [], max(0.0, left))
            if pidfd in ready:
                break
            # no request is sent while an op runs, so readable stdin means it closed
            killed = "driver went away" if ready else "op timed out"
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(pidfd)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), killed


def serve() -> int:
    from trustnet import pipeline  # noqa: F401  imported once, before any op's clock
    import tracing  # noqa: F401

    print(json.dumps({"ready": True}), flush=True)
    while True:
        line = sys.stdin.readline()
        if not line:
            return 0
        req = json.loads(line)
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            _child(req)
        status, killed = _wait(pid, req["timeout_s"])
        print(json.dumps({"status": status, "killed": killed}), flush=True)
        if killed == "driver went away":
            return 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(serve())
