"""Benchmark child process: runs a task list through qrank.cli.run_task.

The load is a closed loop: one client, one thread, the next task sent
when the last one returns.  The child imports qrank and, for a traced
run, the benchmark's span recorder; never the sympy reference.

    python3 bench/child.py --src SRC --tasks TASKS.json --out OUT.json
        --seconds S --limit L [--trace 0|1] [--spans SPANS.jsonl]

Before every task the child times the calibration loop of calib.py.
Untraced (--trace 0): whole passes over the list, as many as come closest
to S seconds.  Traced (--trace 1): one untraced pass, then one traced
pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
import time

import calib


class TaskTimeout(BaseException):
    """Raised when a task passes the time limit.  A BaseException, so that
    run_task's catch-all `except Exception` cannot report it as
    parse_error."""


def _alarm(signum, frame):
    raise TaskTimeout()


def run_one(run_task, task: dict, limit: float) -> tuple[dict, float]:
    """(report, latency); a task that passes the limit counts at the limit."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            report, _ = run_task(task["command"], task["payload"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TaskTimeout:
        return {"status": "timeout"}, limit
    except Exception as exc:  # run_task must not raise; record it if it does
        report = {"status": "escaped", "error": f"{type(exc).__name__}: {exc}"}
    return report, time.perf_counter() - start


def peak_rss_mib() -> float:
    """This process's high-water RSS.  Not ru_maxrss, which keeps the RSS
    the parent had when it started this process: exec leaves it in place."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def run_loop(run_task, tasks: list[dict], limit: float, seconds: float, tracer=None) -> dict:
    """Closed loop of whole passes over the list, as many as bring the
    elapsed time closest to `seconds`, and at least one.  Reports of later
    passes must repeat the first pass's reports exactly.  The calibration
    loop is timed before every task, for the host's speed at that moment."""
    first, texts, latencies, cals, differ, passes = [], [], [], [], 0, 0
    digest = hashlib.sha256()
    start = time.perf_counter()
    while True:
        for i, task in enumerate(tasks):
            cals.append(calib.seconds())
            if tracer:
                tracer.begin_task(i)
            report, latency = run_one(run_task, task, limit)
            if tracer:
                tracer.end_task(report["status"] == "ok")
            text = canonical(report)
            if not passes:
                first.append(report)
                texts.append(text)
                digest.update(text.encode() + b"\n")
            elif text != texts[i]:
                differ += 1
            latencies.append(latency)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes / 2 >= seconds:
            break
    return {
        "wall_s": elapsed,
        "passes": passes,
        "reports": first,
        "latencies": latencies,
        "cals": cals,
        "digest": digest.hexdigest(),
        "differ": differ,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--tasks", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--limit", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import qrank.cli

    src = os.path.realpath(args.src)
    if not os.path.realpath(qrank.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"qrank was imported from {qrank.cli.__file__}, not from {src}")
    with open(args.tasks, encoding="utf-8") as fh:
        tasks = json.load(fh)
    signal.signal(signal.SIGALRM, _alarm)

    # a traced run times one untraced pass, for the tracing overhead
    out = run_loop(qrank.cli.run_task, tasks, args.limit, 0 if args.trace else args.seconds)
    out["peak_rss_mib"] = peak_rss_mib()

    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        traced = run_loop(qrank.cli.run_task, tasks, args.limit, 0, tracer)
        traced.update(
            calls=tracer.calls,
            self_ms={k: v * 1e3 for k, v in tracer.self_s.items()},
            found=tracer.found,
            ok_calls=tracer.ok_calls,
            ok_tasks=tracer.ok_tasks,
        )
        del traced["reports"]
        out["traced"] = traced
        if args.spans:
            tracer.write(args.spans)
    out["sympy_imported"] = "sympy" in sys.modules
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
