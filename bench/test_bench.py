"""Tests of the benchmark itself: seeded generation, the sympy checker,
the timeout path and the span recorder.  Run with
PYTHONPATH=src python -m pytest bench/test_bench.py."""

from __future__ import annotations

import copy
import json
import signal

import pytest

import calib
import child
import gen
import ref
import spans
import qrank.cli

LISTED = ("rank-q", "rank-ext", "substitute-q")


@pytest.mark.parametrize("workload", LISTED)
def test_same_seed_same_tasks_other_seed_other_tasks(workload):
    first = json.dumps(gen.tasks_for(workload, 5))
    assert json.dumps(gen.tasks_for(workload, 5)) == first
    assert json.dumps(gen.tasks_for(workload, 6)) != first
    assert len(json.loads(first)) >= 100


D_I = {"min_poly": {"coeffs": ["1", "0", "1"]}}
CHECKED = [
    ("rank", {"ring": "Q", "char_poly": {"coeffs": ["-64", "1"]}}, ["result", "rank"]),
    ("hereditary", {"field": D_I, "poly": {"coeffs": [["-4", "0"], ["1", "0"]]}}, ["result", "factors"]),
    ("reduct-rank", {"ring": "Q", "char_poly": {"coeffs": ["-4", "1"]}, "n": 24}, ["result", "rank"]),
    ("oracle", {"field": "Q", "poly": {"coeffs": ["-1", "1"]}, "n_list": [12]}, ["result", "counts"]),
]


@pytest.mark.parametrize("command,payload,path", CHECKED)
def test_checker_flags_a_rank_changed_by_one(command, payload, path):
    task = {"command": command, "payload": payload}
    report, _ = qrank.cli.run_task(command, payload)
    assert ref.check(task, report) is None
    for delta in (1, -1):
        bad = copy.deepcopy(report)
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        if isinstance(value, int):
            parent[path[-1]] = value + delta
        elif path[-1] == "factors":
            parent[path[-1]] = value + value[:1] if delta > 0 else value[1:]
        else:
            parent[path[-1]] = [value[0] + delta] + value[1:]
        assert ref.check(task, bad) is not None


def test_checker_expects_validation_failed_exactly_when_preconditions_fail():
    cyclotomic = {"command": "rank", "payload": {"ring": "Q", "char_poly": {"coeffs": ["1", "1", "1"]}}}
    report, _ = qrank.cli.run_task(cyclotomic["command"], cyclotomic["payload"])
    assert report["status"] == "validation_failed"
    assert ref.check(cyclotomic, report) is None
    assert ref.check(cyclotomic, {"status": "ok", "result": {"rank": 1, "witness": {"N": 1}}}) is not None


def test_timeout_is_a_failure_not_a_parse_error():
    slow = {"command": "oracle", "payload": {"field": "Q", "poly": {"coeffs": ["-1", "1"]}, "n_list": [120]}}
    previous = signal.signal(signal.SIGALRM, child._alarm)
    try:
        report, latency = child.run_one(qrank.cli.run_task, slow, 0.05)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert report == {"status": "timeout"}
    assert latency == 0.05
    assert ref.check(slow, report) is not None


def test_traced_calls_repeat_and_tracing_keeps_reports():
    tasks = gen.tasks_for("rank-q", 5)[:20]
    plain = child.run_loop(qrank.cli.run_task, tasks, 10.0, 0)
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        patches = spans.install(tracer)
        try:
            traced = child.run_loop(qrank.cli.run_task, tasks, 10.0, 0, tracer)
        finally:
            spans.restore(patches)
        assert traced["digest"] == plain["digest"]
        counts.append(dict(tracer.calls))
        assert tracer.ok_calls["hereditary.has_root_of_unity_root"] == 3 * tracer.ok_tasks
    assert counts[0] == counts[1]
    assert not hasattr(qrank.cli.run_task, "__wrapped__")


def test_scaling_follows_the_calibration_loop_near_each_task():
    times = [0.01, 0.02, 0.03]
    assert calib.scale(times, [calib.REF_S] * 3) == times
    slow = calib.scale(times, [2 * calib.REF_S] * 3)
    assert slow == pytest.approx([t / 2 for t in times])
    # one interrupted calibration sample does not move the speed
    assert calib.scale(times, [calib.REF_S, 50 * calib.REF_S, calib.REF_S]) == pytest.approx(times)
    # a set-up time between reference imports that took twice their reference time
    assert calib.scale_setup([0.2], [2 * calib.REF_IMPORT_S] * 2) == pytest.approx([0.1])
