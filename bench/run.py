"""qrank benchmark: seeded task lists run through qrank.cli.run_task in a
fresh child process, every verdict checked against sympy.

    python3 bench/run.py --workload rank-q --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of one traced pass.  `all` runs every workload of BENCHMARK.json both
ways.  The last line of output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Run records, task lists, spans and sympy's factor degrees (kept between
runs) go to .bench_out/ in the checkout.
See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import calib
import gen
import ref
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
REFERENCE = OUT / "reference-degrees.json"  # sympy's answers, kept between runs

TASK_LIMIT_S = 10.0  # per task; a task that passes it fails and counts at it
CHILD_TIMEOUT_S = 150.0
SETUP_GROUP_SIZE = 3

_IMPORT = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import qrank.cli; print(time.perf_counter() - t)"


def import_seconds(code: str) -> float:
    """Seconds a fresh interpreter running `code` reports."""
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True)
    return float(done.stdout)


def setup_group() -> tuple[list[float], list[float]]:
    """SETUP_GROUP_SIZE imports of qrank.cli, unscaled and scaled, each
    between two reference imports."""
    times, refs = [], [import_seconds(calib.REF_IMPORT)]
    for _ in range(SETUP_GROUP_SIZE):
        times.append(import_seconds(_IMPORT))
        refs.append(import_seconds(calib.REF_IMPORT))
    return times, calib.scale_setup(times, refs)


def run_child(tag: str, tasks: list[dict], seconds: float, trace: int) -> dict:
    tasks_path, out_path = OUT / f"{tag}.tasks.json", OUT / f"{tag}.child.json"
    tasks_path.write_text(json.dumps(tasks))
    cmd = [sys.executable, str(CHILD), "--src", str(SRC), "--tasks", str(tasks_path), "--out", str(out_path)]
    cmd += ["--seconds", str(seconds), "--limit", str(TASK_LIMIT_S), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(OUT / f"{tag}.spans.jsonl")]
    subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(out_path.read_text())


def end_to_end(latencies_s: list[float], setup_s: list[float], peak_rss_mib: float) -> dict:
    latencies = [x * 1e3 for x in latencies_s]
    return {
        "tasks_per_s": (len(latencies) / sum(latencies_s), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def per_layer(res: dict) -> dict:
    traced = res["traced"]
    calls, self_ms, ok_calls = traced["calls"], traced["self_ms"], traced["ok_calls"]
    out = {}
    for name in spans.NAMES:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_ms"] = (self_ms.get(name, 0.0), "ms")
    for module in spans.TARGETS:
        m = spans.label(module)
        total = sum(v for k, v in self_ms.items() if k.startswith(m + "."))
        out[f"layer.{m}.self_ms"] = (total, "ms")
    ok_tasks = max(traced["ok_tasks"], 1)
    for name in ("groups.validate", "hereditary.has_root_of_unity_root", "numfield.factor_over_K"):
        out[f"{name}.calls_per_task"] = (ok_calls.get(name, 0) / ok_tasks, "ratio")
    factorizations = calls.get("intfactor.zz_factor_squarefree", 0)
    out["intfactor.gf_factor_count.per_factorization"] = (
        calls.get("intfactor.gf_factor_count", 0) / max(factorizations, 1),
        "ratio",
    )
    searches = calls.get("numfield.pth_root_in_field", 0)
    out["numfield.pth_root_in_field.hit_share"] = (
        traced["found"].get("numfield.pth_root_in_field", 0) / max(searches, 1),
        "ratio",
    )
    plain_s = sum(calib.scale(res["latencies"], res["cals"]))
    traced_s = sum(calib.scale(traced["latencies"], traced["cals"]))
    out["tracing_overhead_share"] = (traced_s / plain_s - 1, "ratio")
    return out


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    # setup_s samples come in four groups spread over the run, as the
    # host's speed changes in phases of seconds.  The first imports, which
    # may write bytecode caches, are not counted.
    groups = []
    sample_setup = (lambda: None) if trace else (lambda: groups.append(setup_group()))
    if not trace:
        import_seconds(_IMPORT)
        import_seconds(calib.REF_IMPORT)
    sample_setup()
    OUT.mkdir(exist_ok=True)
    ref.load(REFERENCE)
    tasks = gen.tasks_for(workload, seed)
    tag = f"{workload}-seed{seed}-trace{trace}"
    sample_setup()
    res = run_child(tag, tasks, seconds, trace)
    sample_setup()

    failures = {}
    for i, (task, report) in enumerate(zip(tasks, res["reports"])):
        try:
            why = ref.check(task, report)
        except (KeyError, TypeError) as exc:
            why = f"malformed report: {exc!r}"
        if why:
            failures[i] = why
    ref.save(REFERENCE)
    sample_setup()
    setup = [t for raw, _ in groups for t in raw]
    setup_scaled = [t for _, scaled in groups for t in scaled]
    runs = res["passes"] + trace  # a traced run repeats the list once more
    attempted, failed = runs * len(tasks), runs * len(failures)
    problems = []
    if res["differ"] or trace and (res["traced"]["differ"] or res["traced"]["digest"] != res["digest"]):
        problems.append("reports differ between passes")
    if res["sympy_imported"]:
        problems.append("the child imported sympy")
    if trace:
        metrics, raw = per_layer(res), {}
    else:
        # times at the reference speed of calib.py; the raw times go to the record
        scaled = calib.scale(res["latencies"], res["cals"])
        metrics = end_to_end(scaled, setup_scaled, res["peak_rss_mib"])
        raw = end_to_end(res["latencies"], setup, res["peak_rss_mib"])
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "tasks": len(tasks),
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "report_digest": res["digest"],
        "failures": {str(i): failures[i] for i in sorted(failures)},
        "problems": problems,
        "setup_samples_s": setup,
        "setup_scaled_s": setup_scaled,
        "calibration_median_s": statistics.median(res["cals"]),
        "unscaled": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "passes": res["passes"],
        "latency_samples": len(res["latencies"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {workload} seed {seed} trace {trace}: {len(tasks)} tasks x {res['passes']} passes")
    print(f"  report digest {record['report_digest']}")
    print(f"  attempted {record['attempted']} failed {record['failed']} fail_share {record['fail_share']:.4f}")
    for i in sorted(failures)[:10]:
        print(f"  FAIL task {i} {tasks[i]['command']}: {failures[i]}")
    for p in problems:
        print(f"  PROBLEM {p}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not trace:
        print(f"  (latencies: {record['latency_samples']} samples; setup: {len(setup)} fresh imports)")
        speed = calib.REF_S / record["calibration_median_s"]
        print(f"  times above are at the reference speed; tasks ran at {speed:.3f} of it. Unscaled:")
        for name, (value, unit) in raw.items():
            print(f"    {name} = {value:.6g} {unit}")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qrank" / "__init__.py").is_file():
        print(f"no qrank sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        listed = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
        records = [run(w, args.seed, args.seconds, t) for w in listed for t in (0, 1)]
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    else:
        records = [run(args.workload, args.seed, args.seconds, args.trace)]
        metrics = records[0]["metrics"]
    result = {
        "correct": all(r["failed"] == 0 and not r["problems"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
