"""Batch front door: `qrank <command> --input task.json [--output out.json]`.

Commands take the payload JSON described per module; `run` takes a full
task object {"command": ..., "payload": ...} or a list of them and
processes the batch in input order.  Output is deterministic: identical
input and configuration give byte-identical reports.

Exit codes: 0 ok, 2 validation failure (a theorem precondition does not
hold), 3 budget exceeded, 4 parse error (malformed input), 5 internal
error (an engine fault; the report names the exception type and its
message).  No task raises an uncaught exception.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, classify, groups, hereditary
from .errors import BudgetExceeded, ParseError, QrankError
from .serialize import (
    hereditary_to_json,
    json_to_field,
    json_to_poly,
    json_to_presentation,
    presentation_to_json,
    rank_report_to_json,
    rat_to_str,
    str_to_rat,
    validation_to_json,
)

COMMANDS = (
    "rank",
    "reduct-rank",
    "hereditary",
    "validate",
    "prolong",
    "degree-bound",
    "fixed-field",
    "oracle",
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_PARSE = 4
EXIT_INTERNAL = 5


def _need(payload: dict, key: str):
    if not isinstance(payload, dict) or key not in payload:
        raise ParseError(f"payload needs {key!r}")
    return payload[key]


def _int_field(payload: dict, key: str) -> int:
    v = _need(payload, key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(f"{key!r} must be an integer, got {v!r}")
    return v


def _exponent_field(payload: dict, key: str) -> int:
    n = _int_field(payload, key)
    if n < 1:
        raise ParseError(f"{key!r} must be a positive integer, got {n}")
    return n


def _cmd_rank(payload: dict) -> dict:
    g = json_to_presentation(payload)
    report = groups.qacfa_rank(g)
    out = rank_report_to_json(report)
    out["validation"] = validation_to_json(groups.validate(g))
    out["presentation"] = presentation_to_json(g)
    return out


def _cmd_reduct_rank(payload: dict) -> dict:
    g = json_to_presentation(payload)
    n = _exponent_field(payload, "n")
    spectrum = groups.subgroup_degree_spectrum(g, n)
    return {"rank": len(spectrum), "n": n, "degree_spectrum": spectrum}


def _cmd_hereditary(payload: dict) -> dict:
    K = json_to_field(_need(payload, "field"))
    P = json_to_poly(_need(payload, "poly"), K)
    hf = hereditary.hereditary_factorization(K, P)
    return hereditary_to_json(hf)


def _cmd_validate(payload: dict) -> dict:
    g = json_to_presentation(payload)
    return validation_to_json(groups.validate(g))


def _cmd_prolong(payload: dict) -> dict:
    g = json_to_presentation(payload)
    n = _exponent_field(payload, "n")
    return presentation_to_json(groups.prolong(g, n))


def _cmd_degree_bound(payload: dict) -> dict:
    if "x0" in payload:
        x0 = str_to_rat(payload["x0"])
    elif "deg_pi" in payload and "deg_rho" in payload:
        degrees = classify.CorrespondenceDegrees(
            _int_field(payload, "deg_pi"), _int_field(payload, "deg_rho")
        )
        x0 = classify.degree_ratio(degrees)
    else:
        raise ParseError("payload needs 'x0' or 'deg_pi'/'deg_rho'")
    bound = classify.rank_bound_from_ratio(x0)
    return {"x0": rat_to_str(x0), "bound": bound}


def _cmd_fixed_field(payload: dict) -> dict:
    if "q" in payload and "q_prime" in payload:
        q = str_to_rat(payload["q"])
        qp = str_to_rat(payload["q_prime"])
        return {"subfield": classify.fixed_field_subfield(q, qp)}
    query = classify.FixedFieldQuery(
        q0=str_to_rat(_need(payload, "q0")),
        m=_int_field(payload, "m"),
        characteristic=_int_field(payload, "characteristic"),
    )
    report = classify.fixed_field_rank(query)
    return rank_report_to_json(report)


def _cmd_oracle(payload: dict) -> dict:
    K = json_to_field(_need(payload, "field"))
    P = json_to_poly(_need(payload, "poly"), K)
    n_list = _need(payload, "n_list")
    if not isinstance(n_list, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in n_list
    ):
        raise ParseError("'n_list' must be a list of positive integers")
    counts = hereditary.oracle_factor_counts(K, P, n_list)
    return {"n_list": n_list, "counts": counts}


_HANDLERS = {
    "rank": _cmd_rank,
    "reduct-rank": _cmd_reduct_rank,
    "hereditary": _cmd_hereditary,
    "validate": _cmd_validate,
    "prolong": _cmd_prolong,
    "degree-bound": _cmd_degree_bound,
    "fixed-field": _cmd_fixed_field,
    "oracle": _cmd_oracle,
}


def run_task(command: str, payload) -> tuple[dict, int]:
    """Execute one task; returns (report, exit_code) and never raises."""
    report = {
        "engine_version": __version__,
        "input": {"command": command, "payload": payload},
    }
    try:
        if command not in _HANDLERS:
            raise ParseError(f"unknown command {command!r}")
        if not isinstance(payload, dict):
            raise ParseError("payload must be a JSON object")
        result = _HANDLERS[command](payload)
        report["status"] = "ok"
        report["result"] = result
        return report, EXIT_OK
    except ParseError as exc:
        report["status"] = "parse_error"
        report["error"] = str(exc)
        return report, EXIT_PARSE
    except BudgetExceeded as exc:
        report["status"] = "budget_exceeded"
        report["error"] = str(exc)
        return report, EXIT_BUDGET
    except QrankError as exc:
        report["status"] = "validation_failed"
        report["error"] = f"{type(exc).__name__}: {exc}"
        return report, EXIT_VALIDATION
    except Exception as exc:  # an engine fault, never the input's
        report["status"] = "internal_error"
        report["error"] = f"{type(exc).__name__}: {exc}"
        return report, EXIT_INTERNAL


def _parse_error(error: object) -> dict:
    return {
        "engine_version": __version__,
        "status": "parse_error",
        "error": str(error),
    }


def run_batch(tasks) -> tuple[dict, int]:
    if isinstance(tasks, dict):
        command = tasks.get("command")
        payload = tasks.get("payload")
        return run_task(command, payload)
    if isinstance(tasks, list):
        reports = []
        code = EXIT_OK
        for task in tasks:
            if not isinstance(task, dict):
                reports.append(
                    {"status": "parse_error", "error": "task must be an object"}
                )
                code = code or EXIT_PARSE
                continue
            rep, c = run_task(task.get("command"), task.get("payload"))
            reports.append(rep)
            code = code or c
        return {"engine_version": __version__, "reports": reports}, code
    return _parse_error("task file must be an object or a list"), EXIT_PARSE


def render_human(report: dict) -> str:
    """Plain-text rendering; a pure function of the JSON report."""
    lines = []

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {v}")
        else:
            lines.append(f"{pad}{obj}")

    walk(report, 0)
    return "\n".join(lines) + "\n"


def dump_report(report: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qrank",
        description="Exact rank computations for companion-matrix group "
        "presentations over number fields.",
    )
    parser.add_argument("command", choices=COMMANDS + ("run",))
    parser.add_argument("--input", help="payload JSON file (default stdin)")
    parser.add_argument("--output", help="report file (default stdout)")
    parser.add_argument(
        "--pretty", action="store_true", help="indent the JSON report"
    )
    parser.add_argument(
        "--human",
        action="store_true",
        help="emit a plain-text rendering instead of JSON",
    )
    args = parser.parse_args(argv)

    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = fh.read()
        else:
            raw = sys.stdin.read()
        payload = json.loads(raw)
    except (OSError, ValueError) as exc:
        # ValueError covers JSONDecodeError, invalid UTF-8 and integer
        # literals past the interpreter's digit limit
        report, code = _parse_error(exc), EXIT_PARSE
    else:
        if args.command == "run":
            report, code = run_batch(payload)
        else:
            report, code = run_task(args.command, payload)

    def render(report: dict) -> str:
        return render_human(report) if args.human else dump_report(report, args.pretty)

    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(render(report))
        except OSError as exc:
            sys.stderr.write(render(_parse_error(exc)))
            return EXIT_PARSE
    else:
        sys.stdout.write(render(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
