import json
import signal
import sys
import time

from qrank import numfield
from qrank.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    dump_report,
    main,
    render_human,
    run_batch,
    run_task,
)
from qrank.serialize import json_to_presentation, presentation_to_json


def test_rank_command_ok():
    report, code = run_task(
        "rank", {"ring": "Q", "char_poly": {"coeffs": ["-9", "1"]}}
    )
    assert code == EXIT_OK
    assert report["status"] == "ok"
    assert report["result"]["rank"] == 2
    assert report["result"]["witness"]["N"] == 2
    assert report["result"]["witness"]["factors"] == [
        {"coeffs": ["-3", "1"]},
        {"coeffs": ["3", "1"]},
    ]
    assert set(report["result"]) == {
        "rank",
        "method",
        "witness",
        "validation",
        "presentation",
    }
    assert report["result"]["validation"] == {
        "irreducible_over_R": True,
        "root_of_unity_eigenvalue": False,
        "minimal_necessary": True,
        "one_based_necessary": True,
    }


def test_rank_root_of_unity_exit_2():
    report, code = run_task(
        "rank", {"ring": "Q", "char_poly": {"coeffs": ["-1", "1"]}}
    )
    assert code == EXIT_VALIDATION
    assert report["status"] == "validation_failed"

    report, code = run_task(
        "rank", {"ring": "Q", "char_poly": {"coeffs": ["-1", "0", "1"]}}
    )
    assert code == EXIT_VALIDATION
    assert report["error"] == (
        "ValidationFailed: characteristic polynomial reducible over the ring; "
        "a root of unity is an eigenvalue"
    )


def test_reduct_rank_factors_once(monkeypatch):
    # wrap every qrank binding of factor_over_K, as `from .numfield import
    # factor_over_K` binds a second name in each importing module
    original = numfield.factor_over_K
    degrees = []

    def recording(K, p):
        degrees.append(p.degree)
        return original(K, p)

    for name, module in list(sys.modules.items()):
        if name == "qrank" or name.startswith("qrank."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    report, code = run_task(
        "reduct-rank", {"ring": "Q", "char_poly": {"coeffs": ["-9", "1"]}, "n": 4}
    )
    assert code == EXIT_OK
    assert report["result"]["degree_spectrum"] == [2, 2]
    assert degrees.count(4) == 1


def test_fixed_field_command():
    report, code = run_task(
        "fixed-field", {"q0": "1", "m": 3, "characteristic": 5}
    )
    assert code == EXIT_OK
    assert report["result"]["rank"] == 3

    report, code = run_task(
        "fixed-field", {"q0": "1/2", "m": 0, "characteristic": 7}
    )
    assert report["result"]["rank"] == "undefined"

    report, code = run_task(
        "fixed-field", {"q0": "1", "m": 2, "characteristic": 0}
    )
    assert code == EXIT_VALIDATION


def test_budget_exceeded_exit_3(monkeypatch):
    monkeypatch.setenv("QRANK_MAX_DEGREE", "4")
    report, code = run_task(
        "rank", {"ring": "Q", "char_poly": {"coeffs": ["-16", "1"]}}
    )
    assert code == EXIT_BUDGET
    assert report["status"] == "budget_exceeded"


def test_parse_errors_exit_4():
    for payload in (
        {"ring": "Q"},
        {"ring": "Q", "char_poly": {"coeffs": "nope"}},
        {"ring": "Q", "char_poly": {"coeffs": ["1/0", "1"]}},
        "not an object",
    ):
        report, code = run_task("rank", payload)
        assert code == EXIT_PARSE, payload
        assert report["status"] == "parse_error"
    report, code = run_task("frobnicate", {})
    assert code == EXIT_PARSE


def test_malformed_presentation_is_validation_failure():
    # well-formed JSON whose math precondition fails: P(0) = 0
    report, code = run_task(
        "rank", {"ring": "Q", "char_poly": {"coeffs": ["0", "1"]}}
    )
    assert code == EXIT_VALIDATION


def test_hereditary_command_certificates():
    report, code = run_task(
        "hereditary", {"field": "Q", "poly": {"coeffs": ["4", "1"]}}
    )
    assert code == EXIT_OK
    res = report["result"]
    assert res["N"] == 4
    assert len(res["factors"]) == 2
    assert all(
        c["verdict"] == "hereditarily_irreducible" for c in res["certificates"]
    )


def test_oracle_command():
    report, code = run_task(
        "oracle",
        {"field": "Q", "poly": {"coeffs": ["-9", "1"]}, "n_list": [1, 2, 4]},
    )
    assert code == EXIT_OK
    assert report["result"]["counts"] == [1, 2, 2]


def test_reduct_rank_command():
    report, code = run_task(
        "reduct-rank", {"ring": "Q", "char_poly": {"coeffs": ["-9", "1"]}, "n": 2}
    )
    assert code == EXIT_OK
    assert report["result"]["rank"] == 2
    assert report["result"]["degree_spectrum"] == [1, 1]
    assert set(report["result"]) == {"rank", "n", "degree_spectrum"}


def test_degree_bound_command():
    report, code = run_task("degree-bound", {"x0": "9"})
    assert report["result"]["bound"] == 2
    report, code = run_task("degree-bound", {"x0": "1"})
    assert report["result"]["bound"] is None
    report, code = run_task("degree-bound", {"deg_pi": 1, "deg_rho": 9})
    assert report["result"]["bound"] == 2


class _Expired(BaseException):
    """Raised by the alarm; a BaseException, so run_task cannot report it."""


def _expire(signum, frame):
    raise _Expired


def test_rational_power_tests_need_no_factoring():
    # M89 * M107, a product of two Mersenne primes (196 bits): deciding
    # whether it is a perfect power must not factor it
    m = str((2**89 - 1) * (2**107 - 1))
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(30)
    try:
        for command, payload, key, expected in (
            ("rank", {"ring": "Q", "char_poly": {"coeffs": ["-" + m, "1"]}}, "rank", 1),
            ("degree-bound", {"x0": m}, "bound", 1),
        ):
            start = time.perf_counter()
            report, code = run_task(command, payload)
            assert time.perf_counter() - start < 5.0
            assert code == EXIT_OK
            assert report["result"][key] == expected
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_prolong_round_trip():
    report, code = run_task(
        "prolong",
        {"ring": "Q", "char_poly": {"coeffs": ["1", "-4", "1"]}, "n": 2},
    )
    assert code == EXIT_OK
    assert report["result"]["last_row"] == ["-1", "0", "4", "0"]
    g = json_to_presentation(report["result"])
    assert presentation_to_json(g) == report["result"]


def test_last_row_input_form():
    report, code = run_task("validate", {"ring": "Q", "last_row": ["9"], "size": 1})
    assert code == EXIT_OK
    assert report["result"]["one_based_necessary"]


def test_extension_ring_payload():
    payload = {
        "ring": {"min_poly": {"coeffs": ["-2", "0", "1"]}},
        "char_poly": {"coeffs": [["-3", "-2"], ["1", "0"]]},  # x - (3+2*sqrt2)
    }
    report, code = run_task("rank", payload)
    assert code == EXIT_OK
    assert report["result"]["rank"] == 2


def test_batch_run_order_and_exit():
    tasks = [
        {"command": "degree-bound", "payload": {"x0": "9"}},
        {"command": "rank", "payload": {"ring": "Q", "char_poly": {"coeffs": ["-1", "1"]}}},
        {"command": "degree-bound", "payload": {"x0": "4"}},
    ]
    report, code = run_batch(tasks)
    assert code == EXIT_VALIDATION
    assert [r["status"] for r in report["reports"]] == [
        "ok",
        "validation_failed",
        "ok",
    ]


def test_determinism_byte_identical():
    task = {"ring": "Q", "char_poly": {"coeffs": ["-9", "1"]}}
    a = dump_report(run_task("rank", task)[0], pretty=False)
    b = dump_report(run_task("rank", task)[0], pretty=False)
    assert a == b
    assert render_human(run_task("rank", task)[0]) == render_human(
        run_task("rank", task)[0]
    )


def test_main_end_to_end(tmp_path, capsys):
    inp = tmp_path / "task.json"
    inp.write_text('{"ring":"Q","char_poly":{"coeffs":["-4","1"]}}')
    out = tmp_path / "report.json"
    code = main(["rank", "--input", str(inp), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["result"]["rank"] == 2

    code = main(["rank", "--input", str(tmp_path / "missing.json")])
    assert code == EXIT_PARSE
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "parse_error"
