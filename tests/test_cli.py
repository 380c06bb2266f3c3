import io
import json
import math
import signal
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gaussian_field, qpoly, reduct_spectrum_reference
from qrank import groups, hereditary, numfield
from qrank.arith import primes_upto
from qrank.groups import AMBIENTS
from qrank.cli import (
    COMMANDS,
    EXIT_BUDGET,
    EXIT_INTERNAL,
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


def _wrap_everywhere(monkeypatch, original, wrapper) -> None:
    """Replace every qrank binding of original by wrapper, as
    `from .numfield import factor_over_K` binds a second name in each
    importing module."""
    for name, module in list(sys.modules.items()):
        if name == "qrank" or name.startswith("qrank."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


def _record_factor_over_K(monkeypatch) -> list[int]:
    """Degrees of every polynomial passed to factor_over_K from now on."""
    original = numfield.factor_over_K
    degrees = []

    def recording(K, p):
        degrees.append(p.degree)
        return original(K, p)

    _wrap_everywhere(monkeypatch, original, recording)
    return degrees


def _record_calls(monkeypatch, name: str) -> list[tuple[str, tuple]]:
    """(calling function, positional arguments) of every call of
    numfield.name from now on."""
    original = getattr(numfield, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, args))
        return original(*args, **kwargs)

    _wrap_everywhere(monkeypatch, original, recording)
    return calls


def test_reduct_rank_factors_once(monkeypatch):
    degrees = _record_factor_over_K(monkeypatch)
    for b, n, spectrum in (("9", 4, [2, 2]), ("4096", 10, [5, 5])):
        degrees.clear()
        payload = {"ring": "Q", "char_poly": {"coeffs": ["-" + b, "1"]}, "n": n}
        report, code = run_task("reduct-rank", payload)
        assert code == EXIT_OK
        assert report["result"]["degree_spectrum"] == spectrum
        # validation factors nothing, as a linear P is irreducible; the
        # one square obstruction at n splits x**2 - b through the root
        # the power test proved, as (x - beta)(x + beta) with nothing
        # factored, and the roots +-3 and +-64 are no p-th powers for p
        # dividing n/2
        assert degrees == []


def test_reduct_rank_answers_past_the_hereditary_budget(monkeypatch):
    # reduct-rank at n tests only the primes dividing n, builds at most
    # P(x**N) with N | n and reads no prime cap, so it answers where the
    # hereditary search passes a budget
    # x - 4096 = x - 2**12 has N = 12, past a degree cap of 10
    monkeypatch.setenv("QRANK_MAX_DEGREE", "10")
    report, code = run_task(
        "hereditary", {"field": "Q", "poly": {"coeffs": ["-4096", "1"]}}
    )
    assert code == EXIT_BUDGET
    for n, spectrum in ((5, [5]), (10, [5, 5])):
        report, code = run_task(
            "reduct-rank",
            {"ring": "Q", "char_poly": {"coeffs": ["-4096", "1"]}, "n": n},
        )
        assert code == EXIT_OK
        assert report["result"]["degree_spectrum"] == spectrum
        assert spectrum == reduct_spectrum_reference(
            numfield.QQ, qpoly(-4096, 1), n
        )
    monkeypatch.delenv("QRANK_MAX_DEGREE")

    # the prime cap bounds only units: x - (3+2*sqrt2) over Q(sqrt2) has a
    # unit root, whose height bound needs primes up to 4, past a prime cap
    # of 1; 3+2*sqrt2 = (1+sqrt2)**2 gives [2, 2] at n = 4 and [3, 3] at 6
    monkeypatch.setenv("QRANK_MAX_PRIME", "1")
    sqrt2 = {"min_poly": {"coeffs": ["-2", "0", "1"]}}
    P = {"coeffs": [["-3", "-2"], "1"]}
    report, code = run_task("hereditary", {"field": sqrt2, "poly": P})
    assert code == EXIT_BUDGET
    assert report["error"] == "power test needs primes up to 4, cap is 1"
    g = json_to_presentation({"ring": sqrt2, "char_poly": P})
    degrees = _record_factor_over_K(monkeypatch)
    for n, spectrum in ((4, [2, 2]), (6, [3, 3])):
        degrees.clear()
        report, code = run_task(
            "reduct-rank", {"ring": sqrt2, "char_poly": P, "n": n}
        )
        assert code == EXIT_OK
        assert report["result"]["degree_spectrum"] == spectrum
        assert n not in degrees  # P(x**n) is never factored
        assert spectrum == reduct_spectrum_reference(g.ring, g.char_poly, n)

    # the non-unit 3+4i = (2+i)**2 takes its primes from the end
    # coefficients of x**2 - 6x + 25, so it answers under the same cap
    gaussian = {"min_poly": {"coeffs": ["1", "0", "1"]}}
    report, code = run_task(
        "hereditary", {"field": gaussian, "poly": {"coeffs": [["-3", "-4"], "1"]}}
    )
    assert code == EXIT_OK
    assert report["result"]["N"] == 2
    assert report["result"]["factors"] == [
        {"coeffs": [["-2", "-1"], ["1", "0"]]},
        {"coeffs": [["2", "1"], ["1", "0"]]},
    ]


def test_reducible_input_errors_name_no_python_objects():
    # x**2 + 1 = (x - i)(x + i) over Q(i), and t**2 - 4 defines no field
    gaussian = {"min_poly": {"coeffs": ["1", "0", "1"]}}
    for command, payload in (
        ("hereditary", {"field": gaussian, "poly": {"coeffs": ["1", "0", "1"]}}),
        (
            "validate",
            {
                "ring": {"min_poly": {"coeffs": ["-4", "0", "1"]}},
                "char_poly": {"coeffs": ["-3", "1"]},
            },
        ),
    ):
        report, code = run_task(command, payload)
        assert code == EXIT_VALIDATION, report
        assert "reducible" in report["error"]
        for name in ("Poly(", "NFElement(", "Fraction("):
            assert name not in report["error"], report["error"]


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


@pytest.mark.parametrize(
    "characteristic, code",
    [
        # psi_12 = 399165290221 * 798330580441 passes the twelve prime
        # bases up to 37; base 41 shows it composite
        (318665857834031151167461, EXIT_VALIDATION),
        # psi_13 = 1287836182261 * 2575672364521 passes all thirteen, so
        # no test on hand proves or disproves it prime
        (3317044064679887385961981, EXIT_BUDGET),
        (2**61 - 1, EXIT_OK),
    ],
)
def test_fixed_field_characteristic_primality_is_proven(characteristic, code):
    report, got = run_task(
        "fixed-field", {"q0": "1", "m": 3, "characteristic": characteristic}
    )
    assert got == code, report


def test_budget_exceeded_exit_3(monkeypatch):
    monkeypatch.setenv("QRANK_MAX_DEGREE", "4")
    report, code = run_task(
        "rank", {"ring": "Q", "char_poly": {"coeffs": ["-16", "1"]}}
    )
    assert code == EXIT_BUDGET
    assert report["status"] == "budget_exceeded"


@pytest.mark.parametrize(
    "name, value",
    [
        ("QRANK_MAX_DEGREE", "abc"),
        ("QRANK_MAX_DEGREE", "1.5"),
        ("QRANK_MAX_DEGREE", "-3"),
        ("QRANK_MAX_DEGREE", "0"),
        ("QRANK_MAX_PRIME", "x"),
    ],
)
def test_malformed_budget_variable_exit_4(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    report, code = run_task(
        "rank", {"ring": "Q", "char_poly": {"coeffs": ["-9", "1"]}}
    )
    assert code == EXIT_PARSE
    assert report["status"] == "parse_error"
    assert report["error"] == f"{name} must be an integer >= 1, got {value!r}"


def test_parse_errors_exit_4():
    for payload in (
        {"ring": "Q"},
        {"ring": "Q", "char_poly": {"coeffs": "nope"}},
        {"ring": "Q", "char_poly": {"coeffs": ["1/0", "1"]}},
        {"ring": {"min_poly": {"coeffs": 5}}, "char_poly": {"coeffs": ["-9", "1"]}},
        {"ring": {"min_poly": {"coeffs": "11"}}, "char_poly": {"coeffs": ["-9", "1"]}},
        "not an object",
    ):
        report, code = run_task("rank", payload)
        assert code == EXIT_PARSE, payload
        assert report["status"] == "parse_error"
    report, code = run_task("frobnicate", {})
    assert code == EXIT_PARSE
    # size must be a JSON integer: no bool, float or string passes for 1
    for size in (True, 1.0, "1"):
        report, code = run_task(
            "rank", {"ring": "Q", "last_row": ["3"], "size": size}
        )
        assert code == EXIT_PARSE, size
        assert report["status"] == "parse_error"
        assert report["error"] == f"'size' must be an integer, got {size!r}"


def test_char_poly_with_last_row_or_size_must_agree():
    P = {"ring": "Q", "char_poly": {"coeffs": ["-9", "1"]}}
    for extra, error in (
        ({"last_row": ["5"], "size": True}, "'size' must be an integer, got True"),
        ({"size": "x"}, "'size' must be an integer, got 'x'"),
        ({"last_row": ["5"]}, "last_row does not match char_poly"),
        ({"size": 2}, "size 2 does not match char_poly degree 1"),
    ):
        report, code = run_task("rank", dict(P, **extra))
        assert code == EXIT_PARSE, extra
        assert report["status"] == "parse_error"
        assert report["error"] == error
    # x - 9 has the last row (9) and size 1
    expected, _ = run_task("rank", P)
    for extra in ({"last_row": ["9"]}, {"last_row": ["9"], "size": 1}, {"size": 1}):
        report, code = run_task("rank", dict(P, **extra))
        assert code == EXIT_OK, extra
        assert report["result"] == expected["result"]


def test_nonpositive_exponents_exit_4():
    P = {"ring": "Q", "char_poly": {"coeffs": ["-9", "1"]}}
    for command, payload in (
        ("prolong", dict(P, n=0)),
        ("reduct-rank", dict(P, n=-3)),
        ("oracle", {"field": "Q", "poly": P["char_poly"], "n_list": [2, 0]}),
    ):
        report, code = run_task(command, payload)
        assert code == EXIT_PARSE, command
        assert report["status"] == "parse_error"
        assert "positive integer" in report["error"]


def test_json_booleans_are_not_rationals():
    # bool subclasses int, but true and false are no rationals
    for command, payload in (
        ("validate", {"ring": "Q", "char_poly": {"coeffs": [True, 2, True]}}),
        ("degree-bound", {"x0": True}),
    ):
        report, code = run_task(command, payload)
        assert code == EXIT_PARSE, command
        assert report["status"] == "parse_error"
        assert report["error"] == "expected a rational string, got True"
    report, code = run_task("validate", {"ring": "Q", "char_poly": {"coeffs": [1, 2, 1]}})
    assert code == EXIT_OK


def test_engine_fault_is_internal_error_exit_5(monkeypatch):
    def broken(g):
        raise RuntimeError("factor product mismatch")

    monkeypatch.setattr(groups, "qacfa_rank", broken)
    report, code = run_task("rank", {"ring": "Q", "char_poly": {"coeffs": ["-9", "1"]}})
    assert code == EXIT_INTERNAL
    assert report["status"] == "internal_error"
    assert report["error"] == "RuntimeError: factor product mismatch"


_KEYS = ("ring", "char_poly", "n", "field", "poly", "n_list", "x0", "coeffs", "min_poly",
         "last_row", "size", "ambient", "q", "q_prime", "q0", "m", "characteristic",
         "deg_pi", "deg_rho")
_ints = st.integers(-10, 10)
_rationals = st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(-2, 9))
_leaves = (
    st.none()
    | st.booleans()
    | _ints
    | st.text(max_size=3)
    | _rationals
    | st.sampled_from(("Q",) + AMBIENTS)
)
_json = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
# each real key also draws a well-typed value, so that draws get past decoding
# into the engine; at most 4 coefficients keeps every polynomial below degree 4
_coeffs = st.lists(_ints | _rationals, min_size=1, max_size=4)
_lead = st.sampled_from(("1", "1", "1", "-1", "2", "1/2"))
_poly = st.fixed_dictionaries(
    {"coeffs": st.builds(lambda low, lead: low + [lead], st.lists(_ints, max_size=3), _lead)}
)
_field = st.just("Q") | st.fixed_dictionaries({"min_poly": _poly})
_typed = {
    "ring": _field,
    "min_poly": _poly,
    "coeffs": _coeffs,
    "last_row": _coeffs,
    "n_list": st.lists(st.integers(-1, 6), max_size=3),
    "ambient": st.sampled_from(AMBIENTS + ("additive",)),
}
_typed_payload = st.fixed_dictionaries(
    {"char_poly": _poly, "poly": _poly, "field": _field},
    optional={k: _typed.get(k, _ints | _rationals) for k in _KEYS if k not in ("char_poly", "poly", "field")},
)
_payload = st.one_of(
    _typed_payload,
    st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), _json, max_size=5),
    _json,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(COMMANDS + ("frobnicate",)), _payload)
def test_run_task_fuzz_never_internal(command, payload):
    report, code = run_task(command, payload)
    assert report["status"] in ("ok", "parse_error", "validation_failed", "budget_exceeded"), report
    assert code != EXIT_INTERNAL


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
    for c in res["certificates"]:
        assert c["verdict"] == "hereditarily_irreducible"
        assert "obstruction" not in c and "witnessed_split" not in c


def test_each_check_builds_one_norm_and_flatten_reuses_the_proving_shift(monkeypatch):
    # P = x**2 - (1 + 2i) over Q(i) has a coefficient outside Q, so each
    # check of P builds its norm at shift 0 once, for both the
    # irreducibility and the root-of-unity test, and the worklist's root
    # is flattened at the shift that proved P irreducible: for reduct-rank,
    # the shift that validation proved
    Qi = gaussian_field()
    P = Qi.poly([-1 - 2 * Qi.gen, 0, 1])
    ring = {"min_poly": {"coeffs": ["1", "0", "1"]}}
    coeffs = {"coeffs": [["-1", "-2"], "0", "1"]}
    roots_of_unity = []
    original = hereditary.has_root_of_unity_root

    def counting(*args):
        roots_of_unity.append(args[1])
        return original(*args)

    _wrap_everywhere(monkeypatch, original, counting)
    norms = _record_calls(monkeypatch, "norm_poly")
    shifts = _record_calls(monkeypatch, "_trager_shift")
    for command, payload, checks in (
        ("rank", {"ring": ring, "char_poly": coeffs}, 3),
        ("hereditary", {"field": ring, "poly": coeffs}, 1),
        ("reduct-rank", {"ring": ring, "char_poly": coeffs, "n": 6}, 1),
    ):
        roots_of_unity.clear()
        norms.clear()
        shifts.clear()
        report, code = run_task(command, payload)
        assert code == EXIT_OK, report
        assert roots_of_unity == [P] * checks
        assert [caller for caller, (_, f) in norms if f == P] == ["norm_at_shift_zero"] * checks
        assert [caller for caller, (_, g) in shifts if g == P] == ["_irreducible_shift"] * checks
        assert "flatten" not in [caller for caller, _ in shifts]
        if command == "reduct-rank":
            assert report["result"]["degree_spectrum"] == [12]


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


def test_reciprocal_units_finish():
    # roots of these reciprocal quartics are units: the norm test passes
    # every odd p, so the power-residue sieve must settle the power test's
    # primes; the rank must agree with sympy's factor counts of P(x**N)
    # and of P(x**(2N))
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(30)
    try:
        for coeffs, bound in (([1, 3, 0, 3, 1], 362), ([1, 2, 1, 2, 1], 195)):
            start = time.perf_counter()
            report, code = run_task(
                "rank", {"ring": "Q", "char_poly": {"coeffs": [str(c) for c in coeffs]}}
            )
            assert time.perf_counter() - start < 5.0
            assert code == EXIT_OK
            result = report["result"]
            certificates = result["witness"]["certificates"]
            assert [c["prime_bound"] for c in certificates] == [bound]
            assert certificates[0]["primes_tested"] == primes_upto(bound)
            N = result["witness"]["N"]
            P = sum(c * x**i for i, c in enumerate(coeffs))
            for n in (N, 2 * N):
                _, factors = sympy.factor_list(P.subs(x, x**n), x)
                assert sum(m for _, m in factors) == result["rank"]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_recombination_budget_stops_swinnerton_dyer():
    # S_6, the minimal polynomial of sqrt2 + sqrt3 + ... + sqrt13 (degree
    # 64), splits into at least 32 factors modulo every prime: proving it
    # irreducible by exhaustive recombination would take about 2**31
    # subsets, so validate must stop at the budget with exit 3
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    f = x
    for p in (2, 3, 5, 7, 11, 13):
        f = sympy.resultant(f.subs(x, x - y), y**2 - p, y)
    coeffs = [str(c) for c in reversed(sympy.Poly(f, x).all_coeffs())]
    assert len(coeffs) == 65
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(30)
    try:
        report, code = run_task(
            "validate", {"ring": "Q", "char_poly": {"coeffs": coeffs}}
        )
        assert code == EXIT_BUDGET
        assert report["status"] == "budget_exceeded"
        assert "32 modular factors" in report["error"]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_factoring_scans_primes_past_10000():
    # every prime below 10**4 divides a*b, hence the discriminant 4ab of
    # b x^2 - a: the first prime at which it stays squarefree is 10007
    primes = primes_upto(10**4)
    a, b = math.prod(primes[0::2]), math.prod(primes[1::2])
    report, code = run_task(
        "oracle",
        {"field": "Q", "poly": {"coeffs": [f"-{a}/{b}", "0", "1"]}, "n_list": [1]},
    )
    assert code == EXIT_OK, report.get("error")
    assert report["result"]["counts"] == [1]


def test_prolong_degree_budget():
    # P(x**n) past the degree cap is refused before it is built
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(30)
    try:
        start = time.perf_counter()
        report, code = run_task(
            "prolong", {"ring": "Q", "char_poly": {"coeffs": ["-9", "1"]}, "n": 10**7}
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BUDGET
        assert report["error"] == "degree 10000000 (1 * 10000000) is past the cap 256"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    report, code = run_task(
        "prolong", {"ring": "Q", "char_poly": {"coeffs": ["-9", "1"]}, "n": 256}
    )
    assert code == EXIT_OK
    assert len(report["result"]["last_row"]) == 256


def test_power_test_radical_degree_budget():
    # alpha = (1+2i)**257 passes the norm filter at p = 257 and is a 257-th
    # power, so the power test would factor x**257 - alpha over Q(i),
    # past the default cap of 256
    re, im = 1, 0
    for _ in range(257):
        re, im = re - 2 * im, 2 * re + im
    payload = {
        "ring": {"min_poly": {"coeffs": ["1", "0", "1"]}},
        "char_poly": {"coeffs": [[str(-re), str(-im)], ["1", "0"]]},
    }
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(30)
    try:
        start = time.perf_counter()
        report, code = run_task("rank", payload)
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_BUDGET
        assert report["status"] == "budget_exceeded"
        assert report["error"] == "degree 257 (1 * 257) is past the cap 256"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_power_test_fallback_norm_degree_budget():
    # alpha = 2**101 * (1+i) is a unit times (1+i)**203, 203 = 7 * 29, so
    # the search reaches x**29 - beta over a field L of degree 12 that
    # neither the sieve nor the lift settles; factoring it would take the
    # Trager norm of degree 29 * 12, past the default cap of 256
    c = str(-(2**101))
    payload = {"field": {"min_poly": {"coeffs": ["1", "0", "1"]}}, "poly": {"coeffs": [[c, c], "1"]}}
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(30)
    try:
        start = time.perf_counter()
        report, code = run_task("hereditary", payload)
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_BUDGET
        assert report["status"] == "budget_exceeded"
        assert report["error"] == "degree 348 (12 * 29) is past the cap 256"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_degree_cap_is_checked_before_factoring_P(monkeypatch):
    # x**512 + 2x + 2 is Eisenstein at 2, hence irreducible; its degree is
    # past the default cap of 256, so it must be refused before anything
    # is factored
    degrees = _record_factor_over_K(monkeypatch)
    coeffs = ["2", "2"] + ["0"] * 510 + ["1"]
    presentation = {"ring": "Q", "char_poly": {"coeffs": coeffs}}
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(30)
    try:
        for command, payload in (
            ("rank", presentation),
            ("validate", presentation),
            ("hereditary", {"field": "Q", "poly": {"coeffs": coeffs}}),
            ("reduct-rank", dict(presentation, n=1)),
        ):
            start = time.perf_counter()
            report, code = run_task(command, payload)
            assert time.perf_counter() - start < 1.0, command
            assert code == EXIT_BUDGET, command
            assert report["error"] == "degree 512 (512 * 1) is past the cap 256"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert degrees == []


def test_degree_cap_is_checked_before_factoring_the_ring():
    # x**257 + 2 is Eisenstein at 2; as a ring past the cap of 256 it must
    # be refused before its irreducibility is checked
    ring = {"min_poly": {"coeffs": ["2"] + ["0"] * 256 + ["1"]}}
    poly = {"coeffs": ["3", "1"]}
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(30)
    try:
        for command, payload in (
            ("validate", {"ring": ring, "char_poly": poly}),
            ("oracle", {"field": ring, "poly": poly, "n_list": [1]}),
        ):
            start = time.perf_counter()
            report, code = run_task(command, payload)
            assert time.perf_counter() - start < 1.0, command
            assert code == EXIT_BUDGET, command
            assert report["error"] == "degree 257 (257 * 1) is past the cap 256"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_exponent_rationals_are_parse_errors():
    # "1e100000000" is 11 bytes that Fraction would expand to a
    # 330-million-bit integer before any budget applies
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(30)
    try:
        start = time.perf_counter()
        report, code = run_task("degree-bound", {"x0": "1e100000000"})
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_PARSE
        assert report["error"] == "bad rational '1e100000000'"
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
        "not a task",
        {"command": "degree-bound", "payload": {"x0": "4"}},
    ]
    report, code = run_batch(tasks)
    # the first nonzero exit code is the batch's
    assert code == EXIT_VALIDATION
    assert [r["status"] for r in report["reports"]] == [
        "ok",
        "validation_failed",
        "parse_error",
        "ok",
    ]
    assert report["reports"][2]["error"] == "task must be an object"
    assert run_batch(tasks[2:])[1] == EXIT_PARSE


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


def test_main_unwritable_output_exit_4(tmp_path, capsys):
    inp = tmp_path / "task.json"
    inp.write_text('{"x0": "9"}')
    out = tmp_path / "missing" / "report.json"
    code = main(["degree-bound", "--input", str(inp), "--output", str(out)])
    assert code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    report = json.loads(captured.err)
    assert report["status"] == "parse_error"
    assert str(out) in report["error"]


@pytest.mark.parametrize("kind", ["invalid_utf8", "long_int_literal"])
def test_main_unreadable_input_exit_4(tmp_path, capsys, kind):
    inp = tmp_path / "task.json"
    if kind == "invalid_utf8":
        inp.write_bytes(b'{"x0": "\xff\xfe"}')
    else:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("integer string conversion is not limited")
        inp.write_text('{"x0": ' + "7" * (limit + 1) + "}")
    code = main(["degree-bound", "--input", str(inp)])
    assert code == EXIT_PARSE
    assert json.loads(capsys.readouterr().out)["status"] == "parse_error"


def test_main_run(tmp_path, capsys):
    payload = {"ring": "Q", "char_poly": {"coeffs": ["-9", "1"]}}
    inp = tmp_path / "task.json"
    inp.write_text(json.dumps({"command": "rank", "payload": payload}))
    assert main(["run", "--input", str(inp)]) == EXIT_OK
    expected, _ = run_task("rank", payload)
    assert capsys.readouterr().out == dump_report(expected, pretty=False)

    inp.write_text("17")
    assert main(["run", "--input", str(inp)]) == EXIT_PARSE
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "parse_error"
    assert report["error"] == "task file must be an object or a list"


def test_main_pretty_output_is_the_same_report(tmp_path, capsys):
    inp = tmp_path / "task.json"
    inp.write_text('{"ring":"Q","char_poly":{"coeffs":["-4","1"]}}')
    assert main(["rank", "--input", str(inp)]) == EXIT_OK
    compact = capsys.readouterr().out
    assert main(["rank", "--input", str(inp), "--pretty"]) == EXIT_OK
    pretty = capsys.readouterr().out
    assert pretty != compact and "\n  " in pretty
    assert json.loads(pretty) == json.loads(compact)


def test_main_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"x0": "9"}'))
    assert main(["degree-bound"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok"
    assert report["result"] == {"x0": "9", "bound": 2}
