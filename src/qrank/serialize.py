"""JSON encoding and decoding for every wire type.

Rationals travel as canonical strings "p/q" or "p"; elements of an
extension field as arrays of such strings in the power basis (plain
strings are accepted and lifted); polynomials as {"coeffs": [...]}
low-to-high.  All decode failures raise ParseError.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, QrankError
from .groups import AMBIENTS, CompanionPresentation, RankReport, ValidationReport
from .hereditary import HereditaryCertificate, HereditaryFactorization
from .numfield import NFElement, NumberField, QQ
from .poly import Poly

# Fraction alone also takes exponents: "1e10000000" is 33 million bits
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def rat_to_str(r: Fraction | int) -> str:
    return _ratio_to_str(r.numerator, r.denominator)


def _ratio_to_str(num: int, den: int) -> str:
    """num/den in lowest terms, den > 0, as "p/q" or "p"."""
    return str(num) if den == 1 else f"{num}/{den}"


def str_to_rat(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise ParseError(f"expected a rational string, got {s!r}")
    if not _RATIONAL.fullmatch(s):
        raise ParseError(f"bad rational {s!r}")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}") from exc


def scalar_to_json(c: NFElement):
    coords = [_ratio_to_str(num, den) for num, den in c.sort_key()]
    return coords[0] if c.field.degree == 1 else coords


def json_to_scalar(obj, ring: NumberField) -> NFElement:
    if isinstance(obj, (str, int)):
        return ring.from_rational(str_to_rat(obj))
    if isinstance(obj, list):
        coords = [str_to_rat(a) for a in obj]
        if len(coords) > ring.degree:
            raise ParseError(
                f"{len(coords)} coordinates in a degree-{ring.degree} field"
            )
        coords += [0] * (ring.degree - len(coords))
        return ring.element(coords)
    raise ParseError(f"bad scalar {obj!r}")


def poly_to_json(p: Poly) -> dict:
    out = []
    for c in p.coeffs:
        if isinstance(c, NFElement):
            out.append(scalar_to_json(c))
        else:
            out.append(rat_to_str(c))
    return {"coeffs": out}


def _json_coeffs(obj) -> list:
    """The coefficient list of a {"coeffs": [...]} object."""
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ParseError(f"expected {{'coeffs': [...]}}, got {obj!r}")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise ParseError("'coeffs' must be a list")
    return coeffs


def json_to_poly(obj, ring: NumberField) -> Poly:
    return Poly([json_to_scalar(c, ring) for c in _json_coeffs(obj)])


def json_to_rational_poly(obj) -> Poly:
    return Poly([str_to_rat(c) for c in _json_coeffs(obj)])


def field_to_json(K: NumberField):
    if K.degree == 1 and K.min_poly.coeffs[0] == 0:
        return "Q"
    return {"min_poly": poly_to_json(K.min_poly)}


def json_to_field(obj) -> NumberField:
    if obj in ("Q", "QQ", None):
        return QQ
    if not isinstance(obj, dict) or "min_poly" not in obj:
        raise ParseError(f"expected 'Q' or {{'min_poly': ...}}, got {obj!r}")
    mp = json_to_rational_poly(obj["min_poly"])
    try:
        return NumberField(mp)
    except QrankError:
        raise
    except Exception as exc:
        raise ParseError(f"bad number field: {exc}") from exc


def presentation_to_json(g: CompanionPresentation) -> dict:
    return {
        "ring": field_to_json(g.ring),
        "char_poly": poly_to_json(g.char_poly),
        "last_row": [scalar_to_json(c) for c in g.matrix().last_row],
        "size": g.size,
        "ambient": g.ambient,
    }


def json_to_presentation(obj) -> CompanionPresentation:
    if not isinstance(obj, dict):
        raise ParseError(f"expected a presentation object, got {obj!r}")
    ring = json_to_field(obj.get("ring", "Q"))
    ambient = obj.get("ambient", "multiplicative")
    if ambient not in AMBIENTS:
        raise ParseError(f"unknown ambient tag {ambient!r}")
    # with char_poly, last_row and size are optional but must agree with it
    row = obj.get("last_row")
    if "last_row" in obj and (not isinstance(row, list) or not row):
        raise ParseError("'last_row' must be a nonempty list")
    size = obj.get("size")
    if "size" in obj:
        if not isinstance(size, int) or isinstance(size, bool):
            raise ParseError(f"'size' must be an integer, got {size!r}")
        if row is not None and size != len(row):
            raise ParseError(
                f"size {size} does not match last_row length {len(row)}"
            )
    if row is not None:
        row = [json_to_scalar(c, ring) for c in row]
    if "char_poly" in obj:
        poly = json_to_poly(obj["char_poly"], ring)
        g = CompanionPresentation(ring, poly, ambient)
        if size is not None and size != g.size:
            raise ParseError(
                f"size {size} does not match char_poly degree {g.size}"
            )
        if row is not None and tuple(row) != g.matrix().last_row:
            raise ParseError("last_row does not match char_poly")
        return g
    if row is not None:
        return CompanionPresentation.from_last_row(ring, row, ambient)
    raise ParseError("presentation needs 'char_poly' or 'last_row'")


def certificate_to_json(c: HereditaryCertificate) -> dict:
    return {
        "factor": poly_to_json(c.factor),
        "verdict": c.verdict,
        "prime_bound": c.prime_bound,
        "primes_tested": list(c.primes_tested),
        "minus_four_tested": c.minus_four_tested,
        "lift_exponent": c.lift_exponent,
        "base_factor": poly_to_json(c.base_factor),
    }


def hereditary_to_json(hf: HereditaryFactorization) -> dict:
    return {
        "field": field_to_json(hf.field),
        "input": poly_to_json(hf.input),
        "N": hf.N,
        "factors": [poly_to_json(f) for f in hf.factors],
        "certificates": [certificate_to_json(c) for c in hf.certificates],
    }


def validation_to_json(v: ValidationReport) -> dict:
    return {
        "irreducible_over_R": v.irreducible_over_R,
        "root_of_unity_eigenvalue": v.root_of_unity_eigenvalue,
        "minimal_necessary": v.minimal_necessary,
        "one_based_necessary": v.one_based_necessary,
    }


def rank_report_to_json(r: RankReport) -> dict:
    out = {"rank": r.rank, "method": r.method}
    if isinstance(r.witness, HereditaryFactorization):
        out["witness"] = hereditary_to_json(r.witness)
    return out
