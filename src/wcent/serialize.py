"""JSON and LaTeX encodings for the algebraic objects.

JSON is canonical and deterministic: rationals are {"num", "den"} string
pairs (safe beyond double precision), monomial lists are emitted in the
canonical term order, and repeated mode factors are expanded so a consumer
never needs the exponent convention.  Every *_to_json has a *_from_json
inverse with parse(serialize(x)) == x.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .affine import LoopMode, VacuumVector
from .cdet import GeneratorTable, UPoly
from .centralizer import Partition, Rat, Sparse
from .diffpoly import DiffPoly, DiffVar

# -- rationals -----------------------------------------------------------------


def rat_to_json(q: Rat) -> dict:
    if isinstance(q, int):
        return {"num": str(q), "den": "1"}
    f = Fraction(q)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def rat_from_json(obj: dict) -> Rat:
    num, den = int(obj["num"]), int(obj["den"])
    if not den:
        raise ValueError("rational %r has a zero denominator" % (obj,))
    return num if den == 1 else Fraction(num, den)


# -- differential polynomials ---------------------------------------------------


def diffpoly_to_json(poly: DiffPoly) -> list:
    out = []
    for mono, c in poly.items():
        out.append({
            "coeff": rat_to_json(c),
            "vars": [[v.i, v.j, v.r, v.s, e] for v, e in mono],
        })
    return out


def diffpoly_from_json(obj: list) -> DiffPoly:
    terms = []
    for t in obj:
        mono = tuple((DiffVar(s, i, j, r), e)
                     for i, j, r, s, e in t["vars"])
        terms.append((mono, rat_from_json(t["coeff"])))
    return DiffPoly(terms)


def lambdapoly_to_json(lp: UPoly) -> dict:
    return {"lambda_powers": {str(k): diffpoly_to_json(c) for k, c in lp.items()}}


def lambdapoly_from_json(obj: dict) -> UPoly:
    return UPoly({int(k): diffpoly_from_json(v)
                       for k, v in obj["lambda_powers"].items()})


# -- vacuum vectors -------------------------------------------------------------


def vacuum_to_json(v: VacuumVector) -> dict:
    terms = []
    for mono, c in v.items():
        modes = []
        for mode, e in mono:
            modes.extend([[mode.i, mode.j, mode.r, mode.m]] * e)
        terms.append({"coeff": rat_to_json(c), "modes": modes})
    return {"partition": str(v.partition), "terms": terms}


def vacuum_from_json(obj: dict) -> VacuumVector:
    return VacuumVector(Partition.parse(obj["partition"]),
                        [(t["modes"], rat_from_json(t["coeff"])) for t in obj["terms"]])


# -- generator tables ------------------------------------------------------------


def table_key(prefix: str, k: int, r: int) -> str:
    return "%s[%d][%d]" % (prefix, k, r)


def parse_table_key(key: str) -> tuple[str, int, int]:
    prefix, rest = key.split("[", 1)
    k, r = rest.rstrip("]").split("][")
    return prefix, int(k), int(r)


def _table_json(t: GeneratorTable, prefix: str, encode: Callable) -> dict:
    return {
        "partition": str(t.partition),
        "entries": {table_key(prefix, k, r): encode(val)
                    for (k, r), val in sorted(t.entries.items())},
        "out_of_window": {table_key(prefix, k, r): encode(val)
                          for (k, r), val in sorted(t.out_of_window.items())},
    }


def _table_from_json(obj: dict, decode: Callable) -> GeneratorTable:
    def load(section: str) -> dict:
        out = {}
        for key, val in obj[section].items():
            _, k, r = parse_table_key(key)
            out[(k, r)] = decode(val)
        return out

    return GeneratorTable(Partition.parse(obj["partition"]), load("entries"),
                          load("out_of_window"))


def generator_table_to_json(t: GeneratorTable) -> dict:
    return _table_json(t, "w", diffpoly_to_json)


def generator_table_from_json(obj: dict) -> GeneratorTable:
    return _table_from_json(obj, diffpoly_from_json)


def sugawara_table_to_json(t: GeneratorTable) -> dict:
    return _table_json(t, "phi", vacuum_to_json)


def sugawara_table_from_json(obj: dict) -> GeneratorTable:
    return _table_from_json(obj, vacuum_from_json)


# -- LaTeX ----------------------------------------------------------------------


def latex_rat(q: Rat) -> str:
    f = Fraction(q)
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return r"%s\tfrac{%d}{%d}" % (sign, abs(f.numerator), f.denominator)


def latex_var(v: DiffVar) -> str:
    core = r"E_{%d\,%d}^{(%d)}" % (v.i, v.j, v.r)
    if v.s == 0:
        return core
    if v.s == 1:
        return r"\partial %s" % core
    return r"\partial^{%d} %s" % (v.s, core)


def latex_mode(mode: LoopMode) -> str:
    return r"E_{%d\,%d}^{(%d)}[%d]" % (mode.i, mode.j, mode.r, mode.m)


def _latex_sum(parts: list[str]) -> str:
    if not parts:
        return "0"
    return parts[0] + "".join(" - " + part[1:] if part.startswith("-") else " + " + part
                              for part in parts[1:])


def _latex_term(coeff: Rat, factors: list[str]) -> str:
    if not factors:
        return latex_rat(coeff)
    body = r" \, ".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return latex_rat(coeff) + r" \, " + body


def _latex_monomials(x: Sparse, latex_factor: Callable) -> str:
    """The items() of a DiffPoly or VacuumVector in order, each factor
    printed by latex_factor."""
    parts = []
    for mono, c in x.items():
        factors = [latex_factor(f) if e == 1 else "{%s}^{%d}" % (latex_factor(f), e)
                   for f, e in mono]
        parts.append(_latex_term(c, factors))
    return _latex_sum(parts)


def latex_diffpoly(poly: DiffPoly) -> str:
    return _latex_monomials(poly, latex_var)


def latex_vacuum(v: VacuumVector) -> str:
    return _latex_monomials(v, latex_mode)


def _latex_entry(val) -> str:
    """A table entry: a DiffPoly (W-algebra side) or a VacuumVector."""
    return latex_diffpoly(val) if isinstance(val, DiffPoly) else latex_vacuum(val)


def latex_table(t: GeneratorTable, prefix: str) -> str:
    """Align the entries as prefix_k^(r) = entry; the prefix names the side
    (w for W-algebra generators, phi for Segal-Sugawara vectors)."""
    lines = [r"%s_{%d}^{(%d)} &= %s \\" % (prefix, k, r, _latex_entry(val))
             for (k, r), val in t.ordered()]
    return "\\begin{align*}\n%s\n\\end{align*}" % "\n".join(lines)
