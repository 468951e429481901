"""JSON and LaTeX encodings for the algebraic objects.

JSON is canonical and deterministic: rationals are {"num", "den"} string
pairs (safe beyond double precision), monomial lists are emitted in the
canonical term order, and repeated mode factors are expanded so a consumer
never needs the exponent convention.  Every *_to_json has a *_from_json
inverse with parse(serialize(x)) == x; a decoder raises ValueError naming
the item on malformed input.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction
from typing import Callable, Optional

from .affine import LoopMode, VacuumVector, _negative_modes
from .cdet import GeneratorTable, UPoly, in_window
from .centralizer import Partition, Rat, Sparse
from .diffpoly import DiffPoly, DiffVar


def _member(obj, key: str, kind: type = object):
    """obj[key], which must be a kind; else ValueError naming obj, shortened."""
    try:
        val = obj[key]
    except (KeyError, TypeError):
        raise ValueError("%s has no %r" % (reprlib.repr(obj), key)) from None
    if not isinstance(val, kind):
        raise ValueError("%r of %s is not a %s" % (key, reprlib.repr(obj), kind.__name__))
    return val


# -- rationals -----------------------------------------------------------------


def rat_to_json(q: Rat) -> dict:
    if isinstance(q, int):
        return {"num": str(q), "den": "1"}
    f = Fraction(q)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def rat_from_json(obj: dict) -> Rat:
    """Both fields must be the strings rat_to_json writes: int() would also
    truncate a float, read a boolean as 0 or 1, and read "1_0", " +5 ", "-0"
    or non-ASCII digits, so one value would have many spellings."""
    try:
        num, den = obj["num"], obj["den"]
        if type(num) is str and type(den) is str:
            val = int(num) if den == "1" else Fraction(int(num), int(den))
            if rat_to_json(val) == {"num": num, "den": den}:
                return val
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        pass
    raise ValueError('rational %r is not {"num", "den"} integer strings with a nonzero '
                     'denominator' % (obj,))


def _partition(obj: dict) -> Partition:
    """obj's "partition", which must be the canonical text str(p), so that no
    two texts (such as "1,2" and " 1, 02") name one partition."""
    text = _member(obj, "partition", str)
    p = Partition.parse(text)
    if str(p) != text:
        raise ValueError("partition %r is not in canonical form %r" % (text, str(p)))
    return p


# -- differential polynomials ---------------------------------------------------


def diffpoly_to_json(poly: DiffPoly) -> list:
    out = []
    for mono, c in poly.items():
        out.append({
            "coeff": rat_to_json(c),
            "vars": [[v.i, v.j, v.r, v.s, e] for v, e in mono],
        })
    return out


def _term_map(terms) -> dict:
    """The map of (word, coefficient) pairs, each word a tuple of factors
    with a text().  As the encoders write them, every coefficient must be
    nonzero and every word must appear once; else ValueError naming the
    word, so that no two lists of terms decode to one element."""
    out: dict = {}
    for word, c in terms:
        if not c or word in out:
            text = "*".join(x.text() for x in word) or "1"
            raise ValueError(("monomial %s appears twice" if c else
                              "the coefficient of monomial %s is zero") % text)
        out[word] = c
    return out


def _diffpoly_decoder(p: Optional[Partition] = None) -> Callable[[list], DiffPoly]:
    """A decoder of polynomials that builds and checks each distinct variable
    once, for all the polynomials it decodes: s >= 0 and, given p, a basis
    element of p.  As diffpoly_to_json writes them, the variables of a term
    must be strictly increasing, each with an exponent >= 1, so each word is
    sorted as built and no DiffPoly renormalises it.
    """
    known: dict[tuple, DiffVar] = {}

    def terms(obj: list):
        for t in obj:
            word: list = []
            for f in _member(t, "vars", list):
                i, j, r, s, e = f if type(f) is list and len(f) == 5 else (None,) * 5
                # before the lookup: as a key, True and 1.0 equal 1
                if not type(i) is type(j) is type(r) is type(s) is type(e) is int:
                    raise ValueError("variable %r is not five integers (i, j, r, s, e)" % (f,))
                v = known.get((i, j, r, s))
                if v is None:
                    v = DiffVar(s, i, j, r)
                    if s < 0:
                        raise ValueError("bad monomial factor %s^%d" % (v.text(), e))
                    if p is not None:
                        p.check_valid(v.base)
                    known[i, j, r, s] = v
                if e < 1:
                    raise ValueError("bad monomial factor %s^%d" % (v.text(), e))
                if word and not word[-1] < v:
                    raise ValueError("variable %s follows %s: the variables of a term "
                                     "must be strictly increasing" % (v.text(), word[-1].text()))
                word += [v] * e
            yield tuple(word), rat_from_json(_member(t, "coeff"))

    def decode(obj: list) -> DiffPoly:
        if not isinstance(obj, list):
            raise ValueError("polynomial %s is not a list of terms" % reprlib.repr(obj))
        return DiffPoly._raw(_term_map(terms(obj)))

    return decode


def diffpoly_from_json(obj: list) -> DiffPoly:
    return _diffpoly_decoder()(obj)


def lambdapoly_to_json(lp: UPoly) -> dict:
    return {"lambda_powers": {str(k): diffpoly_to_json(c) for k, c in lp.items()}}


def lambdapoly_from_json(obj: dict) -> UPoly:
    """A key must be the canonical text of its power, so that no two keys
    (such as "1" and "01") name the same one."""
    powers = {}
    for key, val in _member(obj, "lambda_powers", dict).items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            k = None
        if str(k) != key:
            raise ValueError("lambda power %r is not an integer in canonical form" % (key,))
        powers[k] = diffpoly_from_json(val)
    return UPoly(powers)


# -- vacuum vectors -------------------------------------------------------------


def vacuum_to_json(v: VacuumVector) -> dict:
    terms = []
    for mono, c in v.items():
        modes = []
        for mode, e in mono:
            modes.extend([[mode.i, mode.j, mode.r, mode.m]] * e)
        terms.append({"coeff": rat_to_json(c), "modes": modes})
    return {"partition": str(v.partition), "terms": terms}


def _vacuum_decoder(p: Partition) -> Callable[[dict], VacuumVector]:
    """A decoder of vectors of partition p (another partition raises
    ValueError) that builds and checks each distinct mode once, for all the
    vectors it decodes.  Each word is checked for PBW order and kept as it
    is, so no VacuumVector renormalises it; as in _term_map, no word may
    repeat and no coefficient may be zero."""
    known: dict[tuple, LoopMode] = {}

    def terms(obj: dict):
        for t in _member(obj, "terms", list):
            word = []
            for f in _member(t, "modes", list):
                # before the lookup: as a key, True and 1.0 equal 1
                if not (isinstance(f, (list, tuple)) and len(f) == 4 and
                        type(f[0]) is type(f[1]) is type(f[2]) is type(f[3]) is int):
                    raise ValueError("loop mode %r is not four integers (i, j, r, m)" % (f,))
                key = tuple(f)
                mode = known.get(key)
                if mode is None:
                    mode = known[key] = _negative_modes(p, (f,))[0]
                word.append(mode)
            if any(b < a for a, b in zip(word, word[1:])):
                raise ValueError("monomial factors not in PBW order")
            yield tuple(word), rat_from_json(_member(t, "coeff"))

    def decode(obj: dict) -> VacuumVector:
        q = _partition(obj)
        if q != p:
            raise ValueError("vector of partition %s in a table of %s" % (q, p))
        return VacuumVector._raw(p, _term_map(terms(obj)))

    return decode


def vacuum_from_json(obj: dict) -> VacuumVector:
    return _vacuum_decoder(_partition(obj))(obj)


# -- generator tables ------------------------------------------------------------


def table_key(prefix: str, k: int, r: int) -> str:
    return "%s[%d][%d]" % (prefix, k, r)


def parse_table_key(key: str) -> tuple[str, int, int]:
    m = re.fullmatch(r"(\w+)\[(\d+)\]\[(\d+)\]", key)
    if m is None:
        raise ValueError("table key %r is not prefix[k][r]" % (key,))
    return m.group(1), int(m.group(2)), int(m.group(3))


def _table_json(t: GeneratorTable, prefix: str, encode: Callable) -> dict:
    return {
        "partition": str(t.partition),
        "entries": {table_key(prefix, k, r): encode(val)
                    for (k, r), val in sorted(t.entries.items())},
        "out_of_window": {table_key(prefix, k, r): encode(val)
                          for (k, r), val in sorted(t.out_of_window.items())},
    }


def _table_from_json(obj: dict, prefix: str, decoder: Callable) -> GeneratorTable:
    """A key must read prefix[k][r] with 1 <= k <= n, in the canonical text
    of table_key, so that no two keys name one entry, and (k, r) must lie in
    the window for "entries" and outside it for "out_of_window".  Every entry
    is decoded by the one decoder(p) of the table's partition p, which checks
    that the entry belongs to p.  No entry may be zero: no builder stores
    one, and a zero entry would pass every check without checking anything."""
    p = _partition(obj)
    decode = decoder(p)

    def load(section: str, inside: bool) -> dict:
        out = {}
        for key, val in _member(obj, section, dict).items():
            pre, k, r = parse_table_key(key)
            if (table_key(pre, k, r) != key or pre != prefix or not 1 <= k <= p.n
                    or in_window(p, k, r) is not inside):
                raise ValueError("%r is not a key of %r for partition %s" % (key, section, p))
            entry = decode(val)
            if not entry:
                raise ValueError("%r in %r is zero" % (key, section))
            out[(k, r)] = entry
        return out

    return GeneratorTable(p, load("entries", True), load("out_of_window", False))


def generator_table_to_json(t: GeneratorTable) -> dict:
    return _table_json(t, "w", diffpoly_to_json)


def generator_table_from_json(obj: dict) -> GeneratorTable:
    return _table_from_json(obj, "w", _diffpoly_decoder)


def sugawara_table_to_json(t: GeneratorTable) -> dict:
    return _table_json(t, "phi", vacuum_to_json)


def sugawara_table_from_json(obj: dict) -> GeneratorTable:
    return _table_from_json(obj, "phi", _vacuum_decoder)


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
