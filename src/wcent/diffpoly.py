"""Sparse differential polynomials in the centralizer variables E[i,j,r][s].

Commutative polynomials with exact rational coefficients in variables
E[i,j,r][s], where s counts applications of the derivation d, which sends
E[i,j,r][s] to E[i,j,r][s+1].  Terms are kept in a canonical sorted form,
so equal polynomials have identical representations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .centralizer import BasisElt, LieMap, Rat, Sparse, add_into


class DiffVar(NamedTuple):
    """Variable E[i,j,r][s].

    The field order (s, i, j, r) is exactly the canonical variable order, so
    tuple comparison gives the ordering used in monomials.
    """

    s: int
    i: int
    j: int
    r: int

    @classmethod
    def of(cls, base: BasisElt, s: int = 0) -> "DiffVar":
        return cls(s, base.i, base.j, base.r)

    @property
    def base(self) -> BasisElt:
        return BasisElt(self.i, self.j, self.r)

    def shifted(self, k: int = 1) -> "DiffVar":
        return DiffVar(self.s + k, self.i, self.j, self.r)

    def text(self) -> str:
        return "E[%d,%d,%d][%d]" % (self.i, self.j, self.r, self.s)


# A monomial key is a tuple of (DiffVar, exponent) pairs sorted by variable.
Mono = tuple


def mono_degree(mono: Mono) -> int:
    """Derivation degree: E[i,j,r][s] has degree s."""
    return sum(v.s * e for v, e in mono)


def _normalize_mono(mono) -> Mono:
    if isinstance(mono, dict):
        items = mono.items()
    else:
        items = mono
    acc: dict[DiffVar, int] = {}
    for v, e in items:
        if not isinstance(v, DiffVar):
            v = DiffVar(*v)
        if e < 0 or v.s < 0:
            raise ValueError("bad monomial factor %s^%d" % (v.text(), e))
        if e:
            acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def _merge_mono(m1: Mono, m2: Mono) -> Mono:
    """Product of two canonical monomials (linear merge of sorted factor lists)."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _derive_terms(terms: dict):
    """The terms of d(P) for P with the given terms, by Leibniz, unsummed."""
    for mono, c in terms.items():
        for idx in range(len(mono)):
            v, e = mono[idx]
            rest = mono[:idx] + ((v, e - 1),) + mono[idx + 1:] if e > 1 \
                else mono[:idx] + mono[idx + 1:]
            yield _merge_mono(rest, ((v.shifted(), 1),)), c * e


class DiffPoly(Sparse):
    """Differential polynomial in canonical sparse form: terms maps each
    monomial to its coefficient.  Rationals coerce to constants in +, -, *
    and ==."""

    __slots__ = ()

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms
        self.terms: dict[Mono, Rat] = add_into(
            {}, ((_normalize_mono(mono), c) for mono, c in items or ()))

    @classmethod
    def const(cls, c: Rat) -> "DiffPoly":
        return cls._raw({(): c} if c else {})

    @classmethod
    def var(cls, v: DiffVar) -> "DiffPoly":
        return cls._raw({((v, 1),): 1})

    @classmethod
    def from_lie(cls, elt: LieMap) -> "DiffPoly":
        """Embed a Lie algebra element at derivative order 0."""
        return cls._raw({((DiffVar.of(e), 1),): c for e, c in elt.items()})

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, DiffPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = DiffPoly.const(other)
        return Sparse.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (DiffPoly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, DiffPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self.scale(other)
        if not self.terms or not other.terms:
            return DiffPoly._raw({})
        return DiffPoly._raw(add_into({}, (
            (_merge_mono(m1, m2), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items())))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "DiffPoly":
        if k < 0:
            raise ValueError("negative power")
        out = DiffPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffPoly) and isinstance(other, (int, Fraction)):
            other = DiffPoly.const(other)
        return Sparse.__eq__(self, other)

    # -- structure -------------------------------------------------------

    def variables(self) -> set[DiffVar]:
        out: set[DiffVar] = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out

    def constant_term(self) -> Rat:
        return self.terms.get((), 0)

    # -- calculus --------------------------------------------------------

    def derive(self, k: int = 1) -> "DiffPoly":
        """Apply the derivation k times (Leibniz over each monomial)."""
        terms = self.terms
        for _ in range(k):
            terms = add_into({}, _derive_terms(terms))
        return DiffPoly._raw(terms)

    def partials(self) -> dict[DiffVar, "DiffPoly"]:
        """All nonzero partial derivatives in one pass."""
        out: dict[DiffVar, dict] = {}
        for mono, c in self.terms.items():
            for idx, (w, e) in enumerate(mono):
                nm = mono[:idx] + ((w, e - 1),) + mono[idx + 1:] if e > 1 \
                    else mono[:idx] + mono[idx + 1:]
                d = out.setdefault(w, {})
                d[nm] = d.get(nm, 0) + c * e
        return {v: DiffPoly._raw(t) for v, t in out.items()}

    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no minimal degree")
        return min(mono_degree(m) for m in self.terms)

    def min_component(self) -> "DiffPoly":
        """Homogeneous component of minimal derivation degree."""
        d = self.min_degree()
        return DiffPoly._raw({m: c for m, c in self.terms.items() if mono_degree(m) == d})

    def is_homogeneous(self) -> bool:
        return len({mono_degree(m) for m in self.terms}) <= 1

    def eval_at(self, point: dict[DiffVar, Rat]) -> Rat:
        total: Rat = 0
        for mono, c in self.terms.items():
            val = c
            for v, e in mono:
                if v not in point:
                    raise ValueError("no assignment for variable %s" % v.text())
                val = val * point[v] ** e
            total += val
        return total

    def substitute_consts(self, image: Callable[[DiffVar], Optional[Rat]]) -> "DiffPoly":
        """Algebra map fixing variables where image(v) is None and replacing
        the rest by the returned constant (0 kills the monomial)."""
        def images():
            for mono, c in self.terms.items():
                coeff = c
                kept = []
                for v, e in mono:
                    val = image(v)
                    if val is None:
                        kept.append((v, e))
                    elif val:
                        coeff = coeff * val ** e
                    else:
                        break  # the monomial maps to zero
                else:
                    yield tuple(kept), coeff

        return DiffPoly._raw(add_into({}, images()))
