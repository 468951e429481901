"""Sparse differential polynomials in the centralizer variables E[i,j,r][s].

Commutative polynomials with exact rational coefficients in variables
E[i,j,r][s], where s counts applications of the derivation d, which sends
E[i,j,r][s] to E[i,j,r][s+1].  A monomial is keyed by the sorted word of its
factors, one DiffVar per occurrence, as a PBW word is; only DiffPoly.items()
groups a word into (variable, exponent) pairs, for printing.  So equal
polynomials have identical representations.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .centralizer import BasisElt, LieMap, Rat, Sparse, add_into, group_runs


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


# A monomial key is a word: the tuple of its DiffVar factors in sorted order,
# a repeated variable once per factor.  A commutative monomial is a multiset
# of variables, so its sorted tuple is a unique key; the product of two
# monomials is their multiset union, whose key is the sorted concatenation.
Mono = tuple


def mono_degree(mono: Mono) -> int:
    """Derivation degree: E[i,j,r][s] has degree s."""
    return sum(v.s for v in mono)


# Each variable's derived variable v.shifted(), built once: without it every
# derivation makes a new DiffVar for each factor it shifts, and the monomials
# of derived polynomials hold that many copies of equal variables.  Bounded
# by the number of variables met.
_SHIFTED: dict[DiffVar, DiffVar] = {}


def _derive_terms(terms: dict):
    """The terms of d(P) for P with the given terms, by Leibniz, unsummed.

    Soundness.  In d(v_1...v_k) = sum_i v_1...d(v_i)...v_k equal factors give
    equal terms, so the first factor v of each run, times the run's length
    mono.count(v), gives the same sum.  d(v) sorts after v (its s is one
    more), so bisection inserts it after the run and the word stays sorted.
    """
    for mono, c in terms.items():
        for idx, v in enumerate(mono):
            if idx and mono[idx - 1] == v:
                continue
            w = _SHIFTED.get(v)
            if w is None:
                w = _SHIFTED[v] = v.shifted()
            k = bisect(mono, w, idx)
            yield mono[:idx] + mono[idx + 1:k] + (w,) + mono[k:], c * mono.count(v)


class DiffPoly(Sparse):
    """Differential polynomial in canonical sparse form: terms maps each
    monomial's word to its coefficient.  Built from such a map, whose words
    may list their factors in any order: each is sorted, and words equal
    once sorted add.  Rationals coerce to constants in +, -, * and ==."""

    __slots__ = ()

    def __init__(self, terms=None):
        words = [(tuple(sorted(word)), c) for word, c in (terms or {}).items()]
        for word, _ in words:
            if word and word[0].s < 0:  # the least s sorts first
                raise ValueError("bad monomial factor %s" % word[0].text())
        self.terms: dict[Mono, Rat] = add_into({}, words)

    @classmethod
    def const(cls, c: Rat) -> "DiffPoly":
        return cls._raw({(): c} if c else {})

    @classmethod
    def var(cls, v: DiffVar) -> "DiffPoly":
        return cls._raw({(v,): 1})

    @classmethod
    def from_lie(cls, elt: LieMap) -> "DiffPoly":
        """Embed a Lie algebra element at derivative order 0."""
        return cls._raw({(DiffVar.of(e),): c for e, c in elt.items()})

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

    def mul_into(self, acc: dict, other: "DiffPoly", q: Rat = 1) -> dict:
        """Add q * self * other into the word map acc under add_into's rule
        and return acc.  A product word is the sorted concatenation; the
        empty word of a constant leaves the other word as it is."""
        return add_into(acc, ((tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2, c1 * c2 * q)
                              for m1, c1 in self.terms.items()
                              for m2, c2 in other.terms.items()))

    def __mul__(self, other):
        if not isinstance(other, DiffPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = DiffPoly.const(other)
        return DiffPoly._raw(self.mul_into({}, other))

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

    def items(self) -> list:
        """The (monomial, coefficient) pairs, each word grouped into
        (variable, exponent) pairs and sorted by that grouping: the form and
        order the printers and the JSON read.  The runs of a sorted word give
        its monomial's (variable, exponent) list sorted by variable, one list
        per word."""
        return sorted((group_runs(mono), c) for mono, c in self.terms.items())

    def variables(self) -> set[DiffVar]:
        return {v for mono in self.terms for v in mono}

    # -- calculus --------------------------------------------------------

    def derive(self, k: int = 1) -> "DiffPoly":
        """Apply the derivation k times (Leibniz over each monomial)."""
        if k < 0:
            raise ValueError("negative derivation order %d" % k)
        terms = self.terms
        for _ in range(k):
            terms = add_into({}, _derive_terms(terms))
        return DiffPoly._raw(terms)

    def partials(self) -> dict[DiffVar, "DiffPoly"]:
        """All nonzero partial derivatives in one pass.

        Soundness: d/dw (w^e rest) = e w^(e-1) rest, so each run of w gives
        one term, the word without one w times the run's length mono.count(w).
        Distinct words lose one w to distinct words, so no sum cancels.
        """
        out: dict[DiffVar, dict] = {}
        for mono, c in self.terms.items():
            for idx, w in enumerate(mono):
                if idx and mono[idx - 1] == w:
                    continue
                out.setdefault(w, {})[mono[:idx] + mono[idx + 1:]] = c * mono.count(w)
        return {v: DiffPoly._raw(t) for v, t in out.items()}

    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no minimal degree")
        return min(mono_degree(m) for m in self.terms)

    def min_component(self) -> "DiffPoly":
        """Homogeneous component of minimal derivation degree."""
        d = self.min_degree()
        return DiffPoly._raw({m: c for m, c in self.terms.items() if mono_degree(m) == d})

    def eval_at(self, point: dict[DiffVar, Rat]) -> Rat:
        total: Rat = 0
        for mono, c in self.terms.items():
            val = c
            for v in mono:
                if v not in point:
                    raise ValueError("no assignment for variable %s" % v.text())
                val = val * point[v]
            total += val
        return total

    def substitute_consts(self, image: Callable[[DiffVar], Optional[Rat]]) -> "DiffPoly":
        """Algebra map fixing variables where image(v) is None and replacing
        the rest by the returned constant (0 kills the monomial)."""
        def images():
            for mono, c in self.terms.items():
                coeff = c
                kept = []
                for v in mono:
                    val = image(v)
                    if val is None:
                        kept.append(v)
                    elif val:
                        coeff = coeff * val
                    else:
                        break  # the monomial maps to zero
                else:
                    yield tuple(kept), coeff

        return DiffPoly._raw(add_into({}, images()))
