"""Centralizer Lie algebra of a nilpotent matrix with a given Jordan type.

A nilpotent element of gl_N whose Jordan blocks have sizes
lam_1 <= ... <= lam_n has a centralizer spanned by elements E[i,j,r]
(block row i, block column j, shift r) subject to the validity window

    lam_j - min(lam_i, lam_j) <= r < lam_j.

This module enumerates the basis in a fixed canonical order, implements the
commutator together with its truncation rule (E[i,j,r] = 0 once r >= lam_j),
a complement of the derived algebra, the two invariant symmetric bilinear
forms used downstream (the trace form and the critical-level form), and the
triangular decomposition by the sign of j - i.  It also holds the package's
sparse core over Q: add_into, sum_by_key, the base class Sparse of every
sparse element type, and the exact elimination echelon_insert.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

Rat = Union[int, Fraction]


def add_into(acc: dict, items) -> dict:
    """Add (key, coefficient) pairs into the sparse map acc and return it.

    Every sparse type in the package keeps this invariant through here: no
    zero coefficient is ever stored, so equal elements are equal dicts.  Zero
    inputs are skipped and a key whose sum cancels is deleted.  Coefficients
    may be rationals or ring elements (anything with + and truth testing).
    """
    for key, c in items:
        if not c:
            continue
        if key in acc:
            c = acc[key] + c
            if not c:
                del acc[key]
                continue
        acc[key] = c
    return acc


def sum_by_key(items) -> dict:
    """Sum (key, ring element) pairs into a new sparse map, each key once.

    Adding ring elements one by one into a map copies the growing sum on
    every addition; this groups each key's nonzero elements first and adds
    them with the ring's n-ary type(c).sum(elements) in one pass.  As with
    add_into, no zero value is stored.
    """
    out: dict = {}
    groups: dict = {}  # key -> its elements, for keys met more than once
    for key, c in items:
        if not c:
            continue
        if key not in out:
            out[key] = c
        elif key in groups:
            groups[key].append(c)
        else:
            groups[key] = [out[key], c]
    for key, cs in groups.items():
        total = type(cs[0]).sum(cs)
        if total:
            out[key] = total
        else:
            del out[key]
    return out


class Sparse:
    """A sparse sum over Q: terms maps each key to its nonzero coefficient.

    The base of DiffPoly, VacuumVector, UPoly and DiffOp.  terms is kept
    through add_into, so equal elements have equal maps.  Results are built
    by _like, which a subclass with fields besides terms (the partition of
    a VacuumVector) overrides; a subclass whose coefficients are ring
    elements overrides scale.
    """

    __slots__ = ("terms",)

    @classmethod
    def _raw(cls, terms: dict):
        """Wrap a map that already holds no zero coefficient."""
        self = object.__new__(cls)
        self.terms = terms
        return self

    _like = _raw  # from an instance: an element of the same space

    @classmethod
    def zero(cls, *space):
        """The zero element; space is what _raw takes besides the terms."""
        return cls._raw(*space, {})

    def __add__(self, other):
        return self._like(add_into(dict(self.terms), other.terms.items()))

    @classmethod
    def sum(cls, items: list):
        """n-ary sum: copies the first summand once and adds the rest into it."""
        if not items:
            return cls._raw({})
        acc = dict(items[0].terms)
        for x in items[1:]:
            add_into(acc, x.terms.items())
        return items[0]._like(acc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, q: Rat):
        if not q:
            return self._like({})
        return self._like({k: c * q for k, c in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def items(self) -> list:
        """The (key, coefficient) pairs in key order."""
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, Sparse):
            return other.__class__ is self.__class__ and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def text(self) -> str:
        """The terms in key order as c*x*y^e, for keys that are tuples of
        (factor, exponent) pairs whose factors have a text()."""
        bits = []
        for mono, c in self.items():
            factors = [str(c)] if c != 1 or not mono else []
            factors += [x.text() if e == 1 else "%s^%d" % (x.text(), e) for x, e in mono]
            bits.append("*".join(factors))
        return " + ".join(bits) or "0"

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__name__, self.text())


class BasisElt(NamedTuple):
    """Basis element E[i,j,r] (1-based block indices)."""

    i: int
    j: int
    r: int

    def text(self) -> str:
        return "E[%d,%d,%d]" % (self.i, self.j, self.r)


_BASIS_RE = re.compile(r"E\[(\d+),(\d+),(\d+)\]")


def parse_basis_elt(text: str) -> BasisElt:
    m = _BASIS_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError("cannot parse basis element %r (expected E[i,j,r])" % (text,))
    return BasisElt(int(m.group(1)), int(m.group(2)), int(m.group(3)))


@dataclass(frozen=True)
class Partition:
    """Jordan type: a nondecreasing tuple of positive block sizes."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.parts, tuple):
            object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("partition must have at least one part")
        if any(not isinstance(x, int) or x < 1 for x in self.parts):
            raise ValueError("partition parts must be positive integers: %r" % (self.parts,))
        if any(a > b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("partition parts must be nondecreasing: %r" % (self.parts,))

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        toks = [t.strip() for t in text.split(",")]
        if not all(tok.isdigit() and tok for tok in toks):
            raise ValueError("cannot parse partition %r (expected e.g. '1,2,2')" % (text,))
        return cls(tuple(int(t) for t in toks))

    @property
    def n(self) -> int:
        """Number of blocks."""
        return len(self.parts)

    @property
    def N(self) -> int:
        """Size of the ambient matrix."""
        return sum(self.parts)

    def part(self, i: int) -> int:
        """Block size lam_i, 1-based."""
        return self.parts[i - 1]

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.parts)

    def r_window(self, i: int, j: int) -> range:
        """Valid shifts r for E[i,j,r]."""
        lj = self.part(j)
        return range(lj - min(self.part(i), lj), lj)

    def is_valid(self, e: BasisElt) -> bool:
        return (1 <= e.i <= self.n and 1 <= e.j <= self.n
                and e.r in self.r_window(e.i, e.j))

    def check_valid(self, e: BasisElt) -> None:
        if not self.is_valid(e):
            raise ValueError("%s is not a basis element for partition %s" % (e.text(), self))


def centralizer_basis(p: Partition) -> list[BasisElt]:
    """All valid E[i,j,r], ordered by (i, j, r)."""
    return [BasisElt(i, j, r)
            for i in range(1, p.n + 1)
            for j in range(1, p.n + 1)
            for r in p.r_window(i, j)]


def centralizer_dim(p: Partition) -> int:
    return sum(min(a, b) for a in p.parts for b in p.parts)


def upper_basis(p: Partition) -> list[BasisElt]:
    return [e for e in centralizer_basis(p) if e.i < e.j]


def lower_basis(p: Partition) -> list[BasisElt]:
    return [e for e in centralizer_basis(p) if e.i > e.j]


def cartan_basis(p: Partition) -> list[BasisElt]:
    return [e for e in centralizer_basis(p) if e.i == e.j]


def parabolic_basis(p: Partition) -> list[BasisElt]:
    """Lower plus Cartan sectors."""
    return [e for e in centralizer_basis(p) if e.i >= e.j]


LieMap = dict  # BasisElt -> nonzero Rat: a Lie algebra element, sparse


def bracket(p: Partition, a, b) -> LieMap:
    """Commutator [E[i,j,r], E[k,l,s]] with truncation at the column size.

    Reads only the fields i, j, r of a and b, so a BasisElt, a LoopMode or a
    DiffVar may be passed.  Returns a new map, which the caller may keep.
    """
    if a.i == a.j == b.i == b.j:
        return {}  # diagonal in one block: the two terms coincide and cancel
    t = a.r + b.r
    out: LieMap = {}
    if b.i == a.j and t < p.part(b.j):
        out[BasisElt(a.i, b.j, t)] = 1
    if a.i == b.j and t < p.part(a.j):
        out[BasisElt(b.i, a.j, t)] = -1
    return out


def lie_bracket(p: Partition, x: LieMap, y: LieMap) -> LieMap:
    """Bilinear extension of the commutator."""
    return add_into({}, ((e, ca * cb * c)
                         for a, ca in x.items()
                         for b, cb in y.items()
                         for e, c in bracket(p, a, b).items()))


def echelon_insert(rows: dict, vec: dict) -> Optional[tuple]:
    """Reduce the sparse vector vec exactly over Q against the echelon rows.

    rows maps each pivot to its row, which is 1 at its pivot and zero at the
    pivots of the rows inserted before it, so one pass in insertion order
    leaves vec zero at every pivot.  If a remainder is left, its least key
    becomes the pivot of a new row, the remainder divided by its value
    there, and (pivot, value) is returned; otherwise vec lies in the span of
    rows and None is returned.  vec is not modified.
    """
    vec = dict(vec)
    for pivot, row in rows.items():
        c = vec.get(pivot)
        if c:
            add_into(vec, ((e, -c * q) for e, q in row.items()))
    if not vec:
        return None
    pivot = min(vec)
    c = Fraction(vec[pivot])
    rows[pivot] = {e: q / c for e, q in vec.items()}
    return pivot, c


def derived_complement(p: Partition) -> list[BasisElt]:
    """Diagonal basis elements, in basis order, spanning a complement of [a, a].

    Every off-diagonal E[i,j,r] equals [E[i,i,0], E[i,j,r]], so it lies in
    [a, a], and the only basis brackets with a diagonal part are
    [E[i,j,r], E[j,i,s]].  So [a, a] is the off-diagonal sector plus the span
    of those diagonal parts.  The parts go into one echelon_insert basis;
    each diagonal element outside the span so far is kept and joins it.
    """
    rows: dict = {}
    basis = centralizer_basis(p)
    for a in basis:
        if a.i < a.j:
            for s in p.r_window(a.j, a.i):
                echelon_insert(rows, bracket(p, a, BasisElt(a.j, a.i, s)))
    return [e for e in basis if e.i == e.j and echelon_insert(rows, {e: 1})]


def trace_form(p: Partition, a, b) -> Rat:
    """Trace form: (E[i,j,0] | E[j,i,0]) = lam_i, zero elsewhere.

    The off-diagonal case only pairs blocks of equal size; that is guarded
    explicitly rather than inferred from element validity.  Like bracket, it
    reads only the fields i, j, r of a and b.
    """
    if a.r or b.r:
        return 0
    if a.j != b.i or a.i != b.j:
        return 0
    if a.i != a.j and p.part(a.i) != p.part(a.j):
        return 0
    return p.part(a.i)


def _row_weight(p: Partition, i: int) -> int:
    # lam_1 + ... + lam_{i-1} + (n - i + 1) * lam_i
    return sum(p.parts[:i - 1]) + (p.n - i + 1) * p.part(i)


def critical_form(p: Partition, a, b) -> Rat:
    """Critical-level invariant form; nonzero only on shift-0 pairs.

    <E[i,i,0], E[j,j,0]> = min(lam_i, lam_j) - delta_ij * w_i and
    <E[i,j,0], E[j,i,0]> = -w_i for i != j with lam_i = lam_j, where
    w_i = lam_1 + ... + lam_{i-1} + (n - i + 1) lam_i.  Like bracket, it
    reads only the fields i, j, r of a and b.
    """
    if a.r or b.r:
        return 0
    if a.i == a.j and b.i == b.j:
        val = min(p.part(a.i), p.part(b.i))
        if a.i == b.i:
            val -= _row_weight(p, a.i)
        return val
    if a.j == b.i and a.i == b.j and p.part(a.i) == p.part(a.j):
        return -_row_weight(p, a.i)
    return 0


def form_on_elements(p: Partition, form, x: LieMap, y: LieMap) -> Rat:
    """Bilinear extension of a form given on basis pairs."""
    return sum(ca * cb * form(p, a, b) for a, ca in x.items() for b, cb in y.items())


def all_partitions(max_sum: int, max_parts: int | None = None) -> list[Partition]:
    """All Jordan types with 1 <= N <= max_sum, ordered by (N, parts)."""
    out: list[Partition] = []

    def extend(prefix: list[int], remaining: int, minpart: int) -> None:
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        if max_parts is not None and len(prefix) >= max_parts:
            return
        for x in range(minpart, remaining + 1):
            prefix.append(x)
            extend(prefix, remaining - x, x)
            prefix.pop()

    for total in range(1, max_sum + 1):
        extend([], total, 1)
    return out
