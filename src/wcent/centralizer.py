"""Centralizer Lie algebra of a nilpotent matrix with a given Jordan type.

A nilpotent element of gl_N whose Jordan blocks have sizes
lam_1 <= ... <= lam_n has a centralizer spanned by elements E[i,j,r]
(block row i, block column j, shift r) subject to the validity window

    lam_j - min(lam_i, lam_j) <= r < lam_j.

This module enumerates the basis in a fixed canonical order, implements the
commutator together with its truncation rule (E[i,j,r] = 0 once r >= lam_j),
the central powers of the nilpotent, a complement of the derived algebra,
the two invariant symmetric bilinear forms used downstream (the trace form
and the critical-level form), and the upper sector (i < j) of the triangular
decomposition.  It also holds the package's sparse core over Q: add_into, the
one accumulation rule that each ring's mul_into follows too, the base class
Sparse of every sparse element type, the grouping group_runs of a word for
printing, and the exact elimination echelon_insert.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

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


class Sparse:
    """A sparse sum over Q: terms maps each key to its nonzero coefficient.

    The base of DiffPoly, VacuumVector, UPoly and DiffOp.  terms is kept
    through add_into, so equal elements have equal maps.  Each constructor
    takes the map it stores and puts each key in normal form, so
    type(x)(x.terms) == x (with the partition first for a VacuumVector);
    _raw wraps a map whose keys are normal already.  Results are built
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
        """The items() in order as c*x*y^e, for items() keys that are tuples
        of (factor, exponent) pairs whose factors have a text(): the keys
        that DiffPoly.items() and VacuumVector.items() make with group_runs
        from their stored words."""
        bits = []
        for mono, c in self.items():
            factors = [str(c)] if c != 1 or not mono else []
            factors += [x.text() if e == 1 else "%s^%d" % (x.text(), e) for x, e in mono]
            bits.append("*".join(factors))
        return " + ".join(bits) or "0"

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__name__, self.text())


def group_runs(word: tuple) -> tuple:
    """A sorted word as (factor, exponent) pairs, one per run of equal
    factors: the printing form of the monomial keys of DiffPoly and
    VacuumVector, which store one factor per occurrence."""
    out = []
    for x in word:
        if out and out[-1][0] == x:
            out[-1] = (x, out[-1][1] + 1)
        else:
            out.append((x, 1))
    return tuple(out)


class BasisElt(NamedTuple):
    """Basis element E[i,j,r] (1-based block indices)."""

    i: int
    j: int
    r: int

    def text(self) -> str:
        return "E[%d,%d,%d]" % (self.i, self.j, self.r)


@dataclass(frozen=True)
class Partition:
    """Jordan type: a nondecreasing tuple of positive block sizes."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.parts, tuple):
            object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("partition must have at least one part")
        if any(type(x) is not int or x < 1 for x in self.parts):
            raise ValueError("partition parts must be positive integers: %r" % (self.parts,))
        if any(a > b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("partition parts must be nondecreasing: %r" % (self.parts,))

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        toks = [t.strip() for t in text.split(",")]
        # ASCII digits only: str.isdigit also admits "²" and "١"
        if not all(tok.isascii() and tok.isdigit() for tok in toks):
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


def upper_basis(p: Partition) -> list[BasisElt]:
    return [e for e in centralizer_basis(p) if e.i < e.j]


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
    there, and (pivot, value) is returned, the value as a Fraction;
    otherwise vec lies in the span of rows and None is returned.  vec is
    not modified.  A remainder whose pivot value is the int 1 or -1 is kept
    as it is or negated, so integer rows stay integers; any other value,
    a Fraction among them, divides the row.
    """
    vec = dict(vec)
    for pivot, row in rows.items():
        c = vec.get(pivot)
        if c:
            add_into(vec, ((e, -c * q) for e, q in row.items()))
    if not vec:
        return None
    pivot = min(vec)
    c = vec[pivot]
    if type(c) is int and (c == 1 or c == -1):
        rows[pivot] = vec if c == 1 else {e: -q for e, q in vec.items()}
        return pivot, Fraction(c)
    c = Fraction(c)
    rows[pivot] = {e: q / c for e, q in vec.items()}
    return pivot, c


def centre_basis(p: Partition) -> list[LieMap]:
    """The powers e_r = sum over the blocks i with r < lam_i of E[i,i,r],
    0 <= r < lam_n, of the nilpotent: central elements of a.

    Soundness.  By bracket, [e_r, E[k,l,s]] is E[k,l,r+s] from the block
    k (present when r < lam_k) minus E[k,l,r+s] from the block l, each only
    when r + s < lam_l.  Then r < lam_l - s <= min(lam_k, lam_l), as s lies
    in the window of (k, l), so both terms are present and cancel.
    """
    return [{BasisElt(i, i, r): 1 for i in range(1, p.n + 1) if r < p.part(i)}
            for r in range(p.part(p.n))]


def derived_complement(p: Partition, modulo: Iterable[LieMap] = ()) -> list[BasisElt]:
    """Diagonal basis elements, in basis order, spanning a complement of
    [a, a] + span(modulo), for diagonal elements modulo.

    Every off-diagonal E[i,j,r] equals [E[i,i,0], E[i,j,r]], so it lies in
    [a, a], and the only basis brackets with a diagonal part are
    [E[i,j,r], E[j,i,s]].  So [a, a] is the off-diagonal sector plus the span
    of those diagonal parts.  The parts and modulo go into one echelon_insert
    basis; each diagonal element outside the span so far is kept and joins
    it.  With modulo, the result is the elements of derived_complement(p), in
    order, that stay independent modulo [a, a] + span(modulo): a diagonal
    element is kept when it lies outside that space plus the span of the
    diagonal elements before it, and modulo [a, a] those span what the
    elements of derived_complement(p) before it span.
    """
    rows: dict = {}
    basis = centralizer_basis(p)
    for a in basis:
        if a.i < a.j:
            for s in p.r_window(a.j, a.i):
                echelon_insert(rows, bracket(p, a, BasisElt(a.j, a.i, s)))
    for x in modulo:
        echelon_insert(rows, x)
    return [e for e in basis if e.i == e.j and echelon_insert(rows, {e: 1})]


def degree(p: Partition, x) -> int:
    """The degree 2r + lam_i - lam_j of E[i,j,r].

    It is >= 0 on the basis: r >= 0, and r >= lam_j - lam_i when lam_i <
    lam_j.  It adds under bracket, as [E[i,j,r], E[j,l,s]] = E[i,l,r+s].
    Degree 0 is exactly E[i,j,0] with lam_i = lam_j: the subalgebra l, a
    gl(m_s) for each part size s, m_s the number of parts equal to s, so l
    is reductive.  The elements of positive degree span a nilpotent ideal
    n, and a = l + n.  Like bracket, it reads only the fields i, j, r of x.
    """
    return 2 * x.r + p.part(x.i) - p.part(x.j)


def levi_raising(p: Partition) -> list[BasisElt]:
    """The raising operators E[i,i+1,0], lam_i = lam_{i+1}, of l: the simple
    root vectors of each gl(m_s), the blocks of one size being adjacent."""
    return [BasisElt(i, i + 1, 0) for i in range(1, p.n) if p.part(i) == p.part(i + 1)]


def _nilpotent_candidates(p: Partition) -> list[BasisElt]:
    """Basis elements of n whose l-span is n, in basis order.

    For part sizes a != b, with i the first block of size a and j the last
    of size b: E[i,j,r] for each r in the window of (i, j).  The E[k,l,r]
    with lam_k = a and lam_l = b, at one r, form an irreducible l-module
    (the vectors of size a tensor the covectors of size b), which
    [E[k,i,0], [E[i,j,r], E[j,l,0]]] = E[k,l,r] reaches.  For each size s
    and 1 <= r < s, with i the first block of size s: E[i,i,r].  The
    E[k,l,r] with lam_k = lam_l = s form the adjoint module of gl(m_s),
    trivial plus traceless parts, and E[i,i,r] has a nonzero component in
    each part that is present, so its l-span is all of it.  These modules
    exhaust n: r = 0 with lam_k = lam_l is l.
    """
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i in range(1, p.n + 1):
        first.setdefault(p.part(i), i)
        last[p.part(i)] = i
    out = []
    for a, i in first.items():
        for b, j in last.items():
            if a != b:
                out += [BasisElt(i, j, r) for r in p.r_window(i, j)]
            else:
                out += [BasisElt(i, i, r) for r in range(1, a)]
    return sorted(out)


def nilpotent_generators(p: Partition) -> list[BasisElt]:
    """S: the candidates of _nilpotent_candidates, in basis order, that stay
    independent modulo W = [n, n] + span(e_r, r >= 1), by one exact
    elimination.

    W is an l-submodule: n is an ideal, so [l, [n, n]] lies in [n, n], and
    each e_r is central (centre_basis).  So U(l)S + W is an l-submodule; it
    holds every candidate, as each one lies in span(S) + W, hence the
    candidates' l-span n.  A subalgebra B of the nilpotent n with
    B + [n, n] = n is n itself (Jacobson, Lie Algebras, 1962): so a
    subalgebra that holds l, S and the e_r is a.
    """
    nil = [x for x in centralizer_basis(p) if degree(p, x)]
    rows: dict = {}
    for k, a in enumerate(nil):
        for b in nil[k + 1:]:
            echelon_insert(rows, bracket(p, a, b))
    for e in centre_basis(p)[1:]:
        echelon_insert(rows, e)
    return [x for x in _nilpotent_candidates(p) if echelon_insert(rows, {x: 1})]


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
