"""Vacuum module of the affinized centralizer at the critical level.

Elements are PBW-normal-ordered words in negative loop modes E[i,j,r](m),
m <= -1, applied to the vacuum; a vector's terms are keyed by these words,
one LoopMode per factor, and only VacuumVector.items() groups a repeated
mode into a (mode, exponent) pair for printing.  A LoopMode is stored as its
PBW key, so the order of a word is plain tuple order.  The commutator of
modes is

    [X(a), Y(b)] = [X, Y](a + b) + a * delta_{a,-b} <X, Y>,

with the critical-level form as central charge; the central generator acts
as 1 on the vacuum.  The partition in use has one commutator table, filled
on first use, that holds [X, Y](a + b) for each pair of modes met; both the
straightening and the action of nonnegative modes read it, and call
bracket only on a miss; moving to another partition drops it.  On top of
the normal-ordering engine this module builds the translation operator, the
action of nonnegative modes, the Segal-Sugawara vectors (ss_vectors: the
operator matrix with the modes E[i,j,r](-1) as entries and the translation
operator in the derivation slot), a centre membership check, the
Harish-Chandra projection onto diagonal modes, and the comparison map that
matches Miura images of the W-algebra generators with the projected
Segal-Sugawara vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, prod
from operator import itemgetter
from typing import Iterable, Optional

from .centralizer import (BasisElt, Partition, Rat, Sparse, add_into, bracket,
                          centralizer_basis, centre_basis, critical_form,
                          derived_complement, group_runs, levi_raising,
                          nilpotent_generators)
from .cdet import GeneratorTable, generator_table, miura_image, w_generators
from .diffpoly import DiffPoly


class LoopMode(tuple):
    """Loop algebra element E[i,j,r](m), the basis element at t-power m.

    Built and read as (i, j, r, m), but stored as its PBW key
    (sector, -m, i, j, r), so tuple comparison is the PBW order: lower
    (i > j) sector 0, Cartan 1, upper 2, so upper factors sit rightmost, and
    shallow modes first within a sector.  The key holds every field, so
    equal keys mean equal modes.
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int, r: int, m: int) -> "LoopMode":
        return tuple.__new__(cls, (1 + (i < j) - (i > j), -m, i, j, r))

    sector = property(itemgetter(0), doc="Lower 0, Cartan 1, upper 2.")
    i = property(itemgetter(2))
    j = property(itemgetter(3))
    r = property(itemgetter(4))

    @property
    def m(self) -> int:
        return -self[1]

    @classmethod
    def of(cls, base: BasisElt, m: int) -> "LoopMode":
        return cls(base.i, base.j, base.r, m)

    @property
    def base(self) -> BasisElt:
        return BasisElt(self.i, self.j, self.r)

    def __getnewargs__(self) -> tuple:
        # pickle and copy rebuild through __new__, which takes the fields
        return (self.i, self.j, self.r, self.m)

    def __repr__(self) -> str:
        return "LoopMode(i=%d, j=%d, r=%d, m=%d)" % (self.i, self.j, self.r, self.m)

    def text(self) -> str:
        return "E[%d,%d,%d](%d)" % (self.i, self.j, self.r, self.m)


# A PBW monomial is a word: a tuple of LoopModes in nondecreasing order, a
# repeated mode appearing once per factor.  A mode is its PBW key, so the
# order of a word is plain tuple order.
PBWMono = tuple


def _printing_order(item) -> list:
    """Sort key of items(): each (mode, exponent) pair as (i, j, r, m, exponent)."""
    return [(mode.i, mode.j, mode.r, mode.m, e) for mode, e in item[0]]


class _Commutators(dict):
    """The commutator table of one partition p: maps a pair (a, y) of
    LoopModes to the loop part [a, y](a.m + y.m) of their commutator, a
    tuple with one (z(a.m + y.m), c) per term c z of bracket(p, a, y), or ()
    when that bracket is zero.  The central part, nonzero only when
    a.m = -y.m, is left to critical_form.  An entry is computed on first use
    (by __missing__, through the module's bracket, so a tracer that rebinds
    it counts each miss) and kept as long as the table, which _commutators
    holds only while its partition is in use.  modes holds the LoopModes
    that the VacuumVector constructor has found to be negative modes of p,
    so that it checks each mode once while the table lasts.

    Soundness.  bracket reads only the fields i, j, r of each factor and the
    partition, which the table fixes; the key holds the whole of both modes,
    so it fixes a.m + y.m and with it every pushed mode.  A value is a tuple
    of immutable LoopModes and rationals, so no caller can change an entry.
    """

    __slots__ = ("p", "modes")

    def __init__(self, p: Partition):
        super().__init__()
        self.p = p
        self.modes: set[LoopMode] = set()

    def __missing__(self, key: tuple[LoopMode, LoopMode]) -> tuple:
        a, y = key
        mm = -a[1] - y[1]  # a.m + y.m, read off the keys
        val = self[key] = tuple((LoopMode(z.i, z.j, z.r, mm), c)
                                for z, c in bracket(self.p, a, y).items())
        return val


@lru_cache(maxsize=1)
def _commutators(p: Partition) -> _Commutators:
    """The commutator table of p.  Only the partition in use keeps its
    table: a call for another partition drops it, and a later call for p
    starts an empty one."""
    return _Commutators(p)


def _normal_insert(acc: dict, table: _Commutators, seq: tuple[LoopMode, ...],
                   coeff: Rat) -> None:
    """Add coeff * seq, a word of negative modes, into acc in PBW order.

    table is the commutator table of the word's partition.  Each finished
    word is added straight into acc under add_into's rule: no zero is
    stored, and a key whose sum cancels is deleted.

    Soundness.  One insertion pass per word s, with coefficient c.  The list
    out holds s[:pos] sorted, and y = s[pos] moves left past each factor a
    of out with a > y, the nearest first.  With k the index of a, crossing
    it uses a y = y a + [a, y]: the reordered word keeps c, and for each term
    (z, cz) of table[a, y] the word out[:k] z out[k+1:] s[pos+1:] is pushed
    with c * cz.  So at every step c s equals c out s[pos:] plus the pushed
    words, out stays sorted, and each inversion of s is crossed exactly
    once.  No central term arises, as a.m + y.m <= -2.  [a, y] is nonzero
    only if a.j = y.i or a.i = y.j (the test _act uses), so a crossing that
    meets neither pushes nothing and is not looked up.  Each pushed word is
    one factor shorter than s, so the stack empties.  The PBW normal form is
    unique, so the summed words equal those of straightening by adjacent
    swaps; only the order in which they reach acc differs, and items()
    sorts.
    """
    if not coeff:
        return
    stack = [(seq, coeff)]
    while stack:
        s, c = stack.pop()
        out: list = []
        for pos, y in enumerate(s):
            k = len(out)
            while k and out[k - 1] > y:
                k -= 1
                a = out[k]
                if a[3] != y[2] and a[2] != y[3]:  # a.j != y.i and a.i != y.j
                    continue  # [a, y] = 0
                terms = table[a, y]
                if terms:
                    rest = s[pos + 1:]
                    for z, cz in terms:
                        out[k] = z
                        stack.append((tuple(out) + rest, c * cz))
                    out[k] = a
            out.insert(k, y)
        # add_into's invariant, inline: c is nonzero, so only a sum that
        # cancels can reach zero, and then its key is deleted
        word = tuple(out)
        if word in acc:
            c += acc[word]
            if not c:
                del acc[word]
                continue
        acc[word] = c


def _negative_modes(p: Partition, modes: Iterable) -> tuple[LoopMode, ...]:
    """The modes as a tuple of LoopModes, each of p with m <= -1.  A mode
    given otherwise must be four integers (i, j, r, m)."""
    out = []
    for mode in modes:
        if not isinstance(mode, LoopMode):
            if not (isinstance(mode, (list, tuple)) and len(mode) == 4 and
                    type(mode[0]) is type(mode[1]) is type(mode[2]) is type(mode[3]) is int):
                raise ValueError("loop mode %r is not four integers (i, j, r, m)" % (mode,))
            mode = LoopMode(*mode)
        if mode.m > -1:
            raise ValueError("non-negative mode %s on the vacuum" % mode.text())
        p.check_valid(mode.base)
        out.append(mode)
    return tuple(out)


class VacuumVector(Sparse):
    """PBW-normal-ordered element of the vacuum module (equivalently, of the
    enveloping algebra of the negative loop modes) of one partition: terms
    maps each PBW word to its coefficient.  Built from such a map, whose
    words may be any products of negative modes of the partition, each
    mode a LoopMode or a tuple (i, j, r, m) of integers: each word is
    straightened to PBW order and the results add.  +, - and * raise
    ValueError on vectors of different partitions."""

    __slots__ = ("partition",)

    def __init__(self, partition: Partition, terms=None):
        self.partition = partition
        self.terms = {}
        if terms:
            table = _commutators(partition)
            for word, c in terms.items():
                if not table.modes.issuperset(word):
                    word = _negative_modes(partition, word)
                    table.modes.update(word)
                _normal_insert(self.terms, table, word, c)

    @classmethod
    def _raw(cls, partition: Partition, terms: dict) -> "VacuumVector":
        self = object.__new__(cls)
        self.partition = partition
        self.terms = terms
        return self

    def _like(self, terms: dict) -> "VacuumVector":
        return VacuumVector._raw(self.partition, terms)

    @classmethod
    def vacuum(cls, p: Partition, coeff: Rat = 1) -> "VacuumVector":
        return cls._raw(p, {(): coeff} if coeff else {})

    @classmethod
    def single(cls, p: Partition, base: BasisElt, m: int, coeff: Rat = 1) -> "VacuumVector":
        word = _negative_modes(p, [LoopMode.of(base, m)])
        return cls._raw(p, {word: coeff} if coeff else {})

    @classmethod
    def from_modes(cls, p: Partition, modes: Iterable[LoopMode],
                   coeff: Rat = 1) -> "VacuumVector":
        return normal_order(p, modes, coeff)

    # -- arithmetic -------------------------------------------------------

    def _match(self, other: "VacuumVector") -> None:
        if self.partition != other.partition:
            raise ValueError("mixing vacuum vectors of different partitions")

    def __add__(self, other: "VacuumVector") -> "VacuumVector":
        self._match(other)
        return Sparse.__add__(self, other)

    def mul_into(self, acc: dict, other: "VacuumVector", q: Rat = 1) -> dict:
        """Add q * self * other into the word map acc under add_into's rule
        and return acc: each product of words is their concatenation,
        straightened by _normal_insert."""
        self._match(other)
        table = _commutators(self.partition)
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _normal_insert(acc, table, m1 + m2, c1 * c2 * q)
        return acc

    def __mul__(self, other: "VacuumVector") -> "VacuumVector":
        """Normal-ordered product (concatenate words, then straighten)."""
        return self._like(self.mul_into({}, other))

    def derive(self, k: int = 1) -> "VacuumVector":
        """Translation operator: a derivation with X(m) -> -m X(m-1)."""
        if k < 0:
            raise ValueError("negative derivation order %d" % k)
        table = _commutators(self.partition)
        out = self
        for _ in range(k):
            acc: dict[PBWMono, Rat] = {}
            for word, c in out.terms.items():
                for idx, mode in enumerate(word):
                    nm = LoopMode(mode.i, mode.j, mode.r, mode.m - 1)
                    _normal_insert(acc, table, word[:idx] + (nm,) + word[idx + 1:],
                                   c * (-mode.m))
            out = VacuumVector._raw(out.partition, acc)
        return out

    # -- structure --------------------------------------------------------

    def items(self) -> list:
        """The (monomial, coefficient) pairs, each word grouped into (mode,
        exponent) pairs and sorted by that grouping read as (i, j, r, m,
        exponent) per pair: the form and order the printers and the JSON
        read.  That is field order, not the PBW order of the stored modes."""
        return sorted(((group_runs(word), c) for word, c in self.terms.items()),
                      key=_printing_order)

    def __eq__(self, other) -> bool:
        if isinstance(other, VacuumVector) and self.partition != other.partition:
            return False
        return Sparse.__eq__(self, other)

    @property
    def depth(self) -> int:
        """Largest total t-degree (sum of -m over factors) of any monomial."""
        if not self.terms:
            return 0
        return max(sum(-mode.m for mode in word) for word in self.terms)

    def is_weight_zero(self) -> bool:
        """Zero weight under the adjoint action of the diagonal E[i,i,0](0)."""
        return all(not weights(word) for word in self.terms)


def weights(word: PBWMono) -> dict[int, int]:
    """The nonzero weights of a word under the diagonal E[i,i,0](0)."""
    w: dict[int, int] = {}
    for mode in word:
        w[mode.i] = w.get(mode.i, 0) + 1
        w[mode.j] = w.get(mode.j, 0) - 1
    return {i: x for i, x in w.items() if x}


def normal_order(p: Partition, modes: Iterable[LoopMode], coeff: Rat = 1) -> VacuumVector:
    """PBW normal form of a formal product of negative modes."""
    # as LoopModes, so that modes given as lists can key the map
    return VacuumVector(p, {_negative_modes(p, modes): coeff})


def act_mode(x: BasisElt, m: int, v: VacuumVector) -> VacuumVector:
    """Action of the nonnegative mode x(m), m >= 0, on a vacuum vector.

    Commutes the mode rightwards; it annihilates the vacuum, and crossing a
    factor y(b) yields [x, y](m + b) plus the central term
    m * delta_{m,-b} <x, y> (the centre acts as 1).
    """
    if m < 0:
        raise ValueError("act_mode expects a non-negative mode")
    p = v.partition
    p.check_valid(x)
    table = _commutators(p)
    mode = LoopMode(x.i, x.j, x.r, m)
    acc: dict[PBWMono, Rat] = {}
    for word, c in v.terms.items():
        _act(table, mode, word, c, acc)
    return VacuumVector._raw(p, acc)


def _act(table: _Commutators, x: LoopMode, seq: PBWMono, coeff: Rat, acc: dict) -> None:
    """Add coeff * x seq|0> into acc, for a mode x = x(m) with m >= 0 and a
    PBW word seq; table is the commutator table of the partition.

    Soundness.  ad x(m) is a derivation and x(m)|0> = 0 for m >= 0, so for
    seq = y_1 ... y_k

        x(m) y_1 ... y_k|0> = sum_i y_1 ... y_{i-1} [x(m), y_i] y_{i+1} ... y_k|0>,

    with [x(m), y(b)] = [x, y](m + b) + m delta_{m,-b} <x, y>.  The table
    holds the first part under the key (x, y), as it holds a crossing of
    _normal_insert: bracket reads only i, j, r, and the key fixes m + b.
    For each z(t) in it: a negative mode is spliced in at position i and
    that word is straightened once; a mode with t >= 0 acts on the suffix,
    itself a PBW word, by recursion, whose PBW words are straightened once
    behind the prefix (with an empty prefix they are already in order).
    The central term is the word with y_i deleted, a subword of a PBW word
    and so already in PBW order: it is added unstraightened.  bracket(x, y)
    is nonzero only if x.j = y.i or x.i = y.j (the index test
    _normal_insert applies to each crossing), and the central term needs
    y.m = -m, so a position meeting neither is skipped without a lookup.
    """
    m = -x[1]
    xi, xj = x[2], x[3]
    for idx, y in enumerate(seq):
        central = y[1] == m  # y.m == -m; never for m = 0, as y.m <= -1
        if xj != y[2] and xi != y[3] and not central:  # y[2], y[3] = y.i, y.j
            continue  # [x(m), y] = 0
        head, rest = seq[:idx], seq[idx + 1:]
        for z, cz in table[x, y]:
            if z[1] > 0:  # z.m < 0
                _normal_insert(acc, table, head + (z,) + rest, coeff * cz)
            elif head:
                sub: dict[PBWMono, Rat] = {}
                _act(table, z, rest, coeff * cz, sub)
                for word, c in sub.items():
                    _normal_insert(acc, table, head + word, c)
            else:
                _act(table, z, rest, coeff * cz, acc)
        if central:
            q = critical_form(table.p, x, y)
            if q:
                add_into(acc, ((head + rest, coeff * m * q),))


# -- Segal-Sugawara vectors ----------------------------------------------------


def ss_vectors(p: Partition) -> GeneratorTable:
    """The table of the operator matrix with each E[i,j,r] lifted to the
    mode E[i,j,r](-1), the translation operator in the derivation slot."""
    return generator_table(p, VacuumVector.vacuum(p),
                           lambda e: VacuumVector.single(p, e, -1))


# -- centre check and projections ----------------------------------------------


@dataclass
class CenterCheck:
    ok: bool
    witness: Optional[tuple[BasisElt, int, VacuumVector]] = None


CENTER_SPOT_CHECKS = 3


def center_check(v: VacuumVector) -> CenterCheck:
    """Whether every nonnegative mode annihilates v.

    Runs the weight test, then scans the generating set of _generating_scan
    (m-major); if the test or an element of the set fails, returns
    _full_scan(v), so the witness is still the first nonzero x(m) v in
    (m, basis) order, and raises ArithmeticError if that scan finds none.
    Then checks the degree bound at depth + 1 on the first
    CENTER_SPOT_CHECKS basis elements, raising ArithmeticError if one of
    them does not annihilate v.

    Soundness.  The annihilator of v is a subspace of a[t], closed under
    brackets, and [x(a), y(b)] = [x, y](a + b) has no central term when
    a, b >= 0.  Grade a by centralizer.degree, a = l + n, with l the
    reductive part of degree 0 and n the nilpotent ideal of positive
    degree.  Let C be derived_complement(p), spanning a complement of
    [a, a], C_0 its shift-0 elements, z the span of the central powers
    e_r of centre_basis(p), and C' the elements of C that stay independent
    modulo [a, a] + z, so that C' completes [a, a] + z to a.
    (z) Every e_r(m), m >= 0, kills every vector.  e_r is central, by the
        truncation rule (centre_basis), and it is orthogonal to a under the
        critical form: for r >= 1 because the form vanishes off shift 0,
        and for r = 0 because it pairs a diagonal element only with
        diagonal ones and <e_0, E[j,j,0]> = sum_i min(lam_i, lam_j) - w_j
        = 0, the parts being in order.  So [e_r(m), y(b)] = 0 for every mode
        y(b), and e_r(m) kills the vacuum.
    (w) E[i,i,0](0) has no central term and [E[i,i,0], y] = (delta_{i,y.i}
        - delta_{i,y.j}) y, so it multiplies each PBW word by its block-i
        weight (weights).  Distinct words are independent, so every
        E[i,i,0](0) kills v exactly when is_weight_zero() holds.
    (hw) Mode 0 keeps the depth, so the words of depth at most that of v
        span a finite-dimensional l(0)-module.  l is a sum of gl(m_s), whose
        centres act by weights, so diagonally; by Weyl's theorem for the
        semisimple part the module is a direct sum of irreducibles
        (Humphreys, Introduction to Lie Algebras and Representation Theory,
        1972).  The projections onto isotypic parts commute with l, so each
        part of a weight-zero v killed by the raising operators of
        levi_raising is a highest-weight vector of weight 0, hence lies in
        a trivial module.  So all of l(0) kills v.
    (S) Then the annihilator of v at mode 0 is a subalgebra that holds l
        and, by (z), every e_r; with S = nilpotent_generators(p) it is all
        of a (its docstring gives the argument).
    (1) Once a(0) annihilates v, I = {x : x(1) v = 0} is an ideal of a, as
        [y, x](1) = [y(0), x(1)].  C_0 is E[i,i,0] for the first block i of
        each part size s.  Let tau_s be the sum of the E[j,j,0]-
        coefficients over the blocks j of size s.  A basis bracket has a
        shift-0 diagonal part only as [E[i,l,0], E[l,i,0]] = E[i,i,0] -
        E[l,l,0] with lam_i = lam_l, so tau_s vanishes on [a, a]; it also
        vanishes on the elements of C before E[i,i,0], which sit on
        earlier blocks, of other sizes, but tau_s(E[i,i,0]) = 1.  For
        lam_l = lam_i, [E[l,i,0], E[i,i,0]] = E[l,i,0] and [E[i,l,0],
        E[l,i,0]] = E[i,i,0] - E[l,l,0], so I holds every E[l,l,0], hence
        every [E[l,l,0], E[l,j,r]] = E[l,j,r], hence [a, a].  It holds z by
        (z), and with C' all of a.
    (m >= 2) [a(1), a(m-1)] = [a, a](m), and z(m) and C'(m) complete a(m).
    Modes above the depth of v kill it for degree reasons.
    """
    if not v.is_weight_zero():
        return _witness(v, "the weight test")
    p = v.partition
    d = v.depth
    for x, m in _generating_scan(p, d):
        if act_mode(x, m, v):
            return _witness(v, "%s(%d)" % (x.text(), m))
    for x in centralizer_basis(p)[:CENTER_SPOT_CHECKS]:
        if act_mode(x, d + 1, v):
            raise ArithmeticError("depth bound violated at %s(%d)" % (x.text(), d + 1))
    return CenterCheck(True)


@lru_cache(maxsize=1)
def _scan_sets(p: Partition) -> tuple[tuple[BasisElt, ...], ...]:
    """The mode-0, mode-1 and later sets of _generating_scan, found by exact
    elimination.  Only the partition in use keeps its sets, as in
    _commutators.

    With C = derived_complement(p) and C' = derived_complement(p,
    centre_basis(p)), the elements of C independent modulo [a, a] + z:
    m = 0: the raising operators of l (levi_raising), then S
    (nilpotent_generators), the Cartan part of l being the weight test;
    m = 1: the shift-0 elements of C and C', in C order; m >= 2: C' alone.
    """
    rest = tuple(derived_complement(p, centre_basis(p)))
    mode0 = tuple(levi_raising(p) + nilpotent_generators(p))
    mode1 = tuple(x for x in derived_complement(p) if x.r == 0 or x in rest)
    return mode0, mode1, rest


def _generating_scan(p: Partition, depth: int) -> list[tuple[BasisElt, int]]:
    """The modes x(m) that center_check scans for 0 <= m <= depth, m-major,
    from the sets of _scan_sets(p).  Each call returns a fresh list."""
    mode0, mode1, rest = _scan_sets(p)
    return [(x, 0) for x in mode0] + [(x, m) for m in range(1, depth + 1)
                                      for x in (mode1 if m == 1 else rest)]


def _witness(v: VacuumVector, failed: str) -> CenterCheck:
    """_full_scan(v) after `failed` found v not central.  A scan that finds
    no witness contradicts that, so it raises rather than passes."""
    res = _full_scan(v)
    if res.ok:
        raise ArithmeticError("partition %s: %s fails on a vector that every basis "
                              "element x(m) kills" % (v.partition, failed))
    return res


def _full_scan(v: VacuumVector) -> CenterCheck:
    """Apply every basis element x(m), 0 <= m <= depth, to v (m-major, then
    basis order); the first nonzero image is the witness."""
    basis = centralizer_basis(v.partition)
    for m in range(v.depth + 1):
        for x in basis:
            img = act_mode(x, m, v)
            if img:
                return CenterCheck(False, (x, m, img))
    return CenterCheck(True)


def hc_project(v: VacuumVector) -> VacuumVector:
    """Harish-Chandra-type projection keeping the purely diagonal monomials.

    Requires zero weight; then every discarded monomial ends in an upper-
    sector factor, so the projection is along loop-algebra weight spaces.
    """
    if not v.is_weight_zero():
        raise ValueError("input has monomials of nonzero weight")
    kept = {word: c for word, c in v.terms.items()
            if all(mode.i == mode.j for mode in word)}
    return VacuumVector._raw(v.partition, kept)


def loop_realization(poly: DiffPoly, p: Partition) -> VacuumVector:
    """Isomorphism from diagonal differential polynomials to diagonal modes:
    E[i,i,r][s] goes to s! E[i,i,r](-s-1), extended multiplicatively.

    The input is checked by its variables: any off-diagonal one (i != j)
    raises ValueError.
    """
    if any(v.i != v.j for v in poly.variables()):
        raise ValueError("loop realization is defined on the diagonal sector")
    return VacuumVector(p, {tuple(LoopMode(v.i, v.j, v.r, -v.s - 1) for v in mono):
                            c * prod(factorial(v.s) for v in mono)
                            for mono, c in poly.terms.items()})


@dataclass
class CorrespondenceReport:
    """Per-index comparison of the two constructions.

    matches: the projected Segal-Sugawara vector equals the loop realization
    of the Miura image of the matching W-algebra generator; differences holds
    realization minus projection for each index that fails.  translation_ok:
    the realization intertwines the derivation with the translation operator
    on that image.  unmatched: indices present in only one of the two tables.
    The report passes only when both tables have the same N indices.
    """

    partition: Partition
    matches: dict[tuple[int, int], bool]
    translation_ok: dict[tuple[int, int], bool]
    differences: dict[tuple[int, int], VacuumVector] = field(default_factory=dict)
    unmatched: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (len(self.matches) == self.partition.N and not self.unmatched
                and all(self.matches.values()) and all(self.translation_ok.values()))


def w_correspondence(p: Partition,
                     wt: Optional[GeneratorTable] = None,
                     st: Optional[GeneratorTable] = None) -> CorrespondenceReport:
    if wt is None:
        wt = w_generators(p)
    if st is None:
        st = ss_vectors(p)
    rep = CorrespondenceReport(p, {}, {}, unmatched=sorted(set(wt.entries) ^ set(st.entries)))
    for key in sorted(set(wt.entries) & set(st.entries)):
        img = miura_image(wt.entries[key])
        theta = loop_realization(img, p)
        projected = hc_project(st.entries[key])
        rep.matches[key] = theta == projected
        if not rep.matches[key]:
            rep.differences[key] = theta - projected
        rep.translation_ok[key] = loop_realization(img.derive(), p) == theta.derive()
    return rep
