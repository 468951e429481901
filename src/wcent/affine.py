"""Vacuum module of the affinized centralizer at the critical level.

Elements are PBW-normal-ordered words in negative loop modes E[i,j,r](m),
m <= -1, applied to the vacuum.  The commutator of modes is

    [X(a), Y(b)] = [X, Y](a + b) + a * delta_{a,-b} <X, Y>,

with the critical-level form as central charge; the central generator acts
as 1 on the vacuum.  On top of the normal-ordering engine this module builds
the translation operator, the action of nonnegative modes, the
Segal-Sugawara vectors extracted from a full column determinant with the
translation operator in the derivation slot, a centre membership check, the
Harish-Chandra projection onto diagonal modes, and the comparison map that
matches Miura images of the W-algebra generators with the projected
Segal-Sugawara vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Iterable, NamedTuple, Optional

from .centralizer import (BasisElt, Partition, Rat, Sparse, add_into, bracket,
                          centralizer_basis, critical_form, derived_complement)
from .cdet import (DiffOp, GeneratorTable, basis_u_series, column_determinant,
                   diagonal_entry, miura_image, w_generators, window_table)
from .diffpoly import DiffPoly


class LoopMode(NamedTuple):
    """Loop algebra element E[i,j,r](m), the basis element at t-power m."""

    i: int
    j: int
    r: int
    m: int

    @classmethod
    def of(cls, base: BasisElt, m: int) -> "LoopMode":
        return cls(base.i, base.j, base.r, m)

    @property
    def base(self) -> BasisElt:
        return BasisElt(self.i, self.j, self.r)

    def text(self) -> str:
        return "E[%d,%d,%d](%d)" % (self.i, self.j, self.r, self.m)


def pbw_sector(mode: LoopMode) -> int:
    """Lower 0, Cartan 1, Upper 2; upper factors sit rightmost in words."""
    if mode.i > mode.j:
        return 0
    if mode.i == mode.j:
        return 1
    return 2


def pbw_key(mode: LoopMode):
    return (pbw_sector(mode), -mode.m, mode.i, mode.j, mode.r)


# A PBW monomial is a tuple of (LoopMode, exponent) pairs with the modes
# strictly increasing in pbw_key.
PBWMono = tuple


def _flatten(mono: PBWMono) -> tuple[LoopMode, ...]:
    out = []
    for mode, e in mono:
        out.extend([mode] * e)
    return tuple(out)


def _group(seq: tuple[LoopMode, ...]) -> PBWMono:
    out = []
    for mode in seq:
        if out and out[-1][0] == mode:
            out[-1] = (mode, out[-1][1] + 1)
        else:
            out.append((mode, 1))
    return tuple(out)


def _normal_insert(p: Partition, seq: tuple[LoopMode, ...], coeff: Rat):
    """Rewrite a word of negative modes into PBW order.

    Yields (PBW monomial, coefficient) pairs, unsummed; pass them to
    add_into.  Straightening swaps out-of-order adjacent factors and adds the
    commutator word; negative modes never meet their opposites, so no central
    terms appear here.
    """
    stack = [(seq, coeff)]
    while stack:
        s, c = stack.pop()
        for idx in range(len(s) - 1):
            a, b = s[idx], s[idx + 1]
            if pbw_key(a) > pbw_key(b):
                head, tail = s[:idx], s[idx + 2:]
                stack.append((head + (b, a) + tail, c))
                mm = a.m + b.m
                for e, cz in bracket(p, a, b).items():
                    stack.append((head + (LoopMode(e.i, e.j, e.r, mm),) + tail, c * cz))
                break
        else:
            yield _group(s), c


def _pbw_mono(p: Partition, mono) -> PBWMono:
    """Validate a PBW monomial given as (mode, exponent) pairs, in canonical form."""
    mono = tuple((LoopMode(*mode), int(e)) for mode, e in mono)
    keys = [pbw_key(mode) for mode, _ in mono]
    if any(k2 <= k1 for k1, k2 in zip(keys, keys[1:])):
        raise ValueError("monomial factors not in PBW order")
    for mode, e in mono:
        if mode.m > -1:
            raise ValueError("non-negative mode %s in a vacuum monomial" % mode.text())
        if e < 1:
            raise ValueError("bad exponent")
        p.check_valid(mode.base)
    return mono


class VacuumVector(Sparse):
    """PBW-normal-ordered element of the vacuum module (equivalently, of the
    enveloping algebra of the negative loop modes) of one partition: terms
    maps each PBW monomial to its coefficient.  +, -, * and sum raise
    ValueError on vectors of different partitions."""

    __slots__ = ("partition",)

    def __init__(self, partition: Partition, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms
        self.partition = partition
        self.terms = add_into({}, ((_pbw_mono(partition, mono), c)
                                   for mono, c in items or ()))

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
        p.check_valid(base)
        if m > -1:
            raise ValueError("vacuum monomials take modes m <= -1")
        return cls._raw(p, {((LoopMode.of(base, m), 1),): coeff} if coeff else {})

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

    @classmethod
    def sum(cls, items: list["VacuumVector"]) -> "VacuumVector":
        for v in items[1:]:
            items[0]._match(v)
        return super().sum(items)

    def __mul__(self, other: "VacuumVector") -> "VacuumVector":
        """Normal-ordered product (concatenate words, then straighten)."""
        self._match(other)
        acc: dict[PBWMono, Rat] = {}
        for m1, c1 in self.terms.items():
            f1 = _flatten(m1)
            for m2, c2 in other.terms.items():
                add_into(acc, _normal_insert(self.partition, f1 + _flatten(m2), c1 * c2))
        return VacuumVector._raw(self.partition, acc)

    def derive(self, k: int = 1) -> "VacuumVector":
        """Translation operator: a derivation with X(m) -> -m X(m-1)."""
        out = self
        for _ in range(k):
            acc: dict[PBWMono, Rat] = {}
            for mono, c in out.terms.items():
                flat = _flatten(mono)
                for idx, mode in enumerate(flat):
                    nm = LoopMode(mode.i, mode.j, mode.r, mode.m - 1)
                    add_into(acc, _normal_insert(out.partition,
                                                 flat[:idx] + (nm,) + flat[idx + 1:],
                                                 c * (-mode.m)))
            out = VacuumVector._raw(out.partition, acc)
        return out

    # -- structure --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, VacuumVector) and self.partition != other.partition:
            return False
        return Sparse.__eq__(self, other)

    @property
    def depth(self) -> int:
        """Largest total t-degree (sum of -m over factors) of any monomial."""
        if not self.terms:
            return 0
        return max(sum(-mode.m * e for mode, e in mono) for mono in self.terms)

    def weights(self, mono: PBWMono) -> dict[int, int]:
        w: dict[int, int] = {}
        for mode, e in mono:
            w[mode.i] = w.get(mode.i, 0) + e
            w[mode.j] = w.get(mode.j, 0) - e
        return {i: x for i, x in w.items() if x}

    def is_weight_zero(self) -> bool:
        """Zero weight under the adjoint action of the diagonal E[i,i,0](0)."""
        return all(not self.weights(mono) for mono in self.terms)


def normal_order(p: Partition, modes: Iterable[LoopMode], coeff: Rat = 1) -> VacuumVector:
    """PBW normal form of a formal product of negative modes."""
    modes = tuple(modes)
    for mode in modes:
        if mode.m > -1:
            raise ValueError("non-negative mode %s cannot be normal-ordered onto the vacuum"
                             % mode.text())
        p.check_valid(mode.base)
    return VacuumVector._raw(p, add_into({}, _normal_insert(p, modes, coeff)))


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
    acc: dict[PBWMono, Rat] = {}
    for mono, c in v.terms.items():
        _act(p, x, m, _flatten(mono), c, acc)
    return VacuumVector._raw(p, acc)


def _act(p: Partition, x: BasisElt, m: int, seq: tuple[LoopMode, ...],
         coeff: Rat, acc: dict) -> None:
    """Add coeff * x(m) seq|0> into acc, commuting x(m) past the first factor.

    The action on the rest of seq is summed before the first factor is
    prepended and straightened, so terms that cancel there are never
    straightened again.
    """
    if not seq:
        return  # nonnegative modes kill the vacuum
    y = seq[0]
    rest = seq[1:]
    sub: dict[PBWMono, Rat] = {}
    _act(p, x, m, rest, coeff, sub)
    for mono2, c2 in sub.items():
        add_into(acc, _normal_insert(p, (y,) + _flatten(mono2), c2))
    t = m + y.m
    for z, cz in bracket(p, x, y).items():
        if t >= 0:
            _act(p, z, t, rest, coeff * cz, acc)
        else:
            add_into(acc, _normal_insert(p, (LoopMode(z.i, z.j, z.r, t),) + rest, coeff * cz))
    if m and y.m == -m:
        q = critical_form(p, x, y)
        if q:
            add_into(acc, _normal_insert(p, rest, coeff * m * q))


# -- Segal-Sugawara vectors ----------------------------------------------------


def ss_matrix(p: Partition) -> list[list[DiffOp]]:
    """Full operator matrix with diagonal x + lam_i T + E_ii(z) and all
    off-diagonal entries E_ij(z); coefficients are modes at t-power -1."""
    n = p.n
    one = VacuumVector.vacuum(p)

    def lift(e: BasisElt) -> VacuumVector:
        return VacuumVector.single(p, e, -1)

    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j == i:
                row.append(diagonal_entry(p, i, one, lift))
            else:
                row.append(DiffOp({(0, 0): basis_u_series(p, i, j, lift)}))
        rows.append(row)
    return rows


def ss_vectors(p: Partition) -> GeneratorTable:
    """Extract the vectors from the column determinant of the full matrix,
    with the translation operator in the derivation slot, applied to the
    vacuum."""
    return window_table(p, column_determinant(ss_matrix(p)), VacuumVector.vacuum(p))


# -- centre check and projections ----------------------------------------------


@dataclass
class CenterCheck:
    ok: bool
    witness: Optional[tuple[BasisElt, int, VacuumVector]] = None


CENTER_SPOT_CHECKS = 3


def center_check(v: VacuumVector) -> CenterCheck:
    """Whether every nonnegative mode annihilates v.

    Scans the generating set of _generating_scan (m-major); if an element
    of it fails, returns _full_scan(v), so the witness is still the first
    nonzero x(m) v in (m, basis) order.  Then checks the degree bound at
    depth + 1 on the first CENTER_SPOT_CHECKS basis elements, raising
    ArithmeticError if one of them does not annihilate v.

    Soundness.  The annihilator of v is a subspace of a[t], closed under
    brackets, and [x(a), y(b)] = [x, y](a + b) has no central term when
    a, b >= 0.  Let C be derived_complement(p), spanning a complement of
    [a, a].
    (0) Chains of adjacent E[i,i+-1,r] give every off-diagonal element, as
        [E[i,j,r], E[j,l,s]] = E[i,l,r+s] and the shift windows compose.
        Brackets of off-diagonal elements span [a, a], and C completes a(0).
    (1) Once a(0) annihilates v, {x : x(1) v = 0} is ad-a-stable.  It holds
        every E[i,i,0], hence [E[i,i,0], E[i,j,r]] = E[i,j,r], hence [a, a],
        and with C all of a.
    (m >= 2) [a(1), a(m-1)] = [a, a](m), and C(m) completes a(m).
    Modes above the depth of v kill it for degree reasons.
    """
    p = v.partition
    d = v.depth
    for x, m in _generating_scan(p, d):
        if act_mode(x, m, v):
            return _full_scan(v)
    for x in centralizer_basis(p)[:CENTER_SPOT_CHECKS]:
        if act_mode(x, d + 1, v):
            raise ArithmeticError("depth bound violated at %s(%d)" % (x.text(), d + 1))
    return CenterCheck(True)


def _generating_scan(p: Partition, depth: int) -> list[tuple[BasisElt, int]]:
    """The modes x(m) that center_check scans for 0 <= m <= depth, m-major.

    m = 0: the adjacent off-diagonal E[i,i+-1,r], then C; m = 1: the
    idempotents E[i,i,0], then the rest of C; m >= 2: C alone, where C is
    derived_complement(p).
    """
    basis = centralizer_basis(p)
    comp = derived_complement(p)
    adjacent = [x for x in basis if abs(x.i - x.j) == 1]
    idempotents = [x for x in basis if x.i == x.j and x.r == 0]
    scan = [(x, 0) for x in adjacent + comp]
    if depth >= 1:
        scan += [(x, 1) for x in idempotents + [x for x in comp if x.r]]  # C is diagonal
    return scan + [(x, m) for m in range(2, depth + 1) for x in comp]


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
    bad = [mono for mono in v.terms if v.weights(mono)]
    if bad:
        raise ValueError("input has monomials of nonzero weight")
    kept = {mono: c for mono, c in v.terms.items()
            if all(mode.i == mode.j for mode, _ in mono)}
    return VacuumVector._raw(v.partition, kept)


def loop_realization(poly: DiffPoly, p: Partition) -> VacuumVector:
    """Isomorphism from diagonal differential polynomials to diagonal modes:
    E[i,i,r][s] goes to s! E[i,i,r](-s-1), extended multiplicatively.

    The input is checked by its variables: any off-diagonal one (i != j)
    raises ValueError.
    """
    if any(v.i != v.j for v in poly.variables()):
        raise ValueError("loop realization is defined on the diagonal sector")
    acc: dict[PBWMono, Rat] = {}
    for mono, c in poly.terms.items():
        coeff = c
        modes = []
        for v, e in mono:
            coeff *= factorial(v.s) ** e
            modes.extend([LoopMode(v.i, v.j, v.r, -v.s - 1)] * e)
        add_into(acc, _normal_insert(p, tuple(modes), coeff))
    return VacuumVector._raw(p, acc)


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
