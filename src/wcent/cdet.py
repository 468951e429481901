"""Column determinants of operator matrices and the W-algebra generators.

Operators here are normal-ordered polynomials in a central variable x and a
derivation symbol D, with coefficients that are polynomials in a spectral
variable u over some coefficient ring.  The engine is ring-agnostic: the
classical side instantiates it with differential polynomials (where D acts as
the derivation d), the vertex-algebra side reuses the same classes with the
PBW-ordered loop algebra (where D acts as the translation operator).

The column determinant multiplies entries in column order, left factor from
column one:  cdet M = sum over permutations of sgn * M[s(1)][1] ... M[s(n)][n].
The tables of both sides need only cdet M applied to 1, and
applied_column_determinant computes exactly that: it sweeps the columns right
to left, applying each entry to the partial results already applied to 1, so
no power of D is ever carried.  A state maps the set of rows used by the
later columns to its signed sum; placing row r in column c flips the sign
once for each used row smaller than r (the inversions that r makes with the
columns after c).  Zero entries are pruned, so a banded matrix costs far
fewer products than n!.  The operator product DiffOp.__mul__ and the
operator determinant column_determinant, a left-to-right sweep, stay as the
reference the kernel is tested against.

Both sides read their tables off one matrix, operator_matrix, that differs
only in the lift of each basis element into the coefficient ring: pi of the
variable for the W-algebra generators, the diagonal variables only for their
Miura images, the mode E[i,j,r](-1) for the Segal-Sugawara vectors
(affine.ss_vectors).  Also here: the Miura map and the Jacobian certificate
of algebraic independence of the leading terms of the Miura images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Optional

from .centralizer import BasisElt, Partition, Rat, Sparse, add_into, echelon_insert
from .diffpoly import DiffPoly, DiffVar


def _shift(coeffs: dict, times: int) -> dict:
    """(s + d)^times applied to sum_k C_k s^k, with d the coefficient-wise
    derivation; works on a raw power -> coefficient map."""
    for _ in range(times):
        coeffs = add_into({}, (term for k, c in coeffs.items()
                               for term in ((k + 1, c), (k, c.derive()))))
    return coeffs


def _ring_elements(like, maps: dict) -> dict:
    """Each nonempty word map that mul_into filled, as an element of the ring
    of like (any element of it; None when maps is empty)."""
    return {key: like._like(terms) for key, terms in maps.items() if terms}


class UPoly(Sparse):
    """Polynomial in one formal symbol with ring-element coefficients: the
    spectral variable u of the operator matrices, or lam in lambda-brackets.
    terms maps each power to its coefficient.

    Coefficients may be any objects supporting +, *, mul_into, _like,
    scale(q), derive(k) and truth testing; multiplication preserves the
    left/right order of the coefficients, so noncommutative coefficient
    rings are fine.
    """

    __slots__ = ()

    def __init__(self, coeffs=None):
        self.terms = {}
        if coeffs:
            if any(k < 0 for k in coeffs):
                raise ValueError("negative power of the formal symbol")
            add_into(self.terms, coeffs.items())

    # Read-only old name of terms: perfbench/workloads.py reads lp.coeffs,
    # and the benchmark stays unchanged so that its runs remain comparable.
    @property
    def coeffs(self) -> dict:
        return self.terms

    def coeff(self, power: int):
        """Coefficient at a power, or None when absent."""
        return self.terms.get(power)

    def __mul__(self, other: "UPoly") -> "UPoly":
        acc: dict = {}  # power -> word map
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c1.mul_into(acc.setdefault(k1 + k2, {}), c2)
        return UPoly._raw(_ring_elements(next(iter(self.terms.values()), None), acc))

    def scale(self, q: Rat):
        """Coefficient-wise: each ring-element coefficient by its own scale."""
        if not q:
            return self._like({})
        return self._like({k: c.scale(q) for k, c in self.terms.items()})

    def derive(self, k: int = 1) -> "UPoly":
        """Coefficient-wise derivation; the formal symbol is constant."""
        if k < 0:
            raise ValueError("negative derivation order %d" % k)
        return self.map_coeffs(lambda c: c.derive(k))

    def shift(self, times: int = 1) -> "UPoly":
        """Apply (symbol + d) the given number of times."""
        if times < 0:
            raise ValueError("negative shift count %d" % times)
        return UPoly._raw(dict(_shift(self.terms, times)))

    def map_coeffs(self, fn) -> "UPoly":
        return UPoly._raw(add_into({}, ((k, fn(c)) for k, c in self.terms.items())))

    def text(self, symbol: str = "L") -> str:
        if not self.terms:
            return "0"
        bits = []
        for k, c in self.items():
            if k == 0:
                bits.append(c.text())
            else:
                head = symbol if k == 1 else "%s^%d" % (symbol, k)
                bits.append("(%s)*%s" % (c.text(), head))
        return " + ".join(bits)


class DiffOp(Sparse):
    """Normal-ordered operator sum_{a,b} F_{a,b} x^a D^b with UPoly coefficients:
    terms maps each (a, b) to F_{a,b}.

    x is central; D obeys D f = f D + (df), i.e. moving D right past a
    coefficient costs its derivative.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            if any(a < 0 or b < 0 for a, b in terms):
                raise ValueError("negative operator exponent")
            add_into(self.terms, terms.items())

    def __mul__(self, other: "DiffOp") -> "DiffOp":
        """Normal-ordered product; each coefficient product is added straight
        into the word map of its (x-power, D-power) and spectral power."""
        top = max((b1 for _, b1 in self.terms), default=0)
        acc: dict = {}  # (x-power, D-power) -> spectral power -> word map
        for (a2, b2), f2 in other.terms.items():
            derivs = [f2]  # the nonzero d^m F2 for m <= top, each computed once
            while len(derivs) <= top:
                d = derivs[-1].derive()
                if not d:
                    break
                derivs.append(d)
            for (a1, b1), f1 in self.terms.items():
                # F1 x^a1 D^b1 F2 x^a2 D^b2
                #   = sum_m C(b1, m) F1 (d^m F2) x^(a1+a2) D^(b1-m+b2)
                for m, f2m in enumerate(derivs[:b1 + 1]):
                    maps, cm = acc.setdefault((a1 + a2, b1 - m + b2), {}), comb(b1, m)
                    for k1, c1 in f1.terms.items():
                        for k2, c2 in f2m.terms.items():
                            c1.mul_into(maps.setdefault(k1 + k2, {}), c2, cm)
        like = next((c for f in self.terms.values() for c in f.terms.values()), None)
        ops = {key: UPoly._raw(_ring_elements(like, maps)) for key, maps in acc.items()}
        return DiffOp._raw({key: op for key, op in ops.items() if op})

    scale = UPoly.scale

    def constant_part(self) -> dict[int, UPoly]:
        """Coefficients of pure x-powers (the operator applied to 1)."""
        return {a: up for (a, b), up in self.terms.items() if b == 0}

    def __repr__(self) -> str:
        return "DiffOp(%r)" % (self.terms,)


def column_determinant(rows: list[list[DiffOp]]) -> DiffOp:
    """Column-ordered determinant of a square operator matrix.

    Sweeps columns left to right keeping, for each set of used rows, the
    signed sum of all partial products; zero entries are pruned, so for the
    generator matrix (zero above the superdiagonal) the work stays small.
    The tables need only its value at 1, applied_column_determinant; this
    whole operator is the reference that kernel is tested against.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    states: dict[frozenset, DiffOp] = {frozenset(): None}  # type: ignore[dict-item]
    for col in range(n):
        new: dict[frozenset, DiffOp] = {}
        for used, acc in states.items():
            for row in range(n):
                if row in used:
                    continue
                entry = rows[row][col]
                if not entry:
                    continue
                term = entry if acc is None else acc * entry
                inv = sum(1 for u in used if u > row)
                if inv % 2:
                    term = term.scale(-1)
                add_into(new, [(used | {row}, term)])
        states = new
        if not states:
            return DiffOp.zero()
    (result,) = states.values()
    return result


def applied_column_determinant(rows: list[list[DiffOp]], one) -> dict[int, UPoly]:
    """cdet M applied to 1, with one the unit of the coefficient ring: the
    map x-power -> u-polynomial that column_determinant(rows).constant_part()
    returns, computed without building the operator.

    Sweeps the columns right to left.  A state maps a set of used rows to a
    sparse map (x-power, u-power) -> ring element: the signed sum of the
    products of the later columns' entries over those rows, applied to 1.
    An entry term F x^a D^b u^k sends G x^c u^l to F d^b(G) x^(a+c) u^(k+l);
    placing row r in column c negates F once for each used row with a
    smaller index than r.  Each product is added straight into the word map
    of its target state and key, with that sign as mul_into's q.

    Soundness.  The ring R with its derivation d is a module over the
    operators: F acts by left multiplication, D by d, x and u as central
    scalars, and D F = F D + d(F) is the Leibniz rule d(FG) = d(F) G + F d(G),
    so this is the module action of the normal-ordered operator.  Hence
    (AB)(1) = A(B(1)), and each product M[s(1)][1] ... M[s(n)][n] applied to
    1 is its entries applied in turn from the right, with F kept on the left
    of d^b(G), so noncommutative rings are fine; d(1) = 0 is why the terms of
    positive D-power of cdet M drop out of the value at 1.  The sign of s is
    its number of inversions, pairs of columns c < c' with s(c) > s(c'),
    counted when column c is placed.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    states: dict[frozenset, dict] = {frozenset(): {(0, 0): one}}
    for col in reversed(range(n)):
        entries = [(row, rows[row][col]) for row in range(n) if rows[row][col]]
        acc: dict[frozenset, dict] = {}  # target state -> key -> word map
        for used, vec in states.items():
            for row, entry in entries:
                if row in used:
                    continue
                sign = -1 if sum(1 for u in used if u < row) % 2 else 1
                _apply(entry, vec, acc.setdefault(used | {row}, {}), sign)
        states = {}
        for used, maps in acc.items():
            vec = _ring_elements(one, maps)
            if vec:
                states[used] = vec
        if not states:
            return {}
    (vec,) = states.values()
    out: dict[int, dict] = {}
    for (a, k), c in vec.items():
        out.setdefault(a, {})[k] = c
    return {a: UPoly._raw(coeffs) for a, coeffs in out.items()}


def _apply(entry: DiffOp, vec: dict, acc: dict, sign: int) -> None:
    """Add sign times entry applied to the state vec into acc, a map
    (x-power, u-power) -> word map, each term F d^b(G) through mul_into;
    d^b(G) is not cached, as D sits only on the diagonal of operator_matrix."""
    for (a, b), f in entry.terms.items():
        for (c, l), g in vec.items():
            if b and not (g := g.derive(b)):
                continue  # d^b G = 0
            for k, fk in f.terms.items():
                fk.mul_into(acc.setdefault((a + c, k + l), {}), g, sign)


# -- the operator matrix and its three tables --------------------------------


def parabolic_image(p: Partition, v: DiffVar) -> Optional[Rat]:
    """pi on one variable: None (fixed) for a lower or Cartan variable, 1 for
    the top superdiagonal E[i,i+1,lam_{i+1}-1][0], 0 for every other upper
    variable and every derivative of an upper variable."""
    if v.i >= v.j:
        return None
    return 1 if not v.s and v.j == v.i + 1 and v.r == p.part(v.j) - 1 else 0


def operator_matrix(p: Partition, one,
                    lift: Callable[[BasisElt], object]) -> list[list[DiffOp]]:
    """The n x n operator matrix x + lam_i D + E_ii(u) on the diagonal and
    E_ij(u) off it, with E_ij(u) = sum over the window of lift(E[i,j,r]) u^r,
    one the unit of the coefficient ring and lift the image of a basis
    element in it; a lift to zero drops its term."""
    def entry(i: int, j: int) -> DiffOp:
        series = {r: c for r in p.r_window(i, j) if (c := lift(BasisElt(i, j, r)))}
        terms = {(1, 0): UPoly._raw({0: one}),
                 (0, 1): UPoly._raw({0: one.scale(p.part(i))})} if i == j else {}
        if series:
            terms[(0, 0)] = UPoly._raw(series)
        return DiffOp._raw(terms)

    return [[entry(i, j) for j in range(1, p.n + 1)] for i in range(1, p.n + 1)]


def tail_sum(p: Partition, k: int) -> int:
    """Sum of the k largest block sizes."""
    if k <= 0:
        return 0
    return sum(p.parts[p.n - k:])


def in_window(p: Partition, k: int, r: int) -> bool:
    return tail_sum(p, k - 1) < r + k <= tail_sum(p, k)


@dataclass
class GeneratorTable:
    """Generators of either side indexed by (k, r) over the admissible window:
    DiffPoly entries for the W-algebra generators and their Miura images,
    VacuumVector entries for the Segal-Sugawara vectors.

    Coefficients outside the window are computed too but kept apart; they are
    not generators in general.
    """

    partition: Partition
    entries: dict[tuple[int, int], object]
    out_of_window: dict[tuple[int, int], object]

    def __len__(self) -> int:
        return len(self.entries)

    def ordered(self) -> list[tuple[tuple[int, int], object]]:
        return sorted(self.entries.items())


def generator_table(p: Partition, one,
                    lift: Callable[[BasisElt], object]) -> GeneratorTable:
    """The table of operator_matrix(p, one, lift) applied to 1: entry (k, r)
    is the u^r coefficient of the x^(n-k) coefficient, kept apart when
    (k, r) is outside the window.

    Requires the x^n coefficient to be exactly the unit one.
    """
    n = p.n
    cp = applied_column_determinant(operator_matrix(p, one, lift), one)
    top = cp.get(n)
    if top is None or top != UPoly({0: one}):
        raise ArithmeticError("leading x-coefficient is not 1")
    t = GeneratorTable(p, {}, {})
    for k in range(1, n + 1):
        for r, val in cp.get(n - k, UPoly()).items():
            (t.entries if in_window(p, k, r) else t.out_of_window)[(k, r)] = val
    return t


def w_generators(p: Partition) -> GeneratorTable:
    """Generators of the W-algebra: the table of the operator matrix with
    each variable lifted by pi (parabolic_image); exactly N entries."""
    def lift(e: BasisElt) -> DiffPoly:
        v = DiffVar.of(e)
        img = parabolic_image(p, v)
        return DiffPoly.var(v) if img is None else DiffPoly.const(img)

    return generator_table(p, DiffPoly.const(1), lift)


# -- Miura map ----------------------------------------------------------------


def miura_image(poly: DiffPoly) -> DiffPoly:
    """Projection onto the diagonal sector: lower variables go to zero.

    The input is checked by its variables: any upper variable (i < j) raises
    ValueError.
    """
    if any(v.i < v.j for v in poly.variables()):
        raise ValueError("Miura map is defined on the parabolic sector")

    def image(v: DiffVar) -> Optional[Rat]:
        return 0 if v.i > v.j else None

    return poly.substitute_consts(image)


def miura_generators(p: Partition) -> GeneratorTable:
    """Images of the generators under the Miura map: the table of the
    operator matrix that keeps the diagonal variables and lifts the rest to 0.

    The Miura map is an algebra map commuting with d, so it may be applied
    entry by entry; it kills the lower entries of the W-algebra's matrix,
    leaving it upper triangular.  Every permutation but the identity takes
    some entry below the diagonal, so only the diagonal product contributes
    and the superdiagonal may be lifted to 0 as well.
    """
    def lift(e: BasisElt) -> DiffPoly:
        return DiffPoly.var(DiffVar.of(e)) if e.i == e.j else DiffPoly.zero()

    return generator_table(p, DiffPoly.const(1), lift)


# -- Jacobian certificate ------------------------------------------------------


def jacobian_variable_order(p: Partition) -> list[DiffVar]:
    """Diagonal variables E[i,i,lam_i - d][0], d = 1..lam_n, i = n..1,
    skipping negative shifts; exactly N variables."""
    out = []
    for d in range(1, p.part(p.n) + 1):
        for i in range(p.n, 0, -1):
            r = p.part(i) - d
            if r >= 0:
                out.append(DiffVar.of(BasisElt(i, i, r)))
    return out


def jacobian_poly_order(p: Partition) -> list[tuple[int, int]]:
    """Index pairs (k, tail_sum(k) - k - d + 1), d = 1..lam_n, k = 1..n,
    keeping admissible pairs only; exactly N of them."""
    out = []
    for d in range(1, p.part(p.n) + 1):
        for k in range(1, p.n + 1):
            r = tail_sum(p, k) - k - d + 1
            if in_window(p, k, r):
                out.append((k, r))
    return out


def _first_primes(n: int) -> list[int]:
    """The first n primes, by trial division by the smaller ones."""
    out: list[int] = []
    k = 2
    while len(out) < n:
        if all(k % q for q in out if q * q <= k):
            out.append(k)
        k += 1
    return out


def jacobian_point(p: Partition, seed: int = 0) -> dict[DiffVar, Rat]:
    """Deterministic evaluation point: the first N primes at seed 0,
    otherwise seeded random small rationals."""
    variables = jacobian_variable_order(p)
    if seed == 0:
        return dict(zip(variables, _first_primes(len(variables))))
    import random
    rng = random.Random("%d:%s" % (seed, p))
    return {v: Fraction(rng.randint(1, 40), rng.randint(1, 8)) for v in variables}


def fraction_det(rows: list[list[Rat]]) -> Rat:
    """Exact determinant over Q by sparse row echelon (echelon_insert).

    Row i is inserted as the sparse vector {column: entry} and reduced by
    multiples of the rows before it, so the remainders R satisfy R = L M
    with L unit lower triangular, and det R = det M.  Each remainder is zero
    at the pivots of the earlier rows, so the matrix with entries
    R[i][p_j], p_j the pivot of row j, is upper triangular with diagonal the
    pivot values.  Hence det M = sign(i -> p_i) times the product of the
    pivot values.  A row with no remainder is a combination of the rows
    before it, and then det M = 0.
    """
    echelon: dict = {}
    pivots = []
    det = Fraction(1)
    for row in rows:
        found = echelon_insert(echelon, {j: x for j, x in enumerate(row) if x})
        if found is None:
            return 0
        pivots.append(found[0])
        det *= found[1]
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    return -det if inversions % 2 else det


def _scalar_det(rows: list[list[DiffPoly]]) -> DiffPoly:
    """Determinant of a matrix of differential polynomials: the column
    determinant of the entries as scalar operators (no x, D or u), which for
    commuting entries is the determinant, applied to 1."""
    ops = [[DiffOp({(0, 0): UPoly({0: f})}) for f in row] for row in rows]
    cp = applied_column_determinant(ops, DiffPoly.const(1))
    return cp[0].coeff(0) if cp else DiffPoly.zero()


@dataclass
class JacobianCertificate:
    partition: Partition
    nonzero: bool
    det: Rat
    seed: int
    attempts: int
    point: dict[DiffVar, Rat]
    poly_order: list[tuple[int, int]]
    var_order: list[DiffVar]
    leading_polys: dict[tuple[int, int], DiffPoly]
    symbolic_det: Optional[DiffPoly] = None

    @property
    def symbolic_nonzero(self) -> Optional[bool]:
        return None if self.symbolic_det is None else bool(self.symbolic_det)

    @property
    def ok(self) -> bool:
        return self.nonzero and self.symbolic_nonzero is not False


JACOBIAN_MAX_ATTEMPTS = 5
JACOBIAN_SYMBOLIC_LIMIT = 4


def jacobian_independence(p: Partition, seed: int = 0,
                          mt: Optional[GeneratorTable] = None) -> JacobianCertificate:
    """Certificate that the minimal components of the Miura images are
    algebraically independent.

    Evaluates the Jacobian of the minimal-degree components (derivation
    grading) at a deterministic seeded point; a zero determinant is treated
    as a degenerate point and retried with the next seed, up to
    JACOBIAN_MAX_ATTEMPTS points in all, not as a failure of independence.
    For N up to JACOBIAN_SYMBOLIC_LIMIT the symbolic determinant is computed
    as a cross-check.  mt is the Miura table of p, built here when not given.
    """
    if mt is None:
        mt = miura_generators(p)
    leading = {key: poly.min_component() for key, poly in mt.entries.items()}
    poly_order = jacobian_poly_order(p)
    var_order = jacobian_variable_order(p)
    if len(poly_order) != p.N or len(var_order) != p.N:
        raise AssertionError("Jacobian index bookkeeping is off")
    # a key missing from a short table gives a zero row, hence det = 0
    partials = [leading[key].partials() if key in leading else {} for key in poly_order]
    jac = [[row.get(v, DiffPoly.zero()) for v in var_order] for row in partials]

    symbolic = _scalar_det(jac) if p.N <= JACOBIAN_SYMBOLIC_LIMIT else None

    attempts = 0
    use_seed = seed
    det: Rat = 0
    point: dict[DiffVar, Rat] = {}
    while attempts < JACOBIAN_MAX_ATTEMPTS:
        attempts += 1
        point = jacobian_point(p, use_seed)
        det = fraction_det([[entry.eval_at(point) for entry in row] for row in jac])
        if det:
            break
        use_seed += 1
    return JacobianCertificate(p, bool(det), det, seed, attempts, point,
                               poly_order, var_order, leading, symbolic)
