"""Column determinants of operator matrices and the W-algebra generators.

Operators here are normal-ordered polynomials in a central variable x and a
derivation symbol D, with coefficients that are polynomials in a spectral
variable u over some coefficient ring.  The engine is ring-agnostic: the
classical side instantiates it with differential polynomials (where D acts as
the derivation d), the vertex-algebra side reuses the same classes with the
PBW-ordered loop algebra (where D acts as the translation operator).

The column determinant multiplies entries in column order, left factor from
column one:  cdet M = sum over permutations of sgn * M[s(1)][1] ... M[s(n)][n].
It is evaluated by a left-to-right sweep over columns that shares common
prefixes between permutations, pruning zero entries, so a banded matrix costs
far fewer products than n!.

Also here: the generator matrix whose column determinant (applied to 1, i.e.
dropping positive powers of D) yields the W-algebra generators, the Miura
map onto the diagonal sector, and the Jacobian certificate of algebraic
independence of the leading terms of the Miura images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb
from operator import mul
from typing import Callable, Optional

from .centralizer import (BasisElt, Partition, Rat, Sparse, add_into, echelon_insert,
                          sum_by_key)
from .diffpoly import DiffPoly, DiffVar


def _shift(coeffs: dict, times: int) -> dict:
    """(s + d)^times applied to sum_k C_k s^k, with d the coefficient-wise
    derivation; works on a raw power -> coefficient map."""
    for _ in range(times):
        coeffs = add_into({}, (term for k, c in coeffs.items()
                               for term in ((k + 1, c), (k, c.derive()))))
    return coeffs


class UPoly(Sparse):
    """Polynomial in one formal symbol with ring-element coefficients: the
    spectral variable u of the operator matrices, or lam in lambda-brackets.
    terms maps each power to its coefficient.

    Coefficients may be any objects supporting +, *, scale(q), derive(k),
    the n-ary classmethod sum(items) and truth testing; multiplication
    preserves the left/right order of the coefficients, so noncommutative
    coefficient rings are fine.
    """

    __slots__ = ()

    def __init__(self, coeffs=None):
        self.terms = {}
        if coeffs:
            items = list(coeffs.items() if isinstance(coeffs, dict) else coeffs)
            if any(k < 0 for k, _ in items):
                raise ValueError("negative power of the formal symbol")
            add_into(self.terms, items)

    # Read-only old name of terms: perfbench/workloads.py reads lp.coeffs,
    # and the benchmark stays unchanged so that its runs remain comparable.
    @property
    def coeffs(self) -> dict:
        return self.terms

    def coeff(self, power: int):
        """Coefficient at a power, or None when absent."""
        return self.terms.get(power)

    def __mul__(self, other: "UPoly") -> "UPoly":
        return UPoly._raw(sum_by_key((k1 + k2, c1 * c2)
                                     for k1, c1 in self.terms.items()
                                     for k2, c2 in other.terms.items()))

    def mul_poly(self, c) -> "UPoly":
        """Multiply every coefficient on the right by the ring element c."""
        return self.map_coeffs(lambda a: a * c)

    def scale(self, q: Rat):
        """Coefficient-wise: each ring-element coefficient by its own scale."""
        if not q:
            return self._like({})
        return self._like({k: c.scale(q) for k, c in self.terms.items()})

    def derive(self, k: int = 1) -> "UPoly":
        """Coefficient-wise derivation; the formal symbol is constant."""
        return self.map_coeffs(lambda c: c.derive(k))

    def shift(self, times: int = 1) -> "UPoly":
        """Apply (symbol + d) the given number of times."""
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
            items = list(terms.items() if isinstance(terms, dict) else terms)
            if any(a < 0 or b < 0 for (a, b), _ in items):
                raise ValueError("negative operator exponent")
            add_into(self.terms, items)

    def __mul__(self, other: "DiffOp") -> "DiffOp":
        """Normal-ordered product; each coefficient of the result, keyed by
        (x-power, D-power, spectral power), is summed once over its products."""
        top = max((b1 for _, b1 in self.terms), default=0)

        def products():
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
                        a, b, cm = a1 + a2, b1 - m + b2, comb(b1, m)
                        for k1, c1 in f1.terms.items():
                            for k2, c2 in f2m.terms.items():
                                prod = c1 * c2
                                yield (a, b, k1 + k2), prod if cm == 1 else prod.scale(cm)

        terms: dict = {}
        for (a, b, k), c in sum_by_key(products()).items():
            terms.setdefault((a, b), {})[k] = c
        return DiffOp._raw({key: UPoly._raw(coeffs) for key, coeffs in terms.items()})

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


# -- the generator matrix and tables -----------------------------------------


def _lift_var(e: BasisElt) -> DiffPoly:
    return DiffPoly.var(DiffVar.of(e))


def basis_u_series(p: Partition, i: int, j: int,
                   lift: Callable[[BasisElt], object] = _lift_var) -> UPoly:
    """E_ij(u): the valid-window generating series sum_r lift(E[i,j,r]) u^r."""
    return UPoly({r: lift(BasisElt(i, j, r)) for r in p.r_window(i, j)})


def diagonal_entry(p: Partition, i: int, one,
                   lift: Callable[[BasisElt], object] = _lift_var) -> DiffOp:
    """The diagonal operator entry x + lam_i D + E_ii(u), with one the unit
    of the coefficient ring and lift the embedding of basis elements."""
    return DiffOp({
        (1, 0): UPoly({0: one}),
        (0, 1): UPoly({0: one.scale(p.part(i))}),
        (0, 0): basis_u_series(p, i, i, lift),
    })


def w_generator_matrix(p: Partition) -> list[list[DiffOp]]:
    """Matrix whose column determinant produces the W-algebra generators.

    Diagonal x + lam_i D + E_ii(u); superdiagonal u^(lam_{i+1}-1); lower
    entries E_ij(u); zero above the superdiagonal.
    """
    n = p.n
    one = DiffPoly.const(1)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j == i:
                row.append(diagonal_entry(p, i, one))
            elif j == i + 1:
                row.append(DiffOp({(0, 0): UPoly({p.part(j) - 1: one})}))
            elif j < i:
                row.append(DiffOp({(0, 0): basis_u_series(p, i, j)}))
            else:
                row.append(DiffOp.zero())
        rows.append(row)
    return rows


def tail_sum(p: Partition, k: int) -> int:
    """Sum of the k largest block sizes."""
    if k <= 0:
        return 0
    return sum(p.parts[p.n - k:])


def generator_window(p: Partition) -> list[tuple[int, int]]:
    """Admissible index pairs (k, r): tail_sum(k-1) < r + k <= tail_sum(k)."""
    out = []
    for k in range(1, p.n + 1):
        for r in range(tail_sum(p, k - 1) - k + 1, tail_sum(p, k) - k + 1):
            out.append((k, r))
    return out


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


def window_table(p: Partition, op: DiffOp, one) -> GeneratorTable:
    """The table of op applied to 1: entry (k, r) is the u^r coefficient of
    the x^(n-k) coefficient, kept apart when (k, r) is outside the window.

    Requires the x^n coefficient to be exactly the unit one.
    """
    cp = op.constant_part()
    n = p.n
    top = cp.get(n)
    if top is None or top != UPoly({0: one}):
        raise ArithmeticError("leading x-coefficient is not 1")
    t = GeneratorTable(p, {}, {})
    for k in range(1, n + 1):
        for r, val in cp.get(n - k, UPoly()).items():
            (t.entries if in_window(p, k, r) else t.out_of_window)[(k, r)] = val
    return t


def w_generators(p: Partition) -> GeneratorTable:
    """Generators of the W-algebra from the column determinant.

    The x^(n-k) coefficient of cdet applied to 1 is a u-polynomial; its
    admissible u-coefficients form the table (exactly N of them).
    """
    return window_table(p, column_determinant(w_generator_matrix(p)), DiffPoly.const(1))


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
    """Images of the generators under the Miura map, computed directly from
    the product of the diagonal operator factors."""
    one = DiffPoly.const(1)
    return window_table(p, reduce(mul, (diagonal_entry(p, i, one)
                                        for i in range(1, p.n + 1))), one)


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


def poly_det(rows: list[list[DiffPoly]]) -> DiffPoly:
    """Symbolic determinant by cofactor expansion (small matrices only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = DiffPoly.zero()
    for j in range(n):
        entry = rows[0][j]
        if not entry:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = entry * poly_det(minor)
        total = total + (term if j % 2 == 0 else term.scale(-1))
    return total


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

    symbolic = poly_det(jac) if p.N <= JACOBIAN_SYMBOLIC_LIMIT else None

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
