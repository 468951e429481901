import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wcent import (DiffOp, DiffPoly, DiffVar, Partition, UPoly,
                   all_partitions, column_determinant, generator_window, in_window,
                   jacobian_independence, miura_generators, miura_image,
                   ss_matrix, ss_vectors, w_generator_matrix, w_generators)
from wcent.cdet import (basis_u_series, fraction_det, jacobian_point, poly_det,
                        tail_sum, window_table)
from wcent.centralizer import add_into
from wcent.pva import random_diffpoly


def V(i, j, r, s=0):
    return DiffVar(s=s, i=i, j=j, r=r)


def vp(i, j, r, s=0):
    return DiffPoly.var(V(i, j, r, s))


ONE = DiffPoly.const(1)


def op_const(poly):
    return DiffOp({(0, 0): UPoly({0: poly})})


D = DiffOp({(0, 1): UPoly({0: ONE})})
X = DiffOp({(1, 0): UPoly({0: ONE})})


def test_diffop_commutation_rule():
    f = vp(1, 1, 0)
    assert D * op_const(f) == op_const(f) * D + op_const(f.derive())
    assert X * D == D * X  # x is a central formal variable


def test_diffop_binomial_expansion():
    f = vp(2, 2, 0)
    f1, f2 = f.derive(), f.derive(2)
    lhs = D * D * op_const(f)
    rhs = op_const(f) * D * D + (op_const(f1) * D).scale(2) + op_const(f2)
    assert lhs == rhs
    # same rule through a D already present on the right factor
    assert D * D * (op_const(f) * D) == \
        op_const(f) * D * D * D + (op_const(f1) * D * D).scale(2) + op_const(f2) * D


def test_diffop_associativity_samples():
    rng = random.Random(11)
    pool = [vp(1, 1, 0), vp(2, 2, 0), vp(2, 1, 0), ONE.scale(2)]

    def rand_op():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            key = (rng.randint(0, 1), rng.randint(0, 2))
            terms[key] = UPoly({rng.randint(0, 1): rng.choice(pool)})
        return DiffOp(terms)

    for _ in range(40):
        a, b, c = rand_op(), rand_op(), rand_op()
        assert (a * b) * c == a * (b * c)


def test_upoly_preserves_factor_order():
    a = UPoly({0: vp(1, 1, 0)})
    b = UPoly({1: vp(1, 1, 0, s=1)})
    prod = a * b
    assert prod.coeff(1) == vp(1, 1, 0) * vp(1, 1, 0, s=1)
    assert (a + b).coeff(0) == vp(1, 1, 0)
    assert a.derive().coeff(0) == vp(1, 1, 0, s=1)


# -- reference products ----------------------------------------------------
# Oracle for the operator products: UPoly.__mul__ and DiffOp.__mul__ as they
# were before each coefficient was summed once, adding every product into the
# running sum and taking d^m F2 anew for every pair of terms.


def _upoly_mul_oracle(self, other):
    out = UPoly()
    out.terms = add_into({}, ((k1 + k2, c1 * c2)
                              for k1, c1 in self.coeffs.items()
                              for k2, c2 in other.coeffs.items()))
    return out


def _diffop_mul_oracle(self, other):
    def products():
        for (a1, b1), f1 in self.terms.items():
            for (a2, b2), f2 in other.terms.items():
                # F1 x^a1 D^b1 F2 x^a2 D^b2
                #   = sum_m C(b1, m) F1 (d^m F2) x^(a1+a2) D^(b1-m+b2)
                for m in range(b1 + 1):
                    f2m = f2.derive(m) if m else f2
                    if not f2m:
                        continue
                    prod = _upoly_mul_oracle(f1, f2m)
                    cm = comb(b1, m)
                    if cm != 1:
                        prod = prod.scale(cm)
                    yield (a1 + a2, b1 - m + b2), prod

    out = DiffOp()
    out.terms = add_into({}, products())
    return out


def random_op(p, rng):
    """A few terms F x^a D^b, F a spectral polynomial of random polynomials."""
    def coeff():
        return UPoly({rng.randint(0, 2): random_diffpoly(p, rng, max_s=2)
                      for _ in range(rng.randint(1, 3))})
    return DiffOp({(rng.randint(0, 2), rng.randint(0, 3)): coeff()
                   for _ in range(rng.randint(1, 4))})


@given(st.sampled_from(all_partitions(4)), st.integers(0, 2**32 - 1))
def test_products_match_oracle_on_random_operators(p, seed):
    rng = random.Random(seed)
    a, b = random_op(p, rng), random_op(p, rng)
    assert a * b == _diffop_mul_oracle(a, b)
    for fa in a.terms.values():
        for fb in b.terms.values():
            assert fa * fb == _upoly_mul_oracle(fa, fb)


@pytest.mark.parametrize("parts", [(1, 1), (1, 2), (3,), (1, 1, 1), (1, 3)])
def test_products_match_oracle_on_ss_matrix(parts):
    # VacuumVector coefficients: a noncommutative ring with the translation
    # operator as derivation.
    p = Partition.of(*parts)
    rows = ss_matrix(p)
    entries = [e for row in rows for e in row if e]
    for e1 in entries:
        for e2 in entries:
            assert e1 * e2 == _diffop_mul_oracle(e1, e2)
    prod = expected = rows[0][0]
    for i in range(1, p.n):
        prod, expected = prod * rows[i][i], _diffop_mul_oracle(expected, rows[i][i])
        assert prod == expected


def test_tables_match_oracle_products(monkeypatch):
    parts = all_partitions(5)
    tables = {(make, p): make(p) for make in (w_generators, miura_generators, ss_vectors)
              for p in parts}
    monkeypatch.setattr(DiffOp, "__mul__", _diffop_mul_oracle)
    monkeypatch.setattr(UPoly, "__mul__", _upoly_mul_oracle)
    for (make, p), table in tables.items():
        expected = make(p)
        assert table.entries == expected.entries, (make.__name__, p)
        assert table.out_of_window == expected.out_of_window, (make.__name__, p)


def brute_force_cdet(rows):
    n = len(rows)
    total = DiffOp.zero()
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                         if perm[a] > perm[b])
        term = None
        for col in range(n):
            entry = rows[perm[col]][col]
            term = entry if term is None else term * entry
        total = total + (term.scale(-1) if inversions % 2 else term)
    return total


def test_cdet_matches_permutation_expansion():
    rng = random.Random(5)
    pool = [vp(1, 1, 0), vp(2, 2, 0), vp(2, 1, 0), ONE]

    def rand_entry():
        if rng.random() < 0.2:
            return DiffOp.zero()
        return DiffOp({(rng.randint(0, 1), rng.randint(0, 1)):
                       UPoly({rng.randint(0, 1): rng.choice(pool)})})

    for n in (2, 3):
        for _ in range(12):
            rows = [[rand_entry() for _ in range(n)] for _ in range(n)]
            assert column_determinant(rows) == brute_force_cdet(rows)


def test_cdet_on_generator_matrix_matches_bruteforce():
    for parts in [(1, 2), (2, 2), (1, 1, 1)]:
        rows = w_generator_matrix(Partition.of(*parts))
        assert column_determinant(rows) == brute_force_cdet(rows)


def test_cdet_rejects_non_square():
    with pytest.raises(ValueError):
        column_determinant([[D, D]])


def closed_form_two_rows(p, k, r):
    """Quadratic-size types admit closed generator formulas; absent basis
    elements contribute zero."""
    l1, l2 = p.part(1), p.part(2)

    def e(i, j, rr, s=0):
        li, lj = (l1, l2)[i - 1], (l1, l2)[j - 1]
        ok = lj - min(li, lj) <= rr < lj
        return vp(i, j, rr, s) if ok else DiffPoly.zero()

    if k == 1:
        return e(1, 1, r) + e(2, 2, r)
    total = DiffPoly.zero()
    for a in range(r + 1):
        total = total + e(1, 1, a) * e(2, 2, r - a)
    return total - e(2, 1, r - l2 + 1) + e(2, 2, r, s=1).scale(l1)


@pytest.mark.parametrize("parts", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_two_row_closed_forms(parts):
    p = Partition.of(*parts)
    t = w_generators(p)
    for (k, r), poly in t.ordered():
        assert poly == closed_form_two_rows(p, k, r), (k, r)
    # the same formula extends to the out-of-window coefficients
    for (k, r), poly in sorted(t.out_of_window.items()):
        assert poly == closed_form_two_rows(p, k, r), (k, r)


def test_generators_12_literal():
    t = w_generators(Partition.of(1, 2))
    assert t.entries[(1, 0)] == vp(1, 1, 0) + vp(2, 2, 0)
    assert t.entries[(1, 1)] == vp(2, 2, 1)
    assert t.entries[(2, 1)] == vp(1, 1, 0) * vp(2, 2, 1) - vp(2, 1, 0) + vp(2, 2, 1, s=1)
    assert t.out_of_window == {
        (2, 0): vp(1, 1, 0) * vp(2, 2, 0) + vp(2, 2, 0, s=1)}


@pytest.mark.parametrize("p", all_partitions(6), ids=str)
def test_window_census(p):
    t = w_generators(p)
    assert len(t) == p.N
    expected = {(k, r) for k in range(1, p.n + 1)
                for r in range(tail_sum(p, k) - k + 1)
                if tail_sum(p, k - 1) < r + k <= tail_sum(p, k)}
    assert set(t.entries) == expected == set(generator_window(p))
    for k, r in expected:
        assert in_window(p, k, r)
    assert not in_window(p, 1, p.part(p.n))
    assert set(t.entries).isdisjoint(t.out_of_window)


def test_tail_sums():
    p = Partition.of(1, 2, 2)
    assert [tail_sum(p, k) for k in range(4)] == [0, 2, 4, 5]


def test_extract_requires_monic_top():
    p = Partition.of(1, 1)
    rows = w_generator_matrix(p)
    rows[0][0] = rows[0][0].scale(2)
    with pytest.raises(ArithmeticError):
        window_table(p, column_determinant(rows), ONE)


def test_basis_u_series_windows():
    p = Partition.of(1, 2)
    up = basis_u_series(p, 2, 2)
    assert up.coeff(0) == vp(2, 2, 0) and up.coeff(1) == vp(2, 2, 1)
    assert up.coeff(2) is None
    assert basis_u_series(p, 1, 2).coeff(0) is None


def test_miura_image_kills_lower_sector():
    p = Partition.of(1, 2)
    w21 = w_generators(p).entries[(2, 1)]
    img = miura_image(w21)
    assert img == vp(1, 1, 0) * vp(2, 2, 1) + vp(2, 2, 1, s=1)
    assert all(v.i == v.j for v in img.variables())
    with pytest.raises(ValueError):
        miura_image(vp(1, 2, 1))


@pytest.mark.parametrize("parts", [(1, 2), (2, 2), (1, 1, 2), (2, 3)])
def test_miura_generators_agree_with_images(parts):
    p = Partition.of(*parts)
    wt, mt = w_generators(p), miura_generators(p)
    assert set(wt.entries) == set(mt.entries)
    for key, poly in wt.entries.items():
        assert miura_image(poly) == mt.entries[key]


def test_jacobian_11_certificate():
    cert = jacobian_independence(Partition.of(1, 1))
    assert cert.nonzero and cert.attempts == 1 and cert.seed == 0
    assert cert.det == -1
    assert cert.var_order == [V(2, 2, 0), V(1, 1, 0)]
    assert cert.poly_order == [(1, 0), (2, 0)]
    assert cert.point == {V(2, 2, 0): 2, V(1, 1, 0): 3}
    assert cert.symbolic_det == vp(2, 2, 0) - vp(1, 1, 0)
    assert cert.symbolic_nonzero is True and cert.ok
    zero = cert.symbolic_det - cert.symbolic_det
    assert not replace(cert, symbolic_det=zero).ok
    assert not replace(cert, nonzero=False).ok


def test_jacobian_12_certificate():
    cert = jacobian_independence(Partition.of(1, 2))
    assert cert.det == 2
    assert cert.poly_order == [(1, 1), (2, 1), (1, 0)]
    assert cert.var_order == [V(2, 2, 1), V(1, 1, 0), V(2, 2, 0)]
    assert cert.symbolic_det == vp(2, 2, 1)
    # leading parts are the derivative-free components
    for key, lead in cert.leading_polys.items():
        assert lead.is_homogeneous()
        assert lead.min_degree() == 0


def test_jacobian_seeded_rational_point():
    cert = jacobian_independence(Partition.of(1, 2), seed=1)
    assert cert.nonzero and cert.seed == 1
    assert cert.det == 13
    pt = jacobian_point(Partition.of(1, 2), seed=1)
    assert cert.point == pt
    assert any(isinstance(q, Fraction) for q in pt.values())


def test_jacobian_point_primes_at_seed_zero():
    pt = jacobian_point(Partition.of(1, 2), seed=0)
    assert sorted(pt.values()) == [2, 3, 5]
    assert jacobian_point(Partition.of(1, 2), seed=3) == \
        jacobian_point(Partition.of(1, 2), seed=3)


def _dense_det_oracle(rows):
    """fraction_det as it was before it ran on echelon_insert: dense
    fraction Gaussian elimination with the first nonzero pivot."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for cc in range(col, n):
                    m[r][cc] -= factor * m[col][cc]
    return det


def test_fraction_det_matches_dense_oracle():
    rng = random.Random(11)
    entries = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)]
    singular = 0
    for _ in range(300):
        n = rng.randint(0, 7)
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if n >= 3 and rng.random() < 0.3:
            # a row that is a rational combination of two others
            i, j, k = rng.sample(range(n), 3)
            q = rng.choice(entries[3:])
            rows[i] = [q * a + b for a, b in zip(rows[j], rows[k])]
        expected = _dense_det_oracle(rows)
        singular += expected == 0
        # the same value and type: Fraction when nonzero, int 0 when singular
        assert repr(fraction_det(rows)) == repr(expected), rows
    assert 30 <= singular <= 270


def test_determinant_helpers():
    assert fraction_det([[1, 2], [3, 4]]) == -2
    assert fraction_det([[Fraction(1, 2), 1], [1, 2]]) == 0
    x, y = vp(1, 1, 0), vp(2, 2, 0)
    assert poly_det([[x, y], [y, x]]) == x * x - y * y
    assert poly_det([[x]]) == x
