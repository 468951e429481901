import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import comb
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (constant_part, miura_matrix, ss_matrix, w_generator_matrix,
                     window_table)
from wcent import (DiffOp, DiffPoly, DiffVar, LoopMode, Partition, UPoly, VacuumVector,
                   all_partitions, centralizer_basis,
                   column_determinant, in_window, lambda_bracket,
                   jacobian_independence, miura_generators, miura_image, normal_order,
                   operator_matrix, ss_vectors, w_generators)
from wcent import affine, cdet
from wcent.cdet import (GeneratorTable, _scalar_det, applied_column_determinant,
                        fraction_det, generator_table, jacobian_point, tail_sum)
from wcent.centralizer import Sparse, add_into
from wcent.diffpoly import mono_degree
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


def test_upoly_negative_order_is_a_value_error():
    for a in (UPoly({0: vp(1, 1, 0)}), UPoly()):
        with pytest.raises(ValueError, match="negative derivation order -1"):
            a.derive(-1)
        with pytest.raises(ValueError, match="negative shift count -1"):
            a.shift(-1)
        assert a.derive(0) == a.shift(0) == a


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


@pytest.mark.parametrize("ring", ["DiffPoly", "VacuumVector"])
def test_mul_into_per_power_matches_upoly_oracle(ring):
    # UPoly.__mul__, DiffOp.__mul__, the applied column determinant and the
    # lambda-bracket kernels add each coefficient product by mul_into into
    # the word map of its power.  Against the oracle's add_into of whole
    # products, over a pre-filled map whose every other power holds -q
    # times the product's coefficient there, so those maps cancel to empty.
    rng = random.Random(ring)
    p = Partition.of(1, 2)
    basis = centralizer_basis(p)

    def coeff():
        if ring == "DiffPoly":
            return random_diffpoly(p, rng, max_s=2)
        modes = [LoopMode.of(rng.choice(basis), -rng.randint(1, 2))
                 for _ in range(rng.randint(0, 2))]
        return normal_order(p, modes, rng.choice([-2, -1, 1, Fraction(1, 2)]))

    def upoly():
        return UPoly({rng.randint(0, 2): coeff() for _ in range(rng.randint(1, 3))})

    emptied = 0
    for _ in range(15):
        f, g, h = upoly(), upoly(), upoly()
        prod = _upoly_mul_oracle(f, g)
        for q in (0, -1, 2, Fraction(-2, 3)):
            pre = h + UPoly(dict(list(prod.terms.items())[::2])).scale(-q)
            acc = {k: dict(c.terms) for k, c in pre.terms.items()}
            for k1, c1 in f.terms.items():
                for k2, c2 in g.terms.items():
                    c1.mul_into(acc.setdefault(k1 + k2, {}), c2, q)
            got = {k: t for k, t in acc.items() if t}
            assert got == {k: c.terms for k, c in (pre + prod.scale(q)).terms.items()}
            assert all(c for t in got.values() for c in t.values())
            emptied += len(got) < len(acc)
    assert emptied >= 5


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


def table_lifts(p):
    """The (one, lift) that each of the three tables passes to
    generator_table on p, caught by standing in for generator_table."""
    seen = {}

    def catch(make):
        def stand_in(q, one, lift):
            seen[make] = (one, lift)
            return GeneratorTable(q, {}, {})
        return stand_in

    with pytest.MonkeyPatch.context() as mp:
        for make, module in ((w_generators, cdet), (miura_generators, cdet),
                             (ss_vectors, affine)):
            mp.setattr(module, "generator_table", catch(make))
            make(p)
    return seen


def test_operator_matrix_matches_explicit_matrices():
    # Entry by entry, each table's lift gives the matrix spelled out in
    # oracles: pi of the variables, the diagonal factors alone, and the
    # modes at t-power -1.
    explicit = {w_generators: w_generator_matrix, miura_generators: miura_matrix,
                ss_vectors: ss_matrix}
    for N in range(1, 8):
        for p in all_partitions(N):
            for make, (one, lift) in table_lifts(p).items():
                assert operator_matrix(p, one, lift) == explicit[make](p), (make.__name__, p)


@pytest.mark.parametrize("parts", [(1, 1), (1, 2), (3,), (1, 1, 1), (1, 3)])
def test_products_match_oracle_on_ss_matrix(parts):
    # VacuumVector coefficients: a noncommutative ring with the translation
    # operator as derivation.
    p = Partition.of(*parts)
    rows = operator_matrix(p, *table_lifts(p)[ss_vectors])
    entries = [e for row in rows for e in row if e]
    for e1 in entries:
        for e2 in entries:
            assert e1 * e2 == _diffop_mul_oracle(e1, e2)
    prod = expected = rows[0][0]
    for i in range(1, p.n):
        prod, expected = prod * rows[i][i], _diffop_mul_oracle(expected, rows[i][i])
        assert prod == expected


def _operator_tables(p):
    """The three tables by the operator path: build the whole operator (the
    column determinant, or the product of the diagonal factors for the Miura
    images), then keep its terms free of D."""
    vacuum = VacuumVector.vacuum(p)
    diagonal = [row[i] for i, row in enumerate(miura_matrix(p))]
    return {
        w_generators: window_table(
            p, constant_part(column_determinant(w_generator_matrix(p))), ONE),
        miura_generators: window_table(p, constant_part(reduce(mul, diagonal)), ONE),
        ss_vectors: window_table(
            p, constant_part(column_determinant(ss_matrix(p))), vacuum),
    }


def test_tables_match_oracle_products(monkeypatch):
    # The tables come from the applied sweep; the reference builds the
    # operators with the oracle products.
    parts = all_partitions(5)
    tables = {(make, p): make(p) for make in (w_generators, miura_generators, ss_vectors)
              for p in parts}
    monkeypatch.setattr(DiffOp, "__mul__", _diffop_mul_oracle)
    monkeypatch.setattr(UPoly, "__mul__", _upoly_mul_oracle)
    for p in parts:
        for make, expected in _operator_tables(p).items():
            table = tables[make, p]
            assert len(table) == p.N, (make.__name__, p)
            assert table.entries == expected.entries, (make.__name__, p)
            assert table.out_of_window == expected.out_of_window, (make.__name__, p)


def _rebuilt(x):
    """x built again by its type's constructor from the map it stores."""
    if isinstance(x, VacuumVector):
        return VacuumVector(x.partition, x.terms)
    return type(x)(x.terms)


def _assert_rebuilds(x):
    """_rebuilt(y) == y for x and for each sparse coefficient inside it."""
    assert _rebuilt(x) == x, x
    for c in x.terms.values():
        if isinstance(c, Sparse):
            _assert_rebuilds(c)


def test_constructors_rebuild_what_they_store():
    # Every sparse type is built from the map it stores, key -> coefficient,
    # with each key put in normal form; a stored key is in normal form
    # already, so the constructor gives back an equal element.  A word out of
    # order is put in normal form: sorted (the DiffPoly words commute), or
    # straightened to PBW order.
    for p in all_partitions(5):
        for make, (one, lift) in table_lifts(p).items():
            table = make(p)
            for val in [*table.entries.values(), *table.out_of_window.values()]:
                _assert_rebuilds(val)
                if isinstance(val, DiffPoly):
                    assert DiffPoly({w[::-1]: c for w, c in val.terms.items()}) == val
            for row in operator_matrix(p, one, lift):
                for entry in row:
                    _assert_rebuilds(entry)
        gens = [DiffPoly.var(DiffVar.of(e)) for e in centralizer_basis(p)]
        for a in gens:
            for b in gens:
                _assert_rebuilds(lambda_bracket(p, a, b))
        for v in ss_vectors(p).entries.values():
            for word, c in list(v.terms.items())[:3]:
                out_of_order = word[::-1]
                assert VacuumVector(p, {out_of_order: c}) == \
                    normal_order(p, out_of_order, c) == \
                    reduce(mul, (VacuumVector.single(p, m.base, m.m) for m in out_of_order),
                           VacuumVector.vacuum(p, c))


def test_diffop_repr():
    assert repr(D) == "DiffOp({(0, 1): UPoly(1)})"
    assert repr(op_const(vp(1, 1, 0))) == "DiffOp({(0, 0): UPoly(E[1,1,0][0])})"


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
        p = Partition.of(*parts)
        rows = operator_matrix(p, *table_lifts(p)[w_generators])
        assert column_determinant(rows) == brute_force_cdet(rows)


def test_cdet_rejects_non_square():
    with pytest.raises(ValueError):
        column_determinant([[D, D]])
    with pytest.raises(ValueError):
        applied_column_determinant([[D, D]], ONE)


def _random_matrix(rng, n, coeff, max_b):
    """n x n operator matrix of a few terms F x^a D^b u^k, b <= max_b, with
    about a quarter of the entries zero and, one time in five, a zero column."""
    def entry():
        if rng.random() < 0.25:
            return DiffOp.zero()
        def upoly():
            return UPoly({rng.randint(0, 2): coeff() for _ in range(rng.randint(1, 2))})

        return DiffOp({(rng.randint(0, 2), rng.randint(0, max_b)): upoly()
                       for _ in range(rng.randint(1, 3))})

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.2:
        col = rng.randrange(n)
        for row in rows:
            row[col] = DiffOp.zero()
    return rows


def _check_applied(rows, one):
    applied = applied_column_determinant(rows, one)
    assert applied == constant_part(brute_force_cdet(rows))
    assert applied == constant_part(column_determinant(rows))
    if any(not any(row[c] for row in rows) for c in range(len(rows))):
        assert applied == {}
    return applied


def test_applied_cdet_matches_operator_path():
    rng = random.Random(12)
    p = Partition.of(1, 2)
    seen = {"nonzero": 0, "zero column": 0, "D^3": 0}
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = _random_matrix(rng, n, lambda: random_diffpoly(
            p, rng, max_vars=2, max_degree=1, max_s=1), 3)
        applied = _check_applied(rows, ONE)
        seen["nonzero"] += bool(applied)
        seen["zero column"] += any(not any(row[c] for row in rows) for c in range(n))
        seen["D^3"] += any(b == 3 for row in rows for e in row for _, b in e.terms)
    assert all(seen.values()), seen


def test_applied_cdet_keeps_noncommutative_order():
    # VacuumVector coefficients: a noncommutative ring with the translation
    # operator as derivation, so F must stay on the left of d^b(G).
    rng = random.Random(13)
    p = Partition.of(1, 2)
    basis = centralizer_basis(p)

    def vector():
        modes = [LoopMode.of(rng.choice(basis), -rng.randint(1, 2))
                 for _ in range(rng.randint(1, 2))]
        return normal_order(p, modes, rng.choice([-2, -1, 1, Fraction(1, 2)]))

    pool = [vector() for _ in range(12)]
    assert any(a * b != b * a for a in pool for b in pool)
    nonzero = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = _random_matrix(rng, n, lambda: rng.choice(pool), 2)
        nonzero += bool(_check_applied(rows, VacuumVector.vacuum(p)))
    assert nonzero >= 10


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
    assert set(t.entries) == expected
    for k, r in expected:
        assert in_window(p, k, r)
    assert not in_window(p, 1, p.part(p.n))
    assert set(t.entries).isdisjoint(t.out_of_window)


def test_tail_sums():
    p = Partition.of(1, 2, 2)
    assert [tail_sum(p, k) for k in range(4)] == [0, 2, 4, 5]


def test_extract_requires_monic_top():
    # one = 2 makes the x^n coefficient 2^(n+1), not one
    p = Partition.of(1, 1)
    _, lift = table_lifts(p)[w_generators]
    with pytest.raises(ArithmeticError):
        generator_table(p, DiffPoly.const(2), lift)


def test_operator_matrix_windows():
    p = Partition.of(1, 2)
    rows = operator_matrix(p, ONE, lambda e: DiffPoly.var(DiffVar.of(e)))
    up = rows[1][1].terms[(0, 0)]
    assert up.coeff(0) == vp(2, 2, 0) and up.coeff(1) == vp(2, 2, 1)
    assert up.coeff(2) is None
    assert rows[0][1].terms[(0, 0)].coeff(0) is None


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
        assert len({mono_degree(m) for m in lead.terms}) == 1
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


def _cofactor_det_oracle(rows):
    """Symbolic determinant by cofactor expansion along the first row, the
    routine the Jacobian certificate used before it ran on
    applied_column_determinant."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = DiffPoly.zero()
    for j in range(n):
        entry = rows[0][j]
        if not entry:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = entry * _cofactor_det_oracle(minor)
        total = total + (term if j % 2 == 0 else term.scale(-1))
    return total


def test_scalar_det_matches_cofactor_oracle():
    rng = random.Random(13)
    p = Partition.of(1, 2)
    counts = {"zero_line": 0, "dependent": 0, "singular": 0}
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [[DiffPoly.zero() if rng.random() < 0.3 else
                 random_diffpoly(p, rng, max_terms=2, max_vars=2, max_degree=2, max_s=1)
                 for _ in range(n)] for _ in range(n)]
        pick = rng.random()
        if pick < 0.15:
            rows[rng.randrange(n)] = [DiffPoly.zero()] * n
            counts["zero_line"] += 1
        elif pick < 0.3:
            c = rng.randrange(n)
            for row in rows:
                row[c] = DiffPoly.zero()
            counts["zero_line"] += 1
        elif pick < 0.45 and n >= 2:
            # a row that is a polynomial multiple of another
            i, j = rng.sample(range(n), 2)
            q = random_diffpoly(p, rng, max_terms=1, max_vars=1, max_degree=1, max_s=0)
            rows[i] = [q * e for e in rows[j]]
            counts["dependent"] += 1
        expected = _cofactor_det_oracle(rows)
        counts["singular"] += not expected
        assert _scalar_det(rows) == expected, rows
    assert counts["zero_line"] >= 20 and counts["dependent"] >= 10
    assert counts["singular"] >= counts["zero_line"] + counts["dependent"]


def test_determinant_helpers():
    assert fraction_det([[1, 2], [3, 4]]) == -2
    assert fraction_det([[Fraction(1, 2), 1], [1, 2]]) == 0
    x, y = vp(1, 1, 0), vp(2, 2, 0)
    assert _scalar_det([[x, y], [y, x]]) == x * x - y * y
    assert _scalar_det([[x]]) == x
