import random
from fractions import Fraction
from itertools import product

import pytest

import oracles
from oracles import form_on_elements
from wcent import (BasisElt, DiffOp, DiffPoly, DiffVar, LoopMode, Partition,
                   UPoly, VacuumVector, all_partitions, bracket, centralizer_basis,
                   critical_form, lie_bracket, normal_order, trace_form, upper_basis)
from wcent.affine import _generating_scan
from wcent.centralizer import (Sparse, _nilpotent_candidates, add_into, centre_basis, degree,
                               derived_complement, echelon_insert, levi_raising,
                               nilpotent_generators)
from wcent.pva import random_diffpoly


def E(i, j, r):
    return BasisElt(i, j, r)


def test_partition_parse_and_str():
    p = Partition.parse("1,2,2")
    assert p == Partition.of(1, 2, 2)
    assert str(p) == "1,2,2"
    assert p.n == 3 and p.N == 5
    assert p.part(1) == 1 and p.part(3) == 2


@pytest.mark.parametrize("text", ["", "bogus", "2,1", "0", "1,,2", "-1", "1.5"])
def test_partition_parse_rejects(text):
    with pytest.raises(ValueError):
        Partition.parse(text)


@pytest.mark.parametrize("text", ["\u0661,\u0662", "\u00b2", "1,\u0663"],
                         ids=["arabic-indic digits", "superscript two", "one non-ascii part"])
def test_partition_parse_takes_ascii_digits_only(text):
    # str.isdigit admits these, and int() reads "١" as 1 but fails on "²"
    with pytest.raises(ValueError,
                       match=r"cannot parse partition .* \(expected e\.g\. '1,2,2'\)"):
        Partition.parse(text)
    assert Partition.parse(" 1, 2 ,2") == Partition.of(1, 2, 2)


@pytest.mark.parametrize("parts", [(True, 2), (1, False)], ids=["True", "False"])
def test_partition_takes_int_parts_only(parts):
    # a bool is an int, but str(Partition.of(True, 2)) would read "True,2",
    # which every JSON report prints and Partition.parse rejects
    with pytest.raises(ValueError, match="partition parts must be positive integers"):
        Partition(parts)


def test_basis_oracles():
    assert centralizer_basis(Partition.of(1)) == [E(1, 1, 0)]
    assert centralizer_basis(Partition.of(1, 2)) == [
        E(1, 1, 0), E(1, 2, 1), E(2, 1, 0), E(2, 2, 0), E(2, 2, 1)]
    assert centralizer_basis(Partition.of(2, 2)) == [
        E(1, 1, 0), E(1, 1, 1), E(1, 2, 0), E(1, 2, 1),
        E(2, 1, 0), E(2, 1, 1), E(2, 2, 0), E(2, 2, 1)]


@pytest.mark.parametrize("p", all_partitions(6), ids=str)
def test_dim_formula(p):
    expected = sum(min(p.part(i), p.part(j))
                   for i in range(1, p.n + 1) for j in range(1, p.n + 1))
    assert expected == len(centralizer_basis(p))


def test_window_validity():
    p = Partition.of(1, 2)
    assert list(p.r_window(1, 2)) == [1]
    assert list(p.r_window(2, 1)) == [0]
    assert list(p.r_window(2, 2)) == [0, 1]
    assert p.is_valid(E(1, 2, 1)) and not p.is_valid(E(1, 2, 0))
    assert p.is_valid(E(2, 1, 0)) and not p.is_valid(E(2, 1, 1))
    with pytest.raises(ValueError):
        p.check_valid(E(1, 2, 0))
    with pytest.raises(ValueError):
        p.check_valid(E(1, 3, 0))


def test_triangular_split():
    # the upper sector is the i < j part of the basis, in basis order
    for p in all_partitions(6):
        assert upper_basis(p) == [e for e in centralizer_basis(p) if e.i < e.j], str(p)
    assert upper_basis(Partition.of(1, 2)) == [E(1, 2, 1)]


def test_bracket_truncation_oracle():
    # both E[1,1,1] and E[2,2,... stay within their column windows:
    # [E12^(1), E21^(0)] would be E11^(1) - E22^(1) without truncation,
    # but r=1 exceeds the first column's window.
    p = Partition.of(1, 2)
    assert bracket(p, E(1, 2, 1), E(2, 1, 0)) == {E(2, 2, 1): -1}
    assert bracket(p, E(2, 1, 0), E(1, 2, 1)) == {E(2, 2, 1): 1}
    assert bracket(p, E(2, 2, 0), E(2, 2, 1)) == {}


def test_bracket_gl2_oracle():
    p = Partition.of(1, 1)
    h = bracket(p, E(1, 2, 0), E(2, 1, 0))
    assert h == {E(1, 1, 0): 1, E(2, 2, 0): -1}
    assert bracket(p, E(1, 1, 0), E(1, 2, 0)) == {E(1, 2, 0): 1}


def test_lie_element_arithmetic():
    p = Partition.of(1, 1)
    x = {E(1, 2, 0): 2, E(2, 1, 0): -1}
    assert lie_bracket(p, x, x) == {}


@pytest.mark.parametrize("p", all_partitions(5), ids=str)
def test_bracket_antisymmetry_exhaustive(p):
    basis = centralizer_basis(p)
    for x, y in product(basis, repeat=2):
        assert bracket(p, x, y) == {e: -c for e, c in bracket(p, y, x).items()}


@pytest.mark.parametrize("p", all_partitions(5), ids=str)
def test_bracket_jacobi_exhaustive(p):
    basis = centralizer_basis(p)
    for x, y, z in product(basis, repeat=3):
        lhs = lie_bracket(p, {x: 1}, bracket(p, y, z))
        rhs = add_into(lie_bracket(p, bracket(p, x, y), {z: 1}),
                       lie_bracket(p, {y: 1}, bracket(p, x, z)).items())
        assert lhs == rhs


def _matrix(p, e):
    """E[i,j,r] as an N x N integer matrix {(row, col): entry}: it sends the
    basis vector v[j,b] of block j to v[i,b-r] of block i, and to 0 when b < r."""
    off = [sum(p.parts[:k]) for k in range(p.n)]
    return {(off[e.i - 1] + b - e.r, off[e.j - 1] + b): 1
            for b in range(e.r, p.part(e.j))}


def _matmul(a, b):
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[i, j] = out.get((i, j), 0) + x * y
    return out


def _combine(pairs):
    out = {}
    for m, c in pairs:
        for key, x in m.items():
            out[key] = out.get(key, 0) + c * x
    return {key: x for key, x in out.items() if x}


@pytest.mark.parametrize("p", all_partitions(5), ids=str)
def test_bracket_and_trace_form_match_matrix_realization(p):
    # An oracle independent of the code's rule: the commutator, and the trace
    # of the product, of the N x N matrices that realize the basis elements.
    basis = centralizer_basis(p)
    mat = {e: _matrix(p, e) for e in basis}
    for x, y in product(basis, repeat=2):
        ab, ba = _matmul(mat[x], mat[y]), _matmul(mat[y], mat[x])
        got = bracket(p, x, y)
        assert all(p.is_valid(e) for e in got)
        assert _combine((mat[e], c) for e, c in got.items()) == \
            _combine([(ab, 1), (ba, -1)]), (x, y)
        assert trace_form(p, x, y) == sum(v for (i, j), v in ab.items() if i == j)
        # Only the fields i, j, r are read: loop modes and differential
        # variables give the result of their base element.
        for a, b in ((LoopMode.of(x, -1), LoopMode.of(y, -2)),
                     (DiffVar.of(x, 1), DiffVar.of(y)),
                     (LoopMode.of(x, 0), DiffVar.of(y, 2))):
            assert bracket(p, a, b) == got
            for form in (trace_form, critical_form):
                assert form(p, a, b) == form(p, x, y)


class _Span:
    """A subspace of the centralizer over Q, as rows in reduced echelon form:
    each row is 1 at its pivot and 0 at every other row's pivot."""

    def __init__(self):
        self.rows = {}

    def add(self, vec) -> bool:
        """Add vec to the span; False when it was already there."""
        vec = {e: Fraction(c) for e, c in vec.items() if c}
        for pivot, row in self.rows.items():
            c = vec.get(pivot)
            if c:
                add_into(vec, ((e, -c * q) for e, q in row.items()))
        if not vec:
            return False
        pivot = min(vec)
        vec = {e: q / vec[pivot] for e, q in vec.items()}
        for row in self.rows.values():
            c = row.get(pivot)
            if c:
                add_into(row, ((e, -c * q) for e, q in vec.items()))
        self.rows[pivot] = vec
        return True


def _closure(p, gens, by) -> _Span:
    """Smallest subspace holding the Lie maps gens and stable under ad y for
    every Lie map y in by."""
    span = _Span()
    queue = list(gens)
    while queue:
        vec = queue.pop()
        if span.add(vec):
            queue.extend(lie_bracket(p, y, vec) for y in by)
    return span


def _span_of(vecs) -> _Span:
    span = _Span()
    for vec in vecs:
        span.add(vec)
    return span


def _maps(elts):
    return [{x: 1} for x in elts]


@pytest.mark.parametrize("p", all_partitions(9), ids=str)
def test_centre_basis_is_central_and_critically_orthogonal(p):
    # The lemma behind scanning modulo the centre: each power e_r of the
    # nilpotent brackets to zero with every basis element, and the critical
    # form pairs it to zero with every basis element.  The e_r are
    # independent, and the centre has no other direction: the map
    # x -> ([x, b])_b has rank dim a - lam_n.
    basis = centralizer_basis(p)
    z = centre_basis(p)
    assert z == [{E(i, i, r): 1 for i in range(1, p.n + 1) if r < p.part(i)}
                 for r in range(p.part(p.n))]
    for e in z:
        for b in basis:
            assert lie_bracket(p, e, {b: 1}) == {}, (e, b)
            assert form_on_elements(p, critical_form, e, {b: 1}) == 0, (e, b)
    assert all(_span_of(z[:k]).add(e) for k, e in enumerate(z))  # independent
    image = _Span()
    for x in basis:
        image.add({(b, y): c for b in basis for y, c in bracket(p, x, b).items()})
    assert len(image.rows) == len(basis) - len(z)


def _levi(p):
    """The basis of l, the degree-0 part: E[i,j,0] with lam_i = lam_j."""
    return [x for x in centralizer_basis(p) if x.r == 0 and p.part(x.i) == p.part(x.j)]


@pytest.mark.parametrize("p", all_partitions(9), ids=str)
def test_center_scan_sets_generate(p):
    # The per-mode sets of the centre check's generating scan, checked
    # exactly, with z the span of the central powers e_r and l the degree-0
    # part: the mode-0 set is l's raising operators then S, and with l and
    # z it generates the Lie algebra; the mode-1 set and z generate it as
    # an ideal, every mode m >= 2 scans C' alone, and C' is the part of C
    # that completes [a, a] + z to a.
    basis = centralizer_basis(p)
    z = centre_basis(p)
    scan = _generating_scan(p, 2)
    sets = [[x for x, m in scan if m == k] for k in range(3)]
    comp = derived_complement(p)
    rest = sets[2]
    assert all(len(set(s)) == len(s) for s in sets)
    assert rest == [x for x in comp if x in rest]  # C' is a subsequence of C
    assert sets[1] == [x for x in comp if x.r == 0 or x in rest]
    raising = [E(i, i + 1, 0) for i in range(1, p.n) if p.part(i) == p.part(i + 1)]
    assert sets[0] == raising + nilpotent_generators(p)
    # The lemma behind mode 1: the shift-0 elements of C are E[i,i,0] for
    # the first block i of each part size.
    first = [i for i in range(1, p.n + 1) if i == 1 or p.part(i - 1) < p.part(i)]
    assert [x for x in comp if x.r == 0] == [E(i, i, 0) for i in first]
    # l, the mode-0 set and z generate a: the closure of l, S and z
    gens0 = _maps(_levi(p) + sets[0]) + z
    assert len(_closure(p, gens0, gens0).rows) == len(basis)
    assert len(_closure(p, _maps(sets[1]) + z, _maps(basis)).rows) == len(basis)
    brackets = [bracket(p, x, y) for x, y in product(basis, repeat=2)]
    derived = _span_of(brackets)
    assert len(comp) == p.part(p.n)
    assert all(x.i == x.j for x in comp) and comp == sorted(comp)
    assert all(derived.add({x: 1}) for x in comp)  # independent modulo [a, a]
    assert len(derived.rows) == len(basis)
    # C' is independent modulo [a, a] + z and completes it to a
    modulo = _span_of(brackets + z)
    assert all(modulo.add({x: 1}) for x in rest)
    assert len(modulo.rows) == len(basis)


@pytest.mark.parametrize("p", all_partitions(9), ids=str)
def test_degree_splits_a_into_levi_and_nilpotent_parts(p):
    # The grading behind mode 0: degree is >= 0 and adds under bracket, its
    # degree-0 part is l, and l's raising operators with their transposes
    # and the E[i,i,0] generate l, a gl(m_s) for each part size s.
    basis = centralizer_basis(p)
    assert all(degree(p, x) >= 0 for x in basis)
    for x, y in product(basis, repeat=2):
        assert all(degree(p, e) == degree(p, x) + degree(p, y)
                   for e in bracket(p, x, y)), (x, y)
    levi = _levi(p)
    assert levi == [x for x in basis if degree(p, x) == 0]
    raising = levi_raising(p)
    assert all(x in levi for x in raising)
    gens = _maps(raising + [E(x.j, x.i, 0) for x in raising] +
                 [E(i, i, 0) for i in range(1, p.n + 1)])
    assert len(_closure(p, gens, gens).rows) == len(levi) == \
        sum(p.parts.count(s) ** 2 for s in set(p.parts))


@pytest.mark.parametrize("p", all_partitions(9), ids=str)
def test_candidates_and_S_span_n_under_l(p):
    # The lemma behind S: the candidates lie in n and their l-span is n;
    # S is the candidates independent modulo W = [n, n] + span(e_r, r >= 1),
    # W is l-stable, and the l-span of S and W is n.
    nil = [x for x in centralizer_basis(p) if degree(p, x)]
    levi = _maps(_levi(p))
    cands = _nilpotent_candidates(p)
    assert cands == sorted(set(cands)) and all(x in nil for x in cands)
    assert len(_closure(p, _maps(cands), levi).rows) == len(nil)
    w = [bracket(p, x, y) for x, y in product(nil, repeat=2)] + centre_basis(p)[1:]
    span_w = _span_of(w)
    assert all(not span_w.add(lie_bracket(p, y, x)) for y in levi for x in w)
    # each candidate kept when it lies outside W plus the span of those before
    S = nilpotent_generators(p)
    assert S == [x for x in cands if span_w.add({x: 1})]
    assert len(_closure(p, _maps(S) + w, levi).rows) == len(nil)


@pytest.mark.parametrize("entries", [
    [0, 0, 1, -1, 2, -3],
    [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(1), Fraction(-1)],
], ids=["int", "mixed"])
def test_echelon_insert_matches_dividing_oracle(entries):
    # Keeping a row with int pivot value 1 or -1 as integers against the
    # routine that divides every row: the same pivots and pivot values
    # (each a Fraction, of the same repr), rows equal entry by entry, on
    # seeded sequences of sparse vectors with pivots of every value and
    # rows that depend on the ones before.
    rng = random.Random(len(entries))
    kept = {"int": 0, "divided": 0, "dependent": 0}  # how each insertion ended
    for _ in range(200):
        rows, want_rows, seen = {}, {}, []
        for _ in range(rng.randint(1, 8)):
            if len(seen) >= 2 and rng.random() < 0.25:
                a, b = rng.sample(seen, 2)
                q = rng.choice(entries[2:])
                vec = add_into({k: q * c for k, c in a.items()}, b.items())
            else:
                vec = {k: c for k in range(6) if (c := rng.choice(entries))}
            seen.append(vec)
            got = echelon_insert(rows, vec)
            want = oracles.echelon_insert(want_rows, vec)
            assert repr(got) == repr(want), (vec, got, want)
            assert rows == want_rows
            if got is None:
                kept["dependent"] += 1
            elif type(rows[got[0]][got[0]]) is int:
                kept["int"] += 1
            else:
                kept["divided"] += 1
    assert all(n >= 20 for n in kept.values()), kept


def test_trace_form_oracles():
    p = Partition.of(1, 2)
    assert trace_form(p, E(1, 1, 0), E(1, 1, 0)) == 1
    assert trace_form(p, E(2, 2, 0), E(2, 2, 0)) == 2
    assert trace_form(p, E(1, 1, 0), E(2, 2, 0)) == 0
    assert trace_form(p, E(1, 2, 1), E(2, 1, 0)) == 0  # r + s > 0
    assert trace_form(p, E(2, 2, 0), E(2, 2, 1)) == 0
    q = Partition.of(2, 2)
    assert trace_form(q, E(1, 2, 0), E(2, 1, 0)) == 2  # equal parts


def test_critical_form_oracles():
    p = Partition.of(1, 1)
    assert critical_form(p, E(1, 1, 0), E(1, 1, 0)) == -1
    assert critical_form(p, E(2, 2, 0), E(2, 2, 0)) == -1
    assert critical_form(p, E(1, 1, 0), E(2, 2, 0)) == 1
    assert critical_form(p, E(1, 2, 0), E(2, 1, 0)) == -2
    q = Partition.of(1, 2)
    assert critical_form(q, E(1, 1, 0), E(1, 1, 0)) == -1
    assert critical_form(q, E(2, 2, 0), E(2, 2, 0)) == -1
    assert critical_form(q, E(1, 1, 0), E(2, 2, 0)) == 1
    assert critical_form(q, E(1, 2, 1), E(2, 1, 0)) == 0  # unequal parts
    assert critical_form(q, E(2, 2, 0), E(2, 2, 1)) == 0


@pytest.mark.parametrize("p", all_partitions(4), ids=str)
def test_forms_symmetric_and_invariant(p):
    basis = centralizer_basis(p)
    for form in (trace_form, critical_form):
        for x, y in product(basis, repeat=2):
            assert form(p, x, y) == form(p, y, x)
        for x, y, z in product(basis, repeat=3):
            lhs = form_on_elements(p, form, bracket(p, x, y), {z: 1})
            rhs = form_on_elements(p, form, {y: 1}, bracket(p, x, z))
            assert lhs + rhs == 0


def test_all_partitions_order():
    got = [str(p) for p in all_partitions(4)]
    assert got == ["1", "1,1", "2", "1,1,1", "1,2", "3",
                   "1,1,1,1", "1,1,2", "1,3", "2,2", "4"]
    assert [str(p) for p in all_partitions(4, max_parts=2)] == \
        ["1", "1,1", "2", "1,2", "3", "1,3", "2,2", "4"]


def test_add_into_keeps_no_zero_coefficient():
    acc = {"a": 1}
    assert add_into(acc, [("b", 0), ("a", -1), ("c", Fraction(1, 2)), ("c", 0)]) is acc
    assert acc == {"c": Fraction(1, 2)}
    x = DiffPoly.var(DiffVar(0, 1, 1, 0))
    polys = add_into({}, [(0, x), (1, DiffPoly.zero()), (2, x), (0, x.scale(-1))])
    assert polys == {2: x}


P12 = Partition.of(1, 2)


def _seeded_element(kind, rng):
    """A nonzero element of one of the four sparse types, over P12."""
    def poly():
        return random_diffpoly(P12, rng, max_terms=3)

    if kind is DiffPoly:
        return poly()
    if kind is UPoly:
        return UPoly({k: poly() for k in range(3)})
    if kind is DiffOp:
        return DiffOp({(a, b): UPoly({0: poly(), 1: poly()})
                       for a in range(2) for b in range(2)})
    modes = [LoopMode.of(e, -m) for e in centralizer_basis(P12) for m in (1, 2)]
    vs = [normal_order(P12, rng.sample(modes, 2), rng.choice([-2, 1, 3])) for _ in range(3)]
    return sum(vs[1:], vs[0])


def _assert_no_zero_stored(x):
    for c in x.terms.values():
        assert c
        if isinstance(c, Sparse):
            _assert_no_zero_stored(c)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", [DiffPoly, VacuumVector, UPoly, DiffOp],
                         ids=lambda kind: kind.__name__)
def test_sparse_arithmetic_identities(kind, seed):
    rng = random.Random(seed)
    x, y = _seeded_element(kind, rng), _seeded_element(kind, rng)
    zero = kind.zero(P12) if kind is VacuumVector else kind.zero()
    assert x and y and not zero and x != y and x.scale(2) != x
    assert not (x - x) and x - x == 0 and x - x == zero
    assert not x + -x
    assert x.scale(0).terms == {}
    assert x + zero == x and zero + x == x
    # y - x cancels against x term by term, and leaves exactly y
    assert x + (y - x) == y and x + y + -x == y
    for z in (x + y, x - y, -x, x.scale(Fraction(-2, 3)), x + y + -y,
              x + (y - x)):
        _assert_no_zero_stored(z)
