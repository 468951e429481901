import random
from fractions import Fraction
from itertools import product

import pytest

from wcent import (BasisElt, DiffOp, DiffPoly, DiffVar, LoopMode, Partition,
                   UPoly, VacuumVector, all_partitions, bracket, cartan_basis,
                   centralizer_basis, centralizer_dim, critical_form, lie_bracket,
                   lower_basis, normal_order, parabolic_basis, parse_basis_elt,
                   trace_form, upper_basis)
from wcent.affine import _generating_scan
from wcent.centralizer import Sparse, add_into, derived_complement, form_on_elements
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
    assert centralizer_dim(p) == expected == len(centralizer_basis(p))


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
    p = Partition.of(1, 2)
    full = set(centralizer_basis(p))
    assert set(upper_basis(p)) | set(lower_basis(p)) | set(cartan_basis(p)) == full
    assert set(parabolic_basis(p)) == set(lower_basis(p)) | set(cartan_basis(p))


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
    """Smallest subspace holding gens and stable under ad y for every y in by."""
    span = _Span()
    queue = [{g: 1} for g in gens]
    while queue:
        vec = queue.pop()
        if span.add(vec):
            queue.extend(lie_bracket(p, {y: 1}, vec) for y in by)
    return span


@pytest.mark.parametrize("p", all_partitions(6), ids=str)
def test_center_scan_sets_generate(p):
    # The per-mode sets of the centre check's generating scan, checked
    # exactly: the mode-0 set generates the Lie algebra, the mode-1 set
    # generates it as an ideal, and C completes [a, a] to a.
    basis = centralizer_basis(p)
    scan = _generating_scan(p, 2)
    sets = [[x for x, m in scan if m == k] for k in range(3)]
    comp = derived_complement(p)
    assert sets[2] == comp
    assert all(len(set(s)) == len(s) for s in sets)
    assert len(_closure(p, sets[0], sets[0]).rows) == len(basis)
    assert len(_closure(p, sets[1], basis).rows) == len(basis)
    derived = _Span()
    for x, y in product(basis, repeat=2):
        derived.add(bracket(p, x, y))
    assert len(comp) == p.part(p.n)
    assert all(x.i == x.j for x in comp) and comp == sorted(comp)
    assert all(derived.add({x: 1}) for x in comp)  # independent modulo [a, a]
    assert len(derived.rows) == len(basis)


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


def test_parse_basis_elt():
    assert parse_basis_elt("E[1,2,1]") == E(1, 2, 1)
    assert parse_basis_elt(E(2, 1, 0).text()) == E(2, 1, 0)
    with pytest.raises(ValueError):
        parse_basis_elt("E[1,2]")


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
    return VacuumVector.sum([normal_order(P12, rng.sample(modes, 2), rng.choice([-2, 1, 3]))
                             for _ in range(3)])


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
    assert not kind.sum([x, -x])
    assert x.scale(0).terms == {}
    assert x + zero == x and zero + x == x
    # y - x cancels against x term by term, and leaves exactly y
    assert x + (y - x) == y and kind.sum([x, y, -x]) == y
    for z in (x + y, x - y, -x, x.scale(Fraction(-2, 3)), kind.sum([x, y, -y]),
              x + (y - x)):
        _assert_no_zero_stored(z)
