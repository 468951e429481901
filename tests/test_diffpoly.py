from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wcent import DiffPoly, DiffVar
from wcent.centralizer import add_into
from wcent.diffpoly import _merge_mono, mono_degree


def V(i, j, r, s=0):
    return DiffVar(s=s, i=i, j=j, r=r)


# small pools keep cancellation frequent enough to exercise zero handling
VAR_POOL = [V(1, 1, 0), V(2, 2, 0), V(2, 2, 1), V(2, 1, 0), V(1, 2, 1),
            V(1, 1, 0, s=1), V(2, 2, 1, s=2)]

coeffs = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)

monos = st.lists(
    st.tuples(st.sampled_from(VAR_POOL), st.integers(min_value=1, max_value=2)),
    max_size=3).map(tuple)

polys = st.lists(st.tuples(monos, coeffs), max_size=4).map(DiffPoly)


def test_var_ordering_is_by_derivative_then_position():
    assert V(2, 2, 0) < V(1, 1, 0, s=1)  # any s=0 var precedes any s=1 var
    assert V(1, 1, 0) < V(1, 2, 0) < V(2, 1, 0)
    assert V(1, 2, 0) < V(1, 2, 1)
    assert V(1, 2, 1).shifted() == V(1, 2, 1, s=1)
    assert V(1, 2, 1, s=1).base == (1, 2, 1)
    assert V(1, 2, 1, s=2).text() == "E[1,2,1][2]"


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0
    assert a + 0 == a and a * 1 == a and a * 0 == 0
    assert -(-a) == a


@given(polys, coeffs)
def test_scalar_action(a, q):
    assert a.scale(q) == a * DiffPoly.const(q)
    if q:
        assert a.scale(q).scale(Fraction(1, q)) == a


def _merge_product(a, b):
    """a * b term by term, as DiffPoly.__mul__ computes it when neither side
    is a constant."""
    return DiffPoly._raw(add_into({}, ((_merge_mono(m1, m2), c1 * c2)
                                       for m1, c1 in a.terms.items()
                                       for m2, c2 in b.terms.items())))


@pytest.mark.parametrize("c", [1, -1, Fraction(3, 2)])
@given(polys)
def test_constant_operand_scales(c, a):
    k = DiffPoly.const(c)
    expected = a.scale(c)
    assert c * a == expected and a * c == expected
    assert a * k == expected and k * a == expected
    merged = _merge_product(k, a)
    assert _merge_product(a, k) == expected == merged
    # the same coefficients, down to int against Fraction
    assert all(type(q) is type(merged.terms[m]) for m, q in (k * a).terms.items())
    assert (k * a).terms is not a.terms  # a new element, not an alias


def test_derive_shares_shifted_variables():
    x, y = DiffPoly.var(V(1, 1, 0)), DiffPoly.var(V(2, 2, 1))
    first = {v: v for v in (x * y).derive().variables()}
    again = (x * x * y + y).derive().variables()
    assert again == set(first)
    assert all(v is first[v] for v in again)


@given(polys, polys)
def test_derive_is_a_derivation(a, b):
    assert (a * b).derive() == a.derive() * b + a * b.derive()
    assert (a + b).derive() == a.derive() + b.derive()
    assert a.derive(2) == a.derive().derive()


@given(polys)
def test_derive_kills_constants(a):
    assert DiffPoly.const(a.constant_term()).derive() == 0
    # the derivative never has a constant term
    assert a.derive().constant_term() == 0


@given(polys, polys)
def test_partials_match_partial(a, b):
    table = a.partials()
    assert set(table) == a.variables() and V(9, 9, 0) not in table
    # chain rule: d(a) = sum over variables v of (da/dv) * d(v)
    assert a.derive() == DiffPoly.sum([pv * DiffPoly.var(v.shifted())
                                       for v, pv in table.items()])
    # partial derivatives commute
    for v in list(a.variables())[:2]:
        for w in list(a.variables())[:2]:
            assert table[v].partials().get(w, DiffPoly.zero()) == \
                table[w].partials().get(v, DiffPoly.zero())


@given(polys, polys)
def test_min_degree_multiplicative(a, b):
    if not a or not b:
        return
    assert (a * b).min_degree() == a.min_degree() + b.min_degree()


def test_grading_conventions():
    m = ((V(1, 1, 0), 1), (V(2, 2, 1, s=2), 2))
    assert mono_degree(m) == 4
    p = DiffPoly.var(V(1, 1, 0)) * DiffPoly.var(V(2, 2, 0)) + \
        DiffPoly.var(V(2, 2, 0, s=1))
    assert not p.is_homogeneous()
    assert p.min_component() == \
        DiffPoly.var(V(1, 1, 0)) * DiffPoly.var(V(2, 2, 0))


@given(polys)
def test_derive_shifts_degree_by_one(a):
    if not a or a.constant_term():
        return
    da = a.derive()
    assert da.min_degree() == a.min_degree() + 1


@given(polys, polys)
def test_eval_is_a_ring_hom(a, b):
    point = {v: Fraction(k - 3, 2) for k, v in enumerate(VAR_POOL)}
    point.update({v.shifted(): 2 for v in VAR_POOL})
    ea, eb = a.eval_at(point), b.eval_at(point)
    assert (a + b).eval_at(point) == ea + eb
    assert (a * b).eval_at(point) == ea * eb


def test_eval_requires_full_point():
    p = DiffPoly.var(V(1, 1, 0)) * DiffPoly.var(V(2, 2, 0))
    with pytest.raises(ValueError, match=r"E\[2,2,0\]\[0\]"):
        p.eval_at({V(1, 1, 0): 1})


def test_substitute_consts():
    p = DiffPoly.var(V(1, 1, 0)) * DiffPoly.var(V(1, 2, 1)) + DiffPoly.var(V(2, 1, 0))
    killed = p.substitute_consts(lambda v: 0 if v.i != v.j else None)
    assert killed == 0
    scaled = p.substitute_consts(lambda v: 2 if v == V(1, 2, 1) else None)
    assert scaled == DiffPoly.var(V(1, 1, 0)).scale(2) + DiffPoly.var(V(2, 1, 0))


def test_pow_and_text():
    x = DiffPoly.var(V(1, 1, 0))
    assert x ** 3 == x * x * x
    assert x ** 0 == 1
    p = x * x - DiffPoly.var(V(2, 1, 0)).scale(Fraction(1, 2))
    assert p.text() == "E[1,1,0][0]^2 + -1/2*E[2,1,0][0]"
    assert DiffPoly.zero().text() == "0"
    assert DiffPoly.const(5) == 5
    assert DiffPoly.zero() == 0
    assert not DiffPoly.zero()


def test_monomials_are_canonically_sorted():
    p = DiffPoly.var(V(2, 1, 0)) + DiffPoly.var(V(1, 1, 0)) + \
        DiffPoly.var(V(1, 1, 0, s=1))
    ms = [m for m, _ in p.items()]
    assert ms == sorted(ms)
    assert ms[0][0][0] == V(1, 1, 0)
    assert ms[-1][0][0] == V(1, 1, 0, s=1)
