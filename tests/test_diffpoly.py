import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wcent import DiffPoly, DiffVar
from wcent.centralizer import Sparse, add_into
from wcent.diffpoly import mono_degree


def V(i, j, r, s=0):
    return DiffVar(s=s, i=i, j=j, r=r)


# small pools keep cancellation frequent enough to exercise zero handling
VAR_POOL = [V(1, 1, 0), V(2, 2, 0), V(2, 2, 1), V(2, 1, 0), V(1, 2, 1),
            V(1, 1, 0, s=1), V(2, 2, 1, s=2)]

coeffs = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)

# words in any factor order: the constructor sorts them and adds those that
# sort equal
words = st.lists(st.sampled_from(VAR_POOL), max_size=5).map(tuple)

polys = st.dictionaries(words, coeffs, max_size=4).map(DiffPoly)


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
    return DiffPoly._raw(add_into({}, ((tuple(sorted(m1 + m2)), c1 * c2)
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
    assert DiffPoly.const(a.terms.get((), 0)).derive() == 0
    # the derivative never has a constant term
    assert a.derive().terms.get((), 0) == 0


@given(polys, polys)
def test_partials_match_partial(a, b):
    table = a.partials()
    assert set(table) == a.variables() and V(9, 9, 0) not in table
    # chain rule: d(a) = sum over variables v of (da/dv) * d(v)
    assert a.derive() == sum((pv * DiffPoly.var(v.shifted()) for v, pv in table.items()),
                             DiffPoly.zero())
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
    m = (V(1, 1, 0), V(2, 2, 1, s=2), V(2, 2, 1, s=2))
    assert mono_degree(m) == 4
    p = DiffPoly.var(V(1, 1, 0)) * DiffPoly.var(V(2, 2, 0)) + \
        DiffPoly.var(V(2, 2, 0, s=1))
    assert len({mono_degree(m) for m in p.terms}) > 1
    assert p.min_component() == \
        DiffPoly.var(V(1, 1, 0)) * DiffPoly.var(V(2, 2, 0))


@given(polys)
def test_derive_shifts_degree_by_one(a):
    if not a or a.terms.get((), 0):
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


def test_reflected_subtraction_and_repr():
    x = DiffPoly.var(V(1, 1, 0))
    assert 1 - x == DiffPoly.const(1) - x == -(x - 1)
    assert Fraction(1, 2) - x * x == DiffPoly({(): Fraction(1, 2), (V(1, 1, 0),) * 2: -1})
    assert repr(x * x - 1) == "DiffPoly(-1 + E[1,1,0][0]^2)"
    assert repr(DiffPoly.zero()) == "DiffPoly(0)"


def test_monomials_are_canonically_sorted():
    p = DiffPoly.var(V(2, 1, 0)) + DiffPoly.var(V(1, 1, 0)) + \
        DiffPoly.var(V(1, 1, 0, s=1))
    ms = [m for m, _ in p.items()]
    assert ms == sorted(ms)
    assert ms[0][0][0] == V(1, 1, 0)
    assert ms[-1][0][0] == V(1, 1, 0, s=1)


def test_constructor_rejects_bad_factors():
    with pytest.raises(ValueError, match=r"E\[1,1,0\]\[-1\]"):
        DiffPoly({(V(2, 2, 0), V(1, 1, 0, s=-1)): 1})
    # each word is sorted, and words that sort equal add, also to zero
    x, y = V(1, 1, 0), V(2, 2, 0)
    assert DiffPoly({(y, x, x): 1, (x, y, x): 2, (): 0}).terms == {(x, x, y): 3}
    assert DiffPoly({(y, x): 1, (x, y): -1}).terms == {}
    assert DiffPoly({(x, y, x): 1}) == DiffPoly.var(x) ** 2 * DiffPoly.var(y)


def test_negative_derivation_order_is_a_value_error():
    x = DiffPoly.var(V(1, 1, 0))
    for poly in (x, DiffPoly.zero(), DiffPoly.const(3)):
        with pytest.raises(ValueError, match="negative derivation order -2"):
            poly.derive(-2)
    assert x.derive(0) == x


# -- the pair format, kept as a test oracle --------------------------------------
# In the pair format a monomial is keyed by its (DiffVar, exponent) pairs
# sorted by variable, the form DiffPoly.items() prints.  These routines do the
# arithmetic in that format, as a reference for the word format; a _PairPoly
# holds such keys, and Sparse.items() and Sparse.text() read them directly.


def _normalize_mono(mono):
    acc = {}
    for v, e in mono:
        if e < 0 or v.s < 0:
            raise ValueError("bad monomial factor %s^%d" % (v.text(), e))
        if e:
            acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def _merge_mono(m1, m2):
    """Product of two canonical monomials (linear merge of sorted factor lists)."""
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        (v1, e1), (v2, e2) = m1[i], m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return tuple(out + list(m1[i:]) + list(m2[j:]))


def _drop_one(mono, idx):
    v, e = mono[idx]
    return mono[:idx] + ((v, e - 1),) + mono[idx + 1:] if e > 1 else mono[:idx] + mono[idx + 1:]


def _derive_terms(terms):
    for mono, c in terms.items():
        for idx, (v, e) in enumerate(mono):
            yield _merge_mono(_drop_one(mono, idx), ((v.shifted(), 1),)), c * e


def _partials(terms):
    out = {}
    for mono, c in terms.items():
        for idx, (w, e) in enumerate(mono):
            d = out.setdefault(w, {})
            nm = _drop_one(mono, idx)
            d[nm] = d.get(nm, 0) + c * e
    return {v: _PairPoly._raw(t) for v, t in out.items()}


class _PairPoly(Sparse):
    __slots__ = ()

    def __mul__(self, other):
        return _PairPoly._raw(add_into({}, ((_merge_mono(m1, m2), c1 * c2)
                                           for m1, c1 in self.terms.items()
                                           for m2, c2 in other.terms.items())))

    def derive(self, k):
        terms = self.terms
        for _ in range(k):
            terms = add_into({}, _derive_terms(terms))
        return _PairPoly._raw(terms)

    def min_component(self):
        d = min(sum(v.s * e for v, e in m) for m in self.terms)
        return _PairPoly._raw({m: c for m, c in self.terms.items()
                               if sum(v.s * e for v, e in m) == d})

    def eval_at(self, point):
        total = 0
        for mono, c in self.terms.items():
            for v, e in mono:
                c = c * point[v] ** e
            total += c
        return total

    def substitute_consts(self, image):
        def images():
            for mono, c in self.terms.items():
                kept = []
                for v, e in mono:
                    val = image(v)
                    if val is None:
                        kept.append((v, e))
                    else:
                        c = c * val ** e
                yield tuple(kept), c
        return _PairPoly._raw(add_into({}, images()))


ORACLE_POOL = VAR_POOL + [V(1, 1, 0, s=2), V(2, 1, 0, s=1)]


def _random_terms(rng):
    """Seeded (pairs, coefficient) terms: repeated variables with exponents
    up to 3, split pairs, constants, and terms that cancel."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        pairs = [(rng.choice(ORACLE_POOL), rng.choice([1, 2, 2, 3, 3]))
                 for _ in range(rng.randint(0, 3))]
        c = rng.choice([-2, -1, 1, 3, Fraction(1, 2), Fraction(-5, 3)])
        terms.append((tuple(pairs), c))
        if rng.random() < 0.3:  # cancels: the same monomial, pairs in another order
            terms.append((tuple(reversed(pairs)), -c))
    if rng.random() < 0.5:
        terms.append(((), rng.choice([1, -4, Fraction(2, 7)])))
    return terms


def _poly(terms):
    """The DiffPoly of (pairs, coefficient) terms: each monomial's pairs
    spelled out as a word, and the terms added."""
    return sum((DiffPoly({tuple(v for v, e in pairs for _ in range(e)): c})
                for pairs, c in terms), DiffPoly())


def _both(terms):
    return _poly(terms), _PairPoly._raw(add_into({}, ((_normalize_mono(m), c)
                                                     for m, c in terms)))


def _same(new, old):
    assert new.items() == old.items()
    assert new.text() == old.text()


def _image(v):
    # None keeps, 0 kills, anything else scales: three cases per factor
    return [None, 0, 2, Fraction(-1, 3), None][(v.i + 2 * v.j + v.r + v.s) % 5]


@pytest.mark.parametrize("seed", range(40))
def test_word_format_matches_pair_oracle(seed):
    rng = random.Random(seed)
    a, oa = _both(_random_terms(rng))
    b, ob = _both(_random_terms(rng))
    _same(a, oa)
    _same(a * b, oa * ob)
    for k in range(3):
        _same(a.derive(k), oa.derive(k))
    table, otable = a.partials(), _partials(oa.terms)
    assert list(table) == list(otable)
    for v in table:
        _same(table[v], otable[v])
    _same(a.substitute_consts(_image), oa.substitute_consts(_image))
    point = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             for v in ORACLE_POOL + [v.shifted() for v in ORACLE_POOL]}
    assert a.eval_at(point) == oa.eval_at(point)
    assert (a * b).eval_at(point) == (oa * ob).eval_at(point)
    if a:
        _same(a.min_component(), oa.min_component())


def test_pair_oracle_inputs_reach_every_case():
    # the seeded inputs above hold repeated variables, constants and cancellation
    squares = constants = cancelled = 0
    for seed in range(40):
        terms = _random_terms(random.Random(seed))
        a, _ = _both(terms)
        squares += any(e >= 2 for mono, _ in a.items() for _, e in mono)
        constants += bool(a.terms.get((), 0))
        cancelled += len(a) < len({_normalize_mono(m) for m, _ in terms})
    assert squares >= 20 and constants >= 10 and cancelled >= 5


def test_mul_into_matches_pair_oracle():
    # mul_into adds q * a * b into a pre-filled word map.  The reference is
    # the pair-format product; every other word of it is pre-filled at -q
    # times its coefficient, so those keys cancel and must be deleted.
    seen = dict.fromkeys(("cancelled", "constant side", "kept"), 0)
    for seed in range(40):
        rng = random.Random(seed)
        a, oa = _both(_random_terms(rng))
        b, ob = _both(_random_terms(rng))
        c = _poly(_random_terms(rng))
        prod = _poly((oa * ob).terms.items())  # the oracle's product, as words
        cancel = dict(list(prod.terms.items())[::2])
        seen["constant side"] += () in a.terms or () in b.terms
        for q in (0, -1, 2, Fraction(-2, 3)):
            acc = add_into(dict(c.terms), ((w, -q * v) for w, v in cancel.items()))
            before = dict(acc)
            want = add_into(dict(before), ((w, q * v) for w, v in prod.terms.items()))
            assert a.mul_into(acc, b, q) is acc
            assert acc == want and all(acc.values())
            gone = set(cancel) - set(c.terms)
            if q:
                assert not gone & set(acc)
                seen["cancelled"] += bool(gone)
                seen["kept"] += bool(set(c.terms) & set(acc))
            else:
                assert acc == before
    assert all(n >= 5 for n in seen.values()), seen
