import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from wcent import (BasisElt, DiffPoly, DiffVar, LoopMode, Partition,
                   VacuumVector, act_mode, all_partitions, center_check,
                   centralizer_basis, hc_project, loop_realization,
                   normal_order, operator_matrix, ss_vectors, upper_basis,
                   w_correspondence, w_generators)
from wcent import affine
from wcent.centralizer import (add_into, bracket, critical_form, derived_complement,
                               echelon_insert)


def E(i, j, r):
    return BasisElt(i, j, r)


def M(i, j, r, m):
    return LoopMode(i, j, r, m)


def single(p, i, j, r, m, c=1):
    return VacuumVector.single(p, E(i, j, r), m, c)


P11 = Partition.of(1, 1)
P12 = Partition.of(1, 2)


def test_pbw_order():
    # lower < diagonal < upper; shallow modes first within a sector
    modes = [M(1, 2, 0, -1), M(1, 1, 0, -2), M(2, 1, 0, -5), M(1, 1, 0, -1),
             M(2, 2, 0, -1)]
    assert sorted(modes) == [
        M(2, 1, 0, -5), M(1, 1, 0, -1), M(2, 2, 0, -1), M(1, 1, 0, -2),
        M(1, 2, 0, -1)]
    assert [m.sector for m in (M(2, 1, 0, -1), M(1, 1, 0, -1), M(1, 2, 0, -1))] \
        == [0, 1, 2]


def test_loop_mode_contract():
    # Stored as its PBW key, but built, read, printed and pickled as
    # (i, j, r, m).
    a = LoopMode(2, 1, 1, -3)
    assert a == LoopMode(i=2, j=1, r=1, m=-3) == LoopMode.of(E(2, 1, 1), -3)
    assert (a.i, a.j, a.r, a.m, a.base, a.sector) == (2, 1, 1, -3, E(2, 1, 1), 0)
    assert repr(a) == "LoopMode(i=2, j=1, r=1, m=-3)"
    assert a.text() == "E[2,1,1](-3)"
    assert hash(a) == hash(M(2, 1, 1, -3)) and len({a, M(2, 1, 1, -3)}) == 1
    assert a != M(2, 1, 1, -2) and a != M(1, 2, 1, -3)
    for name in ("_replace", "_make", "_asdict"):
        assert not hasattr(a, name)
    word = (M(2, 1, 0, -1), a, M(1, 2, 0, -2))
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(word, proto))
        assert back == word and all(type(x) is LoopMode for x in back)
        assert [x.m for x in back] == [-1, -3, -2]
    assert copy.deepcopy(word) == word and copy.copy(a) == a
    assert type(copy.deepcopy(a)) is LoopMode
    # a plain mode list is read as (i, j, r, m), also next to a LoopMode
    v = VacuumVector(P11, [([[2, 1, 0, -1], M(1, 2, 0, -1)], 3)])
    assert v == single(P11, 2, 1, 0, -1, 3) * single(P11, 1, 2, 0, -1)
    assert normal_order(P11, [(1, 2, 0, -1), M(2, 1, 0, -1)]) == \
        normal_order(P11, [M(1, 2, 0, -1), M(2, 1, 0, -1)])


def test_normal_order_swap_with_bracket():
    got = normal_order(P11, [M(1, 2, 0, -1), M(2, 1, 0, -1)])
    expected = single(P11, 2, 1, 0, -1) * single(P11, 1, 2, 0, -1) + \
        single(P11, 1, 1, 0, -2) - single(P11, 2, 2, 0, -2)
    assert got == expected
    # already-ordered words pass through unchanged
    assert single(P11, 2, 1, 0, -1) * single(P11, 1, 2, 0, -1) == \
        normal_order(P11, [M(2, 1, 0, -1), M(1, 2, 0, -1)])


def test_normal_order_truncation():
    # [E12^(1), E21^(0)] truncates to -E22^(1) inside the loop algebra too
    got = normal_order(P12, [M(1, 2, 1, -1), M(2, 1, 0, -1)])
    expected = single(P12, 2, 1, 0, -1) * single(P12, 1, 2, 1, -1) - \
        single(P12, 2, 2, 1, -2)
    assert got == expected


def test_normal_order_rejects_nonnegative_modes():
    with pytest.raises(ValueError):
        normal_order(P11, [M(1, 1, 0, 0)])
    with pytest.raises(ValueError):
        VacuumVector.single(P11, E(1, 1, 0), 1)


def test_vacuum_vector_validation():
    # a vector is built from PBW words, one mode per factor
    with pytest.raises(ValueError):
        VacuumVector(P11, [((M(1, 2, 0, -1), M(2, 1, 0, -1)), 1)])  # out of order
    with pytest.raises(ValueError):
        VacuumVector(P11, [((M(2, 1, 0, -1), M(1, 1, 0, 0)), 1)])  # nonnegative mode
    with pytest.raises(ValueError):
        VacuumVector(P12, [((M(1, 2, 0, -1),), 1)])  # invalid window
    v = VacuumVector(P11, [((M(2, 1, 0, -1), M(2, 1, 0, -1)), 3)])
    assert v.terms == {(M(2, 1, 0, -1), M(2, 1, 0, -1)): 3}
    assert v == single(P11, 2, 1, 0, -1, 3) * single(P11, 2, 1, 0, -1)


def test_product_groups_exponents():
    a = single(P11, 1, 1, 0, -1)
    A = M(1, 1, 0, -1)
    assert (a * a).terms == {(A, A): 1}
    assert (a * a).items() == [(((A, 2),), 1)]
    assert (a * a).depth == 2
    vac = VacuumVector.vacuum(P11)
    assert vac * a == a and a * vac == a
    assert (a - a) == 0 and not (a - a)


@pytest.mark.parametrize("op", [
    lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b], ids=["add", "sub", "mul"])
def test_vectors_of_different_partitions_do_not_mix(op):
    a, b = single(P11, 1, 1, 0, -1), single(P12, 1, 1, 0, -1)
    with pytest.raises(ValueError):
        op(a, b)
    assert VacuumVector.vacuum(P11) != VacuumVector.vacuum(P12)


def test_product_associativity_samples():
    rng = random.Random(2)
    pool = [M(1, 1, 0, -1), M(2, 2, 0, -1), M(1, 2, 0, -1), M(2, 1, 0, -2),
            M(1, 1, 0, -2)]

    def rand_vec():
        k = rng.randint(1, 3)
        return normal_order(P11, [rng.choice(pool) for _ in range(k)],
                            coeff=rng.randint(1, 3))

    for _ in range(30):
        a, b, c = rand_vec(), rand_vec(), rand_vec()
        assert (a * b) * c == a * (b * c)


def test_normal_order_is_word_invariant():
    # the PBW form depends only on the enveloping-algebra element
    rng = random.Random(9)
    pool = [M(1, 1, 0, -1), M(2, 2, 0, -2), M(1, 2, 0, -1), M(2, 1, 0, -1)]
    for _ in range(20):
        word = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        prod = VacuumVector.vacuum(P11)
        for mode in word:
            prod = prod * VacuumVector.single(P11, mode.base, mode.m)
        assert prod == normal_order(P11, word)


def test_translation_examples():
    assert VacuumVector.vacuum(P11).derive() == 0
    a = single(P11, 1, 1, 0, -1)
    assert a.derive() == single(P11, 1, 1, 0, -2)
    assert a.derive(2) == single(P11, 1, 1, 0, -3, 2)
    b = single(P11, 2, 2, 0, -1)
    assert (a * b).derive() == \
        single(P11, 1, 1, 0, -1) * single(P11, 2, 2, 0, -2) + \
        single(P11, 2, 2, 0, -1) * single(P11, 1, 1, 0, -2)


def test_translation_is_a_derivation():
    rng = random.Random(4)
    pool = [M(1, 1, 0, -1), M(2, 2, 0, -1), M(2, 1, 0, -1), M(1, 2, 0, -2)]

    def rand_vec():
        return normal_order(P11, [rng.choice(pool) for _ in range(rng.randint(1, 2))])

    for _ in range(25):
        a, b = rand_vec(), rand_vec()
        assert (a * b).derive() == a.derive() * b + a * b.derive()


def test_act_mode_annihilates_vacuum():
    assert act_mode(E(1, 1, 0), 0, VacuumVector.vacuum(P11)) == 0
    assert act_mode(E(1, 2, 0), 3, VacuumVector.vacuum(P11)) == 0


def test_act_mode_central_term():
    # <E12, E21> = -2 at the critical level for two singleton rows
    v = single(P11, 2, 1, 0, -1)
    assert act_mode(E(1, 2, 0), 1, v) == VacuumVector.vacuum(P11, -2)
    # diagonal pairing <E11, E11> = 1 - 2
    assert act_mode(E(1, 1, 0), 1, single(P11, 1, 1, 0, -1)) == \
        VacuumVector.vacuum(P11, -1)
    # mode 0 never sees the central term
    assert act_mode(E(1, 1, 0), 0, single(P11, 1, 1, 0, -1)) == 0


def test_act_mode_commutator_terms():
    # crossing both E21(-1) factors: two central hits and one [h, E21] = -2 E21,
    # so E12(1) E21(-1)^2 vac = -6 E21(-1) vac
    v = single(P11, 2, 1, 0, -1) * single(P11, 2, 1, 0, -1)
    assert act_mode(E(1, 2, 0), 1, v) == single(P11, 2, 1, 0, -1, -6)
    # weight detection: h(0) reads off -2 per lowering factor
    assert act_mode(E(1, 1, 0), 0, v) - act_mode(E(2, 2, 0), 0, v) == v.scale(-4)


def test_act_mode_beyond_depth_vanishes():
    t = ss_vectors(P12)
    for _, v in t.ordered():
        for x in [E(1, 1, 0), E(1, 2, 1), E(2, 1, 0)]:
            assert act_mode(x, v.depth + 1, v) == 0
            assert act_mode(x, v.depth + 3, v) == 0


def test_ss_matrix_shape():
    rows = operator_matrix(P12, VacuumVector.vacuum(P12),
                           lambda e: VacuumVector.single(P12, e, -1))
    assert len(rows) == 2 and len(rows[0]) == 2
    # off-diagonal entries carry no x or derivation part
    assert all(b == 0 for (a, b) in rows[0][1].terms) and \
        all(a == 0 for (a, b) in rows[0][1].terms)
    diag = rows[1][1].terms
    assert (1, 0) in diag and (0, 1) in diag


def test_ss_vectors_oracles():
    t = ss_vectors(Partition.of(2))
    assert t.entries == {(1, 0): single(Partition.of(2), 1, 1, 0, -1),
                         (1, 1): single(Partition.of(2), 1, 1, 1, -1)}

    t = ss_vectors(P11)
    assert t.entries[(1, 0)] == single(P11, 1, 1, 0, -1) + single(P11, 2, 2, 0, -1)
    assert t.entries[(2, 0)] == \
        single(P11, 1, 1, 0, -1) * single(P11, 2, 2, 0, -1) - \
        single(P11, 2, 1, 0, -1) * single(P11, 1, 2, 0, -1) + \
        single(P11, 2, 2, 0, -2)

    t = ss_vectors(P12)
    assert set(t.entries) == {(1, 0), (1, 1), (2, 1)}
    assert t.entries[(2, 1)] == \
        single(P12, 1, 1, 0, -1) * single(P12, 2, 2, 1, -1) - \
        single(P12, 2, 1, 0, -1) * single(P12, 1, 2, 1, -1) + \
        single(P12, 2, 2, 1, -2)
    assert t.out_of_window == {
        (2, 0): single(P12, 1, 1, 0, -1) * single(P12, 2, 2, 0, -1) +
        single(P12, 2, 2, 0, -2)}


def test_center_check_passes_on_vectors():
    for parts in [(1, 1), (1, 2), (2, 2)]:
        p = Partition.of(*parts)
        for _, v in ss_vectors(p).ordered():
            assert center_check(v).ok


def test_center_check_raises_on_violated_depth_bound(monkeypatch):
    v = ss_vectors(P11).entries[(1, 0)]

    def beyond_depth_only(x, m, w):
        return VacuumVector.vacuum(w.partition, 1 if m == w.depth + 1 else 0)

    monkeypatch.setattr(affine, "act_mode", beyond_depth_only)
    with pytest.raises(ArithmeticError, match=r"E\[1,1,0\]\(%d\)" % (v.depth + 1)):
        center_check(v)


def test_center_check_witness_is_first_in_scan_order():
    res = center_check(single(P11, 1, 1, 0, -1))
    assert not res.ok
    x, m, img = res.witness
    assert (x, m) == (E(1, 2, 0), 0)
    assert img == single(P11, 1, 2, 0, -1, -1)


def _differential_inputs(p, rng):
    """Seeded vacuum vectors: the Sugawara vectors, each also plus a random
    short word, and the perfbench-style controls."""
    basis = centralizer_basis(p)
    for _, v in ss_vectors(p).ordered():
        yield v
        word = [LoopMode.of(rng.choice(basis), rng.choice((-1, -2)))
                for _ in range(rng.randint(1, 2))]
        yield v + normal_order(p, word, rng.choice((-2, -1, 1, 2)))
    if p.n > 1:
        yield VacuumVector.single(p, upper_basis(p)[0], -1)
    if p.n > 1 and set(p.parts) == {1}:
        vs = [normal_order(p, [M(i, j, 0, -2), M(j, i, 0, -2)])
              for i in range(1, p.n + 1) for j in range(1, p.n + 1)]
        yield sum(vs[1:], vs[0])


def test_center_check_matches_full_scan():
    # The generating-set scan against the full scan it replaces, kept as
    # the oracle: same verdict, same witness mode and image, on every
    # partition with N <= 5.  Those of 5 with a repeated part are where
    # mode 1 scans the fewest elements per block; those with a block of
    # size >= 2 have central powers e_r of shift r >= 1.
    rng = random.Random(10)
    seen = set()
    for p in all_partitions(5):
        for v in _differential_inputs(p, rng):
            got, want = center_check(v), affine._full_scan(v)
            assert got.ok == want.ok, (str(p), v)
            if want.ok:
                seen.add("pass")
                continue
            (x, m, img), (wx, wm, wimg) = got.witness, want.witness
            assert (x, m) == (wx, wm) and img == wimg, (str(p), v)
            seen.add("mode %d" % m)
    assert {"pass", "mode 0", "mode 1"} <= seen, seen


def _levi_invariants(p):
    """Vectors of p that l(0) kills: for each part size s, the block trace
    sum E[i,i,0](-1)|0> and the block Casimirs sum E[i,j,0](m) E[j,i,0](m)|0>,
    m = -1, -2, over the blocks i, j of size s."""
    out = []
    for s in sorted(set(p.parts)):
        blocks = [i for i in range(1, p.n + 1) if p.part(i) == s]
        out.append(sum((single(p, i, i, 0, -1) for i in blocks[1:]),
                       single(p, blocks[0], blocks[0], 0, -1)))
        for m in (-1, -2):
            casimir = [normal_order(p, [M(i, j, 0, m), M(j, i, 0, m)])
                       for i in blocks for j in blocks]
            out.append(sum(casimir[1:], casimir[0]))
    return out


def test_center_check_mode_zero_matches_full_scan():
    # The weight test, l's raising operators and S against the full scan,
    # on every partition with N <= 5: same verdict, witness mode and image.
    # The inputs are the Segal-Sugawara vectors, each also plus a random
    # word (mostly of nonzero weight) and plus a seeded multiple of an
    # l-invariant vector, which l(0) kills, so that only an element of n
    # can fail at mode 0; the invariants alone; and, per block of a
    # repeated size, E[i,i,0](-1)|0>, of weight zero, which a raising
    # operator fails.
    rng = random.Random(30)
    seen = {}
    for p in all_partitions(5):
        levi = [x for x in centralizer_basis(p) if x.r == 0 and p.part(x.i) == p.part(x.j)]
        basis = centralizer_basis(p)
        inputs = _levi_invariants(p)
        for _, v in ss_vectors(p).ordered():
            word = [LoopMode.of(rng.choice(basis), rng.choice((-1, -2)))
                    for _ in range(rng.randint(1, 2))]
            inputs += [v, v + normal_order(p, word, rng.choice((-1, 1, 2))),
                       v + rng.choice(_levi_invariants(p)).scale(rng.choice((-2, 1, 3)))]
        inputs += [single(p, i, i, 0, -1) for i in range(1, p.n + 1)
                   if p.parts.count(p.part(i)) > 1]
        for v in inputs:
            got, want = center_check(v), affine._full_scan(v)
            assert got.ok == want.ok, (str(p), v)
            if want.ok:
                kind = "pass"
            else:
                (x, m, img), (wx, wm, wimg) = got.witness, want.witness
                assert (x, m) == (wx, wm) and img == wimg, (str(p), v)
                if not v.is_weight_zero():
                    kind = "nonzero weight"
                elif any(act_mode(y, 0, v) for y in levi):
                    kind = "fails in l"
                elif m == 0:
                    assert x not in levi
                    kind = "fails only in n"
                else:
                    kind = "mode %d" % m
            seen[kind] = seen.get(kind, 0) + 1
    # 310 inputs: 138 pass, 31 of nonzero weight, 34 fail in l, 97 fail
    # only in n, 10 at mode 1
    assert {"pass", "nonzero weight", "fails in l", "fails only in n", "mode 1"} <= set(seen), seen


def test_central_powers_kill_every_vector():
    # The lemma behind the scan modulo the centre, checked on seeded
    # vectors: sum_i E[i,i,r](m) v = 0 for every central power e_r and
    # 0 <= m <= depth + 1, though its single terms need not vanish.
    rng = random.Random(24)
    checks = nonzero_terms = 0
    for p in all_partitions(5):
        for v in list(_differential_inputs(p, rng)) + _table_inputs(p, rng):
            for r in range(p.part(p.n)):
                diagonal = [E(i, i, r) for i in range(1, p.n + 1) if r < p.part(i)]
                for m in range(v.depth + 2):
                    terms = [act_mode(x, m, v) for x in diagonal]
                    assert not sum(terms[1:], terms[0]), (str(p), r, m, v)
                    checks += 1
                    nonzero_terms += any(terms)
    # 2,205 checks, in 218 of which some single term is nonzero
    assert checks >= 2000 and nonzero_terms >= 200, (checks, nonzero_terms)


def _generating_scan_oracle(p, depth):
    """The generating scan rebuilt from its definition on every call: S is
    the candidates, in order, that stay independent modulo [n, n] plus the
    central powers e_r of shift r >= 1, n being the basis elements of
    positive degree 2r + lam_i - lam_j; C' is the elements of C, in order,
    that stay independent modulo [a, a] plus every e_r."""
    basis = centralizer_basis(p)
    comp = derived_complement(p)
    central = [{E(i, i, r): 1 for i in range(1, p.n + 1) if r < p.part(i)}
               for r in range(p.part(p.n))]
    rows = {}
    for x in basis:
        for y in basis:
            echelon_insert(rows, bracket(p, x, y))
    for e in central:
        echelon_insert(rows, e)
    rest = [x for x in comp if echelon_insert(rows, {x: 1})]
    nil = [x for x in basis if 2 * x.r + p.part(x.i) - p.part(x.j) > 0]
    rows = {}
    for x in nil:
        for y in nil:
            echelon_insert(rows, bracket(p, x, y))
    for e in central[1:]:
        echelon_insert(rows, e)
    first = {s: min(i for i in range(1, p.n + 1) if p.part(i) == s) for s in p.parts}
    last = {s: max(i for i in range(1, p.n + 1) if p.part(i) == s) for s in p.parts}
    cands = sorted([E(first[a], last[b], r) for a in first for b in last if a != b
                    for r in p.r_window(first[a], last[b])] +
                   [E(first[s], first[s], r) for s in first for r in range(1, s)])
    raising = [E(i, i + 1, 0) for i in range(1, p.n) if p.part(i) == p.part(i + 1)]
    mode0 = raising + [x for x in cands if echelon_insert(rows, {x: 1})]
    mode1 = [x for x in comp if x.r == 0 or x in rest]
    return [(x, 0) for x in mode0] + \
        [(x, m) for m in range(1, depth + 1) for x in (mode1 if m == 1 else rest)]


def test_generating_scan_memo_matches_recomputation():
    # The one-slot memo against a memo-free recomputation, from an empty
    # memo, in a shuffled call order and then in reverse, so partitions
    # interleave and each one's sets are dropped and found again.
    affine._scan_sets.cache_clear()
    calls = [(p, d) for p in all_partitions(6) for d in range(4)]
    random.Random(20).shuffle(calls)
    for p, d in calls + calls[::-1]:
        assert affine._generating_scan(p, d) == _generating_scan_oracle(p, d), (str(p), d)
    # Each call returns a fresh list: mutating one leaves the next intact.
    p = Partition.of(1, 1, 2)
    scan = affine._generating_scan(p, 2)
    scan.reverse()
    scan.pop()
    assert affine._generating_scan(p, 2) == _generating_scan_oracle(p, 2)


def _table_inputs(p, rng):
    """Three seeded vectors of p, each the normal form of a word of one to
    three factors at modes -1..-3."""
    basis = centralizer_basis(p)
    return [normal_order(p, [M(*rng.choice(basis), -rng.randint(1, 3))
                             for _ in range(rng.randint(1, 3))], rng.choice((-1, 1, 2)))
            for _ in range(3)]


def test_commutator_tables_match_bracket():
    # The one-slot memo, from empty, over every partition with N <= 5 in a
    # shuffled order and then in reverse, so each partition's table is
    # dropped when the next one starts and built again on its second visit:
    # products and actions equal the oracles', and every entry of the table
    # they filled is bracket's map with each mode built afresh.
    affine._commutators.cache_clear()
    parts = all_partitions(5)
    random.Random(23).shuffle(parts)
    kinds = set()
    for p in parts + parts[::-1]:
        rng = random.Random(str(p))
        u, v, w = _table_inputs(p, rng)
        assert u * v == _oracle_mul(u, v) and v * u == _oracle_mul(v, u), str(p)
        assert w.derive() == _oracle_derive(w), str(p)
        for x in centralizer_basis(p):
            for m in range(3):
                assert act_mode(x, m, u * v) == _oracle_act_mode(x, m, u * v), (str(p), x, m)
        table = affine._commutators(p)
        assert table.p == p
        for (a, y), terms in table.items():
            assert type(terms) is tuple
            assert dict(terms) == {M(z.i, z.j, z.r, a.m + y.m): c
                                   for z, c in bracket(p, a, y).items()}, (str(p), a, y)
            kinds.add(("act" if a.m >= 0 else "insert", bool(terms)))
    # One build per visit, except where the reversed order repeats the last
    # partition and reads its filled table.
    assert affine._commutators.cache_info().misses == 2 * len(parts) - 1
    # crossings and actions, with and without a commutator (a truncated one
    # where a block has size > 1)
    assert kinds == {("act", True), ("act", False), ("insert", True), ("insert", False)}


def test_repeated_products_call_no_bracket(monkeypatch):
    # Once the table holds a product's crossings, repeating the product, or
    # an action, looks every commutator up and calls bracket 0 times.
    p = Partition.of(1, 1, 2)
    affine._commutators.cache_clear()
    calls = []

    def counted(*args):
        calls.append(args)
        return bracket(*args)

    monkeypatch.setattr(affine, "bracket", counted)
    t = ss_vectors(p).entries
    a, b = t[(3, 1)], t[(2, 1)]
    x = E(3, 1, 0)
    calls.clear()
    first = (a * b, b * a, act_mode(x, 1, a), act_mode(x, 0, b), a.derive())
    assert calls
    calls.clear()
    assert (a * b, b * a, act_mode(x, 1, a), act_mode(x, 0, b), a.derive()) == first
    assert not calls


def test_center_check_falls_back_to_the_first_witness():
    # The generating scan meets E[2,3,0](0) first, but the reported witness
    # is the first in (m, basis) order.
    p = Partition.of(1, 1, 1)
    v = single(p, 3, 3, 0, -1)
    assert v.is_weight_zero()
    first = next((x, m) for x, m in affine._generating_scan(p, v.depth)
                 if act_mode(x, m, v))
    assert first == (E(2, 3, 0), 0)
    res = center_check(v)
    assert not res.ok
    x, m, img = res.witness
    assert (x, m) == (E(1, 3, 0), 0)
    assert img == single(p, 1, 3, 0, -1)
    # A vector of nonzero weight fails the weight test, before any scan,
    # and is scanned in full too.
    v = single(p, 1, 3, 0, -1)
    assert not v.is_weight_zero()
    res = center_check(v)
    assert not res.ok
    x, m, img = res.witness
    assert (x, m) == (E(1, 1, 0), 0)
    assert img == v


def test_hc_project():
    t = ss_vectors(P11)
    assert hc_project(t.entries[(2, 0)]) == \
        single(P11, 1, 1, 0, -1) * single(P11, 2, 2, 0, -1) + \
        single(P11, 2, 2, 0, -2)
    diag = single(P11, 1, 1, 0, -1)
    assert hc_project(diag) == diag
    with pytest.raises(ValueError):
        hc_project(single(P11, 2, 1, 0, -1))


def test_negative_translation_order_is_a_value_error():
    v = single(P11, 2, 1, 0, -1)
    for u in (v, VacuumVector.vacuum(P11), VacuumVector.vacuum(P11, 0)):
        with pytest.raises(ValueError, match="negative derivation order -1"):
            u.derive(-1)
    assert v.derive(0) == v


def test_weights():
    v = single(P11, 2, 1, 0, -1)
    [(word, _)] = v.terms.items()
    assert affine.weights(word) == {2: 1, 1: -1}
    assert affine.weights(word + word) == {2: 2, 1: -2}
    assert not v.is_weight_zero()
    assert (v * single(P11, 1, 2, 0, -1)).is_weight_zero()


def test_loop_realization_factorials():
    def vp(i, j, r, s=0):
        return DiffPoly.var(DiffVar(s=s, i=i, j=j, r=r))

    theta = loop_realization(vp(2, 2, 0, s=2), P11)
    assert theta == single(P11, 2, 2, 0, -3, 2)
    theta = loop_realization(vp(1, 1, 0) * vp(2, 2, 0, s=1), P11)
    assert theta == single(P11, 1, 1, 0, -1) * single(P11, 2, 2, 0, -2)
    with pytest.raises(ValueError):
        loop_realization(vp(2, 1, 0), P11)


def test_loop_realization_is_multiplicative_and_intertwines():
    def vp(i, j, r, s=0):
        return DiffPoly.var(DiffVar(s=s, i=i, j=j, r=r))

    rng = random.Random(6)
    pool = [vp(1, 1, 0), vp(2, 2, 0), vp(2, 2, 0, s=1), vp(1, 1, 0, s=2)]

    def rand_poly():
        out = DiffPoly.zero()
        for _ in range(rng.randint(1, 3)):
            term = DiffPoly.const(rng.randint(-2, 2))
            for _ in range(rng.randint(1, 2)):
                term = term * rng.choice(pool)
            out = out + term
        return out

    for _ in range(20):
        a, b = rand_poly(), rand_poly()
        ta, tb = loop_realization(a, P11), loop_realization(b, P11)
        assert loop_realization(a * b, P11) == ta * tb
        assert loop_realization(a.derive(), P11) == ta.derive()


def test_correspondence_reports():
    rep = w_correspondence(P12)
    assert rep.ok
    assert set(rep.matches) == {(1, 0), (1, 1), (2, 1)}
    assert all(rep.matches.values()) and all(rep.translation_ok.values())
    # explicit instance of the matching equation
    wt = ss_vectors(P12)
    from wcent import miura_image
    img = miura_image(w_generators(P12).entries[(2, 1)])
    assert loop_realization(img, P12) == hc_project(wt.entries[(2, 1)])


def test_ss_vectors_commute_pairwise():
    for parts in [(1, 1), (1, 2), (3,)]:
        p = Partition.of(*parts)
        vs = [v for _, v in ss_vectors(p).ordered()]
        for a, b in combinations(vs, 2):
            assert a * b == b * a


# -- the straightening on a key built from the fields, kept as the oracle ----


def _field_key(mode):
    """The PBW key (sector, -m, i, j, r), built from the public fields."""
    sector = 0 if mode.i > mode.j else 1 if mode.i == mode.j else 2
    return (sector, -mode.m, mode.i, mode.j, mode.r)


def _oracle_insert(p, seq, coeff, acc):
    """Straighten seq into acc, comparing adjacent factors by _field_key."""
    stack = [(tuple(seq), coeff)]
    while stack:
        s, c = stack.pop()
        for idx in range(len(s) - 1):
            a, b = s[idx], s[idx + 1]
            if _field_key(a) > _field_key(b):
                head, tail = s[:idx], s[idx + 2:]
                stack.append((head + (b, a) + tail, c))
                for e, cz in bracket(p, a, b).items():
                    stack.append((head + (M(e.i, e.j, e.r, a.m + b.m),) + tail, c * cz))
                break
        else:
            add_into(acc, [(s, c)])
    return acc


def _oracle_order(p, seq, coeff=1):
    return VacuumVector._raw(p, _oracle_insert(p, seq, coeff, {}))


def _oracle_mul(u, v):
    acc = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            _oracle_insert(u.partition, w1 + w2, c1 * c2, acc)
    return VacuumVector._raw(u.partition, acc)


def _oracle_derive(v):
    acc = {}
    for word, c in v.terms.items():
        for idx, mode in enumerate(word):
            lowered = M(mode.i, mode.j, mode.r, mode.m - 1)
            _oracle_insert(v.partition, word[:idx] + (lowered,) + word[idx + 1:],
                           c * -mode.m, acc)
    return VacuumVector._raw(v.partition, acc)


def _oracle_act(p, x, m, seq, coeff, acc):
    """The suffix-first recursion: x(m) acts on seq[1:], then seq[0] is
    prepended and straightened, at every level."""
    if not seq:
        return
    y, rest = seq[0], seq[1:]
    sub = {}
    _oracle_act(p, x, m, rest, coeff, sub)
    for word, c in sub.items():
        _oracle_insert(p, (y,) + word, c, acc)
    t = m + y.m
    for z, cz in bracket(p, x, y).items():
        if t >= 0:
            _oracle_act(p, z, t, rest, coeff * cz, acc)
        else:
            _oracle_insert(p, (M(z.i, z.j, z.r, t),) + rest, coeff * cz, acc)
    if m and y.m == -m:
        q = critical_form(p, x, y)
        if q:
            _oracle_insert(p, rest, coeff * m * q, acc)


def _oracle_act_mode(x, m, v):
    acc = {}
    for word, c in v.terms.items():
        _oracle_act(v.partition, x, m, word, c, acc)
    return VacuumVector._raw(v.partition, acc)


def _oracle_witness(v):
    """The first x(m) of the full (m, basis) scan with a nonzero image."""
    for m in range(v.depth + 1):
        for x in centralizer_basis(v.partition):
            img = _oracle_act_mode(x, m, v)
            if img:
                return x, m, img
    return None


def _in_order(word):
    return all(_field_key(a) <= _field_key(b) for a, b in zip(word, word[1:]))


def _commuting_inversions(p, word):
    """The kinds of inversion a > y of word that passes the index test of
    _normal_insert (a.j = y.i or a.i = y.j) but whose bracket is empty:
    "diagonal" for two diagonal modes of one block, else "truncated"."""
    kinds = set()
    for idx, a in enumerate(word):
        for y in word[idx + 1:]:
            if (_field_key(a) > _field_key(y) and (a.j == y.i or a.i == y.j)
                    and not bracket(p, a, y)):
                kinds.add("diagonal" if a.i == a.j == y.i == y.j else "truncated")
    return kinds


@pytest.mark.parametrize("parts", [(1, 1, 1), (1, 2), (1, 1, 2), (2, 2), (1, 1, 1, 1)])
def test_straightening_matches_field_key_oracle(parts):
    # Seeded words of 1..7 factors (the products verify-commute straightens
    # on 1^4 have up to 7), with repeated modes, m in -1..-3: some already in
    # order, some the concatenation of two PBW words (the shape __mul__
    # straightens).
    p = Partition.of(*parts)
    rng = random.Random(str(parts))
    basis = centralizer_basis(p)
    vectors = []
    seen = dict.fromkeys(("repeated", "ordered", "long", "concatenated",
                          "diagonal", "truncated"), 0)
    for _ in range(40):
        # the first base twice, each time at a random depth
        bases = [rng.choice(basis) for _ in range(3)]
        pool = [M(*e, -rng.randint(1, 3)) for e in bases + bases[:1]]
        word = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
        shape = rng.random()
        if shape < 0.25:
            word.sort(key=_field_key)
        elif shape < 0.6:
            cut = rng.randint(1, len(word))
            word = sorted(word[:cut], key=_field_key) + sorted(word[cut:], key=_field_key)
            seen["concatenated"] += not _in_order(word)
        seen["ordered"] += len(word) > 1 and _in_order(word)
        seen["repeated"] += len(set(word)) < len(word)
        seen["long"] += len(word) >= 5
        for kind in _commuting_inversions(p, word):
            seen[kind] += 1
        c = rng.choice((-2, -1, 1, 3))
        got = normal_order(p, word, c)
        assert got == _oracle_order(p, word, c), word
        assert all(_in_order(w) for w in got.terms)
        vectors.append((got, len(word)))
    # a commutator is truncated only where a block has size > 1
    assert all(n for kind, n in seen.items() if kind != "truncated" or max(parts) > 1), seen
    if parts == (1, 1, 1, 1):
        # every product verify-commute makes, and its non-commuting control
        # E[1,1,0](-1) E(-1)|0> with E upper
        ss = [v for _, v in ss_vectors(p).ordered()]
        a, b = single(p, 1, 1, 0, -1), VacuumVector.single(p, upper_basis(p)[0], -1)
        for u, v in [*permutations(ss, 2), (a, b), (b, a)]:
            assert u * v == _oracle_mul(u, v)
        assert a * b != b * a
    for (u, lu), (v, lv) in zip(vectors, vectors[1:]):
        assert v.derive() == _oracle_derive(v)
        if lu + lv <= 8:  # the oracle's cost grows fast with the length
            assert u * v == _oracle_mul(u, v)
    for v, _ in vectors[:8]:
        for x in basis:
            for m in range(3):
                assert act_mode(x, m, v) == _oracle_act_mode(x, m, v), (x, m)
    verdicts = set()
    for v in _differential_inputs(p, rng):  # includes E(-1)|0> for an upper E
        got, want = center_check(v), _oracle_witness(v)
        assert got.ok == (want is None), v
        if want is not None:
            (x, m, img), (wx, wm, wimg) = got.witness, want
            assert (x, m) == (wx, wm) and img == wimg, v
        verdicts.add(got.ok)
    assert verdicts == {True, False}


# -- act_mode against the suffix-first recursion it replaces ------------------


def _cross_block_central(x, m, word):
    """Whether x is a shift-0 idempotent and the word has a factor
    E[j,j,0](-m) of another block: a central term that the skip rule of
    _act must keep, as x.j != y.i and x.i != y.j there."""
    return bool(m) and x.i == x.j and not x.r and any(
        y.i == y.j != x.i and not y.r and y.m == -m for y in word)


def _chains_through_two(p, x, m, word):
    """Whether x(m) meets a factor at a nonnegative mode z(t), and z(t)
    meets a later factor at a nonnegative mode again."""
    for idx, y in enumerate(word):
        t = m + y.m
        if t >= 0 and any(bracket(p, z, w) and t + w.m >= 0
                          for z in bracket(p, x, y) for w in word[idx + 1:]):
            return True
    return False


@pytest.mark.parametrize("parts", [(1, 1, 1, 1), (1, 1, 2), (1, 2, 2)])
def test_act_mode_matches_suffix_first_oracle(parts):
    p = Partition.of(*parts)
    basis = centralizer_basis(p)
    # E[i,i,0](1) E[j,j,0](-1)|0> = min(lam_i, lam_j)|0> across blocks
    for i, j in combinations(range(1, p.n + 1), 2):
        for a, b in ((i, j), (j, i)):
            v = single(p, b, b, 0, -1)
            want = VacuumVector.vacuum(p, min(p.part(i), p.part(j)))
            assert act_mode(E(a, a, 0), 1, v) == want == _oracle_act_mode(E(a, a, 0), 1, v)
    # Seeded words of 1..5 factors at modes -1..-4, every basis x and every
    # m from 0 to depth + 1.
    rng = random.Random("act" + str(parts))
    central = chains = 0
    for _ in range(12):
        word = [M(*rng.choice(basis), -rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        v = normal_order(p, word, rng.choice((-2, -1, 1, 3)))
        for x in basis:
            for m in range(v.depth + 2):
                assert act_mode(x, m, v) == _oracle_act_mode(x, m, v), (x, m, v)
                central += any(_cross_block_central(x, m, w) for w in v.terms)
                chains += any(_chains_through_two(p, x, m, w) for w in v.terms)
    assert central and chains, (central, chains)


def test_mul_into_matches_field_key_oracle():
    # mul_into adds q * u * v, straightened, into a pre-filled word map.  The
    # reference is the field-key straightening of the product; every other
    # word of it is pre-filled at -q times its coefficient, so those keys
    # cancel and must be deleted.
    rng = random.Random(26)
    seen = dict.fromkeys(("cancelled", "vacuum", "kept"), 0)
    for p in (P12, Partition.of(1, 1, 1), Partition.of(2, 2)):
        basis = centralizer_basis(p)

        def vector():
            vs = [normal_order(p, [M(*rng.choice(basis), -rng.randint(1, 2))
                                   for _ in range(rng.randint(0, 2))],
                               rng.choice([-2, 1, Fraction(1, 2)]))
                  for _ in range(rng.randint(1, 3))]
            return sum(vs[1:], vs[0])

        for _ in range(12):
            u, v, w = vector(), vector(), vector()
            prod = _oracle_mul(u, v).terms
            cancel = dict(list(prod.items())[::2])
            seen["vacuum"] += () in u.terms or () in v.terms
            for q in (0, -1, 2, Fraction(-2, 3)):
                acc = add_into(dict(w.terms), ((x, -q * c) for x, c in cancel.items()))
                before = dict(acc)
                want = add_into(dict(before), ((x, q * c) for x, c in prod.items()))
                assert u.mul_into(acc, v, q) is acc
                assert acc == want and all(acc.values())
                gone = set(cancel) - set(w.terms)
                if q:
                    assert not gone & set(acc)
                    seen["cancelled"] += bool(gone)
                    seen["kept"] += bool(set(w.terms) & set(acc))
                else:
                    assert acc == before
    assert all(n >= 5 for n in seen.values()), seen
    # operands of two partitions raise before acc is touched, even at q = 0
    acc = {(): 1}
    for q in (1, 0):
        with pytest.raises(ValueError, match="different partitions"):
            single(P11, 1, 1, 0, -1).mul_into(acc, single(P12, 1, 1, 0, -1), q)
        assert acc == {(): 1}
