import random
from itertools import combinations

import pytest

from wcent import (BasisElt, DiffPoly, DiffVar, LoopMode, Partition,
                   VacuumVector, act_mode, all_partitions, center_check,
                   centralizer_basis, hc_project, loop_realization,
                   normal_order, ss_matrix, ss_vectors, upper_basis,
                   w_correspondence, w_generators)
from wcent import affine
from wcent.affine import pbw_key, pbw_sector


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
    assert sorted(modes, key=pbw_key) == [
        M(2, 1, 0, -5), M(1, 1, 0, -1), M(2, 2, 0, -1), M(1, 1, 0, -2),
        M(1, 2, 0, -1)]
    assert [pbw_sector(m) for m in (M(2, 1, 0, -1), M(1, 1, 0, -1), M(1, 2, 0, -1))] \
        == [0, 1, 2]


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
    with pytest.raises(ValueError):
        VacuumVector(P11, [(((M(1, 2, 0, -1), 1), (M(2, 1, 0, -1), 1)), 1)])
    with pytest.raises(ValueError):
        VacuumVector(P12, [(((M(1, 2, 0, -1), 1),), 1)])  # invalid window
    v = VacuumVector(P11, [(((M(2, 1, 0, -1), 2),), 3)])
    assert v.terms == {((M(2, 1, 0, -1), 2),): 3}


def test_product_groups_exponents():
    a = single(P11, 1, 1, 0, -1)
    assert (a * a).terms == {((M(1, 1, 0, -1), 2),): 1}
    assert (a * a).depth == 2
    vac = VacuumVector.vacuum(P11)
    assert vac * a == a and a * vac == a
    assert (a - a) == 0 and not (a - a)


@pytest.mark.parametrize("op", [
    lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
    lambda a, b: VacuumVector.sum([a, b])], ids=["add", "sub", "mul", "sum"])
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
    rows = ss_matrix(P12)
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
        yield VacuumVector.sum([normal_order(p, [M(i, j, 0, -2), M(j, i, 0, -2)])
                                for i in range(1, p.n + 1) for j in range(1, p.n + 1)])


def test_center_check_matches_full_scan():
    # The generating-set scan against the full scan it replaces, kept as
    # the oracle: same verdict, same witness mode and image.
    rng = random.Random(10)
    seen = set()
    for p in all_partitions(4):
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


def test_center_check_falls_back_to_the_first_witness():
    # The generating scan meets E[2,1,0](0) first, but the reported witness
    # is the first in (m, basis) order.
    p = Partition.of(1, 1, 1)
    v = single(p, 1, 3, 0, -1)
    first = next((x, m) for x, m in affine._generating_scan(p, v.depth)
                 if act_mode(x, m, v))
    assert first == (E(2, 1, 0), 0)
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


def test_weights():
    v = single(P11, 2, 1, 0, -1)
    [(mono, _)] = v.terms.items()
    assert v.weights(mono) == {2: 1, 1: -1}
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
