"""Acceptance criteria for the package, one test per criterion.

Every check is exact (integer/rational arithmetic, zero tolerance).  The
criteria that quantify over partitions run at desk scale: exhaustive sweeps
over all partitions up to the stated size.  Wall-clock bounds are asserted
where a criterion sets one.
"""

import json
import time
from itertools import combinations, product

from oracles import form_on_elements
from wcent import (BasisElt, DiffPoly, DiffVar, MembershipMode,
                   Partition, UPoly, all_partitions,
                   bracket, centralizer_basis, critical_form,
                   jacobian_independence, lambda_bracket, lie_bracket,
                   miura_generators, miura_image, pva_axiom_suite, ss_vectors,
                   trace_form, w_correspondence, w_generators, w_membership)
from wcent.affine import center_check
from wcent.cdet import tail_sum
from wcent.centralizer import add_into
from wcent.cli import RunConfig, dispatch, render
from wcent.pva import random_diffpoly
from wcent.serialize import (diffpoly_from_json, diffpoly_to_json,
                             generator_table_from_json, generator_table_to_json,
                             lambdapoly_from_json, lambdapoly_to_json,
                             sugawara_table_from_json, sugawara_table_to_json,
                             vacuum_from_json, vacuum_to_json)

CENTER_PARTITIONS = all_partitions(5)


def V(i, j, r, s=0):
    return DiffVar(s=s, i=i, j=j, r=r)


def vp(i, j, r, s=0):
    return DiffPoly.var(V(i, j, r, s))


def closed_form_two_rows(p, k, r):
    l1, l2 = p.part(1), p.part(2)

    def e(i, j, rr, s=0):
        li, lj = (l1, l2)[i - 1], (l1, l2)[j - 1]
        return vp(i, j, rr, s) if lj - min(li, lj) <= rr < lj else DiffPoly.zero()

    if k == 1:
        return e(1, 1, r) + e(2, 2, r)
    total = DiffPoly.zero()
    for a in range(r + 1):
        total = total + e(1, 1, a) * e(2, 2, r - a)
    return total - e(2, 1, r - l2 + 1) + e(2, 2, r, s=1).scale(l1)


def test_c01_two_row_generators_match_closed_forms():
    start = time.perf_counter()
    for parts in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        p = Partition.of(*parts)
        t = w_generators(p)
        assert len(t) == p.N
        for (k, r), poly in t.ordered():
            assert poly == closed_form_two_rows(p, k, r), (parts, k, r)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    print("PASS criterion 1: closed-form generator tables for the four "
          "two-row types (%.3fs)" % elapsed)


def test_c02_membership_sweep_to_six_boxes():
    start = time.perf_counter()
    partitions = all_partitions(6)
    assert len(partitions) == 29
    checked = 0
    for p in partitions:
        t = w_generators(p)
        for (k, r), poly in t.ordered():
            res = w_membership(p, poly, MembershipMode.FULL_BASIS)
            assert res.ok, (str(p), k, r, res.witness_x)
            checked += 1
    assert checked == sum(p.N for p in partitions)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, elapsed
    print("PASS criterion 2: %d generators across %d partitions pass "
          "full-basis membership (%.2fs)" % (checked, len(partitions), elapsed))


def test_c03_generator_census_matches_window():
    for p in all_partitions(6):
        t = w_generators(p)
        expected = {(k, r) for k in range(1, p.n + 1)
                    for r in range(tail_sum(p, k) - k + 1)
                    if tail_sum(p, k - 1) < r + k <= tail_sum(p, k)}
        assert set(t.entries) == expected, str(p)
        assert len(t) == p.N, str(p)
    print("PASS criterion 3: generator index sets equal the admissible "
          "window with cardinality N for all partitions up to 6 boxes")


def test_c04_negative_control_with_exact_witness():
    p = Partition.of(1, 2)
    bad = w_generators(p).out_of_window[(2, 0)]
    res = w_membership(p, bad, MembershipMode.FULL_BASIS)
    assert not res.ok
    assert res.witness_x == BasisElt(1, 2, 1)
    assert res.witness_bracket == \
        UPoly({0: vp(1, 1, 0) - vp(2, 2, 0), 1: DiffPoly.const(1)})
    print("PASS criterion 4: out-of-window coefficient fails membership with "
          "the expected witness")


def test_c05_bracket_axioms_on_seeded_samples():
    import random
    for parts in [(1, 2), (2, 2), (1, 1, 2)]:
        p = Partition.of(*parts)
        rep = pva_axiom_suite(p, seed=0, samples=100)
        assert rep.ok, (parts, rep.failures)
        assert set(rep.checked) == {"sesquilinearity-left",
                                    "sesquilinearity-right", "skewsymmetry",
                                    "leibniz", "jacobi"}
        assert all(n >= 100 for n in rep.checked.values()), rep.checked
        rng = random.Random(0)
        for _ in range(25):
            sample = random_diffpoly(p, rng)
            assert len(sample.variables()) <= 3
            assert all(sum(e for _, e in m) <= 3 for m, _ in sample.items())
    print("PASS criterion 5: sesquilinearity, skewsymmetry, Leibniz, Jacobi "
          "hold on 100 seeded samples for three partition types")


def test_c06_lie_structure_exhaustive_to_five_boxes():
    pairs = triples = 0
    for p in all_partitions(5):
        basis = centralizer_basis(p)
        for x, y in product(basis, repeat=2):
            assert bracket(p, x, y) == {e: -c for e, c in bracket(p, y, x).items()}
            for form in (trace_form, critical_form):
                assert form(p, x, y) == form(p, y, x)
            pairs += 1
        for x, y, z in product(basis, repeat=3):
            lhs = lie_bracket(p, {x: 1}, bracket(p, y, z))
            rhs = add_into(lie_bracket(p, bracket(p, x, y), {z: 1}),
                           lie_bracket(p, {y: 1}, bracket(p, x, z)).items())
            assert lhs == rhs
            for form in (trace_form, critical_form):
                inv = form_on_elements(p, form, bracket(p, x, y), {z: 1}) + \
                    form_on_elements(p, form, {y: 1}, bracket(p, x, z))
                assert inv == 0
            triples += 1
    print("PASS criterion 6: antisymmetry, Jacobi, and the symmetry and "
          "invariance of both forms on %d pairs / %d triples" % (pairs, triples))


def test_c07_miura_consistency_and_independence():
    for p in all_partitions(6):
        wt, mt = w_generators(p), miura_generators(p)
        assert set(wt.entries) == set(mt.entries), str(p)
        for key, poly in wt.entries.items():
            assert miura_image(poly) == mt.entries[key], (str(p), key)
        cert = jacobian_independence(p, seed=0)
        assert cert.nonzero, str(p)
        if p.N <= 4:
            assert cert.symbolic_det is not None and cert.symbolic_nonzero, str(p)
    print("PASS criterion 7: Miura images equal the diagonal-product table "
          "and the Jacobian certificate is nonzero up to 6 boxes "
          "(symbolically up to 4)")


def test_c08_critical_centrality():
    start = time.perf_counter()
    total = 0
    for p in CENTER_PARTITIONS:
        t = ss_vectors(p)
        assert len(t) == p.N, str(p)
        for (k, r), v in t.ordered():
            res = center_check(v)
            assert res.ok, (str(p), k, r, res.witness)
            total += 1
    # the sweep must exercise every clause of the critical-level form
    clauses = set()
    for p in CENTER_PARTITIONS:
        basis = centralizer_basis(p)
        for x, y in product(basis, repeat=2):
            q = critical_form(p, x, y)
            if x.i == x.j == y.i:
                clauses.add("diagonal")
            elif x.i != x.j and q:
                clauses.add("opposite-equal-parts")
            elif x.i != x.j and x.j == y.i and x.i == y.j and not q:
                clauses.add("opposite-unequal-parts")
    assert clauses == {"diagonal", "opposite-equal-parts",
                       "opposite-unequal-parts"}
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, elapsed
    print("PASS criterion 8: all %d Segal-Sugawara vectors are annihilated "
          "by every nonnegative mode (%.2fs)" % (total, elapsed))


def test_c09_projection_realizes_miura_images():
    for p in CENTER_PARTITIONS:
        rep = w_correspondence(p)
        assert rep.ok, (str(p), rep.matches, rep.translation_ok)
        assert set(rep.matches) == set(w_generators(p).entries)
    print("PASS criterion 9: Harish-Chandra projections equal realized Miura "
          "images and the realization intertwines the derivations")


def test_c10_vectors_commute_pairwise():
    for p in all_partitions(3):
        vs = [v for _, v in ss_vectors(p).ordered()]
        for a, b in combinations(vs, 2):
            assert a * b == b * a, str(p)
    print("PASS criterion 10: Segal-Sugawara vectors commute pairwise "
          "up to 3 boxes")


def test_c11_serialization_round_trips_and_determinism():
    # round-trip every object class produced by the earlier criteria
    for p in CENTER_PARTITIONS:
        wt = w_generators(p)
        assert generator_table_from_json(
            json.loads(json.dumps(generator_table_to_json(wt)))).entries \
            == wt.entries
        for poly in wt.entries.values():
            assert diffpoly_from_json(diffpoly_to_json(poly)) == poly
            img = miura_image(poly)
            assert diffpoly_from_json(diffpoly_to_json(img)) == img
        st = ss_vectors(p)
        assert sugawara_table_from_json(
            json.loads(json.dumps(sugawara_table_to_json(st)))).entries \
            == st.entries
        for v in st.entries.values():
            assert vacuum_from_json(json.loads(json.dumps(vacuum_to_json(v)))) == v
    p = Partition.of(1, 2)
    polys = list(w_generators(p).entries.values())
    for a in polys:
        for b in polys:
            lp = lambda_bracket(p, a, b)
            assert lambdapoly_from_json(lambdapoly_to_json(lp)) == lp

    # identical configurations render byte-identical JSON reports, and one
    # report renders the same twice in each of its formats
    for cfg in [RunConfig("verify-center", [Partition.of(1, 2)], fmt="json"),
                RunConfig("pva-axioms", [Partition.of(1, 2)], seed=3,
                          fmt="json", samples=20),
                RunConfig("jacobian", [Partition.of(2, 2)], seed=1, fmt="json"),
                RunConfig("generators", list(all_partitions(4)), fmt="json"),
                RunConfig("sweep", [Partition.of(1, 2)], fmt="json")]:
        rep = dispatch(cfg)
        one = render(rep, "json", 0.0)
        assert one == render(dispatch(cfg), "json", 0.0) and one
        for fmt in ["json", "text"] + ["latex"] * (rep.latex is not None):
            assert render(rep, fmt, 0.0) == render(rep, fmt, 0.0), (cfg.command, fmt)
    print("PASS criterion 11: JSON round-trips hold on all emitted objects "
          "and seeded reports are byte-identical")
