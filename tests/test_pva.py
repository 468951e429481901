import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wcent import (BasisElt, DiffPoly, DiffVar, MembershipMode, Partition,
                   UPoly, all_partitions, bracket, centralizer_basis,
                   generator_bracket, jacobi_defect, lambda_bracket,
                   lambda_bracket_gen, loop_realization, miura_image,
                   parabolic_project, pva_axiom_suite, trace_form, upper_basis,
                   w_bracket, w_generators, w_membership)
from wcent import pva
from wcent.centralizer import add_into
from wcent.pva import (LCoeffs, _bracket_gen, _partials, membership_test_set,
                       neg_lambda_substitute, project_lambda, random_diffpoly)
from wcent.serialize import diffpoly_to_json


def V(i, j, r, s=0):
    return DiffVar(s=s, i=i, j=j, r=r)


def vp(i, j, r, s=0):
    return DiffPoly.var(V(i, j, r, s))


# -- reference master formula ----------------------------------------------
# Oracle for the bracket routines: the master formula evaluated pairwise over
# the variables of both arguments, reading bracket/trace_form for each pair,
# independently of lambda_bracket_gen.


def _shift_once(coeffs: LCoeffs) -> LCoeffs:
    """(lam + d) applied to sum_k C_k lam^k, with d acting on coefficients."""
    return add_into({}, (term for k, poly in coeffs.items()
                         for term in ((k + 1, poly), (k, poly.derive()))))


def _master_formula_oracle(p: Partition, a: DiffPoly, b: DiffPoly) -> UPoly:
    """Bilinear lambda-bracket via the master formula.

    {a_lam b} = sum (db/dv[n]) (lam+d)^n {u _{lam+d} v}-> (-lam-d)^m (da/du[m]),
    where each shift operator acts on everything to its right.
    """
    pa = a.partials()
    pb = b.partials()
    acc: LCoeffs = {}
    for u, fa in pa.items():
        left: LCoeffs = {0: fa}
        for _ in range(u.s):
            left = _shift_once(left)
        if u.s % 2:
            left = {k: q.scale(-1) for k, q in left.items()}
        for v, gb in pb.items():
            br = bracket(p, u.base, v.base)
            f = trace_form(p, u.base, v.base)
            if not br and not f:
                continue
            mid: LCoeffs = {}
            if br:
                c0 = DiffPoly.from_lie(br)
                add_into(mid, ((k, c0 * q) for k, q in left.items()))
            if f:
                add_into(mid, ((k, q.scale(f)) for k, q in _shift_once(left).items()))
            for _ in range(v.s):
                mid = _shift_once(mid)
            add_into(acc, ((k, gb * q) for k, q in mid.items()))
    out = UPoly()
    out.terms = acc
    return out


def var(e: BasisElt) -> DiffPoly:
    return DiffPoly.var(DiffVar.of(e))


SMALL_PARTITIONS = all_partitions(5)


@given(st.sampled_from(SMALL_PARTITIONS), st.integers(0, 2**32 - 1))
def test_bracket_routines_match_master_formula_oracle(p, seed):
    rng = random.Random(seed)
    a = random_diffpoly(p, rng, max_terms=3, max_s=3)
    b = random_diffpoly(p, rng, max_terms=3, max_s=3)
    x, y = rng.choice(centralizer_basis(p)), rng.choice(centralizer_basis(p))
    assert lambda_bracket(p, a, b) == _master_formula_oracle(p, a, b)
    assert lambda_bracket_gen(p, x, b) == _master_formula_oracle(p, var(x), b)
    assert generator_bracket(p, x, y) == _master_formula_oracle(p, var(x), var(y))


@pytest.mark.parametrize("p", [p for p in SMALL_PARTITIONS if p.n >= 2], ids=str)
def test_membership_witness_matches_master_formula_oracle(p):
    poly = var(BasisElt(1, 1, 0))
    res = w_membership(p, poly)
    assert not res.ok
    assert res.witness_bracket == \
        project_lambda(p, _master_formula_oracle(p, var(res.witness_x), poly))


def _membership_oracle(p, poly):
    """First x of the upper basis whose projected oracle bracket is nonzero."""
    for x in upper_basis(p):
        img = project_lambda(p, _master_formula_oracle(p, var(x), poly))
        if img:
            return x, img
    return None


def _parabolic_sample(p: Partition, rng: random.Random) -> DiffPoly:
    """A parabolic input: a projected random polynomial (mostly a non-member),
    a generator or a product of two generators plus a derivative of a third
    (members), or an out-of-window coefficient (a non-member)."""
    t = w_generators(p)
    gens = [q for _, q in t.ordered()]
    pick = rng.random()
    if pick < 0.15:
        return rng.choice(gens)
    if pick < 0.3:
        a, b, c = (rng.choice(gens) for _ in range(3))
        return a * b.scale(rng.choice([1, -2])) + c.derive()
    if pick < 0.4 and t.out_of_window:
        return rng.choice([q for _, q in sorted(t.out_of_window.items())])
    return parabolic_project(p, random_diffpoly(p, rng, max_terms=3, max_s=3))


def _assert_membership_matches_oracle(p, poly):
    """w_membership's verdict and witness are the full-basis oracle's; returns
    the oracle's (x, bracket), or None for a member."""
    res = w_membership(p, poly)
    witness = _membership_oracle(p, poly)
    assert res.ok == (witness is None)
    if witness is not None:
        assert (res.witness_x, res.witness_bracket) == witness
    return witness


@given(st.sampled_from(SMALL_PARTITIONS), st.integers(0, 2**32 - 1))
@example(Partition.of(1, 1, 1, 1, 1), 5)  # the first witness is not superdiagonal
@example(Partition.of(1, 2, 2), 5)  # a superdiagonal witness past the first block
def test_projected_kernel_matches_projected_oracle(p, seed):
    # The kernel projects only inside the membership test, on a parabolic
    # input.  The superdiagonal decides, and the witness is still the first
    # of the full upper basis (the soundness argument in w_membership's
    # docstring).
    rng = random.Random(seed)
    poly = _parabolic_sample(p, rng)
    partials = _partials(poly)
    for x in upper_basis(p):
        assert _bracket_gen(p, x, partials, True) == \
            project_lambda(p, _master_formula_oracle(p, var(x), poly))
    _assert_membership_matches_oracle(p, poly)


def test_membership_samples_reach_every_case():
    # Fixed seeds, so that each case is met on every run: members, failures
    # whose first full-order witness is superdiagonal, failures whose witness
    # is not (the rescan names it), and failures that the superdiagonal of
    # the first block alone would miss.
    kinds = {"member": 0, "superdiagonal": 0, "other": 0, "past block 1": 0}
    for seed in range(10):
        for p in SMALL_PARTITIONS:
            poly = _parabolic_sample(p, random.Random(seed))
            witness = _assert_membership_matches_oracle(p, poly)
            if witness is None:
                kinds["member"] += 1
                continue
            test_set = membership_test_set(p)
            kinds["superdiagonal" if witness[0] in test_set else "other"] += 1
            partials = _partials(poly)
            if not any(_bracket_gen(p, x, partials, True) for x in test_set if x.i == 1):
                kinds["past block 1"] += 1
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("parts", [(1, 2), (1, 1, 2), (2, 3), (1, 1, 1, 2)], ids=str)
def test_member_costs_one_kernel_call_per_superdiagonal_element(parts, monkeypatch):
    p = Partition.of(*parts)
    calls = []

    def counting(p, x, partials, project=False):
        calls.append(x)
        return _bracket_gen(p, x, partials, project)

    monkeypatch.setattr(pva, "_bracket_gen", counting)
    for _, poly in w_generators(p).ordered():
        calls.clear()
        assert w_membership(p, poly).ok
        assert calls == membership_test_set(p)


def test_membership_never_passes_after_a_failed_superdiagonal_bracket(monkeypatch):
    # The first superdiagonal bracket is made nonzero, and no upper basis
    # bracket is: an ArithmeticError naming the partition, not StopIteration.
    p = Partition.of(1, 2)
    poly = w_generators(p).entries[(2, 1)]
    assert w_membership(p, poly).ok
    real, calls = pva._bracket_gen, []

    def first_call_nonzero(p, x, partials, project=False):
        calls.append(x)
        return UPoly({0: DiffPoly.const(1)}) if len(calls) == 1 else \
            real(p, x, partials, project)

    monkeypatch.setattr(pva, "_bracket_gen", first_call_nonzero)
    with pytest.raises(ArithmeticError, match="^partition 1,2: a superdiagonal bracket"):
        w_membership(p, poly)


# Largest len(a) * len(b) of a pair that one example brackets.  The bracket
# grows with both sizes: on 1,1,1,1 a pair of 434 and 338 terms brackets,
# correctly, to 535,960 terms, some 20 s per bracket.
BRACKET_PAIR_CAP = 2000


@given(st.sampled_from(SMALL_PARTITIONS), st.integers(0, 2**32 - 1))
def test_w_bracket_is_the_plain_bracket_on_the_parabolic_sector(p, seed):
    rng = random.Random(seed)
    a, b = _parabolic_sample(p, rng), _parabolic_sample(p, rng)
    while len(a) * len(b) > BRACKET_PAIR_CAP:
        a, b = _parabolic_sample(p, rng), _parabolic_sample(p, rng)
    plain = lambda_bracket(p, a, b)
    assert w_bracket(p, a, b, check=False) == project_lambda(p, plain) == plain
    assert all(v.i >= v.j for _, c in plain.items() for v in c.variables())
    upper = [e for e in centralizer_basis(p) if e.i < e.j]
    if upper:
        up = var(rng.choice(upper)).scale(rng.choice([1, -2]))
        for check in (True, False):
            for args in ((a + up, b), (a, b + up * up)):
                with pytest.raises(ValueError, match="parabolic sector"):
                    w_bracket(p, *args, check=check)


def test_generator_bracket_oracles():
    p = Partition.of(1, 2)
    # truncation: only the second-column component survives
    assert generator_bracket(p, BasisElt(1, 2, 1), BasisElt(2, 1, 0)) == \
        UPoly({0: vp(2, 2, 1).scale(-1)})
    # central term: equal parts pair up through the trace form
    q = Partition.of(1, 1)
    assert generator_bracket(q, BasisElt(1, 2, 0), BasisElt(2, 1, 0)) == \
        UPoly({0: vp(1, 1, 0) - vp(2, 2, 0), 1: DiffPoly.const(1)})
    assert generator_bracket(q, BasisElt(1, 1, 0), BasisElt(1, 1, 0)) == \
        UPoly({1: DiffPoly.const(1)})


def test_lambda_bracket_gen_expands_derivatives():
    # {x_l v'} = (l + d){x_l v}
    p = Partition.of(1, 1)
    x = BasisElt(1, 2, 0)
    target = vp(2, 1, 0, s=1)
    got = lambda_bracket_gen(p, x, target)
    assert got == generator_bracket(p, x, BasisElt(2, 1, 0)).shift()
    assert got.coeff(2) == 1  # l^2 from shifting the central term


def test_master_formula_matches_generator_expansion():
    p = Partition.of(1, 2)
    rng = random.Random(7)
    for _ in range(25):
        b = random_diffpoly(p, rng)
        for x in upper_basis(p):
            assert lambda_bracket(p, DiffPoly.var(V(*x, s=0)), b) == \
                lambda_bracket_gen(p, x, b)


def test_skewsymmetry_on_generators():
    p = Partition.of(2, 2)
    for x in [BasisElt(1, 2, 0), BasisElt(2, 2, 1)]:
        for y in [BasisElt(2, 1, 1), BasisElt(1, 1, 0)]:
            lhs = generator_bracket(p, x, y)
            rhs = neg_lambda_substitute(generator_bracket(p, y, x)).scale(-1)
            assert lhs == rhs


def test_jacobi_defect_vanishes_on_samples():
    p = Partition.of(1, 2)
    rng = random.Random(3)
    for _ in range(10):
        a, b, c = (random_diffpoly(p, rng) for _ in range(3))
        assert jacobi_defect(p, a, b, c) == {}


def test_lambda_poly_shift_and_text():
    lp = UPoly({0: vp(1, 1, 0), 1: DiffPoly.const(2)})
    shifted = lp.shift()
    assert shifted.coeff(2) == 2
    assert shifted.coeff(1) == vp(1, 1, 0)
    assert shifted.coeff(0) == vp(1, 1, 0, s=1)
    assert "L" in lp.text("L")
    assert UPoly({}) == UPoly({0: DiffPoly.zero()})


def test_projection_default():
    p = Partition.of(1, 2)
    poly = vp(1, 2, 1) * vp(2, 2, 0) + vp(2, 1, 0) + vp(1, 2, 1, s=1)
    img = parabolic_project(p, poly)
    # superdiagonal top coefficient 1, derivatives of upper variables drop
    assert img == vp(2, 2, 0) + vp(2, 1, 0)
    assert all(v.i >= v.j for v in img.variables())


@pytest.mark.parametrize("p", all_partitions(6), ids=str)
def test_superdiagonal_generates_upper_sector(p):
    # The premise of w_membership's test set: iterated brackets of the
    # superdiagonal reach every upper basis element.  A bracket of two upper
    # basis elements is one basis element up to sign, so closing the set of
    # elements under bracket spans the generated subalgebra.
    found = set(membership_test_set(p))
    grown = True
    while grown:
        new = {e for x in found for y in found for e in bracket(p, x, y)} - found
        found |= new
        grown = bool(new)
    assert found == set(upper_basis(p))


def test_membership_of_generator_table():
    p = Partition.of(1, 2)
    t = w_generators(p)
    for _, poly in t.ordered():
        assert w_membership(p, poly).ok
        # the one mode is still accepted as a positional argument, and not read
        assert w_membership(p, poly, MembershipMode.FULL_BASIS).ok
    assert [m.value for m in MembershipMode] == ["full"]


def test_membership_negative_control_witness():
    p = Partition.of(1, 2)
    bad = w_generators(p).out_of_window[(2, 0)]
    assert bad == vp(1, 1, 0) * vp(2, 2, 0) + vp(2, 2, 0, s=1)
    res = w_membership(p, bad)
    assert not res.ok
    assert res.witness_x == BasisElt(1, 2, 1)
    assert res.witness_bracket == \
        UPoly({0: vp(1, 1, 0) - vp(2, 2, 0), 1: DiffPoly.const(1)})
    # the superdiagonal sees the violation: here it is the whole upper basis
    assert membership_test_set(p) == upper_basis(p) == [res.witness_x]


def test_membership_rejects_upper_input():
    p = Partition.of(1, 2)
    with pytest.raises(ValueError):
        w_membership(p, vp(1, 2, 1))


def test_sector_guards_read_the_variables():
    # An upper variable added and cancelled again leaves no trace: the guards
    # of w_membership, miura_image and loop_realization see equal inputs alike.
    p = Partition.of(1, 2)
    lo, up = vp(2, 1, 0), vp(1, 2, 1)
    assert lo + up - up == lo
    assert w_membership(p, lo + up - up).ok == w_membership(p, lo).ok
    assert miura_image(up - up) == 0
    d, x = vp(1, 1, 0), vp(2, 1, 0)
    assert loop_realization(d + x - x, p) == loop_realization(d, p)


def test_membership_under_general_projection():
    # pi sends the superdiagonal to 1, so of E11 E22 - c E21 + dE22 only the
    # c = 1 polynomial is a member
    p = Partition.of(1, 1)
    for c in [1, 2, -3]:
        poly = vp(1, 1, 0) * vp(2, 2, 0) - vp(2, 1, 0).scale(c) + vp(2, 2, 0, s=1)
        assert w_membership(p, poly).ok == (c == 1)


def test_w_bracket_oracles_and_closure():
    p = Partition.of(1, 2)
    t = w_generators(p)
    w10, w11, w21 = t.entries[(1, 0)], t.entries[(1, 1)], t.entries[(2, 1)]
    assert w_bracket(p, w10, w10) == UPoly({1: DiffPoly.const(p.N)})
    assert w_bracket(p, w11, w21) == UPoly({})
    assert w_bracket(p, w10, w21) == UPoly({1: vp(2, 2, 1)})
    for a in (w10, w11, w21):
        for b in (w10, w11, w21):
            for _, coeff in w_bracket(p, a, b).items():
                assert w_membership(p, coeff).ok


def test_w_bracket_rejects_non_members():
    p = Partition.of(1, 2)
    bad = w_generators(p).out_of_window[(2, 0)]
    with pytest.raises(ValueError):
        w_bracket(p, bad, bad, check=True)


def test_w_bracket_checks_membership_under_python_O():
    code = "\n".join([
        "from wcent import Partition, w_bracket, w_generators",
        "if __debug__:",
        "    raise SystemExit('not running under -O')",
        "p = Partition.of(1, 2)",
        "bad = w_generators(p).out_of_window[(2, 0)]",
        "w_bracket(p, bad, bad)",
    ])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("ValueError: first argument fails")


def test_random_diffpoly_respects_bounds():
    p = Partition.of(1, 1, 2)
    rng = random.Random(0)
    for _ in range(50):
        poly = random_diffpoly(p, rng)
        assert len(poly.variables()) <= 3
        for mono, _ in poly.items():
            assert sum(e for _, e in mono) <= 3


# sha256 of the JSON list of random_diffpoly(p, random.Random(s)), s = 0..4:
# the samples of pva-axioms, whose report holds only counts, so a change to
# the order or number of rng calls shows here and nowhere else
RANDOM_DIFFPOLY_DIGESTS = {
    (1, 2): "e9bd03a1c364c074dca5df52ad91580181625d5978d1b8d28a5b7f95990bfe6f",
    (2, 2): "d5ec164e8b2a3aea6927450fe011f4db4f4df917cf438584b29daef602a602f4",
}


@pytest.mark.parametrize("parts", sorted(RANDOM_DIFFPOLY_DIGESTS))
def test_random_diffpoly_stream_is_pinned(parts):
    p = Partition.of(*parts)
    blob = json.dumps([diffpoly_to_json(random_diffpoly(p, random.Random(s)))
                       for s in range(5)])
    assert hashlib.sha256(blob.encode()).hexdigest() == RANDOM_DIFFPOLY_DIGESTS[parts]


@pytest.mark.parametrize("parts", [(1, 2), (2, 2)])
def test_axiom_suite_smoke(parts):
    rep = pva_axiom_suite(Partition.of(*parts), seed=1, samples=10)
    assert rep.ok
    assert set(rep.checked) == {"sesquilinearity-left", "sesquilinearity-right",
                                "skewsymmetry", "leibniz", "jacobi"}
    assert all(n >= 10 for n in rep.checked.values())


@pytest.mark.parametrize("samples", [0, -3])
def test_axiom_suite_fails_when_nothing_is_checked(samples):
    rep = pva_axiom_suite(Partition.of(1, 1), samples=samples)
    assert rep.checked == {} and rep.failures == {}
    assert not rep.ok


def test_axiom_suite_is_seed_deterministic():
    p = Partition.of(1, 2)
    a = pva_axiom_suite(p, seed=5, samples=5)
    b = pva_axiom_suite(p, seed=5, samples=5)
    assert a.checked == b.checked and a.failures == b.failures
