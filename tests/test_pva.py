import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wcent import (BasisElt, DiffPoly, DiffVar, MembershipMode, Partition,
                   ProjectionConfig, UPoly, all_partitions, bracket,
                   centralizer_basis, generator_bracket, jacobi_defect,
                   lambda_bracket, lambda_bracket_gen, loop_realization,
                   miura_image, parabolic_project, pva_axiom_suite, trace_form,
                   w_bracket, w_generators, w_membership)
from wcent.centralizer import add_into
from wcent.pva import (LCoeffs, membership_test_set, neg_lambda_substitute,
                       project_lambda, random_diffpoly)


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


def random_config(p: Partition, rng: random.Random) -> ProjectionConfig:
    """A projection with random constants on every superdiagonal shift."""
    coeffs = {}
    for i in range(1, p.n):
        window = p.r_window(i, i + 1)
        for r in window:
            choices = [-2, 1, Fraction(3, 2)] if r == window[-1] else [-1, 0, 2]
            coeffs[(i, r)] = rng.choice(choices)
    return ProjectionConfig(p, coeffs)


def _membership_oracle(p, poly, mode, cfg):
    """First x of the test set whose projected oracle bracket is nonzero."""
    for x in membership_test_set(p, mode):
        img = project_lambda(p, _master_formula_oracle(p, var(x), poly), cfg)
        if img:
            return x, img
    return None


@given(st.sampled_from(SMALL_PARTITIONS), st.integers(0, 2**32 - 1))
def test_projected_kernel_matches_projected_oracle(p, seed):
    # Inputs may hold upper variables (kernel and master formula) and fail
    # membership; the default and a random projection are both checked.
    rng = random.Random(seed)
    cfg = rng.choice([ProjectionConfig.default(p), random_config(p, rng)])
    a = random_diffpoly(p, rng, max_terms=3, max_s=3)
    b = random_diffpoly(p, rng, max_terms=3, max_s=3)
    x = rng.choice(centralizer_basis(p))
    projected = lambda_bracket_gen(p, x, b, cfg)
    assert projected == project_lambda(p, lambda_bracket_gen(p, x, b), cfg)
    assert projected == project_lambda(p, _master_formula_oracle(p, var(x), b), cfg)
    assert w_bracket(p, a, b, cfg, check=False) == \
        project_lambda(p, lambda_bracket(p, a, b), cfg)
    # membership needs a parabolic input: project the upper variables away,
    # or take a generator, so that members are scanned too
    poly = parabolic_project(p, a, cfg)
    if rng.random() < 0.3:
        poly = rng.choice([q for _, q in w_generators(p).ordered()])
    mode = rng.choice(list(MembershipMode))
    res = w_membership(p, poly, mode, cfg)
    witness = _membership_oracle(p, poly, mode, cfg)
    assert res.ok == (witness is None)
    if witness is not None:
        assert (res.witness_x, res.witness_bracket) == witness


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
        for x in membership_test_set(p, MembershipMode.FULL_BASIS):
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


def test_projection_config_validation():
    p = Partition.of(1, 2)
    with pytest.raises(ValueError):
        ProjectionConfig(p, {(1, 1): 0})  # top coefficient must be invertible
    with pytest.raises(ValueError):
        ProjectionConfig(p, {(1, 0): 1})  # r outside the superdiagonal window
    cfg = ProjectionConfig(p, {(1, 1): 5})
    assert cfg.coeff(1, 1) == 5


def test_membership_of_generator_table():
    p = Partition.of(1, 2)
    t = w_generators(p)
    for _, poly in t.ordered():
        for mode in MembershipMode:
            assert w_membership(p, poly, mode).ok


def test_membership_negative_control_witness():
    p = Partition.of(1, 2)
    bad = w_generators(p).out_of_window[(2, 0)]
    assert bad == vp(1, 1, 0) * vp(2, 2, 0) + vp(2, 2, 0, s=1)
    res = w_membership(p, bad)
    assert not res.ok
    assert res.witness_x == BasisElt(1, 2, 1)
    assert res.witness_bracket == \
        UPoly({0: vp(1, 1, 0) - vp(2, 2, 0), 1: DiffPoly.const(1)})
    # the generator test set sees the same violation
    assert not w_membership(p, bad, MembershipMode.GENERATORS).ok


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
    # with the superdiagonal sent to c, the quadratic member acquires a -c
    # on its lower-triangular term; the default projection rejects it for c != 1
    p = Partition.of(1, 1)
    for c in [1, 2, -3]:
        cfg = ProjectionConfig(p, {(1, 0): c})
        member = vp(1, 1, 0) * vp(2, 2, 0) - vp(2, 1, 0).scale(c) + vp(2, 2, 0, s=1)
        assert w_membership(p, member, cfg=cfg).ok
        assert w_membership(p, member).ok == (c == 1)


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


@pytest.mark.parametrize("parts", [(1, 2), (2, 2)])
def test_axiom_suite_smoke(parts):
    rep = pva_axiom_suite(Partition.of(*parts), seed=1, samples=10)
    assert rep.ok
    assert set(rep.checked) == {"sesquilinearity-left", "sesquilinearity-right",
                                "skewsymmetry", "leibniz", "jacobi"}
    assert all(n >= 10 for n in rep.checked.values())


def test_axiom_suite_is_seed_deterministic():
    p = Partition.of(1, 2)
    a = pva_axiom_suite(p, seed=5, samples=5)
    b = pva_axiom_suite(p, seed=5, samples=5)
    assert a.checked == b.checked and a.failures == b.failures
