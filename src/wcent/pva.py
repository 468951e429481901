"""Poisson vertex algebra structure on differential polynomials.

The generators carry the affine lambda-bracket {x_lam y} = [x, y] + (x|y) lam
built from the centralizer commutator and the trace form; it extends to all
differential polynomials through the standard master formula, and one kernel,
{x_lam P} for a generator x, computes both.  On top of that this module
provides the parabolic projection pi, the W-algebra membership predicate, the
induced bracket on members, and a seeded random checker for the PVA axioms.

pi is one fixed map, the one the generator matrix is built for: its rule on
one variable, cdet.parabolic_image, is also the lift of cdet.w_generators.
It fixes every lower and Cartan variable E[i,j,r][s], i >= j, sends each top
superdiagonal variable E[i,i+1,lam_{i+1}-1][0] to 1, and sends every other
upper variable, and every derivative of an upper variable, to 0.

The lower and Cartan elements form a Lie subalgebra and the trace form is a
constant, so the differential polynomials of the parabolic sector are closed
under the bracket and pi fixes every bracket of two of them.  pi is applied
in one place only: to the generator brackets {x_lam v} with x upper, inside
the membership test, which brackets with the superdiagonal E[i,i+1,t] to
decide and with the whole upper basis only to name a failure's witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from math import comb
from typing import Optional

from .cdet import UPoly, _ring_elements, _shift, parabolic_image
from .centralizer import (BasisElt, Partition, add_into, bracket,
                          centralizer_basis, trace_form, upper_basis)
from .diffpoly import DiffPoly, DiffVar

LCoeffs = dict  # lambda-power -> DiffPoly


def _neg_shift(f: DiffPoly, s: int) -> LCoeffs:
    """(-lam-d)^s f as a raw lambda-power map."""
    return _shift({0: f.scale(-1) if s % 2 else f}, s)


def neg_lambda_substitute(lp: UPoly) -> UPoly:
    """sum_k (-lam-d)^k C_k for lp = sum_k C_k lam^k (skewsymmetry substitution)."""
    acc: LCoeffs = {}
    for pwr, poly in lp.terms.items():
        add_into(acc, _neg_shift(poly, pwr).items())
    return UPoly._raw(acc)


Partials = dict  # v.base -> [(v.s, dP/dv), ...] by increasing s, over the variables v of P


def _partials(poly: DiffPoly) -> Partials:
    """The nonzero partials of poly grouped by base element."""
    out: Partials = {}
    for v, pv in sorted(poly.partials().items()):
        out.setdefault(v.base, []).append((v.s, pv))
    return out


def _bracket_gen(p: Partition, x: BasisElt, partials: Partials,
                 project: bool = False) -> UPoly:
    """The kernel of lambda_bracket_gen on precomputed partials: {x_lam y}
    once per base element y, shifted on to each derivative order.  With
    project each commutator [x, y] is projected first (see w_membership)."""
    acc: dict = {}  # lambda-power -> word map
    for base, orders in partials.items():
        gen: LCoeffs = {}
        br = bracket(p, x, base)
        if br:
            lie = DiffPoly.from_lie(br)
            if project:
                lie = parabolic_project(p, lie)
            if lie:
                gen[0] = lie
        f = trace_form(p, x, base)
        if f:
            gen[1] = DiffPoly.const(f)
        if not gen:
            continue
        done = 0
        for s, pv in orders:
            gen, done = _shift(gen, s - done), s
            for k, q in gen.items():
                pv.mul_into(acc.setdefault(k, {}), q)
    return UPoly._raw(_ring_elements(DiffPoly, acc))


def lambda_bracket_gen(p: Partition, x: BasisElt, poly: DiffPoly) -> UPoly:
    """{x_lam poly} for a single generator x: the one bracket kernel.

    On generators {x_lam y} = [x, y] + (x|y) lam.  Expansion by the right
    Leibniz rule and sesquilinearity:
    {x_lam P} = sum over variables v[s] of (dP/dv[s]) (lam+d)^s {x_lam v}.
    Each product is added straight into one word map per lambda-power.
    """
    return _bracket_gen(p, x, _partials(poly))


def generator_bracket(p: Partition, x: BasisElt, y: BasisElt) -> UPoly:
    """{x_lam y} = [x, y] + (x|y) lam on generators."""
    return lambda_bracket_gen(p, x, DiffPoly.var(DiffVar.of(y)))


def lambda_bracket(p: Partition, a: DiffPoly, b: DiffPoly) -> UPoly:
    """Bilinear lambda-bracket via the master formula, built on the kernel.

    The master formula reads
    {a_lam b} = sum (db/dv[n]) (lam+d)^n {u _{lam+d} v}-> (-lam-d)^m (da/du[m]),
    where each shift operator acts on everything to its right.  This routine
    evaluates it as
    {a_lam b} = sum over u[m] of sum_k C_k (lam+d)^k (-lam-d)^m (da/du[m]),
    with sum_k C_k lam^k = {u_lam b} = lambda_bracket_gen(u, b) and each d
    acting on the da/du[m] factor only.

    Soundness: put mu = lam + d with d acting on that right factor only.  In
    the master formula the d of (lam+d)^n acts on both the bracket
    coefficient C and the right factor, so (lam+d)^n = (mu + d_C)^n.  Summing
    (db/dv[n]) (mu + d_C)^n {u_mu v} over the variables v[n] of b is the
    kernel's own expansion, so it gives {u_mu b}.
    """
    partials_b = _partials(b)
    acc: dict = {}  # lambda-power -> word map
    for base, orders in _partials(a).items():
        kernel = _bracket_gen(p, base, partials_b).terms  # {u_lam b}
        for s, fa in orders:
            right = _neg_shift(fa, s)
            for k, c in kernel.items():
                for j, q in _shift(right, k).items():
                    c.mul_into(acc.setdefault(j, {}), q)
    return UPoly._raw(_ring_elements(DiffPoly, acc))


# -- parabolic projection --------------------------------------------------


def parabolic_project(p: Partition, poly: DiffPoly) -> DiffPoly:
    """Differential-algebra projection pi onto the parabolic sector."""
    return poly.substitute_consts(lambda v: parabolic_image(p, v))


def project_lambda(p: Partition, lp: UPoly) -> UPoly:
    return lp.map_coeffs(lambda q: parabolic_project(p, q))


# -- membership and induced bracket -----------------------------------------


class MembershipMode(Enum):  # w_membership's mode argument, which it does not read
    FULL_BASIS = "full"


@dataclass
class MembershipResult:
    ok: bool
    witness_x: Optional[BasisElt] = None
    witness_bracket: Optional[UPoly] = None


def membership_test_set(p: Partition) -> list[BasisElt]:
    """The superdiagonal E[i,i+1,t]: the upper elements whose projected
    brackets decide w_membership."""
    return [BasisElt(i, i + 1, t)
            for i in range(1, p.n)
            for t in p.r_window(i, i + 1)]


def _require_parabolic(poly: DiffPoly, what: str) -> None:
    """Raise ValueError when poly has an upper variable E[i,j,r][s], i < j."""
    if any(v.i < v.j for v in poly.variables()):
        raise ValueError("%s expects a polynomial over the parabolic sector" % what)


def w_membership(p: Partition, poly: DiffPoly,
                 mode: MembershipMode = MembershipMode.FULL_BASIS) -> MembershipResult:
    """Test whether the projected bracket with the upper sector vanishes.

    The input is checked by its variables: any upper variable E[i,j,r][s]
    with i < j raises ValueError.  Scans membership_test_set(p); only if a
    bracket there is nonzero, scans upper_basis(p) in canonical order and
    reports the first violation as (x, pi({x_lam poly})), raising
    ArithmeticError if it finds none.  mode is unread.

    Soundness, for a parabolic P.  ker pi is the differential ideal
    generated by the m - pi(m), m an upper variable.  For x and m upper,
    (x|m) = 0 and [x, m] lies two or more blocks above the diagonal, so
    pi{x_lam m} = 0; by the Leibniz rule pi{x_lam Q} = 0 whenever
    pi(Q) = 0.  Hence, by the Jacobi identity
    {[x,y]_{lam+mu} P} = {x_lam {y_mu P}} - {y_mu {x_lam P}}, the x with
    pi{x_lam P} = 0 form a Lie subalgebra of the upper sector.  The
    superdiagonal generates the upper sector, by induction on j - i:
    [E[i,j-1,t], E[j-1,j,t']] = E[i,j,t+t'], and the sums t+t' over the
    windows of (i, j-1) and (j-1, j) cover the window of (i, j).  So a
    superdiagonal pass is a full pass, and a superdiagonal failure is a
    violation in the upper basis, so the second scan finds a witness.

    The kernel projects only the commutators [x, y]; the partials of poly
    are taken once and used as they are.  This gives pi({x_lam poly})
    because pi is an algebra homomorphism (it substitutes constants for
    variables) that commutes with d: it fixes every lower and diagonal
    variable with all its derivatives and sends each upper E[i,j,r][s] to a
    constant for s = 0 and to 0 for s > 0, the derivative of that constant.
    Hence pi(F (lam+d)^s G) = pi(F) (lam+d)^s pi(G) term by term, and pi
    fixes each partial of a parabolic poly.
    """
    _require_parabolic(poly, "membership test")
    partials = _partials(poly)
    if not any(_bracket_gen(p, x, partials, project=True) for x in membership_test_set(p)):
        return MembershipResult(True)
    images = ((x, _bracket_gen(p, x, partials, project=True)) for x in upper_basis(p))
    witness = next(((x, img) for x, img in images if img), None)
    if witness is None:
        raise ArithmeticError("partition %s: a superdiagonal bracket is nonzero, but no "
                              "upper basis bracket is" % p)
    return MembershipResult(False, *witness)


def w_bracket(p: Partition, a: DiffPoly, b: DiffPoly,
              check: bool = True) -> UPoly:
    """Induced bracket on members: the projected lambda-bracket pi{a_lam b}.

    Both arguments must lie in the parabolic sector, else ValueError, with
    or without check.  With check (the default), both must also pass
    w_membership, else ValueError names the first failing one.

    The plain bracket is returned: the lower and Cartan elements E[i,j,r],
    i >= j, span a Lie subalgebra (the commutator of E[i,j] and E[j,l] is
    E[i,l], and i >= j >= l gives i >= l), and the trace form is a constant,
    so every coefficient of {a_lam b} is again a polynomial over the
    parabolic sector, which pi fixes.
    """
    for name, poly in (("first", a), ("second", b)):
        _require_parabolic(poly, "w_bracket (%s argument)" % name)
    if check:
        for name, poly in (("first", a), ("second", b)):
            res = w_membership(p, poly)
            if not res.ok:
                raise ValueError("%s argument fails membership (witness %s)"
                                 % (name, res.witness_x.text()))
    return lambda_bracket(p, a, b)


# -- two-symbol Jacobi harness ----------------------------------------------

BiLambda = dict  # (lam-power, mu-power) -> DiffPoly


def jacobi_defect(p: Partition, a: DiffPoly, b: DiffPoly, c: DiffPoly) -> BiLambda:
    """{a_lam {b_mu c}} - {b_mu {a_lam c}} - {{a_lam b}_{lam+mu} c}.

    Returned as a two-symbol polynomial keyed by (lam-power, mu-power); the
    Jacobi identity holds exactly when the result is empty.
    """
    acc: BiLambda = {}
    add_into(acc, (((k, q), g)
                   for q, f in lambda_bracket(p, b, c).terms.items()
                   for k, g in lambda_bracket(p, a, f).terms.items()))
    add_into(acc, (((k, q), g.scale(-1))
                   for k, f in lambda_bracket(p, a, c).terms.items()
                   for q, g in lambda_bracket(p, b, f).terms.items()))
    # substitute the bracket symbol by lam + mu and tack on lam^nn
    add_into(acc, (((nn + alpha, mm - alpha), d.scale(-comb(mm, alpha)))
                   for nn, cn in lambda_bracket(p, a, b).terms.items()
                   for mm, d in lambda_bracket(p, cn, c).terms.items()
                   for alpha in range(mm + 1)))
    return acc


# -- seeded axiom suite ------------------------------------------------------


def random_diffpoly(p: Partition, rng: random.Random, max_terms: int = 2,
                    max_vars: int = 3, max_degree: int = 3, max_s: int = 2) -> DiffPoly:
    """Small random polynomial in valid variables of the given partition."""
    pool = [DiffVar.of(e, s) for e in centralizer_basis(p) for s in range(max_s + 1)]
    chosen = rng.sample(pool, min(max_vars, len(pool)))
    out = DiffPoly()
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(chosen) for _ in range(rng.randint(1, max_degree)))
        out = out + DiffPoly({word: rng.choice([-3, -2, -1, 1, 2, 3])})
    return out


@dataclass
class AxiomSuiteReport:
    partition: Partition
    seed: int
    samples: int
    checked: dict[str, int] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No failure, and at least one check made (samples < 1 checks nothing)."""
        return bool(self.checked) and not any(self.failures.values())


def pva_axiom_suite(p: Partition, seed: int = 0, samples: int = 100) -> AxiomSuiteReport:
    """Seeded random verification of sesquilinearity, skewsymmetry, the
    Leibniz rules, and the Jacobi identity, all at exact arithmetic."""
    rng = random.Random("%d:%s" % (seed, p))
    report = AxiomSuiteReport(p, seed, samples)

    def record(name: str, ok: bool) -> None:
        report.checked[name] = report.checked.get(name, 0) + 1
        if not ok:
            report.failures[name] = report.failures.get(name, 0) + 1

    for _ in range(samples):
        a = random_diffpoly(p, rng)
        b = random_diffpoly(p, rng)
        ab = lambda_bracket(p, a, b)

        # {da_lam b} = -lam {a_lam b}
        lhs = lambda_bracket(p, a.derive(), b)
        rhs = UPoly({k + 1: poly.scale(-1) for k, poly in ab.terms.items()})
        record("sesquilinearity-left", lhs == rhs)

        # {a_lam db} = (lam + d) {a_lam b}
        record("sesquilinearity-right", lambda_bracket(p, a, b.derive()) == ab.shift())

        # {a_lam b} = -{b_{-lam-d} a}
        record("skewsymmetry", ab == neg_lambda_substitute(lambda_bracket(p, b, a)).scale(-1))

        # {a_lam bc} = {a_lam b} c + {a_lam c} b
        c = random_diffpoly(p, rng)
        lhs = lambda_bracket(p, a, b * c)
        rhs = ab.map_coeffs(lambda q: q * c) + lambda_bracket(p, a, c).map_coeffs(lambda q: q * b)
        record("leibniz", lhs == rhs)

    for _ in range(samples):
        a = random_diffpoly(p, rng, max_terms=1, max_vars=2, max_degree=2)
        b = random_diffpoly(p, rng, max_terms=1, max_vars=2, max_degree=2)
        c = random_diffpoly(p, rng, max_terms=1, max_vars=2, max_degree=2)
        record("jacobi", not jacobi_defect(p, a, b, c))

    return report
