"""Poisson vertex algebra structure on differential polynomials.

The generators carry the affine lambda-bracket {x_lam y} = [x, y] + (x|y) lam
built from the centralizer commutator and the trace form; it extends to all
differential polynomials through the standard master formula.  On top of that
this module provides the parabolic projection (substituting constants for the
top superdiagonal generators and zero for the rest of the upper sector), the
W-algebra membership predicate, the induced bracket on members, and a seeded
random checker for the PVA axioms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Optional

from .cdet import UPoly, _shift
from .centralizer import (BasisElt, Partition, Rat, add_into, bracket,
                          centralizer_basis, sum_by_key, trace_form,
                          upper_basis)
from .diffpoly import DiffPoly, DiffVar

LCoeffs = dict  # lambda-power -> DiffPoly


def neg_lambda_substitute(lp: UPoly) -> UPoly:
    """sum_k (-lam-d)^k C_k for lp = sum_k C_k lam^k (skewsymmetry substitution)."""
    acc: LCoeffs = {}
    for pwr, poly in lp.terms.items():
        add_into(acc, _shift({0: poly.scale(-1) if pwr % 2 else poly}, pwr).items())
    return UPoly._raw(acc)


Partials = dict  # v.base -> [(v.s, dP/dv), ...] by increasing s, over the variables v of P


def _partials(p: Partition, poly: DiffPoly, cfg: Optional[ProjectionConfig]) -> Partials:
    """The nonzero partials of poly grouped by base element, each projected
    when cfg is given."""
    out: Partials = {}
    for v, pv in sorted(poly.partials().items()):
        if cfg is not None:
            pv = parabolic_project(p, pv, cfg)
        if pv:
            out.setdefault(v.base, []).append((v.s, pv))
    return out


def _bracket_gen(p: Partition, x: BasisElt, partials: Partials,
                 cfg: Optional[ProjectionConfig]) -> UPoly:
    """The kernel of lambda_bracket_gen on precomputed (projected) partials:
    {x_lam y} once per base element y, shifted on to each derivative order."""
    products = []
    for base, orders in partials.items():
        gen: LCoeffs = {}
        br = bracket(p, x, base)
        if br:
            lie = DiffPoly.from_lie(br)
            if cfg is not None:
                lie = parabolic_project(p, lie, cfg)
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
            products.extend((k, pv * q) for k, q in gen.items())
    return UPoly._raw(sum_by_key(products))


def lambda_bracket_gen(p: Partition, x: BasisElt, poly: DiffPoly,
                       cfg: Optional[ProjectionConfig] = None) -> UPoly:
    """{x_lam poly} for a single generator x: the one bracket kernel.

    On generators {x_lam y} = [x, y] + (x|y) lam.  Expansion by the right
    Leibniz rule and sesquilinearity:
    {x_lam P} = sum over variables v[s] of (dP/dv[s]) (lam+d)^s {x_lam v}.
    Each lambda-coefficient is summed once over all its products.

    With a projection config the result is pi({x_lam P}), coefficient-wise
    the parabolic projection of the bracket, computed as
    pi({x_lam P}) = sum pi(dP/dv[s]) (lam+d)^s pi({x_lam v}),
    so no product of unprojected factors is formed.  This holds for any P,
    upper variables included: pi is an algebra homomorphism (it substitutes
    constants for variables), and it commutes with d, because it fixes
    every lower and diagonal variable with all its derivatives and sends
    each upper E[i,j,r][s] to a constant for s = 0 and to 0 for s > 0, the
    derivative of that constant.  Hence pi(F (lam+d)^s G) = pi(F)
    (lam+d)^s pi(G) term by term.
    """
    return _bracket_gen(p, x, _partials(p, poly, cfg), cfg)


def generator_bracket(p: Partition, x: BasisElt, y: BasisElt) -> UPoly:
    """{x_lam y} = [x, y] + (x|y) lam on generators."""
    return lambda_bracket_gen(p, x, DiffPoly.var(DiffVar.of(y)))


def lambda_bracket(p: Partition, a: DiffPoly, b: DiffPoly,
                   cfg: Optional[ProjectionConfig] = None) -> UPoly:
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

    With a projection config the result is pi({a_lam b}): the kernel runs
    projected and each da/du[m] is projected before the shift, which is
    sound for the reason given in lambda_bracket_gen.
    """
    partials_b = _partials(p, b, cfg)
    products = []
    for base, orders in _partials(p, a, cfg).items():
        kernel = _bracket_gen(p, base, partials_b, cfg).terms  # {u_lam b}
        for s, fa in orders:
            right = _shift({0: fa.scale(-1) if s % 2 else fa}, s)
            for k, c in kernel.items():
                products.extend((j, c * q) for j, q in _shift(right, k).items())
    return UPoly._raw(sum_by_key(products))


# -- parabolic projection --------------------------------------------------


@dataclass
class ProjectionConfig:
    """Constants substituted for the superdiagonal generators.

    coeffs maps (i, r) to the constant replacing E[i,i+1,r]; for each
    superdiagonal position the top coefficient (r = lam_{i+1} - 1) must be
    nonzero.  Unlisted pairs default to zero.  The standard choice puts 1 at
    the top shift and 0 elsewhere.
    """

    partition: Partition
    coeffs: dict[tuple[int, int], Rat] = field(default_factory=dict)

    def __post_init__(self):
        p = self.partition
        for (i, r), c in self.coeffs.items():
            if not 1 <= i < p.n:
                raise ValueError("superdiagonal index %d out of range" % i)
            if r not in p.r_window(i, i + 1):
                raise ValueError("shift %d invalid for position (%d,%d)" % (r, i, i + 1))
            if not isinstance(c, (int, Fraction)):
                raise ValueError("projection constants must be rational")
        for i in range(1, p.n):
            if not self.coeffs.get((i, p.part(i + 1) - 1), 0):
                raise ValueError("top projection constant at position %d must be nonzero" % i)

    @classmethod
    def default(cls, p: Partition) -> "ProjectionConfig":
        return cls(p, {(i, p.part(i + 1) - 1): 1 for i in range(1, p.n)})

    def coeff(self, i: int, r: int) -> Rat:
        return self.coeffs.get((i, r), 0)

    def image(self, v: DiffVar) -> Optional[Rat]:
        """The projection of one variable: None where it is fixed (i >= j),
        else the constant that replaces it."""
        if v.i >= v.j:
            return None
        if v.s or v.j != v.i + 1:
            return 0
        return self.coeff(v.i, v.r)


def parabolic_project(p: Partition, poly: DiffPoly,
                      cfg: Optional[ProjectionConfig] = None) -> DiffPoly:
    """Differential-algebra projection onto the parabolic sector.

    Fixes lower and diagonal variables; sends E[i,i+1,r][0] to the configured
    constant and every other upper variable (or any derivative of an upper
    variable) to zero.
    """
    if cfg is None:
        cfg = ProjectionConfig.default(p)
    return poly.substitute_consts(cfg.image)


def project_lambda(p: Partition, lp: UPoly,
                   cfg: Optional[ProjectionConfig] = None) -> UPoly:
    return lp.map_coeffs(lambda q: parabolic_project(p, q, cfg))


# -- membership and induced bracket -----------------------------------------


class MembershipMode(Enum):
    GENERATORS = "generators"
    FULL_BASIS = "full"


@dataclass
class MembershipResult:
    ok: bool
    witness_x: Optional[BasisElt] = None
    witness_bracket: Optional[UPoly] = None


def membership_test_set(p: Partition, mode: MembershipMode) -> list[BasisElt]:
    if mode is MembershipMode.FULL_BASIS:
        return upper_basis(p)
    return [BasisElt(i, i + 1, t)
            for i in range(1, p.n)
            for t in p.r_window(i, i + 1)]


def w_membership(p: Partition, poly: DiffPoly,
                 mode: MembershipMode = MembershipMode.FULL_BASIS,
                 cfg: Optional[ProjectionConfig] = None) -> MembershipResult:
    """Test whether the projected bracket with the upper sector vanishes.

    The input is checked by its variables: any upper variable E[i,j,r][s]
    with i < j raises ValueError.  Scans the test set in canonical order and
    reports the first violation as (x, projected bracket).  The projected
    kernel gives pi({x_lam poly}) directly, on partials taken once.
    """
    if any(v.i < v.j for v in poly.variables()):
        raise ValueError("membership test expects a polynomial over the parabolic sector")
    if cfg is None:
        cfg = ProjectionConfig.default(p)
    partials = _partials(p, poly, cfg)
    for x in membership_test_set(p, mode):
        img = _bracket_gen(p, x, partials, cfg)
        if img:
            return MembershipResult(False, x, img)
    return MembershipResult(True)


def w_bracket(p: Partition, a: DiffPoly, b: DiffPoly,
              cfg: Optional[ProjectionConfig] = None,
              check: bool = True) -> UPoly:
    """Induced bracket on members: the projected lambda-bracket.

    With check (the default), both arguments must pass w_membership, else
    ValueError names the first failing one.  The master formula runs on the
    projected kernel, so the unprojected bracket is never formed.
    """
    if cfg is None:
        cfg = ProjectionConfig.default(p)
    if check:
        for name, poly in (("first", a), ("second", b)):
            res = w_membership(p, poly, cfg=cfg)
            if not res.ok:
                raise ValueError("%s argument fails membership (witness %s)"
                                 % (name, res.witness_x.text()))
    return lambda_bracket(p, a, b, cfg)


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
    out = DiffPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(1, max_degree)
        mono: dict[DiffVar, int] = {}
        for _ in range(deg):
            v = rng.choice(chosen)
            mono[v] = mono.get(v, 0) + 1
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        out = out + DiffPoly([(tuple(sorted(mono.items())), coeff)])
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
        return not any(self.failures.values())


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
        rhs = ab.mul_poly(c) + lambda_bracket(p, a, c).mul_poly(b)
        record("leibniz", lhs == rhs)

    jac_samples = samples
    for _ in range(jac_samples):
        a = random_diffpoly(p, rng, max_terms=1, max_vars=2, max_degree=2)
        b = random_diffpoly(p, rng, max_terms=1, max_vars=2, max_degree=2)
        c = random_diffpoly(p, rng, max_terms=1, max_vars=2, max_degree=2)
        record("jacobi", not jacobi_defect(p, a, b, c))

    return report
