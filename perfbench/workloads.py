"""The three verification workloads: inputs built from a seed, and one pass.

Every call into wcent goes through a module attribute lookup at call time
(``W.name``, ``S.name``), so the tracer in ``tracing.py`` sees it after it
has rebound the public names.

A pass records a verdict for every check it makes, negative controls
included, and keeps its seed-independent outputs (generator tables,
``w_bracket`` results, Sugawara tables, control witnesses).  Once the pass
is timed, ``Outcome.digest`` hashes their canonical JSON.  ``run.py``
compares the verdicts, the term count and the digest with
``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import wcent as W  # noqa: E402
from wcent import serialize as S  # noqa: E402

if not os.path.abspath(W.__file__).startswith(SRC + os.sep):
    raise ImportError("wcent was imported from %s, not from %s" % (W.__file__, SRC))

AXIOM_SAMPLES = 20


@dataclass(frozen=True)
class Spec:
    """Size of a workload: which partitions, and the caps of the costlier checks."""

    max_N: int
    max_parts: int | None = None
    bracket_max_N: int = 0
    axioms_on: tuple = ()  # parts of the partitions that get the PVA-axiom suite


SPECS = {
    # The axiom suite's cost depends on the seed's samples (2-3x between
    # seeds), so the full size runs it on one small partition only.
    "classical": {"full": Spec(8, 5, 4, ((2,),)),
                  "tiny": Spec(3, None, 3, ((1,), (1, 1), (2,)))},
    "center": {"full": Spec(5, 4), "tiny": Spec(3)},
    "commute": {"full": Spec(8, 3), "tiny": Spec(3)},
}


@dataclass
class Inputs:
    spec: Spec
    # (partition, Jacobian point seed, PVA-axiom sample seed)
    items: list


def build_inputs(workload: str, seed: int, size: str = "full") -> Inputs:
    """Enumerate the partitions and draw each one's seeds from the workload seed.

    Only ``classical`` uses the seeds; ``center`` and ``commute`` take no
    random input, so their pass does not depend on the workload seed.
    """
    spec = SPECS[workload][size]
    rng = random.Random("%s:%d" % (workload, seed))
    items = [(p, rng.randrange(1, 2 ** 31), rng.randrange(2 ** 31))
             for p in W.all_partitions(spec.max_N, max_parts=spec.max_parts)]
    return Inputs(spec, items)


@dataclass
class Outcome:
    """Verdicts by check kind, the term count, and the outputs to digest."""

    verdicts: dict = field(default_factory=dict)  # kind -> [passed, failed]
    output_terms: int = 0
    serialized_bytes: int = 0  # JSON text made by the round trips of the pass
    laps: list = field(default_factory=list)  # seconds of each step, in pass order
    _outputs: list = field(default_factory=list)  # (to_json, args)
    _lap_start: float = 0.0

    def start(self) -> None:
        self._lap_start = perf_counter()

    def lap(self) -> None:
        """End one step of the pass; the laps of a pass add up to its wall time."""
        now = perf_counter()
        self.laps.append(now - self._lap_start)
        self._lap_start = now

    def verdict(self, kind: str, ok: bool) -> None:
        self.verdicts.setdefault(kind, [0, 0])[0 if ok else 1] += 1
        self.lap()

    def output(self, to_json, *args) -> None:
        """Keep one output; ``digest`` serializes it once the pass is timed."""
        self._outputs.append((to_json, args))

    def digest(self) -> str:
        """sha256 of the canonical JSON of every kept output, in pass order."""
        sha = hashlib.sha256()
        for to_json, args in self._outputs:
            sha.update(canonical(to_json(*args)).encode())
            sha.update(b"\n")
        return sha.hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def table_terms(table) -> int:
    """Terms of every entry of a generator or Sugawara table, window or not."""
    return sum(len(v) for part in (table.entries, table.out_of_window)
               for v in part.values())


# Negative controls, one per partition with at least two blocks.  (With one
# block the centralizer is abelian and its critical form vanishes, so every
# vacuum vector is central, and there is no upper sector to test membership
# against.)  Each control must fail its check, and its witness goes into the
# digest: a check that wrongly returns zero fails the verdict, and a wrong
# nonzero witness changes the digest.

CONTROL_POLY = W.DiffPoly.var(W.DiffVar(0, 1, 1, 0))  # E[1,1,0][0], not in W


def control_vector(p) -> W.VacuumVector:
    """E(-1)|0> for the first upper basis element E: not central."""
    return W.VacuumVector.single(p, W.upper_basis(p)[0], -1)


def control_vectors(p) -> list:
    """The centre-check controls of p.  For p = 1^n the second one,
    sum_ij E[i,j,0](-2) E[j,i,0](-2)|0>, is killed by every mode x(0), so
    only a scan of the positive modes finds its witness."""
    out = [control_vector(p)]
    if set(p.parts) == {1}:
        v = W.VacuumVector(p)
        for i in range(1, p.n + 1):
            for j in range(1, p.n + 1):
                v = v + W.VacuumVector.from_modes(
                    p, [W.LoopMode(i, j, 0, -2), W.LoopMode(j, i, 0, -2)])
        out.append(v)
    return out


def membership_witness(res) -> list | None:
    if res.ok:
        return None
    return [res.witness_x.text(), S.lambdapoly_to_json(res.witness_bracket)]


def center_witness(res) -> list | None:
    if res.ok:
        return None
    x, m, img = res.witness
    return [x.text(), m, S.vacuum_to_json(img)]


def bracket_output(p, ka, kb, lp) -> dict:
    return {"partition": str(p),
            "pair": [S.table_key("w", *ka), S.table_key("w", *kb)],
            "bracket": S.lambdapoly_to_json(lp)}


def commutator_output(ab, ba) -> dict:
    return S.vacuum_to_json(ab - ba)


def classical_pass(inputs: Inputs, out: Outcome) -> None:
    spec = inputs.spec
    for p, jac_seed, axiom_seed in inputs.items:
        wt = W.w_generators(p)
        out.verdict("census", len(wt) == p.N)
        for _, poly in wt.ordered():
            out.verdict("membership", W.w_membership(p, poly, W.MembershipMode.FULL_BASIS).ok)
        if p.n > 1:
            res = W.w_membership(p, CONTROL_POLY, W.MembershipMode.FULL_BASIS)
            out.verdict("membership_control", res.ok)
            out.output(membership_witness, res)

        mt = W.miura_generators(p)
        out.verdict("miura", set(mt.entries) == set(wt.entries))
        for key, poly in wt.ordered():
            out.verdict("miura", mt.entries.get(key) == W.miura_image(poly))

        cert = W.jacobian_independence(p, seed=jac_seed)
        out.verdict("jacobian", cert.nonzero and cert.symbolic_nonzero is not False)

        text = canonical(S.generator_table_to_json(wt))
        out.serialized_bytes += len(text)
        out.verdict("roundtrip", S.generator_table_from_json(json.loads(text)) == wt)
        out.output(S.generator_table_to_json, wt)
        out.output_terms += table_terms(wt)

        if p.N <= spec.bracket_max_N:
            for (ka, a), (kb, b) in combinations_with_replacement(wt.ordered(), 2):
                lp = W.w_bracket(p, a, b, check=False)
                out.output(bracket_output, p, ka, kb, lp)
                out.output_terms += sum(len(c) for c in lp.coeffs.values())
                out.lap()

        if p.parts in spec.axioms_on:
            rep = W.pva_axiom_suite(p, seed=axiom_seed, samples=AXIOM_SAMPLES)
            # Five axioms per sample: a suite that checked less passed vacuously.
            out.verdict("axioms", rep.ok and sum(rep.checked.values()) == 5 * AXIOM_SAMPLES)


def center_pass(inputs: Inputs, out: Outcome) -> None:
    for p, _, _ in inputs.items:
        st = W.ss_vectors(p)
        out.verdict("census", len(st) == p.N)
        for _, v in st.ordered():
            out.verdict("center", W.center_check(v).ok)
        if p.n > 1:
            for v in control_vectors(p):
                res = W.center_check(v)
                out.verdict("center_control", res.ok)
                out.output(center_witness, res)
        out.verdict("correspondence", W.w_correspondence(p, st=st).ok)
        text = canonical(S.sugawara_table_to_json(st))
        out.serialized_bytes += len(text)
        out.verdict("roundtrip", S.sugawara_table_from_json(json.loads(text)) == st)
        out.output(S.sugawara_table_to_json, st)
        out.output_terms += table_terms(st)


def commute_pass(inputs: Inputs, out: Outcome) -> None:
    for p, _, _ in inputs.items:
        st = W.ss_vectors(p)
        out.verdict("census", len(st) == p.N)
        vs = [v for _, v in st.ordered()]
        for a, b in combinations(vs, 2):
            ab = a * b
            out.verdict("commute", ab == b * a)
            out.output_terms += len(ab)
        if p.n > 1:
            a = W.VacuumVector.single(p, W.BasisElt(1, 1, 0), -1)
            b = control_vector(p)
            ab, ba = a * b, b * a
            out.verdict("commute_control", ab == ba)
            out.output(commutator_output, ab, ba)
        out.output(S.sugawara_table_to_json, st)
        out.output_terms += table_terms(st)


PASSES = {"classical": classical_pass, "center": center_pass, "commute": commute_pass}
