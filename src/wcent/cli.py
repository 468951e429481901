"""Command-line front end for reproducible verification runs.

Every command works on one partition (-p) or sweeps all partitions up to a
bound (--max-N, optionally capped in length by --max-n).  Reports render as
text, JSON, or LaTeX; JSON reports are deterministic byte-for-byte for a
fixed configuration (sorted keys, canonical term order, no timings), so two
seeded runs can be diffed directly.

`sweep` checks the whole claim for each partition by calling the other
runners: census (`generators`), membership, Miura and Jacobian always;
centre and iso for N <= --center-bound; pairwise commutativity
(`verify-commute`) for N <= --commute-bound.  Each row holds one verdict per
check that ran, and a failed check's report data under `witnesses`.

Each partition gets one `Context`.  Runners read the generator, Miura and
Segal-Sugawara tables only through `Context.table`, which builds each at most
once per partition, so every check in a sweep row judges the same tables.
Every command and every sweep check goes through `run`, which holds the one
N-entry rule: a runner fails if any table it read has other than N entries,
so an empty table never passes.  `miura` and `verify-iso`, which read two
tables, also fail unless their keys agree.  A failed entry carries what it was
compared with: `miura` the expected Miura table entry, `verify-iso` the
difference of the two sides.

A subcommand accepts only the options it reads: --mode on `check-membership`
and `sweep`, --seed on `jacobian`, `pva-axioms` and `sweep`, --samples on
`pva-axioms`; any other use is a usage error.

Exit status: 0 all checks passed, 1 a verification failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional

from . import serialize as sz
from .affine import center_check, ss_vectors, w_correspondence
from .cdet import (jacobian_independence, miura_generators, miura_image,
                   w_generators)
from .centralizer import Partition, all_partitions, centralizer_basis
from .diffpoly import DiffVar
from .pva import MembershipMode, pva_axiom_suite, w_membership

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_SAMPLES = 100
DEFAULT_CENTER_BOUND = 5
DEFAULT_COMMUTE_BOUND = 4

LATEX_COMMANDS = {"basis", "generators", "miura", "ss-vectors", "jacobian"}
MODE_COMMANDS = {"check-membership", "sweep"}
SEED_COMMANDS = {"jacobian", "pva-axioms", "sweep"}


@dataclass
class RunConfig:
    command: str
    partitions: list[Partition]
    mode: MembershipMode = MembershipMode.FULL_BASIS
    seed: int = 0
    fmt: str = "text"
    samples: int = DEFAULT_SAMPLES
    center_bound: int = DEFAULT_CENTER_BOUND
    commute_bound: int = DEFAULT_COMMUTE_BOUND


@dataclass
class Report:
    """One command's outcome: JSON-ready payload plus text/LaTeX renderings.

    Failed checks carry their witnesses inside `data`.  Timings appear only
    in the text rendering, never in `data`.
    """

    command: str
    ok: bool
    data: dict
    lines: list[str] = field(default_factory=list)
    latex: Optional[str] = None


@dataclass
class Context:
    """One partition's run: the tables its runners read, each built once.

    `read` lists every table handed out, in order, so that `run` can judge
    the tables of one runner by their slice of it (a sweep's slice spans
    its checks').
    """

    p: Partition
    cfg: RunConfig
    read: list = field(default_factory=list)
    _tables: dict = field(default_factory=dict)

    def table(self, build: Callable):
        """The table `build(p)`, built on first use; pass the builder by its
        name in this module (`w_generators`, `miura_generators`,
        `ss_vectors`)."""
        if build not in self._tables:
            self._tables[build] = build(self.p)
        self.read.append(self._tables[build])
        return self._tables[build]


# -- per-partition runners ------------------------------------------------------


def _run_basis(ctx: Context) -> Report:
    basis = centralizer_basis(ctx.p)
    data = {
        "partition": str(ctx.p),
        "dim": len(basis),
        "basis": [[e.i, e.j, e.r] for e in basis],
    }
    lines = ["partition %s: dim %d" % (ctx.p, len(basis))]
    lines += ["  " + e.text() for e in basis]
    latex = "\\begin{itemize}\n%s\n\\end{itemize}" % "\n".join(
        r"\item $%s$" % sz.latex_var(DiffVar.of(e)) for e in basis)
    return Report("basis", True, data, lines, latex)


def _run_generators(ctx: Context) -> Report:
    t = ctx.table(w_generators)
    data = sz.generator_table_to_json(t)
    lines = ["partition %s: %d generators" % (ctx.p, len(t))]
    lines += ["  w[%d][%d] = %s" % (k, r, poly.text()) for (k, r), poly in t.ordered()]
    return Report("generators", True, data, lines, sz.latex_table(t, "w"))


def _run_check_membership(ctx: Context) -> Report:
    t = ctx.table(w_generators)
    entries = {}
    for (k, r), poly in t.ordered():
        res = w_membership(ctx.p, poly, ctx.cfg.mode)
        entry = {"pass": res.ok}
        if not res.ok:
            entry["witness"] = {
                "x": [res.witness_x.i, res.witness_x.j, res.witness_x.r],
                "bracket": sz.lambdapoly_to_json(res.witness_bracket),
            }
        entries[sz.table_key("w", k, r)] = entry
    ok = all(e["pass"] for e in entries.values())
    mode_name = ctx.cfg.mode.value
    data = {"partition": str(ctx.p), "mode": mode_name, "entries": entries, "ok": ok}
    lines = ["partition %s: membership (%s mode)" % (ctx.p, mode_name)]
    lines += ["  %s: %s" % (key, "pass" if entries[key]["pass"] else "FAIL")
              for key in sorted(entries)]
    return Report("check-membership", ok, data, lines)


def _run_miura(ctx: Context) -> Report:
    wt = ctx.table(w_generators)
    mt = ctx.table(miura_generators)
    entries = {}
    lines = ["partition %s: Miura images" % ctx.p]
    for (k, r), poly in wt.ordered():
        img = miura_image(poly)
        expected = mt.entries.get((k, r))
        key = sz.table_key("w", k, r)
        entry = {"pass": img == expected, "image": sz.diffpoly_to_json(img)}
        note = ""
        if not entry["pass"]:
            entry["expected"] = None if expected is None else sz.diffpoly_to_json(expected)
            note = "  MISMATCH (expected %s)" % ("nothing" if expected is None
                                                else expected.text())
        entries[key] = entry
        lines.append("  %s -> %s%s" % (key, img.text(), note))
    unmatched = set(wt.entries) ^ set(mt.entries)
    ok = not unmatched and all(e["pass"] for e in entries.values())
    data = {"partition": str(ctx.p), "entries": entries, "ok": ok}
    if unmatched:
        data["unmatched"] = [sz.table_key("w", k, r) for k, r in sorted(unmatched)]
    return Report("miura", ok, data, lines, sz.latex_table(mt, "w"))


def _run_jacobian(ctx: Context) -> Report:
    cert = jacobian_independence(ctx.p, seed=ctx.cfg.seed,
                                 mt=ctx.table(miura_generators))
    data = {
        "partition": str(ctx.p),
        "nonzero": cert.nonzero,
        "det": sz.rat_to_json(cert.det),
        "seed": cert.seed,
        "attempts": cert.attempts,
        "point": {v.text(): sz.rat_to_json(q) for v, q in sorted(cert.point.items())},
        "poly_order": [sz.table_key("w", k, r) for k, r in cert.poly_order],
        "var_order": [v.text() for v in cert.var_order],
        "symbolic": {
            "computed": cert.symbolic_det is not None,
            "nonzero": cert.symbolic_nonzero,
        },
        "ok": cert.ok,
    }
    lines = ["partition %s: Jacobian determinant %s at seed %d (%d attempt%s)%s" % (
        ctx.p, cert.det, cert.seed, cert.attempts, "s" if cert.attempts != 1 else "",
        "" if cert.symbolic_det is None else
        "; symbolic check %s" % ("nonzero" if cert.symbolic_nonzero else "ZERO"))]
    latex = r"\det J = %s" % sz.latex_rat(cert.det)
    if cert.symbolic_det is not None:
        latex += ",\\qquad \\det J(E) = %s" % sz.latex_diffpoly(cert.symbolic_det)
    return Report("jacobian", cert.ok, data, lines, latex)


def _run_ss_vectors(ctx: Context) -> Report:
    t = ctx.table(ss_vectors)
    data = sz.sugawara_table_to_json(t)
    lines = ["partition %s: %d vectors" % (ctx.p, len(t))]
    lines += ["  phi[%d][%d] = %s" % (k, r, v.text()) for (k, r), v in t.ordered()]
    return Report("ss-vectors", True, data, lines, sz.latex_table(t, r"\phi"))


def _run_verify_center(ctx: Context) -> Report:
    t = ctx.table(ss_vectors)
    entries = {}
    for (k, r), v in t.ordered():
        res = center_check(v)
        entry = {"pass": res.ok}
        if not res.ok:
            x, m, img = res.witness
            entry["witness"] = {
                "x": [x.i, x.j, x.r],
                "m": m,
                "image": sz.vacuum_to_json(img),
            }
        entries[sz.table_key("phi", k, r)] = entry
    ok = all(e["pass"] for e in entries.values())
    data = {"partition": str(ctx.p), "entries": entries, "ok": ok}
    lines = ["partition %s: centre check" % ctx.p]
    lines += ["  %s: %s" % (key, "pass" if entries[key]["pass"] else "FAIL")
              for key in sorted(entries)]
    return Report("verify-center", ok, data, lines)


def _run_verify_iso(ctx: Context) -> Report:
    rep = w_correspondence(ctx.p, ctx.table(w_generators), ctx.table(ss_vectors))
    entries = {}
    for key in sorted(rep.matches):
        entry = {"match": rep.matches[key], "translation": rep.translation_ok[key]}
        if key in rep.differences:
            entry["difference"] = sz.vacuum_to_json(rep.differences[key])
        entries[sz.table_key("phi", *key)] = entry
    data = {"partition": str(ctx.p), "entries": entries, "ok": rep.ok}
    if rep.unmatched:
        data["unmatched"] = [sz.table_key("phi", k, r) for k, r in rep.unmatched]
    lines = ["partition %s: Miura/Sugawara correspondence" % ctx.p]
    lines += ["  %s: %s" % (key,
                            "pass" if entries[key]["match"] and entries[key]["translation"]
                            else "FAIL")
              for key in sorted(entries)]
    return Report("verify-iso", rep.ok, data, lines)


def _run_verify_commute(ctx: Context) -> Report:
    t = ctx.table(ss_vectors)
    commutators = ((ka, kb, a * b - b * a)
                   for (ka, a), (kb, b) in combinations(t.ordered(), 2))
    failed = next(((ka, kb, c) for ka, kb, c in commutators if c), None)
    ok = failed is None
    data = {"partition": str(ctx.p), "ok": ok}
    lines = ["partition %s: pairwise commutativity of %d vectors" % (ctx.p, len(t))]
    if failed is not None:
        ka, kb, c = failed
        pair = [sz.table_key("phi", *ka), sz.table_key("phi", *kb)]
        data["witness"] = {"pair": pair, "commutator": sz.vacuum_to_json(c)}
        lines.append("  [%s, %s] = %s" % (pair[0], pair[1], c.text()))
    return Report("verify-commute", ok, data, lines)


def _run_pva_axioms(ctx: Context) -> Report:
    rep = pva_axiom_suite(ctx.p, seed=ctx.cfg.seed, samples=ctx.cfg.samples)
    data = {
        "partition": str(ctx.p),
        "seed": rep.seed,
        "samples": rep.samples,
        "checked": dict(sorted(rep.checked.items())),
        "failures": dict(sorted(rep.failures.items())),
        "ok": rep.ok,
    }
    lines = ["partition %s: bracket axioms on %d samples (seed %d)" % (
        ctx.p, rep.samples, rep.seed)]
    lines += ["  %s: %d checked, %d failed" % (name, n, rep.failures.get(name, 0))
              for name, n in sorted(rep.checked.items())]
    return Report("pva-axioms", rep.ok, data, lines)


# The sweep's checks in row order, each with the runner that decides it.
SWEEP_CHECKS = {"census": "generators", "membership": "check-membership",
                "miura": "miura", "jacobian": "jacobian", "center": "verify-center",
                "iso": "verify-iso", "commute": "verify-commute"}


def _run_sweep(ctx: Context) -> Report:
    bound = {"center": ctx.cfg.center_bound, "iso": ctx.cfg.center_bound,
             "commute": ctx.cfg.commute_bound}
    row = {"partition": str(ctx.p), "N": ctx.p.N}
    witnesses = {}
    start = time.perf_counter()
    for check, command in SWEEP_CHECKS.items():
        if ctx.p.N > bound.get(check, ctx.p.N):
            continue
        rep = run(command, ctx)
        row[check] = rep.ok
        if not rep.ok:
            witnesses[check] = rep.data
    row["ok"] = not witnesses
    if witnesses:
        row["witnesses"] = witnesses
    marks = " ".join("%s=%s" % (check, {True: "ok", False: "FAIL"}.get(row.get(check), "-"))
                     for check in SWEEP_CHECKS)
    line = "%-12s %s  (%.2fs)" % (ctx.p, marks, time.perf_counter() - start)
    return Report("sweep", row["ok"], row, [line])


RUNNERS: dict[str, Callable[[Context], Report]] = {
    "basis": _run_basis,
    "generators": _run_generators,
    "check-membership": _run_check_membership,
    "miura": _run_miura,
    "jacobian": _run_jacobian,
    "ss-vectors": _run_ss_vectors,
    "verify-center": _run_verify_center,
    "verify-iso": _run_verify_iso,
    "verify-commute": _run_verify_commute,
    "pva-axioms": _run_pva_axioms,
    "sweep": _run_sweep,
}


def run(command: str, ctx: Context) -> Report:
    """Run one command on the context's partition under the N-entry rule.

    The report fails if any table the runner read has other than N entries;
    where its `data` has an "ok" key, that key agrees with the verdict.
    """
    start = len(ctx.read)
    rep = RUNNERS[command](ctx)
    rep.ok = rep.ok and all(len(t) == ctx.p.N for t in ctx.read[start:])
    if "ok" in rep.data:
        rep.data["ok"] = rep.ok
    return rep


def dispatch(cfg: RunConfig) -> Report:
    """Run the command over every configured partition, one context each, and
    merge the reports."""
    parts = [run(cfg.command, Context(p, cfg)) for p in cfg.partitions]
    if len(parts) == 1:
        return parts[0]
    ok = all(r.ok for r in parts)
    data = {"command": cfg.command, "ok": ok, "runs": [r.data for r in parts]}
    lines = []
    for r in parts:
        lines.extend(r.lines)
    lines.append("sweep over %d partitions: %s" % (len(parts), "pass" if ok else "FAIL"))
    latex = None
    if all(r.latex is not None for r in parts):
        latex = "\n\\par\n".join(r.latex for r in parts)
    return Report(cfg.command, ok, data, lines, latex)


# -- argument handling -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcent",
        description="Exact verification of W-algebra generators for centralizers "
                    "and the centre of the affine vertex algebra at the critical level.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text in [
        ("basis", "list the centralizer basis E[i,j,r]"),
        ("generators", "compute the W-algebra generator table"),
        ("check-membership", "verify every generator against the projected bracket"),
        ("miura", "compute Miura images and compare against the diagonal product"),
        ("jacobian", "certify independence of the Miura leading terms"),
        ("ss-vectors", "compute the Segal-Sugawara vector table"),
        ("verify-center", "verify the vectors are annihilated by nonnegative modes"),
        ("verify-iso", "verify projected vectors match realized Miura images"),
        ("verify-commute", "verify the vectors commute pairwise"),
        ("pva-axioms", "verify bracket axioms on seeded random samples"),
        ("sweep", "run the census, membership, Miura, Jacobian, centre, iso and "
                  "commutativity checks, one row per partition"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("-p", "--partition", metavar="PARTS",
                        help="comma-separated nondecreasing parts, e.g. 1,2,2")
        sp.add_argument("--max-N", type=int, metavar="N",
                        help="sweep all partitions with at most N boxes")
        sp.add_argument("--max-n", type=int, metavar="LEN",
                        help="cap the number of parts during a sweep")
        if name in MODE_COMMANDS:
            sp.add_argument("--mode", choices=["generators", "full"], default="full",
                            help="membership test set (default: full)")
        if name in SEED_COMMANDS:
            sp.add_argument("--seed", type=int, default=None,
                            help="seed for sampled checks (default: WCENT_SEED or 0)")
        if name == "pva-axioms":
            sp.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                            help="sample count (default: %(default)s)")
        sp.add_argument("--format", dest="fmt", choices=["text", "json", "latex"],
                        default="text", help="report format (default: text)")
        if name == "sweep":
            sp.add_argument("--center-bound", type=int, default=DEFAULT_CENTER_BOUND,
                            metavar="N",
                            help="run the centre and iso checks for N up to this "
                                 "(default: %(default)s)")
            sp.add_argument("--commute-bound", type=int, default=DEFAULT_COMMUTE_BOUND,
                            metavar="N",
                            help="run pairwise commutativity for N up to this "
                                 "(default: %(default)s)")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.partition is not None and args.max_N is not None:
        raise ValueError("give either --partition or --max-N, not both")
    if args.partition is not None:
        if args.max_n is not None:
            raise ValueError("--max-n caps a sweep; give it with --max-N, not --partition")
        partitions = [Partition.parse(args.partition)]
    elif args.max_N is not None:
        if args.max_N < 1:
            raise ValueError("--max-N must be at least 1")
        if args.max_n is not None and args.max_n < 1:
            raise ValueError("--max-n must be at least 1")
        partitions = all_partitions(args.max_N, max_parts=args.max_n)
    else:
        raise ValueError("a partition (-p) or a sweep bound (--max-N) is required")
    if args.fmt == "latex" and args.command not in LATEX_COMMANDS:
        raise ValueError("latex format is not available for %s" % args.command)
    cfg = RunConfig(args.command, partitions, fmt=args.fmt)
    if args.command in SEED_COMMANDS:
        seed = os.environ.get("WCENT_SEED", "0") if args.seed is None else args.seed
        try:
            cfg.seed = int(seed)
        except ValueError:  # only the variable's text can fail: --seed is an int
            raise ValueError("WCENT_SEED must be an integer, got %r" % (seed,)) from None
        if cfg.seed < 0:
            raise ValueError("seed must be non-negative" if args.seed is not None else
                             "WCENT_SEED must be non-negative, got %d" % cfg.seed)
    if args.command == "pva-axioms":
        if args.samples < 1:
            raise ValueError("--samples must be at least 1")
        cfg.samples = args.samples
    if args.command in MODE_COMMANDS:
        cfg.mode = MembershipMode(args.mode)
    if args.command == "sweep":
        if min(args.center_bound, args.commute_bound) < 0:
            raise ValueError("--center-bound and --commute-bound must be non-negative")
        cfg.center_bound, cfg.commute_bound = args.center_bound, args.commute_bound
    return cfg


def render(report: Report, fmt: str, elapsed: float) -> str:
    if fmt == "json":
        return json.dumps(report.data, indent=2, sort_keys=True)
    if fmt == "latex":
        return report.latex or ""
    lines = list(report.lines)
    lines.append("%s: %s  [%.2fs]" % (report.command,
                                      "pass" if report.ok else "FAIL", elapsed))
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    start = time.perf_counter()
    report = dispatch(cfg)
    print(render(report, cfg.fmt, time.perf_counter() - start))
    return EXIT_PASS if report.ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
