"""Command-line front end for reproducible verification runs.

Every command works on one partition (-p) or sweeps all partitions up to a
bound (--max-N, optionally capped in length by --max-n).  Reports render as
text, JSON, or LaTeX; JSON reports are deterministic byte-for-byte for a
fixed configuration (sorted keys, canonical term order, no timings), so two
seeded runs can be diffed directly.

Runners decide; reports render on demand.  A runner computes its verdict and
returns a `Report` that holds it together with builders for the JSON data,
the text lines and the LaTeX, and only the format that is printed is built.

`sweep` checks the whole claim for each partition by calling the other
runners: census (`generators`), membership, Miura and Jacobian always;
centre and iso for N <= --center-bound; pairwise commutativity
(`verify-commute`) for N <= --commute-bound.  Each row holds one verdict per
check that ran, and a failed check's report data under `witnesses`; a check
that passed is never rendered.

Each partition gets one `Context`.  Runners read the generator, Miura and
Segal-Sugawara tables only through `Context.table`, which builds each at most
once per partition, so every check in a sweep row judges the same tables.
Every command and every sweep check goes through `run`, which holds the one
N-entry rule: a runner fails if any table it read has other than N entries,
so an empty table never passes.  So a runner reads its tables before it
returns, never inside a builder.  `miura` and `verify-iso`, which read two
tables, also fail unless their keys agree.  A failed entry carries what it was
compared with: `miura` the expected Miura table entry, `verify-iso` the
difference of the two sides.

A subcommand accepts only the options it reads: --seed on `jacobian`,
`pva-axioms` and `sweep`, --samples on `pva-axioms`; any other use is a usage
error.

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
from .pva import pva_axiom_suite, w_membership

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_SAMPLES = 100
DEFAULT_CENTER_BOUND = 5
DEFAULT_COMMUTE_BOUND = 4

LATEX_COMMANDS = {"basis", "generators", "miura", "ss-vectors", "jacobian"}
SEED_COMMANDS = {"jacobian", "pva-axioms", "sweep"}


@dataclass
class RunConfig:
    command: str
    partitions: list[Partition]
    seed: int = 0
    fmt: str = "text"
    samples: int = DEFAULT_SAMPLES
    center_bound: int = DEFAULT_CENTER_BOUND
    commute_bound: int = DEFAULT_COMMUTE_BOUND


@dataclass
class Report:
    """One command's outcome: the verdict `ok`, decided by the runner, and
    builders that render it on demand: `data` (the JSON payload, witnesses of
    failed checks included), `lines` (text) and `latex` (None for a command
    without LaTeX).  A builder reads no table and builds afresh on each call;
    it closes over what it prints (the partition and the results), never the
    `Context`, so a finished partition's tables can be freed.  Timings appear
    only in the text, never in `data`.
    """

    command: str
    ok: bool
    data: Callable[[], dict]
    lines: Callable[[], list[str]]
    latex: Optional[Callable[[], str]] = None

    def json(self) -> dict:
        """The payload, with its "ok" key (where it has one) set to the verdict."""
        data = self.data()
        if "ok" in data:
            data["ok"] = self.ok
        return data


@dataclass
class Context:
    """One partition's run: the tables its runners read, each built once.

    `read` lists every table handed out, in order, so that `run` can judge
    the tables of one runner by their slice of it (a sweep's slice spans
    its checks'); so tables are read before the runner returns.
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


def _verdict_lines(title: str, verdicts: dict) -> list[str]:
    """`title`, then one `  key: pass/FAIL` line per key in sorted order."""
    return [title] + ["  %s: %s" % (key, "pass" if verdicts[key] else "FAIL")
                      for key in sorted(verdicts)]


def _entry_report(command: str, p: Partition, results: dict, witness: Callable,
                  title: str, **extra) -> Report:
    """The report of a check judged entry by entry: `results` maps each table
    key to a result with `.ok`, and `witness(result)` renders a failed one."""
    ok = all(res.ok for res in results.values())

    def data():
        entries = {key: {"pass": True} if res.ok else {"pass": False, "witness": witness(res)}
                   for key, res in results.items()}
        return {"partition": str(p), **extra, "entries": entries, "ok": ok}

    return Report(command, ok, data, lambda: _verdict_lines(
        title, {key: res.ok for key, res in results.items()}))


def _run_basis(ctx: Context) -> Report:
    p = ctx.p
    basis = centralizer_basis(p)
    return Report(
        "basis", True,
        lambda: {"partition": str(p), "dim": len(basis),
                 "basis": [[e.i, e.j, e.r] for e in basis]},
        lambda: ["partition %s: dim %d" % (p, len(basis))]
        + ["  " + e.text() for e in basis],
        lambda: "\\begin{itemize}\n%s\n\\end{itemize}" % "\n".join(
            r"\item $%s$" % sz.latex_var(DiffVar.of(e)) for e in basis))


def _run_generators(ctx: Context) -> Report:
    t = ctx.table(w_generators)
    return Report(
        "generators", True, lambda: sz.generator_table_to_json(t),
        lambda: ["partition %s: %d generators" % (t.partition, len(t))]
        + ["  w[%d][%d] = %s" % (k, r, poly.text()) for (k, r), poly in t.ordered()],
        lambda: sz.latex_table(t, "w"))


def _run_check_membership(ctx: Context) -> Report:
    results = {sz.table_key("w", k, r): w_membership(ctx.p, poly)
               for (k, r), poly in ctx.table(w_generators).ordered()}
    return _entry_report(
        "check-membership", ctx.p, results,
        lambda res: {"x": [res.witness_x.i, res.witness_x.j, res.witness_x.r],
                     "bracket": sz.lambdapoly_to_json(res.witness_bracket)},
        "partition %s: membership (full mode)" % ctx.p, mode="full")


def _run_miura(ctx: Context) -> Report:
    p = ctx.p
    wt = ctx.table(w_generators)
    mt = ctx.table(miura_generators)
    images = [(sz.table_key("w", k, r), miura_image(poly), mt.entries.get((k, r)))
              for (k, r), poly in wt.ordered()]
    unmatched = sorted(set(wt.entries) ^ set(mt.entries))
    ok = not unmatched and all(img == expected for _, img, expected in images)

    def data():
        entries = {}
        for key, img, expected in images:
            entries[key] = {"pass": img == expected, "image": sz.diffpoly_to_json(img)}
            if img != expected:
                entries[key]["expected"] = (None if expected is None
                                            else sz.diffpoly_to_json(expected))
        out = {"partition": str(p), "entries": entries, "ok": ok}
        if unmatched:
            out["unmatched"] = [sz.table_key("w", k, r) for k, r in unmatched]
        return out

    def lines():
        return ["partition %s: Miura images" % p] + [
            "  %s -> %s%s" % (key, img.text(), "" if img == expected else
                              "  MISMATCH (expected %s)" % (
                                  "nothing" if expected is None else expected.text()))
            for key, img, expected in images]

    return Report("miura", ok, data, lines, lambda: sz.latex_table(mt, "w"))


def _run_jacobian(ctx: Context) -> Report:
    p = ctx.p
    cert = jacobian_independence(p, seed=ctx.cfg.seed, mt=ctx.table(miura_generators))
    return Report(
        "jacobian", cert.ok,
        lambda: {
            "partition": str(p),
            "nonzero": cert.nonzero,
            "det": sz.rat_to_json(cert.det),
            "seed": cert.seed,
            "attempts": cert.attempts,
            "point": {v.text(): sz.rat_to_json(q) for v, q in sorted(cert.point.items())},
            "poly_order": [sz.table_key("w", k, r) for k, r in cert.poly_order],
            "var_order": [v.text() for v in cert.var_order],
            "symbolic": {"computed": cert.symbolic_det is not None,
                         "nonzero": cert.symbolic_nonzero},
            "ok": cert.ok,
        },
        lambda: ["partition %s: Jacobian determinant %s at seed %d (%d attempt%s)%s" % (
            p, cert.det, cert.seed, cert.attempts, "s" if cert.attempts != 1 else "",
            "" if cert.symbolic_det is None else
            "; symbolic check %s" % ("nonzero" if cert.symbolic_nonzero else "ZERO"))],
        lambda: r"\det J = %s" % sz.latex_rat(cert.det) + (
            "" if cert.symbolic_det is None else
            ",\\qquad \\det J(E) = %s" % sz.latex_diffpoly(cert.symbolic_det)))


def _run_ss_vectors(ctx: Context) -> Report:
    t = ctx.table(ss_vectors)
    return Report(
        "ss-vectors", True, lambda: sz.sugawara_table_to_json(t),
        lambda: ["partition %s: %d vectors" % (t.partition, len(t))]
        + ["  phi[%d][%d] = %s" % (k, r, v.text()) for (k, r), v in t.ordered()],
        lambda: sz.latex_table(t, r"\phi"))


def _run_verify_center(ctx: Context) -> Report:
    results = {sz.table_key("phi", k, r): center_check(v)
               for (k, r), v in ctx.table(ss_vectors).ordered()}

    def witness(res):
        x, m, img = res.witness
        return {"x": [x.i, x.j, x.r], "m": m, "image": sz.vacuum_to_json(img)}

    return _entry_report("verify-center", ctx.p, results, witness,
                         "partition %s: centre check" % ctx.p)


def _run_verify_iso(ctx: Context) -> Report:
    rep = w_correspondence(ctx.p, ctx.table(w_generators), ctx.table(ss_vectors))
    keys = {sz.table_key("phi", *key): key for key in sorted(rep.matches)}

    def data():
        entries = {}
        for name, key in keys.items():
            entries[name] = {"match": rep.matches[key], "translation": rep.translation_ok[key]}
            if key in rep.differences:
                entries[name]["difference"] = sz.vacuum_to_json(rep.differences[key])
        out = {"partition": str(rep.partition), "entries": entries, "ok": rep.ok}
        if rep.unmatched:
            out["unmatched"] = [sz.table_key("phi", k, r) for k, r in rep.unmatched]
        return out

    return Report("verify-iso", rep.ok, data, lambda: _verdict_lines(
        "partition %s: Miura/Sugawara correspondence" % rep.partition,
        {name: rep.matches[key] and rep.translation_ok[key] for name, key in keys.items()}))


def _run_verify_commute(ctx: Context) -> Report:
    p = ctx.p
    t = ctx.table(ss_vectors)
    commutators = ((ka, kb, a * b - b * a)
                   for (ka, a), (kb, b) in combinations(t.ordered(), 2))
    failed = next(((ka, kb, c) for ka, kb, c in commutators if c), None)
    head = "partition %s: pairwise commutativity of %d vectors" % (p, len(t))
    if failed is None:
        return Report("verify-commute", True, lambda: {"partition": str(p), "ok": True},
                      lambda: [head])
    ka, kb, c = failed
    pair = [sz.table_key("phi", *ka), sz.table_key("phi", *kb)]
    return Report("verify-commute", False,
                  lambda: {"partition": str(p), "ok": False,
                           "witness": {"pair": pair, "commutator": sz.vacuum_to_json(c)}},
                  lambda: [head, "  [%s, %s] = %s" % (pair[0], pair[1], c.text())])


def _run_pva_axioms(ctx: Context) -> Report:
    p = ctx.p
    rep = pva_axiom_suite(p, seed=ctx.cfg.seed, samples=ctx.cfg.samples)
    return Report(
        "pva-axioms", rep.ok,
        lambda: {"partition": str(p), "seed": rep.seed, "samples": rep.samples,
                 "checked": dict(sorted(rep.checked.items())),
                 "failures": dict(sorted(rep.failures.items())), "ok": rep.ok},
        lambda: ["partition %s: bracket axioms on %d samples (seed %d)" % (
            p, rep.samples, rep.seed)]
        + ["  %s: %d checked, %d failed" % (name, n, rep.failures.get(name, 0))
           for name, n in sorted(rep.checked.items())])


# The sweep's checks in row order, each with the runner that decides it.
SWEEP_CHECKS = {"census": "generators", "membership": "check-membership",
                "miura": "miura", "jacobian": "jacobian", "center": "verify-center",
                "iso": "verify-iso", "commute": "verify-commute"}


def _run_sweep(ctx: Context) -> Report:
    p = ctx.p
    bound = {"center": ctx.cfg.center_bound, "iso": ctx.cfg.center_bound,
             "commute": ctx.cfg.commute_bound}
    row = {"partition": str(p), "N": p.N}
    witnesses = {}
    start = time.perf_counter()
    for check, command in SWEEP_CHECKS.items():
        if p.N > bound.get(check, p.N):
            continue
        rep = run(command, ctx)
        row[check] = rep.ok
        if not rep.ok:
            witnesses[check] = rep.json()
    seconds = time.perf_counter() - start
    row["ok"] = not witnesses
    if witnesses:
        row["witnesses"] = witnesses
    marks = " ".join("%s=%s" % (check, {True: "ok", False: "FAIL"}.get(row.get(check), "-"))
                     for check in SWEEP_CHECKS)
    return Report("sweep", row["ok"], lambda: dict(row),
                  lambda: ["%-12s %s  (%.2fs)" % (p, marks, seconds)])


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
    """Run one command on the context's partition under the N-entry rule:
    the report fails if any table the runner read has other than N entries."""
    start = len(ctx.read)
    rep = RUNNERS[command](ctx)
    rep.ok = rep.ok and all(len(t) == ctx.p.N for t in ctx.read[start:])
    return rep


def dispatch(cfg: RunConfig) -> Report:
    """Run the command over every configured partition, one context each, and
    merge the reports; the merged builders call each partition's."""
    parts = [run(cfg.command, Context(p, cfg)) for p in cfg.partitions]
    if len(parts) == 1:
        return parts[0]
    ok = all(r.ok for r in parts)
    latex = None if parts[0].latex is None else (
        lambda: "\n\\par\n".join(r.latex() for r in parts))
    return Report(
        cfg.command, ok,
        lambda: {"command": cfg.command, "ok": ok, "runs": [r.json() for r in parts]},
        lambda: [line for r in parts for line in r.lines()]
        + ["sweep over %d partitions: %s" % (len(parts), "pass" if ok else "FAIL")],
        latex)


# -- argument handling -----------------------------------------------------------


def integer(text: str) -> int:
    """An option's integer: ASCII digits after an optional minus sign, since
    int() also reads other scripts' digits and underscores ("\u0663", "1_0").
    The sign lets a negative value reach the option's own range message."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


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
        sp.add_argument("--max-N", type=integer, metavar="N",
                        help="sweep all partitions with at most N boxes")
        sp.add_argument("--max-n", type=integer, metavar="LEN",
                        help="cap the number of parts during a sweep")
        if name in SEED_COMMANDS:
            sp.add_argument("--seed", type=integer, default=0,
                            help="seed for sampled checks (default: %(default)s)")
        if name == "pva-axioms":
            sp.add_argument("--samples", type=integer, default=DEFAULT_SAMPLES,
                            help="sample count (default: %(default)s)")
        sp.add_argument("--format", dest="fmt", choices=["text", "json", "latex"],
                        default="text", help="report format (default: text)")
        if name == "sweep":
            sp.add_argument("--center-bound", type=integer, default=DEFAULT_CENTER_BOUND,
                            metavar="N",
                            help="run the centre and iso checks for N up to this "
                                 "(default: %(default)s)")
            sp.add_argument("--commute-bound", type=integer, default=DEFAULT_COMMUTE_BOUND,
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
        if args.seed < 0:
            raise ValueError("seed must be non-negative")
        cfg.seed = args.seed
    if args.command == "pva-axioms":
        if args.samples < 1:
            raise ValueError("--samples must be at least 1")
        cfg.samples = args.samples
    if args.command == "sweep":
        if min(args.center_bound, args.commute_bound) < 0:
            raise ValueError("--center-bound and --commute-bound must be non-negative")
        cfg.center_bound, cfg.commute_bound = args.center_bound, args.commute_bound
    return cfg


def render(report: Report, fmt: str, elapsed: float) -> str:
    if fmt == "json":
        return json.dumps(report.json(), indent=2, sort_keys=True)
    if fmt == "latex":
        return report.latex()
    return "\n".join(report.lines() + ["%s: %s  [%.2fs]" % (
        report.command, "pass" if report.ok else "FAIL", elapsed)])


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
    try:
        print(render(report, cfg.fmt, time.perf_counter() - start))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: the verdict still stands.  Point stdout at
        # devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_PASS if report.ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
