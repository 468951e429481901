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

`COMMANDS` declares each command once, and the parser built from it
accepts only the options a command reads.  -p reports one partition; --max-N
reports `runs` and a `sweep over ...` line, even for one partition.  Every
usage error, argparse's own too, is one `error: ...` line on stderr.

Exit status: 0 all checks passed, 1 a verification failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import combinations
from typing import Callable, NamedTuple, Optional

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


@dataclass
class RunConfig:
    command: str
    partitions: Partition | list[Partition]  # -p's one, or --max-N's, reported as runs
    seed: int = 0
    fmt: str = "text"
    samples: int = 100
    center_bound: int = 5
    commute_bound: int = 4


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

    ok: bool
    data: Callable[[], dict]
    lines: Callable[[], list[str]]
    latex: Optional[Callable[[], str]] = None
    command: str = ""  # set by `run`

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


def _entry_report(p: Partition, results: dict, witness: Callable, title: str,
                  **extra) -> Report:
    """The report of a check judged entry by entry: `results` maps each table
    key to a result with `.ok`, and `witness(result)` renders a failed one."""
    ok = all(res.ok for res in results.values())

    def data():
        entries = {key: {"pass": True} if res.ok else {"pass": False, "witness": witness(res)}
                   for key, res in results.items()}
        return {"partition": str(p), **extra, "entries": entries, "ok": ok}

    return Report(ok, data, lambda: _verdict_lines(
        title, {key: res.ok for key, res in results.items()}))


def _run_basis(ctx: Context) -> Report:
    p = ctx.p
    basis = centralizer_basis(p)
    return Report(
        True, lambda: {"partition": str(p), "dim": len(basis),
                       "basis": [[e.i, e.j, e.r] for e in basis]},
        lambda: ["partition %s: dim %d" % (p, len(basis))]
        + ["  " + e.text() for e in basis],
        lambda: "\\begin{itemize}\n%s\n\\end{itemize}" % "\n".join(
            r"\item $%s$" % sz.latex_var(DiffVar.of(e)) for e in basis))


def _run_table(name: str, ctx: Context) -> Report:
    """`generators` (entries w[k][r]) or `ss-vectors` (phi[k][r]): the table."""
    w = name == "w"
    t = ctx.table(w_generators if w else ss_vectors)
    to_json = sz.generator_table_to_json if w else sz.sugawara_table_to_json
    return Report(
        True, lambda: to_json(t),
        lambda: ["partition %s: %d %s" % (t.partition, len(t), "generators" if w else "vectors")]
        + ["  %s[%d][%d] = %s" % (name, k, r, entry.text()) for (k, r), entry in t.ordered()],
        lambda: sz.latex_table(t, "w" if w else r"\phi"))


def _run_check_membership(ctx: Context) -> Report:
    results = {sz.table_key("w", k, r): w_membership(ctx.p, poly)
               for (k, r), poly in ctx.table(w_generators).ordered()}
    return _entry_report(
        ctx.p, results,
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

    return Report(ok, data, lines, lambda: sz.latex_table(mt, "w"))


def _run_jacobian(ctx: Context) -> Report:
    p = ctx.p
    cert = jacobian_independence(p, seed=ctx.cfg.seed, mt=ctx.table(miura_generators))
    return Report(
        cert.ok,
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


def _run_verify_center(ctx: Context) -> Report:
    results = {sz.table_key("phi", k, r): center_check(v)
               for (k, r), v in ctx.table(ss_vectors).ordered()}

    def witness(res):
        x, m, img = res.witness
        return {"x": [x.i, x.j, x.r], "m": m, "image": sz.vacuum_to_json(img)}

    return _entry_report(ctx.p, results, witness, "partition %s: centre check" % ctx.p)


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

    return Report(rep.ok, data, lambda: _verdict_lines(
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
        return Report(True, lambda: {"partition": str(p), "ok": True}, lambda: [head])
    ka, kb, c = failed
    pair = [sz.table_key("phi", *ka), sz.table_key("phi", *kb)]
    return Report(False,
                  lambda: {"partition": str(p), "ok": False,
                           "witness": {"pair": pair, "commutator": sz.vacuum_to_json(c)}},
                  lambda: [head, "  [%s, %s] = %s" % (pair[0], pair[1], c.text())])


def _run_pva_axioms(ctx: Context) -> Report:
    p = ctx.p
    rep = pva_axiom_suite(p, seed=ctx.cfg.seed, samples=ctx.cfg.samples)
    return Report(
        rep.ok,
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
    return Report(row["ok"], lambda: dict(row),
                  lambda: ["%-12s %s  (%.2fs)" % (p, marks, seconds)])


class Command(NamedTuple):
    """A command: its runner, its help text, the options it reads besides
    -p, --max-N, --max-n and --format, and whether it prints LaTeX."""

    run: Callable[[Context], Report]
    help: str
    options: tuple[str, ...] = ()
    latex: bool = False


COMMANDS = {
    "basis": Command(_run_basis, "list the centralizer basis E[i,j,r]", latex=True),
    "generators": Command(partial(_run_table, "w"), "compute the W-algebra generator table",
                          latex=True),
    "check-membership": Command(_run_check_membership,
                                "verify every generator against the projected bracket"),
    "miura": Command(_run_miura,
                     "compute Miura images and compare against the diagonal product",
                     latex=True),
    "jacobian": Command(_run_jacobian, "certify independence of the Miura leading terms",
                        ("seed",), latex=True),
    "ss-vectors": Command(partial(_run_table, "phi"),
                          "compute the Segal-Sugawara vector table", latex=True),
    "verify-center": Command(_run_verify_center,
                             "verify the vectors are annihilated by nonnegative modes"),
    "verify-iso": Command(_run_verify_iso,
                          "verify projected vectors match realized Miura images"),
    "verify-commute": Command(_run_verify_commute, "verify the vectors commute pairwise"),
    "pva-axioms": Command(_run_pva_axioms, "verify bracket axioms on seeded random samples",
                          ("seed", "samples")),
    "sweep": Command(_run_sweep, "run the census, membership, Miura, Jacobian, centre, iso "
                                 "and commutativity checks, one row per partition",
                     ("seed", "center_bound", "commute_bound")),
}

# The options of Command.options, each a RunConfig field and defaulting to
# its default there, spelt as the field with dashes: least value and help.
OPTIONS = {
    "seed": (0, "seed for sampled checks"),
    "samples": (1, "sample count"),
    "center_bound": (0, "run the centre and iso checks for N up to this"),
    "commute_bound": (0, "run pairwise commutativity for N up to this"),
}


def run(command: str, ctx: Context) -> Report:
    """Run one command on the context's partition under the N-entry rule:
    the report fails if any table the runner read has other than N entries."""
    start = len(ctx.read)
    rep = COMMANDS[command].run(ctx)
    return replace(rep, command=command,
                   ok=rep.ok and all(len(t) == ctx.p.N for t in ctx.read[start:]))


def dispatch(cfg: RunConfig) -> Report:
    """Run the command on -p's partition, or on each of --max-N's with one
    context each and merge the reports; the merged builders call each
    partition's."""
    if isinstance(cfg.partitions, Partition):
        return run(cfg.command, Context(cfg.partitions, cfg))
    parts = [run(cfg.command, Context(p, cfg)) for p in cfg.partitions]
    ok = all(r.ok for r in parts)
    latex = (lambda: "\n\\par\n".join(r.latex() for r in parts)) \
        if COMMANDS[cfg.command].latex else None
    return Report(
        ok, lambda: {"command": cfg.command, "ok": ok, "runs": [r.json() for r in parts]},
        lambda: [line for r in parts for line in r.lines()]
        + ["sweep over %d partitions: %s" % (len(parts), "pass" if ok else "FAIL")],
        latex, cfg.command)


# -- argument handling -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors as ValueError, which `main` reports as it
    reports its own: one `error:` line and exit 2, never argparse's exit."""

    def error(self, message: str):
        raise ValueError(message)


def integer(least: int) -> Callable[[str], int]:
    """The type of an integer option whose value must be at least `least`.
    It reads ASCII digits after an optional minus sign only, since int()
    also reads other scripts' digits and underscores ("\u0663", "1_0")."""
    def read(text: str) -> int:
        digits = text[1:] if text.startswith("-") else text
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError("invalid integer value: %r" % text)
        if int(text) < least:
            raise argparse.ArgumentTypeError("must be at least %d, not %s" % (least, text))
        return int(text)
    return read


def partition(text: str) -> Partition:
    """-p's type: `Partition.parse`, keeping its message."""
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wcent",
        description="Exact verification of W-algebra generators for centralizers "
                    "and the centre of the affine vertex algebra at the critical level.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        target = sp.add_mutually_exclusive_group(required=True)
        target.add_argument("-p", "--partition", type=partition, metavar="PARTS",
                            help="comma-separated nondecreasing parts, e.g. 1,2,2")
        target.add_argument("--max-N", type=integer(1), metavar="N",
                            help="sweep all partitions with at most N boxes")
        sp.add_argument("--max-n", type=integer(1), metavar="LEN",
                        help="cap the number of parts during a sweep")
        for dest in command.options:
            least, help_text = OPTIONS[dest]
            sp.add_argument("--" + dest.replace("_", "-"), type=integer(least),
                            default=getattr(RunConfig, dest),
                            help=help_text + " (default: %(default)s)")
        sp.add_argument("--format", dest="fmt", default="text",
                        choices=["text", "json"] + ["latex"] * command.latex,
                        help="report format (default: text)")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run that parsed arguments ask for, under the one rule the parser
    does not hold: --max-n caps a --max-N sweep."""
    if args.max_N is None:
        if args.max_n is not None:
            raise ValueError("--max-n caps a sweep; give it with --max-N, not --partition")
        partitions = args.partition
    else:
        partitions = all_partitions(args.max_N, max_parts=args.max_n)
    return RunConfig(args.command, partitions, fmt=args.fmt,
                     **{dest: getattr(args, dest) for dest in COMMANDS[args.command].options})


def render(report: Report, fmt: str, elapsed: float) -> str:
    if fmt == "json":
        return json.dumps(report.json(), indent=2, sort_keys=True)
    if fmt == "latex":
        return report.latex()
    return "\n".join(report.lines() + ["%s: %s  [%.2fs]" % (
        report.command, "pass" if report.ok else "FAIL", elapsed)])


def main(argv: Optional[list[str]] = None) -> int:
    """Run the command line; only --help leaves by SystemExit."""
    try:
        cfg = config_from_args(build_parser().parse_args(argv))
    except ValueError as exc:  # one line, even for an argument that holds a newline
        print("error: %s" % str(exc).replace("\n", "\\n"), file=sys.stderr)
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
