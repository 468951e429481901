#!/usr/bin/env python3
"""Full verification sweep over all partitions up to a size bound.

For each partition: generator census, full-basis membership, Miura
consistency, the Jacobian independence certificate, and — within the
affordable size bounds — centrality of the Segal-Sugawara vectors, the
projection/Miura correspondence, and pairwise commutativity.  Prints one
row per partition and exits nonzero if anything fails.
"""

import argparse
import json
import sys
import time
from itertools import combinations

from wcent import (MembershipMode, all_partitions, center_check,
                   jacobian_independence, miura_generators, miura_image,
                   ss_vectors, w_correspondence, w_generators, w_membership)


def sweep_partition(p, seed, center_bound, commute_bound):
    row = {"partition": str(p), "N": p.N, "ok": True}

    wt = w_generators(p)
    row["census"] = len(wt) == p.N

    row["membership"] = all(
        w_membership(p, poly, MembershipMode.FULL_BASIS).ok
        for poly in wt.entries.values())

    mt = miura_generators(p)
    row["miura"] = set(wt.entries) == set(mt.entries) and all(
        miura_image(poly) == mt.entries[key] for key, poly in wt.entries.items())

    cert = jacobian_independence(p, seed=seed)
    row["jacobian"] = cert.nonzero and cert.symbolic_nonzero is not False

    if p.N <= center_bound:
        st = ss_vectors(p)
        row["center"] = all(center_check(v).ok for v in st.entries.values())
        row["iso"] = w_correspondence(p, wt=wt, st=st).ok
        if p.N <= commute_bound:
            vs = list(st.entries.values())
            row["commute"] = all(a * b == b * a for a, b in combinations(vs, 2))

    row["ok"] = all(v for k, v in row.items() if k not in ("partition", "N"))
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-N", type=int, default=6,
                    help="largest partition size to sweep (default 6)")
    ap.add_argument("--center-bound", type=int, default=5,
                    help="run the affine-side checks for N up to this (default 5)")
    ap.add_argument("--commute-bound", type=int, default=4,
                    help="run pairwise commutativity for N up to this (default 4)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", metavar="PATH", help="also write rows as JSON")
    args = ap.parse_args(argv)
    if args.max_N < 1:
        ap.error("--max-N must be at least 1")

    checks = ["census", "membership", "miura", "jacobian", "center", "iso",
              "commute"]
    rows = []
    start = time.perf_counter()
    for p in all_partitions(args.max_N):
        t0 = time.perf_counter()
        row = sweep_partition(p, args.seed, args.center_bound, args.commute_bound)
        seconds = time.perf_counter() - t0
        rows.append(row)
        marks = " ".join("%s=%s" % (c, {True: "ok", False: "FAIL"}.get(row.get(c), "-"))
                         for c in checks)
        print("%-12s %s  (%.2fs)" % (row["partition"], marks, seconds))

    ok = all(r["ok"] for r in rows)
    print("\n%d partitions in %.2fs: %s"
          % (len(rows), time.perf_counter() - start, "all ok" if ok else "FAILURES"))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
        print("wrote", args.json)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
