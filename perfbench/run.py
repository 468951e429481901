#!/usr/bin/env python3
"""wcent benchmark: cold verification passes over families of partitions.

    python3 perfbench/run.py --workload classical|center|commute|all
                             [--seed N] [--seconds S] [--trace 0|1]

Each measured pass is a fresh process (``one_pass.py``) that imports wcent
from ``src/``, builds its seeded inputs and runs one verification pass, with
no warm-up.  Passes run one after another, never at the same time, until
``--seconds`` have gone by.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (process start to
inputs ready, median over the passes), ``verify_s`` and ``peak_rss_mb``
(median).  ``verify_s`` is the sum, over the steps of a pass, of each step's
fastest time among the run's passes.  The speed of a shared host drifts by
10-30 % over seconds to minutes: the fastest of many timings of one short
step removes the fast part of that drift, and scaling every time by a fixed
calibration workload timed the same way (``calibrate.py``) removes the slow
part.  ``--trace 1`` alternates plain and traced passes and reports the per-layer
metrics of the traced ones, with ``trace.overhead_ratio`` = traced / plain
``verify_s``.

Every pass is checked against ``reference.json``: each verdict against its
expected value, the number of checks of each kind, the output term count and
the digest of the serialized outputs.  A mismatch makes ``correct`` false
and the exit status 1.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibrate import CALIBRATION_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("classical", "center", "commute")
DEADLINE_S = 170.0  # a run of one workload must end within 180 s


def trace_metrics():
    """{name: unit} of the per-layer metrics a traced pass reports, from
    BENCHMARK.json; ``trace.overhead_ratio`` is computed by the run itself."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = json.load(fh)["per_layer"]
    return {m["name"]: m["unit"] for m in per_layer
            if m["name"] != "trace.overhead_ratio"}


class RunFailed(Exception):
    """A pass process failed or the run overran; no result can be given."""


def spawn(workload, seed, size, mode, deadline):
    """Run one pass process and return its record plus its set-up time."""
    spans = os.path.join(HERE, "spans", "%s.json" % workload)
    if mode == "traced":
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Cache bytecode inside the checkout, so only the first process pays for
    # compiling; otherwise setup_s would depend on the caller's environment.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "one_pass.py"),
             workload, str(seed), size, mode, spans],
            stdout=subprocess.PIPE, env=env, text=True,
            timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise RunFailed("%s %s pass overran the %.0f s deadline"
                        % (workload, mode, DEADLINE_S)) from None
    if proc.returncode != 0:
        raise RunFailed("%s %s pass exited with status %d"
                        % (workload, mode, proc.returncode))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record, record["ready"] - start


def fastest_steps(records, key="laps"):
    """Sum over the steps in ``record[key]`` of each step's fastest time in ``records``."""
    if len({len(r[key]) for r in records}) != 1:
        raise RunFailed("passes of one workload made different numbers of steps")
    return sum(min(step) for step in zip(*(r[key] for r in records)))


def check(record, ref, expected_verdicts):
    """Return (attempted, failed, complaints) for one pass against its reference."""
    attempted = failed = 0
    complaints = []
    for kind in sorted(set(ref["checks"]) | set(record["verdicts"])):
        passed, not_passed = record["verdicts"].get(kind, (0, 0))
        want = ref["checks"].get(kind, 0)
        wrong = not_passed if expected_verdicts.get(kind, True) else passed
        missing = abs(want - passed - not_passed)  # a check that vanished or appeared
        attempted += max(want, passed + not_passed)
        failed += wrong + missing
        if wrong or missing:
            complaints.append("%s: %d wrong verdicts, %d checks made, %d expected"
                              % (kind, wrong, passed + not_passed, want))
    for key in ("output_terms", "digest"):
        attempted += 1
        if record[key] != ref[key]:
            failed += 1
            complaints.append("%s: got %s, reference %s" % (key, record[key], ref[key]))
    return attempted, failed, complaints


def run_workload(workload, seed, seconds, trace, size, reference):
    """Measure one workload.

    Returns (attempted, failed, metrics, samples): metrics maps each name to
    (value, unit, sample count); samples holds the raw per-process values.
    """
    ref = reference["workloads"][workload][size]
    expected = reference["expected_verdicts"]
    t_begin = time.monotonic()
    deadline = t_begin + DEADLINE_S
    setups, plain, traced = [], [], []
    attempted = failed = 0

    def measure(mode, into):
        nonlocal attempted, failed
        record, setup = spawn(workload, seed, size, mode, deadline)
        setups.append(setup)
        a, f, complaints = check(record, ref, expected)
        attempted += a
        failed += f
        for line in complaints:
            print("MISMATCH %s %s pass: %s" % (workload, mode, line), file=sys.stderr)
        into.append(record)

    # Repeat while one more round of the same length still ends within --seconds.
    modes = ("plain", "traced") if trace else ("plain",)
    while True:
        round_start = time.monotonic()
        for mode in modes:
            measure(mode, traced if mode == "traced" else plain)
        now = time.monotonic()
        if now + (now - round_start) > min(t_begin + seconds, deadline):
            break

    # Timings are reported at the host speed at which the calibration takes
    # CALIBRATION_REF_S (see calibrate.py).
    calibration_s = fastest_steps(plain + traced, "calibration_laps")
    scale = CALIBRATION_REF_S / calibration_s
    samples = {"calibration_s": calibration_s, "setup_s": setups,
               "pass_s": [r["verify_s"] for r in plain]}
    if not trace:
        rss = [r["peak_rss_mb"] for r in plain]
        samples.update(peak_rss_mb=rss, verify_s_unscaled=fastest_steps(plain))
        metrics = {"setup_s": (scale * statistics.median(setups), "s", len(setups)),
                   "verify_s": (scale * fastest_steps(plain), "s", len(plain)),
                   "peak_rss_mb": (statistics.median(rss), "MB", len(plain))}
        return attempted, failed, metrics, samples
    samples["traced pass_s"] = [r["verify_s"] for r in traced]
    # Counts repeat exactly from pass to pass; median_low keeps them whole.
    metrics = {name: (scale * statistics.median(r["layers"][name] for r in traced)
                      if unit == "s" else
                      statistics.median_low(r["layers"][name] for r in traced), unit, len(traced))
               for name, unit in trace_metrics().items()}
    metrics["trace.overhead_ratio"] = (
        fastest_steps(traced) / fastest_steps(plain), "ratio", len(traced))
    return attempted, failed, metrics, samples


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256():
    sha = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "wcent", "*.py"))):
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny (N <= 3) is for the benchmark's self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wcent", "__init__.py")):
        print("error: no wcent sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    meta = {"python": platform.python_version(), "git_sha": git_sha(),
            "source_sha256": source_sha256(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg_1m": os.getloadavg()[0], "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace, "samples": {}}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for w in workloads:
            a, f, values, samples = run_workload(
                w, args.seed, args.seconds, args.trace, args.size, reference)
            attempted += a
            failed += f
            prefix = "%s." % w if args.workload == "all" else ""
            for name, (value, unit, n) in values.items():
                metrics[prefix + name] = {"value": value, "unit": unit}
                shown = "%d" % value if isinstance(value, int) else "%.6g" % value
                print("%-10s %-32s %14s %-5s (%d passes)" % (w, name, shown, unit, n))
            print("%-10s %-32s %14.6g %-5s (%d of %d checks failed)"
                  % (w, "fail_ratio", f / a, "ratio", f, a))
            meta["samples"][w] = samples
    except RunFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
