"""One measured process: set-up, then exactly one cold verification pass.

    python3 perfbench/one_pass.py WORKLOAD SEED SIZE MODE [SPANS_PATH]

MODE is ``plain`` (one pass, no wrapping installed) or ``traced`` (wrap
wcent first, then one pass, and write the spans to SPANS_PATH).  Prints one
JSON object on stdout, with the time of each step of the pass (``laps``)
and, taken after the pass, of each step of the host-speed calibration
(``calibration_laps``, see ``calibrate.py``).  The parent (``run.py``)
takes ``ready`` on the system-wide monotonic clock and subtracts the time at
which it started this process.
"""

import json
import resource
import sys
import time

import calibrate
import workloads


def main(argv):
    workload, seed, size, mode = argv[0], int(argv[1]), argv[2], argv[3]
    tracer = None
    if mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(workloads.W)
    inputs = workloads.build_inputs(workload, seed, size)
    ready = time.monotonic()
    out = workloads.Outcome()
    out.start()
    workloads.PASSES[workload](inputs, out)
    out.lap()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = spans = None
    if tracer is not None:  # taken before the digest adds serialize calls
        layers = dict(tracer.layer_metrics(), **{"serialize.bytes": out.serialized_bytes})
        spans = tracer.span_dump()
    record = dict(ready=ready, verify_s=sum(out.laps), laps=out.laps, peak_rss_mb=peak_rss_mb,
                  verdicts=out.verdicts, output_terms=out.output_terms,
                  digest=out.digest(), layers=layers, calibration_laps=calibrate.laps())
    if spans is not None:
        with open(argv[4], "w") as fh:
            json.dump(spans, fh, separators=(",", ":"))
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
