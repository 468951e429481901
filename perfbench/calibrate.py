"""A fixed pure-Python workload that measures the speed of the host.

The host's speed drifts by 10-30 % between windows of tens of seconds, the
same for every pure-Python computation that runs on it.  Each measured
process runs ``laps()`` after its pass; ``run.py`` takes the same
fastest-of-each-step estimate of it as of the pass and scales the run's
timings by ``CALIBRATION_REF_S`` / that estimate, so that they read as at
one fixed host speed.  It uses only the standard library, so no change to
wcent can change its time.
"""

from fractions import Fraction
from time import perf_counter

STEPS = 60
# Fastest-of-each-step estimate of ``laps()`` on an Intel Xeon vCPU at
# 2.1 GHz with Python 3.11; only its ratio to the measured estimate matters.
CALIBRATION_REF_S = 0.1

_A = {(i, j % 3, (i * j) % 5): Fraction(i + 1, j + 2) for i in range(7) for j in range(5)}
_B = {(i % 4, j, i % 2): Fraction(j - 3, i + 1) for i in range(6) for j in range(5)}


def _step():
    """Multiply two sparse polynomials with rational coefficients, then sort."""
    out = {}
    for ka, ca in _A.items():
        for kb, cb in _B.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            c = out.get(k, 0) + ca * cb
            if c:
                out[k] = c
            else:
                out.pop(k, None)
    return sorted(out.items())


def laps():
    """Seconds taken by each of ``STEPS`` runs of the same step."""
    res = []
    for _ in range(STEPS):
        t0 = perf_counter()
        _step()
        res.append(perf_counter() - t0)
    return res
