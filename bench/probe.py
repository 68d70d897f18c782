"""A fixed amount of pure-Python work that measures the host's current speed.

The shared host's speed changes with other tenants' load: a pass can take
1.8x longer in a loaded phase, and phases last from a fraction of a second to
many minutes.  Each pass times this probe just before and just after its timed
section, and the benchmark reports its times scaled to the speed at which the
probe takes REFERENCE_S, so a slow phase that slows both the pass and the
probe cancels out.

The probe does what the library spends its time on, with none of the
library's code: exponent-tuple building and componentwise comparison
(monomial containment) and Fraction dot products (the double-description
hull and the cover LP).  A change to the library cannot change its time.
"""

import time
from fractions import Fraction

# Probe time on the reference host (2 vCPUs of an Intel Xeon, Python 3.11)
# in an unloaded phase; the scale factor is REFERENCE_S / measured time.
REFERENCE_S = 0.1

_GENS = [(i % 7, (i * 3) % 11, (i * 5) % 13) for i in range(1, 61)]
_POINTS = [(i % 9, (i * 2) % 12, (i * 7) % 14) for i in range(1, 61)]
_ROWS = [[Fraction(i * j + 1, i + j + 2) for j in range(6)] for i in range(6)]
_TUPLE_ROUNDS = 40
_FRACTION_ROUNDS = 400
# what one probe computes, checked so that the work cannot silently change
_EXPECTED = (1720, Fraction(78748529, 29106))


def _work():
    hits = 0
    for _ in range(_TUPLE_ROUNDS):
        for point in _POINTS:
            point = tuple(int(e) for e in point)
            if any(all(a <= b for a, b in zip(g, point)) for g in _GENS):
                hits += 1
    acc = Fraction(0)
    for _ in range(_FRACTION_ROUNDS):
        for row in _ROWS:
            acc += sum(a * b for a, b in zip(row, _ROWS[0]))
    return hits, acc


def probe_seconds() -> float:
    """Wall time of one probe."""
    start = time.perf_counter()
    result = _work()
    elapsed = time.perf_counter() - start
    if result != _EXPECTED:
        raise RuntimeError(f"speed probe computed {result}, not {_EXPECTED}")
    return elapsed
