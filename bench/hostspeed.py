"""How fast the host runs right now, from a fixed reference computation.

On a shared host, other tenants' load slows the same code for periods
from under a second to several minutes (by up to ~1.8x on a 2-vCPU
Xeon VM): longer than a run, so neither run length nor medians average
it out. The harness times this reference between ops all through a run and
scales every reported timing to a host on which it takes ``NOMINAL_S``.
Timings then follow fisherlab's cost rather than the neighbours' load.

The reference does the kinds of work fisherlab's ops do (small LAPACK
calls, JSON parsing, interpreted float arithmetic) and uses nothing of
fisherlab, so a change to fisherlab never changes it.
"""

from __future__ import annotations

import json
import time

import numpy as np

NOMINAL_S = 0.015
# Op time that may pass between two timings of the reference.
EVERY_S = 0.2

_rng = np.random.default_rng(0)
_raw = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_MATRIX = _raw + _raw.conj().T
_TEXT = json.dumps(_rng.standard_normal((40, 40)).tolist())


def reference_seconds() -> float:
    """Time one run of the reference computation."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(30):
        values, _vectors = np.linalg.eigh(_MATRIX)
        total += float(values[0])
        total += sum(x * x for row in json.loads(_TEXT)[:3] for x in row)
    for i in range(10_000):
        total += i * 0.5
    return time.perf_counter() - start
