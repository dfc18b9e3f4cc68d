"""A fixed reference workload that tracks this machine's momentary speed.

On a shared host the machine's speed drifts as other tenants come and go.
On the 2-core Xeon this benchmark was tuned on, a process on the other
hardware thread halved the speed of every kind of work here, and over ten
`analyze` runs the wall-clock operations per second spread by 24 % (quartile
distance over median); slow spells last from under a second to minutes.  The
reference is timed between the benchmark's operations; each operation's time
is divided by the reference time measured around it and multiplied by
``NOMINAL_S``, the reference time of that machine at its calm speed.  The
result reads as seconds at that speed.  The reference is made of the kinds of
work the package does (Python bytecode, small and medium dense Hermitian
eigensolvers, JSON text), because a slow spell does not slow every kind of
work alike; it is the geometric mean of the four parts' times.

The reference uses only Python, numpy and json, never the package under
test, so a change to the package cannot move it.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

# Geometric mean of the four parts on the tuning machine when calm (parts of
# about 1.0, 0.35, 1.8 and 1.0 ms).
NOMINAL_S = 1.0e-3

_rng = np.random.default_rng(20260101)
_SMALL = [m + m.T for m in _rng.standard_normal((20, 16, 16))]
_MEDIUM = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_MEDIUM = _MEDIUM + _MEDIUM.conj().T
_DOC = [[[float(x), float(-x)] for x in row] for row in _rng.standard_normal((8, 64))]


def _bytecode() -> int:
    s = 0
    for i in range(15_000):
        s += i * i % 7
    return s


def _small_eigs() -> None:
    for m in _SMALL:
        np.linalg.eigvalsh(m)


def _medium_eig() -> None:
    np.linalg.eigh(_MEDIUM)


def _json_text() -> None:
    json.loads(json.dumps(_DOC))


PARTS = (_bytecode, _small_eigs, _medium_eig, _json_text)


def sample() -> float:
    """One reference time in seconds: the geometric mean of the parts' times."""
    logs = 0.0
    for part in PARTS:
        t0 = time.perf_counter()
        part()
        logs += math.log(time.perf_counter() - t0)
    return math.exp(logs / len(PARTS))
