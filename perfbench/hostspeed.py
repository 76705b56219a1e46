"""Host speed probe: a fixed piece of work, independent of tribip, timed just
before each timed call.

The benchmark runs on a few cores of a shared host.  Their speed changes by
up to a factor of two over seconds to minutes, in spells that can outlast a
whole run, and CPU time slows with wall time (the cores run slower; the
process is not descheduled).  Times scaled by REFERENCE_S / probe time are
the times the calls would have taken at one fixed host speed, the speed at
which the probe takes REFERENCE_S.  A change to tribip moves the call times
and not the probe, so it shows in full.

The probe does what tribip's inner loops do: it hashes small integer tuples
into a dict and runs small numpy array operations.  It allocates no objects
the cyclic garbage collector tracks, so the size of tribip's heap does not
change its time.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.010     # probe time that defines the reference host speed

_KEYS = [(i * 7919 % 1009, i % 97, i % 13) for i in range(4096)]
_TABLE = dict.fromkeys(_KEYS, 1)
_VECTOR = np.arange(512.0)


def _work() -> float:
    table, total = _TABLE, 0
    for _ in range(12):
        for key in _KEYS:
            total += table[key] + key[0]
    vector = _VECTOR
    for _ in range(300):
        total += float((vector * 1.0001 + 1.0).sum())
    return total


def probe() -> tuple[float, float]:
    """Run the probe once; return its wall and CPU seconds."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0, time.process_time() - c0


def at_reference(seconds: float, probe_seconds: float) -> float:
    """`seconds`, measured next to a probe that took `probe_seconds`,
    scaled to the reference host speed."""
    return seconds * REFERENCE_S / probe_seconds
