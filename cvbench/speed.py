"""The speed probe: a fixed piece of reference work that tells how fast the
machine runs at the moment, so that timings can be freed of its drift.

On a shared host the same call runs up to twice as slow for stretches of
seconds, and interpreter-bound loops slow down more than BLAS-bound ones.
Every pass therefore runs this probe between its calls (at least every
PROBE_INTERVAL_S), and each call's seconds are divided by the mean of the
probes just before and just after it and multiplied by NOMINAL_S: seconds
at reference speed. The probe mixes the two kinds of work cvmc does, a
Philox-reset loop over short rows and a batched cumsum/exp/Gram product,
in about the shares the stream-bound and moment-bound workloads have. It
uses numpy only and no cvmc code, so no change to cvmc moves it.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31). Only a scale: it makes the normalised figures read as
# seconds on that machine.
NOMINAL_S = 0.050
PROBE_INTERVAL_S = 0.6

_LOOP_ROWS = 4000
_ROW_LENGTH = 30
_MATRIX_BATCHES = 10
_MATRIX_SHAPE = (2000, 31)


def _loop_work() -> float:
    """Per-row Philox state resets, as a per-run stream does."""
    philox = np.random.Philox(key=np.array([5, 0], dtype=np.uint64))
    generator = np.random.Generator(philox)
    state = philox.state
    counter, key = state["state"]["counter"], state["state"]["key"]
    out = np.empty((_LOOP_ROWS, _ROW_LENGTH))
    for row in range(_LOOP_ROWS):
        counter[:] = 0
        key[1] = row
        state["buffer_pos"] = 4
        philox.state = state
        out[row] = 0.001 + 0.01 * generator.standard_normal(_ROW_LENGTH)
    return float(out.sum())


def _matrix_work() -> float:
    """Batched path building and a Gram product, as moment accumulation does."""
    generator = np.random.Generator(np.random.Philox(key=7))
    total = 0.0
    for _ in range(_MATRIX_BATCHES):
        paths = np.exp(np.cumsum(0.01 * generator.standard_normal(_MATRIX_SHAPE), axis=1))
        total += float((paths.T @ paths).sum())
    return total


def probe() -> float:
    """Seconds the reference work takes now."""
    started = time.perf_counter()
    _loop_work()
    _matrix_work()
    return time.perf_counter() - started


def at_reference_speed(seconds: float, probe_seconds: float) -> float:
    """``seconds`` measured while the probe took ``probe_seconds``, rescaled
    to a machine on which the probe takes NOMINAL_S."""
    return seconds * NOMINAL_S / probe_seconds
