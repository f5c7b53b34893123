"""Timing corrected for the host's changing speed.

On the 2-core shared host this benchmark was built on, each CPU switches
every few seconds between a fast and a slow phase about 1.9x apart, set by
load outside the machine.  The raw wall time of identical runs therefore
spreads by about ±25%, and the median of a one-minute window moves by as
much, depending on how much of the window was fast.

``timed`` calls a function and, every ``INTERVAL_S`` while it runs, lets a
SIGALRM interrupt it to time a fixed probe: Python-object arithmetic and
3x3 LAPACK calls, the same mix as the library's hot path, but none of the
library's code.  Each slice of the call between two probes is rescaled by
``PROBE_REF_S`` over the mean time of the probes at its two ends.  The sum
reads as seconds on a host where the probe takes ``PROBE_REF_S``.  The
probes' own time is left out of both the raw and the corrected figure.
The probes cost under 1% of the call.

The phases belong to one CPU, so run.py pins itself and the processes it
starts to one CPU: the probes then measure the CPU that the timed work runs
on.  While a child process does the work, probes in this process would
compete with it for that CPU and measure the competition, so such a call is
timed with ``sample=False``: one probe just before and one just after it,
which is enough for calls much shorter than a phase.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# The probe's time in a fast phase of the host the benchmark was built on.
PROBE_REF_S = 250e-6

_M = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, 0.2], [0.1, 0.2, 1.0]])

# (start, end) of each probe of the call being timed; None between calls
_probes: list[tuple[float, float]] | None = None


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b

    def __mul__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)


def _probe() -> tuple[float, float]:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(100):
        x = _Dual(1.0 + i * 1e-3, 1.0)
        y = x * x
        acc += math.log(y.a) + y.b
        if i % 10 == 0:
            w, v = np.linalg.eigh(_M)
            acc += float(((v * w) @ v.T).sum())
    return t0, time.perf_counter()


def _on_alarm(signum, frame) -> None:
    if _probes is not None:
        _probes.append(_probe())


def timed(fn, *args, sample: bool = True):
    """Call ``fn(*args)``; return (result, raw seconds, corrected seconds).

    With ``sample=False`` the call is probed only before and after.
    """
    global _probes
    if signal.getsignal(signal.SIGALRM) is not _on_alarm:
        # installed once and kept, so a late alarm never meets the default action
        signal.signal(signal.SIGALRM, _on_alarm)
    probes = [_probe()]
    if sample:
        _probes = probes
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        _probes = None
    probes.append(_probe())
    raw = corrected = 0.0
    for (s0, e0), (s1, e1) in zip(probes, probes[1:]):
        gap = s1 - e0
        raw += gap
        corrected += gap * PROBE_REF_S / ((e0 - s0 + e1 - s1) / 2.0)
    return result, raw, corrected
