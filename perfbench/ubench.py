"""Microbenchmarks: microseconds per call of single layers at fixed inputs.

The inputs come from a fixed seed, not from the workload seed, so the
figures compare one commit with another at identical arguments.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import entrocert as ec
from entrocert import frechet

_BATCH_S = 0.02  # each timed batch runs at least this long
_BATCHES = 5


def _us_per_call(fn) -> float:
    """Median over batches of microseconds per call."""
    fn()
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= _BATCH_S:
            break
        reps *= 2
    per_call = []
    for _ in range(_BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - t0) / reps * 1e6)
    return statistics.median(per_call)


def run() -> dict[str, float]:
    """ubench.<fn>.<size>_us for every microbenchmark."""
    rng = np.random.default_rng(20160417)
    eig_range = (0.1, 10.0)
    f = ec.lookup("tlogt")
    fp = f.derivative()
    cases = {
        "ubench.tlogt.call_us": lambda: f(1.7),
        "ubench.tlogt.d2_us": lambda: f.d2(1.7),
    }
    for n in (3, 8):
        rho = ec.random_pd(n, eig_range, rng)
        lam = ec.eigh(rho).eigenvalues
        sop = ec.frechet_superoperator(fp, rho)
        cases |= {
            f"ubench.eigh.n{n}_us": lambda rho=rho: ec.eigh(rho),
            f"ubench.loewner_matrix.n{n}_us": lambda lam=lam: frechet.loewner_matrix(fp, lam),
            f"ubench.frechet_superoperator.n{n}_us": lambda rho=rho: ec.frechet_superoperator(fp, rho),
            f"ubench.frechet_inverse.n{n}_us": lambda rho=rho: ec.frechet_inverse(fp, rho),
            f"ubench.psd_margin.n{n}_us": sop.psd_margin,
        }
    rho6 = ec.random_pd(6, eig_range, rng)
    channel = ec.random_channel(4, 4, 4, rng)
    rho4 = ec.random_pd(4, eig_range, rng)
    cases |= {
        "ubench.random_pd.n3_us": lambda: ec.random_pd(3, eig_range, rng),
        "ubench.partial_trace_1.2x3_us": lambda: ec.partial_trace_1(rho6, 2, 3),
        "ubench.kraus_apply.4to4_r4_us": lambda: channel.apply(rho4),
    }
    return {name: _us_per_call(fn) for name, fn in cases.items()}
