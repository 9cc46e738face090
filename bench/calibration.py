"""A machine-speed reference for the benchmark's timings.

On a small VM of a shared host the speed of the machine drifts: a fixed set
of 40 modules took from 2.9 s to 4.7 s per pass within one minute, and
whole 30 s runs of one workload fell into a fast and a slow state about
1.3 times apart.  That drift moves every timing of a run together, and no
length of run averages it out.

`kernel` is fixed work of the kind bipers does (Python loops that row-reduce
small int64 numpy matrices mod 3, with tuple and dict bookkeeping) and uses
no bipers code.  The benchmark times it before the first module and after
every module, so each module sits between two kernel runs, and it brackets
every set-up round the same way.  A time is reported at reference speed:
multiplied by ``NOMINAL_S / k``, where ``k`` is the mean of the two kernel
times around it.  A change to bipers moves the module times and not the
kernel, so it shows in full; the drift moves both and cancels.  On 4 s
passes over 40 fixed glued modules (raw pass time spread 0.29 as
interquartile range over median) the corrected spread was 0.05; pairing
each module with a median over 15 neighbouring kernel runs did worse
(0.10), because the speed also changes within a second.
"""

from __future__ import annotations

import time

import numpy as np

P = 3
ROUNDS = 12
# About the kernel's median time on a 2-vCPU Intel Xeon VM; reported
# times are scaled to the speed at which the kernel takes this long.
NOMINAL_S = 0.003


def _matrix(k):
    """An 8 x 11 matrix mod P from a linear congruential stream."""
    x, entries = 1 + k, []
    for _ in range(8 * 11):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        entries.append((x >> 33) % P)
    return np.array(entries, dtype=np.int64).reshape(8, 11)


MATRICES = tuple(_matrix(k) for k in range(ROUNDS))


def _rank_mod(a):
    a = a.copy()
    rank = 0
    pivots = {}
    for c in range(a.shape[1]):
        rows = [r for r in range(rank, a.shape[0]) if a[r, c]]
        if not rows:
            continue
        a[[rank, rows[0]]] = a[[rows[0], rank]]
        a[rank] = (a[rank] * pow(int(a[rank, c]), P - 2, P)) % P
        for r in range(a.shape[0]):
            if r != rank and a[r, c]:
                a[r] = (a[r] - a[r, c] * a[rank]) % P
        pivots[(rank, c)] = tuple(int(x) for x in a[rank])
        rank += 1
        if rank == a.shape[0]:
            break
    return rank, pivots


def kernel():
    """The fixed reference work; returns the sum of the ranks."""
    return sum(_rank_mod(m)[0] for m in MATRICES)


def probe():
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factors(probes):
    """``NOMINAL_S / k`` for each gap between consecutive kernel times, k
    the mean of the two kernel times that bracket it."""
    return [2 * NOMINAL_S / (a + b) for a, b in zip(probes, probes[1:])]
