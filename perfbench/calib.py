"""Operation times corrected for the host's momentary speed.

The shared host behind the benchmark runs in phases, from seconds to
minutes long, in which all Python code runs up to 2x slower.  A raw
operation time therefore measures the phase as much as the program.  This
module measures a fixed reference chunk of the benchmark's own code,
written in the program's style (a numpy random stream, Python lists, a
distance matrix by fancy indexing, a Newick string), right before, right
after and, driven by a timer signal every ``PERIOD_S`` seconds, during
each operation.  The time spent in reference chunks is taken out of the
operation's time, and what is left is scaled by ``NOMINAL_REF_S`` over the
median chunk time:

    normalised = (wall - chunks inside) * NOMINAL_REF_S / median(chunk)

so a value reads as seconds on a host on which one chunk takes
``NOMINAL_REF_S``.  The reference never calls the program, so a faster
program lowers the normalised time in the same proportion as the raw one.

Set-up times, which are mostly process start-up and imports, do not track
the chunks.  They are scaled instead by the time to ready of a reference
process, ``REFERENCE_LAUNCH``, started right before and right after.

Do not change the references (``gen.draw_tree`` included) or the
constants: that changes every figure.
"""

from __future__ import annotations

import gc
import signal
import statistics
import sys
import time

import numpy as np

import gen

#: Seconds between reference chunks inside an operation.
PERIOD_S = 0.05
#: A typical time of one reference chunk on the 2-vCPU host in
#: perfbench/README.md; normalised times read as seconds at that speed.
NOMINAL_REF_S = 0.003
#: Reference chunks run before and after each operation.
EDGE_CHUNKS = 2

#: The reference for set-up times: a fresh interpreter that imports numpy
#: and prints ready, as the worker does once it is set up.
REFERENCE_LAUNCH = [sys.executable, "-c",
                    "import argparse, json, numpy; print('ready', flush=True)"]
#: Time to ready of REFERENCE_LAUNCH on the host in perfbench/README.md.
NOMINAL_LAUNCH_S = 0.12

_REF_TREES = 4
_REF_LEAVES = 24


def reference_chunk() -> None:
    """The fixed reference work: four random 24-leaf trees, their distance
    matrices and Newick strings (2-4 ms on that host)."""
    rng = np.random.Generator(np.random.Philox(20210419))
    for _ in range(_REF_TREES):
        tree = gen.draw_tree(_REF_LEAVES, 1.0, rng)
        tree.distances()
        tree.newick()


def _chunk_seconds() -> float:
    """Time of one reference chunk.  The cyclic garbage collector is off
    while it runs: a collection that its allocations would set off walks the
    program's whole heap, and is left for the program to pay, as it would
    without the chunk."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_chunk()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times callables with interleaved reference chunks.  A ``plain``
    clock runs no chunks and returns raw times (the traced runs use one,
    so that no span holds reference work)."""

    def __init__(self, plain: bool = False):
        self.plain = plain
        self._inside: list[float] = []
        if not plain:
            for _ in range(3):  # the first chunks of a process run cold
                reference_chunk()

    def _on_alarm(self, _signum, _frame) -> None:
        self._inside.append(_chunk_seconds())

    def measure(self, fn, *args):
        """Run fn(*args); returns (its result, raw seconds, normalised
        seconds, mean reference chunk seconds)."""
        if self.plain:
            start = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - start
            return result, wall, wall, NOMINAL_REF_S
        edge = edge_chunks()
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            start = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        edge += edge_chunks()
        net = wall - sum(self._inside)
        chunks = edge + self._inside
        return result, net, normalise(net, chunks), statistics.median(chunks)


def edge_chunks() -> list[float]:
    """Times of the reference chunks run before or after an operation."""
    return [_chunk_seconds() for _ in range(EDGE_CHUNKS)]


def normalise(seconds: float, chunks: list[float]) -> float:
    """An operation time scaled by NOMINAL_REF_S over the median time of
    the reference chunks run around and inside it."""
    return seconds * NOMINAL_REF_S / statistics.median(chunks)


def normalise_launch(seconds: float, references: list[float]) -> float:
    """A set-up time scaled by NOMINAL_LAUNCH_S over the mean time of the
    reference launches around it."""
    return seconds * NOMINAL_LAUNCH_S / statistics.fmean(references)
