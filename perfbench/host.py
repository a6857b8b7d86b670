"""Host-speed reference: a fixed kernel timed between chunks of work.

The host this benchmark was built on is a small shared machine whose
speed drifts by tens of percent within a minute, so raw throughput of a
free-running simulation is mostly a measure of the neighbours.  Every
chunk of ~50 ms of measured work is followed by one ~4 ms slice of the
reference kernel below, and the chunk's host time is rescaled by
``NOMINAL_REF_S / measured slice time``: a host running at half speed
takes twice as long for both, so the normalised time stays put.

This module imports nothing from ``repro``: a change to the program
under test cannot change the yardstick.  A slice refuses to run while
another thread or a child process is alive (:func:`check_alone`).
"""

from __future__ import annotations

import glob
import os
import statistics
import threading
import time
from typing import List

import numpy as np

#: Measured work between two reference slices, seconds of wall time.
CHUNK_S = 0.05

#: What one reference slice is defined to take on the nominal host.
NOMINAL_REF_S = 0.004

#: Interpreter iterations and array passes in one reference slice
#: (together ~4 ms on a loaded 2-vCPU host).
REF_ITERATIONS = 3000
REF_ARRAY_PASSES = 3
REF_ARRAY_SHAPE = (10000, 24)


class GuardError(RuntimeError):
    """A reference slice was asked for while other work was running."""


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


def _affine(point: _Point, x: float) -> float:
    return point.a * x + point.b


class ReferenceKernel:
    """Fixed work in the two forms the simulators spend host time on.

    The interpreter half is calls, attribute reads, dict and list churn
    and float arithmetic; the array half is elementwise NumPy passes
    over a machines-by-nodes sized array, which tracks the memory
    bandwidth the flattened solver depends on.  In probes over five
    seeds, scaling by the interpreter half alone left 6 % spread in
    throughput on both the batch sweep and the 10k-machine room, against
    3-4 % for the whole slice.
    """

    def __init__(self) -> None:
        self._a = np.linspace(0.0, 1.0, REF_ARRAY_SHAPE[0] * REF_ARRAY_SHAPE[1]
                              ).reshape(REF_ARRAY_SHAPE)
        self._b = np.empty_like(self._a)

    def interpreter(self) -> float:
        """The interpreter half; returns a checksum so nothing is elided."""
        acc = 0.0
        table = {}
        items: List[int] = []
        point = _Point(0.5, 1.25)
        for i in range(REF_ITERATIONS):
            k = (i * 40503) & 1023
            table[k] = table.get(k, 0) + i
            acc += _affine(point, k * 0.001)
            items.append(k)
            if len(items) > 64:
                items.sort()
                del items[:32]
        return acc + len(table)

    def arrays(self) -> float:
        """The array half; returns a checksum so nothing is elided."""
        a, b = self._a, self._b
        for _ in range(REF_ARRAY_PASSES):
            np.multiply(a, 1.0001, out=b)
            np.add(b, a, out=b)
            np.exp(b, out=b)
        return float(b[0, 0])


def _child_pids() -> List[str]:
    files = glob.glob(f"/proc/{os.getpid()}/task/*/children")
    if not files:
        raise GuardError("cannot list child processes: no "
                         "/proc/<pid>/task/*/children files")
    pids: List[str] = []
    for path in files:
        with open(path) as handle:
            pids.extend(handle.read().split())
    return pids


def check_alone() -> None:
    """Raise :class:`GuardError` unless this is the only thread and no
    child process is alive.  Background work would slow the reference
    slice and so make the program under test look faster."""
    if threading.current_thread() is not threading.main_thread():
        raise GuardError("reference slice requested off the main thread")
    if threading.active_count() != 1:
        names = [t.name for t in threading.enumerate()]
        raise GuardError(f"reference slice with live threads: {names}")
    children = _child_pids()
    if children:
        raise GuardError(f"reference slice with live child processes: {children}")


class HostMeter:
    """Accumulates raw and normalised host time over measured chunks."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.normalised_s = 0.0
        #: Wall seconds of every reference slice taken.
        self.ref_s: List[float] = []
        self.kernel = ReferenceKernel()
        for _ in range(3):  # first slices page the arrays in
            self.kernel.interpreter()
            self.kernel.arrays()

    def reference(self) -> float:
        """Run one guarded reference slice; returns its wall time."""
        check_alone()
        start = time.perf_counter()
        self.kernel.interpreter()
        self.kernel.arrays()
        elapsed = time.perf_counter() - start
        self.ref_s.append(elapsed)
        return elapsed

    def add(self, elapsed: float, scale: float) -> None:
        """Count ``elapsed`` host seconds of work at host factor ``scale``."""
        self.raw_s += elapsed
        self.normalised_s += elapsed * scale

    def account(self, elapsed: float) -> None:
        """Close a chunk of ``elapsed`` host seconds with a reference
        slice, which scales it."""
        self.add(elapsed, NOMINAL_REF_S / self.reference())

    @property
    def host_factor(self) -> float:
        """Normalised over raw time: above 1 means this host ran faster
        than nominal over the measured chunks."""
        return self.normalised_s / self.raw_s if self.raw_s else 1.0

    @property
    def ref_ms(self) -> float:
        """Median reference slice, milliseconds."""
        return statistics.median(self.ref_s) * 1e3 if self.ref_s else 0.0
