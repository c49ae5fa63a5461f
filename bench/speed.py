"""Machine-speed calibration for CPU times measured on a shared machine.

On a shared virtual machine one CPU second does not buy a fixed amount of
work: the same certify-grid pass used 22 s of CPU in one run and 36 s in
another a few minutes later.  In a two-minute sample, the CPU time of a
fixed nctrace job (a feasibility solve and a moment sequence) varied by 24%
between 2.7 s blocks, while its ratio to a calibration job run beside it
varied by 5%.

While a :class:`Calibrator` is active, SIGPROF interrupts the process after
every ``TICK_EVERY_S`` of its CPU time, and the handler runs a fixed
calibration job, a "tick", of about 2 ms.  Ticks therefore fall inside long
ops as well as between short ones.  The handler runs between bytecodes of
the main thread, never inside a numpy call, and touches no program state.
CPU time here is the main thread's (``time.thread_time``), which is where
the program and BLAS run: with the interval timer armed, the process CPU
clock read inside the handler stood still on the reference machine.
Each tick's CPU and clock time is logged, so an op can subtract the ticks
that ran inside it and convert the rest to the reference speed: the speed
at which one tick takes ``REFERENCE_TICK_S``.  The job mixes what the
program spends its time on: small complex ``eigh`` and matrix products,
matrix-vector products the size of the affine projection's, and
dict-of-tuples work like the polynomial code.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# CPU seconds of one tick on the reference machine (2-core x86_64 virtual
# machine, Python 3.11.7, numpy 2.4.6 with OpenBLAS on one thread).
REFERENCE_TICK_S = 0.0023
TICK_EVERY_S = 0.05  # CPU seconds between ticks: about 5% overhead
MIN_TICKS = 3  # an op with fewer ticks inside it uses the latest three


class Calibrator:
    """Context manager that runs ticks on a CPU-time interval timer."""

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        a = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
        self._matrix = a + a.conj().T
        # The size of the affine projection's pseudo-inverse at m = 15.
        self._rows = rng.normal(size=(400, 450))
        self._vector = rng.normal(size=450)
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self._previous = None

    def _tick(self, *_signal) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        for _ in range(25):
            w, v = np.linalg.eigh(self._matrix)
            (v * w) @ v.conj().T
        for _ in range(25):
            self._rows @ self._vector
        counts: dict = {}
        for i in range(2000):
            key = (i % 7, i % 5, i % 3)
            counts[key] = counts.get(key, 0) + i
        self.cpu.append(time.thread_time() - cpu)
        self.wall.append(time.perf_counter() - wall)

    def __enter__(self) -> "Calibrator":
        for _ in range(MIN_TICKS):
            self._tick()
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_EVERY_S, TICK_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> int:
        return len(self.cpu)

    def measure(self, first: int, last: int, cpu: float, wall: float):
        """(CPU, clock, CPU at reference speed) of a span, ticks taken out.

        ``first`` and ``last`` are marks taken as the span started and ended.
        """
        cpu -= sum(self.cpu[first:last])
        wall -= sum(self.wall[first:last])
        sample = self.cpu[max(0, min(first, last - MIN_TICKS)):last]
        return cpu, wall, cpu * REFERENCE_TICK_S * len(sample) / sum(sample)
