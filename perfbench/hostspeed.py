"""Host-speed normalisation: a fixed reference kernel sampled all through a pass.

The benchmark runs on a few cores of a shared virtual machine whose speed
drifts with the load on each core: the same instructions take 20-30% longer
for a second or a minute at a time, so wall and CPU time agree with each
other but not from one run to the next.  The drift is not shared between
cores, so it has to be measured in the pass's own process, while the pass
runs.

The reference kernel below is a fixed piece of pure-Python work in the style
of the program (sparse polynomials with tuple monomials and ``Fraction``
coefficients) that shares nothing with the package.  A ``Sampler`` runs it
from a ``SIGALRM`` handler every ``INTERVAL_S`` of real time, between two
bytecodes of whatever the pass is doing, and records how long it took.  The
time of those samples is taken out of the pass's and the items' times, and
the host speed is ``REFERENCE_S`` over a sample's time, averaged over the
samples.  Normalised seconds are seconds times that speed: seconds at the
speed where the kernel takes ``REFERENCE_S`` (about its median on the 2-vCPU
development host).  A change to the program moves its times and leaves the
kernel alone, so it shows in full; a change of host speed moves both, so it
mostly cancels.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from random import Random

REFERENCE_S = 0.015
INTERVAL_S = 0.25
KERNEL_REPS = 2
# An item with fewer samples inside it is normalised with the speed of the whole pass.
MIN_ITEM_SAMPLES = 3


def _polys():
    rng = Random(777)

    def poly():
        return {
            tuple(rng.randrange(3) for _ in range(4)): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(14)
        }

    return poly(), poly()


def _mul(P: dict, Q: dict) -> dict:
    R = {}
    for a, x in P.items():
        for b, y in Q.items():
            m = tuple(i + j for i, j in zip(a, b))
            R[m] = R.get(m, 0) + x * y
    return {m: c for m, c in R.items() if c}


class Sampler:
    """Runs the reference kernel every ``INTERVAL_S`` between ``start`` and ``stop``.

    ``samples`` holds (perf_counter at start, wall seconds, CPU seconds) of
    each kernel run.
    """

    def __init__(self):
        self.samples = []
        self._polys = _polys()

    def _tick(self, signum, frame):
        P, Q = self._polys
        c0, t0 = time.process_time(), time.perf_counter()
        for _ in range(KERNEL_REPS):
            sorted(_mul(_mul(P, Q), P))
        self.samples.append((t0, time.perf_counter() - t0, time.process_time() - c0))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop the timer and take one last sample, so that even a pass shorter than the interval has one."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)


def within(samples: list, t0: float, t1: float) -> list:
    """The samples that ran between perf_counter readings ``t0`` and ``t1``."""
    return [s for s in samples if t0 <= s[0] < t1]


def speed(samples: list) -> tuple:
    """(wall, CPU) host speed over the samples: mean of ``REFERENCE_S`` / kernel time."""
    return (
        statistics.fmean(REFERENCE_S / s[1] for s in samples),
        statistics.fmean(REFERENCE_S / max(s[2], 1e-9) for s in samples),
    )


def normalise(records: list, samples: list, wall_s: float, cpu_s: float) -> tuple:
    """(normalised wall s, normalised CPU s, host speed) of a pass.

    ``wall_s``, ``cpu_s`` and the item records' ``s`` and ``cpu`` already
    exclude the samples' own time.  Each item record gains ``ns`` and
    ``ncpu``, normalised with the samples taken during the item, or with
    the whole pass's when fewer than ``MIN_ITEM_SAMPLES`` fell in it.
    """
    pass_speed = speed(samples)
    for r in records:
        inside = within(samples, r["t0"], r["t1"])
        wall_speed, cpu_speed = speed(inside) if len(inside) >= MIN_ITEM_SAMPLES else pass_speed
        r["ns"] = r["s"] * wall_speed
        r["ncpu"] = r["cpu"] * cpu_speed
    return wall_s * pass_speed[0], cpu_s * pass_speed[1], pass_speed[0]
