"""Host-speed calibration for the benchmark's timed end-to-end metrics.

The benchmark runs on a few vCPUs of a shared host whose speed drifts:
a fixed loop timed back to back switches between speeds about 1.4x apart,
each lasting from seconds to a minute, so no run length averages the
drift out.  A ``Calibrator`` therefore times a small fixed reference
task over and over *while* the measured work runs: a ``SIGALRM`` timer
interrupts the work every ``PERIOD_S`` seconds and runs one reference
chunk in the same thread.  The chunks' time is taken out of the measured
wall time, and their mean tells how fast the host ran during the work.
``run.py`` scales a measured time by ``REFERENCE_CHUNK_S / mean chunk``,
which reports it in seconds of a host running at the reference speed.

The reference task uses neither ``bidisc_lab`` nor anything else a
change to the program can touch, so a change to the program moves the
scaled time exactly as it moves the raw one, while a change of host
speed moves the work and the chunks together and cancels.  It mixes
what the program spends its time on: fresh PCG64 streams with a few
small draws each, Python ``complex`` arithmetic, small numpy arrays with
an occasional SVD, and float formatting.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# mean chunk time on the machine the benchmark was tuned on
# (2-vCPU KVM guest, Intel Xeon with AVX-512, Python 3.11.7, numpy 2.4.6)
REFERENCE_CHUNK_S = 0.005
PERIOD_S = 0.1  # one chunk per 0.1 s of work: about 5% extra time
CHUNK_ITERATIONS = 100
MIN_CHUNKS = 20  # a burst long enough to average over a few scheduler ticks


def reference_chunk(seed: int) -> float:
    """The fixed reference task; returns a value so that no step is skipped."""
    acc = 0.0
    for i in range(CHUNK_ITERATIONS):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
        x, y = gen.uniform(-0.95, 0.95, size=2)
        z, w = complex(x, y), complex(y, -x) * 0.5
        m = (z - w) / (1 - z.conjugate() * w)
        acc += abs(m) + (m * m.conjugate()).real
        p = np.array([z, w, m])
        q = p.copy()
        q[i % 3] += 1e-6j
        acc += float(np.abs(q - p).sum())
        if i % 8 == 0:
            acc += float(np.linalg.svd(np.vstack([p.real, p.imag]), compute_uv=False)[0])
        acc += len(f"{x:.17g},{y:.17g},{acc:.17g}")
    return acc


class Calibrator:
    """Runs reference chunks from a ``SIGALRM`` timer between ``start`` and ``stop``."""

    def __init__(self):
        self.chunks = 0
        self.chunk_s = 0.0  # total time spent in chunks
        self._busy = False
        reference_chunk(0)  # untimed: the first chunk pays for numpy's lazy set-up

    def _tick(self, signum, frame):
        if self._busy:  # a late tick while a chunk runs is dropped, not nested
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_chunk(self.chunks)
        self.chunk_s += time.perf_counter() - t0
        self.chunks += 1
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def burst(self, chunks: int = MIN_CHUNKS) -> None:
        """Run chunks back to back, with no work between them."""
        for _ in range(chunks):
            self._tick(signal.SIGALRM, None)

    def mean_chunk_s(self) -> float:
        return self.chunk_s / self.chunks
