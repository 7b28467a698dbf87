"""Host-speed correction for the benchmark's timings.

On a shared host the speed of the same code drifts, by up to a factor of
two, over stretches of seconds to a minute; CPU time moves with wall time,
so the drift is in the machine, not in scheduling. A timing taken in one
minute then says more about the neighbours than about emrkg.

:class:`Pacer` times fixed calibration kernels every ``interval`` seconds
from a ``SIGALRM`` handler, which runs in the main thread between
bytecodes: no thread or process is started. Two kernels, because the drift
moves them differently:

* ``interp``: dict and string churn plus small numpy products, the mix most
  of emrkg runs;
* ``memory``: products of a 24 MB matrix with a vector, like a query
  against the dense TF-IDF index of a large knowledge base.

A timed interval is cut at the calibrations inside it, which are left out,
and each piece is scaled by ``REFERENCE_S[kind] / k``, where ``k`` is the
median time of that kind's kernel within ``window`` seconds of the piece.
The sum reads as seconds on a host where the kernel takes ``REFERENCE_S``.
A slower program still reads slower by the same factor; only the host's
drift, which slows the kernel alike, cancels. The median keeps one
preempted calibration from skewing a piece.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from functools import partial

import numpy as np

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((64, 128))
_X = _rng.standard_normal(64)
_V = _rng.standard_normal((300, 2000))
_WORDS = [f"w{i:05d}" for i in range(5000)]
_X2 = _rng.standard_normal(2000)


def interp_kernel() -> None:
    """A fixed amount of interpreter and small-array work."""
    table: dict[str, str] = {}
    for i in range(3000):
        word = _WORDS[(i * 7919) % 5000]
        table[word[1:3]] = table.get(word[1:3], "") + word[-1]
    h = np.zeros(64)
    for _ in range(150):
        h = np.tanh(_W @ np.concatenate([h, _X]))
    _V @ _V[0]


def memory_kernel(matrix: np.ndarray) -> None:
    """Two products of a 24 MB ``matrix`` with a vector: the operation a
    dense-index query runs, on BLAS's own threads."""
    matrix @ _X2
    matrix @ _X2


# Seconds each kernel takes on an undisturbed 2-CPU x86-64 host (its
# fastest state); corrected timings are expressed at that speed.
REFERENCE_S = {"interp": 0.0016, "memory": 0.0010}


class Pacer:
    def __init__(self, kinds=("interp",), interval: float = 0.2, window: float = 1.0) -> None:
        self.interval = interval
        self.window = window
        self.starts: list[float] = []  # whole calibrations, all kinds
        self.ends: list[float] = []
        self.took: dict[str, list[float]] = {kind: [] for kind in kinds}
        self.kernels = {"interp": interp_kernel}
        if "memory" in kinds:
            self.kernels["memory"] = partial(memory_kernel, _rng.standard_normal((1500, 2000)))
        for kind in kinds:  # warm up outside any timing
            self.kernels[kind]()

    def calibrate(self, *_signal_args) -> None:
        start = time.perf_counter()
        for kind, took in self.took.items():
            t = time.perf_counter()
            self.kernels[kind]()
            took.append(time.perf_counter() - t)
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    @contextmanager
    def running(self):
        """Calibrate every ``interval`` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_near(self, t: float, kind: str) -> float:
        """Median seconds of the ``kind`` kernel over the calibrations
        within ``window`` of ``t``; the nearest calibration's when none is."""
        lo = bisect_left(self.starts, t - self.window)
        hi = bisect_right(self.starts, t + self.window)
        if lo == hi:
            lo = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - t))
            hi = lo + 1
        return statistics.median(self.took[kind][lo:hi])

    def _piece(self, a: float, b: float, kind: str) -> float:
        if b <= a:
            return 0.0
        return (b - a) * REFERENCE_S[kind] / self.kernel_near((a + b) / 2, kind)

    def corrected(self, a: float, b: float, kind: str = "interp") -> float:
        """``[a, b]`` without its calibrations, at the reference speed of
        the ``kind`` kernel."""
        total = 0.0
        i = bisect_right(self.ends, a)
        while i < len(self.starts) and self.starts[i] < b:
            total += self._piece(a, self.starts[i], kind)
            a = max(a, self.ends[i])
            i += 1
        return total + self._piece(a, b, kind)

    def disturbed(self, a: float, b: float, margin: float = 0.001) -> bool:
        """Whether a calibration ran inside ``[a, b]`` or ended less than
        ``margin`` before it (and left the caches cold)."""
        i = bisect_left(self.ends, a - margin)
        return i < len(self.starts) and self.starts[i] < b
