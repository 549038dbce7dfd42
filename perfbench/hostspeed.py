"""Host-speed sampling, so that timings are reported at one fixed host speed.

On a small shared host the same code runs at different speeds from one
second to the next: a fixed pure-Python loop took from 12.7 ms to 19.5 ms
within one minute on the 2-core x86 machine this benchmark was tuned on.
``HostSpeed`` arms a SIGALRM timer; every ``INTERVAL_S`` the handler times a
fixed reference loop that mixes small numpy calls with Python bytecode, as
the workloads do. ``seconds(start, end)`` then reports a measured interval
at the nominal speed: its wall time minus the probes that ran inside it,
scaled by ``NOMINAL_PROBE_S`` over the median time of the probes that ran
within ``WINDOW_PAD_S`` of it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
WINDOW_PAD_S = 0.5   # probes this close to a chunk also describe its host speed
NOMINAL_PROBE_S = 0.0025


class HostSpeed:
    """Context manager sampling the host's speed while a run measures."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((16, 64))
        self._w = rng.standard_normal((64, 64))
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous_handler = None

    def _reference_loop(self) -> float:
        acc = 0.0
        for _ in range(120):
            h = self._a @ self._w
            h = np.exp(h - h.max(axis=1, keepdims=True))
            acc += float(h[0, 0] / h[0].sum())
            acc += sum([j * j for j in range(40)])
        return acc

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self._reference_loop()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "HostSpeed":
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def seconds(self, start: float, end: float) -> float:
        """Duration of [start, end] at the nominal speed, probe time excluded."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(self.durations[lo:hi])
        around = self.durations[bisect.bisect_left(self.starts, start - WINDOW_PAD_S):
                                bisect.bisect_left(self.starts, end + WINDOW_PAD_S)]
        around = around or self.durations
        return (end - start - inside) * NOMINAL_PROBE_S / statistics.median(around)
