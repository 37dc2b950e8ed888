"""Scaling measured times to a reference machine speed.

The box this benchmark was written on changes speed by up to 2x from minute
to minute and within a second: other tenants share its cores, and CPU time
tracks wall time, so it is not waiting.  ``Calibration.measure`` therefore
times a fixed kernel (about ``CALIBRATION_REF_S`` on the idle box) right
before and after a step and, from a ``SIGALRM`` timer, every
``SAMPLING_INTERVAL_S`` while the step runs.  The time the in-step samples
take is taken out of the step's time, and the rest is divided by the mean
sample over ``CALIBRATION_REF_S``, which reports it in seconds at the
reference speed.

Only the standard library is imported here, so that

    python3 bench/calibration.py <src>

can time ``import peerlab`` in a fresh interpreter the same way; it prints
``[seconds, slowdown]`` as JSON.
"""

from __future__ import annotations

import contextlib
import signal
import time

CALIBRATION_LOOPS = 2_000
CALIBRATION_REF_S = 0.0010
SAMPLING_INTERVAL_S = 0.05


class _Cell:
    __slots__ = ("key", "items")

    def __init__(self, key, items):
        self.key = key
        self.items = items


def _kernel() -> int:
    """A fixed pure-Python loop of the kind of work peerlab does between
    numpy calls: small objects, lists, dicts and integer arithmetic."""
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        cell = _Cell(i, [i, i + 1])
        row = {"key": cell.key, "items": cell.items}
        acc += row["key"] + len(row["items"]) + i * i % 7
    return acc


class Window:
    """Kernel samples taken while one step ran, and the time they took."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused_s = 0.0


class Calibration:
    """Kernel samples of one process; every sample is kept in ``samples``."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns its seconds."""
        start = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    @contextlib.contextmanager
    def sampling(self, on_sample=None):
        """Sample the kernel from a timer while the body runs.

        Yields a ``Window``.  ``on_sample(seconds)`` is called after each
        sample with the time it took from the body.
        """
        window = Window()

        def handler(signum, frame):
            start = time.perf_counter()
            window.samples.append(self.sample())
            paused = time.perf_counter() - start
            window.paused_s += paused
            if on_sample is not None:
                on_sample(paused)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLING_INTERVAL_S, SAMPLING_INTERVAL_S)
        try:
            yield window
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, fn, on_sample=None):
        """Run ``fn()``; returns its result, its seconds without the in-step
        samples, and how many times slower than the reference speed the
        machine ran meanwhile."""
        before = self.sample()
        with self.sampling(on_sample) as window:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
        samples = [before, *window.samples, self.sample()]
        slowdown = sum(samples) / len(samples) / CALIBRATION_REF_S
        return result, elapsed - window.paused_s, slowdown


def _time_import(src: str) -> None:
    import importlib
    import json
    import sys

    sys.path.insert(0, src)
    _, seconds, slowdown = Calibration().measure(lambda: importlib.import_module("peerlab"))
    print(json.dumps([seconds, slowdown]))


if __name__ == "__main__":
    import sys

    _time_import(sys.argv[1])
