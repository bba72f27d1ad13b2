"""Host-speed reference: a sampler process that times one small fixed kernel.

On a shared host the speed of a CPU drifts by tens of percent over seconds
to minutes as other tenants come and go, and a whole benchmark run can fall
into a slow phase.  The sampler runs a fixed kernel (a pure-Python loop and
an in-cache sort, about 2 ms) every ``PERIOD_S`` seconds, so it takes about
3% of the host's other CPU, and keeps each kernel's start and duration.
A time measured in the benchmark, divided by the median kernel duration over
the same interval, follows the program's own cost rather than the host's
speed; multiplied by ``NOMINAL_KERNEL_S`` it reads as seconds on a host where
the kernel takes that long.

    python3 perfbench/hostspeed.py

runs the sampler: it prints ``ready`` once warm, samples until its standard
input closes, then prints the samples as one JSON list of
``[start, duration]`` pairs (``time.monotonic`` seconds) and exits.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
import time

PERIOD_S = 0.05
# about the kernel's median on the 2-CPU Xeon VM the benchmark was tuned on
# (Python 3.11, numpy 2.4), so normalised times there read close to seconds
NOMINAL_KERNEL_S = 0.0017
# a window holding fewer samples than this borrows the nearest ones around it
MIN_SAMPLES = 5
STOP_TIMEOUT_S = 30.0


def _kernel(np, data) -> None:
    acc = 0
    for i in range(20000):
        acc += i * i
    np.sort(data)


def _sample() -> None:
    import numpy as np

    data = np.random.default_rng(1).random(4000)
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True).start()
    _kernel(np, data)
    print("ready", flush=True)
    samples = []
    while not stop.is_set():
        t0 = time.monotonic()
        _kernel(np, data)
        d = time.monotonic() - t0
        samples.append((t0, d))
        stop.wait(max(0.0, PERIOD_S - d))
    print(json.dumps(samples), flush=True)


class HostSpeed:
    """The sampler process and, once stopped, its samples; a context manager."""

    def __init__(self, samples=None):
        self.samples = sorted(samples or [])
        self._proc = None

    def __enter__(self) -> "HostSpeed":
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        try:
            if self._proc.stdout.readline().strip() != "ready":
                raise RuntimeError("host-speed sampler did not start")
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        """End the sampler, wait for it, and keep what it sampled."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            out, _ = proc.communicate(input="", timeout=STOP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"host-speed sampler exited {proc.returncode}")
        self.samples = sorted(tuple(s) for s in json.loads(lines[-1]))

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel duration over ``[start, end]``, or over the
        ``MIN_SAMPLES`` samples nearest to it when it holds fewer."""
        if not self.samples:
            raise RuntimeError("no host-speed samples")
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            near = sorted(self.samples, key=lambda s: max(start - s[0], s[0] - end, 0.0))
            inside = [d for _, d in near[:MIN_SAMPLES]]
        return statistics.median(inside)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured over ``[start, end]`` into
        seconds at the nominal host speed."""
        return NOMINAL_KERNEL_S / self.kernel_s(start, end)


if __name__ == "__main__":
    _sample()
