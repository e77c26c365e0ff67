"""Timings scaled to a reference host speed.

On a shared virtual machine the CPU's speed drifts with the load of other
tenants: by up to 2x over minutes, and by 20-30% from one tenth of a second
to the next.  A fixed calibration kernel, shaped like the library's hot loops
(hashing template strings, lookups in a large dict keyed by 63-bit ids, a
dict copy, and log-sum-exp over tiny numpy arrays), tracks that speed.  A
timed block's time is scaled by ``REFERENCE_S / mean kernel time``: the time
it would have taken on a host that runs the kernel in ``REFERENCE_S`` seconds.

The kernel runs in a helper process (``HostClock``) on the measured process's
CPU: once just before a block, once just after it, and every ``PERIOD_S``
while it runs, so the scale follows the speed through the block; the edges
alone miss most of it.  The periodic samples take about 6% of that CPU,
the same share of every block.  The kernel's data lives in the helper, so it
never counts towards the measured process's memory.  Run as a script, this
module is that helper.
"""

from __future__ import annotations

import select
import subprocess
import sys
import time

# The kernel's time on an unloaded 2.1 GHz Xeon VM core with Python 3.11; the
# constant only sets the scale of the reported numbers.
REFERENCE_S = 0.009
PERIOD_S = 0.2
KEEP_S = 600.0  # samples older than this are dropped; no timed block is longer


def make_kernel():
    """Build the kernel's fixed inputs; return a function that times one run."""
    import hashlib
    import math
    import random

    import numpy as np

    rng = random.Random(0)
    weights = {rng.getrandbits(63): rng.random() for _ in range(24_000)}
    keys = list(weights)
    lookups = [rng.choice(keys) if i % 2 else rng.getrandbits(63) for i in range(4_800)]
    small = np.linspace(-1.0, 1.0, 9).reshape(3, 3)

    def kernel() -> tuple[float, float]:
        """Run the kernel once; return its start time and duration."""
        start = time.perf_counter()
        fids = [int.from_bytes(hashlib.blake2b(f"em0\x1ftok{i}\x1fB-{i % 9}".encode(),
                                               digest_size=8).digest(), "big") >> 1
                for i in range(1_600)]
        get = weights.get
        total = sum(get(fid, 0.0) for fid in lookups) + sum(get(fid, 0.0) for fid in fids)
        total += sum(v * v for v in {f: -v for f, v in weights.items()}.values())
        for _ in range(120):
            m = np.max(small, axis=0, keepdims=True)
            total += float(np.sum(np.log(np.sum(np.exp(small - m), axis=0)) + m))
        if not math.isfinite(total):  # never true; keeps the work observable
            raise AssertionError
        return start, time.perf_counter() - start

    return kernel


class HostClock:
    """The calibration helper process.

    Use as a context manager; leaving it stops the helper and waits for it.
    The helper inherits the caller's CPU affinity: pin the caller to one CPU
    first, so that the kernel runs where the measured code runs.
    """

    def __enter__(self) -> "HostClock":
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.mark()  # returns once the helper is ready
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _ask(self, request: str) -> list[float]:
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host clock helper exited with code {self.proc.wait()}")
        return [float(field) for field in line.split()]

    def mark(self) -> float:
        """Run the kernel once now; return the time it started."""
        return self._ask("mark")[0]

    def mean_since(self, since: float) -> tuple[float, int]:
        """Run the kernel once now; return the mean time and count of the
        kernel runs that started at ``since`` or later."""
        mean, count = self._ask(f"mean {since!r}")
        return mean, int(count)


class Timed:
    """Time a block; scale it by the kernel's speed from just before to just after it."""

    def __init__(self, clock: HostClock):
        self.clock = clock

    def __enter__(self) -> "Timed":
        self.since = self.clock.mark()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = time.perf_counter() - self.start
        self.kernel_s, self.kernel_runs = self.clock.mean_since(self.since)

    @property
    def seconds(self) -> float:
        """The block's time scaled to the reference host speed."""
        return self.raw_s * REFERENCE_S / self.kernel_s


def main() -> None:
    kernel = make_kernel()
    kernel()  # warm-up: first-run costs are not host speed
    samples: list[tuple[float, float]] = []
    due = time.perf_counter() + PERIOD_S
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], max(0.0, due - time.perf_counter()))
        if ready:
            # the caller waits for each reply, so at most one request is pending
            request = sys.stdin.readline().split()
            if not request:
                break
            samples.append(kernel())
            if request[0] == "mark":
                print(repr(samples[-1][0]), flush=True)
            else:
                since = float(request[1])
                runs = [seconds for start, seconds in samples if start >= since]
                print(repr(sum(runs) / len(runs)), len(runs), flush=True)
        if time.perf_counter() >= due:
            samples.append(kernel())
            due = time.perf_counter() + PERIOD_S
            samples = [s for s in samples if s[0] >= samples[-1][0] - KEEP_S]


if __name__ == "__main__":
    main()
