"""A reference task that tells how fast the CPU is while a call runs.

On a shared host the same synthesis call can take 1.0 s in one minute and
1.7 s in the next, in CPU time as much as in wall time: each virtual CPU
switches, every few seconds, between a fast and a slow state as other
tenants load the physical core under it.  The benchmark therefore pins
itself to one CPU, and a helper thread on that CPU runs a short fixed
reference task every ``INTERVAL_S`` seconds, all through the run.  A timed
call is reported rescaled to a CPU on which the task takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / (trimmed mean CPU time of the task
                                        in the samples taken while the
                                        call ran)

A change of the program moves ``measured`` and not the reference, so it
shows in full; a slow spell of the CPU moves both and cancels.  The task is
what zonosynth spends most of its time on: interpreter work, numpy on small
arrays and reads scattered over a few MiB; it never calls zonosynth.  It
takes the CPU for about 4% of the time, the same on every commit.  The raw
wall-clock samples go to the run record beside the rescaled ones.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

NOMINAL_S = 0.002   # the task's length on the machine of record
INTERVAL_S = 0.05   # pause between two samples of the task
MIN_SAMPLES = 10    # a shorter call borrows the samples nearest to it
CHILD_IDLE_S = 0.2  # idle spell before and after a child process's span
TRIM = 0.1          # share of samples dropped at each end of the mean


class Span:
    """One timed call; ``seconds`` is rescaled once the run is over."""

    def __init__(self, stick, t0, t1, child=False):
        self.stick, self.t0, self.t1, self.child = stick, t0, t1, child

    @property
    def wall(self):
        return self.t1 - self.t0

    @property
    def seconds(self):
        return self.wall * NOMINAL_S / self.stick.speed_during(self)


class Yardstick:
    """The helper thread and its samples: (start, end, CPU seconds) of each.

    A sample is the helper thread's own CPU time, so it counts neither the
    time the thread waits for the GIL nor the time the CPU runs the timed
    call (or a child process) in its stead.
    """

    def __init__(self):
        rng = np.random.default_rng(20200216)
        self.matrix = rng.standard_normal((12, 12)) / 12
        self.block = rng.standard_normal(1 << 19)      # 4 MiB: beyond L2
        self.picks = rng.integers(0, self.block.size, 1 << 15)
        self.samples = []
        self.cpu = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="yardstick")

    def reference(self):
        """One run of the reference task."""
        table = {}
        for i in range(3000):
            key = (i % 251, i % 13)
            table[key] = table.get(key, 0) + i // 7
        x = np.linspace(-1.0, 1.0, 12)
        for _ in range(70):
            x = np.clip(self.matrix @ x + 0.1, -1.0, 1.0)
        self.block[self.picks].sum()

    def _sample(self):
        while not self._stop.wait(INTERVAL_S):
            start, cpu = time.perf_counter(), time.thread_time()
            self.reference()
            cpu = time.thread_time() - cpu
            self.samples.append((start, time.perf_counter(), cpu))

    def start(self):
        """Pin this process, its later threads and its children to one CPU,
        then start sampling it."""
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def time(self, fn, child=False):
        """Run fn(); returns (its value, its Span).

        With ``child``, fn runs a child process on this CPU.  Switching
        between it and the helper thread makes the samples taken meanwhile
        run on cold caches, so this thread idles CHILD_IDLE_S before and
        after fn, and the span is rescaled by the samples of those spells.
        """
        if child:
            time.sleep(CHILD_IDLE_S)
        t0 = time.perf_counter()
        try:
            value = fn()
        finally:
            span = Span(self, t0, time.perf_counter(), child)
            if child:
                time.sleep(CHILD_IDLE_S)
        return value, span

    def speed_during(self, span):
        """Trimmed mean CPU seconds of the task while the span ran, or of
        the MIN_SAMPLES samples nearest to it if there were fewer (for a
        child process's span: the nearest ones outside it)."""
        samples = list(self.samples)
        if span.child:
            samples = [sample for sample in samples
                       if sample[1] < span.t0 or sample[0] > span.t1]
        inside = [cpu for start, end, cpu in samples
                  if span.t0 <= start and end <= span.t1]
        if len(inside) < MIN_SAMPLES:
            middle = (span.t0 + span.t1) / 2
            nearest = sorted(samples,
                             key=lambda sample: abs(sample[1] - middle))
            inside = [cpu for _, _, cpu in nearest[:MIN_SAMPLES]]
        inside.sort()
        cut = int(len(inside) * TRIM)
        return statistics.fmean(inside[cut:len(inside) - cut])
