"""A frozen reference kernel that samples the machine's speed during a pass.

The hosts this benchmark runs on change speed by up to 1.7x every few
seconds (a vCPU sharing its core with a busy neighbour, or not), so raw
wall time spreads by about 25% from run to run.  While a pass runs, a
SIGALRM timer runs this kernel every ``PERIOD_S`` seconds in the same
process and records how long it took.  The kernel does the kind of work
revpat's prover does (backtracking over a word, bytes copies, slice
comparisons, substring search) and never changes, so its time tracks the
speed the workload saw at that moment.

``Sampler.factor`` rescales times measured during a pass to seconds at the
reference speed, the speed at which one kernel call takes ``NOMINAL_S``.
The kernel does not import revpat: no change to the program can move it.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
# about the median kernel time on a 2-vCPU Xeon (Sapphire Rapids) KVM guest
# with Python 3.11, so normalised times stay close to raw ones there
NOMINAL_S = 0.0007
WORD_LENGTH = 60


def kernel() -> bytes:
    """Lexicographically least square-free ternary word of ``WORD_LENGTH`` letters,
    found by depth-first backtracking.

    Each node copies the word to bytes, compares slices and searches for its
    last three letters, as the prover's end checks do; the search result
    itself is not needed.
    """
    word = bytearray()
    while len(word) < WORD_LENGTH:
        c = 0x30
        while True:
            word.append(c)
            data = bytes(word)
            n = len(data)
            if not any(data[n - 2 * h:n - h] == data[n - h:n] for h in range(1, n // 2 + 1)):
                data.find(data[n - 3:], 0, n - 1)
                break
            word.pop()
            while c == 0x32:
                c = word.pop()
            c += 1
    return bytes(word)


class Sampler:
    """Times ``kernel`` every ``PERIOD_S`` seconds between ``start`` and ``stop``."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, raw_s: float) -> float:
        """Multiplier from seconds measured during a pass of ``raw_s`` seconds
        to seconds of work at the reference speed.

        It drops the kernel's own share of the pass, then rescales by the mean
        of NOMINAL_S / sample: samples are evenly spaced in time, so that mean
        is the pass's average speed relative to the reference.
        """
        if not self.samples:
            return 1.0
        speed = sum(NOMINAL_S / s for s in self.samples) / len(self.samples)
        return (raw_s - sum(self.samples)) / raw_s * speed
