"""Discrete-event engine: microsecond virtual clock plus labeled RNG streams.

One engine instance drives one simulation; instances share nothing, so
independent runs can execute concurrently in separate processes or threads.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable

# The interpreter's builtin SHA-256, as random.py takes its sha512: hashlib
# would map OpenSSL's libcrypto (~3.6 MB) to hash a few hundred bytes.
try:
    from _sha2 import sha256            # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256


class SchedulingError(ValueError):
    """Raised when an event is scheduled before the current clock."""


class RngStream:
    """Deterministic random stream identified by (root_seed, label).

    The underlying generator is seeded from a hash of the pair, so streams
    with distinct labels are independent and adding a new consumer never
    perturbs existing streams.
    """

    __slots__ = ("root_seed", "label", "_rng", "random", "gamma",
                 "_getrandbits")

    def __init__(self, root_seed: int, label: str):
        if not label:
            raise ValueError("stream label must be non-empty")
        self.root_seed = root_seed
        self.label = label
        digest = sha256(
            b"%d\x1f%s" % (root_seed, label.encode("utf-8"))
        ).digest()
        self._rng = random.Random(int.from_bytes(digest[:16], "big"))
        # bound methods, saves attribute lookups in the per-frame hot path
        self.random: Callable[[], float] = self._rng.random
        self.gamma: Callable[[float, float], float] = self._rng.gammavariate
        self._getrandbits: Callable[[int], int] = self._rng.getrandbits

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], both ends inclusive.

        Draws as ``random.Random.randrange(low, high + 1)`` does, so the
        stream yields the same values and ends in the same state: k-bit
        draws, k the bit length of the width, until one falls below it.
        """
        n = high - low + 1
        if n < 1:
            raise ValueError(f"empty range [{low}, {high}]")
        k = n.bit_length()
        getrandbits = self._getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return low + r

    def __repr__(self) -> str:
        return f"RngStream(root_seed={self.root_seed}, label={self.label!r})"


class EventQueue:
    """Time-ordered event queue with a non-decreasing integer-µs clock.

    Events at equal timestamps dispatch in insertion order. Cancellation is
    lazy: cancelled entries stay in the heap and are skipped on pop.
    """

    def __init__(self) -> None:
        self.clock_us: int = 0
        self._heap: list[list] = []
        self._seq: int = 0

    def schedule(self, at_us: int, fn: Callable[[], None]) -> list:
        """Schedule fn() at at_us. Returns an event id usable with cancel()."""
        if at_us < self.clock_us:
            raise SchedulingError(
                f"past timestamp: cannot schedule at {at_us} µs, "
                f"clock is {self.clock_us} µs"
            )
        self._seq += 1
        entry = [at_us, self._seq, fn]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, event_id: list) -> None:
        """Cancel a pending event. Cancelling a dispatched event is a no-op."""
        event_id[2] = None

    def run_until(self, t_end_us: int) -> int:
        """Dispatch every event with timestamp <= t_end_us; clock ends at t_end_us."""
        if t_end_us < self.clock_us:
            raise SchedulingError(
                f"cannot run to {t_end_us} µs, clock is {self.clock_us} µs"
            )
        dispatched = 0
        heap = self._heap
        while heap and heap[0][0] <= t_end_us:
            at_us, _, fn = heapq.heappop(heap)
            if fn is None:
                continue
            self.clock_us = at_us
            fn()
            dispatched += 1
        self.clock_us = t_end_us
        return dispatched
