"""Discrete-event engine: microsecond virtual clock plus labeled RNG streams.

One engine instance drives one simulation; instances share nothing, so
independent runs can execute concurrently in separate processes or threads.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import count
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

    __slots__ = ("root_seed", "label", "_rng", "random", "_getrandbits")

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


def _past_timestamp(at_us: int, clock_us: int) -> SchedulingError:
    return SchedulingError(f"past timestamp: cannot schedule at {at_us} µs, "
                           f"clock is {clock_us} µs")


class EventQueue:
    """Time-ordered event queue with a non-decreasing integer-µs clock.

    Events at equal timestamps dispatch in insertion order. A handler
    returns None, or the µs of its next dispatch: the queue then puts the
    same entry back in the order that calling ``schedule`` as the
    handler's last statement gives, and the entry stays the event id that
    cancel() and retarget() take. A time within the run and strictly
    before every pending entry is the one a push and pop would give next,
    so the queue dispatches the entry again at once, with no heap push or
    pop and no sequence number: the numbers it skips shift every later one
    alike. A tie with a pending entry, or a time past the run, pushes the
    entry back with the next sequence number. Cancellation is lazy:
    cancelled entries stay in the heap and are skipped on pop.
    """

    def __init__(self) -> None:
        self.clock_us: int = 0
        self._heap: list[list] = []
        self._seq = count(1).__next__

    def schedule(self, at_us: int, fn: Callable[[], int | None]) -> list:
        """Schedule fn() at at_us. Returns an event id usable with cancel().

        fn returns None, or the µs at which it runs again (see the class).
        """
        if at_us < self.clock_us:
            raise _past_timestamp(at_us, self.clock_us)
        entry = [at_us, self._seq(), fn]
        heappush(self._heap, entry)
        return entry

    def cancel(self, event_id: list) -> None:
        """Cancel a pending event. A handler that cancels its own event
        does not run again, whatever it returns; cancelling an event that
        has ended is a no-op."""
        event_id[2] = None

    def retarget(self, event_id: list, fn: Callable[[], int | None]) -> None:
        """Make the event's next dispatch call fn; a handler may retarget
        its own event before it returns a time. A cancelled event stays
        cancelled."""
        if event_id[2] is not None:
            event_id[2] = fn

    def run_until(self, t_end_us: int) -> int:
        """Dispatch every event with timestamp <= t_end_us; clock ends at t_end_us."""
        if t_end_us < self.clock_us:
            raise SchedulingError(
                f"cannot run to {t_end_us} µs, clock is {self.clock_us} µs"
            )
        dispatched = 0
        heap = self._heap
        seq = self._seq
        while heap and heap[0][0] <= t_end_us:
            entry = heappop(heap)
            fn = entry[2]
            if fn is None:
                continue
            at_us = entry[0]
            while True:
                self.clock_us = at_us
                next_us = fn()
                dispatched += 1
                if next_us is None:
                    break
                if next_us < at_us:
                    raise _past_timestamp(next_us, at_us)
                fn = entry[2]
                if fn is None:   # cancelled by its own handler
                    break
                entry[0] = next_us
                if next_us > t_end_us or (heap and heap[0][0] <= next_us):
                    entry[1] = seq()
                    heappush(heap, entry)
                    break
                at_us = next_us
        self.clock_us = t_end_us
        return dispatched
