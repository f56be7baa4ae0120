"""Event queue ordering, clock semantics, and RNG stream determinism."""

import random

import pytest

from linksim.engine import EventQueue, RngStream, SchedulingError


def test_fifo_tie_break():
    q = EventQueue()
    order = []
    q.schedule(0, lambda: order.append("e1"))
    q.schedule(0, lambda: order.append("e2"))
    q.run_until(0)
    assert order == ["e1", "e2"]


def test_past_timestamp_rejected():
    q = EventQueue()
    q.schedule(5, lambda: None)
    q.run_until(5)
    with pytest.raises(SchedulingError, match="past timestamp"):
        q.schedule(4, lambda: None)


def test_clock_advances_to_event_time():
    q = EventQueue()
    seen = []
    q.schedule(10, lambda: seen.append(q.clock_us))
    q.run_until(20)
    assert seen == [10]
    assert q.clock_us == 20


def test_run_until_empty_queue_advances_clock():
    q = EventQueue()
    assert q.run_until(300_000_000) == 0
    assert q.clock_us == 300_000_000


def test_run_until_boundary_inclusive():
    q = EventQueue()
    hits = []
    q.schedule(100, lambda: hits.append(1))
    assert q.run_until(100) == 1
    assert hits == [1]


def test_cascading_events_dispatch_in_same_run():
    q = EventQueue()
    order = []

    def outer():
        order.append("outer")
        q.schedule(q.clock_us, lambda: order.append("inner_now"))
        q.schedule(q.clock_us + 5, lambda: order.append("inner_later"))

    q.schedule(10, outer)
    count = q.run_until(15)
    assert order == ["outer", "inner_now", "inner_later"]
    assert count == 3


def test_cancel_pending_event():
    q = EventQueue()
    hits = []
    eid = q.schedule(10, lambda: hits.append(1))
    q.schedule(10, lambda: hits.append(2))
    q.cancel(eid)
    q.run_until(20)
    assert hits == [2]


def _ticker_order(returning: bool, seed: int) -> list:
    """Dispatch order of tickers with random gaps (zero gaps and same-µs
    starts included) that each also schedule side events; each ticker
    either returns its next time or schedules it as its last statement."""
    plan = random.Random(seed)
    q = EventQueue()
    order = []

    def ticker(name, steps):
        steps = iter(steps)

        def tick():
            order.append((q.clock_us, name))
            gap, side_delays = next(steps)
            for i, delay in enumerate(side_delays):
                q.schedule(q.clock_us + delay,
                           lambda tag=(name, i): order.append((q.clock_us, tag)))
            if gap is None:
                return None
            if returning:
                return q.clock_us + gap
            q.schedule(q.clock_us + gap, tick)
        return tick

    for name in range(6):
        steps = [(plan.choice((0, 0, 1, 2, 5)),
                  [plan.choice((0, 1, 3)) for _ in range(plan.randrange(3))])
                 for _ in range(plan.randrange(1, 40))]
        steps[-1] = (None, steps[-1][1])
        q.schedule(plan.choice((0, 0, 1, 4)), ticker(name, steps))
    dispatched = q.run_until(10_000)
    assert dispatched == len(order)
    return order


@pytest.mark.parametrize("seed", range(20))
def test_a_returned_time_dispatches_as_a_last_schedule_call(seed):
    order = _ticker_order(returning=True, seed=seed)
    assert order == _ticker_order(returning=False, seed=seed)
    assert len({t for t, _ in order}) < len(order)   # same-µs ties ran


def test_returning_none_ends_the_handler():
    q = EventQueue()
    hits = []
    q.schedule(3, lambda: hits.append(q.clock_us))   # append returns None
    assert q.run_until(100) == 1
    assert q.run_until(1000) == 0
    assert hits == [3]


def test_a_returned_past_time_is_rejected():
    q = EventQueue()
    times = iter((4,))
    q.schedule(5, lambda: next(times, None))
    with pytest.raises(SchedulingError, match="cannot schedule at 4 µs, "
                                              "clock is 5 µs"):
        q.run_until(10)
    q = EventQueue()
    hits = []
    q.schedule(5, lambda: hits.append(q.clock_us)
               or (5 if len(hits) < 3 else None))
    q.run_until(5)   # the entry's own time is not in the past
    assert hits == [5, 5, 5]


def test_cancel_stops_a_returning_handler():
    q = EventQueue()
    ticks = []

    def tick():
        ticks.append(q.clock_us)
        return q.clock_us + 10

    eid = q.schedule(0, tick)
    q.schedule(25, lambda: q.cancel(eid))
    q.run_until(100)
    assert ticks == [0, 10, 20]

    def last_tick():   # cancels its own entry, then returns a time
        ticks.append(q.clock_us)
        q.cancel(own)
        return q.clock_us + 1

    ticks.clear()
    own = q.schedule(100, last_tick)
    q.run_until(200)
    assert ticks == [100]


def test_a_time_before_every_pending_entry_dispatches_in_place():
    q = EventQueue()
    seen = []

    def tick():
        seen.append((q.clock_us, len(q._heap)))
        return q.clock_us + 10 if q.clock_us < 40 else None

    q.schedule(0, tick)
    q.schedule(1000, lambda: None)
    assert q.run_until(100) == 5
    assert seen == [(0, 1), (10, 1), (20, 1), (30, 1), (40, 1)]
    assert q.clock_us == 100
    assert len(q._heap) == 1
    assert q._seq() == 3   # only the two schedule calls drew a number


def test_a_tie_with_a_pending_entry_lets_that_entry_go_first():
    q = EventQueue()
    order = []

    def tick():
        order.append(("tick", q.clock_us))
        return 10 if q.clock_us == 0 else None

    q.schedule(0, tick)
    q.schedule(10, lambda: order.append(("other", q.clock_us)))
    assert q.run_until(10) == 3
    assert order == [("tick", 0), ("other", 10), ("tick", 10)]


def test_a_time_past_the_run_stays_queued_in_order():
    q = EventQueue()
    order = []

    def tick():
        order.append(("tick", q.clock_us))
        return 150 if q.clock_us < 150 else None

    q.schedule(50, tick)
    assert q.run_until(100) == 1
    assert q.clock_us == 100
    assert len(q._heap) == 1
    q.schedule(150, lambda: order.append(("later", q.clock_us)))
    assert q.run_until(200) == 2
    assert order == [("tick", 50), ("tick", 150), ("later", 150)]


@pytest.mark.parametrize("pending_us", [None, 1, 1000])
def test_an_entry_cancelled_in_its_own_handler_does_not_run_again(pending_us):
    # with no pending entry, or a later one, the returned time would
    # dispatch in place; a tie with the pending entry would push it back
    q = EventQueue()
    ticks = []

    def tick():
        ticks.append(q.clock_us)
        q.cancel(own)
        return q.clock_us + 1

    own = q.schedule(0, tick)
    if pending_us is not None:
        q.schedule(pending_us, lambda: None)
    assert q.run_until(2000) == 1 + (pending_us is not None)
    assert ticks == [0]


def test_a_past_time_raises_from_the_in_place_loop():
    q = EventQueue()
    times = iter((7, 6))
    q.schedule(5, lambda: next(times))
    q.schedule(100, lambda: None)
    with pytest.raises(SchedulingError, match="cannot schedule at 6 µs, "
                                              "clock is 7 µs"):
        q.run_until(10)


def test_clock_monotone_and_insertion_order_property():
    rng = random.Random(7)
    q = EventQueue()
    dispatched = []
    insertion = {}
    counter = 0
    for _ in range(50):
        batch_t = rng.randrange(0, 1000)
        for _ in range(rng.randrange(1, 6)):
            counter += 1
            tag = counter
            insertion[tag] = batch_t
            try:
                q.schedule(batch_t, lambda tag=tag: dispatched.append(tag))
            except SchedulingError:
                pass
    q.run_until(1000)
    times = [insertion[tag] for tag in dispatched]
    assert times == sorted(times)
    for t in set(times):
        group = [tag for tag in dispatched if insertion[tag] == t]
        assert group == sorted(group)


def test_stream_determinism():
    a = RngStream(42, "phy.rx.A->B")
    b = RngStream(42, "phy.rx.A->B")
    assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]


def test_stream_label_separation():
    x = RngStream(42, "x")
    y = RngStream(42, "y")
    assert [x.random() for _ in range(10)] != [y.random() for _ in range(10)]


def test_stream_seed_separation():
    x = RngStream(42, "x")
    y = RngStream(43, "x")
    assert [x.random() for _ in range(10)] != [y.random() for _ in range(10)]


def test_stream_consumers_do_not_perturb_each_other():
    first = RngStream(9, "mac.backoff.A")
    ref = [first.random() for _ in range(20)]
    again = RngStream(9, "mac.backoff.A")
    other = RngStream(9, "mac.backoff.B")
    interleaved = []
    for _ in range(20):
        other.random()
        interleaved.append(again.random())
    assert interleaved == ref


def test_stream_requires_label():
    with pytest.raises(ValueError):
        RngStream(1, "")


def test_randint_bounds():
    rng = RngStream(3, "bounds")
    draws = {rng.randint(0, 3) for _ in range(200)}
    assert draws == {0, 1, 2, 3}


def draw_pair(seed=5, label="kernel"):
    """A stream and a plain Random in the same state."""
    stream = RngStream(seed, label)
    ref = random.Random()
    ref.setstate(stream._rng.getstate())
    return stream, ref


@pytest.mark.parametrize("low, n", [
    (0, 1), (0, 2), (0, 3), (0, 7), (0, 16), (0, 1024), (0, 2**40 + 3),
    (-4, 7), (100, 3)])
def test_randint_draws_as_randrange(low, n):
    stream, ref = draw_pair()
    high = low + n - 1
    draws = [stream.randint(low, high) for _ in range(2_000)]
    assert draws == [ref.randrange(low, high + 1) for _ in range(2_000)]
    assert min(draws) >= low and max(draws) <= high
    # same Mersenne Twister outputs consumed, so the streams go on alike
    assert stream.random() == ref.random()


def test_randint_rejects_an_empty_range():
    stream, ref = draw_pair()
    with pytest.raises(ValueError):
        stream.randint(5, 4)
    with pytest.raises(ValueError):
        ref.randrange(5, 5)
    assert stream.random() == ref.random()
