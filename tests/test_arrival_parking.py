"""Parked CBR sources: a log-off run that skips full-queue arrivals must
match the per-arrival run exactly.

An event log that defines a ``drop`` callback forces every arrival to be
dispatched (its drop rows stay in dispatch order, each at its arrival), so
each config runs twice from one build: once with no log, where sources
park, and once with an observer that defines every callback and so gets
every row, which it discards. The SNR recorder defines no ``drop``
callback, so ``record-trace`` parks as a log-off run does.
Log-off artifacts carry no sequence numbers, so the sinks' received
``(rx_t_us, seq)`` lists are compared as well as the stats and series.
A source parks only when its gap is below the shortest data airtime at its
MPDU size; every dequeue that frees its slot then enqueues its next arrival
at once, ahead of that arrival's time. Any other source takes the
per-arrival path, so the two paths are compared on each side of that
threshold.
"""

import io
import random
from itertools import combinations, product
from pathlib import Path

import pytest

from linksim import scenario, traffic
from linksim.channel import Channel, PropagationSpec
from linksim.engine import EventQueue
from linksim.mac import DcfParams, FixedRate, build_point_to_point
from linksim.phy import MODES
from linksim.record import replace
from linksim.scenario import (UDP_BIDI, CsvEventLog, build, execute_record,
                              execute_run, parse_config, simulate)
from linksim.traces import MobilityTrace, parse_snr_trace
from linksim.traffic import PingApp, PingConfig, UdpFlowConfig, UdpSource

from recording_sink import SeqSink

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = sorted(p.stem for p in SCENARIOS.glob("*.ini"))


class DiscardLog:
    def tx(self, *row):
        pass

    def rx(self, *row):
        pass

    def drop(self, *row):
        pass


def bundled(name, **overrides):
    return replace(parse_config(SCENARIOS / f"{name}.ini"), duration_s=2,
                   **overrides)


def run(built, event_log, monkeypatch):
    """simulate() plus every sink's received (rx_t_us, seq) lists, the
    number of events run_until dispatched and the number of sources that
    park."""
    sinks = []
    sources = []
    dispatched = []

    class RecordingSink(SeqSink):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sinks.append(self)

    class RecordingSource(traffic.UdpSource):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sources.append(self)

    run_until = EventQueue.run_until

    def counting_run_until(self, t_end_us):
        dispatched.append(run_until(self, t_end_us))
        return dispatched[-1]

    with monkeypatch.context() as m:
        m.setattr(scenario, "UdpSink", RecordingSink)
        m.setattr(scenario, "UdpSource", RecordingSource)
        m.setattr(EventQueue, "run_until", counting_run_until)
        result = simulate(built, event_log=event_log)
    received = {s.flow: (s.rx_t_us, s.rx_seq) for s in sinks}
    parking = sum(s._park for s in sources)
    return result, received, sum(dispatched), parking


def assert_parking_exact(cfg, monkeypatch):
    """Both paths agree, and the parked run dispatches no arrival that is
    dropped: every drop is one event fewer, as is every arrival a dequeue
    enqueues, and each parking source adds one event at its stop time.
    Returns the queue drops and the number of parking sources."""
    built = build(cfg)
    parked, parked_rx, parked_events, parking = run(built, None, monkeypatch)
    full, full_rx, full_events, full_parking = run(built, DiscardLog(),
                                                   monkeypatch)
    assert full_parking == 0
    assert parked.stats == full.stats
    assert parked.throughput == full.throughput
    assert (parked.rtt, parked.rtt_samples) == (full.rtt, full.rtt_samples)
    assert parked_rx == full_rx
    drops = sum(st.queue_drops for st in parked.stats.values())
    if parking:
        assert full_events - parked_events >= drops - parking
    else:
        assert full_events == parked_events
    return drops, parking


def count_ties(monkeypatch):
    """Record the dequeues that coincide with a skipped arrival; the
    arrival always runs after the dequeue, so each is enqueued."""
    ties = []
    on_dequeue = traffic.UdpSource.on_dequeue

    def counting(self, now_us):
        t, gap = self._next_us, self._gap_us
        if t < now_us:
            t += -((t - now_us) // gap) * gap
        if t == now_us < self.cfg.stop_us:
            ties.append(now_us)
        on_dequeue(self, now_us)

    monkeypatch.setattr(traffic.UdpSource, "on_dequeue", counting)
    return ties


def count_refills(monkeypatch):
    """Count the packets enqueued before their own arrival time: the
    arrivals a dequeue enqueued at once instead of scheduling them. A
    refill goes straight onto the station's queue, so each packet that
    ``UdpSource.on_dequeue`` appends is read off the queue's tail."""
    refills = []
    on_dequeue = traffic.UdpSource.on_dequeue

    def counting(self, now_us):
        queue = self.station.queue
        queued = len(queue)
        on_dequeue(self, now_us)
        if len(queue) > queued and queue[-1].created_us > self.engine.clock_us:
            refills.append(queue[-1].created_us)

    monkeypatch.setattr(traffic.UdpSource, "on_dequeue", counting)
    return refills


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_park_exactly(name, monkeypatch):
    assert_parking_exact(bundled(name), monkeypatch)


def test_tie_with_gap_below_data_airtime_enqueues(monkeypatch):
    # 218 µs gap; the dequeue is scheduled first and frees the slot
    ties = count_ties(monkeypatch)
    assert_parking_exact(bundled("udp_unidirectional", offered_load_bps=54e6),
                         monkeypatch)
    assert ties


@pytest.mark.parametrize("name", ["udp_unidirectional", "udp_bidirectional"])
@pytest.mark.parametrize("load_bps, gap_us", [
    (47.4838709677e6, 248), (44.95e6, 262), (40e6, 294)])
def test_a_gap_not_below_the_shortest_data_airtime_keeps_every_arrival(
        name, load_bps, gap_us, monkeypatch):
    # 248 µs is the 54 Mbit/s airtime, where a dequeue and an arrival in
    # the same µs could not be ordered without the skipped events
    cfg = bundled(name, offered_load_bps=load_bps)
    assert build(cfg).udp_flows[0].gap_us == gap_us
    drops, parking = assert_parking_exact(cfg, monkeypatch)
    assert drops > 0 and parking == 0


@pytest.mark.parametrize("name", ["udp_unidirectional", "udp_bidirectional"])
@pytest.mark.parametrize("capacity", [1, 3])
def test_small_queues_park_exactly(name, capacity, monkeypatch):
    refills = count_refills(monkeypatch)
    drops, parking = assert_parking_exact(
        bundled(name, queue_capacity=capacity), monkeypatch)
    assert drops > 0 and parking > 0
    assert refills


def test_bundled_uni_config_refills_at_the_dequeue(monkeypatch):
    # 218 µs gap, below DIFS + the 54 Mbit/s airtime of 248 µs
    refills = count_refills(monkeypatch)
    drops, parking = assert_parking_exact(bundled("udp_unidirectional"),
                                          monkeypatch)
    assert drops > 0 and parking == 1
    assert len(refills) > 1000


@pytest.mark.parametrize("load_bps, gap_us, capacity, parks", [
    (47.68e6, 247, 500, True), (47.68e6, 247, 1, True),
    (41.9e6, 281, 500, False), (40e6, 294, 1, False)])
@pytest.mark.parametrize("rate_control", ["fixed", "minstrel"])
def test_parking_needs_a_gap_below_the_shortest_data_airtime(
        load_bps, gap_us, capacity, parks, rate_control, monkeypatch):
    # At a fixed 6 Mbit/s each exchange takes ~2 ms, yet the threshold is
    # the 248 µs airtime of the fastest mode, whichever mode the run uses
    cfg = bundled("udp_unidirectional", rate_control=rate_control,
                  fixed_mode_mbps=6, offered_load_bps=load_bps,
                  queue_capacity=capacity)
    assert build(cfg).udp_flows[0].gap_us == gap_us
    refills = count_refills(monkeypatch)
    drops, parking = assert_parking_exact(cfg, monkeypatch)
    assert drops > 0 and parking == int(parks)
    assert bool(refills) == parks


@pytest.mark.parametrize("after_us", [0, 1])
def test_a_stop_just_after_a_refill_parks_exactly(after_us, monkeypatch):
    cfg = bundled("udp_unidirectional")
    with monkeypatch.context() as m:
        refills = count_refills(m)
        simulate(build(cfg))
    last_us = refills[len(refills) // 2]
    refills = count_refills(monkeypatch)
    drops, parking = assert_parking_exact(
        replace(cfg, stop_us=last_us + after_us), monkeypatch)
    assert drops > 0 and parking == 1
    # a stop at the refill's own time leaves that arrival out
    assert refills[-1] == last_us if after_us else refills[-1] < last_us


def test_a_parked_source_dispatches_no_arrival(monkeypatch):
    # after its first park, a saturated log-off source's every arrival is
    # counted as a drop or enqueued by a dequeue, never dispatched
    built = build(bundled("udp_bidirectional"))
    parked_once = set()
    late = []
    emit = traffic.UdpSource._emit

    def checking_emit(self):
        if self in parked_once:
            late.append(self.engine.clock_us)
        next_us = emit(self)
        if self.station.parked is self:
            parked_once.add(self)
        return next_us

    monkeypatch.setattr(traffic.UdpSource, "_emit", checking_emit)
    parked, _, _, parking = run(built, None, monkeypatch)
    assert parking == 2 and len(parked_once) == 2
    assert all(st.queue_drops > 0 for st in parked.stats.values())
    assert late == []


def test_fixed_low_rate_parks_exactly(monkeypatch):
    cfg = bundled("udp_bidirectional", rate_control="fixed", fixed_mode_mbps=6)
    drops, parking = assert_parking_exact(cfg, monkeypatch)
    assert drops > 0 and parking > 0


def test_faded_lossy_link_parks_exactly(monkeypatch):
    # 30 m of log-distance loss with Nakagami fading: retries and
    # retry-limit drops end exchanges at every data airtime, and each
    # dequeue refills
    cfg = bundled("logdist_fading", traffic_kind=UDP_BIDI, gamma=3.0,
                  nodes={"Master": (0.0, 0.0, 0.0), "ClientA": (30.0, 0.0, 0.0)})
    refills = count_refills(monkeypatch)
    drops, parking = assert_parking_exact(cfg, monkeypatch)
    assert drops > 0 and parking > 0
    assert refills
    stats = simulate(build(cfg)).stats["ClientA"]
    assert stats.data_attempts > stats.data_frames
    assert stats.frames_dropped > 0


def test_no_dispatched_arrival_meets_a_full_queue(monkeypatch):
    built = build(bundled("udp_unidirectional"))
    met_full_queue = []
    emit = traffic.UdpSource._emit

    def checking_emit(self):
        station = self.station
        met_full_queue.append(
            len(station.queue) >= station.params.queue_capacity)
        return emit(self)

    with monkeypatch.context() as m:
        m.setattr(traffic.UdpSource, "_emit", checking_emit)
        parked, _, parked_events, parking = run(built, None, monkeypatch)
    _, _, full_events, _ = run(built, DiscardLog(), monkeypatch)
    drops = parked.stats["ClientA"].queue_drops
    assert drops > 0 and met_full_queue
    assert not any(met_full_queue)
    assert parking == 1
    assert full_events - parked_events >= drops - 1   # plus the stop event


# start offset, stop (None: the run's end), queue capacity, offered load and
# rate control; a fixed random draw of the whole grid keeps the sweep short
SWEEP = random.Random(1).sample(list(product(
    ["udp_unidirectional", "udp_bidirectional", "logdist_fading",
     "replay_asymmetric"],
    [0, 1, 217, 1_234], [600_011, None], [1, 2, 500],
    [40e6, 47.6e6, 54e6, 100e6], ["fixed", "minstrel"])), 40)


@pytest.mark.parametrize(
    "name, start_us, stop_us, capacity, load_bps, rate_control", SWEEP,
    ids=str)
def test_a_seeded_sweep_parks_exactly(name, start_us, stop_us, capacity,
                                      load_bps, rate_control, monkeypatch):
    cfg = replace(bundled(name), duration_s=1, start_us=start_us,
                  stop_us=stop_us, queue_capacity=capacity,
                  offered_load_bps=load_bps, rate_control=rate_control)
    drops, _ = assert_parking_exact(cfg, monkeypatch)
    assert drops > 0


def pair(event_log):
    trace = parse_snr_trace("t_us,tx,rx,snr_db\n0,A,B,60\n0,B,A,60\n")
    channel = Channel(PropagationSpec("trace", trace=trace),
                      MobilityTrace.static({"A": (0, 0, 0), "B": (6, 0, 0)}),
                      1)
    engine = EventQueue()
    st_a, st_b = build_point_to_point(
        engine, channel, DcfParams(queue_capacity=2), 1, "A", "B",
        lambda node: FixedRate(MODES[0]), event_log=event_log)
    return engine, st_a, st_b


def two_sources_one_queue(event_log, with_ping):
    engine, st_a, st_b = pair(event_log)
    sinks = []
    udp_sources = 0
    for flow in ("udp.A->B.1", "udp.A->B.2"):
        UdpSource(engine, st_a, UdpFlowConfig("A", "B", stop_us=200_000),
                  flow)
        sinks.append(SeqSink(st_b, flow, 1))
        udp_sources += 1
        if with_ping:   # the second producer is a ping requester
            app = PingApp(engine, st_a, st_b,
                          PingConfig("A", "B", interval_us=997,
                                     stop_us=200_000), "ping.A->B")
            break
    dispatched = engine.run_until(200_000)
    received = [(s.rx_t_us, s.rx_seq) for s in sinks]
    if with_ping:
        received.append(app.samples)
    return st_a.stats, received, dispatched, udp_sources


@pytest.mark.parametrize("with_ping", [False, True])
def test_a_second_producer_keeps_every_arrival(with_ping):
    # with the log off each source schedules its stop event and nothing less
    stats, received, dispatched, udp_sources = two_sources_one_queue(
        None, with_ping)
    logged = two_sources_one_queue(DiscardLog(), with_ping)
    assert stats.queue_drops > 0
    assert (stats, received) == logged[:2]
    assert dispatched == logged[2] + udp_sources


def test_record_trace_dispatches_as_many_events_as_a_log_off_run(
        tmp_path, monkeypatch):
    cfg = bundled("udp_unidirectional", log_events=False)
    dispatched = []
    run_until = EventQueue.run_until

    def counting_run_until(self, t_end_us):
        dispatched.append(run_until(self, t_end_us))
        return dispatched[-1]

    monkeypatch.setattr(EventQueue, "run_until", counting_run_until)
    recorded = execute_record(cfg, tmp_path / "trace.csv")
    plain, _ = execute_run(cfg, tmp_path / "run")
    assert recorded.stats["ClientA"].queue_drops > 0
    assert recorded.stats == plain.stats
    assert dispatched[0] == dispatched[1]


CALLBACKS = ("tx", "rx", "drop")


@pytest.mark.parametrize("callbacks", [
    subset for n in (1, 2, 3) for subset in combinations(CALLBACKS, n)],
    ids="+".join)
def test_an_observer_gets_the_rows_of_the_callbacks_it_defines(
        callbacks, monkeypatch):
    # fading, collisions and a retry limit of 1 give every row kind but a
    # failed ACK
    built = build(replace(bundled("logdist_fading", traffic_kind=UDP_BIDI,
                                  retry_limit=1), duration_s=1))
    reference = io.StringIO()
    simulate(built, event_log=CsvEventLog(reference))
    rows = []

    def recorder(callback):
        return lambda self, *row: rows.append((callback, row))

    observer = type("Observer", (), {c: recorder(c) for c in callbacks})()
    result, received, _, parking = run(built, observer, monkeypatch)
    plain, plain_received, _, _ = run(built, None, monkeypatch)

    written = io.StringIO()
    log = CsvEventLog(written)
    for callback, row in rows:
        getattr(log, callback)(*row)
    expected = [line for line in reference.getvalue().splitlines()[1:]
                if line.split(",")[2] in callbacks]
    assert expected
    assert written.getvalue().splitlines()[1:] == expected
    assert (result.stats, result.throughput) == (plain.stats, plain.throughput)
    assert received == plain_received
    assert parking == (0 if "drop" in callbacks else 2)
