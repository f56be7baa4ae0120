"""Traffic sources and sinks: saturating UDP flows and ping-style RTT probing.

Payload sizes are application-level; the airtime-relevant MPDU adds the
transport + IP + MAC header overhead of 56 bytes. 1472-byte payloads
therefore fill a 1500-byte IP packet without fragmentation.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import EventQueue
from .mac import Station, airtime_rows
from .record import Frozen

DEFAULT_HEADER_OVERHEAD = 56   # 8 transport + 20 IP + 28 MAC/FCS

UDP_DATA = "udp"
ECHO_REQUEST = "echo_req"
ECHO_REPLY = "echo_rep"


class Packet(NamedTuple):
    """One application packet; an immutable tuple, equal by value."""

    kind: str
    seq: int
    payload_bytes: int
    mpdu_bytes: int
    created_us: int
    flow: str


def _round_half_up_us(seconds: float) -> int:
    return int(seconds * 1e6 + 0.5)


def _check_payload(payload_bytes: int) -> None:
    if not 1 <= payload_bytes <= 2272:
        raise ValueError("payload_bytes must be in [1, 2272]")


class UdpFlowConfig(Frozen):
    src: str
    dst: str
    offered_load_bps: float = 54e6
    payload_bytes: int = 1472
    start_us: int = 0
    stop_us: int = 300_000_000

    def __post_init__(self) -> None:
        if not self.offered_load_bps > 0:   # written so that nan fails too
            raise ValueError("offered_load_bps must be > 0")
        _check_payload(self.payload_bytes)
        try:
            gap_us = self.gap_us
        except OverflowError:   # the gap in µs is infinite
            raise ValueError("offered_load_bps too low: inter-packet gap "
                             "overflows") from None
        if gap_us < 1:
            raise ValueError("offered load too high: inter-packet gap below 1 µs")

    @property
    def gap_us(self) -> int:
        """Constant-bit-rate inter-packet gap, rounded half-up to µs."""
        return _round_half_up_us(self.payload_bytes * 8 / self.offered_load_bps)


class PingConfig(Frozen):
    src: str
    dst: str
    interval_us: int = 100_000
    payload_bytes: int = 1472
    start_us: int = 0
    stop_us: int = 300_000_000

    def __post_init__(self) -> None:
        if self.interval_us <= 0:
            raise ValueError("interval_us must be > 0")
        _check_payload(self.payload_bytes)


class UdpSource:
    """Constant-bit-rate generator feeding one station's queue.

    Each arrival returns the µs of the next to the engine, which runs the
    source's one queue entry again then (see EventQueue), or None once the
    flow stops or the source parks. The source parks when its gap is below
    the shortest data airtime at its MPDU size, it is its station's only
    producer, and the station's event log has no ``drop`` callback
    (queue-full rows stay in dispatch order, each at its arrival). A parked
    source schedules no arrival once one leaves the queue full; the
    station's next dequeue, at T, counts the skipped arrivals before T as
    the tail drops they would have been, with their sequence numbers, and
    enqueues the first arrival not before T at once. That is exact: an
    arrival due at T would be scheduled later than the data end at T, so it
    would find the freed slot, and the next dequeue comes at least DIFS plus
    a data airtime after T, so nothing reads the queue before the arrival
    is due; the events not scheduled shift every later tie-break sequence
    number alike. One event at stop_us counts the arrivals still owed. An
    arrival that meets a full queue builds no packet: it counts one tail
    drop and hands its ``queue_full`` row to the log's ``drop`` itself.
    """

    def __init__(self, engine: EventQueue, station: Station,
                 cfg: UdpFlowConfig, flow: str):
        self.engine = engine
        self.station = station
        self.cfg = cfg
        self.flow = flow
        self.next_seq = 0
        self._gap_us = cfg.gap_us
        self._mpdu_bytes = cfg.payload_bytes + DEFAULT_HEADER_OVERHEAD
        self._next_us = cfg.start_us   # first arrival not yet accounted for
        station.producers += 1
        self._park = station.log_drop is None and self._gap_us < min(
            row.data_us for row in airtime_rows(self._mpdu_bytes))
        if cfg.stop_us > cfg.start_us:
            engine.schedule(cfg.start_us, self._emit)
            if self._park:
                engine.schedule(cfg.stop_us, self._settle)

    def _emit(self) -> int | None:
        now = self.engine.clock_us
        station = self.station
        queue = station.queue
        capacity = station.params.queue_capacity
        if len(queue) >= capacity:
            # the tail drop of Station.enqueue_packet, inlined as a logged
            # saturated flow runs it at most of its arrivals
            station.stats.queue_drops += 1
            if station.log_drop is not None:
                station.log_drop(now, station.node, self.next_seq, 0,
                                 "queue_full")
        else:
            # Packet(...) without its Python-level __new__
            station.enqueue_packet(tuple.__new__(Packet, (
                UDP_DATA, self.next_seq, self.cfg.payload_bytes,
                self._mpdu_bytes, now, self.flow,
            )))
        self.next_seq += 1
        next_t = self._next_us = now + self._gap_us
        if next_t < self.cfg.stop_us:
            if (self._park and len(queue) >= capacity
                    and station.producers == 1):
                station.parked = self
            else:
                return next_t
        return None

    def on_dequeue(self, now_us: int) -> None:
        """Count the skipped arrivals before a dequeue at now_us as tail
        drops, enqueue the arrival that refills the freed slot, and park
        again: that arrival leaves the queue full.

        The refill goes straight onto the station's queue: the dequeue
        has just freed its slot and left a frame in service, so
        ``Station.enqueue_packet`` would neither drop it nor start it."""
        cfg = self.cfg
        stop = cfg.stop_us
        t = self._next_us
        end = now_us if now_us < stop else stop
        if t < end:   # they met the full queue
            missed = -((t - end) // self._gap_us)
            self.next_seq += missed
            self.station.stats.queue_drops += missed
            t += missed * self._gap_us
        if t < stop:
            self.station.queue.append(tuple.__new__(Packet, (
                UDP_DATA, self.next_seq, cfg.payload_bytes, self._mpdu_bytes,
                t, self.flow)))
            self.next_seq += 1
            t += self._gap_us
            if t < stop:
                self.station.parked = self
        self._next_us = t

    def _settle(self) -> None:
        """Count the arrivals a still parked source skipped before stop_us:
        a dequeue at stop_us counts them and refills nothing."""
        if self.station.parked is self:
            self.on_dequeue(self.cfg.stop_us)


class UdpSink:
    """Sums the payload bytes a flow delivers in each whole second of a run.

    A packet counts at its receive time plus the receiving node's processing
    delay; one that lands at or after the run's end is not counted. The sink
    holds one int per second, whatever the number of packets.
    """

    def __init__(self, station: Station, flow: str, duration_s: int,
                 processing_delay_us: int = 0):
        self.flow = flow
        self._delay_us = processing_delay_us
        self._end_us = duration_s * 1_000_000
        self.bytes_per_s = [0] * duration_s
        station.rx_handlers.append(self._on_rx)

    def _on_rx(self, packet: Packet, t_us: int) -> None:
        if packet.kind == UDP_DATA and packet.flow == self.flow:
            t_us += self._delay_us
            if t_us < self._end_us:
                self.bytes_per_s[t_us // 1_000_000] += packet.payload_bytes


class PingApp:
    """Echo request/reply prober.

    One request per interval; a delivered request is answered immediately
    with an equal-size reply, and unanswered requests produce no sample.
    The per-node processing delay (the stack traversal cost) enters the RTT
    once at each of the two nodes as additive latency, leaving MAC timing
    untouched.
    """

    def __init__(self, engine: EventQueue, requester: Station,
                 responder: Station, cfg: PingConfig, flow: str,
                 processing_delay_us: int = 0):
        self.engine = engine
        self.requester = requester
        self.responder = responder
        self.cfg = cfg
        self.flow = flow
        self.next_seq = 0
        self.outstanding: dict[int, int] = {}
        self.samples: list[tuple[int, int]] = []   # (send_t_us, rtt_us)
        self._extra_delay_us = 2 * processing_delay_us
        self._mpdu_bytes = cfg.payload_bytes + DEFAULT_HEADER_OVERHEAD
        requester.producers += 1
        responder.producers += 1
        requester.rx_handlers.append(self._on_reply)
        responder.rx_handlers.append(self._on_request)
        if cfg.stop_us > cfg.start_us:
            engine.schedule(cfg.start_us, self._send_request)

    def _send_request(self) -> int | None:
        now = self.engine.clock_us
        cfg = self.cfg
        self.outstanding[self.next_seq] = now
        self.requester.enqueue_packet(Packet(
            ECHO_REQUEST, self.next_seq, cfg.payload_bytes, self._mpdu_bytes,
            now, self.flow,
        ))
        self.next_seq += 1
        next_t = now + cfg.interval_us
        return next_t if next_t < cfg.stop_us else None

    def _on_request(self, packet: Packet, t_us: int) -> None:
        if packet.kind != ECHO_REQUEST or packet.flow != self.flow:
            return
        reply = Packet(ECHO_REPLY, packet.seq, packet.payload_bytes,
                       packet.mpdu_bytes, t_us, self.flow)
        self.responder.enqueue_packet(reply)

    def _on_reply(self, packet: Packet, t_us: int) -> None:
        if packet.kind != ECHO_REPLY or packet.flow != self.flow:
            return
        send_t = self.outstanding.pop(packet.seq, None)
        if send_t is not None:
            self.samples.append((send_t, t_us - send_t + self._extra_delay_us))
