"""Traffic sources and sinks: saturating UDP flows and ping-style RTT probing.

Payload sizes are application-level; the airtime-relevant MPDU adds the
transport + IP + MAC header overhead of 56 bytes. 1472-byte payloads
therefore fill a 1500-byte IP packet without fragmentation.
"""

from __future__ import annotations

from array import array
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
        if not 1 <= self.payload_bytes <= 2272:
            raise ValueError("payload_bytes must be in [1, 2272]")
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
        if not 1 <= self.payload_bytes <= 2272:
            raise ValueError("payload_bytes must be in [1, 2272]")


class UdpSource:
    """Constant-bit-rate generator feeding one station's queue.

    Unless the station's event log defines a ``drop`` callback, the source
    stops scheduling arrivals once one leaves the queue full, and the station
    hands it the next dequeue; the arrivals it skipped are counted then as
    the tail drops they would have been, with the sequence numbers they would
    have taken, and those still owed at stop_us by one event at that time.
    The first arrival after the dequeue refills the freed slot. When the gap
    is shorter than DIFS plus the shortest data airtime at the flow's MPDU
    size, that arrival comes before the station's next dequeue, so the
    dequeue enqueues it at once, with its own arrival time, and the source
    parks again (see ``_refill_is_exact``); otherwise it is scheduled.
    Parking needs the source to be the station's only producer and no
    ``drop`` callback (each queue-full row stays in dispatch order, at its
    arrival), and it stays off when
    the gap equals a data airtime, where a dequeue and an arrival in the
    same µs could not be ordered without the skipped events (see
    ``_parking_is_exact``). An arrival that meets a full queue builds no
    packet: the station counts and logs it as one tail drop.
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
        data_us = [row.data_us for row in airtime_rows(
            self._mpdu_bytes, station.params.basic_rates_mbps)]
        self._park = (station.log_drop is None
                      and self._parking_is_exact(data_us))
        self._refill = self._refill_is_exact(data_us)
        if cfg.stop_us > cfg.start_us:
            engine.schedule(cfg.start_us, self._emit)
            if self._park:
                engine.schedule(cfg.stop_us, self._settle)

    def _parking_is_exact(self, data_us: list[int]) -> bool:
        """Whether every arrival the source skips has a known outcome.

        A skipped arrival due at dequeue time T was scheduled at T - gap and
        the dequeue at T - data_us, so the earlier of the two ran first;
        equal times would need the skipped event's place in the heap. The
        arrival then scheduled at T in place of the skipped ones finds a
        free slot, so only its order against a peer access grant in its µs
        could matter, and only if the station has drained and gone idle by
        then. To drain, the station sent after T, and that transmission
        rescheduled any peer access grant scheduled by T, so both paths run
        such a grant after the arrival. data_us holds the data airtime of
        every mode at the flow's MPDU size.
        """
        return self._gap_us not in data_us

    def _refill_is_exact(self, data_us: list[int]) -> bool:
        """Whether a dequeue may enqueue the next arrival ahead of its time.

        At a dequeue at T the queue holds capacity - 1 packets, and the next
        arrival t_n is at most T + gap. The next dequeue ends a data frame
        whose access grant waited at least DIFS after T, so it comes no
        earlier than T + DIFS + min(data_us). With gap below that, t_n comes
        first and finds the free slot; the only producer is this source, and
        nothing reads the queue before that dequeue, so the packet may join
        the queue at T with created_us = t_n. The event it no longer needs
        shifts every later sequence number alike, so no tie order changes.
        """
        return self._gap_us < self.station.params.difs_us + min(data_us)

    def _emit(self) -> None:
        self._arrive(self.engine.clock_us)

    def _arrive(self, now: int) -> None:
        """The arrival due at now; a dequeue that refills passes its time."""
        station = self.station
        queue = station.queue
        capacity = station.params.queue_capacity
        if len(queue) >= capacity:
            station.tail_drop(self.next_seq)
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
                self.engine.schedule(next_t, self._emit)

    def _drop_before(self, end_us: int) -> None:
        """Count the skipped arrivals before end_us as tail drops."""
        t = self._next_us
        if t < end_us:
            missed = -((t - end_us) // self._gap_us)
            self.next_seq += missed
            self.station.stats.queue_drops += missed
            self._next_us = t + missed * self._gap_us

    def on_dequeue(self, now_us: int, data_us: int) -> None:
        """Resolve the skipped arrivals up to a dequeue at now_us, and
        enqueue or schedule the arrival that refills the freed slot.

        data_us is the data airtime of the exchange that ended at now_us.
        """
        stop = self.cfg.stop_us
        self._drop_before(min(now_us, stop))   # they met the full queue
        if self._next_us == now_us < stop and self._gap_us >= data_us:
            self._drop_before(now_us + 1)   # ran before the dequeue, on the full queue
        next_t = self._next_us
        if next_t < stop:   # the queue has a free slot until then
            if next_t == now_us or self._refill:   # before the next dequeue
                self._arrive(next_t)
            else:
                self.engine.schedule(next_t, self._emit)

    def _settle(self) -> None:
        """Count the arrivals a still parked source skipped before stop_us."""
        if self.station.parked is self:
            self._drop_before(self.cfg.stop_us)


class UdpSink:
    """Records (rx_time_us, payload_bytes) per delivered packet.

    Receive timestamps include the receiving node's processing delay. They
    are kept as int64 (8 bytes a sample); the payload sizes stay a list,
    whose entries are all the flow's one payload int.
    """

    def __init__(self, station: Station, flow: str,
                 processing_delay_us: int = 0):
        self.flow = flow
        self._delay_us = processing_delay_us
        self.rx_t_us = array("q")
        self.rx_bytes: list[int] = []
        station.rx_handlers.append(self._on_rx)

    def _on_rx(self, packet: Packet, t_us: int) -> None:
        if packet.kind == UDP_DATA and packet.flow == self.flow:
            self.rx_t_us.append(t_us + self._delay_us)
            self.rx_bytes.append(packet.payload_bytes)

    def records(self):
        return zip(self.rx_t_us, self.rx_bytes)


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

    def _send_request(self) -> None:
        now = self.engine.clock_us
        cfg = self.cfg
        self.outstanding[self.next_seq] = now
        self.requester.enqueue_packet(Packet(
            ECHO_REQUEST, self.next_seq, cfg.payload_bytes, self._mpdu_bytes,
            now, self.flow,
        ))
        self.next_seq += 1
        next_t = now + cfg.interval_us
        if next_t < cfg.stop_us:
            self.engine.schedule(next_t, self._send_request)

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
