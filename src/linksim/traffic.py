"""Traffic sources and sinks: saturating UDP flows and ping-style RTT probing.

Payload sizes are application-level; the airtime-relevant MPDU adds the
transport + IP + MAC header overhead (56 bytes by default, configurable per
flow). 1472-byte payloads therefore fill a 1500-byte IP packet without
fragmentation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import EventQueue
from .mac import Station

DEFAULT_HEADER_OVERHEAD = 56   # 8 transport + 20 IP + 28 MAC/FCS

UDP_DATA = "udp"
ECHO_REQUEST = "echo_req"
ECHO_REPLY = "echo_rep"


@dataclass(frozen=True, slots=True)
class Packet:
    kind: str
    seq: int
    payload_bytes: int
    mpdu_bytes: int
    created_us: int
    flow: str


def _round_half_up_us(seconds: float) -> int:
    return int(seconds * 1e6 + 0.5)


@dataclass(frozen=True)
class UdpFlowConfig:
    src: str
    dst: str
    offered_load_bps: float = 54e6
    payload_bytes: int = 1472
    start_us: int = 0
    stop_us: int = 300_000_000
    header_overhead_bytes: int = DEFAULT_HEADER_OVERHEAD

    def __post_init__(self) -> None:
        if self.offered_load_bps <= 0:
            raise ValueError("offered_load_bps must be > 0")
        if not 1 <= self.payload_bytes <= 2272:
            raise ValueError("payload_bytes must be in [1, 2272]")
        if self.gap_us < 1:
            raise ValueError("offered load too high: inter-packet gap below 1 µs")

    @property
    def gap_us(self) -> int:
        """Constant-bit-rate inter-packet gap, rounded half-up to µs."""
        return _round_half_up_us(self.payload_bytes * 8 / self.offered_load_bps)


@dataclass(frozen=True)
class PingConfig:
    src: str
    dst: str
    interval_us: int = 100_000
    payload_bytes: int = 1472
    start_us: int = 0
    stop_us: int = 300_000_000
    header_overhead_bytes: int = DEFAULT_HEADER_OVERHEAD

    def __post_init__(self) -> None:
        if self.interval_us <= 0:
            raise ValueError("interval_us must be > 0")
        if not 1 <= self.payload_bytes <= 2272:
            raise ValueError("payload_bytes must be in [1, 2272]")


def udp_arrival_times(cfg: UdpFlowConfig) -> list[int]:
    """Arrival instants of the CBR schedule: start, start+gap, ... below stop."""
    if cfg.stop_us <= cfg.start_us:
        return []
    return list(range(cfg.start_us, cfg.stop_us, cfg.gap_us))


class UdpSource:
    """Constant-bit-rate generator feeding one station's queue."""

    def __init__(self, engine: EventQueue, station: Station,
                 cfg: UdpFlowConfig, flow: str):
        self.engine = engine
        self.station = station
        self.cfg = cfg
        self.flow = flow
        self.next_seq = 0
        self._gap_us = cfg.gap_us
        self._mpdu_bytes = cfg.payload_bytes + cfg.header_overhead_bytes
        if cfg.stop_us > cfg.start_us:
            engine.schedule(cfg.start_us, self._emit)

    def _emit(self) -> None:
        now = self.engine.clock_us
        cfg = self.cfg
        self.station.enqueue_packet(Packet(
            UDP_DATA, self.next_seq, cfg.payload_bytes, self._mpdu_bytes, now,
            self.flow,
        ))
        self.next_seq += 1
        next_t = now + self._gap_us
        if next_t < cfg.stop_us:
            self.engine.schedule(next_t, self._emit)


class UdpSink:
    """Records (rx_time_us, payload_bytes, seq) per delivered packet.

    Receive timestamps include the receiving node's processing delay.
    """

    def __init__(self, station: Station, flow: str,
                 processing_delay_us: int = 0):
        self.flow = flow
        self._delay_us = processing_delay_us
        self.rx_t_us: list[int] = []
        self.rx_bytes: list[int] = []
        self.rx_seq: list[int] = []
        station.rx_handlers.append(self._on_rx)

    def _on_rx(self, packet: Packet, t_us: int) -> None:
        if packet.kind == UDP_DATA and packet.flow == self.flow:
            self.rx_t_us.append(t_us + self._delay_us)
            self.rx_bytes.append(packet.payload_bytes)
            self.rx_seq.append(packet.seq)

    def records(self):
        return zip(self.rx_t_us, self.rx_bytes, self.rx_seq)

    def total_payload_bits(self) -> int:
        return 8 * sum(self.rx_bytes)


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
        self._mpdu_bytes = cfg.payload_bytes + cfg.header_overhead_bytes
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
