"""802.11 DCF MAC over a half-duplex point-to-point medium.

Stations run the classic contention cycle (DIFS, uniform backoff with freeze
on busy, DATA, SIFS, ACK) with exponential contention-window doubling and a
bounded retry chain. Each station reserves the medium NAV-style for its
whole DATA+SIFS+ACK exchange and arms its access only after both stations'
reservations end; transmissions that start in the same µs collide.

Rate control is either a fixed mode or a Minstrel-style controller keeping
per-mode EWMA success statistics with periodic lookaround probing.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from typing import Callable

from . import phy
from .channel import Channel
from .engine import EventQueue, RngStream
from .phy import DELIVERED, MODES, PhyMode, frame_duration_us
from .record import Frozen, Record
from .traces import DirectedLink

COLLIDED = "collided"

ACCEPTED = "accepted"
DROPPED_FULL = "dropped_full"


class DcfParams(Frozen):
    # 802.11a OFDM timing, the same in every run: unannotated, so not fields
    slot_us = 9
    sifs_us = 16
    difs_us = 34   # SIFS + 2 slots
    cw_min = 15
    cw_max = 1023
    ack_bytes = 14
    # rates eligible for control responses: one low basic rate keeps ACKs
    # robust on asymmetric links, so every ACK goes out at 6 Mbit/s
    basic_rates_mbps = (6,)
    retry_limit: int = 7
    queue_capacity: int = 500

    def __post_init__(self) -> None:
        if self.retry_limit < 1:
            raise ValueError("retry_limit must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")


def ack_mode_for(data_mode: PhyMode, basic_rates_mbps: tuple[int, ...]) -> PhyMode:
    """Highest basic rate <= the data rate; lowest basic rate as fallback."""
    eligible = [r for r in basic_rates_mbps if r <= data_mode.data_rate_mbps]
    rate = max(eligible) if eligible else min(basic_rates_mbps)
    return phy.mode_for_rate(rate)


class Airtime:
    """Medium time of one DATA+ACK exchange at one MPDU size and data mode."""

    __slots__ = ("data_us", "ack_mode", "ack_us", "expected_us")

    def __init__(self, mpdu_bytes: int, mode: PhyMode):
        p = DcfParams
        self.data_us = frame_duration_us(mpdu_bytes, mode)
        self.ack_mode = ack_mode_for(mode, p.basic_rates_mbps)
        self.ack_us = frame_duration_us(p.ack_bytes, self.ack_mode)
        # DIFS + mean backoff + DATA + SIFS + ACK
        self.expected_us = (p.difs_us + p.slot_us * p.cw_min / 2.0
                            + p.sifs_us + self.data_us + self.ack_us)


@cache
def airtime_rows(mpdu_bytes: int) -> tuple[Airtime, ...]:
    """Each mode's airtime at mpdu_bytes, by mode id: one tuple per process
    for every station, rate controller and traffic source."""
    return tuple(Airtime(mpdu_bytes, m) for m in MODES)


class FixedRate:
    """Trivial controller: one mode for every frame."""

    def __init__(self, mode: PhyMode):
        self.mode = mode

    def select(self, mpdu_bytes: int, now_us: int) -> PhyMode:
        return self.mode

    def report(self, mode: PhyMode, attempts: int, successes: int) -> None:
        pass


class Minstrel:
    """Statistics-driven auto-rate control.

    Per-mode success probabilities are EWMA-smoothed over fixed update
    intervals; the mode maximizing estimated throughput is used, with every
    tenth frame probing a randomly chosen other mode. Modes that cannot beat
    the current best even at perfect delivery are probed at most once per
    interval so lookaround does not dominate airtime. Unattempted modes get
    one forced probe up front.
    """

    EWMA_WEIGHT = 0.75
    UPDATE_INTERVAL_US = 100_000
    PROBE_PERIOD = 10

    def __init__(self, rng: RngStream):
        self.rng = rng
        n = len(MODES)
        self.ewma = [0.0] * n
        self.window_attempts = [0] * n
        self.window_successes = [0] * n
        self.total_attempts = [0] * n
        self.probed_this_interval = [False] * n
        self.frame_count = 0
        self._next_update_us = self.UPDATE_INTERVAL_US
        self._all_tried = False
        # mpdu_bytes -> _argmax_tput(mpdu_bytes), valid until the EWMA changes
        self._ranking: dict[int, tuple[int, float]] = {}

    def update_window(self, mode_id: int, attempts: int, successes: int) -> None:
        """Fold one interval's counters for one mode into its EWMA."""
        if attempts < successes:
            raise ValueError("attempts must be >= successes")
        if attempts == 0:
            return
        sample = successes / attempts
        w = self.EWMA_WEIGHT
        self.ewma[mode_id] = (1.0 - w) * sample + w * self.ewma[mode_id]
        self._ranking.clear()

    def _close_interval(self, now_us: int) -> None:
        for i in range(len(MODES)):
            self.update_window(i, self.window_attempts[i], self.window_successes[i])
            self.window_attempts[i] = 0
            self.window_successes[i] = 0
            self.probed_this_interval[i] = False
        interval = self.UPDATE_INTERVAL_US
        self._next_update_us = now_us - (now_us % interval) + interval

    def _argmax_tput(self, mpdu_bytes: int) -> tuple[int, float]:
        rows = airtime_rows(mpdu_bytes)
        bits = 8 * mpdu_bytes
        best = 0
        best_tput = -1.0
        for i, e in enumerate(self.ewma):
            tput = e * bits / rows[i].expected_us
            if tput > best_tput:
                best_tput = tput
                best = i
        return best, best_tput

    def select(self, mpdu_bytes: int, now_us: int) -> PhyMode:
        if now_us >= self._next_update_us:
            self._close_interval(now_us)
        if not self._all_tried:
            for i, total in enumerate(self.total_attempts):
                if total == 0:
                    self.probed_this_interval[i] = True
                    return MODES[i]
            self._all_tried = True
        ranking = self._ranking.get(mpdu_bytes)
        if ranking is None:
            ranking = self._ranking[mpdu_bytes] = self._argmax_tput(mpdu_bytes)
        best, best_tput = ranking
        if best_tput <= 0.0:
            return MODES[0]
        self.frame_count += 1
        if self.frame_count % self.PROBE_PERIOD == 0:
            r = self.rng.randint(0, len(MODES) - 2)
            cand = r if r < best else r + 1
            rows = airtime_rows(mpdu_bytes)
            if (8 * mpdu_bytes / rows[cand].expected_us > best_tput
                    or not self.probed_this_interval[cand]):
                self.probed_this_interval[cand] = True
                return MODES[cand]
        return MODES[best]

    def report(self, mode: PhyMode, attempts: int, successes: int) -> None:
        i = mode.id
        self.window_attempts[i] += attempts
        self.window_successes[i] += successes
        self.total_attempts[i] += attempts


class StationStats(Record):
    data_frames: int = 0          # MAC frames completed (delivered or dropped)
    data_attempts: int = 0        # PHY transmissions of data frames
    frames_delivered: int = 0
    frames_dropped: int = 0       # retry limit exceeded
    queue_drops: int = 0
    acks_sent: int = 0
    duplicates_suppressed: int = 0


class Station:
    """One 802.11 DCF endpoint: queue, contention, retransmissions, rate control.

    A station with a frame in service has one live engine entry, whose one
    handler, _on_entry, runs both phases of an attempt: with an access grant
    pending it starts the data attempt and returns the data end, and with
    none it ends the attempt in flight and returns the grant of the retry
    or of the next frame, so a saturated station schedules nothing between
    frames. Only enqueue_packet (a frame into an idle station) and
    on_medium_busy (a frozen backoff re-armed) schedule a new entry.
    """

    def __init__(self, node: str, peer_node: str, engine: EventQueue,
                 channel: Channel, params: DcfParams, root_seed: int,
                 rate_control, event_log=None):
        self.node = node
        self.engine = engine
        self.params = params
        self.peer: Station | None = None   # the station at peer_node
        self.rate_control = rate_control
        # an observer gets the rows whose callbacks it defines; one without
        # ``drop`` takes no queue-full rows, so sources may skip those arrivals
        self.log_tx = getattr(event_log, "tx", None)
        self.log_rx = getattr(event_log, "rx", None)
        self.log_drop = getattr(event_log, "drop", None)
        # bounded FIFO; enqueue_packet enforces params.queue_capacity, and a
        # parked source's refill takes only the slot a dequeue freed
        self.queue: deque = deque()
        self.stats = StationStats()
        self.backoff_rng = RngStream(root_seed, f"mac.backoff.{node}")
        # reception draws for frames this station receives
        self._rx_rng = RngStream(root_seed, f"phy.rx.{peer_node}->{node}")
        self._tx_link = DirectedLink(node, peer_node)
        self._rx_link = DirectedLink(peer_node, node)
        # each link's SNR source, shared with the peer (Channel.source)
        self._tx_snr = channel.source(self._tx_link)
        self._rx_snr = channel.source(self._rx_link)
        self.rx_handlers: list[Callable] = []
        # traffic sources and apps that enqueue into this station's queue
        self.producers = 0
        # the only producer, holding back arrivals until the next dequeue
        # (traffic.UdpSource)
        self.parked = None
        self.cw = params.cw_min
        self._entry = None   # the one live engine entry; it runs _on_entry
        self._frame = None
        self._mode: PhyMode | None = None
        self._airtime: Airtime | None = None   # of _frame at _mode
        # the attempt in flight, or the last one
        self._t_start = -1
        self._reserved_until = 0   # end of its DATA+SIFS+ACK reservation
        self._collided = False
        self._attempts = 0
        self._mac_seq = 0
        self._grant_us: int | None = None   # of a pending access grant
        self._slots = 0
        self._difs_end = 0
        self._last_rx_seq: int | None = None

    def enqueue_packet(self, packet) -> str:
        """Append packet to the queue, or tail-drop it when the queue is
        full: count the drop and log its ``queue_full`` row."""
        queue = self.queue
        engine = self.engine
        if len(queue) >= self.params.queue_capacity:
            self.stats.queue_drops += 1
            if self.log_drop is not None:
                self.log_drop(engine.clock_us, self.node, packet.seq, 0,
                              "queue_full")
            return DROPPED_FULL
        queue.append(packet)
        if self._frame is None:
            self._entry = engine.schedule(
                self._service_next(engine.clock_us), self._on_entry)
        return ACCEPTED

    def _service_next(self, idle_floor_us: int) -> int | None:
        """Take the next frame into service; returns its access grant µs,
        or None when the queue is empty."""
        if not self.queue:
            return None
        frame = self._frame = self.queue.popleft()
        self._mac_seq += 1
        self._attempts = 0
        # the mode holds for every attempt, and so does its airtime row
        mode = self._mode = self.rate_control.select(frame.mpdu_bytes,
                                                     self.engine.clock_us)
        self._airtime = airtime_rows(frame.mpdu_bytes)[mode.id]
        grant_us = self._arm_access(idle_floor_us,
                                    self.backoff_rng.randint(0, self.cw))
        if self.parked is not None:
            # a source parks only on a full queue, so this dequeue ends the
            # last attempt at the current clock
            source, self.parked = self.parked, None
            source.on_dequeue(self.engine.clock_us)
        return grant_us

    def _arm_access(self, idle_floor_us: int, slots: int) -> int:
        """Set up the backoff after the medium goes idle at idle_floor_us
        or later; returns the µs of its access grant."""
        p = self.params
        # a frame queued during its own ACK waits out that ACK too
        idle_from = self.engine.clock_us
        if self._reserved_until > idle_from:
            idle_from = self._reserved_until
        if self.peer._reserved_until > idle_from:
            idle_from = self.peer._reserved_until
        if idle_floor_us > idle_from:
            idle_from = idle_floor_us
        difs_end = self._difs_end = idle_from + p.difs_us
        self._slots = slots
        grant_us = self._grant_us = difs_end + slots * p.slot_us
        return grant_us

    def on_medium_busy(self, t_busy_us: int) -> None:
        """Freeze a pending backoff; fully elapsed slots stay consumed."""
        grant_us = self._grant_us
        if grant_us is None or grant_us <= t_busy_us:
            return   # nothing pending, or firing in this very slot (collision)
        engine = self.engine
        engine.cancel(self._entry)
        if t_busy_us > self._difs_end:
            consumed = (t_busy_us - self._difs_end) // self.params.slot_us
            remaining = self._slots - min(consumed, self._slots)
        else:
            remaining = self._slots
        self._entry = engine.schedule(self._arm_access(t_busy_us, remaining),
                                      self._on_entry)

    def _on_entry(self) -> int | None:
        """With an access grant pending, start a data attempt and return its
        end; at that end, with none, resolve it in _on_data_end. Every grant
        the entry is scheduled or returned for is armed by _arm_access, the
        only code that sets _grant_us, and only the grant clears it."""
        if self._grant_us is None:
            return self._on_data_end()
        self._grant_us = None
        now = self.engine.clock_us
        airtime = self._airtime
        peer = self.peer
        self._attempts += 1
        self._t_start = now
        # each station has one attempt in flight: the peer's collides with
        # this one exactly when it started in the same µs
        self._collided = peer._t_start == now
        if self._collided:
            peer._collided = True
        data_end = now + airtime.data_us
        self._reserved_until = data_end + self.params.sifs_us + airtime.ack_us
        if peer._grant_us is not None:
            peer.on_medium_busy(now)
        if self.log_tx is not None:
            self.log_tx(now, self.node, "data", self._tx_link,
                        self._mode.data_rate_mbps, self._frame.seq,
                        self._attempts, airtime.data_us)
        return data_end

    def _on_data_end(self) -> int | None:
        """Resolve one DATA+ACK exchange, in the order its draws and rows
        take: the data reception, the peer's delivery, then the ACK after
        SIFS across the reverse link. A delivered frame completes; a failed
        one is retried at the ACK timeout, or dropped at the retry limit.
        Returns the access grant µs of the retry or of the next frame, at
        which the entry starts its next attempt, or None when the queue is
        empty.

        The peer's rx handlers get the raw MAC delivery time; a node's
        processing delay is additive latency that applications fold into
        their own timestamps, so it never perturbs medium timing.
        """
        t = self.engine.clock_us   # the data end
        frame = self._frame
        mode = self._mode
        airtime = self._airtime
        attempts = self._attempts
        peer = self.peer
        p = self.params
        if self._collided:
            snr_db = None
            outcome = COLLIDED
        else:
            snr_db = self._tx_snr(t)
            outcome = phy.receive(frame.mpdu_bytes, mode, snr_db, peer._rx_rng)
        if self.log_rx is not None:
            self.log_rx(t, peer.node, "data", self._tx_link,
                        mode.data_rate_mbps, frame.seq, attempts, snr_db,
                        outcome)
        success = 0
        if outcome == DELIVERED:
            # the peer hands a frame it has not yet seen to its applications
            mac_seq = self._mac_seq
            if mac_seq == peer._last_rx_seq:
                peer.stats.duplicates_suppressed += 1
            else:
                peer._last_rx_seq = mac_seq
                for handler in peer.rx_handlers:
                    handler(frame, t)
            # and ACKs it after SIFS, across the reverse link
            ack_start = t + p.sifs_us
            ack_end = ack_start + airtime.ack_us
            ack_mode = airtime.ack_mode
            peer.stats.acks_sent += 1
            snr_db = self._rx_snr(ack_end)
            outcome = phy.receive(p.ack_bytes, ack_mode, snr_db, self._rx_rng)
            if self.log_tx is not None:
                self.log_tx(ack_start, peer.node, "ack", self._rx_link,
                            ack_mode.data_rate_mbps, frame.seq, attempts,
                            airtime.ack_us)
            if self.log_rx is not None:
                self.log_rx(ack_end, self.node, "ack", self._rx_link,
                            ack_mode.data_rate_mbps, frame.seq, attempts,
                            snr_db, outcome)
            if outcome == DELIVERED:
                success = 1
        stats = self.stats
        if success:
            next_floor_us = ack_end
            stats.frames_delivered += 1
        else:
            # the ACK timeout
            next_floor_us = t + p.sifs_us + airtime.ack_us + p.slot_us
            if attempts <= p.retry_limit:
                self.cw = min(2 * (self.cw + 1) - 1, p.cw_max)
                return self._arm_access(next_floor_us,
                                        self.backoff_rng.randint(0, self.cw))
            if self.log_drop is not None:
                self.log_drop(t, self.node, frame.seq, attempts, "retry_limit")
            stats.frames_dropped += 1
        self.rate_control.report(mode, attempts, success)
        stats.data_frames += 1
        stats.data_attempts += attempts
        self.cw = p.cw_min
        self._frame = None
        self._mode = None
        return self._service_next(next_floor_us)


def build_point_to_point(engine: EventQueue, channel: Channel,
                         params: DcfParams, root_seed: int,
                         node_a: str, node_b: str,
                         rate_control_factory, event_log=None,
                         ) -> tuple[Station, Station]:
    """Two stations with symmetric configuration, each the other's peer."""
    st_a = Station(node_a, node_b, engine, channel, params, root_seed,
                   rate_control_factory(node_a), event_log=event_log)
    st_b = Station(node_b, node_a, engine, channel, params, root_seed,
                   rate_control_factory(node_b), event_log=event_log)
    st_a.peer, st_b.peer = st_b, st_a
    return st_a, st_b
