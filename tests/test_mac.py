"""DCF contention, retransmissions, ACKs, and Minstrel rate control."""

import collections
import io
import random
import statistics
import sys
from pathlib import Path

import pytest

from linksim import mac
from linksim.channel import Channel, PropagationSpec, RadioParams
from linksim.engine import EventQueue, RngStream
from linksim.mac import (ACCEPTED, DROPPED_FULL, DcfParams, FixedRate,
                         Minstrel, Station, ack_mode_for, airtime_rows,
                         build_point_to_point)
from linksim.phy import MODES, frame_duration_us, mode_for_rate
from linksim.record import replace
from linksim.scenario import CsvEventLog, build, parse_config, simulate
from linksim.traces import MobilityTrace, parse_snr_trace
from linksim.traffic import DEFAULT_HEADER_OVERHEAD, Packet

DCF = DcfParams()
T_DATA_1500_54 = 244
T_ACK_6 = frame_duration_us(DCF.ack_bytes, mode_for_rate(6))   # 44 µs


def make_link(snr_ab: float, snr_ba: float, seed: int = 1,
              rate_mbps: int = 54, params: DcfParams = DCF,
              switch_at_us: int | None = None, snr_ab_after: float = 0.0):
    """Two stations on a trace-driven channel with scripted per-link SNR."""
    rows = [f"0,A,B,{snr_ab}", f"0,B,A,{snr_ba}"]
    if switch_at_us is not None:
        rows.append(f"{switch_at_us},A,B,{snr_ab_after}")
    trace = parse_snr_trace("t_us,tx,rx,snr_db\n" + "\n".join(rows) + "\n")
    mobility = MobilityTrace.static({"A": (0, 0, 0), "B": (6, 0, 0)})
    channel = Channel(PropagationSpec("trace", trace=trace), RadioParams(),
                      mobility, seed)
    engine = EventQueue()
    buf = io.StringIO()
    log = CsvEventLog(buf)
    mode = mode_for_rate(rate_mbps)
    st_a, st_b = build_point_to_point(
        engine, channel, params, seed, "A", "B",
        rate_control_factory=lambda node: FixedRate(mode),
        event_log=log,
    )
    return engine, st_a, st_b, buf


def parse_log(buf: io.StringIO) -> list[dict]:
    lines = buf.getvalue().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def packet(seq=0, mpdu=1500, kind="udp", flow="udp.A->B"):
    return Packet(kind, seq, mpdu - 56, mpdu, 0, flow)


# -- queue -------------------------------------------------------------


def test_queue_fifo_and_tail_drop():
    engine, st_a, _, buf = make_link(
        60.0, 60.0, params=DcfParams(queue_capacity=3))
    assert st_a.enqueue_packet(packet(0)) == ACCEPTED   # taken into service
    for seq in (1, 2, 3):
        assert st_a.enqueue_packet(packet(seq)) == ACCEPTED
    assert list(st_a.queue) == [packet(1), packet(2), packet(3)]
    assert st_a.enqueue_packet(packet(99)) == DROPPED_FULL
    assert st_a.stats.queue_drops == 1
    engine.run_until(1_000)
    assert st_a.stats.frames_delivered >= 1   # a slot is free again
    assert st_a.enqueue_packet(packet(4)) == ACCEPTED
    engine.run_until(100_000)
    rows = parse_log(buf)
    assert [r["seq"] for r in rows if r["event"] == "drop"] == ["99"]
    sent = [int(r["seq"]) for r in rows
            if r["event"] == "tx" and r["kind"] == "data"]
    assert sent == [0, 1, 2, 3, 4]
    assert not st_a.queue and st_a._frame is None


# -- backoff -----------------------------------------------------------


def test_backoff_uniform_mean():
    rng = RngStream(2, "mac.backoff.t")
    n = 100_000
    draws = [rng.randint(0, 15) for _ in range(n)]
    assert set(draws) <= set(range(16))
    assert abs(statistics.fmean(draws) - 7.5) < 0.15


def test_backoff_zero_window_and_determinism():
    rng = RngStream(3, "mac.backoff.z")
    assert all(rng.randint(0, 0) == 0 for _ in range(50))
    a = RngStream(4, "mac.backoff.d")
    b = RngStream(4, "mac.backoff.d")
    assert [a.randint(0, 1023) for _ in range(100)] \
        == [b.randint(0, 1023) for _ in range(100)]


def test_ack_mode_rule():
    multi = (6, 12, 24)
    assert ack_mode_for(mode_for_rate(54), multi).data_rate_mbps == 24
    assert ack_mode_for(mode_for_rate(18), multi).data_rate_mbps == 12
    assert ack_mode_for(mode_for_rate(9), multi).data_rate_mbps == 6
    assert ack_mode_for(mode_for_rate(54), (6,)).data_rate_mbps == 6



@pytest.mark.parametrize("basic_rates", [(6,), (6, 12, 24)])
def test_airtime_table_equals_per_frame_airtime(basic_rates):
    # stations index the rows of the default mode table by mode id
    assert [m.id for m in MODES] == list(range(len(MODES)))
    for mpdu_bytes in (14, 1528, 2328):
        rows = airtime_rows(mpdu_bytes, basic_rates)
        assert airtime_rows(mpdu_bytes, basic_rates) is rows
        assert len(rows) == len(MODES)
        for mode, row in zip(MODES, rows):
            ack_mode = ack_mode_for(mode, basic_rates)
            assert row.data_us == frame_duration_us(mpdu_bytes, mode)
            assert row.ack_mode == ack_mode
            assert row.ack_us == frame_duration_us(DCF.ack_bytes, ack_mode)


def test_one_airtime_table_serves_both_stations_and_both_minstrels(
        monkeypatch):
    read = collections.defaultdict(set)   # (mpdu, mode id) -> Airtime ids
    readers = set()
    rows_of = mac.airtime_rows

    def spy(mpdu_bytes, basic_rates_mbps):
        readers.add(sys._getframe(1).f_locals["self"])
        rows = rows_of(mpdu_bytes, basic_rates_mbps)
        for mode_id, row in enumerate(rows):
            read[mpdu_bytes, mode_id].add(id(row))
        return rows

    monkeypatch.setattr(mac, "airtime_rows", spy)
    cfg = parse_config(Path(__file__).resolve().parent.parent / "scenarios"
                       / "udp_bidirectional.ini")
    simulate(build(replace(cfg, duration_s=1, log_events=False)))
    kinds = collections.Counter(type(r) for r in readers)
    assert kinds == {Station: 2, Minstrel: 2}
    assert read and all(len(ids) == 1 for ids in read.values())


def test_dcf_timing_is_802_11a_ofdm():
    assert (DCF.slot_us, DCF.sifs_us, DCF.difs_us) == (9, 16, 34)
    assert DCF.difs_us == DCF.sifs_us + 2 * DCF.slot_us
    assert (DCF.cw_min, DCF.cw_max) == (15, 1023)
    for cw in (DCF.cw_min, DCF.cw_max):
        assert (cw + 1) & cw == 0          # of the form 2^k - 1
    assert DCF.ack_bytes == 14
    assert T_ACK_6 == 44

# -- single-frame exchange ----------------------------------------------


def test_clean_exchange_timing_and_accounting():
    engine, st_a, st_b, buf = make_link(60.0, 60.0)
    st_a.enqueue_packet(packet())
    engine.run_until(10_000)
    rows = parse_log(buf)
    tx_data = [r for r in rows if r["event"] == "tx" and r["kind"] == "data"]
    assert len(tx_data) == 1
    start = int(tx_data[0]["t_us"])
    slots = (start - DCF.difs_us) / DCF.slot_us
    assert slots == int(slots) and 0 <= slots <= DCF.cw_min
    assert int(tx_data[0]["dur_us"]) == T_DATA_1500_54

    rx_data = [r for r in rows if r["event"] == "rx" and r["kind"] == "data"]
    assert rx_data[0]["outcome"] == "delivered"
    assert int(rx_data[0]["t_us"]) == start + T_DATA_1500_54

    tx_ack = [r for r in rows if r["event"] == "tx" and r["kind"] == "ack"]
    assert int(tx_ack[0]["t_us"]) == start + T_DATA_1500_54 + DCF.sifs_us
    assert int(tx_ack[0]["dur_us"]) == T_ACK_6
    assert tx_ack[0]["node"] == "B"

    total = DCF.difs_us + int(slots) * DCF.slot_us + T_DATA_1500_54 \
        + DCF.sifs_us + T_ACK_6
    rx_ack = [r for r in rows if r["event"] == "rx" and r["kind"] == "ack"]
    assert int(rx_ack[0]["t_us"]) == total
    assert st_a.stats.data_frames == 1
    assert st_a.stats.data_attempts == 1
    assert st_a.stats.frames_delivered == 1
    assert st_b.stats.acks_sent == 1


def test_saturation_cycle_back_to_back():
    engine, st_a, _, buf = make_link(60.0, 60.0)
    for seq in range(3):
        st_a.enqueue_packet(packet(seq))
    engine.run_until(50_000)
    rows = parse_log(buf)
    tx = [r for r in rows if r["event"] == "tx" and r["kind"] == "data"]
    acks = [r for r in rows if r["event"] == "rx" and r["kind"] == "ack"]
    assert len(tx) == 3
    for prev_ack, nxt in zip(acks, tx[1:]):
        gap = int(nxt["t_us"]) - int(prev_ack["t_us"])
        slots = (gap - DCF.difs_us) / DCF.slot_us
        assert slots == int(slots) and 0 <= slots <= DCF.cw_min


class SpyRng:
    """Records the contention windows handed to the backoff draw."""

    def __init__(self, inner):
        self.inner = inner
        self.highs = []

    def randint(self, low, high):
        self.highs.append(high)
        return self.inner.randint(low, high)


def test_retry_after_corruption_then_success():
    # A->B starts in a dead channel and recovers after 1.5 ms
    engine, st_a, st_b, buf = make_link(
        -60.0, 60.0, switch_at_us=1500, snr_ab_after=60.0)
    spy = SpyRng(st_a.backoff_rng)
    st_a.backoff_rng = spy
    st_a.enqueue_packet(packet())
    engine.run_until(100_000)
    assert spy.highs[:2] == [15, 31]     # doubling after the first loss
    assert st_a.cw == DCF.cw_min         # reset after delivery
    rows = parse_log(buf)
    tx = [r for r in rows if r["event"] == "tx" and r["kind"] == "data"]
    assert 2 <= len(tx) <= DCF.retry_limit + 1
    assert int(tx[-1]["attempt"]) == len(tx)
    outcomes = [r["outcome"] for r in rows
                if r["event"] == "rx" and r["kind"] == "data"]
    assert outcomes[:-1] == ["corrupted"] * (len(tx) - 1)
    assert outcomes[-1] == "delivered"
    assert st_a.stats.frames_delivered == 1
    # retry gap: ack timeout plus a fresh DIFS+backoff from the doubled window
    t_fail_end = int(tx[0]["t_us"]) + int(tx[0]["dur_us"])
    timeout = DCF.sifs_us + T_ACK_6 + DCF.slot_us
    gap = int(tx[1]["t_us"]) - (t_fail_end + timeout)
    slots = (gap - DCF.difs_us) / DCF.slot_us
    assert slots == int(slots) and 0 <= slots <= 31


def test_drop_after_retry_limit():
    engine, st_a, st_b, buf = make_link(-60.0, 60.0)
    st_a.enqueue_packet(packet())
    engine.run_until(1_000_000)
    rows = parse_log(buf)
    tx = [r for r in rows if r["event"] == "tx" and r["kind"] == "data"]
    assert len(tx) == DCF.retry_limit + 1          # 1 initial + 7 retries
    drops = [r for r in rows if r["event"] == "drop"]
    assert len(drops) == 1 and drops[0]["outcome"] == "retry_limit"
    assert int(drops[0]["attempt"]) == 8
    assert st_a.stats.frames_dropped == 1
    assert st_a.stats.frames_delivered == 0
    assert st_a.cw == DCF.cw_min


def test_cw_doubles_up_to_max_during_retries():
    params = DcfParams(retry_limit=12)
    engine, st_a, _, _ = make_link(-60.0, 60.0, params=params)
    spy = SpyRng(st_a.backoff_rng)
    st_a.backoff_rng = spy
    st_a.enqueue_packet(packet())
    engine.run_until(5_000_000)
    assert spy.highs == [15, 31, 63, 127, 255, 511, 1023,
                         1023, 1023, 1023, 1023, 1023, 1023]


def test_ack_loss_retries_and_dedup():
    # data always arrives, ACKs never do
    engine, st_a, st_b, buf = make_link(60.0, -60.0)
    delivered = []
    st_b.rx_handlers.append(lambda pkt, t: delivered.append((pkt.seq, t)))
    st_a.enqueue_packet(packet())
    engine.run_until(1_000_000)
    assert st_a.stats.frames_dropped == 1          # never saw an ACK
    assert len(delivered) == 1                     # app got it exactly once
    assert st_b.stats.duplicates_suppressed == DCF.retry_limit
    assert st_b.stats.acks_sent == DCF.retry_limit + 1


def test_queue_drop_is_logged_not_raised():
    params = DcfParams(queue_capacity=2)
    engine, st_a, _, buf = make_link(60.0, 60.0, params=params)
    outcomes = [st_a.enqueue_packet(packet(seq)) for seq in range(5)]
    # first packet goes into service immediately, two queue slots remain
    assert outcomes == [ACCEPTED, ACCEPTED, ACCEPTED, DROPPED_FULL, DROPPED_FULL]
    assert st_a.stats.queue_drops == 2
    engine.run_until(10_000)
    assert any(r["outcome"] == "queue_full" for r in parse_log(buf)
               if r["event"] == "drop")


def test_half_duplex_medium_under_contention():
    engine, st_a, st_b, buf = make_link(60.0, 60.0)
    for seq in range(40):
        st_a.enqueue_packet(packet(seq, flow="udp.A->B"))
        st_b.enqueue_packet(packet(seq, flow="udp.B->A"))
    engine.run_until(60_000)
    rows = parse_log(buf)
    tx = [r for r in rows if r["event"] == "tx"]

    def sender(row):
        return row["link"].split("->")[0]

    collided_seqs = {(sender(r), r["seq"], r["attempt"]) for r in rows
                     if r["event"] == "rx" and r["outcome"] == "collided"}

    intervals = []
    for r in tx:
        start, dur = int(r["t_us"]), int(r["dur_us"])
        is_collided = (sender(r), r["seq"], r["attempt"]) in collided_seqs \
            and r["kind"] == "data"
        intervals.append((start, start + dur, is_collided))
    intervals.sort()
    for (s1, e1, c1), (s2, e2, c2) in zip(intervals, intervals[1:]):
        if s2 < e1:
            assert c1 and c2, f"non-collided overlap: {(s1, e1)} vs {(s2, e2)}"
    assert any(c for _, _, c in intervals), "expected at least one collision"


@pytest.mark.parametrize("snr_ab, rate_mbps, params", [
    (60.0, 54, DCF),
    (60.0, 54, DcfParams(queue_capacity=1)),
    (22.0, 54, DCF),                  # about half the A->B frames corrupt
], ids=["default_queue", "queue_capacity_1", "low_snr_retries"])
def test_data_frames_collide_exactly_when_they_start_together(
        snr_ab, rate_mbps, params):
    engine, st_a, st_b, buf = make_link(snr_ab, 60.0, rate_mbps=rate_mbps,
                                           params=params)
    seqs = iter(range(1_000_000))

    def offer():                        # both queues stay full
        seq = next(seqs)
        st_a.enqueue_packet(packet(seq, flow="udp.A->B"))
        st_b.enqueue_packet(packet(seq, flow="udp.B->A"))
        engine.schedule(engine.clock_us + 100, offer)

    offer()
    engine.run_until(300_000)
    rows = parse_log(buf)

    def key(row):
        return row["link"], row["seq"], row["attempt"]

    start = {key(r): int(r["t_us"]) for r in rows
             if r["event"] == "tx" and r["kind"] == "data"}
    by_start = collections.defaultdict(set)
    for k, t in start.items():
        by_start[t].add(k)
    collided = {key(r) for r in rows if r["event"] == "rx"
                and r["kind"] == "data" and r["outcome"] == "collided"}
    assert collided, "expected at least one collision"
    for k in collided:
        assert len(by_start[start[k]] - {k}) == 1, k
    for t, keys in by_start.items():
        if len(keys) > 1:
            assert keys <= collided, f"uncollided data frames start at {t}"
    if snr_ab < 60.0:
        assert any(r["outcome"] == "corrupted" for r in rows)


@pytest.mark.parametrize("scenario, overrides", [
    ("udp_bidirectional", {}),
    ("logdist_fading", {}),
    ("ping_idle_link", {}),
    # below saturation a frame is often queued while its sender's own ACK
    # is still on the air
    ("udp_unidirectional", {"offered_load_bps": 10e6}),
], ids=["udp_bidirectional", "logdist_fading", "ping_idle_link",
        "udp_unidirectional_10M"])
def test_data_starts_wait_out_every_earlier_reservation(scenario, overrides):
    """Each data frame starts at least DIFS after the DATA+SIFS+ACK
    reservation of every data frame that started before it; one that starts
    in the same µs as the previous one collides with it."""
    cfg = replace(parse_config(Path(__file__).resolve().parent.parent
                               / "scenarios" / f"{scenario}.ini"),
                  duration_s=3, **overrides)
    buf = io.StringIO()
    simulate(build(cfg), event_log=CsvEventLog(buf))
    rows = airtime_rows(cfg.payload_bytes + DEFAULT_HEADER_OVERHEAD,
                        tuple(cfg.basic_rates_mbps))
    data = sorted((int(r["t_us"]), int(r["dur_us"]), int(r["mode_mbps"]))
                  for r in parse_log(buf)
                  if r["event"] == "tx" and r["kind"] == "data")
    assert data
    busy_until = latest_end = 0
    prev_start = None
    same_us_starts = 0
    for start, dur_us, rate in data:
        if start == prev_start:
            same_us_starts += 1
        else:
            busy_until = latest_end   # of every reservation started earlier
            assert start >= busy_until + DCF.difs_us, (
                f"data at {start} µs, medium busy until {busy_until} µs")
        prev_start = start
        ack_us = rows[mode_for_rate(rate).id].ack_us
        latest_end = max(latest_end, start + dur_us + DCF.sifs_us + ack_us)
    assert (same_us_starts > 0) == (scenario == "udp_bidirectional")


def test_phy_attempts_bounded_per_frame():
    engine, st_a, _, buf = make_link(11.0, 60.0, rate_mbps=18)
    for seq in range(60):
        st_a.enqueue_packet(packet(seq))
    engine.run_until(1_000_000)
    rows = parse_log(buf)
    per_seq = {}
    for r in rows:
        if r["event"] == "tx" and r["kind"] == "data":
            per_seq[r["seq"]] = max(per_seq.get(r["seq"], 0), int(r["attempt"]))
    assert per_seq
    assert all(1 <= a <= DCF.retry_limit + 1 for a in per_seq.values())


# -- minstrel ------------------------------------------------------------


def fresh_minstrel(seed=1):
    return Minstrel(DCF, RngStream(seed, "minstrel.t"))


def best_mode(m, mpdu_bytes=1528):
    """Minstrel's throughput-maximizing mode; the lowest before any sample."""
    best, best_tput = m._argmax_tput(mpdu_bytes)
    return MODES[best if best_tput > 0.0 else 0]


def test_minstrel_ewma_arithmetic():
    m = fresh_minstrel()
    m.ewma[0] = 1.0
    m.update_window(0, 10, 0)
    assert m.ewma[0] == pytest.approx(0.75)
    m.update_window(0, 10, 0)
    assert m.ewma[0] == pytest.approx(0.5625)
    m.update_window(0, 0, 0)            # zero-attempt window: unchanged
    assert m.ewma[0] == pytest.approx(0.5625)
    with pytest.raises(ValueError):
        m.update_window(0, 1, 2)


def test_minstrel_forced_probes_cover_all_modes_first():
    m = fresh_minstrel()
    seen = []
    for _ in range(len(MODES)):
        mode = m.select(1528, 0)
        seen.append(mode.id)
        m.report(mode, 1, 1)
    assert seen == list(range(8))


def test_minstrel_two_mode_throughput_tradeoff():
    m = fresh_minstrel()
    m.total_attempts = [5] * 8
    # 6 Mbit/s perfect vs 54 Mbit/s coin-flip; every other mode always fails
    m.ewma = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]
    picks = {m.select(1528, 0).data_rate_mbps for _ in range(9)}
    assert picks == {54}


def test_minstrel_all_zero_ewma_falls_back_to_lowest():
    m = fresh_minstrel()
    m.total_attempts = [1] * 8
    assert m.select(1528, 0).data_rate_mbps == 6


def test_minstrel_slow_mode_probes_once_per_interval():
    m = fresh_minstrel()
    m.total_attempts = [10] * 8
    m.ewma = [1.0] * 8                  # best is 54; all others are slower
    probes = sum(m.select(1528, 50_000).id != 7 for _ in range(400))
    assert 1 <= probes <= 7             # once per slower mode at most
    m._next_update_us = 0               # force a window rollover
    m.select(1528, 100_000)
    probes2 = sum(m.select(1528, 150_000).id != 7 for _ in range(400))
    assert probes2 >= 1                 # probing resumes each interval


def test_minstrel_probes_faster_modes_freely():
    m = fresh_minstrel()
    m.total_attempts = [10] * 8
    m.ewma = [1.0, 1.0, 1.0, 1.0, 1.0, 0.9, 0.0, 0.0]   # best: 36 Mbit/s
    picks = [m.select(1528, 50_000).id for _ in range(600)]
    faster_probes = sum(p in (6, 7) for p in picks)
    assert faster_probes >= 10          # 48/54 stay eligible every probe slot


def test_minstrel_converges_after_channel_flip():
    m = fresh_minstrel()
    mid, high = 2, 7                    # 12 Mbit/s vs 54 Mbit/s

    def feed_interval(t_us, p_by_mode):
        for mode_id, p in p_by_mode.items():
            m.report(MODES[mode_id], 10, round(10 * p))
        m._next_update_us = t_us        # force the window to close
        m.select(1528, t_us)
        return best_mode(m)

    # modes above 12 Mbit/s fail, everything below succeeds
    before = {i: (1.0 if i <= mid else 0.0) for i in range(8)}
    t = 0
    for _ in range(20):
        t += 100_000
        pick = feed_interval(t, before)
    assert pick.id == mid
    after = {i: 1.0 for i in range(8)}
    flips = 0
    for _ in range(10):
        t += 100_000
        pick = feed_interval(t, after)
        flips += 1
        if pick.id == high:
            break
    assert pick.id == high and flips <= 10


def test_minstrel_select_sees_a_direct_update_window():
    m = fresh_minstrel()
    m.total_attempts = [10] * 8
    m.ewma = [1.0] * 8
    assert m.select(1528, 0).id == 7
    m.update_window(7, 10, 0)           # 54 Mbit/s at 0.75 now loses to 48
    assert best_mode(m).id == 6
    assert m.select(1528, 0).id == 6


class UncachedMinstrel(Minstrel):
    """Reference: ranks the modes and scans for untried ones on every call."""

    def select(self, mpdu_bytes, now_us):
        self._ranking.clear()
        self._all_tried = False
        return super().select(mpdu_bytes, now_us)


def most_chosen(picks):
    return collections.Counter(picks).most_common(1)[0][0]


def test_minstrel_cached_ranking_matches_per_frame_ranking():
    cached, reference = fresh_minstrel(seed=3), UncachedMinstrel(
        DCF, RngStream(3, "minstrel.t"))
    channel = random.Random(11)
    t_us = 0
    picks = []
    for frame in range(4000):           # 1.2 s: twelve update intervals
        t_us += 300
        mpdu = 1528 if frame % 3 else 200
        mode = cached.select(mpdu, t_us)
        assert reference.select(mpdu, t_us) is mode
        assert cached.rng._rng.getstate() == reference.rng._rng.getstate()
        # high modes fail more often after the first 0.6 s
        p_ok = 0.95 - mode.id * (0.02 if t_us < 600_000 else 0.11)
        ok = int(channel.random() < p_ok)
        cached.report(mode, 1, ok)
        reference.report(mode, 1, ok)
        picks.append(mode.id)
    assert cached.ewma == reference.ewma
    assert set(picks) == set(range(len(MODES)))
    # the ranking moved with the channel
    assert most_chosen(picks[:2000]) != most_chosen(picks[2000:])


def test_dcf_params_validation():
    with pytest.raises(TypeError):      # 802.11a timing is not a setting
        DcfParams(difs_us=30)
    with pytest.raises(TypeError):
        DcfParams(cw_min=14)
    with pytest.raises(ValueError):
        DcfParams(retry_limit=0)
    with pytest.raises(ValueError):
        DcfParams(basic_rates_mbps=(11,))
