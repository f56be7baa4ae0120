"""Traffic sources and sinks: CBR schedules, ping semantics, bidi sharing."""

from types import SimpleNamespace

import pytest

from linksim.channel import Channel, PropagationSpec, RadioParams
from linksim.engine import EventQueue
from linksim.mac import DcfParams, FixedRate, build_point_to_point
from linksim.metrics import throughput_series
from linksim.phy import mode_for_rate
from linksim.traces import MobilityTrace, parse_snr_trace
from linksim.traffic import (UDP_DATA, Packet, PingApp, PingConfig,
                             UdpFlowConfig, UdpSink, UdpSource)

from recording_sink import SeqSink


def udp_arrival_times(cfg: UdpFlowConfig) -> list[int]:
    """Arrival instants of the CBR schedule: start, start+gap, ... below stop."""
    if cfg.stop_us <= cfg.start_us:
        return []
    return list(range(cfg.start_us, cfg.stop_us, cfg.gap_us))


def make_pair(snr_db=60.0, seed=1, rate_mbps=54):
    trace = parse_snr_trace(
        f"t_us,tx,rx,snr_db\n0,A,B,{snr_db}\n0,B,A,{snr_db}\n"
    )
    channel = Channel(PropagationSpec("trace", trace=trace), RadioParams(),
                      MobilityTrace.static({"A": (0, 0, 0), "B": (6, 0, 0)}),
                      seed)
    engine = EventQueue()
    mode = mode_for_rate(rate_mbps)
    st_a, st_b = build_point_to_point(
        engine, channel, DcfParams(), seed, "A", "B",
        rate_control_factory=lambda node: FixedRate(mode),
    )
    return engine, st_a, st_b


def test_packet_is_immutable_and_equal_by_value():
    fields = (UDP_DATA, 7, 1472, 1528, 10, "udp.A->B")
    packet = Packet(*fields)
    with pytest.raises(AttributeError):
        packet.seq = 8
    with pytest.raises(AttributeError):
        packet.extra = 1
    assert packet.seq == 7
    twin = Packet(*fields)
    assert twin == packet and hash(twin) == hash(packet)
    assert {packet: 1}[twin] == 1
    assert Packet(UDP_DATA, 8, *fields[2:]) != packet


def test_cbr_gap_values():
    cfg = UdpFlowConfig("A", "B", offered_load_bps=54e6, payload_bytes=1472)
    assert cfg.gap_us == 218
    cfg = UdpFlowConfig("A", "B", offered_load_bps=1e6, payload_bytes=125)
    assert cfg.gap_us == 1000


def test_cbr_empty_window():
    cfg = UdpFlowConfig("A", "B", start_us=5_000_000, stop_us=5_000_000)
    assert udp_arrival_times(cfg) == []


def test_cbr_emission_count():
    # floor((stop-start)/gap) + 1 arrivals when the window is not a
    # whole multiple of the gap (stop itself is exclusive)
    cfg = UdpFlowConfig("A", "B", offered_load_bps=1e6, payload_bytes=125,
                        start_us=0, stop_us=10_500)
    times = udp_arrival_times(cfg)
    assert len(times) == (10_500 - 0) // 1000 + 1
    assert times[0] == 0 and times[-1] == 10_000
    cfg = UdpFlowConfig("A", "B", offered_load_bps=1e6, payload_bytes=125,
                        start_us=2_000, stop_us=8_000)
    assert udp_arrival_times(cfg) == [2000, 3000, 4000, 5000, 6000, 7000]


def test_cbr_validation():
    with pytest.raises(ValueError):
        UdpFlowConfig("A", "B", payload_bytes=0)
    with pytest.raises(ValueError):
        UdpFlowConfig("A", "B", payload_bytes=3000)
    with pytest.raises(ValueError):
        UdpFlowConfig("A", "B", offered_load_bps=-1.0)
    with pytest.raises(ValueError, match="gap below 1"):
        UdpFlowConfig("A", "B", offered_load_bps=1e12)


def test_source_feeds_sink_exactly():
    engine, st_a, st_b = make_pair()
    cfg = UdpFlowConfig("A", "B", offered_load_bps=2e6, payload_bytes=500,
                        start_us=0, stop_us=100_000)
    UdpSource(engine, st_a, cfg, "udp.A->B")
    sink = SeqSink(st_b, "udp.A->B", 1)
    engine.run_until(1_000_000)
    times = list(sink.rx_t_us)
    seqs = sink.rx_seq
    assert len(times) == len(udp_arrival_times(cfg))
    assert times == sorted(times)
    assert seqs == sorted(seqs)          # no reordering in this MAC
    assert sum(sink.bytes_per_s) == 500 * len(times)


def test_sink_filters_other_flows():
    engine, st_a, st_b = make_pair()
    UdpSource(engine, st_a,
              UdpFlowConfig("A", "B", offered_load_bps=2e6, payload_bytes=500,
                            stop_us=50_000), "udp.A->B")
    other = SeqSink(st_b, "udp.X->Y", 1)
    engine.run_until(200_000)
    assert not other.rx_t_us
    assert not any(other.bytes_per_s)


def deliver(station, records):
    """Hand each (t_us, payload_bytes, seq) record of flow udp.A->B to the
    station's receive handlers, as the MAC delivers a packet."""
    for t_us, payload_bytes, seq in records:
        packet = Packet(UDP_DATA, seq, payload_bytes, payload_bytes + 56, 0,
                        "udp.A->B")
        for handler in station.rx_handlers:
            handler(packet, t_us)


def test_throughput_binning():
    station = SimpleNamespace(rx_handlers=[])
    sink = UdpSink(station, "udp.A->B", 10)
    records = [(5_200_000, 125_000, 0), (5_900_000, 250_000, 1),
               (6_100_000, 1, 2)]
    deliver(station, records)
    s = throughput_series(sink.bytes_per_s, "run")
    assert s.values[5] == (125_000 + 250_000) * 8 / 1000
    assert s.values[6] == pytest.approx(0.008)
    assert s.values[0] == 0.0                      # empty second present as 0
    assert sorted(s.values) == list(range(10))


def test_throughput_trailing_partial_second_dropped():
    station = SimpleNamespace(rx_handlers=[])
    sink = UdpSink(station, "udp.A->B", 300)
    records = [(300_400_000, 1000, 0)]
    deliver(station, records)
    s = throughput_series(sink.bytes_per_s, "run")
    assert len(s.values) == 300
    assert 300 not in s.values
    assert not any(sink.bytes_per_s)


def test_sink_bins_after_the_processing_delay():
    # a delivery the delay pushes past a second boundary counts in the next
    # second, and one it pushes to the run's end is not counted
    station = SimpleNamespace(rx_handlers=[])
    sink = UdpSink(station, "udp.A->B", 2, processing_delay_us=300)
    deliver(station, [(999_699, 10, 0), (999_700, 20, 1),
                      (1_999_699, 40, 2), (1_999_700, 80, 3)])
    assert sink.bytes_per_s == [10, 20 + 40]


def test_ping_rtt_floor_and_samples():
    engine, st_a, st_b = make_pair()
    cfg = PingConfig("A", "B", interval_us=100_000, payload_bytes=1472,
                     start_us=0, stop_us=10_000_000)
    app = PingApp(engine, st_a, st_b, cfg, "ping.A->B")
    engine.run_until(10_000_000)
    assert len(app.samples) == 100
    # per-leg minimum: DIFS + T_data(1528 B at 54 Mbit/s); plus SIFS + ACK
    # between the legs; both backoffs zero in the best case
    floor = 2 * (34 + 244) + 16 + 44
    rtts = [rtt for _, rtt in app.samples]
    assert min(rtts) >= floor
    assert min(rtts) <= floor + 2 * 15 * 9
    mean = sum(rtts) / len(rtts)
    expected = 2 * (34 + 7.5 * 9 + 244) + 16 + 44
    assert abs(mean - expected) < 30


def test_ping_processing_delay_shifts_rtt_exactly():
    base = []
    for delay in (0, 300):
        engine, st_a, st_b = make_pair()
        app = PingApp(engine, st_a, st_b,
                      PingConfig("A", "B", stop_us=5_000_000), "ping.A->B",
                      processing_delay_us=delay)
        engine.run_until(6_000_000)
        base.append(app.samples)
    assert len(base[0]) == len(base[1])
    for (s0, r0), (s1, r1) in zip(base[0], base[1]):
        assert s0 == s1
        assert r1 - r0 == 600


def test_ping_lost_request_leaves_gap():
    engine, st_a, st_b = make_pair(snr_db=-60.0)
    app = PingApp(engine, st_a, st_b,
                  PingConfig("A", "B", stop_us=2_000_000), "ping.A->B")
    engine.run_until(3_000_000)
    assert app.samples == []
    assert app.outstanding                      # requests left unanswered


def test_ping_at_most_one_outstanding():
    engine, st_a, st_b = make_pair()
    app = PingApp(engine, st_a, st_b,
                  PingConfig("A", "B", stop_us=20_000_000), "ping.A->B")
    worst = 0
    for t in range(0, 20_000_000, 50_000):
        engine.run_until(t)
        worst = max(worst, len(app.outstanding))
    assert worst <= 1


def test_ping_config_validation():
    with pytest.raises(ValueError):
        PingConfig("A", "B", interval_us=0)
    with pytest.raises(ValueError):
        PingConfig("A", "B", payload_bytes=0)


def test_bidirectional_shares_the_medium():
    duration_us = 20_000_000
    single = _run_udp(duration_us, bidi=False)
    both = _run_udp(duration_us, bidi=True)
    total_bidi = sum(both.values())
    single_total = sum(single.values())
    assert total_bidi <= single_total * 1.05
    assert total_bidi >= single_total * 0.80    # contention, not collapse
    lo, hi = sorted(both.values())
    assert lo / hi > 0.3                        # both directions make progress


def _run_udp(duration_us, bidi):
    engine, st_a, st_b = make_pair()
    flows = [("udp.A->B", st_a, st_b)]
    if bidi:
        flows.append(("udp.B->A", st_b, st_a))
    sinks = {}
    for flow, src, dst in flows:
        UdpSource(engine, src,
                  UdpFlowConfig(src.node, dst.node, stop_us=duration_us), flow)
        sinks[flow] = UdpSink(dst, flow, -(-duration_us // 1_000_000))
    engine.run_until(duration_us)
    return {flow: 8 * sum(sink.bytes_per_s) / (duration_us / 1e6)
            for flow, sink in sinks.items()}
