"""Trace parsing, lookup semantics, and round-trip fidelity."""

import copy
import io
import logging
import pickle
import random

import pytest

from linksim.traces import (MOBILITY_HEADER, DirectedLink, MobilityTrace,
                            TraceCsvRecorder, TraceFormatError, Waypoint,
                            parse_mobility, parse_snr_trace,
                            serialize_snr_trace)

AB = DirectedLink("A", "B")
BA = DirectedLink("B", "A")


def test_directed_link_is_directional():
    assert AB != BA
    assert AB == ("A", "B") and hash(AB) == hash(("A", "B"))
    assert {("A", "B"): 1}[AB] == 1
    assert (AB.tx, AB.rx) == ("A", "B")
    assert str(AB) == "A->B" and f"{BA}" == "B->A"
    for copied in (pickle.loads(pickle.dumps(AB)), copy.deepcopy(AB)):
        assert copied == AB and type(copied) is DirectedLink
    with pytest.raises(ValueError, match="must differ"):
        DirectedLink("A", "A")


def test_parse_single_sample():
    trace = parse_snr_trace("t_us,tx,rx,snr_db\n1000000,A,B,23.5\n")
    assert trace.links() == [AB]
    assert trace.samples(AB) == [(1_000_000, 23.5)]


def test_parse_duplicate_timestamp_last_wins():
    text = "t_us,tx,rx,snr_db\n5,A,B,20.0\n5,A,B,21.0\n"
    trace = parse_snr_trace(text)
    assert trace.samples(AB) == [(5, 21.0)]


def test_parse_malformed_timestamp_reports_line():
    text = "t_us,tx,rx,snr_db\n1,A,B,20.0\nabc,A,B,23.5\n"
    with pytest.raises(TraceFormatError, match="line 3"):
        parse_snr_trace(text)


def test_parse_rejects_empty_and_headerless():
    with pytest.raises(TraceFormatError):
        parse_snr_trace("")
    with pytest.raises(TraceFormatError, match="header"):
        parse_snr_trace("1,A,B,20.0\n")
    with pytest.raises(TraceFormatError, match="no samples"):
        parse_snr_trace("t_us,tx,rx,snr_db\n")


def test_parse_rejects_non_finite_snr():
    with pytest.raises(TraceFormatError, match="non-finite"):
        parse_snr_trace("t_us,tx,rx,snr_db\n1,A,B,nan\n")
    with pytest.raises(TraceFormatError, match="non-finite"):
        parse_snr_trace("t_us,tx,rx,snr_db\n1,A,B,inf\n")


def test_snr_at_hold_last():
    trace = parse_snr_trace(
        "t_us,tx,rx,snr_db\n1000000,A,B,23.5\n1100000,A,B,25.0\n"
    )
    assert trace.snr_at(AB, 1_050_000) == 23.5
    assert trace.snr_at(AB, 1_100_000) == 25.0      # boundary: at-sample
    assert trace.snr_at(AB, 500_000) == 23.5        # clamp to first
    assert trace.snr_at(AB, 9_000_000) == 25.0      # hold beyond last


def test_snr_at_unknown_link():
    trace = parse_snr_trace("t_us,tx,rx,snr_db\n1,A,B,20.0\n")
    with pytest.raises(KeyError, match="no trace for link B->A"):
        trace.snr_at(BA, 1)


def test_snr_values_always_verbatim():
    rng = random.Random(12)
    samples = sorted(rng.sample(range(1, 10_000), 40))
    values = [round(rng.uniform(-5, 40), 3) for _ in samples]
    rows = "\n".join(f"{t},A,B,{v}" for t, v in zip(samples, values))
    trace = parse_snr_trace("t_us,tx,rx,snr_db\n" + rows + "\n")
    for t in range(0, 10_500, 37):
        assert trace.snr_at(AB, t) in values


def test_snr_round_trip():
    text = ("t_us,tx,rx,snr_db\n3,B,A,10.25\n1,A,B,23.5\n2,A,B,24.125\n")
    trace = parse_snr_trace(text)
    assert parse_snr_trace(serialize_snr_trace(trace)) == trace
    # serialization is canonical: serialize(parse(serialize(x))) is stable
    once = serialize_snr_trace(trace)
    assert serialize_snr_trace(parse_snr_trace(once)) == once
    assert once == "t_us,tx,rx,snr_db\n1,A,B,23.5\n2,A,B,24.125\n3,B,A,10.25\n"


def test_gap_warning_logged(caplog):
    text = "t_us,tx,rx,snr_db\n0,A,B,10.0\n5000000,A,B,11.0\n"
    with caplog.at_level(logging.WARNING, logger="linksim.traces"):
        parse_snr_trace(text)
    assert any("gap" in rec.message for rec in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="linksim.traces"):
        parse_snr_trace(text, gap_warning_s=10.0)
    assert not caplog.records


def test_parse_mobility_basics():
    trace = parse_mobility(
        "t_us,node,x_m,y_m,z_m\n0,Master,0,0,0\n0,ClientA,6,0,0\n"
    )
    assert trace.position_at("Master", 0) == (0.0, 0.0, 0.0)
    assert trace.position_at("ClientA", 123) == (6.0, 0.0, 0.0)


def test_parse_mobility_duplicate_waypoint():
    text = "t_us,node,x_m,y_m,z_m\n0,A,0,0,0\n0,A,1,0,0\n"
    with pytest.raises(TraceFormatError, match="duplicate waypoint"):
        parse_mobility(text)


def test_position_interpolation_and_clamp():
    trace = MobilityTrace({
        "N": [Waypoint(0, 0, 0, 0), Waypoint(10_000_000, 6, 0, 0)]
    })
    assert trace.position_at("N", 5_000_000) == (3.0, 0.0, 0.0)
    assert trace.position_at("N", 0) == (0.0, 0.0, 0.0)
    assert trace.position_at("N", 10_000_000) == (6.0, 0.0, 0.0)
    assert trace.position_at("N", 20_000_000) == (6.0, 0.0, 0.0)
    with pytest.raises(KeyError):
        trace.position_at("missing", 0)


def test_position_hits_every_waypoint_and_is_continuous():
    rng = random.Random(5)
    times = sorted(rng.sample(range(0, 1_000_000), 8))
    wps = [Waypoint(t, rng.uniform(-9, 9), rng.uniform(-9, 9), rng.uniform(0, 3))
           for t in times]
    trace = MobilityTrace({"N": wps})
    for w in wps:
        assert trace.position_at("N", w.t_us) == pytest.approx(w.position)
    for t in range(0, 1_000_000, 999):
        a = trace.position_at("N", t)
        b = trace.position_at("N", t + 1)
        assert all(abs(x - y) < 1e-3 for x, y in zip(a, b))


def test_link_distance():
    trace = MobilityTrace.static({
        "Master": (0, 0, 0), "ClientA": (6, 0, 0), "P": (3, 4, 0),
    })
    assert trace.link_distance("Master", "ClientA", 0) == pytest.approx(6.0)
    assert trace.link_distance("Master", "Master", 0) == 0.0
    assert trace.link_distance("Master", "P", 0) == pytest.approx(5.0)


def test_static_single_waypoint_everywhere():
    trace = MobilityTrace.static({"N": (1.5, 2.5, 0.0)})
    for t in (0, 1, 10**9):
        assert trace.position_at("N", t) == (1.5, 2.5, 0.0)


def serialize_mobility(trace: MobilityTrace) -> str:
    out = [MOBILITY_HEADER]
    for node in sorted(trace.nodes()):
        for w in trace._waypoints[node]:
            out.append(f"{w.t_us},{node},{w.x_m!r},{w.y_m!r},{w.z_m!r}")
    return "\n".join(out) + "\n"


def test_mobility_round_trip():
    text = ("t_us,node,x_m,y_m,z_m\n0,A,0,0,0\n5,A,1.5,0,0\n0,B,6,0,0\n")
    trace = parse_mobility(text)
    assert parse_mobility(serialize_mobility(trace)) == trace


def test_mobility_rejects_malformed():
    with pytest.raises(TraceFormatError, match="line 2"):
        parse_mobility("t_us,node,x_m,y_m,z_m\n0,A,1,2\n")
    with pytest.raises(TraceFormatError):
        parse_mobility("")


@pytest.mark.parametrize("parse, header, row", [
    (parse_snr_trace, "t_us,tx,rx,snr_db", "A,B,20.0"),
    (parse_mobility, "t_us,node,x_m,y_m,z_m", "A,0,0,0"),
])
def test_both_formats_share_row_checks(parse, header, row):
    cases = {
        "": "line 1: empty file",
        "x\n": f"line 1: expected header '{header}'",
        f"{header}\n\n": "line 2: no ",
        f"{header}\n1,{row},9\n": "line 2: expected ",
        f"{header}\n\n1.5,{row}\n": "line 3: malformed timestamp: '1.5'",
        f"{header}\n-1,{row}\n": "line 2: negative timestamp: -1",
    }
    for text, message in cases.items():
        with pytest.raises(TraceFormatError) as info:
            parse(text)
        assert str(info.value).startswith(message)


def test_min_distance_matches_dense_sampling():
    rng = random.Random(3)
    for _ in range(20):
        trace = MobilityTrace({
            node: [Waypoint(t, rng.uniform(-9, 9), rng.uniform(-9, 9), 0.0)
                   for t in sorted(rng.sample(range(0, 10_000), 4))]
            for node in ("A", "B")
        })
        t0, t1 = sorted(rng.sample(range(0, 12_000), 2))
        dense = min(trace.link_distance("A", "B", t)
                    for t in range(t0, t1 + 1))
        closed = trace.min_distance("A", "B", t0, t1)
        assert closed <= dense + 1e-9
        assert closed == pytest.approx(dense, abs=0.02)


def test_min_distance_of_crossing_and_static_nodes():
    crossing = MobilityTrace({
        "M": [Waypoint(0, 0, 0, 0)],
        "C": [Waypoint(0, 6, 0, 0), Waypoint(2_000_000, -6, 0, 0)],
    })
    assert crossing.min_distance("M", "C", 0, 2_000_000) == 0.0
    assert crossing.min_distance("M", "C", 0, 500_000) == pytest.approx(3.0)
    assert crossing.min_distance("M", "C", 0, 0) == 6.0
    static = MobilityTrace.static({"M": (0, 0, 0), "C": (3, 4, 0)})
    assert static.min_distance("M", "C", 0, 10**9) == 5.0


def test_recorder_writes_one_row_per_snr_reception():
    buf = io.StringIO()
    rec = TraceCsvRecorder(buf)
    # it takes no tx or drop rows, so runs that record it skip full-queue
    # arrivals
    assert not hasattr(rec, "tx") and not hasattr(rec, "drop")
    rec.rx(205, "B", "data", AB, 54, 1, 1, None, "collided")
    rec.rx(405, "B", "data", AB, 54, 1, 2, 23.5, "delivered")
    rec.rx(700, "A", "ack", BA, 6, 1, 2, 0.1 + 0.2, "delivered")
    text = buf.getvalue()
    assert text == ("t_us,tx,rx,snr_db\n405,A,B,23.5\n"
                    "700,B,A,0.30000000000000004\n")
    trace = parse_snr_trace(text)
    assert parse_snr_trace(serialize_snr_trace(trace)) == trace
