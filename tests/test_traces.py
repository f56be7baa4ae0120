"""Trace parsing, lookup semantics, and round-trip fidelity."""

import copy
import io
import logging
import math
import pickle
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from linksim import cli, traces
from linksim.traces import (MOBILITY_HEADER, SNR_HEADER, DirectedLink,
                            MobilityTrace, SnrTrace, TraceCsvRecorder,
                            TraceFormatError, Waypoint, parse_mobility,
                            parse_snr_trace, serialize_snr_trace)

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


def test_snr_trace_keeps_a_checked_copy_of_its_samples():
    times, values = [0, 10], [20.0, 30.0]
    trace = SnrTrace({AB: (times, values)})
    times[1] = -5
    values[0] = 99.0
    assert trace.samples(AB) == [(0, 20.0), (10, 30.0)]
    assert trace.snr_at(AB, 10) == 30.0
    with pytest.raises(ValueError, match="2 times and 1 values"):
        SnrTrace({AB: ([0, 10], [20.0])})


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
    at_limit = "t_us,tx,rx,snr_db\n0,A,B,10.0\n1000000,A,B,11.0\n"   # 1 s
    with caplog.at_level(logging.WARNING, logger="linksim.traces"):
        parse_snr_trace(at_limit)
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
        f"{header}\n1,{row}\n{2**63},{row}\n":
            f"line 3: timestamp beyond int64: {2**63}",
        f"{header}\n100000000000000000000,{row}\n":
            "line 2: timestamp beyond int64: 100000000000000000000",
    }
    for text, message in cases.items():
        with pytest.raises(TraceFormatError) as info:
            parse(text)
        assert str(info.value).startswith(message)


def test_largest_int64_timestamp_is_a_sample():
    trace = parse_snr_trace(f"t_us,tx,rx,snr_db\n{2**63 - 1},A,B,20.0\n")
    assert trace.samples(AB) == [(2**63 - 1, 20.0)]


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


# -- differential test against the previous parsers ---------------------------
# The parsers as they were before rows went straight into per-link stores:
# every field stripped, every row a (t_us, line_no, snr_db) tuple sorted per
# link. The parsers above must agree with them on every input, error or not.

_ORACLE_NODE_ID_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
_oracle_logger = logging.getLogger("linksim.traces")


def _oracle_validate_node_id(line_no, node_id):
    if not _ORACLE_NODE_ID_RE.match(node_id):
        raise TraceFormatError(
            line_no, f"invalid node id {node_id!r} (allowed: letters, digits, _.-)"
        )
    return node_id


def _oracle_parse_float(line_no, field, what):
    try:
        value = float(field)
    except ValueError:
        raise TraceFormatError(line_no, f"malformed {what}: {field!r}") from None
    if not math.isfinite(value):
        raise TraceFormatError(line_no, f"non-finite {what}: {field!r}")
    return value


def oracle_rows(data, header, n_fields, what):
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lines = data.splitlines()
    if not lines:
        raise TraceFormatError(1, "empty file")
    if lines[0].strip() != header:
        raise TraceFormatError(1, f"expected header {header!r}")
    found = False
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != n_fields:
            raise TraceFormatError(
                line_no, f"expected {n_fields} fields, got {len(fields)}")
        try:
            t_us = int(fields[0])
        except ValueError:
            raise TraceFormatError(
                line_no, f"malformed timestamp: {fields[0]!r}") from None
        if t_us < 0:
            raise TraceFormatError(line_no, f"negative timestamp: {t_us}")
        found = True
        yield line_no, t_us, fields
    if not found:
        raise TraceFormatError(len(lines), f"no {what} in file")


def oracle_parse_snr_trace(data):
    raw = {}
    for line_no, t_us, fields in oracle_rows(data, SNR_HEADER, 4, "samples"):
        tx = _oracle_validate_node_id(line_no, fields[1])
        rx = _oracle_validate_node_id(line_no, fields[2])
        if tx == rx:
            raise TraceFormatError(line_no, f"tx equals rx: {tx!r}")
        snr_db = _oracle_parse_float(line_no, fields[3], "snr_db")
        raw.setdefault((tx, rx), []).append((t_us, line_no, snr_db))
    series = {}
    gap_limit = 1_000_000   # a longer gap is logged
    for (tx, rx), rows in raw.items():
        rows.sort()
        times, values = [], []
        for t_us, _, snr_db in rows:
            if times and times[-1] == t_us:
                values[-1] = snr_db
            else:
                times.append(t_us)
                values.append(snr_db)
        link = DirectedLink(tx, rx)
        series[link] = (times, values)
        gap = max((b - a for a, b in zip(times, times[1:])), default=0)
        if gap > gap_limit:
            _oracle_logger.warning(
                "link %s has a %.3f s sample gap (hold-last applies)",
                link, gap / 1e6,
            )
    return SnrTrace(series)


def oracle_parse_mobility(data):
    per_node = {}
    seen = set()
    for line_no, t_us, fields in oracle_rows(data, MOBILITY_HEADER, 5,
                                             "waypoints"):
        node = _oracle_validate_node_id(line_no, fields[1])
        if (node, t_us) in seen:
            raise TraceFormatError(
                line_no, f"duplicate waypoint for {node!r} at {t_us} µs")
        seen.add((node, t_us))
        x = _oracle_parse_float(line_no, fields[2], "x_m")
        y = _oracle_parse_float(line_no, fields[3], "y_m")
        z = _oracle_parse_float(line_no, fields[4], "z_m")
        per_node.setdefault(node, []).append(Waypoint(t_us, x, y, z))
    for seq in per_node.values():
        seq.sort(key=lambda w: w.t_us)
    return MobilityTrace(per_node)


# Whitespace that may pad a field: str.strip() removes all of it, while
# int() and float() reject \x1f; \u3000 and \xa0 are non-ASCII spaces.
PADDING = [" ", "\t", "  ", "\x1f", "\u3000", "\xa0", " \x1f "]
NODES = ["A", "B", "C", "Master", "n_1.x-2"]
BAD_NODES = ["A B", "A!", "", "é", "A,"]


def _pad(rng, field):
    if rng.random() < 0.15:
        return rng.choice(PADDING) + field + rng.choice(["", *PADDING])
    return field


def _mutated_rows(rng, make_row, n_rows, bad_rows):
    """Rows of one random trace file, every field possibly padded.

    make_row(rng, t_us) gives the fields of one valid row; bad_rows maps a
    kind of error to a function giving the fields of a row with it.
    """
    rows = []
    t_us = rng.randrange(0, 3)
    for _ in range(n_rows):
        t_us += rng.choice([0, 1, 7, 250, 2_000_000])   # 0: a duplicate time
        rows.append(make_row(rng, t_us))
    if len(rows) > 1:
        for _ in range(rng.choice([0, 0, 1, 2])):        # out-of-order rows
            i, j = sorted(rng.sample(range(len(rows)), 2))
            rows[i:j + 1] = reversed(rows[i:j + 1])
        for _ in range(rng.choice([0, 0, 1, 2])):        # same key, new value
            row = rng.choice(rows)[:-1] + make_row(rng, 0)[-1:]
            rows.insert(rng.randrange(len(rows) + 1), row)
    for _ in range(rng.choice([0, 0, 1, 1, 2])):         # invalid rows
        kind = rng.choice(sorted(bad_rows))
        rows.insert(rng.randrange(len(rows) + 1), bad_rows[kind](rng))
    lines = [",".join(_pad(rng, f) for f in row) for row in rows]
    for _ in range(rng.choice([0, 0, 1, 3])):            # blank lines
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", " ", "\t"]))
    return lines


def _snr_row_fields(rng, t_us):
    tx, rx = rng.sample(NODES[:3] if rng.random() < 0.8 else NODES, 2)
    snr = rng.choice([f"{rng.uniform(-5, 40)!r}", f"{rng.uniform(-5, 40):.2f}",
                      str(rng.randrange(0, 40)), "1e1", "+3.5", "1_0.5"])
    return [str(t_us), tx, rx, snr]


SNR_BAD_ROWS = {
    "bad_node": lambda rng: ["5", rng.choice(BAD_NODES), "B", "1.0"],
    "bad_rx": lambda rng: ["5", "A", rng.choice(BAD_NODES), "1.0"],
    "tx_equals_rx": lambda rng: ["5", "A", rng.choice(["A", " A"]), "1.0"],
    "non_finite": lambda rng: ["5", "A", "B",
                               rng.choice(["nan", "inf", "-inf", "1e400"])],
    "bad_snr": lambda rng: ["5", "A", "B", rng.choice(["x", "", "1.0.0"])],
    "field_count": lambda rng: rng.choice([["5", "A", "B"],
                                           ["5", "A", "B", "1.0", ""]]),
    "timestamp": lambda rng: [rng.choice(["-5", "1.5", "1e3", "", "0x10"]),
                              "A", "B", "1.0"],
}


def _mobility_row_fields(rng, t_us):
    return [str(t_us), rng.choice(NODES[:3]),
            *(f"{rng.uniform(-50, 50)!r}" for _ in range(3))]


MOBILITY_BAD_ROWS = {
    "bad_node": lambda rng: ["5", rng.choice(BAD_NODES), "1", "2", "3"],
    "non_finite": lambda rng: ["5", "A", "1", rng.choice(["nan", "inf"]), "3"],
    "bad_coordinate": lambda rng: ["5", "A", "1", "2", rng.choice(["y", ""])],
    "field_count": lambda rng: ["5", "A", "1", "2"],
    "timestamp": lambda rng: [rng.choice(["-1", "2.5"]), "A", "1", "2", "3"],
}


def _random_file(rng, header, make_row, bad_rows):
    lines = [header] + _mutated_rows(rng, make_row, rng.randrange(0, 30),
                                     bad_rows)
    text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["\n", ""])
    return text.encode("utf-8") if rng.random() < 0.5 else text


def _outcome(parse, data, caplog):
    caplog.clear()
    try:
        result = parse(data)
    except TraceFormatError as exc:
        return "error", str(exc), exc.line_no
    warnings = [rec.getMessage() for rec in caplog.records]
    keys = result.links() if isinstance(result, SnrTrace) else result.nodes()
    return "ok", result, keys, warnings


@pytest.mark.parametrize("parse, oracle, header, make_row, bad_rows", [
    (parse_snr_trace, oracle_parse_snr_trace, SNR_HEADER, _snr_row_fields,
     SNR_BAD_ROWS),
    (parse_mobility, oracle_parse_mobility, MOBILITY_HEADER,
     _mobility_row_fields, MOBILITY_BAD_ROWS),
], ids=["snr", "mobility"])
def test_parsers_agree_with_the_previous_parsers(caplog, parse, oracle, header,
                                                 make_row, bad_rows):
    _assert_agree(caplog, parse, oracle, header, make_row, bad_rows)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_parsers_agree_at_small_chunk_sizes(caplog, monkeypatch, chunk):
    monkeypatch.setattr(traces, "_CHUNK", chunk)
    _assert_agree(caplog, parse_snr_trace, oracle_parse_snr_trace, SNR_HEADER,
                  _snr_row_fields, SNR_BAD_ROWS)
    _assert_agree(caplog, parse_mobility, oracle_parse_mobility,
                  MOBILITY_HEADER, _mobility_row_fields, MOBILITY_BAD_ROWS)


def _assert_agree(caplog, parse, oracle, header, make_row, bad_rows):
    rng = random.Random(2024)
    outcomes = set()
    with caplog.at_level(logging.WARNING, logger="linksim.traces"):
        for _ in range(600):
            data = _random_file(rng, header, make_row, bad_rows)
            expected = _outcome(oracle, data, caplog)
            assert _outcome(parse, data, caplog) == expected, data
            outcomes.add(expected[0] if expected[0] == "ok"
                         else expected[1].split(":")[1].split()[0])
    # the random files reach a valid trace and each kind of row error
    assert {"ok", "malformed", "non-finite", "invalid", "expected",
            "negative"} <= outcomes


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parent.parent / "scenarios" / "traces")
    .glob("*.csv")), ids=lambda p: p.name)
def test_bundled_traces_parse_as_before(path):
    data = path.read_bytes()
    trace = parse_snr_trace(data)
    expected = oracle_parse_snr_trace(data)
    assert trace == expected and trace.links() == expected.links()


# -- chunked reading -----------------------------------------------------------
# Every line break that str.splitlines() knows, on both sides of a "\n"
# where a chunk may end.
BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029"]
BREAKS_TEXT = SNR_HEADER + "\n" + "".join(
    f"{2 * i},A,B,{i}.5{brk}\n{brk}{2 * i + 1},B,A,-{i}.25\n"
    for i, brk in enumerate(BREAKS))


@pytest.mark.parametrize("data", [BREAKS_TEXT, BREAKS_TEXT.encode("utf-8")],
                         ids=["str", "bytes"])
def test_chunks_split_lines_as_the_whole_text_does(caplog, monkeypatch, data):
    text = BREAKS_TEXT
    expected = _outcome(oracle_parse_snr_trace, data, caplog)
    assert expected[0] == "ok" and len(expected[1].samples(AB)) == len(BREAKS)
    for chunk in range(1, len(data) + 2):
        monkeypatch.setattr(traces, "_CHUNK", chunk)
        chunks = list(traces._line_chunks(data))
        assert [line for lines in chunks for line in lines] == text.splitlines()
        assert _outcome(parse_snr_trace, data, caplog) == expected
        # a row error names the line that splitlines() of the whole text gives
        bad = data + (b"7,A,B,x\n" if isinstance(data, bytes) else "7,A,B,x\n")
        assert _outcome(parse_snr_trace, bad, caplog) == \
            _outcome(oracle_parse_snr_trace, bad, caplog)


def _bad_utf8_cases():
    """Traces longer than one chunk whose bytes are not all UTF-8."""
    rows = "".join(f"{t},A,B,{t % 40}.5\n" for t in range(20_000)).encode()
    assert len(rows) > 2 * traces._CHUNK
    header = SNR_HEADER.encode() + b"\n"
    return {
        "bad_byte": header + rows + b"9000,A,B,\xff\n",
        "cut_sequence": header + rows + b"9000,A,B,1.5\xe2\x82\n" + rows,
        "after_a_row_error": header + b"x,A,B,1\n" + rows + b"9000,A,B,\xc3\n",
    }


@pytest.mark.parametrize("case", sorted(_bad_utf8_cases()))
def test_a_bad_utf8_byte_is_named_as_in_the_whole_file(tmp_path, capsys, case):
    data = _bad_utf8_cases()[case]
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    (tmp_path / "link.csv").write_bytes(data)
    (tmp_path / "scn.ini").write_text(
        "[scenario]\nduration_s = 1\n[nodes]\nA = 0,0,0\nB = 6,0,0\n"
        "[propagation]\nmodel = trace\ntrace_file = link.csv\n"
        "[traffic]\nkind = udp_uni\nsrc = A\ndst = B\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(tmp_path / "scn.ini"),
                     "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'link.csv'}: {whole.value}\n" in err
    assert whole.value.start > traces._CHUNK and not out.exists()


def test_parse_keeps_16_bytes_per_sample():
    """A 200k-row trace parses in memory bounded by the samples kept.

    The bounds leave room for the arrays' spare capacity and one chunk of
    text, but not for a second copy of the samples or for the text itself.
    """
    n = 200_000
    data = (SNR_HEADER + "\n" + "".join(
        f"{t * 250},{'AB'[t % 2]},{'BA'[t % 2]},{(t * 7919 % 4000) / 97!r}\n"
        for t in range(n))).encode("utf-8")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = parse_snr_trace(data)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(trace.links()) == [AB, BA]
    assert (peak - before) / n <= 24
    assert (kept - before) / n <= 20
