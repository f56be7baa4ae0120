"""SNR and waypoint trace data model, parsing, and query semantics.

Both trace kinds are interchanged as UTF-8 CSV:

    SNR trace:  header ``t_us,tx,rx,snr_db``, one received-frame sample per row
    Mobility:   header ``t_us,node,x_m,y_m,z_m``, one waypoint per row

Timestamps are integer microseconds. SNR lookups are zero-order hold (the
sample value observed at or before the query time; never interpolated),
positions are piecewise-linear between waypoints and clamped outside them.
"""

from __future__ import annotations

import io
import math
import re
from array import array
from bisect import bisect_right
from functools import reduce
from itertools import chain, islice
from operator import add, itemgetter, lt, mul, sub
from typing import BinaryIO, Callable

SNR_HEADER = "t_us,tx,rx,snr_db"
MOBILITY_HEADER = "t_us,node,x_m,y_m,z_m"

_NODE_ID_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
_MAX_T_US = 2**63 - 1   # timestamps are stored as int64
_GAP_WARNING_US = 1_000_000   # a longer per-link SNR sample gap is logged
# A trace is read in chunks of at least this many bytes, each ending just
# after a newline.
_CHUNK = 1 << 16


class TraceFormatError(ValueError):
    """Malformed trace input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DirectedLink(tuple):
    """One direction of a radio link, the tuple ``(tx, rx)``.

    (A,B) and (B,A) are distinct keys; being a plain tuple underneath, a
    link hashes and compares at C speed wherever it keys a per-frame table.
    """

    __slots__ = ()
    tx = property(itemgetter(0))
    rx = property(itemgetter(1))

    def __new__(cls, tx: str, rx: str) -> "DirectedLink":
        if tx == rx:
            raise ValueError(f"link endpoints must differ, got {tx!r} twice")
        return tuple.__new__(cls, (tx, rx))

    def __getnewargs__(self) -> tuple[str, str]:   # pickle and copy
        return tuple(self)

    def __str__(self) -> str:
        return f"{self[0]}->{self[1]}"


def _validate_node_id(line_no: int, node_id: str) -> str:
    node_id = node_id.strip()
    if not _NODE_ID_RE.match(node_id):
        raise TraceFormatError(
            line_no, f"invalid node id {node_id!r} (allowed: letters, digits, _.-)"
        )
    return node_id


def _stripped(parse, line_no: int, field: str, what: str):
    """parse(field.strip()), for a field that parse(field) rejected.

    int() and float() skip the whitespace around a number themselves, except
    \\x1c-\\x1f, which str.strip() also removes. So a field is stripped
    only once it fails, and the error names the stripped field.
    """
    field = field.strip()
    try:
        return parse(field)
    except ValueError:
        raise TraceFormatError(line_no, f"malformed {what}: {field!r}") from None


def _parse_float(line_no: int, field: str, what: str) -> float:
    try:
        value = float(field)
    except ValueError:
        value = _stripped(float, line_no, field, what)
    if not math.isfinite(value):
        raise TraceFormatError(line_no, f"non-finite {what}: {field.strip()!r}")
    return value


def _decode(block: bytes, offset: int) -> str:
    """block decoded as UTF-8, block being its input's bytes from offset on.

    A bad byte raises a ValueError worded as decoding the whole input words
    it, the byte's value and its position counted from the input's start,
    without holding the input up to that byte.
    """
    try:
        return block.decode("utf-8")
    except UnicodeDecodeError as exc:
        start, end = offset + exc.start, offset + exc.end
        where = (f"byte 0x{block[exc.start]:02x} in position {start}"
                 if end - start == 1 else f"bytes in position {start}-{end - 1}")
        raise ValueError(f"'{exc.encoding}' codec can't decode {where}: "
                         f"{exc.reason}") from None


def _line_chunks(source: str | bytes | BinaryIO, on_block=None):
    """Yield the lines of source, one list per chunk of it.

    source is a str, bytes or an open binary file, read once. Together the
    lists hold the lines that splitlines() of the whole text gives, while
    only one chunk is read, decoded and split at a time. A chunk ends just
    after the first "\\n" past ``_CHUNK`` bytes, which never splits a
    "\\r\\n" pair or a UTF-8 sequence. on_block, if given, is called with
    the bytes of each chunk before they are decoded.
    """
    if isinstance(source, str):
        source = source.encode()
    fh = io.BytesIO(source) if isinstance(source, bytes) else source
    offset = 0
    while block := fh.read(_CHUNK) + fh.readline():
        if on_block is not None:
            on_block(block)
        yield _decode(block, offset).splitlines()
        offset += len(block)


def _read(source: str | bytes | BinaryIO, parse, on_block=None):
    """parse(the line chunks of source), a trace read in one pass.

    A bad UTF-8 byte anywhere in source is reported ahead of an earlier row
    error, as decoding the whole file first would report it: on a row error
    the rest of source is decoded before the error is raised.
    """
    chunks = _line_chunks(source, on_block)
    try:
        return parse(chunks)
    except TraceFormatError:
        for _ in chunks:
            pass
        raise


def _rows(chunks, header: str, n_fields: int, what: str):
    """Yield (line_no, t_us, fields) for each non-blank row of a trace CSV,
    whose lines chunks yields in lists, as ``_line_chunks`` does.

    Checks what both trace kinds share: the header, the field count and an
    integer timestamp in the first field from 0 to 2**63 - 1. Raises when
    the file holds no row, naming the rows as ``what``. The fields keep the
    whitespace around them; each parser strips what it uses.
    """
    lines = chain.from_iterable(chunks)
    first = next(lines, None)
    if first is None:
        raise TraceFormatError(1, "empty file")
    if first.strip() != header:
        raise TraceFormatError(1, f"expected header {header!r}")
    found = False
    line_no = 1
    for line_no, line in enumerate(lines, start=2):
        fields = line.split(",")
        if len(fields) != n_fields:
            if not line.strip():
                continue
            raise TraceFormatError(
                line_no, f"expected {n_fields} fields, got {len(fields)}")
        try:
            t_us = int(fields[0])
        except ValueError:
            t_us = _stripped(int, line_no, fields[0], "timestamp")
        if not 0 <= t_us <= _MAX_T_US:
            raise TraceFormatError(line_no, (
                f"negative timestamp: {t_us}" if t_us < 0 else
                f"timestamp beyond int64: {t_us}"))
        found = True
        yield line_no, t_us, fields
    if not found:
        raise TraceFormatError(line_no, f"no {what} in file")


class SnrTrace:
    """Per-frame receiver SNR samples keyed by directed link.

    Each link holds one ``(times, values)`` pair of typed arrays, int64
    microseconds and float64 dB, so a sample takes 16 bytes. The trace holds
    the arrays it is given, not a copy: its reader hands it arrays it has
    checked and that no one else holds, as a copy would double the memory of
    the trace while it is made. Lookups hold the last observed value;
    queries before the first sample clamp to it.
    """

    def __init__(self, series: dict[DirectedLink, tuple[array, array]]):
        self._series = series

    def links(self) -> list[DirectedLink]:
        return list(self._series)

    def snr_at(self, link: DirectedLink, t_us: int) -> float:
        """SNR in dB at t_us: last sample at or before t_us, clamped to the first."""
        times, values = self.series(link)
        return values[max(bisect_right(times, t_us) - 1, 0)]

    def series(self, link: DirectedLink) -> tuple[array, array]:
        """The (times, values) arrays of link, shared: callers must not change them."""
        try:
            return self._series[link]
        except KeyError:
            raise KeyError(f"no trace for link {link}") from None


def parse_snr_trace(data: str | bytes) -> SnrTrace:
    """Parse the canonical SNR trace CSV.

    Rows may come in any order. Duplicate timestamps on one link collapse to
    the last occurrence in file order. Per-link gaps longer than one second
    trigger a logged warning (hold-last lookup still applies across the gap).
    """
    return _read(data, _snr_trace)


def read_snr_trace(fh: BinaryIO,
                   on_block: Callable[[bytes], object]) -> SnrTrace:
    """parse_snr_trace of the open binary file fh, read once in chunks.

    on_block is called with the bytes of each chunk before they are parsed,
    so a caller can hash the bytes it parsed without holding them.
    """
    return _read(fh, _snr_trace, on_block)


def _snr_trace(chunks) -> SnrTrace:
    series: dict[DirectedLink, tuple[array, array]] = {}
    stores = {}     # (tx, rx) fields as written -> that link's (times, values)
    isfinite = math.isfinite
    for line_no, t_us, (_, tx, rx, snr) in _rows(chunks, SNR_HEADER, 4,
                                                  "samples"):
        store = stores.get((tx, rx))
        if store is None:
            store = stores[tx, rx] = _link_store(series, line_no, tx, rx)
        # _parse_float, inlined as this runs once per row
        try:
            snr_db = float(snr)
        except ValueError:
            snr_db = _stripped(float, line_no, snr, "snr_db")
        if not isfinite(snr_db):
            raise TraceFormatError(line_no, f"non-finite snr_db: {snr.strip()!r}")
        store[0].append(t_us)
        store[1].append(snr_db)
    for link, (times, values) in series.items():
        if not all(map(lt, times, islice(times, 1, None))):
            last = dict(zip(times, values))     # the last value per time
            times = array("q", sorted(last))
            series[link] = (times, array("d", map(last.__getitem__, times)))
        gap = max(map(sub, islice(times, 1, None), times), default=0)
        if gap > _GAP_WARNING_US:
            import logging      # loaded only when a trace has such a gap
            logging.getLogger(__name__).warning(
                "link %s has a %.3f s sample gap (hold-last applies)",
                link, gap / 1e6,
            )
    return SnrTrace(series)


def _link_store(series, line_no: int, tx: str, rx: str):
    """The (times, values) store in series of the link tx -> rx."""
    tx = _validate_node_id(line_no, tx)
    rx = _validate_node_id(line_no, rx)
    if tx == rx:
        raise TraceFormatError(line_no, f"tx equals rx: {tx!r}")
    return series.setdefault(DirectedLink(tx, rx), (array("q"), array("d")))


class TraceCsvRecorder:
    """Event-log observer that records received SNR as an SNR trace.

    Writes one trace row per reception that has an SNR, in dispatch order;
    collided receptions write nothing. Replaying the file with the same
    config and seed reproduces the run's event log. It defines no ``tx`` or
    ``drop`` callback, so a recording run skips the arrivals that would only
    have been dropped, as a run without a log does.
    """

    def __init__(self, fh):
        self._write = fh.write
        self._write(SNR_HEADER + "\n")

    def rx(self, t, node, kind, link, mode_mbps, seq, attempt, snr_db, outcome):
        if snr_db is not None:   # repr keeps the value bit-exact
            self._write(f"{t},{link[0]},{link[1]},{snr_db!r}\n")


class MobilityTrace:
    """Per-node waypoint tracks with linear interpolation between them.

    Each node holds one ``(times, xs, ys, zs)`` tuple of typed arrays, int64
    microseconds and float64 metres, so a waypoint takes 32 bytes. The
    arrays are built from the columns the constructor is given, which its
    two makers, ``_mobility`` and ``static``, give in strictly increasing
    time order.
    """

    def __init__(self, tracks: dict[str, tuple]):
        if not tracks:
            raise ValueError("mobility trace must contain at least one node")
        self._tracks = {
            node: (array("q", times), *(array("d", axis) for axis in axes))
            for node, (times, *axes) in tracks.items()
        }

    @classmethod
    def static(cls, positions: dict[str, tuple[float, float, float]]) -> "MobilityTrace":
        """Trace for nodes that never move (one waypoint at t=0 each)."""
        return cls({
            node: ([0], [x], [y], [z]) for node, (x, y, z) in positions.items()
        })

    def nodes(self) -> list[str]:
        return list(self._tracks)

    def track(self, node: str) -> tuple[array, array, array, array]:
        """The (times, xs, ys, zs) arrays of node, shared: callers must not
        change them."""
        try:
            return self._tracks[node]
        except KeyError:
            raise KeyError(f"no mobility data for node {node!r}") from None

    def position_at(self, node: str, t_us: int) -> tuple[float, float, float]:
        """Interpolated position; clamps to the first/last waypoint outside them."""
        times, xs, ys, zs = self.track(node)
        idx = bisect_right(times, t_us) - 1
        if idx < 0:
            return (xs[0], ys[0], zs[0])
        if idx >= len(times) - 1:
            return (xs[-1], ys[-1], zs[-1])
        frac = (t_us - times[idx]) / (times[idx + 1] - times[idx])
        return (
            xs[idx] + frac * (xs[idx + 1] - xs[idx]),
            ys[idx] + frac * (ys[idx + 1] - ys[idx]),
            zs[idx] + frac * (zs[idx + 1] - zs[idx]),
        )

    def link_distance(self, a: str, b: str, t_us: int) -> float:
        """Euclidean distance in meters between two nodes at t_us."""
        ax, ay, az = self.position_at(a, t_us)
        bx, by, bz = self.position_at(b, t_us)
        return math.sqrt((ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2)

    def distance_range(self, a: str, b: str, t0_us: int,
                       t1_us: int) -> tuple[float, float]:
        """Smallest and largest distance in meters between two nodes over
        [t0_us, t1_us].

        Between the merged waypoint times both positions are linear, so on
        each such segment the squared distance is a quadratic in time: its
        minimum has a closed form, and its maximum lies at an end of the
        segment, the distance being convex on it.
        """
        waypoint_times = chain(self.track(a)[0], self.track(b)[0])
        inner = {t for t in waypoint_times if t0_us < t < t1_us}
        cuts = sorted(inner | {t0_us, t1_us})

        def offset(t_us: int) -> tuple[float, ...]:
            pa, pb = self.position_at(a, t_us), self.position_at(b, t_us)
            return tuple(x - y for x, y in zip(pa, pb))

        p = offset(cuts[0])
        closest = farthest = math.hypot(*p)
        for t_us in cuts[1:]:
            q = offset(t_us)
            v = [y - x for x, y in zip(p, q)]
            # sums left to right, as sum() did before CPython 3.12
            # compensated it
            vv = reduce(add, map(mul, v, v), 0)
            if vv > 0.0:
                dot = reduce(add, map(mul, p, v), 0)
                s = min(max(-dot / vv, 0.0), 1.0)
                closest = min(closest,
                              math.hypot(*(x + s * c for x, c in zip(p, v))))
            farthest = max(farthest, math.hypot(*q))
            p = q
        return closest, farthest


def read_mobility(fh: BinaryIO,
                  on_block: Callable[[bytes], object]) -> MobilityTrace:
    """The mobility trace CSV in the open binary file fh, read as
    read_snr_trace reads it. Duplicate (node, t) pairs are errors."""
    return _read(fh, _mobility, on_block)


def _mobility(chunks) -> MobilityTrace:
    tracks: dict[str, tuple[array, array, array, array]] = {}
    seen: set[tuple[str, int]] = set()
    for line_no, t_us, fields in _rows(chunks, MOBILITY_HEADER, 5,
                                       "waypoints"):
        node = _validate_node_id(line_no, fields[1])
        if (node, t_us) in seen:
            raise TraceFormatError(line_no, f"duplicate waypoint for {node!r} at {t_us} µs")
        seen.add((node, t_us))
        x = _parse_float(line_no, fields[2], "x_m")
        y = _parse_float(line_no, fields[3], "y_m")
        z = _parse_float(line_no, fields[4], "z_m")
        if node not in tracks:
            tracks[node] = (array("q"), array("d"), array("d"), array("d"))
        for column, value in zip(tracks[node], (t_us, x, y, z)):
            column.append(value)
    for node, track in tracks.items():
        order = sorted(range(len(track[0])), key=track[0].__getitem__)
        tracks[node] = [map(column.__getitem__, order) for column in track]
    return MobilityTrace(tracks)
