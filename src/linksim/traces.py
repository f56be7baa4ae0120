"""SNR and waypoint trace data model, parsing, and query semantics.

Both trace kinds are interchanged as UTF-8 CSV:

    SNR trace:  header ``t_us,tx,rx,snr_db``, one received-frame sample per row
    Mobility:   header ``t_us,node,x_m,y_m,z_m``, one waypoint per row

Timestamps are integer microseconds. SNR lookups are zero-order hold (the
sample value observed at or before the query time; never interpolated),
positions are piecewise-linear between waypoints and clamped outside them.
"""

from __future__ import annotations

import logging
import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

logger = logging.getLogger(__name__)

SNR_HEADER = "t_us,tx,rx,snr_db"
MOBILITY_HEADER = "t_us,node,x_m,y_m,z_m"

_NODE_ID_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


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


@dataclass(frozen=True)
class Waypoint:
    t_us: int
    x_m: float
    y_m: float
    z_m: float

    @property
    def position(self) -> tuple[float, float, float]:
        return (self.x_m, self.y_m, self.z_m)


def _validate_node_id(line_no: int, node_id: str) -> str:
    if not _NODE_ID_RE.match(node_id):
        raise TraceFormatError(
            line_no, f"invalid node id {node_id!r} (allowed: letters, digits, _.-)"
        )
    return node_id


def _parse_float(line_no: int, field: str, what: str) -> float:
    try:
        value = float(field)
    except ValueError:
        raise TraceFormatError(line_no, f"malformed {what}: {field!r}") from None
    if not math.isfinite(value):
        raise TraceFormatError(line_no, f"non-finite {what}: {field!r}")
    return value


def _rows(data: str | bytes, header: str, n_fields: int, what: str):
    """Yield (line_no, t_us, fields) for each non-blank row of a trace CSV.

    Checks what both trace kinds share: the header, the field count and a
    non-negative integer timestamp in the first field. Raises when the file
    holds no row, naming the rows as ``what``.
    """
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


def _snr_row(t_us: int, link: DirectedLink, snr_db: float) -> str:
    """One line of the SNR trace CSV; repr keeps the value bit-exact."""
    return f"{t_us},{link[0]},{link[1]},{snr_db!r}\n"


class SnrTrace:
    """Per-frame receiver SNR samples keyed by directed link.

    Each link holds one ``(times, values)`` pair of parallel lists. Lookups
    hold the last observed value; queries before the first sample clamp to
    it. Instances are immutable after construction.
    """

    def __init__(self, series: dict[DirectedLink, tuple[list[int], list[float]]]):
        if not series:
            raise ValueError("trace must contain at least one link")
        for link, (times, values) in series.items():
            if not times:
                raise ValueError(f"link {link} has no samples")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError(f"link {link} samples not strictly increasing")
        self._series = series

    def links(self) -> list[DirectedLink]:
        return list(self._series)

    def samples(self, link: DirectedLink) -> list[tuple[int, float]]:
        """(t_us, snr_db) of every sample on link, in time order."""
        return list(zip(*self._get(link)))

    def snr_at(self, link: DirectedLink, t_us: int) -> float:
        """SNR in dB at t_us: last sample at or before t_us, clamped to the first."""
        times, values = self._get(link)
        return values[max(bisect_right(times, t_us) - 1, 0)]

    def _get(self, link: DirectedLink) -> tuple[list[int], list[float]]:
        try:
            return self._series[link]
        except KeyError:
            raise KeyError(f"no trace for link {link}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SnrTrace):
            return NotImplemented
        return self._series == other._series


def parse_snr_trace(data: str | bytes, gap_warning_s: float = 1.0) -> SnrTrace:
    """Parse the canonical SNR trace CSV.

    Duplicate timestamps on one link collapse to the last occurrence in file
    order. Per-link gaps longer than gap_warning_s trigger a logged warning
    (hold-last lookup still applies across the gap).
    """
    # (t, file order) per link, so last-wins collapse is well defined
    raw: dict[tuple[str, str], list[tuple[int, int, float]]] = {}
    for line_no, t_us, fields in _rows(data, SNR_HEADER, 4, "samples"):
        tx = _validate_node_id(line_no, fields[1])
        rx = _validate_node_id(line_no, fields[2])
        if tx == rx:
            raise TraceFormatError(line_no, f"tx equals rx: {tx!r}")
        snr_db = _parse_float(line_no, fields[3], "snr_db")
        raw.setdefault((tx, rx), []).append((t_us, line_no, snr_db))
    series = {}
    gap_limit = int(gap_warning_s * 1_000_000)
    for (tx, rx), rows in raw.items():
        rows.sort()
        times: list[int] = []
        values: list[float] = []
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
            logger.warning(
                "link %s has a %.3f s sample gap (hold-last applies)",
                link, gap / 1e6,
            )
    return SnrTrace(series)


def serialize_snr_trace(trace: SnrTrace) -> str:
    """Canonical CSV form; parse(serialize(t)) == t bit-exactly."""
    return SNR_HEADER + "\n" + "".join(
        _snr_row(t_us, link, snr_db)
        for link in sorted(trace.links())
        for t_us, snr_db in trace.samples(link)
    )


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
        if snr_db is not None:
            self._write(_snr_row(t, link, snr_db))


def load_snr_trace(path: str | Path, gap_warning_s: float = 1.0) -> SnrTrace:
    return parse_snr_trace(Path(path).read_bytes(), gap_warning_s)


class MobilityTrace:
    """Per-node waypoint sequences with linear interpolation between them."""

    def __init__(self, waypoints: dict[str, list[Waypoint]]):
        if not waypoints:
            raise ValueError("mobility trace must contain at least one node")
        for node, seq in waypoints.items():
            if not seq:
                raise ValueError(f"node {node!r} has no waypoints")
            times = [w.t_us for w in seq]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError(f"node {node!r} waypoints not strictly increasing")
        self._waypoints = {node: list(seq) for node, seq in waypoints.items()}
        self._times = {node: [w.t_us for w in seq] for node, seq in waypoints.items()}

    @classmethod
    def static(cls, positions: dict[str, tuple[float, float, float]]) -> "MobilityTrace":
        """Trace for nodes that never move (one waypoint at t=0 each)."""
        return cls({
            node: [Waypoint(0, x, y, z)] for node, (x, y, z) in positions.items()
        })

    def nodes(self) -> list[str]:
        return list(self._waypoints)

    def is_static(self, node: str) -> bool:
        """True when node has exactly one waypoint, so it never moves."""
        self._require(node)
        return len(self._waypoints[node]) == 1

    def position_at(self, node: str, t_us: int) -> tuple[float, float, float]:
        """Interpolated position; clamps to the first/last waypoint outside them."""
        self._require(node)
        seq = self._waypoints[node]
        times = self._times[node]
        idx = bisect_right(times, t_us) - 1
        if idx < 0:
            return seq[0].position
        if idx >= len(seq) - 1:
            return seq[-1].position
        a, b = seq[idx], seq[idx + 1]
        frac = (t_us - a.t_us) / (b.t_us - a.t_us)
        return (
            a.x_m + frac * (b.x_m - a.x_m),
            a.y_m + frac * (b.y_m - a.y_m),
            a.z_m + frac * (b.z_m - a.z_m),
        )

    def link_distance(self, a: str, b: str, t_us: int) -> float:
        """Euclidean distance in meters between two nodes at t_us."""
        ax, ay, az = self.position_at(a, t_us)
        bx, by, bz = self.position_at(b, t_us)
        return math.sqrt((ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2)

    def min_distance(self, a: str, b: str, t0_us: int, t1_us: int) -> float:
        """Smallest distance in meters between two nodes over [t0_us, t1_us].

        Between the merged waypoint times both positions are linear, so on
        each such segment the squared distance is a quadratic in time and its
        minimum has a closed form.
        """
        for node in (a, b):
            self._require(node)
        inner = {t for t in self._times[a] + self._times[b] if t0_us < t < t1_us}
        cuts = sorted(inner | {t0_us, t1_us})

        def offset(t_us: int) -> tuple[float, ...]:
            pa, pb = self.position_at(a, t_us), self.position_at(b, t_us)
            return tuple(x - y for x, y in zip(pa, pb))

        p = offset(cuts[0])
        best = math.hypot(*p)
        for t_us in cuts[1:]:
            q = offset(t_us)
            v = [y - x for x, y in zip(p, q)]
            vv = sum(c * c for c in v)
            if vv > 0.0:
                s = min(max(-sum(x * c for x, c in zip(p, v)) / vv, 0.0), 1.0)
                best = min(best, math.hypot(*(x + s * c for x, c in zip(p, v))))
            p = q
        return best

    def _require(self, node: str) -> None:
        if node not in self._waypoints:
            raise KeyError(f"no mobility data for node {node!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MobilityTrace):
            return NotImplemented
        return self._waypoints == other._waypoints


def parse_mobility(data: str | bytes) -> MobilityTrace:
    """Parse the canonical mobility CSV. Duplicate (node, t) pairs are errors."""
    per_node: dict[str, list[Waypoint]] = {}
    seen: set[tuple[str, int]] = set()
    for line_no, t_us, fields in _rows(data, MOBILITY_HEADER, 5, "waypoints"):
        node = _validate_node_id(line_no, fields[1])
        if (node, t_us) in seen:
            raise TraceFormatError(line_no, f"duplicate waypoint for {node!r} at {t_us} µs")
        seen.add((node, t_us))
        x = _parse_float(line_no, fields[2], "x_m")
        y = _parse_float(line_no, fields[3], "y_m")
        z = _parse_float(line_no, fields[4], "z_m")
        per_node.setdefault(node, []).append(Waypoint(t_us, x, y, z))
    for seq in per_node.values():
        seq.sort(key=lambda w: w.t_us)
    return MobilityTrace(per_node)


def load_mobility(path: str | Path) -> MobilityTrace:
    return parse_mobility(Path(path).read_bytes())
