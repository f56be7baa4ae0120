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


@dataclass(frozen=True)
class DirectedLink:
    """One direction of a radio link; (A,B) and (B,A) are distinct keys."""

    tx: str
    rx: str

    def __post_init__(self) -> None:
        if self.tx == self.rx:
            raise ValueError(f"link endpoints must differ, got {self.tx!r} twice")

    def __str__(self) -> str:
        return f"{self.tx}->{self.rx}"


@dataclass(frozen=True)
class SnrSample:
    t_us: int
    snr_db: float


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


def _parse_int(line_no: int, field: str, what: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise TraceFormatError(line_no, f"malformed {what}: {field!r}") from None


def _parse_float(line_no: int, field: str, what: str) -> float:
    try:
        value = float(field)
    except ValueError:
        raise TraceFormatError(line_no, f"malformed {what}: {field!r}") from None
    if not math.isfinite(value):
        raise TraceFormatError(line_no, f"non-finite {what}: {field!r}")
    return value


def _lines(data: str | bytes) -> list[str]:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data.splitlines()


class SnrTrace:
    """Per-frame receiver SNR samples keyed by directed link.

    Lookups hold the last observed value; queries before the first sample
    clamp to it. Instances are immutable after construction.
    """

    def __init__(self, samples: dict[DirectedLink, list[SnrSample]]):
        if not samples:
            raise ValueError("trace must contain at least one link")
        self._times: dict[DirectedLink, list[int]] = {}
        self._values: dict[DirectedLink, list[float]] = {}
        for link, seq in samples.items():
            if not seq:
                raise ValueError(f"link {link} has no samples")
            times = [s.t_us for s in seq]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError(f"link {link} samples not strictly increasing")
            self._times[link] = times
            self._values[link] = [s.snr_db for s in seq]

    def links(self) -> list[DirectedLink]:
        return list(self._times)

    def samples(self, link: DirectedLink) -> list[SnrSample]:
        self._require(link)
        return [
            SnrSample(t, v)
            for t, v in zip(self._times[link], self._values[link])
        ]

    def snr_at(self, link: DirectedLink, t_us: int) -> float:
        """SNR in dB at t_us: last sample at or before t_us, clamped to the first."""
        self._require(link)
        idx = bisect_right(self._times[link], t_us) - 1
        return self._values[link][max(idx, 0)]

    def max_gap_us(self, link: DirectedLink) -> int:
        self._require(link)
        times = self._times[link]
        if len(times) < 2:
            return 0
        return max(b - a for a, b in zip(times, times[1:]))

    def _require(self, link: DirectedLink) -> None:
        if link not in self._times:
            raise KeyError(f"no trace for link {link}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SnrTrace):
            return NotImplemented
        return self._times == other._times and self._values == other._values


def parse_snr_trace(data: str | bytes, gap_warning_s: float = 1.0) -> SnrTrace:
    """Parse the canonical SNR trace CSV.

    Duplicate timestamps on one link collapse to the last occurrence in file
    order. Per-link gaps longer than gap_warning_s trigger a logged warning
    (hold-last lookup still applies across the gap).
    """
    lines = _lines(data)
    if not lines:
        raise TraceFormatError(1, "empty file")
    if lines[0].strip() != SNR_HEADER:
        raise TraceFormatError(1, f"expected header {SNR_HEADER!r}")
    # (t, file order) per link, so last-wins collapse is well defined
    raw: dict[DirectedLink, list[tuple[int, int, float]]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 4:
            raise TraceFormatError(line_no, f"expected 4 fields, got {len(fields)}")
        t_us = _parse_int(line_no, fields[0], "timestamp")
        if t_us < 0:
            raise TraceFormatError(line_no, f"negative timestamp: {t_us}")
        tx = _validate_node_id(line_no, fields[1])
        rx = _validate_node_id(line_no, fields[2])
        if tx == rx:
            raise TraceFormatError(line_no, f"tx equals rx: {tx!r}")
        snr_db = _parse_float(line_no, fields[3], "snr_db")
        raw.setdefault(DirectedLink(tx, rx), []).append((t_us, line_no, snr_db))
    if not raw:
        raise TraceFormatError(len(lines), "no samples in file")
    samples: dict[DirectedLink, list[SnrSample]] = {}
    for link, rows in raw.items():
        rows.sort()
        collapsed: list[SnrSample] = []
        for t_us, _, snr_db in rows:
            if collapsed and collapsed[-1].t_us == t_us:
                collapsed[-1] = SnrSample(t_us, snr_db)
            else:
                collapsed.append(SnrSample(t_us, snr_db))
        samples[link] = collapsed
    trace = SnrTrace(samples)
    gap_limit = int(gap_warning_s * 1_000_000)
    for link in trace.links():
        gap = trace.max_gap_us(link)
        if gap > gap_limit:
            logger.warning(
                "link %s has a %.3f s sample gap (hold-last applies)",
                link, gap / 1e6,
            )
    return trace


def serialize_snr_trace(trace: SnrTrace) -> str:
    """Canonical CSV form; parse(serialize(t)) == t bit-exactly."""
    out = [SNR_HEADER]
    for link in sorted(trace.links(), key=lambda l: (l.tx, l.rx)):
        for s in trace.samples(link):
            out.append(f"{s.t_us},{link.tx},{link.rx},{s.snr_db!r}")
    return "\n".join(out) + "\n"


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

    def waypoints(self, node: str) -> list[Waypoint]:
        self._require(node)
        return list(self._waypoints[node])

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

    def _require(self, node: str) -> None:
        if node not in self._waypoints:
            raise KeyError(f"no mobility data for node {node!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MobilityTrace):
            return NotImplemented
        return self._waypoints == other._waypoints


def parse_mobility(data: str | bytes) -> MobilityTrace:
    """Parse the canonical mobility CSV. Duplicate (node, t) pairs are errors."""
    lines = _lines(data)
    if not lines:
        raise TraceFormatError(1, "empty file")
    if lines[0].strip() != MOBILITY_HEADER:
        raise TraceFormatError(1, f"expected header {MOBILITY_HEADER!r}")
    per_node: dict[str, list[Waypoint]] = {}
    seen: set[tuple[str, int]] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 5:
            raise TraceFormatError(line_no, f"expected 5 fields, got {len(fields)}")
        t_us = _parse_int(line_no, fields[0], "timestamp")
        if t_us < 0:
            raise TraceFormatError(line_no, f"negative timestamp: {t_us}")
        node = _validate_node_id(line_no, fields[1])
        if (node, t_us) in seen:
            raise TraceFormatError(line_no, f"duplicate waypoint for {node!r} at {t_us} µs")
        seen.add((node, t_us))
        x = _parse_float(line_no, fields[2], "x_m")
        y = _parse_float(line_no, fields[3], "y_m")
        z = _parse_float(line_no, fields[4], "z_m")
        per_node.setdefault(node, []).append(Waypoint(t_us, x, y, z))
    if not per_node:
        raise TraceFormatError(len(lines), "no waypoints in file")
    for seq in per_node.values():
        seq.sort(key=lambda w: w.t_us)
    return MobilityTrace(per_node)


def serialize_mobility(trace: MobilityTrace) -> str:
    out = [MOBILITY_HEADER]
    for node in sorted(trace.nodes()):
        for w in trace.waypoints(node):
            out.append(f"{w.t_us},{node},{w.x_m!r},{w.y_m!r},{w.z_m!r}")
    return "\n".join(out) + "\n"


def load_mobility(path: str | Path) -> MobilityTrace:
    return parse_mobility(Path(path).read_bytes())
