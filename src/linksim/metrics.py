"""Per-second performance metrics, error measures, CDFs, and run comparison.

Throughput is binned by receive time as kbit/s per whole second; RTT is the
per-second median (lower middle for even counts) keyed by request send time,
with sample-less seconds absent rather than zero. Comparisons filter
zero-reference throughput seconds and RTT seconds missing from any run, then
report per-candidate error percentiles (nearest-rank), the mean, empirical
CDF points, and accuracy gains of the first candidate over the others.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager, suppress
from functools import reduce
from itertools import takewhile
from operator import add
from pathlib import Path
from typing import Iterable

from .record import Record

THROUGHPUT_KBPS = "throughput_kbps"
RTT_MEDIAN_MS = "rtt_median_ms"
KINDS = (THROUGHPUT_KBPS, RTT_MEDIAN_MS)

_LABEL_RE = re.compile(r"[A-Za-z0-9_.:>-]+\Z")


class PerSecondSeries(Record):
    """One run's per-second metric values, keyed by second index."""

    kind: str
    label: str
    values: dict[int, float] = {}

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if not _LABEL_RE.match(self.label):
            raise ValueError(f"invalid series label {self.label!r}")
        for second, value in self.values.items():
            if second < 0:
                raise ValueError(f"negative second index {second}")
            if not math.isfinite(value):
                raise ValueError(f"non-finite value at second {second}")

    def seconds(self) -> list[int]:
        return sorted(self.values)

    def shifted(self, offset_s: int) -> "PerSecondSeries":
        """Same series re-indexed by an integer-second offset."""
        return PerSecondSeries(self.kind, self.label, {
            s + offset_s: v for s, v in self.values.items() if s + offset_s >= 0
        })

    def to_csv(self) -> str:
        rows = [f"# label={self.label} kind={self.kind}", "second,value"]
        rows += [f"{s},{self.values[s]!r}" for s in self.seconds()]
        return "\n".join(rows) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "PerSecondSeries":
        lines = text.splitlines()
        if len(lines) < 2 or not lines[0].startswith("#"):
            raise ValueError("series file must start with a '# label=... kind=...' line")
        meta = dict(
            part.split("=", 1) for part in lines[0][1:].split() if "=" in part
        )
        if "label" not in meta or "kind" not in meta:
            raise ValueError("series header must carry label= and kind=")
        if lines[1].strip() != "second,value":
            raise ValueError("expected 'second,value' column header")
        values: dict[int, float] = {}
        for line_no, line in enumerate(lines[2:], start=3):
            if not line.strip():
                continue
            sec_s, _, val_s = line.partition(",")
            try:
                second, value = int(sec_s), float(val_s)
            except ValueError:
                raise ValueError(f"line {line_no}: malformed row {line!r}") from None
            if second in values:
                raise ValueError(f"line {line_no}: duplicate second {second}")
            values[second] = value
        return cls(meta["kind"], meta["label"], values)

    @classmethod
    def load(cls, path: str | Path) -> "PerSecondSeries":
        return cls.from_csv(Path(path).read_text(encoding="utf-8"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")


def throughput_series(rx_records: Iterable[tuple], duration_s: int,
                      label: str) -> PerSecondSeries:
    """kbit/s of delivered payload per whole second; empty seconds are 0."""
    bits = [0] * duration_s
    limit = duration_s * 1_000_000
    for record in rx_records:
        t_us, payload_bytes = record[0], record[1]
        if 0 <= t_us < limit:
            bits[t_us // 1_000_000] += 8 * payload_bytes
    return PerSecondSeries(THROUGHPUT_KBPS, label,
                           {s: b / 1000.0 for s, b in enumerate(bits)})


def rtt_median_series(samples: Iterable[tuple[int, int]], duration_s: int,
                      label: str) -> PerSecondSeries:
    """Per-second median RTT in ms, keyed by request send time.

    Seconds with no samples are absent. Even-count bins take the lower
    middle value.
    """
    bins: dict[int, list[int]] = {}
    limit = duration_s * 1_000_000
    for send_t_us, rtt_us in samples:
        if 0 <= send_t_us < limit:
            bins.setdefault(send_t_us // 1_000_000, []).append(rtt_us)
    values = {}
    for second, rtts in bins.items():
        rtts.sort()
        values[second] = rtts[(len(rtts) - 1) // 2] / 1000.0
    return PerSecondSeries(RTT_MEDIAN_MS, label, values)


def absolute_error(pm_i: float, pm_e: float) -> float:
    return abs(pm_i - pm_e)


def relative_error(pm_i: float, pm_e: float) -> float:
    """Percent error relative to the experimental value pm_e."""
    if pm_e == 0:
        raise ValueError(
            "filtered sample reached metric: zero-reference seconds must be "
            "discarded before computing relative error"
        )
    return abs(pm_i - pm_e) / pm_e * 100.0


def accuracy_gain(rel_err_ts: float, rel_err_ps: float) -> float:
    """Percent reduction of the trace-replay error versus a baseline error."""
    if rel_err_ps == 0:
        raise ValueError("accuracy gain undefined for zero baseline error")
    return (1.0 - rel_err_ts / rel_err_ps) * 100.0


def empirical_cdf(values: Iterable[float]) -> list[tuple[float, float]]:
    """Step CDF as (value, cumulative fraction) points, one per distinct value."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("empirical_cdf of empty input")
    n = len(ordered)
    points: list[tuple[float, float]] = []
    for i, v in enumerate(ordered, start=1):
        if points and points[-1][0] == v:
            points[-1] = (v, i / n)
        else:
            points.append((v, i / n))
    return points


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p*n)-th smallest value, p in (0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of empty input")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    n = len(ordered)
    rank = math.ceil(p * n - 1e-9)
    return ordered[max(rank, 1) - 1]


class CandidateResult(Record):
    label: str
    p90: float
    p50: float
    mean: float
    errors: list[float]
    cdf: list[tuple[float, float]]


class ComparisonReport(Record):
    metric_kind: str
    reference_label: str
    candidates: list[CandidateResult]
    gains: dict[str, dict[str, float | None]]   # baseline label -> stat -> gain
    kept_seconds: list[int]
    filtered_count: int
    total_seconds: int

    @property
    def filtered_fraction(self) -> float:
        return self.filtered_count / self.total_seconds

    def to_json(self) -> str:
        doc = {
            "metric_kind": self.metric_kind,
            "reference": self.reference_label,
            "error_unit": "%" if self.metric_kind == THROUGHPUT_KBPS else "ms",
            "samples_kept": len(self.kept_seconds),
            "samples_filtered": self.filtered_count,
            "filtered_fraction": self.filtered_fraction,
            "table": [
                {"run": c.label, "p90": c.p90, "p50": c.p50, "mean": c.mean}
                for c in self.candidates
            ],
            "accuracy_gain_of_first": self.gains,
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_text(self) -> str:
        unit = "%" if self.metric_kind == THROUGHPUT_KBPS else "ms"
        name = ("Throughput relative error"
                if self.metric_kind == THROUGHPUT_KBPS else "RTT absolute error")
        width = max(len(c.label) for c in self.candidates) + 2
        out = [f"{name} vs {self.reference_label} ({unit})",
               f"{'run':<{width}}{'90th':>10}{'50th':>10}{'mean':>10}"]
        for c in self.candidates:
            out.append(
                f"{c.label:<{width}}{c.p90:>10.2f}{c.p50:>10.2f}{c.mean:>10.2f}"
            )
        first = self.candidates[0].label
        for baseline, stats in self.gains.items():
            cells = ", ".join(
                f"{stat}: " + ("n/a" if g is None else f"{g:.1f}%")
                for stat, g in stats.items()
            )
            out.append(f"accuracy gain of {first} over {baseline}: {cells}")
        out.append(
            f"filtered {self.filtered_count}/{self.total_seconds} seconds "
            f"({100.0 * self.filtered_fraction:.2f}%)"
        )
        return "\n".join(out) + "\n"


def _cdf_csv(points: list[tuple[float, float]]) -> str:
    rows = ["value,fraction"]
    rows += [f"{v!r},{f!r}" for v, f in points]
    return "\n".join(rows) + "\n"


def compare_runs(reference: PerSecondSeries,
                 candidates: list[PerSecondSeries],
                 metric_kind: str | None = None) -> ComparisonReport:
    """Per-second error comparison of candidate runs against a reference.

    Throughput: seconds with zero reference value are discarded (of the
    reference's seconds). RTT: only seconds present in the reference and
    every candidate are kept (of the union of all runs' seconds). The first
    candidate is the one whose accuracy gains over each remaining candidate
    are reported, computed from the percentile-table entries.
    """
    if not candidates:
        raise ValueError("at least one candidate series required")
    kind = metric_kind or reference.kind
    for series in [reference, *candidates]:
        if series.kind != kind:
            raise ValueError(
                f"metric kind mismatch: {series.label} is {series.kind}, "
                f"expected {kind}"
            )
    labels = [c.label for c in candidates]
    if len(set(labels)) != len(labels) or reference.label in labels:
        raise ValueError("series labels must be unique")

    if kind == THROUGHPUT_KBPS:
        domain = sorted(reference.values)
        kept = [
            s for s in domain
            if reference.values[s] != 0 and all(s in c.values for c in candidates)
        ]
    else:
        union: set[int] = set(reference.values)
        for c in candidates:
            union |= set(c.values)
        domain = sorted(union)
        kept = [
            s for s in domain
            if s in reference.values and all(s in c.values for c in candidates)
        ]
    if not kept:
        raise ValueError("no overlapping seconds left after filtering")

    error_fn = relative_error if kind == THROUGHPUT_KBPS else absolute_error
    results = []
    for c in candidates:
        errors = [error_fn(c.values[s], reference.values[s]) for s in kept]
        results.append(CandidateResult(
            label=c.label,
            p90=percentile(errors, 0.9),
            p50=percentile(errors, 0.5),
            # left to right, as sum() did before CPython 3.12 compensated it
            mean=reduce(add, errors, 0) / len(errors),
            errors=errors,
            cdf=empirical_cdf(errors),
        ))

    first = results[0]
    gains: dict[str, dict[str, float | None]] = {}
    for baseline in results[1:]:
        gains[baseline.label] = {
            stat: (None if getattr(baseline, stat) == 0
                   else accuracy_gain(getattr(first, stat), getattr(baseline, stat)))
            for stat in ("p90", "p50", "mean")
        }
    return ComparisonReport(
        metric_kind=kind,
        reference_label=reference.label,
        candidates=results,
        gains=gains,
        kept_seconds=kept,
        filtered_count=len(domain) - len(kept),
        total_seconds=len(domain),
    )


def write_report(report: ComparisonReport, out_dir: str | Path) -> list[Path]:
    """Write report.json, report.txt, and one CDF CSV per candidate.

    They appear together once every write has completed (see ``staged``).
    Then the CDFs of an earlier report in out_dir that this one does not
    write are removed, by the names its report.json lists.
    """
    out = Path(out_dir)
    files = {"report.json": report.to_json(), "report.txt": report.to_text()}
    for c in report.candidates:
        files[f"cdf_{c.label}.csv"] = _cdf_csv(c.cdf)
    try:
        earlier = json.loads((out / "report.json").read_text(encoding="utf-8"))
        stale = {f"cdf_{row['run']}.csv" for row in earlier["table"]}
    except (OSError, ValueError, LookupError, TypeError):
        stale = set()   # no earlier report, or none that this wrote
    with staged(out) as stage:
        for name, text in files.items():
            stage(name).write_text(text, encoding="utf-8")
    for name in stale - files.keys():
        if (out / name).parent == out:   # never a path outside out_dir
            (out / name).unlink(missing_ok=True)
    return [out / name for name in files]


@contextmanager
def staged(directory: Path):
    """Yield stage(name), the temp path in directory that stands for name.

    When the block completes, each staged file is renamed to its name in the
    order it was staged. When the block raises, none is: the temp files are
    removed, with the directories made here for them, so a failed run or
    report leaves no partial file, and the files that an earlier one left in
    directory stay as they were. Run artifacts and reports both go through
    this, which lives here because ``scenario`` imports this module.
    """
    made = list(takewhile(lambda d: not d.exists(),
                          (directory, *directory.parents)))
    directory.mkdir(parents=True, exist_ok=True)
    pending: list[tuple[Path, Path]] = []

    def stage(name: str) -> Path:
        tmp = directory / (name + ".tmp")
        pending.append((tmp, directory / name))
        return tmp

    try:
        yield stage
    except BaseException:
        for tmp, _ in pending:
            tmp.unlink(missing_ok=True)
        with suppress(OSError):     # one that something else wrote into stays
            for made_dir in made:   # deepest first
                made_dir.rmdir()
        raise
    for tmp, path in pending:
        tmp.replace(path)
