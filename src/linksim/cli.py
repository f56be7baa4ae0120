"""Command-line surface: run scenarios, record traces, compare runs.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, metrics
from .record import replace
from .scenario import (ConfigError, execute_record, execute_run, parse_config)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="linksim",
                     description="Packet-level 802.11a link simulator with "
                                 "SNR trace replay and analytic propagation.")
    parser.add_argument("--version", action="version",
                        version=f"linksim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config")
    run.add_argument("config", type=Path)
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--duration", type=int, metavar="SECONDS",
                     help="override the simulated duration")
    run.add_argument("--out-dir", type=Path, help="override the output directory")

    rec = sub.add_parser("record-trace",
                         help="run an analytic scenario and record its "
                              "per-frame SNR samples")
    rec.add_argument("config", type=Path)
    rec.add_argument("-o", "--output", type=Path, required=True,
                     help="trace file to write")
    rec.add_argument("--seed", type=int)
    rec.add_argument("--duration", type=int, metavar="SECONDS")

    cmp_ = sub.add_parser("compare",
                          help="compare candidate series against a reference")
    cmp_.add_argument("--metric", choices=("throughput", "rtt"), required=True)
    cmp_.add_argument("--reference", type=Path, required=True)
    cmp_.add_argument("candidates", type=Path, nargs="+",
                      help="candidate series; the first is the run whose "
                           "accuracy gains are reported")
    cmp_.add_argument("--shift", action="append", default=[],
                      metavar="LABEL=SECONDS",
                      help="integer-second offset applied to the named series")
    cmp_.add_argument("--out-dir", type=Path, default=Path("comparison"))
    return parser


def _apply_overrides(cfg, args) -> tuple:
    overrides = {key: value for key, value in (("seed", args.seed),
                                               ("duration_s", args.duration))
                 if value is not None}
    return replace(cfg, **overrides), overrides


def _cmd_run(args) -> int:
    cfg, overrides = _apply_overrides(parse_config(args.config), args)
    out_dir = args.out_dir or cfg.out_dir or f"{args.config.stem}_out"
    run, _ = execute_run(cfg, out_dir, overrides=overrides)
    for flow in sorted(run.throughput):
        print(f"{flow}: {run.mean_throughput_mbps(flow):.2f} Mbit/s mean goodput")
    if run.rtt_samples:
        print(f"rtt: {len(run.rtt_samples)} samples, "
              f"min {run.min_rtt_us() / 1000.0:.3f} ms")
    print(f"artifacts written to {out_dir}")
    return 0


def _cmd_record(args) -> int:
    cfg, _ = _apply_overrides(parse_config(args.config), args)
    execute_record(cfg, args.output)
    print(f"trace written to {args.output}")
    return 0


def _parse_shifts(raw_shifts: list[str]) -> dict[str, int]:
    shifts = {}
    for item in raw_shifts:
        label, sep, seconds = item.partition("=")
        if not sep:
            raise ConfigError(f"--shift expects LABEL=SECONDS, got {item!r}")
        try:
            shifts[label] = int(seconds)
        except ValueError:
            raise ConfigError(f"--shift offset must be an integer: {item!r}") from None
    return shifts


def _cmd_compare(args) -> int:
    kind = (metrics.THROUGHPUT_KBPS if args.metric == "throughput"
            else metrics.RTT_MEDIAN_MS)
    shifts = _parse_shifts(args.shift)

    def load(path: Path) -> metrics.PerSecondSeries:
        try:
            series = metrics.PerSecondSeries.load(path)
        except OSError as exc:
            raise ConfigError(f"cannot read series {path}: {exc}") from None
        except ValueError as exc:   # a malformed row, or bytes not UTF-8
            raise ConfigError(f"{path}: {exc}") from None
        if series.label in shifts:
            series = series.shifted(shifts[series.label])
        return series

    reference = load(args.reference)
    candidates = [load(p) for p in args.candidates]
    unknown = set(shifts) - {s.label for s in (reference, *candidates)}
    if unknown:
        raise ConfigError(f"--shift names no loaded series: "
                          f"{', '.join(sorted(unknown))}")
    report = metrics.compare_runs(reference, candidates, metric_kind=kind)
    written = metrics.write_report(report, args.out_dir)
    sys.stdout.write(report.to_text())
    print(f"report written to {', '.join(str(p) for p in written)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:          # --help / --version
        return exc.code or 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "record-trace":
            return _cmd_record(args)
        return _cmd_compare(args)
    except ValueError as exc:   # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:    # OSError, or a fault inside the simulation
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
