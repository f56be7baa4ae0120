"""Scenario configuration, simulation assembly, and run artifacts.

A scenario is described by an INI-style config file (sections: scenario,
nodes, radio, propagation, traffic, mac). Runs write per-second series CSVs,
an optional packet-level event log, a summary, and a manifest embedding the
exact config text so any run can be reproduced bit-for-bit.

Parsing checks the text: syntax, sections, keys and that each value parses.
``build`` checks every value, of a parsed config or one made in code, and a
bad value raises ConfigError from it before a run writes its first file.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import os
from functools import reduce
from operator import add
from pathlib import Path
from typing import Callable

from . import __version__, metrics, phy, traces
from .channel import (FRIIS, LOGDIST, TRACE, Channel, PropagationSpec,
                      RadioParams, check_real, dbm_to_w, mean_rx_power_dbm)
from .engine import EventQueue, RngStream, sha256
from .mac import DcfParams, FixedRate, Minstrel, StationStats, \
    build_point_to_point
from .record import Record, replace
from .traces import DirectedLink, MobilityTrace, TraceCsvRecorder
from .traffic import PingApp, PingConfig, UdpFlowConfig, UdpSink, UdpSource

PING = "ping"
UDP_UNI = "udp_uni"
UDP_BIDI = "udp_bidi"


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


class ScenarioConfig(Record):
    duration_s: int = 300
    seed: int = 1
    log_events: bool = True
    out_dir: str | None = None
    # topology: static positions or a mobility file (exactly one source)
    nodes: dict[str, tuple[float, float, float]] | None = None
    mobility_file: Path | None = None
    # propagation: None is unset; _MODEL_FIELDS says what each model admits
    model: str = FRIIS
    trace_file: Path | None = None    # model = trace: its only SNR source
    gamma: float | None = None
    ref_distance_m: float | None = None   # None: 1 m
    nakagami_m: float | None = None   # None: no fading
    radio: RadioParams = RadioParams()
    # traffic
    traffic_kind: str = UDP_UNI
    src: str = "Master"
    dst: str = "ClientA"
    payload_bytes: int = 1472
    offered_load_bps: float = 54e6
    interval_us: int = 100_000
    start_us: int = 0
    stop_us: int | None = None
    processing_delay_us: int = 0
    # mac
    rate_control: str = "minstrel"
    fixed_mode_mbps: int = 54
    queue_capacity: int = 500
    retry_limit: int = 7
    # provenance (filled by the parser, used by manifests)
    config_text: str | None = None
    base_dir: Path | None = None

    def validate(self) -> None:
        """Check the type of every value first, as the text path parses it
        (see ``_SCHEMA``), then the rules that no part of the run owns."""
        for name, to in _SCHEMA.values():
            value = getattr(self, name)
            if value is None and self._defaults[name] is None:   # unset
                continue
            if name == "radio":   # RadioParams checks its own values
                if not isinstance(value, RadioParams):
                    raise ConfigError(f"radio must be a RadioParams, got "
                                      f"{value!r}")
            elif to is float:
                check_real(name, value)
            elif to is str and not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
            elif to is Path and not isinstance(value, (str, os.PathLike)):
                raise ConfigError(f"{name} must be a path, got {value!r}")
            elif to in (int, _seconds_to_us) and type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            elif to is _bool and type(value) is not bool:
                raise ConfigError(f"{name} must be a bool, got {value!r}")
        if self.nodes is not None and not isinstance(self.nodes, dict):
            raise ConfigError(f"nodes must be a dict of positions, got "
                              f"{self.nodes!r}")
        for node, position in (self.nodes or {}).items():
            # a node id names series labels and trace rows: the trace id set
            if not (isinstance(node, str) and traces._NODE_ID_RE.match(node)):
                raise ConfigError(f"[nodes] invalid node id {node!r} "
                                  f"(allowed: letters, digits, _.-)")
            if not isinstance(position, (tuple, list)) or len(position) != 3:
                raise ConfigError(f"[nodes] {node}: expected (x, y, z), got "
                                  f"{position!r}")
            for axis, coordinate in zip("xyz", position):
                check_real(f"[nodes] {node} {axis}", coordinate)
        if self.model not in _MODEL_FIELDS:
            raise ConfigError(f"[propagation] unknown model {self.model!r}")
        admitted, required = _MODEL_FIELDS[self.model]
        for (section, key), (name, _) in _SCHEMA.items():
            if (section == "propagation" and name not in admitted
                    and getattr(self, name) is not None):
                raise ConfigError(f"[propagation] key {key!r} not valid for "
                                  f"model {self.model!r}")
        if required is not None and getattr(self, required) is None:
            raise ConfigError(f"[propagation] {self.model} model requires "
                              f"{required}")
        if not self.duration_s > 0:
            raise ConfigError("duration_s must be > 0")
        if self.nodes is not None and self.mobility_file is not None:
            raise ConfigError("[nodes] cannot mix mobility_file with positions")
        if self.nodes is None and self.mobility_file is None:
            raise ConfigError("[nodes] must define positions or mobility_file")
        stop_us = self.start_us if self.stop_us is None else self.stop_us
        if not 0 <= self.start_us <= stop_us:
            raise ConfigError("traffic window must satisfy 0 <= start <= stop")
        if self.processing_delay_us < 0:
            raise ConfigError("processing_delay_us must be >= 0")


def _bool(raw: str) -> bool:
    value = raw.lower()
    if value in ("true", "yes", "on", "1"):
        return True
    if value in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


def _seconds_to_us(raw: str) -> int:
    return int(float(raw) * 1e6 + 0.5)


# (section, key) -> (ScenarioConfig field, converter from the raw string).
# [radio] keys are RadioParams fields, collected into one RadioParams.
# [nodes] also takes free-form "name = x,y,z" positions.
_SCHEMA: dict[tuple[str, str], tuple[str, Callable[[str], object]]] = {
    ("scenario", "duration_s"): ("duration_s", int),
    ("scenario", "seed"): ("seed", int),
    ("scenario", "log_events"): ("log_events", _bool),
    ("scenario", "out_dir"): ("out_dir", str),
    ("nodes", "mobility_file"): ("mobility_file", Path),
    ("radio", "tx_power_dbm"): ("radio", float),
    ("radio", "rf_gain_db_per_end"): ("radio", float),
    ("radio", "bandwidth_hz"): ("radio", float),
    ("radio", "center_freq_hz"): ("radio", float),
    ("radio", "noise_figure_db"): ("radio", float),
    ("propagation", "model"): ("model", str),
    ("propagation", "trace_file"): ("trace_file", Path),
    ("propagation", "gamma"): ("gamma", float),
    ("propagation", "ref_distance_m"): ("ref_distance_m", float),
    ("propagation", "nakagami_m"): ("nakagami_m", float),
    ("traffic", "kind"): ("traffic_kind", str),
    ("traffic", "src"): ("src", str),
    ("traffic", "dst"): ("dst", str),
    ("traffic", "payload_bytes"): ("payload_bytes", int),
    ("traffic", "offered_load_bps"): ("offered_load_bps", float),
    ("traffic", "interval_us"): ("interval_us", int),
    ("traffic", "start_s"): ("start_us", _seconds_to_us),
    ("traffic", "stop_s"): ("stop_us", _seconds_to_us),
    ("traffic", "processing_delay_us"): ("processing_delay_us", int),
    ("mac", "rate_control"): ("rate_control", str),
    ("mac", "fixed_mode_mbps"): ("fixed_mode_mbps", int),
    ("mac", "queue_capacity"): ("queue_capacity", int),
    ("mac", "retry_limit"): ("retry_limit", int),
}
_SECTIONS = {section for section, _ in _SCHEMA}
_REQUIRED = (("propagation", "model"), ("traffic", "kind"),
             ("traffic", "src"), ("traffic", "dst"))

# The propagation fields each model admits, and the one it requires: the one
# statement of these rules, which validate applies on both paths. A field is
# named as its [propagation] key.
_MODEL_FIELDS = {
    TRACE: ({"model", "trace_file"}, "trace_file"),
    FRIIS: ({"model", "nakagami_m"}, None),
    LOGDIST: ({"model", "gamma", "ref_distance_m", "nakagami_m"}, "gamma"),
}


def _convert(section: str, key: str, raw: str, to: Callable):
    try:
        return to(raw)
    except (ValueError, OverflowError):   # int() of an infinite number of µs
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None


def parse_config_text(text: str, base_dir: Path | None = None) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    parser.optionxform = str   # node names are case sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    for section, key in _REQUIRED:
        if not parser.has_option(section, key):
            raise ConfigError(f"[{section}] must set {key}")

    cfg = ScenarioConfig(config_text=text, base_dir=base_dir)
    radio: dict[str, float] = {}
    positions: dict[str, tuple[float, float, float]] = {}
    for section in parser.sections():
        for key, raw in parser[section].items():
            if (section, key) not in _SCHEMA:
                if section != "nodes":
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                parts = raw.split(",")
                if len(parts) != 3:
                    raise ConfigError(f"[nodes] {key}: expected 'x,y,z', got {raw!r}")
                positions[key] = tuple(
                    _convert("nodes", key, p.strip(), float) for p in parts
                )
                continue
            name, to = _SCHEMA[section, key]
            value = _convert(section, key, raw, to)
            if isinstance(value, Path) and base_dir is not None:
                value = base_dir / value     # an absolute value stays as is
            if name == "radio":
                radio[key] = value
            else:
                setattr(cfg, name, value)

    cfg.nodes = positions or None
    try:
        cfg.radio = RadioParams(**radio)
    except ValueError as exc:
        raise ConfigError(f"[radio]: {exc}") from None
    return cfg


def parse_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:   # bytes that are not UTF-8
        raise ConfigError(f"{path}: {exc}") from None
    return parse_config_text(text, base_dir=path.parent)


class _LinkNames(dict):
    """str(link) per link, formatted at its first row only."""

    def __missing__(self, link: DirectedLink) -> str:
        name = self[link] = str(link)
        return name


class CsvEventLog:
    """Streams the packet-level event log as CSV rows."""

    HEADER = "t_us,node,event,kind,link,mode_mbps,seq,attempt,dur_us,snr_db,outcome"

    def __init__(self, fh: io.TextIOBase):
        self._write = fh.write
        self._links = _LinkNames()
        self._write(self.HEADER + "\n")

    def tx(self, t, node, kind, link, mode_mbps, seq, attempt, dur_us):
        self._write(f"{t},{node},tx,{kind},{self._links[link]},{mode_mbps},"
                    f"{seq},{attempt},{dur_us},,\n")

    def rx(self, t, node, kind, link, mode_mbps, seq, attempt, snr_db, outcome):
        self._write(f"{t},{node},rx,{kind},{self._links[link]},{mode_mbps},"
                    f"{seq},{attempt},,"
                    f"{'' if snr_db is None else repr(snr_db)},{outcome}\n")

    def drop(self, t, node, seq, attempts, reason):
        self._write(f"{t},{node},drop,data,,,{seq},{attempts},,,{reason}\n")


class SimRun(Record):
    """Results of one simulation execution."""

    seed: int
    duration_s: int
    throughput: dict[str, metrics.PerSecondSeries]
    rtt: metrics.PerSecondSeries | None
    rtt_samples: list[tuple[int, int]]
    stats: dict[str, StationStats]

    def mean_throughput_mbps(self, flow: str) -> float:
        series = self.throughput[flow]
        if not series.values:
            return 0.0
        # left to right, as sum() did before CPython 3.12 compensated it
        total = reduce(add, series.values.values(), 0)
        return total / len(series.values) / 1000.0

    def min_rtt_us(self) -> int | None:
        if not self.rtt_samples:
            return None
        return min(rtt for _, rtt in self.rtt_samples)


class BuiltRun(Record):
    """Every part of one run that a config error can stop, built up front."""

    cfg: ScenarioConfig
    spec: PropagationSpec
    mobility: MobilityTrace
    dcf: DcfParams
    rate_control: Callable[[str], object]
    udp_flows: list[UdpFlowConfig]
    ping: PingConfig | None
    inputs: dict[str, str]      # str(path) -> sha256 of each file parsed


def build(cfg: ScenarioConfig) -> BuiltRun:
    """Check cfg, load its input files and construct each part of the run.

    Every value is checked here once, by ``validate`` or by the part of the
    run that owns it. Writes nothing, so a run that fails here leaves no
    artifact behind.
    """
    try:
        cfg.validate()
        return _construct(cfg)
    except ValueError as exc:   # from a part, or a ConfigError: same message
        raise ConfigError(str(exc)) from None


def _construct(cfg: ScenarioConfig) -> BuiltRun:
    inputs: dict[str, str] = {}     # in load order, as manifests list them
    trace = None
    if cfg.trace_file is not None:   # set with model = trace only
        trace = _load(cfg.trace_file, traces.read_snr_trace, inputs)
    if cfg.mobility_file is not None:
        mobility = _load(cfg.mobility_file, traces.read_mobility, inputs)
    else:
        mobility = MobilityTrace.static(cfg.nodes)
    for node in (cfg.src, cfg.dst):
        if node not in mobility.nodes():
            raise ConfigError(f"traffic endpoint {node!r} not in [nodes]")
    analytic = {name: getattr(cfg, name)   # unset: the spec's default
                for name in ("gamma", "ref_distance_m", "nakagami_m")
                if getattr(cfg, name) is not None}
    spec = PropagationSpec(cfg.model, trace, **analytic)
    run_end_us = cfg.duration_s * 1_000_000
    # data goes one way and ACKs the other, so both directions are used
    for link in (DirectedLink(cfg.src, cfg.dst), DirectedLink(cfg.dst, cfg.src)):
        if trace is not None:
            if link not in trace.links():
                raise ConfigError(f"SNR trace has no samples for link {link}")
        else:   # the path loss model must admit every distance
            try:
                # the budget is monotone in distance, so its extremes bound it
                for d_m in mobility.distance_range(link.tx, link.rx, 0,
                                                   run_end_us):
                    rx_dbm = mean_rx_power_dbm(spec, cfg.radio, d_m)
                    if not math.isfinite(rx_dbm):
                        raise OverflowError
                    if cfg.nakagami_m is not None:   # fading draws on watts
                        dbm_to_w(rx_dbm)
            except ValueError as exc:
                raise ConfigError(f"link {link}: {exc}") from None
            except OverflowError:
                raise ConfigError(f"link {link}: mean received power "
                                  f"{rx_dbm} dBm overflows") from None
    dcf = DcfParams(queue_capacity=cfg.queue_capacity,
                    retry_limit=cfg.retry_limit)

    fixed_mode = phy.mode_for_rate(cfg.fixed_mode_mbps)
    if cfg.rate_control == "minstrel":
        def rate_control(node: str):
            return Minstrel(RngStream(cfg.seed, f"minstrel.{node}"))
    elif cfg.rate_control == "fixed":
        def rate_control(node: str):
            return FixedRate(fixed_mode)
    else:
        raise ConfigError(f"unknown rate_control {cfg.rate_control!r}")

    end_us = run_end_us
    if cfg.stop_us is not None:
        end_us = min(cfg.stop_us, end_us)
    window = dict(payload_bytes=cfg.payload_bytes, start_us=cfg.start_us,
                  stop_us=end_us)
    udp_flows = []
    ping = None
    if cfg.traffic_kind == PING:
        ping = PingConfig(cfg.src, cfg.dst, interval_us=cfg.interval_us,
                          **window)
    elif cfg.traffic_kind in (UDP_UNI, UDP_BIDI):
        directions = [(cfg.src, cfg.dst)]
        if cfg.traffic_kind == UDP_BIDI:
            directions.append((cfg.dst, cfg.src))
        udp_flows = [
            UdpFlowConfig(src, dst, offered_load_bps=cfg.offered_load_bps,
                          **window)
            for src, dst in directions
        ]
    else:
        raise ConfigError(f"unknown traffic kind {cfg.traffic_kind!r}")
    return BuiltRun(cfg, spec, mobility, dcf, rate_control, udp_flows, ping,
                    inputs)


def _load(path: Path, read, inputs: dict[str, str]):
    """read(path opened in binary, a hash), keeping the file's sha256 in inputs.

    read streams the file once, passing each chunk it reads to the hash as
    it parses it, so the run's manifest certifies the bytes the run parsed
    while the file is never held whole. A missing, unreadable or malformed
    file stops the run with a ConfigError that names it. read is passed as
    ``traces.read_*``, looked up at each load, so a wrapper set on the
    module sees every load.
    """
    digest = sha256()
    try:
        with open(path, "rb") as fh:
            loaded = read(fh, digest.update)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    inputs[str(path)] = digest.hexdigest()
    return loaded


def simulate(built: BuiltRun, event_log=None) -> SimRun:
    """Execute one built simulation instance, returning its metrics."""
    cfg = built.cfg
    # a fresh channel per run, so one built run simulates the same each time
    channel = Channel(built.spec, cfg.radio, built.mobility, cfg.seed)
    engine = EventQueue()
    st_src, st_dst = build_point_to_point(
        engine, channel, built.dcf, cfg.seed, cfg.src, cfg.dst,
        rate_control_factory=built.rate_control, event_log=event_log)
    stations = {st.node: st for st in (st_src, st_dst)}
    sinks: dict[str, UdpSink] = {}
    ping_app = None
    if built.ping is not None:
        ping_app = PingApp(engine, st_src, st_dst, built.ping,
                           flow=f"ping.{cfg.src}->{cfg.dst}",
                           processing_delay_us=cfg.processing_delay_us)
    for flow_cfg in built.udp_flows:
        flow = f"udp.{flow_cfg.src}->{flow_cfg.dst}"
        UdpSource(engine, stations[flow_cfg.src], flow_cfg, flow)
        sinks[flow] = UdpSink(stations[flow_cfg.dst], flow, cfg.duration_s,
                              processing_delay_us=cfg.processing_delay_us)

    engine.run_until(cfg.duration_s * 1_000_000)

    throughput = {
        flow: metrics.throughput_series(sink.bytes_per_s, _label(flow))
        for flow, sink in sinks.items()
    }
    rtt_series = None
    rtt_samples: list[tuple[int, int]] = []
    if ping_app is not None:
        rtt_samples = ping_app.samples
        rtt_series = metrics.rtt_median_series(
            rtt_samples, cfg.duration_s, _label(f"ping.{cfg.src}->{cfg.dst}")
        )
    return SimRun(
        seed=cfg.seed, duration_s=cfg.duration_s, throughput=throughput,
        rtt=rtt_series, rtt_samples=rtt_samples,
        stats={st.node: st.stats for st in (st_src, st_dst)},
    )


def _label(flow: str) -> str:
    return flow.replace("->", ">")


def _file_label(flow: str) -> str:
    return flow.replace("udp.", "").replace("ping.", "").replace("->", "_to_")


def execute_run(cfg: ScenarioConfig, out_dir: str | Path,
                overrides: dict | None = None) -> tuple[SimRun, dict]:
    """Run a scenario and write its artifacts; returns (run, manifest).

    Every artifact appears at once, manifest last, when the run and all its
    writes have completed; a run that raises leaves none of them (see
    ``metrics.staged``).
    """
    built = build(cfg)
    outputs: list[str] = []
    with metrics.staged(Path(out_dir)) as stage:
        if cfg.log_events:
            with open(stage("events.csv"), "w", encoding="utf-8",
                      newline="") as fh:
                run = simulate(built, event_log=CsvEventLog(fh))
            outputs.append("events.csv")
        else:
            run = simulate(built)

        for flow, series in run.throughput.items():
            name = f"throughput_{_file_label(flow)}.csv"
            series.save(stage(name))
            outputs.append(name)
        if run.rtt is not None:
            name = f"rtt_{_file_label(f'{cfg.src}->{cfg.dst}')}.csv"
            run.rtt.save(stage(name))
            outputs.append(name)

        summary = {
            "seed": cfg.seed,
            "duration_s": cfg.duration_s,
            "mean_throughput_mbps": {
                flow: run.mean_throughput_mbps(flow) for flow in run.throughput
            },
            "min_rtt_us": run.min_rtt_us(),
            "rtt_samples": len(run.rtt_samples),
            "stations": {
                node: vars(st) for node, st in run.stats.items()
            },
        }
        stage("summary.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        outputs.append("summary.json")

        manifest = {
            "version": __version__,
            "seed": cfg.seed,
            "duration_s": cfg.duration_s,
            "overrides": overrides or {},
            "base_dir": str(cfg.base_dir) if cfg.base_dir else None,
            "config_sha256": sha256(
                (cfg.config_text or "").encode("utf-8")
            ).hexdigest(),
            "config_text": cfg.config_text,
            "inputs": built.inputs,
            "outputs": outputs,
        }
        stage("manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return run, manifest


def execute_record(cfg: ScenarioConfig, out_file: str | Path) -> SimRun:
    """Run a scenario while recording per-reception SNR samples: a replay
    records the SNRs its frames saw."""
    built = build(cfg)
    path = Path(out_file)
    with metrics.staged(path.parent) as stage:
        with open(stage(path.name), "w", encoding="utf-8", newline="") as fh:
            run = simulate(built, event_log=TraceCsvRecorder(fh))
    return run


def rerun_from_manifest(manifest_path: str | Path,
                        out_dir: str | Path) -> tuple[SimRun, dict]:
    """Reproduce a run from its manifest's embedded config."""
    doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    if not doc.get("config_text"):
        raise ConfigError("manifest carries no embedded config text")
    base = Path(doc["base_dir"]) if doc.get("base_dir") else None
    overrides = doc.get("overrides", {})
    cfg = replace(parse_config_text(doc["config_text"], base_dir=base),
                  **overrides)
    return execute_run(cfg, out_dir, overrides=overrides)
