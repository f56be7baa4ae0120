"""Scenario configs, run artifacts, reproducibility, and the CLI surface."""

import errno
import hashlib
import io
import json
import math
import os
import random
import re
from pathlib import Path

import pytest

from linksim import cli, scenario
from linksim.channel import Channel, PropagationSpec
from linksim.metrics import PerSecondSeries
from linksim.record import replace
from linksim.scenario import (_MODEL_FIELDS, _SCHEMA, ConfigError,
                              CsvEventLog, ScenarioConfig, build,
                              execute_record, execute_run, parse_config,
                              parse_config_text, rerun_from_manifest, simulate)
from linksim.traces import parse_snr_trace


BASE = """
[scenario]
duration_s = 2
seed = 7

[nodes]
Master = 0,0,0
ClientA = 6,0,0

[propagation]
model = friis

[traffic]
kind = udp_uni
src = Master
dst = ClientA
"""

PING = """
[scenario]
duration_s = 2
seed = 3

[nodes]
Master = 0,0,0
ClientA = 6,0,0

[propagation]
model = friis

[traffic]
kind = ping
src = Master
dst = ClientA
"""


def write_config(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def trace_config(tmp_path, trace_text, extra="", duration_s=2, seed=7,
                 kind="udp_uni", name="trace_scn.ini"):
    trace_path = tmp_path / "link.csv"
    trace_path.write_text(trace_text, encoding="utf-8")
    text = f"""
[scenario]
duration_s = {duration_s}
seed = {seed}

[nodes]
Master = 0,0,0
ClientA = 6,0,0

[propagation]
model = trace
trace_file = link.csv

[traffic]
kind = {kind}
src = Master
dst = ClientA
{extra}
"""
    return write_config(tmp_path, text, name)


CONST_35 = "t_us,tx,rx,snr_db\n0,Master,ClientA,35.0\n0,ClientA,Master,35.0\n"
ONE_WAY_35 = "t_us,tx,rx,snr_db\n0,Master,ClientA,35.0\n"
REPO = Path(__file__).resolve().parent.parent


# -- config parsing ----------------------------------------------------------


def test_parse_defaults():
    cfg = parse_config_text(BASE)
    assert cfg.duration_s == 2 and cfg.seed == 7
    assert cfg.model == "friis" and cfg.rate_control == "minstrel"
    assert cfg.rf_gain_db_per_end is None   # unset: PropagationSpec's -7 dB
    assert cfg.payload_bytes == 1472
    assert cfg.nodes == {"Master": (0.0, 0.0, 0.0), "ClientA": (6.0, 0.0, 0.0)}


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text(BASE + "\n[extra]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(BASE.replace("kind = udp_uni",
                                       "kind = udp_uni\nbogus = 1"))


def test_traffic_endpoints_validated():
    with pytest.raises(ConfigError, match="not in"):
        build(parse_config_text(BASE.replace("dst = ClientA", "dst = Nobody")))
    with pytest.raises(ConfigError, match="must differ"):
        build(parse_config_text(BASE.replace("dst = ClientA", "dst = Master")))


def test_nodes_positions_or_mobility_file():
    bad = BASE.replace("Master = 0,0,0", "mobility_file = m.csv")
    with pytest.raises(ConfigError, match="cannot mix"):
        build(parse_config_text(bad))
    with pytest.raises(ConfigError, match="x,y,z"):
        parse_config_text(BASE.replace("Master = 0,0,0", "Master = 0,0"))


def test_bundled_scenarios_and_readme_match_the_schema():
    for path in sorted((REPO / "scenarios").glob("*.ini")):
        build(parse_config(path))
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    documented = set()
    notes = {}
    section = None
    for line in block.splitlines():
        header = re.match(r"\[(\w+)\]", line)
        if header:
            section = header.group(1)
            continue
        entry = re.match(r";?\s*(\w+)\s*=\s*([^;]*)", line)
        # "name = x,y,z" node positions are free-form, not schema keys
        if entry and not (section == "nodes" and "," in entry.group(2)):
            documented.add((section, entry.group(1)))
        if (entry and section in ("propagation", "radio")
                and entry.group(1) != "model"):
            notes[entry.group(1)] = line.rsplit(";", 1)[1].strip()
    assert documented == set(_SCHEMA)
    # each propagation and radio key's note names the models that
    # _MODEL_FIELDS admits it in, and says when one requires it
    analytic = sorted(set(_MODEL_FIELDS) - {"trace"})
    for key, note in notes.items():
        models = sorted(model for model, (admitted, _) in _MODEL_FIELDS.items()
                        if key in admitted)
        if models == analytic:
            assert note.endswith("analytic models only"), key
        else:
            (model,) = models
            required = _MODEL_FIELDS[model][1] == key
            assert note == f"model = {model} only" + " (required)" * required


def test_mac_section_round_trip():
    text = BASE + ("\n[mac]\nrate_control = fixed\nfixed_mode_mbps = 24\n"
                   "queue_capacity = 100\nretry_limit = 4\n")
    cfg = parse_config_text(text)
    assert cfg.rate_control == "fixed" and cfg.fixed_mode_mbps == 24
    assert cfg.queue_capacity == 100 and cfg.retry_limit == 4


def test_the_retired_ack_basic_rates_key_is_an_unknown_key(tmp_path, capsys):
    # every ACK goes out at the one basic rate, 6 Mbit/s (DcfParams)
    cfg_path = write_config(tmp_path, BASE + "\n[mac]\nack_basic_rates = 6\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err \
        == "error: unknown key 'ack_basic_rates' in [mac]\n"
    assert cli.main(["record-trace", str(cfg_path),
                     "-o", str(out / "trace.csv")]) == 1
    assert not out.exists()


# each retired [radio] key at the value the fixed radio now has
RETIRED_RADIO_KEYS = {"tx_power_dbm": "17", "bandwidth_hz": "20e6",
                      "center_freq_hz": "5.22e9", "noise_figure_db": "7"}


@pytest.mark.parametrize("key", sorted(RETIRED_RADIO_KEYS))
def test_a_retired_radio_key_is_an_unknown_key(tmp_path, capsys, key):
    # the radio is fixed, so rf_gain_db_per_end is the one [radio] key
    cfg_path = write_config(tmp_path, BASE + f"\n[radio]\n{key} = "
                            f"{RETIRED_RADIO_KEYS[key]}\n")
    out = tmp_path / "out"
    message = f"error: unknown key {key!r} in [radio]\n"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert cli.main(["record-trace", str(cfg_path),
                     "-o", str(out / "trace.csv")]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_the_retired_radio_field_is_refused_on_the_api_path():
    cfg = parse_config_text(BASE)
    assert "radio" not in cfg._fields
    with pytest.raises(TypeError, match="'radio'"):
        replace(cfg, radio=None)


def test_the_retired_basic_rates_field_is_refused_on_the_api_path():
    cfg = parse_config_text(BASE)
    assert "basic_rates_mbps" not in cfg._fields
    with pytest.raises(TypeError, match="basic_rates_mbps"):
        replace(cfg, basic_rates_mbps=(6, 12))


def test_a_run_logs_every_ack_at_6_mbps_in_44_us(tmp_path):
    # Minstrel sends data above 6 Mbit/s; each ACK still takes the basic rate
    cfg = replace(parse_config(REPO / "scenarios" / "udp_bidirectional.ini"),
                  duration_s=1)
    execute_run(cfg, tmp_path / "out")
    rows = (tmp_path / "out" / "events.csv").read_text(
        encoding="utf-8").splitlines()[1:]
    data_rates = {int(row.split(",")[5]) for row in rows
                  if ",tx,data," in row}
    acks = [row.split(",") for row in rows if ",tx,ack," in row]
    assert max(data_rates) > 6 and acks
    assert {(f[5], f[8]) for f in acks} == {("6", "44")}

# -- run artifacts and reproducibility ---------------------------------------


def test_run_writes_artifacts(tmp_path):
    cfg = parse_config(write_config(tmp_path, BASE))
    run, manifest = execute_run(cfg, tmp_path / "out")
    out = tmp_path / "out"
    assert (out / "events.csv").exists()
    assert (out / "manifest.json").exists()
    assert (out / "summary.json").exists()
    series = PerSecondSeries.load(out / "throughput_Master_to_ClientA.csv")
    assert sorted(series.values) == [0, 1]
    assert run.mean_throughput_mbps("udp.Master->ClientA") > 20.0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["seed"] == 7
    assert doc["config_text"]
    assert "events.csv" in doc["outputs"]


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
UDP_SCENARIOS = [path.stem for path in sorted(SCENARIOS.glob("*.ini"))
                 if parse_config(path).traffic_kind != "ping"]


def goodput_from_log(events_csv, payload_bytes, duration_s, delay_us):
    """Per link, the kbit/s of each second recomputed from the event log,
    and the number of deliveries the processing delay moved past the end.

    A (link, seq) counts once, at its first delivered data row: a
    retransmission after a lost ACK is delivered again and suppressed.
    """
    end_us = duration_s * 1_000_000
    seen = set()
    per_link = {}
    past_end = 0
    with open(events_csv, encoding="utf-8", newline="") as fh:
        next(fh)
        for line in fh:
            t_us, _, event, kind, link, _, seq, *_, outcome = \
                line.rstrip("\n").split(",")
            if (event, kind, outcome) != ("rx", "data", "delivered"):
                continue
            if (link, seq) in seen:
                continue
            seen.add((link, seq))
            bins = per_link.setdefault(link, [0] * duration_s)
            t_us = int(t_us) + delay_us
            if t_us < end_us:
                bins[t_us // 1_000_000] += 8 * payload_bytes
            else:
                past_end += 1
    return ({link: {s: b / 1000.0 for s, b in enumerate(bins)}
             for link, bins in per_link.items()}, past_end)


@pytest.mark.parametrize("name, delay_us", [
    *((name, 0) for name in UDP_SCENARIOS),
    ("udp_bidirectional", 2_500),
])
def test_goodput_from_the_log_equals_the_throughput_series(
        tmp_path, name, delay_us):
    cfg = replace(parse_config(SCENARIOS / f"{name}.ini"), duration_s=2,
                  log_events=True, processing_delay_us=delay_us)
    out = tmp_path / "out"
    execute_run(cfg, out)
    goodput, past_end = goodput_from_log(
        out / "events.csv", cfg.payload_bytes, cfg.duration_s, delay_us)
    series = {path.name: PerSecondSeries.load(path).values
              for path in out.glob("throughput_*.csv")}
    assert series == {f"throughput_{link.replace('->', '_to_')}.csv": values
                      for link, values in goodput.items()}
    assert (past_end > 0) == (delay_us > 0)


def test_ping_run_writes_rtt_series(tmp_path):
    cfg = parse_config(write_config(tmp_path, PING))
    run, _ = execute_run(cfg, tmp_path / "out")
    series = PerSecondSeries.load(tmp_path / "out" / "rtt_Master_to_ClientA.csv")
    assert series.kind == "rtt_median_ms"
    assert len(run.rtt_samples) == 20
    assert run.min_rtt_us() > 500


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_bit_identical_reruns_across_scenarios(tmp_path):
    scenarios = {
        "friis_udp": BASE,
        "ping": PING,
        "logdist_fading": BASE.replace(
            "model = friis", "model = logdist\ngamma = 1.7\nnakagami_m = 1.25"
        ).replace("kind = udp_uni", "kind = udp_bidi"),
    }
    for name, text in scenarios.items():
        cfg_path = write_config(tmp_path, text, f"{name}.ini")
        digests = set()
        for attempt in range(2):
            out = tmp_path / f"{name}_{attempt}"
            execute_run(parse_config(cfg_path), out)
            digests.add(_digest(out / "events.csv"))
        assert len(digests) == 1, f"{name} not reproducible"


def test_seed_changes_the_event_log(tmp_path):
    cfg_path = write_config(tmp_path, BASE)
    cfg1 = parse_config(cfg_path)
    cfg2 = parse_config(cfg_path)
    cfg2.seed = 8
    execute_run(cfg1, tmp_path / "a")
    execute_run(cfg2, tmp_path / "b")
    assert _digest(tmp_path / "a" / "events.csv") \
        != _digest(tmp_path / "b" / "events.csv")


def test_manifest_rerun_reproduces(tmp_path):
    cfg = parse_config(write_config(tmp_path, BASE))
    execute_run(cfg, tmp_path / "orig")
    rerun_from_manifest(tmp_path / "orig" / "manifest.json", tmp_path / "again")
    assert _digest(tmp_path / "orig" / "events.csv") \
        == _digest(tmp_path / "again" / "events.csv")


def test_manifest_rerun_with_overrides_writes_the_same_bytes(tmp_path):
    orig, again = tmp_path / "orig", tmp_path / "again"
    assert cli.main(["run", str(write_config(tmp_path, BASE)), "--out-dir",
                     str(orig), "--seed", "5", "--duration", "1"]) == 0
    rerun_from_manifest(orig / "manifest.json", again)
    for name in ("events.csv", "summary.json", "manifest.json"):
        assert (again / name).read_bytes() == (orig / name).read_bytes(), name


def test_record_trace_and_replay_round_trip(tmp_path):
    cfg = parse_config(write_config(tmp_path, BASE))
    out_trace = tmp_path / "recorded.csv"
    run = execute_record(cfg, out_trace)
    trace = parse_snr_trace(out_trace.read_bytes())
    assert len(trace.links()) == 2
    # every reception used the friis-composed SNR for its link
    for link in trace.links():
        values = set(trace.series(link)[1])
        assert len(values) == 1                    # static nodes, no fading
    assert run.stats["Master"].data_frames > 0


@pytest.mark.parametrize("scenario", ["replay_constant", "replay_asymmetric"])
def test_a_recorded_replay_replays_to_the_same_event_log(tmp_path, scenario):
    # a recorder on a replay writes the SNRs its frames saw
    bundled = REPO / "scenarios" / f"{scenario}.ini"
    trace = tmp_path / "recorded.csv"
    assert cli.main(["record-trace", str(bundled), "-o", str(trace),
                     "--duration", "3"]) == 0
    copy = write_config(tmp_path, re.sub(
        r"(?m)^trace_file = .*$", f"trace_file = {trace.name}",
        bundled.read_text(encoding="utf-8")))
    for cfg_path, out in ((bundled, "orig"), (copy, "copy")):
        assert cli.main(["run", str(cfg_path), "--out-dir",
                         str(tmp_path / out), "--duration", "3"]) == 0
    assert (tmp_path / "copy" / "events.csv").read_bytes() \
        == (tmp_path / "orig" / "events.csv").read_bytes()


FAR = BASE.replace("seed = 7", "seed = 1").replace(
    "ClientA = 6,0,0", "ClientA = 120,0,0").replace(
    "model = friis", "model = logdist\ngamma = 3")


@pytest.mark.xfail(strict=True, raises=ConfigError, reason="ROADMAP item 21")
def test_a_recording_with_a_silent_link_replays(tmp_path):
    # at 120 m every data frame fails, so no ACK is sent and the reverse
    # link records no row, which a replay's build rejects
    cfg_path = write_config(tmp_path, FAR)
    trace = tmp_path / "recorded.csv"
    assert cli.main(["record-trace", str(cfg_path), "-o", str(trace),
                     "--duration", "3"]) == 0
    rows = trace.read_text(encoding="utf-8").splitlines()[1:]
    assert sum(",Master,ClientA," in row for row in rows) == 800
    assert not any(",ClientA,Master," in row for row in rows)
    replay = replace(parse_config(cfg_path), model="trace", trace_file=trace,
                     gamma=None, duration_s=3)
    try:
        execute_run(replay, tmp_path / "replay")
    except ConfigError as exc:
        assert str(exc) == "SNR trace has no samples for link ClientA->Master"
        raise
    execute_run(replace(parse_config(cfg_path), duration_s=3),
                tmp_path / "orig")
    assert (tmp_path / "replay" / "events.csv").read_bytes() \
        == (tmp_path / "orig" / "events.csv").read_bytes()


# ClientA walks from 5 m to 40 m away from Master over the 1 s run
SWEEP_WALK = "t_us,node,x_m,y_m,z_m\n0,Master,0,0,0\n0,ClientA,5,0,0\n" \
    "1000000,ClientA,40,0,0\n"


def sweep_config(pick):
    """The text of a 1 s logged config drawn from pick: node motion, path
    loss model, fading, link-budget gain, traffic and rate control."""
    nodes = pick.choice(["Master = 0,0,0\nClientA = 6,0,0",
                         "mobility_file = walk.csv"])
    propagation = pick.choice(["model = friis",
                               "model = logdist\ngamma = 2.5"])
    if pick.random() < 0.5:
        propagation += "\nnakagami_m = 1.25"
    kind = pick.choice(["udp_uni", "udp_bidi", "ping"])
    rate = pick.choice(["minstrel", "fixed\nfixed_mode_mbps = 24"])
    return f"""
[scenario]
duration_s = 1
seed = {pick.randrange(1, 1000)}

[nodes]
{nodes}

[radio]
rf_gain_db_per_end = {pick.uniform(-20.0, 10.0)!r}

[propagation]
{propagation}

[traffic]
kind = {kind}
src = Master
dst = ClientA

[mac]
rate_control = {rate}
"""


def test_recordings_replay_to_the_same_event_log(tmp_path):
    # a recording replays at its seed to the run's events.csv, byte for
    # byte, unless a link received no frame and so recorded no row
    (tmp_path / "walk.csv").write_text(SWEEP_WALK, encoding="utf-8")
    pick = random.Random(1)
    identical = silent = 0
    for i in range(24):
        cfg = parse_config(write_config(tmp_path, sweep_config(pick),
                                        f"sweep_{i}.ini"))
        trace = tmp_path / f"sweep_{i}.csv"
        execute_record(cfg, trace)
        replay = replace(cfg, model="trace", trace_file=trace, gamma=None,
                         nakagami_m=None, rf_gain_db_per_end=None)
        try:
            execute_run(replay, tmp_path / f"replay_{i}")
        except ConfigError as exc:
            assert re.fullmatch(r"SNR trace has no samples for link "
                                r"(Master->ClientA|ClientA->Master)",
                                str(exc)), exc
            silent += 1
            continue
        execute_run(cfg, tmp_path / f"run_{i}")
        assert (tmp_path / f"replay_{i}" / "events.csv").read_bytes() \
            == (tmp_path / f"run_{i}" / "events.csv").read_bytes(), i
        identical += 1
    assert identical + silent == 24 and identical >= 20


def test_run_scenario_with_injected_trace(tmp_path):
    (tmp_path / "link.csv").write_text(CONST_35, encoding="utf-8")
    cfg = ScenarioConfig(
        duration_s=1, seed=5, model="trace", trace_file=tmp_path / "link.csv",
        nodes={"Master": (0, 0, 0), "ClientA": (6, 0, 0)},
        traffic_kind="udp_uni", src="Master", dst="ClientA",
    )
    run = simulate(build(cfg))
    assert run.mean_throughput_mbps("udp.Master->ClientA") > 20.0


def test_one_built_run_simulates_the_same_twice():
    # each simulate makes its own channel, so the fading streams of a
    # static link start afresh from the seed
    cfg = replace(parse_config(REPO / "scenarios" / "logdist_fading.ini"),
                  duration_s=1, traffic_kind="udp_bidi")
    built = build(cfg)
    runs, logs = [], []
    for _ in range(2):
        buf = io.StringIO()
        runs.append(simulate(built, event_log=CsvEventLog(buf)))
        logs.append(buf.getvalue())
    assert runs[0] == runs[1]
    assert logs[0] == logs[1]     # events.csv, byte for byte
    faded = {row.split(",")[9] for row in logs[0].splitlines()[1:]
             if ",rx,data," in row and not row.endswith(",collided")}
    assert len(faded) > 1000      # a fading draw per frame


def _config(text):
    return lambda tmp_path: write_config(tmp_path, text)


def _moving_config(waypoints, propagation="model = friis"):
    def make(tmp_path):
        (tmp_path / "mob.csv").write_text(
            "t_us,node,x_m,y_m,z_m\n" + waypoints, encoding="utf-8")
        return write_config(tmp_path, BASE.replace(
            "Master = 0,0,0\nClientA = 6,0,0", "mobility_file = mob.csv")
            .replace("model = friis", propagation))
    return make


# ClientA passes through Master, from 6 m to -6 m over the 2 s run
CROSSING = "0,Master,0,0,0\n0,ClientA,6,0,0\n2000000,ClientA,-6,0,0\n"
# ClientA passes Master at 0.5 m, the closest distance Friis admits
GRAZING = "0,Master,0,0,0\n0,ClientA,6,0.5,0\n2000000,ClientA,-6,0.5,0\n"
# ClientA walks away from Master, from 5 m to 70 m over the first second
WALK = "0,Master,0,0,0\n0,ClientA,5,0,0\n1000000,ClientA,70,0,0\n"


def test_moving_nodes_at_an_admitted_distance_build(tmp_path):
    built = build(parse_config(_moving_config(GRAZING)(tmp_path)))
    assert built.mobility.distance_range("Master", "ClientA",
                                         0, 2_000_000)[0] == 0.5


# One invalid value for each part that build() constructs, plus the traffic
# window; every one must exit 1 before any output file exists.
LATE_CONFIG_ERRORS = {
    "gamma": (_config(BASE.replace(
        "model = friis", "model = logdist\ngamma = -1")), "gamma must be > 0"),
    "nakagami_m": (_config(BASE.replace(
        "model = friis", "model = friis\nnakagami_m = 0.3")), "nakagami_m"),
    "retry_limit": (_config(BASE + "\n[mac]\nretry_limit = 0\n"),
                    "retry_limit"),
    "queue_capacity": (_config(BASE + "\n[mac]\nqueue_capacity = 0\n"),
                       "queue_capacity"),
    "payload_bytes": (_config(BASE + "payload_bytes = 5000\n"),
                      "payload_bytes"),
    "start_s": (_config(BASE + "start_s = -1\n"), "0 <= start"),
    # the gap in µs overflows to infinity
    "offered_load_tiny": (_config(BASE + "offered_load_bps = 1e-300\n"),
                          "offered_load_bps too low"),
    "ping_interval_us": (_config(PING + "interval_us = 0\n"), "interval_us"),
    "one_way_trace": (lambda tmp_path: trace_config(tmp_path, ONE_WAY_35),
                      "link ClientA->Master"),
    "friis_too_close": (_config(BASE.replace("ClientA = 6,0,0",
                                             "ClientA = 0.3,0,0")),
                        "link Master->ClientA: below reference distance"),
    "logdist_inside_ref": (_config(BASE.replace(
        "model = friis", "model = logdist\ngamma = 3\nref_distance_m = 10")),
        "link Master->ClientA: below reference distance"),
    "mobility_too_close": (_moving_config(CROSSING),
                           "link Master->ClientA: below reference distance"),
    "malformed_trace": (lambda tmp_path: trace_config(
        tmp_path, CONST_35 + "5,Master,ClientA,x\n"),
        "link.csv: line 4: malformed snr_db: 'x'"),
    "malformed_mobility": (_moving_config(
        "0,Master,0,0,0\n0,ClientA,6,0,0\n1,ClientA,q,0,0\n"),
        "mob.csv: line 4: malformed x_m: 'q'"),
    # a fading draw needs the mean power in watts, which overflows a float
    "faded_power_overflow": (_config(BASE.replace(
        "model = friis",
        "model = logdist\ngamma = 2\nref_distance_m = 1\nnakagami_m = 1")
        + "\n[radio]\nrf_gain_db_per_end = 1600\n"),
        "link Master->ClientA: mean received power"),
    # 2 * rf_gain_db_per_end overflows to +inf, and 10 * gamma to an
    # infinite loss: either link budget would record inf SNR rows
    "infinite_rf_gain": (_config(BASE.replace(
        "model = friis", "model = logdist\ngamma = 2\nref_distance_m = 1")
        + "\n[radio]\nrf_gain_db_per_end = 1e308\n"),
        "link Master->ClientA: mean received power inf dBm"),
    "infinite_path_loss": (_config(BASE.replace(
        "model = friis", "model = logdist\ngamma = 1e308\nref_distance_m = 1")),
        "link Master->ClientA: mean received power -inf dBm"),
    # the path loss is finite at 5 m, the closest approach, and infinite
    # at 70 m, the farthest
    "infinite_path_loss_far": (_moving_config(
        WALK, "model = logdist\ngamma = 1e307"),
        "link Master->ClientA: mean received power -inf dBm overflows"),
    # a gamma draw would reject every candidate, and the run never ends
    "nakagami_m_huge": (_config(BASE.replace(
        "model = friis", "model = friis\nnakagami_m = 1e308")), "nakagami_m"),
}


@pytest.mark.parametrize("case", sorted(LATE_CONFIG_ERRORS))
def test_config_error_writes_no_file(tmp_path, capsys, case):
    make_config, message = LATE_CONFIG_ERRORS[case]
    cfg_path = make_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert "Traceback" not in err
    assert cli.main(["record-trace", str(cfg_path),
                     "-o", str(out / "trace.csv")]) == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("case", sorted(LATE_CONFIG_ERRORS))
def test_build_raises_a_config_error_for_each_late_config_error(tmp_path,
                                                                 case):
    make_config, message = LATE_CONFIG_ERRORS[case]
    cfg = parse_config(make_config(tmp_path))
    with pytest.raises(ConfigError, match=re.escape(message)):
        build(cfg)


@pytest.mark.parametrize("make_config", [
    lambda tmp_path: trace_config(
        tmp_path, CONST_35 + "500000,Master,ClientA,5000\n"),
    _config(BASE.replace("model = friis",
                         "model = logdist\ngamma = 2\nref_distance_m = 1")
            + "\n[radio]\nrf_gain_db_per_end = 1600\n"),
], ids=["replayed_5000_db", "unfaded_rf_gain_1600_db"])
def test_an_snr_too_large_for_a_float_runs_as_a_strong_link(tmp_path,
                                                            make_config):
    # 10 ** (snr_db / 10) overflows above ~3,083 dB; p is 1.0 long before
    cfg_path = make_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out),
                     "--duration", "1"]) == 0
    strong = simulate(build(parse_config(trace_config(tmp_path, CONST_35))))
    run = simulate(build(parse_config(cfg_path)))
    assert run.stats == strong.stats and run.throughput == strong.throughput


FADING = BASE.replace("model = friis", "model = logdist\ngamma = 1.7\n"
                      "ref_distance_m = 1.0\nnakagami_m = 1.25")
# Each float key, one node coordinate, the traffic window and the two int
# keys that no part of the run owns set to a value that is not finite:
# (section, key) -> config text.
NON_FINITE = {
    ("radio", "rf_gain_db_per_end"):
        FADING + "\n[radio]\nrf_gain_db_per_end = nan\n",
    **{("propagation", key): re.sub(rf"{key} = .*", f"{key} = nan", FADING)
       for key in ("gamma", "ref_distance_m", "nakagami_m")},
    ("traffic", "offered_load_bps"): FADING + "offered_load_bps = nan\n",
    ("nodes", "ClientA"): FADING.replace("ClientA = 6,0,0", "ClientA = 6,nan,0"),
    ("traffic", "start_s"): FADING + "start_s = inf\n",
    ("traffic", "stop_s"): FADING + "stop_s = inf\n",
    ("scenario", "duration_s"): FADING.replace("duration_s = 2",
                                               "duration_s = nan"),
    ("traffic", "processing_delay_us"): FADING + "processing_delay_us = inf\n",
}


def _api_config(section, key, value):
    """FADING made in code, with NON_FINITE's (section, key) set to value."""
    cfg = parse_config_text(FADING)
    if section == "nodes":
        return replace(cfg, nodes={**cfg.nodes, key: (6.0, value, 0.0)})
    field = {"start_s": "start_us", "stop_s": "stop_us"}.get(key, key)
    return replace(cfg, **{field: value})


@pytest.mark.parametrize("section, key", sorted(NON_FINITE))
def test_a_non_finite_config_value_exits_1_before_any_file(tmp_path, capsys,
                                                           section, key):
    cfg_path = write_config(tmp_path, NON_FINITE[section, key])
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out),
                     "--duration", "1"]) == 1
    err = capsys.readouterr().err
    if _SCHEMA.get((section, key), (key, float))[1] is not float:
        # no integer parses from nan or inf
        assert f"error: [{section}] {key}: cannot parse" in err
    else:
        name = f"[nodes] {key} y" if section == "nodes" else key
        assert f"error: {name} must be finite" in err
        # the gate in build gives the one message on both paths
        with pytest.raises(ConfigError) as api_error:
            build(_api_config(section, key, math.nan))
        assert err == f"error: {api_error.value}\n"
    assert cli.main(["record-trace", str(cfg_path),
                     "-o", str(out / "trace.csv")]) == 1
    assert not out.exists()


# NON_FINITE's twin for a config made in code: the same values, nan and inf,
# set with replace(cfg, ...). The error names the field, or the node, that
# holds the value.
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("section, key", sorted(NON_FINITE))
def test_a_non_finite_value_is_rejected_on_the_api_path(tmp_path, section, key,
                                                        value):
    cfg = _api_config(section, key, value)
    message = {"start_s": "start_us", "stop_s": "stop_us"}.get(key, key)
    with pytest.raises(ConfigError, match=message):
        build(cfg)
    with pytest.raises(ConfigError, match=message):
        execute_run(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


# A time, the seed, a size or a count set in code must be an int, as the
# text path parses each: a float time failed inside simulate or ran on a
# float clock, a float seed ran as its integer part while the manifest
# recorded the float, and a float or bool size or count ran silently; a
# str or None time raised a bare TypeError.
@pytest.mark.parametrize("field, value", [
    ("duration_s", 1.5), ("duration_s", 2.0), ("seed", 1.5), ("seed", True),
    ("start_us", 0.5), ("stop_us", 1_500_000.0),
    ("interval_us", 100_000.5), ("processing_delay_us", 0.5),
    ("payload_bytes", 1000.5), ("payload_bytes", True),
    ("queue_capacity", 2.5), ("retry_limit", 2.5),
    ("fixed_mode_mbps", 54.0), ("duration_s", "5"), ("start_us", "0"),
    ("processing_delay_us", None)])
def test_a_non_integer_time_or_seed_is_rejected_on_the_api_path(
        tmp_path, field, value):
    cfg = replace(parse_config_text(BASE), **{field: value})
    message = f"{field} must be an integer"
    with pytest.raises(ConfigError, match=message):
        build(cfg)
    with pytest.raises(ConfigError, match=message):
        execute_run(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


# A number set in code must be a real number and not a bool, as the text
# path parses each as a float: True ran as 1 (m = 1, gamma = 1, 1 bit/s). A
# flag must be a bool, as the text path parses it: log_events = "no" ran
# with the log on, and a str coordinate raised a bare TypeError.
@pytest.mark.parametrize("field, value", [
    ("nakagami_m", True), ("gamma", True), ("offered_load_bps", True),
    ("ref_distance_m", False), ("gamma", "2"), ("offered_load_bps", None),
    ("rf_gain_db_per_end", True), ("rf_gain_db_per_end", "17"),
    ("nodes", {"Master": (0, 0, 0), "ClientA": ("6", 0, 0)}),
    ("log_events", "no")])
def test_a_bool_or_non_real_number_is_rejected_on_the_api_path(
        tmp_path, field, value):
    cfg = replace(parse_config_text(BASE), **{field: value})
    message = {"nodes": re.escape("[nodes] ClientA x must be a real number"),
               "log_events": "log_events must be a bool"}.get(
                   field, f"{field} must be a real number")
    with pytest.raises(ConfigError, match=message):
        build(cfg)
    with pytest.raises(ConfigError, match=message):
        execute_run(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    if field in ("gamma", "ref_distance_m", "nakagami_m",
                 "rf_gain_db_per_end"):
        # PropagationSpec, the part that owns the value, checks it alike
        with pytest.raises(ValueError, match=message):
            PropagationSpec("logdist", **{field: value})


# (field, value, message): a wrong container, path or string on the API path
WRONG_TYPES = [
    ("nodes", [("Master", (0, 0, 0)), ("ClientA", (6, 0, 0))],
     "nodes must be a dict of positions"),
    ("mobility_file", 5, "mobility_file must be a path"),
    ("trace_file", 5, "trace_file must be a path"),
    ("out_dir", 5, "out_dir must be a string"),
    ("model", None, "model must be a string"),
    ("traffic_kind", b"udp_uni", "traffic_kind must be a string"),
    ("src", 1, "src must be a string"),
    ("dst", None, "dst must be a string"),
    ("rate_control", ["fixed"], "rate_control must be a string"),
]


@pytest.mark.parametrize("field, value, message", WRONG_TYPES)
def test_a_wrong_container_path_or_string_is_a_config_error(
        tmp_path, capsys, monkeypatch, field, value, message):
    cfg = replace(parse_config_text(BASE), **{field: value})
    if field == "mobility_file":
        cfg = replace(cfg, nodes=None)
    with pytest.raises(ConfigError, match=re.escape(message)):
        build(cfg)
    # the CLI exits 1 with the same message, before any output directory
    monkeypatch.setattr(cli, "parse_config", lambda path: cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "scenario.ini", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not out.exists()


# Each rule of _MODEL_FIELDS, as [propagation] keys with their values. No
# missing.csv exists, so a rule that fired after the file was opened would
# give "cannot read" instead.
PROPAGATION_RULES = {
    "unknown_model": ({"model": "warp"}, "unknown model 'warp'"),
    "trace_without_trace_file": ({"model": "trace"},
                                 "trace model requires trace_file"),
    "logdist_without_gamma": ({"model": "logdist"},
                              "logdist model requires gamma"),
    "friis_with_trace_file": ({"trace_file": "missing.csv"},
                              "key 'trace_file' not valid for model 'friis'"),
    "friis_with_gamma": ({"gamma": 3.0},
                         "key 'gamma' not valid for model 'friis'"),
    "friis_with_ref_distance_m": (
        {"ref_distance_m": 10.0},
        "key 'ref_distance_m' not valid for model 'friis'"),
    "logdist_with_trace_file": (
        {"model": "logdist", "gamma": 3.0, "trace_file": "missing.csv"},
        "key 'trace_file' not valid for model 'logdist'"),
    "trace_with_gamma": (
        {"model": "trace", "trace_file": "missing.csv", "gamma": 3.0},
        "key 'gamma' not valid for model 'trace'"),
    "trace_with_fading": (
        {"model": "trace", "trace_file": "missing.csv", "nakagami_m": 1.25},
        "key 'nakagami_m' not valid for model 'trace'"),
}


@pytest.mark.parametrize("rule", sorted(PROPAGATION_RULES))
def test_a_propagation_rule_gives_one_message_on_both_paths(tmp_path, rule):
    changes, message = PROPAGATION_RULES[rule]
    message = f"[propagation] {message}"
    keys = {"model": "friis", **changes}
    text = BASE.replace("model = friis", "\n".join(
        f"{key} = {value}" for key, value in keys.items()))
    api = replace(parse_config_text(BASE), **changes)
    for cfg in (parse_config_text(text, base_dir=tmp_path), api):
        with pytest.raises(ConfigError) as exc:
            build(cfg)
        assert str(exc.value) == message
    with pytest.raises(ConfigError, match=re.escape(message)):
        execute_run(api, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_a_replay_that_sets_the_link_budget_gain_is_refused(tmp_path,
                                                             capsys):
    # a replay's SNR comes from its trace, so a gain would go unused; the
    # rule fires before the trace file, missing here, is read
    message = "[radio] key 'rf_gain_db_per_end' not valid for model 'trace'"
    cfg_path = write_config(tmp_path, (
        REPO / "scenarios" / "replay_constant.ini").read_text(
            encoding="utf-8") + "\n[radio]\nrf_gain_db_per_end = -3\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert cli.main(["record-trace", str(cfg_path),
                     "-o", str(out / "trace.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    api = replace(parse_config(REPO / "scenarios" / "replay_constant.ini"),
                  rf_gain_db_per_end=-3.0)
    with pytest.raises(ConfigError) as exc:
        build(api)
    assert str(exc.value) == message
    with pytest.raises(ConfigError, match=re.escape(message)):
        execute_run(api, out)
    assert not out.exists()


@pytest.fixture
def failing_channel(request, monkeypatch):
    """The links' SNR sources raise RuntimeError("channel failed") after
    500 frames in all, or the exception type given as the fixture's
    parameter."""
    error = getattr(request, "param", RuntimeError)
    source = Channel.source
    calls = []

    def failing_source(self, link):
        snr = source(self, link)

        def failing_snr(t_us):
            calls.append(t_us)
            if len(calls) > 500:
                raise error("channel failed")
            return snr(t_us)
        return failing_snr

    monkeypatch.setattr(Channel, "source", failing_source)


@pytest.mark.parametrize("command", ["run", "record-trace"])
def test_a_run_that_fails_midway_leaves_no_partial_file(tmp_path,
                                                        failing_channel,
                                                        command):
    cfg = replace(parse_config(REPO / "scenarios" / "udp_unidirectional.ini"),
                  duration_s=1)
    assert cfg.log_events
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="channel failed"):
        if command == "run":
            execute_run(cfg, out)
        else:
            execute_record(cfg, out / "trace.csv")
    assert not out.exists()     # nor the directory the run made for it


@pytest.mark.parametrize("command", ["run", "record-trace"])
def test_a_failed_run_keeps_a_directory_that_existed(tmp_path, failing_channel,
                                                      command):
    cfg = replace(parse_config(REPO / "scenarios" / "udp_unidirectional.ini"),
                  duration_s=1)
    out = tmp_path / "out"
    (out / "deeper").mkdir(parents=True)
    with pytest.raises(RuntimeError, match="channel failed"):
        if command == "run":
            execute_run(cfg, out / "deeper" / "run")
        else:
            execute_record(cfg, out / "deeper" / "trace.csv")
    assert [p.name for p in out.rglob("*")] == ["deeper"]


# a ValueError raised inside a run is a fault of the run, not of its config
@pytest.mark.parametrize("failing_channel", [RuntimeError, ValueError],
                         indirect=True)
@pytest.mark.parametrize("command", ["run", "record-trace"])
def test_a_runtime_error_exits_2_without_a_traceback(tmp_path, capsys,
                                                     failing_channel, command):
    out = tmp_path / "out"
    target = (["--out-dir", str(out)] if command == "run"
              else ["-o", str(out / "trace.csv")])
    assert cli.main([command, str(REPO / "scenarios" / "udp_unidirectional.ini"),
                     "--duration", "1", *target]) == 2
    err = capsys.readouterr().err
    assert "runtime error: channel failed" in err
    assert "Traceback" not in err
    assert not out.exists()     # no events.csv, trace, .tmp file or directory



def test_a_failed_summary_write_leaves_no_artifact(tmp_path, capsys,
                                                   monkeypatch):
    cfg_path = REPO / "scenarios" / "udp_unidirectional.ini"

    def run(out_dir, *options):
        return cli.main(["run", str(cfg_path), "--out-dir", str(out_dir),
                         "--duration", "1", *options])

    out = tmp_path / "out"
    assert run(out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"events.csv", "summary.json", "manifest.json"} <= set(before)
    write_text = Path.write_text

    def failing_write_text(self, data, *args, **kwargs):
        if self.name.startswith("summary.json"):
            write_text(self, data[:40], *args, **kwargs)
            raise OSError("no space left on device")
        return write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write_text)
    fresh = tmp_path / "fresh"
    assert run(fresh) == 2
    assert "runtime error: no space left on device" in capsys.readouterr().err
    # no summary.json, manifest.json, series, events.csv, *.tmp or directory
    assert not fresh.exists()
    # a failed rerun into an earlier run's directory leaves that run as it was
    assert run(out, "--seed", "9") == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_manifest_hashes_the_input_bytes_the_run_parsed(tmp_path,
                                                        monkeypatch):
    trace = tmp_path / "link.csv"
    mobility = tmp_path / "mob.csv"
    trace.write_text(CONST_35, encoding="utf-8")
    mobility.write_text("t_us,node,x_m,y_m,z_m\n0,Master,0,0,0\n"
                        "0,ClientA,6,0,0\n", encoding="utf-8")
    parsed = {trace: _digest(trace), mobility: _digest(mobility)}
    cfg = parse_config(write_config(tmp_path, BASE.replace(
        "Master = 0,0,0\nClientA = 6,0,0", "mobility_file = mob.csv").replace(
        "model = friis", "model = trace\ntrace_file = link.csv")))
    simulate = scenario.simulate

    def edit_inputs_then_simulate(built, event_log=None):
        # both files change after build parsed them, before any artifact
        trace.write_text(CONST_35.replace("35.0", "9.0"), encoding="utf-8")
        mobility.write_text("t_us,node,x_m,y_m,z_m\n0,Master,0,0,0\n"
                            "0,ClientA,7,0,0\n", encoding="utf-8")
        return simulate(built, event_log)

    monkeypatch.setattr(scenario, "simulate", edit_inputs_then_simulate)
    _, manifest = execute_run(cfg, tmp_path / "out")
    doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert doc["inputs"] == manifest["inputs"] == {
        str(path): digest for path, digest in parsed.items()}
    assert list(doc["inputs"]) == [str(trace), str(mobility)]
    assert _digest(trace) != parsed[trace]


def _replay_over(tmp_path, trace_bytes):
    """The path of a trace file holding trace_bytes, and a config replaying it."""
    trace = tmp_path / "link.csv"
    trace.write_bytes(trace_bytes)
    return trace, write_config(tmp_path, BASE.replace(
        "model = friis", "model = trace\ntrace_file = link.csv"))


def _rows_over_chunks(newline):
    """Trace rows on both links that fill more than three read chunks."""
    rows = ["t_us,tx,rx,snr_db"] + [
        f"{t * 100},{('Master', 'ClientA')[t % 2]},"
        f"{('ClientA', 'Master')[t % 2]},{t % 40}.5" for t in range(12_000)]
    return newline.join(rows)


@pytest.mark.parametrize("newline, end", [("\n", "\n"), ("\r\n", "\r\n"),
                                          ("\n", "")],
                         ids=["lf", "crlf", "no_final_newline"])
def test_a_streamed_input_is_hashed_and_parsed_byte_for_byte(tmp_path, newline,
                                                             end):
    trace, cfg_path = _replay_over(
        tmp_path, (_rows_over_chunks(newline) + end).encode("utf-8"))
    data = trace.read_bytes()
    assert len(data) > 3 * scenario.traces._CHUNK
    cfg = replace(parse_config(cfg_path), duration_s=1, log_events=False)
    built = build(cfg)
    expected = parse_snr_trace(data)
    assert built.spec.trace.links() == expected.links()
    for link in expected.links():
        assert built.spec.trace.series(link) == expected.series(link)
    execute_run(cfg, tmp_path / "out")
    doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert doc["inputs"] == {str(trace): hashlib.sha256(data).hexdigest()}


def test_a_read_error_after_open_is_a_config_error(tmp_path, capsys,
                                                   monkeypatch):
    trace, cfg_path = _replay_over(
        tmp_path, (_rows_over_chunks("\n") + "\n").encode("utf-8"))
    read_snr_trace = scenario.traces.read_snr_trace

    class FailsAfterOneChunk:
        def __init__(self, fh):
            self.fh = fh
            self.readline = fh.readline

        def read(self, size):
            if self.fh.tell():
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return self.fh.read(size)

    monkeypatch.setattr(scenario.traces, "read_snr_trace", lambda fh, on_block:
                        read_snr_trace(FailsAfterOneChunk(fh), on_block))
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read {trace}: [Errno 5] {os.strerror(errno.EIO)}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("name", ["Mas ter", "Mas>ter"])
def test_a_node_id_outside_the_trace_id_set_exits_1_before_any_file(
        tmp_path, capsys, name):
    """A node id names series labels and trace rows, so one that neither
    admits stops the run in build, before simulated time 0."""
    cfg_path = write_config(tmp_path, BASE.replace("Master", name))
    out = tmp_path / "out"
    trace = tmp_path / "t.csv"
    message = f"[nodes] invalid node id {name!r} (allowed: letters, digits, _.-)"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert cli.main(["record-trace", str(cfg_path), "-o", str(trace)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not trace.exists()
    base = parse_config_text(BASE)
    for node in (name, 1):   # the same gate on a config made in code
        cfg = replace(base, nodes={node: (0.0, 0.0, 0.0),
                                   "ClientA": (6.0, 0.0, 0.0)})
        message = f"[nodes] invalid node id {node!r}"
        for run in (build, lambda c: execute_run(c, out),
                    lambda c: execute_record(c, trace)):
            with pytest.raises(ConfigError, match=re.escape(message)):
                run(cfg)
    assert not out.exists() and not trace.exists()


# -- CLI ----------------------------------------------------------------------


def test_cli_run_ok(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE)
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "events.csv").exists()
    assert "mean goodput" in capsys.readouterr().out


def test_cli_run_overrides_recorded_in_manifest(tmp_path):
    cfg_path = write_config(tmp_path, BASE)
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out_dir),
                     "--seed", "99", "--duration", "1"]) == 0
    doc = json.loads((out_dir / "manifest.json").read_text())
    assert doc["overrides"] == {"seed": 99, "duration_s": 1}
    assert doc["seed"] == 99


def test_cli_usage_and_config_errors(tmp_path):
    assert cli.main(["run", str(tmp_path / "missing.ini")]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main([]) == 1
    bad = write_config(tmp_path, BASE.replace("model = friis", "model = warp"))
    assert cli.main(["run", str(bad)]) == 1
    bad.write_bytes(b"\xff")   # not UTF-8
    assert cli.main(["run", str(bad)]) == 1


@pytest.mark.parametrize("missing", ["link.csv", "mob.csv"])
def test_cli_run_with_a_missing_input_file_is_a_config_error(tmp_path, capsys,
                                                             missing):
    (tmp_path / "link.csv").write_text(CONST_35, encoding="utf-8")
    (tmp_path / "mob.csv").write_text("t_us,node,x_m,y_m,z_m\n0,Master,0,0,0\n"
                                      "0,ClientA,6,0,0\n", encoding="utf-8")
    cfg_path = write_config(tmp_path, BASE.replace(
        "Master = 0,0,0\nClientA = 6,0,0", "mobility_file = mob.csv").replace(
        "model = friis", "model = trace\ntrace_file = link.csv"))
    (tmp_path / missing).unlink()
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(cfg_path), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {tmp_path / missing}: ")
    assert not out_dir.exists()


def test_cli_compare_with_a_missing_series_is_a_config_error(tmp_path, capsys):
    from linksim.metrics import THROUGHPUT_KBPS
    present = tmp_path / "real.csv"
    PerSecondSeries(THROUGHPUT_KBPS, "real", {0: 1.0}).save(present)
    missing = tmp_path / "gone.csv"
    out_dir = tmp_path / "cmp"
    for reference, candidate in ((missing, present), (present, missing)):
        assert cli.main(["compare", "--metric", "throughput", "--reference",
                         str(reference), str(candidate),
                         "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read series {missing}: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("text, message", [
    ("# label=bad kind=throughput_kbps\nsecond,value\n0,1.0\n1,x\n",
     "line 4: malformed row '1,x'"),
    (b"\xff", "'utf-8' codec can't decode byte 0xff"),
], ids=["malformed_row", "not_utf8"])
def test_cli_compare_names_the_series_it_cannot_parse(tmp_path, capsys, text,
                                                      message):
    from linksim.metrics import THROUGHPUT_KBPS
    good = tmp_path / "real.csv"
    PerSecondSeries(THROUGHPUT_KBPS, "real", {0: 1.0}).save(good)
    bad = tmp_path / "bad.csv"
    if isinstance(text, bytes):
        bad.write_bytes(text)
    else:
        bad.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "cmp"
    for reference, candidate in ((bad, good), (good, bad)):
        assert cli.main(["compare", "--metric", "throughput", "--reference",
                         str(reference), str(candidate),
                         "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}")
    assert not out_dir.exists()


def test_cli_record_trace(tmp_path):
    cfg_path = write_config(tmp_path, BASE)
    out = tmp_path / "rec.csv"
    assert cli.main(["record-trace", str(cfg_path), "-o", str(out),
                     "--duration", "1"]) == 0
    assert parse_snr_trace(out.read_bytes()).links()
    replay_cfg = trace_config(tmp_path, CONST_35)
    assert cli.main(["record-trace", str(replay_cfg), "-o", str(out)]) == 0
    assert {float(row.rsplit(",", 1)[1]) for row in
            out.read_text(encoding="utf-8").splitlines()[1:]} == {35.0}


def test_cli_compare_end_to_end(tmp_path, capsys):
    from linksim.metrics import THROUGHPUT_KBPS
    ref = PerSecondSeries(THROUGHPUT_KBPS, "real",
                          {s: 28000.0 for s in range(30)})
    runs = {
        "replay": 26000.0, "friis": 24000.0, "logdist2.0": 20000.0,
        "logdist1.7": 23000.0, "logdist2.5": 15000.0,
    }
    paths = []
    ref_path = tmp_path / "real.csv"
    ref.save(ref_path)
    for label, value in runs.items():
        s = PerSecondSeries(THROUGHPUT_KBPS, label,
                            {k: value for k in range(30)})
        p = tmp_path / f"{label}.csv"
        s.save(p)
        paths.append(str(p))
    out_dir = tmp_path / "cmp"
    rc = cli.main(["compare", "--metric", "throughput",
                   "--reference", str(ref_path), *paths,
                   "--out-dir", str(out_dir)])
    assert rc == 0
    table = (out_dir / "report.txt").read_text()
    for label in runs:
        assert label in table
    assert len(json.loads((out_dir / "report.json").read_text())["table"]) == 5
    assert (out_dir / "cdf_replay.csv").exists()


def test_a_compare_into_an_earlier_reports_directory_removes_its_cdfs(
        tmp_path):
    from linksim.metrics import THROUGHPUT_KBPS
    paths = {}
    for label, value in (("real", 100.0), ("a", 80.0), ("b", 60.0),
                         ("c", 90.0)):
        paths[label] = tmp_path / f"{label}.csv"
        PerSecondSeries(THROUGHPUT_KBPS, label,
                        {0: value, 1: value}).save(paths[label])

    def compare(*candidates):
        return cli.main(["compare", "--metric", "throughput", "--reference",
                         str(paths["real"]),
                         *(str(paths[c]) for c in candidates),
                         "--out-dir", str(out)])

    out = tmp_path / "cmp"
    assert compare("a", "c") == 0
    # a file the report does not name stays, though it looks like a CDF
    (out / "cdf_kept.csv").write_text("value,fraction\n", encoding="utf-8")
    assert compare("b", "c") == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "cdf_b.csv", "cdf_c.csv", "cdf_kept.csv", "report.json",
        "report.txt"]
    assert [row["run"] for row in json.loads(
        (out / "report.json").read_text())["table"]] == ["b", "c"]


def test_cli_compare_kind_mismatch(tmp_path):
    from linksim.metrics import RTT_MEDIAN_MS, THROUGHPUT_KBPS
    a = PerSecondSeries(THROUGHPUT_KBPS, "a", {0: 1.0})
    b = PerSecondSeries(RTT_MEDIAN_MS, "b", {0: 1.0})
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.save(pa)
    b.save(pb)
    assert cli.main(["compare", "--metric", "rtt", "--reference", str(pa),
                     str(pb), "--out-dir", str(tmp_path / "cmp")]) == 1


def test_cli_compare_shift(tmp_path):
    from linksim.metrics import THROUGHPUT_KBPS
    ref = PerSecondSeries(THROUGHPUT_KBPS, "real", {s: 100.0 for s in range(5)})
    late = PerSecondSeries(THROUGHPUT_KBPS, "late",
                           {s + 2: 100.0 for s in range(5)})
    pr, pl = tmp_path / "r.csv", tmp_path / "l.csv"
    ref.save(pr)
    late.save(pl)
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--metric", "throughput", "--reference", str(pr),
                   str(pl), "--shift", "late=-2", "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["table"][0]["mean"] == 0.0
    assert doc["samples_kept"] == 5


def test_cli_compare_shift_of_an_unknown_label_is_a_config_error(tmp_path,
                                                                  capsys):
    from linksim.metrics import THROUGHPUT_KBPS
    pr, pl = tmp_path / "r.csv", tmp_path / "l.csv"
    PerSecondSeries(THROUGHPUT_KBPS, "real", {0: 100.0, 1: 90.0}).save(pr)
    PerSecondSeries(THROUGHPUT_KBPS, "late", {0: 80.0, 1: 70.0}).save(pl)
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--metric", "throughput", "--reference", str(pr),
                   str(pl), "--shift", "late=1", "--shift", "typo=5",
                   "--out-dir", str(out)])
    assert rc == 1
    assert "error: --shift names no loaded series: typo" in \
        capsys.readouterr().err
    assert not out.exists()


def test_a_failed_report_write_leaves_no_report_file(tmp_path, capsys,
                                                     monkeypatch):
    from linksim.metrics import THROUGHPUT_KBPS
    pr, pa, pb = tmp_path / "r.csv", tmp_path / "a.csv", tmp_path / "b.csv"
    PerSecondSeries(THROUGHPUT_KBPS, "real", {0: 100.0, 1: 90.0}).save(pr)
    PerSecondSeries(THROUGHPUT_KBPS, "a", {0: 80.0, 1: 70.0}).save(pa)
    PerSecondSeries(THROUGHPUT_KBPS, "b", {0: 60.0, 1: 95.0}).save(pb)

    def compare(out_dir, *candidates):
        return cli.main(["compare", "--metric", "throughput", "--reference",
                         str(pr), *map(str, candidates),
                         "--out-dir", str(out_dir)])

    out = tmp_path / "cmp"
    assert compare(out, pa) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"report.json", "report.txt", "cdf_a.csv"}
    write_text = Path.write_text
    writes = []

    def failing_write_text(self, data, *args, **kwargs):
        writes.append(self.name)
        if len(writes) == 2:
            raise OSError("no space left on device")
        return write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write_text)
    fresh = tmp_path / "fresh"
    assert compare(fresh, pa, pb) == 2
    assert writes == ["report.json.tmp", "report.txt.tmp"]
    assert "runtime error: no space left on device" in capsys.readouterr().err
    assert not fresh.exists()   # no report file, *.tmp or directory
    # a failed report into an earlier report's directory leaves it as it was
    writes.clear()
    assert compare(out, pb, pa) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
