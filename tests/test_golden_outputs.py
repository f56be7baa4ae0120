"""Golden outputs: every bundled scenario reproduces its pinned artifacts.

Each scenario in ``scenarios/`` runs for 2 simulated seconds at its own seed,
and the sha256 of ``events.csv``, ``summary.json`` and every series CSV must
match the values below; each analytic scenario's ``record-trace`` file is
pinned the same way, and so is the ``events.csv`` of seven logged runs on
paths no bundled scenario reaches. A speed-up that changes one byte of
output fails here. ``manifest.json`` is left out because it records the absolute
``base_dir`` of the config. Re-pin only for a deliberate output change, and
say so in CHANGES.md.
"""

import hashlib
from collections import Counter
from pathlib import Path

import pytest

from linksim import cli
from linksim.channel import Channel
from linksim.engine import EventQueue
from linksim.mac import COLLIDED, build_point_to_point
from linksim.phy import CORRUPTED
from linksim.record import replace
from linksim.scenario import CsvEventLog, build, execute_run, parse_config
from linksim.traffic import PingApp, PingConfig, UdpSource

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DURATION_S = "2"

GOLDEN = {
    "logdist_fading": {
        "events.csv":
            "2ed722f58530969fcb007fcb975c3f611486d93ac9c4da0baa4031af3936fb6c",
        "summary.json":
            "c49b30ff800e40d93420a36ea97301434b70829b33291cc98222ba0a24e30bec",
        "throughput_ClientA_to_Master.csv":
            "b8c49b3da6f527e49218e2b8b511d3b6cd0c11759ed025860b34eb6b746eeed1",
    },
    "ping_idle_link": {
        "events.csv":
            "26cbca20b9a5ac4ee9a291fa913e2a7ed8bd7badf1d20b677b015c51650134e3",
        "rtt_Master_to_ClientA.csv":
            "60917860c7a2f8ffee7b470f6b854ab4eddcfe60f52933c25e63b2f1530db6b1",
        "summary.json":
            "9682d20c8ff6bf854dd5c596f9a2a3b0e2961ad88c0fe4a683cd67b7a2025e8c",
    },
    "replay_asymmetric": {
        "events.csv":
            "641d2080ff4164061ec0e03d851f128520314af9b2c93b84c7852d5778e5acaa",
        "summary.json":
            "9e238c647f3e0f98115aa03257f2deac73951df0dd282e93075a45a509ccbaea",
        "throughput_Master_to_ClientA.csv":
            "87ee6baf6c7895b1ff493609ec5835a0f7a6c145cfb83b3e0bbe536fa5c98788",
    },
    "replay_constant": {
        "events.csv":
            "018da1f4bd835c2dd68a0ac7ac139518d0a8d0fea8b6a601bc0321c2a6bd1c6e",
        "summary.json":
            "9e238c647f3e0f98115aa03257f2deac73951df0dd282e93075a45a509ccbaea",
        "throughput_Master_to_ClientA.csv":
            "87ee6baf6c7895b1ff493609ec5835a0f7a6c145cfb83b3e0bbe536fa5c98788",
    },
    "udp_bidirectional": {
        "events.csv":
            "d7c9047caa26ae2e808e5703d523e4dbe6ebf9dfb23e6034b052d0d0d6817599",
        "summary.json":
            "346bc4370612517ba672891b17304c2bcf0335e3974d0eeb8a531032a5795434",
        "throughput_ClientA_to_Master.csv":
            "43b645231989c25a43248088f8cbaaa949c75f5c3e71033027e8776bf2c26ed2",
        "throughput_Master_to_ClientA.csv":
            "8d191ac67bce7d7fd638a71638cffcdc427816e46b56193ad7fe1641ff97b38a",
    },
    "udp_unidirectional": {
        "events.csv":
            "7e11f3a9ecfa137bb17486f58e66dd0c2400433a73a7e49b53f9446cc7372d22",
        "summary.json":
            "3671ca0fc8eba6d7384ee3f76380980b4a6a526215d9df64dbc4aea41699d544",
        "throughput_ClientA_to_Master.csv":
            "dfb0cda5865e31d2440e7d87c79dd3df38c20071d6bc071c78c46f91a75a4163",
    },
}

# sha256 of the SNR trace that ``record-trace`` writes for each analytic
# scenario (replay scenarios cannot be recorded)
RECORDED = {
    "logdist_fading":
        "c9ac192406bdb586aadfbd6aff85c08c0adf0f91cc656e92887db92c9eeadb2c",
    "ping_idle_link":
        "2fd50a4e99ecfd7fce3f712af756f9a8982c5ff739ba8b503f5a7d3b8e704c7d",
    "udp_bidirectional":
        "375cf913b740013254c5db8da4b771b239a85bc4d1134fb0e170eea7eb7ac9db",
    "udp_unidirectional":
        "49f9d2e64bd319a75c842c9a884fce49105eca0db2398250556b9d140c18ac76",
}

# sha256 of the events.csv of logged 2 s runs that no bundled scenario covers
LOGGED = {
    "logdist_fading_gain":
        "039d47e94c581c4cec624683bb2b6b738710e8f4cd3fb88749b4378e9269cb30",
    "udp_and_ping_one_queue":
        "7c744ee92e44af7015ab78312b63e6882257ecb22c4aa84cc06fd2f6d3bf3eff",
    "udp_bidirectional_40mbps":
        "71d8d7904819dbfed99d496d488157caa4b3c9dc4221e0975d1514ff548068c6",
    "udp_bidirectional_queue_1":
        "1af8508bf2e5bfeb0b44fe6c2708fa955f767998fd2569e41d41636aabb1570f",
    "walk_bidirectional_lossy":
        "175b959b0ed4d50cc4cb896b640d0731f11b585acfd385894ed8e58ddd9622b0",
    "walk_friis":
        "79b9e64d1d94141d8e60b24d29966cc045397ccc6606709f2ac35fb6c2270c9d",
    "walk_logdist_fading":
        "594269659cfa316f273b8ef94e13b444a36ff665f631c274ad3d4792e5182898",
}


# sha256 of summary.json of a 3 s udp_bidirectional run. Its mean
# throughput sums per-second floats whose left-to-right sum differs in the
# last digit from the compensated sum() of CPython 3.12 and later.
BIDI_3S_SUMMARY = \
    "f8b3672659b34bd69cb9dcd18b31e1b1c7c1cb236364ad5e41e4ccb6282b56bb"


def bundled(name, **overrides):
    cfg = parse_config(SCENARIOS / f"{name}.ini")
    return replace(cfg, duration_s=int(DURATION_S), **overrides)


def udp_and_ping_one_queue(out: Path) -> None:
    """A saturating UDP source and a ping app feed one station's queue."""
    cfg = bundled("udp_unidirectional", queue_capacity=8)
    built = build(cfg)
    channel = Channel(built.spec, built.mobility, cfg.seed)
    engine = EventQueue()
    end_us = cfg.duration_s * 1_000_000
    out.mkdir()
    with open(out / "events.csv", "w", encoding="utf-8", newline="") as fh:
        st_src, st_dst = build_point_to_point(
            engine, channel, built.dcf, cfg.seed, cfg.src, cfg.dst,
            rate_control_factory=built.rate_control,
            event_log=CsvEventLog(fh))
        UdpSource(engine, st_src, built.udp_flows[0], "udp")
        PingApp(engine, st_src, st_dst,
                PingConfig(cfg.src, cfg.dst, interval_us=997, stop_us=end_us),
                "ping")
        engine.run_until(end_us)


# ClientA walks 5 -> 70 -> 5 m away from Master and back over a 2 s run
WALK = ("t_us,node,x_m,y_m,z_m\n0,Master,0,0,0\n0,ClientA,5,0,0\n"
        "1000000,ClientA,70,0,0\n2000000,ClientA,5,0,0\n")


def walk(out: Path, name: str = "udp_unidirectional", **overrides):
    """A logged run of a bundled scenario over WALK, written next to out;
    returns its SimRun."""
    path = out.parent / "walk.csv"
    path.write_text(WALK, encoding="utf-8")
    return execute_run(bundled(name, nodes=None, mobility_file=path,
                               **overrides), out)[0]


def gain_fading(out: Path) -> None:
    """logdist_fading with the one link-budget setting at a non-default
    value, set in the config text."""
    text = (SCENARIOS / "logdist_fading.ini").read_text(encoding="utf-8")
    path = out.parent / "gain.ini"
    path.write_text(text + "\n[radio]\nrf_gain_db_per_end = -3.5\n",
                    encoding="utf-8")
    execute_run(replace(parse_config(path), duration_s=int(DURATION_S)), out)


def lossy_walk(out: Path) -> None:
    """Two faded flows over WALK with a short retry chain and queue: the
    log holds every branch of a DATA+ACK exchange."""
    run = walk(out, "udp_bidirectional", model="logdist", gamma=3.0,
               nakagami_m=1.0, retry_limit=2, queue_capacity=4)
    rows = (out / "events.csv").read_text(encoding="utf-8").splitlines()[1:]
    branches = Counter()
    for row in rows:
        _, _, event, kind, *_, outcome = row.split(",")
        branches[event, kind, outcome] += 1
    assert branches["rx", "data", COLLIDED] > 0
    assert branches["rx", "data", CORRUPTED] > 0
    assert branches["rx", "ack", CORRUPTED] > 0   # a lost ACK
    assert branches["drop", "data", "retry_limit"] > 0
    assert sum(st.duplicates_suppressed for st in run.stats.values()) > 0


LOGGED_RUNS = {
    # a faded link budget at rf_gain_db_per_end = -3.5 dB
    "logdist_fading_gain": gain_fading,
    # both producers enqueue and meet a full queue throughout
    "udp_and_ping_one_queue": udp_and_ping_one_queue,
    # 294 µs gap: arrivals tie with 54 Mbit/s dequeues and are dropped
    "udp_bidirectional_40mbps": lambda out: execute_run(
        bundled("udp_bidirectional", offered_load_bps=40e6), out),
    # every arrival during an exchange meets a full queue
    "udp_bidirectional_queue_1": lambda out: execute_run(
        bundled("udp_bidirectional", queue_capacity=1), out),
    # a moving node: free space, no fading
    "walk_friis": walk,
    # a moving node with a Nakagami draw per frame
    "walk_logdist_fading": lambda out: walk(out, model="logdist", gamma=3.0,
                                            nakagami_m=1.0),
    # two faded flows: collisions, corrupted data, lost ACKs, retry-limit
    # drops and suppressed duplicates
    "walk_bidirectional_lossy": lossy_walk,
}


def test_every_bundled_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.ini")) == sorted(GOLDEN)
    analytic = [p.stem for p in SCENARIOS.glob("*.ini")
                if parse_config(p).model != "trace"]
    assert sorted(analytic) == sorted(RECORDED)


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_golden_outputs(tmp_path, scenario):
    out = tmp_path / "out"
    assert cli.main(["run", str(SCENARIOS / f"{scenario}.ini"),
                     "--out-dir", str(out), "--duration", DURATION_S]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir()) if path.name != "manifest.json"
    }
    assert digests == GOLDEN[scenario]


@pytest.mark.parametrize("scenario", sorted(RECORDED))
def test_golden_recorded_trace(tmp_path, scenario):
    out = tmp_path / "trace.csv"
    assert cli.main(["record-trace", str(SCENARIOS / f"{scenario}.ini"),
                     "-o", str(out), "--duration", DURATION_S]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORDED[scenario]


def test_summary_is_identical_on_every_python(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", str(SCENARIOS / "udp_bidirectional.ini"),
                     "--out-dir", str(out), "--duration", "3"]) == 0
    digest = hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
    assert digest == BIDI_3S_SUMMARY


@pytest.mark.parametrize("case", sorted(LOGGED))
def test_golden_logged_paths(tmp_path, case):
    out = tmp_path / "out"
    LOGGED_RUNS[case](out)
    digest = hashlib.sha256((out / "events.csv").read_bytes()).hexdigest()
    assert digest == LOGGED[case]
