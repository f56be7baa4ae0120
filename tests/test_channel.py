"""Propagation models, noise accounting, fading, and SNR composition."""

import csv
import math
import random
from pathlib import Path

import pytest

from linksim import scenario
from linksim.channel import (Channel, PropagationSpec, RadioParams,
                             dbm_to_w, faded_snr, friis_path_loss,
                             log_distance_path_loss, mean_rx_power_dbm,
                             noise_power_dbm, w_to_dbm)
from linksim.engine import RngStream
from linksim.record import replace
from linksim.scenario import (UDP_BIDI, ConfigError, ScenarioConfig, build,
                              execute_run, parse_config)
from linksim.traces import DirectedLink, MobilityTrace, SnrTrace, parse_snr_trace
from trace_files import mobility_of

AB = DirectedLink("A", "B")
BA = DirectedLink("B", "A")
F = 5.22e9
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def static_mobility(d_m: float) -> MobilityTrace:
    return MobilityTrace.static({"A": (0, 0, 0), "B": (d_m, 0, 0)})


def apply_nakagami(power_w, m, rng):
    """One Nakagami-m block-fading draw: gamma with shape m, mean power_w.

    The fading draw the channel made before it built every analytic link in
    one place, kept verbatim as an oracle.
    """
    if power_w < 0:
        raise ValueError("power_w must be >= 0")
    if not m >= 0.5:
        raise ValueError("m must be >= 0.5")
    if power_w == 0.0:
        return 0.0
    return rng._rng.gammavariate(m, power_w / m)


def link_snr(spec, params, link, mobility, t_us, fading_rng=None):
    """Receiver SNR in dB for one frame on link at t_us, of an analytic model.

    The per-frame SNR the channel computed before it built every analytic
    link in one place, kept verbatim as an oracle.
    """
    d_m = mobility.link_distance(link.tx, link.rx, t_us)
    rx_dbm = mean_rx_power_dbm(spec, params, d_m)
    if spec.nakagami_m is not None:
        if fading_rng is None:
            raise ValueError("fading configured but no fading stream supplied")
        rx_dbm = w_to_dbm(apply_nakagami(dbm_to_w(rx_dbm), spec.nakagami_m,
                                         fading_rng))
    return rx_dbm - noise_power_dbm(params.bandwidth_hz, params.noise_figure_db)


def fading_draws(m: float, n: int, seed: int) -> list[float]:
    """n rx powers of a static link with Nakagami-m fading, over its mean.

    Each is one Channel.snr draw converted back to linear power and divided
    by the power of the same link without fading.
    """
    mobility = static_mobility(6.0)
    mean_db = Channel(PropagationSpec("friis"), RadioParams(), mobility,
                      seed).snr(AB, 0)
    ch = Channel(PropagationSpec("friis", nakagami_m=m), RadioParams(),
                 mobility, seed)
    return [10 ** ((ch.snr(AB, t) - mean_db) / 10) for t in range(n)]


def test_friis_reference_values():
    assert friis_path_loss(6.0, F) == pytest.approx(62.364218, abs=1e-5)
    assert friis_path_loss(18.0, F) == pytest.approx(71.906643, abs=1e-5)


def test_friis_doubling_adds_6dB():
    for d in (1.0, 6.0, 50.0):
        delta = friis_path_loss(2 * d, F) - friis_path_loss(d, F)
        assert delta == pytest.approx(20 * math.log10(2), abs=1e-12)


def test_friis_near_field_guard():
    with pytest.raises(ValueError, match="below reference distance"):
        friis_path_loss(0.4, F)
    with pytest.raises(ValueError):
        friis_path_loss(6.0, 0.0)


def test_log_distance_gamma2_equals_friis():
    for d in range(1, 201):
        assert abs(log_distance_path_loss(d, 2.0, 1.0, F)
                   - friis_path_loss(d, F)) < 1e-9


def test_log_distance_exponent_arithmetic():
    d0 = 1.0
    base = friis_path_loss(d0, F)
    assert log_distance_path_loss(10 * d0, 1.7, d0, F) == pytest.approx(
        base + 17.0, abs=1e-9)
    assert log_distance_path_loss(10 * d0, 2.5, d0, F) == pytest.approx(
        base + 25.0, abs=1e-9)
    with pytest.raises(ValueError):
        log_distance_path_loss(0.5, 2.0, 1.0, F)


def test_noise_power_values():
    assert noise_power_dbm(20e6, 7.0) == pytest.approx(-93.98970, abs=1e-4)
    assert noise_power_dbm(20e6, 0.0) == pytest.approx(-100.98970, abs=1e-4)
    assert noise_power_dbm(1.0, 0.0) == pytest.approx(-174.0, abs=1e-12)


def test_nakagami_mean_and_variance():
    n = 200_000
    for m in (0.5, 1.25, 5.0):
        total = 0.0
        total_sq = 0.0
        for x in fading_draws(m, n, 2):
            total += x
            total_sq += x * x
        mean = total / n
        var = total_sq / n - mean * mean
        assert abs(mean - 1.0) < 0.01
        assert abs(var / mean ** 2 - 1.0 / m) < 0.05 / m


def test_nakagami_large_m_is_nearly_deterministic():
    n = 20_000
    draws = fading_draws(1e4, n, 3)
    mean = sum(draws) / n
    var = sum((x - mean) ** 2 for x in draws) / n
    assert var / mean ** 2 < 1e-3


@pytest.mark.parametrize("m", [0.5, 0.75, 1.0, 1.25, 3.0])
@pytest.mark.parametrize("moving", [False, True])
def test_faded_snr_kernel_is_gammavariate_bit_for_bit(m, moving):
    """10^5 kernel draws equal gammavariate's, through the same dB step."""
    n = 100_000
    noise_dbm = noise_power_dbm(20e6, 7.0)
    stream, ref = RngStream(4, f"fading.{m}"), RngStream(4, f"fading.{m}")
    if moving:   # a scale per frame, as on a link with a moving end
        pick = random.Random(int(m * 100))
        scales = [10.0 ** pick.uniform(-16.0, -2.0) for _ in range(n - 2)]
        scales += [1e-310, 5e-324]   # draws that the 1e-300 floor clamps
        draw = faded_snr(stream, m, noise_dbm)
        got = [draw(t, scale) for t, scale in enumerate(scales)]
    else:
        scales = [dbm_to_w(-60.0) / m] * n
        draw = faded_snr(stream, m, noise_dbm, scales[0])
        got = [draw(t) for t in range(n)]
    gammavariate = ref._rng.gammavariate
    want = [w_to_dbm(gammavariate(m, scale)) - noise_dbm for scale in scales]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert stream.random() == ref.random()   # the same draws consumed


def test_radio_params_bounds():
    with pytest.raises(ValueError):
        RadioParams(tx_power_dbm=18.0)
    with pytest.raises(ValueError):
        RadioParams(bandwidth_hz=0.0)


def test_propagation_spec_validation():
    # which fields a model takes is the config's rule, tested in
    # test_scenario_cli.py with both paths to a run
    with pytest.raises(ValueError, match="gamma must be > 0"):
        PropagationSpec("logdist", gamma=-1.0)


def test_channel_snr_trace_replay_is_verbatim():
    trace = parse_snr_trace(
        "t_us,tx,rx,snr_db\n1000000,A,B,23.5\n2000000,A,B,19.25\n"
    )
    ch = Channel(PropagationSpec("trace", trace=trace), RadioParams(),
                 static_mobility(6.0), 1)
    assert ch.snr(AB, 1_000_000) == 23.5
    assert ch.snr(AB, 1_500_000) == 23.5
    assert ch.snr(AB, 2_000_000) == 19.25


def test_channel_snr_friis_composition():
    params = RadioParams(tx_power_dbm=17.0, rf_gain_db_per_end=-7.0,
                         noise_figure_db=7.0)
    ch = Channel(PropagationSpec("friis"), params, static_mobility(6.0), 1)
    assert ch.snr(AB, 0) == pytest.approx(34.6255, abs=1e-3)


def test_channel_snr_monotone_in_distance():
    spec = PropagationSpec("friis")
    params = RadioParams()
    prev = math.inf
    for d in range(1, 120):
        snr = Channel(spec, params, static_mobility(float(d)), 1).snr(AB, 0)
        assert snr < prev
        prev = snr


def test_channel_fading_stream_is_per_link_and_seeded():
    spec = PropagationSpec("friis", nakagami_m=1.25)

    def draws(seed):
        ch = Channel(spec, RadioParams(), static_mobility(6.0), seed)
        return [ch.snr(AB, 0) for _ in range(50)]

    assert draws(1) == draws(1)
    assert draws(1) != draws(2)


def moving_mobility() -> MobilityTrace:
    """B moves away from A, from 6 m at t = 0 to 60 m at t = 1 s."""
    return mobility_of({
        "A": [(0, 0.0, 0.0, 0.0)],
        "B": [(0, 6.0, 0.0, 0.0), (1_000_000, 60.0, 0.0, 0.0)],
    })


def random_trace() -> SnrTrace:
    """200 random samples on A->B, one on B->A; repr keeps each exact."""
    rng = random.Random(9)
    times = sorted(rng.sample(range(1, 1_000_000), 200))
    return parse_snr_trace("t_us,tx,rx,snr_db\n" + "".join(
        f"{t},A,B,{rng.uniform(-5, 40)!r}\n" for t in times) + "500,B,A,12.5\n")


FADING = dict(nakagami_m=1.25)
# kind -> (spec, mobility); each kind is one of the channel's SNR sources
SOURCE_KINDS = {
    "friis": lambda: (PropagationSpec("friis"), static_mobility(6.0)),
    "logdist": lambda: (PropagationSpec("logdist", gamma=3.1,
                                        ref_distance_m=2.0),
                        static_mobility(6.0)),
    "logdist_fading": lambda: (PropagationSpec("logdist", gamma=3.1,
                                               ref_distance_m=2.0, **FADING),
                               static_mobility(6.0)),
    # the mean rx power underflows to 0 W, where a fading draw takes none
    "zero_power_fading": lambda: (PropagationSpec("logdist", gamma=1000.0,
                                                  **FADING),
                                  static_mobility(6.0)),
    "replay": lambda: (PropagationSpec("trace", trace=random_trace()),
                       static_mobility(6.0)),
    "moving": lambda: (PropagationSpec("friis"), moving_mobility()),
    "moving_fading": lambda: (PropagationSpec("friis", **FADING),
                              moving_mobility()),
}


@pytest.mark.parametrize("kind", sorted(SOURCE_KINDS))
def test_static_link_snr_is_link_snr_bit_for_bit(kind):
    """Every SNR source equals link_snr (snr_at for a replay) bit for bit."""
    spec, mobility = SOURCE_KINDS[kind]()
    params = RadioParams()
    # a link budget computed once, at the link's first frame
    budget = spec.model != "trace" and len(mobility.track("B")[0]) == 1
    lookups = []
    distance = mobility.link_distance
    mobility.link_distance = lambda *args: lookups.append(args) or distance(*args)
    times = range(0, 1_000_000, 1000)
    expected = {}
    for link in (AB, BA):
        if spec.model == "trace":
            expected[link] = [spec.trace.snr_at(link, t) for t in times]
        else:
            reference = (None if spec.nakagami_m is None
                         else RngStream(5, f"fading.{link}"))
            expected[link] = [link_snr(spec, params, link, mobility, t,
                                       reference) for t in times]
    lookups.clear()
    hexes = {link: [x.hex() for x in expected[link]] for link in (AB, BA)}
    distinct = len(set(expected[AB]))
    if spec.nakagami_m is not None and kind != "zero_power_fading":
        assert distinct == len(times)
    elif budget:
        assert distinct == 1

    ch = Channel(spec, params, mobility, 5)
    fast = {link: [ch.snr(link, t) for t in times] for link in (AB, BA)}
    if budget:
        assert len(lookups) == 2    # one per link, no per-frame geometry
    for link in (AB, BA):
        assert [x.hex() for x in fast[link]] == hexes[link]


def test_replayed_link_snr_is_snr_at_bit_for_bit():
    trace = random_trace()
    times = trace.series(AB)[0]
    ch = Channel(PropagationSpec("trace", trace=trace), RadioParams(),
                 static_mobility(6.0), 1)
    queries = [0, 2_000_000, *times, *(t - 1 for t in times),
               *(t + 1 for t in times)]
    expected = {link: [trace.snr_at(link, t) for t in queries]
                for link in (AB, BA)}
    trace.snr_at = None     # a replayed link reads its table, not the trace
    for link in (AB, BA):
        assert [ch.snr(link, t) for t in queries] == expected[link]


def test_moving_node_snr_changes_over_time():
    mobility = moving_mobility()
    spec = PropagationSpec("friis")
    ch = Channel(spec, RadioParams(), mobility, 1)
    snrs = [ch.snr(AB, t) for t in (0, 500_000, 1_000_000)]
    assert snrs[0] > snrs[1] > snrs[2]
    assert snrs == [link_snr(spec, RadioParams(), AB, mobility, t)
                    for t in (0, 500_000, 1_000_000)]


@pytest.mark.parametrize("model, d_m", [
    (dict(model="friis"), 0.3),
    (dict(model="logdist", gamma=3.0, ref_distance_m=10.0), 6.0),
])
def test_build_rejects_static_nodes_too_close(model, d_m):
    cfg = ScenarioConfig(nodes={"A": (0, 0, 0), "B": (d_m, 0, 0)}, src="A",
                         dst="B", **model)
    with pytest.raises(ConfigError,
                       match="link A->B: below reference distance"):
        build(cfg)


def test_dbm_w_round_trip():
    for dbm in (-90.0, 0.0, 17.0):
        assert w_to_dbm(dbm_to_w(dbm)) == pytest.approx(dbm, abs=1e-9)


def test_each_link_has_one_source_built_once_per_run(tmp_path, monkeypatch):
    # a faded source draws at every call, so each call is one reception:
    # the stations share the two sources and call them at each rx row
    calls = {}
    make = Channel._source

    def counting(self, link):
        assert link not in calls
        source = make(self, link)
        times = calls[link] = []

        def counted(t_us):
            times.append(t_us)
            return source(t_us)
        return counted

    stations = []
    build_pair = scenario.build_point_to_point

    def keeping(*args, **kwargs):
        stations.extend(build_pair(*args, **kwargs))
        return tuple(stations)

    monkeypatch.setattr(Channel, "_source", counting)
    monkeypatch.setattr(scenario, "build_point_to_point", keeping)
    cfg = replace(parse_config(SCENARIOS / "logdist_fading.ini"),
                  traffic_kind=UDP_BIDI, duration_s=1)
    execute_run(cfg, tmp_path / "run")
    master, client = stations
    assert master._tx_snr is client._rx_snr
    assert master._rx_snr is client._tx_snr
    with open(tmp_path / "run" / "events.csv", newline="") as fh:
        rx = [row for row in csv.DictReader(fh) if row["event"] == "rx"]
    received = {}
    for row in rx:
        if row["outcome"] != "collided":
            received.setdefault(row["link"], []).append(int(row["t_us"]))
    assert any(row["outcome"] == "collided" for row in rx)
    assert len(received) == 2
    assert {str(link): times for link, times in calls.items()} == received
