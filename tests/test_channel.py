"""Propagation models, noise accounting, fading, and SNR composition."""

import math
import random

import pytest

from linksim.channel import (Channel, PropagationSpec, RadioParams,
                             apply_nakagami, dbm_to_w, friis_path_loss,
                             link_snr, log_distance_path_loss,
                             noise_power_dbm, w_to_dbm)
from linksim.engine import RngStream
from linksim.traces import (DirectedLink, MobilityTrace, SnrTrace, Waypoint,
                            parse_snr_trace)

AB = DirectedLink("A", "B")
BA = DirectedLink("B", "A")
F = 5.22e9


def static_mobility(d_m: float) -> MobilityTrace:
    return MobilityTrace.static({"A": (0, 0, 0), "B": (d_m, 0, 0)})


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


def test_nakagami_zero_power():
    rng = RngStream(1, "fading.t")
    assert all(apply_nakagami(0.0, 1.25, rng) == 0.0 for _ in range(10))


def test_nakagami_mean_and_variance():
    rng = RngStream(2, "fading.mc")
    n = 200_000
    for m in (0.5, 1.25, 5.0):
        total = 0.0
        total_sq = 0.0
        for _ in range(n):
            x = apply_nakagami(1.0, m, rng)
            total += x
            total_sq += x * x
        mean = total / n
        var = total_sq / n - mean * mean
        assert abs(mean - 1.0) < 0.01
        assert abs(var / mean ** 2 - 1.0 / m) < 0.05 / m


def test_nakagami_large_m_is_nearly_deterministic():
    rng = RngStream(3, "fading.large")
    n = 20_000
    draws = [apply_nakagami(2.5, 1e4, rng) for _ in range(n)]
    mean = sum(draws) / n
    var = sum((x - mean) ** 2 for x in draws) / n
    assert var / mean ** 2 < 1e-3


def test_nakagami_validation():
    rng = RngStream(4, "fading.v")
    with pytest.raises(ValueError):
        apply_nakagami(-1.0, 1.25, rng)
    with pytest.raises(ValueError):
        apply_nakagami(1.0, 0.4, rng)


def test_radio_params_bounds():
    with pytest.raises(ValueError):
        RadioParams(tx_power_dbm=18.0)
    with pytest.raises(ValueError):
        RadioParams(bandwidth_hz=0.0)


def test_propagation_spec_validation():
    trace = parse_snr_trace("t_us,tx,rx,snr_db\n0,A,B,23.5\n")
    with pytest.raises(ValueError, match="no fading overlay"):
        PropagationSpec("trace", trace=trace, nakagami_m=1.25)
    with pytest.raises(ValueError):
        PropagationSpec("trace")
    with pytest.raises(ValueError):
        PropagationSpec("friis", trace=trace)
    with pytest.raises(ValueError):
        PropagationSpec("logdist", gamma=-1.0)
    with pytest.raises(ValueError):
        PropagationSpec("warp")


def test_link_snr_trace_replay_is_verbatim():
    trace = parse_snr_trace(
        "t_us,tx,rx,snr_db\n1000000,A,B,23.5\n2000000,A,B,19.25\n"
    )
    spec = PropagationSpec("trace", trace=trace)
    params = RadioParams()
    mob = static_mobility(6.0)
    assert link_snr(spec, params, AB, mob, 1_000_000) == 23.5
    assert link_snr(spec, params, AB, mob, 1_500_000) == 23.5
    assert link_snr(spec, params, AB, mob, 2_000_000) == 19.25


def test_link_snr_friis_composition():
    spec = PropagationSpec("friis")
    params = RadioParams(tx_power_dbm=17.0, rf_gain_db_per_end=-7.0,
                         noise_figure_db=7.0)
    got = link_snr(spec, params, AB, static_mobility(6.0), 0)
    assert got == pytest.approx(34.6255, abs=1e-3)


def test_link_snr_monotone_in_distance():
    spec = PropagationSpec("friis")
    params = RadioParams()
    prev = math.inf
    for d in range(1, 120):
        snr = link_snr(spec, params, AB, static_mobility(float(d)), 0)
        assert snr < prev
        prev = snr


def test_link_snr_fading_preserves_mean_linear_snr():
    spec = PropagationSpec("friis", nakagami_m=1.25)
    params = RadioParams()
    mob = static_mobility(6.0)
    base = link_snr(PropagationSpec("friis"), params, AB, mob, 0)
    rng = RngStream(11, "fading.A->B")
    n = 200_000
    total = 0.0
    for _ in range(n):
        total += 10 ** (link_snr(spec, params, AB, mob, 0, rng) / 10)
    assert abs(total / n / 10 ** (base / 10) - 1.0) < 0.01


def test_channel_fading_stream_is_per_link_and_seeded():
    spec = PropagationSpec("friis", nakagami_m=1.25)

    def draws(seed):
        ch = Channel(spec, RadioParams(), static_mobility(6.0))
        ch.bind_seed(seed)
        return [ch.snr(AB, 0) for _ in range(50)]

    assert draws(1) == draws(1)
    assert draws(1) != draws(2)


def test_bind_seed_restarts_a_static_faded_link():
    ch = Channel(PropagationSpec("friis", nakagami_m=1.25), RadioParams(),
                 static_mobility(6.0))
    ch.prepare(AB)

    def draws(seed):
        ch.bind_seed(seed)
        return [ch.snr(AB, 0) for _ in range(50)]

    first = draws(1)
    assert draws(2) != first
    assert draws(1) == first


def moving_mobility() -> MobilityTrace:
    """B moves away from A, from 6 m at t = 0 to 60 m at t = 1 s."""
    return MobilityTrace({
        "A": [Waypoint(0, 0.0, 0.0, 0.0)],
        "B": [Waypoint(0, 6.0, 0.0, 0.0), Waypoint(1_000_000, 60.0, 0.0, 0.0)],
    })


def random_trace() -> SnrTrace:
    rng = random.Random(9)
    times = sorted(rng.sample(range(1, 1_000_000), 200))
    return SnrTrace({AB: (times, [rng.uniform(-5, 40) for _ in times]),
                     BA: ([500], [12.5])})


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
    """Every SNR source equals link_snr (snr_at for a replay) bit for bit,
    whether bind_seed comes before prepare, after it, or without it."""
    spec, mobility = SOURCE_KINDS[kind]()
    params = RadioParams()
    # a link budget computed once, in prepare
    budget = spec.model != "trace" and mobility.is_static("B")
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

    for order in ("bind_then_prepare", "prepare_then_bind", "unprepared"):
        ch = Channel(spec, params, mobility)
        if order == "bind_then_prepare":
            ch.bind_seed(5)
        if order != "unprepared":
            for link in (AB, BA):
                ch.prepare(link)
        if order == "bind_then_prepare" and budget:
            assert len(lookups) == 2    # one per link, in prepare
        if order != "bind_then_prepare":
            ch.bind_seed(5)
        for _ in range(2):          # a second bind_seed repeats the draws
            before = len(lookups)
            fast = {link: [ch.snr(link, t) for t in times]
                    for link in (AB, BA)}
            if budget and order != "unprepared":
                assert len(lookups) == before   # no per-frame geometry
            for link in (AB, BA):
                assert [x.hex() for x in fast[link]] == hexes[link], order
            ch.bind_seed(5)
        lookups.clear()


def test_replayed_link_snr_is_snr_at_bit_for_bit():
    rng = random.Random(9)
    times = sorted(rng.sample(range(1, 1_000_000), 200))
    trace = SnrTrace({AB: (times, [rng.uniform(-5, 40) for _ in times]),
                      BA: ([500], [12.5])})
    ch = Channel(PropagationSpec("trace", trace=trace), RadioParams(),
                 static_mobility(6.0))
    for link in (AB, BA):
        ch.prepare(link)
    queries = [0, 2_000_000, *times, *(t - 1 for t in times),
               *(t + 1 for t in times)]
    expected = {link: [trace.snr_at(link, t) for t in queries]
                for link in (AB, BA)}
    trace.snr_at = None     # a prepared link reads its table, not the trace
    for link in (AB, BA):
        assert [ch.snr(link, t) for t in queries] == expected[link]


def test_moving_node_snr_changes_over_time():
    mobility = MobilityTrace({
        "A": [Waypoint(0, 0.0, 0.0, 0.0)],
        "B": [Waypoint(0, 6.0, 0.0, 0.0), Waypoint(1_000_000, 60.0, 0.0, 0.0)],
    })
    spec = PropagationSpec("friis")
    ch = Channel(spec, RadioParams(), mobility)
    ch.prepare(AB)
    snrs = [ch.snr(AB, t) for t in (0, 500_000, 1_000_000)]
    assert snrs[0] > snrs[1] > snrs[2]
    assert snrs == [link_snr(spec, RadioParams(), AB, mobility, t)
                    for t in (0, 500_000, 1_000_000)]


@pytest.mark.parametrize("spec, d_m", [
    (PropagationSpec("friis"), 0.3),
    (PropagationSpec("logdist", gamma=3.0, ref_distance_m=10.0), 6.0),
])
def test_prepare_rejects_static_nodes_too_close(spec, d_m):
    ch = Channel(spec, RadioParams(), static_mobility(d_m))
    with pytest.raises(ValueError, match="below reference distance"):
        ch.prepare(AB)


def test_dbm_w_round_trip():
    for dbm in (-90.0, 0.0, 17.0):
        assert w_to_dbm(dbm_to_w(dbm)) == pytest.approx(dbm, abs=1e-9)
