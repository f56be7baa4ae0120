"""PHY mode table, airtime, and the SNR->BER->frame-success chain.

The error model is checked three ways: against an independently transcribed
scipy implementation of the same published formulas, against frozen
success=0.5 crossing SNRs computed with that oracle, and against a hard
-decision Viterbi Monte Carlo of the actual K=7 code (ground truth for the
union bound's distance spectrum).
"""

import math
import random

import numpy as np
import pytest
from scipy.special import erfc

from linksim import phy
from linksim.engine import RngStream
from linksim.phy import (MODES, Modulation, bit_error_rate, frame_duration_us,
                         frame_success_probability, mode_for_rate, receive)

# -- independent oracle (scipy-based, transcribed separately from src) ------

_ORACLE_SPECTRA = {
    "1/2": (0.5, 10, 2, (36, 211, 1404, 11633, 77433, 502690, 3322763,
                         21292910, 134365911, 843425871)),
    "2/3": (0.25, 6, 1, (3, 70, 285, 1276, 6160, 27128, 117019,
                         498860, 2103891, 8784123)),
    "3/4": (1 / 6, 5, 1, (42, 201, 1492, 10469, 62935, 379644, 2253373,
                          13073811, 75152755, 428005675)),
}

_ORACLE_BER = {
    Modulation.BPSK: lambda s: 0.5 * erfc(np.sqrt(s)),
    Modulation.QPSK: lambda s: 0.5 * erfc(np.sqrt(s / 2)),
    Modulation.QAM16: lambda s: 0.375 * erfc(np.sqrt(s / 10)),
    Modulation.QAM64: lambda s: (7 / 24) * erfc(np.sqrt(s / 42)),
}


def oracle_success(snr_db, mode, payload_bytes):
    p = min(float(_ORACLE_BER[mode.modulation](10 ** (snr_db / 10))), 0.5)
    if p == 0.0:
        return 1.0
    scale, dfree, step, coeffs = _ORACLE_SPECTRA[mode.coding_rate]
    d = math.sqrt(4 * p * (1 - p))
    pe = min(scale * sum(a * d ** (dfree + i * step)
                         for i, a in enumerate(coeffs)), 1.0)
    return (1 - pe) ** (8 * payload_bytes)


# success=0.5 crossing SNR (dB) per mode at 1472 B, bisected with the oracle
CROSSING_SNR_DB = [3.416843, 6.278601, 6.427143, 9.288901,
                   12.906437, 16.002959, 20.746743, 21.980767]


def test_mode_table_is_the_80211a_set():
    assert [m.data_rate_mbps for m in MODES] == [6, 9, 12, 18, 24, 36, 48, 54]
    assert [m.n_dbps for m in MODES] == [24, 36, 48, 72, 96, 144, 192, 216]
    for m in MODES:
        assert m.n_dbps == m.data_rate_mbps * 4
    assert mode_for_rate(54) is MODES[7]
    with pytest.raises(ValueError):
        mode_for_rate(11)


def test_frame_duration_examples():
    assert frame_duration_us(1500, mode_for_rate(54)) == 244
    assert frame_duration_us(1500, mode_for_rate(6)) == 2024
    assert frame_duration_us(0, mode_for_rate(54)) == 24
    for m in MODES:
        assert frame_duration_us(0, m) == 20 + 4 * math.ceil(22 / m.n_dbps)
    with pytest.raises(ValueError):
        frame_duration_us(-1, MODES[0])


def test_frame_duration_monotonicity():
    for payload in (40, 200, 1472):
        durs = [frame_duration_us(payload, m) for m in MODES]
        assert durs == sorted(durs, reverse=True)
    for m in MODES:
        durs = [frame_duration_us(p, m) for p in range(0, 2000, 50)]
        assert all(b > a for a, b in zip(durs, durs[1:]))


def test_ber_reference_points():
    assert bit_error_rate(0.0, Modulation.BPSK) == 0.5
    assert bit_error_rate(4.0, Modulation.BPSK) == pytest.approx(
        0.0023388674905236, rel=1e-12)
    for mod in Modulation:
        assert bit_error_rate(1e6, mod) < 1e-12
    with pytest.raises(ValueError):
        bit_error_rate(-0.1, Modulation.BPSK)


def test_ber_matches_scipy_oracle():
    for mod in Modulation:
        for snr_db in np.arange(-10, 40, 0.5):
            lin = 10 ** (snr_db / 10)
            expected = min(float(_ORACLE_BER[mod](lin)), 0.5)
            assert bit_error_rate(lin, mod) == pytest.approx(
                expected, rel=1e-12, abs=1e-300)


def test_success_limits():
    for m in MODES:
        assert frame_success_probability(60.0, m, 1472) >= 0.999999
    assert frame_success_probability(-10.0, mode_for_rate(54), 1472) <= 1e-6


def test_success_matches_oracle_on_grid():
    for m in MODES:
        for snr_db in np.arange(-5.0, 30.0, 0.5):
            got = frame_success_probability(float(snr_db), m, 1472)
            want = oracle_success(float(snr_db), m, 1472)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_success_length_identity():
    for m in MODES:
        snr = CROSSING_SNR_DB[m.id] + 0.3
        single = frame_success_probability(snr, m, 1472)
        double = frame_success_probability(snr, m, 2944)
        assert double == pytest.approx(single ** 2, rel=1e-9)


def test_success_crossing_regression():
    for m in MODES:
        p = frame_success_probability(CROSSING_SNR_DB[m.id], m, 1472)
        assert abs(p - 0.5) < 1e-3, f"mode {m}: {p}"


def test_success_monotone_in_snr():
    # receive's bracket table rests on this: no decrease at all on a 0.001 dB
    # grid, for the frame sizes a run receives (1528 B data, 14 B ACK) and two
    # others
    grid = [x / 1000.0 for x in range(-30_000, 70_001)]
    for m in MODES:
        for nbytes in (14, 1001, 1472, 1528):
            prev = -1.0
            for snr_db in grid:
                p = frame_success_probability(snr_db, m, nbytes)
                assert p >= prev, (str(m), nbytes, snr_db)
                prev = p


def test_rate_ordering_at_crossings():
    # pairs where both modulation order and coding rate are non-decreasing
    comparable = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4),
                  (3, 5), (4, 5), (4, 6), (5, 7), (6, 7)]
    for slow, fast in comparable:
        assert CROSSING_SNR_DB[slow] < CROSSING_SNR_DB[fast]
        mid = 0.5 * (CROSSING_SNR_DB[slow] + CROSSING_SNR_DB[fast])
        assert (frame_success_probability(mid, MODES[slow], 1472)
                > frame_success_probability(mid, MODES[fast], 1472))


def test_receive_deterministic_regimes():
    rng = RngStream(1, "phy.rx.t")
    for _ in range(200):
        assert receive(1472, mode_for_rate(54), 60.0, rng) == phy.DELIVERED
    for _ in range(200):
        assert receive(1472, mode_for_rate(54), -10.0, rng) == phy.CORRUPTED


def test_receive_reproducible():
    outcomes = []
    for _ in range(2):
        rng = RngStream(77, "phy.rx.A->B")
        outcomes.append([receive(1472, MODES[4], 12.9, rng) for _ in range(500)])
    assert outcomes[0] == outcomes[1]


def test_receive_empirical_rate_matches_probability():
    trials = 100_000
    for mode, snr_db in [(MODES[4], 12.92), (MODES[7], 22.0), (MODES[2], 6.5)]:
        p = frame_success_probability(snr_db, mode, 1472)
        assert 0.05 < p < 0.999
        rng = RngStream(5, f"phy.rx.mc.{mode.id}")
        hits = sum(receive(1472, mode, snr_db, rng) == phy.DELIVERED
                   for _ in range(trials))
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 3 * sigma + 1e-9



def test_repeated_snrs_decide_as_the_draw_below_p():
    # SNRs that repeat and change, at modes and sizes where p is in between
    snrs = [12.92, 12.92, 12.92, 13.4, 13.4, 12.92, 22.0, 6.5, 6.5, 12.92]
    pairs = [(MODES[4], 1472), (MODES[7], 1472), (MODES[2], 14),
             (MODES[4], 1528)]
    rx = RngStream(9, "phy.rx.repeat")
    plain = RngStream(9, "phy.rx.repeat")
    outcomes = set()
    for i in range(2000):
        mode, nbytes = pairs[i // 7 % len(pairs)]
        snr_db = snrs[i % len(snrs)]
        p = frame_success_probability(snr_db, mode, nbytes)
        want = phy.DELIVERED if plain.random() < p else phy.CORRUPTED
        assert receive(nbytes, mode, snr_db, rx) == want
        outcomes.add(want)
    assert outcomes == {phy.DELIVERED, phy.CORRUPTED}
    assert rx.random() == plain.random()   # one draw per reception


class _Draw:
    """A stream whose every draw is u; counts the draws taken."""

    def __init__(self, u: float):
        self.u = u
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self.u


def _bracket_snrs(rng: random.Random) -> list[float]:
    edges = [k / 10.0 for k in range(-300, 701, 3)]
    return ([rng.uniform(-30.0, 70.0) for _ in range(150)]
            + [rng.uniform(-30.0, 0.0) for _ in range(20)]    # p ~ 0
            + [rng.uniform(45.0, 70.0) for _ in range(20)]    # ber == 0
            + edges
            + [math.nextafter(e, -math.inf) for e in edges]
            + [math.nextafter(e, math.inf) for e in edges])


def test_bracketed_receive_decides_as_the_exact_error_model(monkeypatch):
    monkeypatch.setattr(phy, "_BRACKETS", {})   # filled from empty here
    rng = random.Random(20100)
    seen = {"below": 0, "between": 0, "above": 0, "ber0": 0, "p0": 0,
            "no bin": 0}
    for mode in MODES:
        for nbytes in (1528, 14, 1001):
            for snr_db in _bracket_snrs(rng):
                p = frame_success_probability(snr_db, mode, nbytes)
                seen["ber0"] += p == 1.0
                seen["p0"] += p == 0.0
                us = [rng.random(), rng.random(), 0.0, p,
                      max(p - 1e-12, 0.0), min(p + 1e-12, 1.0),
                      math.nextafter(p, -math.inf), math.nextafter(p, 2.0)]
                bin_key = (mode.id, nbytes, snr_db * 10.0 // 1.0)
                edges = phy._BRACKETS.get(bin_key)
                if edges is not None:
                    us += [*edges, math.nextafter(edges[0], -math.inf),
                           math.nextafter(edges[1], 2.0)]
                for u in us:
                    want = phy.DELIVERED if u < p else phy.CORRUPTED
                    draw = _Draw(u)
                    assert receive(nbytes, mode, snr_db, draw) == want, \
                        (str(mode), nbytes, snr_db, u)
                    assert draw.draws == 1
                    if bin_key not in phy._BRACKETS:   # p >= 1 - eps here
                        assert snr_db >= 27.7 and u < 1.0 - phy._BRACKET_EPS
                        seen["no bin"] += 1
                        continue
                    low, high = phy._BRACKETS[bin_key]
                    seen["below" if u < low else
                         "above" if u >= high else "between"] += 1
    # every branch of the table ran, and both ends of the error model
    assert min(seen.values()) > 100, seen


def test_a_repeated_snr_drawn_outside_its_bin_computes_no_p(monkeypatch):
    monkeypatch.setattr(phy, "_BRACKETS", {})
    exact = phy.frame_success_probability
    calls = []

    def counted(*args):
        calls.append(args)
        return exact(*args)
    monkeypatch.setattr(phy, "frame_success_probability", counted)
    mode, snr_db = MODES[4], 12.92
    receive(1472, mode, snr_db, _Draw(0.5))   # fills the bin's two edges
    low, high = phy._BRACKETS[(mode.id, 1472, snr_db * 10.0 // 1.0)]
    assert 0.0 < low < high < 1.0
    calls.clear()
    for _ in range(3):   # a held trace sample or a static link
        assert receive(1472, mode, snr_db, _Draw(low / 2)) == phy.DELIVERED
        assert receive(1472, mode, snr_db, _Draw((high + 1.0) / 2)) \
            == phy.CORRUPTED
    assert calls == []


def test_an_infinite_snr_is_decided_exactly_and_not_tabled(monkeypatch):
    monkeypatch.setattr(phy, "_BRACKETS", {})
    for snr_db, want in ((math.inf, phy.DELIVERED),
                         (-math.inf, phy.CORRUPTED)):
        for _ in range(3):
            assert receive(1528, MODES[7], snr_db, _Draw(0.5)) == want
    assert phy._BRACKETS == {}


def test_an_snr_too_large_for_a_float_is_evaluated_at_the_cap(monkeypatch):
    # 10 ** (snr_db / 10) overflows above ~3,083 dB; p is exactly 1.0 for
    # every mode and frame size from 27.7 dB, so the cap changes no p
    monkeypatch.setattr(phy, "_BRACKETS", {})
    for m in MODES:
        for nbytes in range(14, 2329):   # an ACK up to the largest MPDU
            assert frame_success_probability(27.7, m, nbytes) == 1.0
        assert frame_success_probability(1e308, m, 2328) == 1.0
        assert receive(1528, m, 5000.0, _Draw(0.999)) == phy.DELIVERED


def test_a_sure_delivery_fills_no_bin(monkeypatch):
    # from 27.7 dB p >= 1 - eps, so a u below 1 - eps needs no bin; a u at
    # or above it still takes the table, which decides it as u < p
    monkeypatch.setattr(phy, "_BRACKETS", {})
    below = math.nextafter(1.0 - phy._BRACKET_EPS, 0.0)
    for m in MODES:
        for snr_db in (27.7, 40.0, 5000.0, math.inf):
            assert receive(2328, m, snr_db, _Draw(below)) == phy.DELIVERED
    assert phy._BRACKETS == {}
    for u, want in ((1.0 - phy._BRACKET_EPS, phy.DELIVERED),
                    (1.0, phy.CORRUPTED)):
        assert receive(2328, MODES[7], 27.7, _Draw(u)) == want
    assert list(phy._BRACKETS) == [(7, 2328, 277.0)]


def test_faded_receptions_match_the_plain_path_and_bound_the_table(
        monkeypatch):
    monkeypatch.setattr(phy, "_BRACKETS", {})
    rx, plain = RngStream(8, "phy.rx.grow"), RngStream(8, "phy.rx.grow")
    fading = RngStream(8, "fading.grow")
    bins, outcomes = set(), set()
    for i in range(5000):
        # Nakagami m = 1.25 around 18 dB, data and ACK as in a faded run
        snr_db = 10.0 * math.log10(
            fading._rng.gammavariate(1.25, 10 ** 1.8 / 1.25))
        mode, nbytes = (MODES[i % 2 + 5], 1528) if i % 3 else (MODES[4], 14)
        p = frame_success_probability(snr_db, mode, nbytes)
        want = phy.DELIVERED if plain.random() < p else phy.CORRUPTED
        assert receive(nbytes, mode, snr_db, rx) == want
        outcomes.add(want)
        bins.add((mode.id, nbytes, math.floor(snr_db * 10.0)))
    assert outcomes == {phy.DELIVERED, phy.CORRUPTED}
    assert rx.random() == plain.random()   # one draw per reception
    assert len(phy._BRACKETS) == len(bins)
    # one entry per 0.1 dB bin that a draw fell in, not one per reception
    assert len(phy._BRACKETS) < 700

# -- exact trellis enumeration of the K=7 (133, 171) code -------------------

_PUNCTURE = {
    "1/2": ((1, 1),),
    "2/3": ((1, 1), (1, 0)),
    "3/4": ((1, 1), (1, 0), (0, 1)),
}


def _bit_weight_spectrum(rate: str, max_weight: int,
                         max_steps: int = 20_000) -> dict[int, int]:
    """Exact per-period bit-weight distance spectrum of the K=7 code.

    Enumerates every error event on the period-aggregated trellis (events
    may diverge at any phase inside one puncture period and end at the first
    state-0 return on a period boundary), accumulating the number of
    information-bit errors per output Hamming weight.
    """
    g0, g1 = 0o133, 0o171
    outs = {}
    nxt = {}
    for s in range(64):
        for b in (0, 1):
            reg = (b << 6) | s
            outs[s, b] = (bin(reg & g0).count("1") & 1,
                          bin(reg & g1).count("1") & 1)
            nxt[s, b] = reg >> 1
    pattern = _PUNCTURE[rate]
    period = len(pattern)
    arrivals: dict[int, list[int]] = {}
    frontier: dict[tuple[int, int, int], list[int]] = {}
    for phase in range(period):
        keep = pattern[phase]
        a, b_out = outs[0, 1]
        w0 = a * keep[0] + b_out * keep[1]
        cell = frontier.setdefault((nxt[0, 1], (phase + 1) % period, w0), [0, 0])
        cell[0] += 1
        cell[1] += 1
    for _ in range(max_steps):
        if not frontier:
            break
        new: dict[tuple[int, int, int], list[int]] = {}
        for (s, ph, w), (cnt, ones) in frontier.items():
            keep = pattern[ph]
            for b in (0, 1):
                a, b_out = outs[s, b]
                w2 = w + a * keep[0] + b_out * keep[1]
                if w2 > max_weight:
                    continue
                s2 = nxt[s, b]
                ph2 = (ph + 1) % period
                if s2 == 0 and ph2 == 0:
                    cell = arrivals.setdefault(w2, [0, 0])
                else:
                    cell = new.setdefault((s2, ph2, w2), [0, 0])
                cell[0] += cnt
                cell[1] += ones + b * cnt
        frontier = new
    assert not frontier, "path enumeration did not terminate"
    return {w: ones for w, (cnt, ones) in sorted(arrivals.items())}


@pytest.mark.parametrize("rate", ["1/2", "2/3", "3/4"])
def test_code_tables_match_exact_enumeration(rate):
    """Both transcriptions of the distance spectra equal the real code's."""
    from linksim.phy import _CODE_TABLE
    for table in (_ORACLE_SPECTRA, _CODE_TABLE):
        scale, dfree, step, coeffs = table[rate]
        spectrum = _bit_weight_spectrum(rate, dfree + step * 9)
        assert min(spectrum) == dfree
        assert [spectrum.get(dfree + i * step, 0) for i in range(10)] \
            == list(coeffs)


def test_free_distance_ordering():
    from linksim.phy import _CODE_TABLE
    assert [_CODE_TABLE[r][1] for r in ("1/2", "2/3", "3/4")] == [10, 6, 5]
    assert [_CODE_TABLE[r][0] for r in ("1/2", "2/3", "3/4")] \
        == [1 / 2, 1 / 4, 1 / 6]
