"""Acceptance criteria: one test per criterion, each printing a verdict line.

Run with `pytest -v -s tests/test_acceptance.py` to see every line. All
tolerances are fixed here; sim-based criteria use pinned seeds.
"""

import io
import math

import pytest

from linksim import phy
from linksim.channel import (apply_nakagami, friis_path_loss,
                             log_distance_path_loss)
from linksim.engine import RngStream
from linksim.mac import DcfParams, ack_mode_for
from linksim.metrics import (PerSecondSeries, THROUGHPUT_KBPS, RTT_MEDIAN_MS,
                             accuracy_gain, compare_runs)
from linksim.phy import MODES, frame_duration_us, frame_success_probability
from linksim.scenario import CsvEventLog, ScenarioConfig, build, simulate
from linksim.traces import TraceCsvRecorder

NODES = {"Master": (0.0, 0.0, 0.0), "ClientA": (6.0, 0.0, 0.0)}


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def constant_trace(ab_db: float, ba_db: float) -> str:
    return (f"t_us,tx,rx,snr_db\n0,Master,ClientA,{ab_db}\n"
            f"0,ClientA,Master,{ba_db}\n")


def write_trace(tmp_path, trace_text: str):
    """trace_text written to a new file under tmp_path."""
    path = tmp_path / f"trace{len(list(tmp_path.iterdir()))}.csv"
    path.write_text(trace_text, encoding="utf-8")
    return path


def trace_cfg(tmp_path, trace_text: str, **kw) -> ScenarioConfig:
    return ScenarioConfig(nodes=dict(NODES), model="trace",
                          trace_file=write_trace(tmp_path, trace_text),
                          src="Master", dst="ClientA", **kw)


class Tee:
    """Event log that forwards each call to every log defining its callback."""

    def __init__(self, *logs):
        self.logs = logs

    def _forward(self, callback, args):
        for log in self.logs:
            if hasattr(log, callback):
                getattr(log, callback)(*args)

    def tx(self, *args):
        self._forward("tx", args)

    def rx(self, *args):
        self._forward("rx", args)

    def drop(self, *args):
        self._forward("drop", args)


def test_criterion_01_published_gain_arithmetic():
    table = {"replay": (14.0, 5.0, 7.0),
             "friis": (46.0, 6.0, 16.0),
             "logdist1.7": (32.0, 13.0, 16.0)}
    narrated = {("friis", 0): 70.0, ("logdist1.7", 0): 56.0,
                ("friis", 1): 17.0, ("logdist1.7", 1): 62.0,
                ("friis", 2): 56.0, ("logdist1.7", 2): 56.0}
    worst = 0.0
    for (baseline, col), expected in narrated.items():
        gain = accuracy_gain(table["replay"][col], table[baseline][col])
        worst = max(worst, abs(gain - expected))
    verdict(1, worst <= 1.0,
            f"published-table gains within ±{worst:.3f} pp of the narrated "
            "70/56, 17/62, 56/56")


def test_criterion_02_log_distance_gamma2_equals_friis():
    worst = max(
        abs(log_distance_path_loss(d, 2.0, 1.0, 5.22e9)
            - friis_path_loss(d, 5.22e9))
        for d in range(1, 201)
    )
    verdict(2, worst < 1e-9,
            f"|logdist(γ=2) - friis| ≤ {worst:.2e} dB over 1..200 m")


def test_criterion_03_nakagami_mean_preservation():
    rng = RngStream(9, "fading.acceptance")
    n = 1_000_000
    total = 0.0
    total_sq = 0.0
    for _ in range(n):
        x = apply_nakagami(1.0, 1.25, rng)
        total += x
        total_sq += x * x
    mean = total / n
    ratio = total_sq / n - mean * mean
    mean_err = abs(mean - 1.0)
    var_err = abs(ratio / mean ** 2 - 1 / 1.25)
    ok = mean_err < 0.01 and var_err < 0.03 * (1 / 1.25)
    verdict(3, ok, f"m=1.25 over 10^6 draws: |mean-1|={mean_err:.4f} (<0.01), "
                   f"|var/mean²-1/m|={var_err:.4f} (<{0.03 / 1.25:.4f})")


def test_criterion_04_record_replay_fidelity(tmp_path):
    duration = 60
    base = dict(duration_s=duration, seed=21, src="Master", dst="ClientA",
                traffic_kind="udp_uni")
    friis_cfg = ScenarioConfig(nodes=dict(NODES), model="friis", **base)
    log_record = io.StringIO()
    trace_buf = io.StringIO()
    simulate(build(friis_cfg), event_log=Tee(CsvEventLog(log_record),
                                             TraceCsvRecorder(trace_buf)))

    trace_text = trace_buf.getvalue()
    replay_cfg = ScenarioConfig(nodes=dict(NODES), model="trace",
                                trace_file=write_trace(tmp_path, trace_text),
                                **base)
    log_replay = io.StringIO()
    simulate(build(replay_cfg), event_log=CsvEventLog(log_replay))

    logs_equal = log_record.getvalue() == log_replay.getvalue()

    # replayed per-frame SNR must equal the recorded file values verbatim
    recorded_rows = [line.split(",") for line in
                     trace_text.splitlines()[1:]]
    replay_snr = {}
    for line in log_replay.getvalue().splitlines()[1:]:
        f = line.split(",")
        if f[2] == "rx" and f[10] != "collided" and f[9]:
            replay_snr.setdefault(f[4], []).append((int(f[0]), float(f[9])))
    snr_equal = True
    recorded_by_link: dict = {}
    for t, tx, rx, snr in recorded_rows:
        recorded_by_link.setdefault(f"{tx}->{rx}", []).append(
            (int(t), float(snr)))
    for link, rows in recorded_by_link.items():
        if sorted(rows) != sorted(replay_snr.get(link, [])):
            snr_equal = False
    verdict(4, logs_equal and snr_equal,
            f"60 s record→replay: event logs identical={logs_equal}, "
            f"per-frame SNR sequences identical={snr_equal} "
            f"({len(recorded_rows)} recorded receptions)")


def test_criterion_05_saturation_throughput_band(tmp_path):
    cfg = trace_cfg(tmp_path, constant_trace(35.0, 35.0), duration_s=300,
                    seed=5)
    run = simulate(build(cfg))
    goodput = run.mean_throughput_mbps("udp.Master->ClientA")
    verdict(5, 26.0 <= goodput <= 32.0,
            f"300 s Minstrel saturation at 35 dB: {goodput:.2f} Mbit/s "
            "(band [26, 32])")


def test_criterion_06_rtt_floor_and_processing_shift(tmp_path):
    mins = {}
    for delay in (0, 300):
        cfg = trace_cfg(tmp_path, constant_trace(35.0, 35.0), duration_s=60,
                        seed=11, traffic_kind="ping", processing_delay_us=delay)
        run = simulate(build(cfg))
        mins[delay] = run.min_rtt_us()
    floor_ok = 350 <= mins[0] <= 650
    shift = mins[300] - mins[0]
    shift_ok = abs(shift - 600) <= 1
    verdict(6, floor_ok and shift_ok,
            f"min RTT {mins[0]} µs ∈ [350, 650]; +300 µs/node shifts it by "
            f"{shift} µs (600 ± 1)")


def test_criterion_07_error_model_properties():
    grid = [x / 10 for x in range(-100, 601)]
    monotone = True
    for mode in MODES:
        prev = -1.0
        for snr_db in grid:
            p = frame_success_probability(snr_db, mode, 1472)
            if p < prev:
                monotone = False
            prev = p

    length_ok = True
    for mode in MODES:
        snr = 3.0 + 3.0 * mode.id
        single = frame_success_probability(snr, mode, 1472)
        if single > 0:
            rel = abs(frame_success_probability(snr, mode, 2944)
                      - single ** 2) / max(single ** 2, 1e-300)
            length_ok &= rel < 1e-9

    def snr_for(mode, target):
        lo, hi = -10.0, 60.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if frame_success_probability(mid, mode, 1472) < target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    trials = 100_000
    mc_ok = True
    details = []
    for mode, target in ((MODES[2], 0.3), (MODES[4], 0.7), (MODES[7], 0.95)):
        snr_db = snr_for(mode, target)
        p = frame_success_probability(snr_db, mode, 1472)
        rng = RngStream(13, f"phy.rx.acc.{mode.id}")
        hits = sum(phy.receive(1472, mode, snr_db, rng) == phy.DELIVERED
                   for _ in range(trials))
        bound = 3 * math.sqrt(p * (1 - p) / trials)
        mc_ok &= abs(hits / trials - p) <= bound
        details.append(f"{mode}: |{hits / trials:.4f}-{p:.4f}|≤{bound:.4f}")
    verdict(7, monotone and length_ok and mc_ok,
            f"monotone={monotone}, length-identity={length_ok}, "
            f"reception MC: {'; '.join(details)}")


def test_criterion_08_dcf_closed_form(tmp_path):
    cfg = trace_cfg(tmp_path, constant_trace(60.0, 60.0), duration_s=60,
                    seed=17, rate_control="fixed", fixed_mode_mbps=54)
    run = simulate(build(cfg))
    goodput = run.mean_throughput_mbps("udp.Master->ClientA")
    params = DcfParams()
    mode = phy.mode_for_rate(54)
    t_data = frame_duration_us(1472 + 56, mode)
    t_ack = frame_duration_us(params.ack_bytes,
                              ack_mode_for(mode, params.basic_rates_mbps))
    cycle = (params.difs_us + params.slot_us * params.cw_min / 2
             + t_data + params.sifs_us + t_ack)
    closed_form = 1472 * 8 / cycle
    rel = abs(goodput - closed_form) / closed_form
    verdict(8, rel < 0.02,
            f"saturated fixed-54 goodput {goodput:.3f} vs closed form "
            f"{closed_form:.3f} Mbit/s: {100 * rel:.2f}% (< 2%)")


def test_criterion_09_degradation_ordering(tmp_path):
    results = {}
    for snr_db in (8.0, 15.0, 35.0):
        cfg = trace_cfg(tmp_path, constant_trace(snr_db, snr_db),
                        duration_s=60, seed=23)
        run = simulate(build(cfg))
        st = run.stats["Master"]
        results[snr_db] = (run.mean_throughput_mbps("udp.Master->ClientA"),
                           st.data_attempts / st.data_frames)
    goodputs = [results[s][0] for s in (8.0, 15.0, 35.0)]
    attempts = [results[s][1] for s in (8.0, 15.0, 35.0)]
    ok = (goodputs[0] < goodputs[1] < goodputs[2]
          and attempts[0] > attempts[1] > attempts[2])
    verdict(9, ok,
            "8/15/35 dB: goodput "
            + " < ".join(f"{g:.2f}" for g in goodputs)
            + " Mbit/s; attempts/frame "
            + " > ".join(f"{a:.3f}" for a in attempts))


def test_criterion_10_asymmetric_link_replay(tmp_path):
    trace_text = constant_trace(35.0, 10.0)
    goodput = {}
    for src, dst in (("Master", "ClientA"), ("ClientA", "Master")):
        cfg = ScenarioConfig(nodes=dict(NODES), model="trace",
                             trace_file=write_trace(tmp_path, trace_text),
                             duration_s=60, seed=29, traffic_kind="udp_uni",
                             src=src, dst=dst)
        run = simulate(build(cfg))
        goodput[f"{src}->{dst}"] = run.mean_throughput_mbps(
            f"udp.{src}->{dst}")
    strong = goodput["Master->ClientA"]
    weak = goodput["ClientA->Master"]
    verdict(10, strong >= 2 * weak,
            f"35 dB direction {strong:.2f} Mbit/s vs 10 dB direction "
            f"{weak:.2f} Mbit/s (ratio {strong / max(weak, 1e-9):.2f}x ≥ 2x)")


def test_criterion_11_filtering_rules():
    ref_tp = PerSecondSeries(THROUGHPUT_KBPS, "real", {
        0: 0.0, 1: 0.0, 2: 28000.0, 3: 28000.0, 4: 0.0, 5: 28000.0,
    })
    cand_tp = PerSecondSeries(THROUGHPUT_KBPS, "replay",
                              {s: 26000.0 for s in range(6)})
    tp_report = compare_runs(ref_tp, [cand_tp])
    tp_ok = (tp_report.kept_seconds == [2, 3, 5]
             and tp_report.filtered_count == 3
             and tp_report.total_seconds == 6
             and abs(tp_report.filtered_fraction - 0.5) < 1e-12)

    ref_rtt = PerSecondSeries(RTT_MEDIAN_MS, "real",
                              {0: 1.1, 1: 1.2, 3: 1.4, 4: 1.0})
    ts_rtt = PerSecondSeries(RTT_MEDIAN_MS, "replay",
                             {0: 1.0, 1: 1.1, 2: 2.0, 4: 1.3})
    ps_rtt = PerSecondSeries(RTT_MEDIAN_MS, "model",
                             {0: 0.9, 1: 1.6, 3: 1.2, 4: 1.8})
    rtt_report = compare_runs(ref_rtt, [ts_rtt, ps_rtt])
    # union {0,1,2,3,4}; kept = present everywhere = {0,1,4}
    rtt_ok = (rtt_report.kept_seconds == [0, 1, 4]
              and rtt_report.filtered_count == 2
              and rtt_report.total_seconds == 5
              and abs(rtt_report.filtered_fraction - 0.4) < 1e-12)
    verdict(11, tp_ok and rtt_ok,
            f"throughput kept {tp_report.kept_seconds} filtered "
            f"{tp_report.filtered_fraction:.1%}; rtt kept "
            f"{rtt_report.kept_seconds} filtered "
            f"{rtt_report.filtered_fraction:.1%} (hand-enumerated)")
