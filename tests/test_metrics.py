"""Per-second series, error metrics, CDFs, percentiles, and run comparison."""

import pytest

from linksim import metrics
from linksim.metrics import (PerSecondSeries, THROUGHPUT_KBPS, RTT_MEDIAN_MS,
                             absolute_error, accuracy_gain, compare_runs,
                             empirical_cdf, percentile, relative_error,
                             rtt_median_series)


def series(kind, label, values):
    return PerSecondSeries(kind, label, values)


# -- per-second extraction ------------------------------------------------


def test_rtt_median_lower_middle():
    samples = [(1_100_000, 1100), (1_200_000, 1300), (1_300_000, 9000)]
    s = rtt_median_series(samples, 10, "run")
    assert s.values[1] == pytest.approx(1.3)
    samples = [(2_000_000, 1000), (2_500_000, 2000)]
    s = rtt_median_series(samples, 10, "run")
    assert s.values[2] == pytest.approx(1.0)       # lower middle


def test_rtt_empty_seconds_absent():
    s = rtt_median_series([(1_000_000, 500)], 10, "run")
    assert 7 not in s.values
    assert list(s.values) == [1]


# -- error measures --------------------------------------------------------


def test_absolute_error():
    assert absolute_error(25.0, 28.0) == 3.0
    assert absolute_error(7.5, 7.5) == 0.0


def test_relative_error():
    assert relative_error(26_000, 28_000) == pytest.approx(100 * 2000 / 28000)
    assert relative_error(5.0, 5.0) == 0.0
    assert relative_error(0.0, 28_000) == 100.0
    with pytest.raises(ValueError, match="filtered"):
        relative_error(5.0, 0.0)


def test_accuracy_gain_published_values():
    # trace-replay vs baseline error table: 90th / median / average
    assert accuracy_gain(14, 46) == pytest.approx(69.565, abs=0.001)
    assert accuracy_gain(14, 32) == pytest.approx(56.25)
    assert accuracy_gain(5, 6) == pytest.approx(16.667, abs=0.001)
    assert accuracy_gain(5, 13) == pytest.approx(61.538, abs=0.001)
    assert accuracy_gain(7, 16) == pytest.approx(56.25)
    assert accuracy_gain(3.0, 3.0) == 0.0
    assert accuracy_gain(10.0, 5.0) == -100.0      # worse than baseline
    with pytest.raises(ValueError):
        accuracy_gain(1.0, 0.0)


# -- CDF and percentiles ----------------------------------------------------


def test_empirical_cdf_steps():
    points = empirical_cdf([3.0, 1.0, 2.0, 2.0])
    assert points == [(1.0, 0.25), (2.0, 0.75), (3.0, 1.0)]
    fractions = [f for _, f in points]
    assert fractions == sorted(fractions)
    with pytest.raises(ValueError):
        empirical_cdf([])


def test_percentile_nearest_rank():
    assert percentile([1, 2, 3], 0.5) == 2
    ten = list(range(1, 11))
    assert percentile(ten, 0.9) == 9               # ceil(0.9*10) = 9th value
    assert percentile(ten, 0.91) == 10
    assert percentile(ten, 1.0) == 10
    assert percentile([7.0] * 5, 0.5) == 7.0
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_percentile_is_exact_under_float_products():
    # 0.3 * 10 = 3.0000000000000004 must still select the 3rd value
    assert percentile(list(range(1, 11)), 0.3) == 3


def test_percentile_consistent_with_median():
    for values in ([1.0, 2.0], [5.0, 1.0, 4.0], [9.0, 3.0, 1.0, 7.0]):
        lower_middle = sorted(values)[(len(values) - 1) // 2]
        assert percentile(values, 0.5) == lower_middle


def test_constant_series_cdf():
    points = empirical_cdf([4.2] * 9)
    assert points == [(4.2, 1.0)]
    assert percentile([4.2] * 9, 0.9) == 4.2


# -- comparison -------------------------------------------------------------


def _tp(label, values):
    return series(THROUGHPUT_KBPS, label, values)


def test_compare_throughput_filters_zero_reference_seconds():
    ref = _tp("real", {0: 0.0, 1: 0.0, 2: 0.0, **{s: 28000.0 for s in range(3, 300)}})
    ts = _tp("replay", {s: 26000.0 for s in range(300)})
    report = compare_runs(ref, [ts])
    assert report.filtered_count == 3
    assert report.total_seconds == 300
    assert report.filtered_fraction == pytest.approx(0.01)
    assert report.kept_seconds == list(range(3, 300))
    expected = relative_error(26000.0, 28000.0)
    assert report.candidates[0].mean == pytest.approx(expected)
    assert report.candidates[0].p90 == pytest.approx(expected)


def test_compare_identical_candidate_gives_zero_errors_and_full_gain():
    ref = _tp("real", {s: 1000.0 + s for s in range(10)})
    same = _tp("replay", dict(ref.values))
    off = _tp("model", {s: 1100.0 + s for s in range(10)})
    report = compare_runs(ref, [same, off])
    assert report.candidates[0].mean == 0.0
    gains = report.gains["model"]
    assert gains["mean"] == pytest.approx(100.0)
    assert gains["p90"] == pytest.approx(100.0)


def test_compare_rtt_intersection_rule():
    kind = RTT_MEDIAN_MS
    ref = series(kind, "real", {0: 1.1, 1: 1.2, 2: 1.3, 4: 1.1})
    ts = series(kind, "replay", {0: 1.0, 2: 1.6, 3: 2.0, 4: 1.2})
    ps = series(kind, "model", {0: 0.9, 1: 0.8, 2: 1.0, 4: 1.9})
    report = compare_runs(ref, [ts, ps])
    # union of seconds: {0,1,2,3,4}; kept: present in all -> {0,2,4}
    assert report.kept_seconds == [0, 2, 4]
    assert report.total_seconds == 5
    assert report.filtered_count == 2
    expected_ts = [abs(1.0 - 1.1), abs(1.6 - 1.3), abs(1.2 - 1.1)]
    assert report.candidates[0].errors == pytest.approx(expected_ts)


def test_compare_validation_errors():
    ref = _tp("real", {0: 1.0})
    with pytest.raises(ValueError, match="at least one"):
        compare_runs(ref, [])
    rtt = series(RTT_MEDIAN_MS, "replay", {0: 1.0})
    with pytest.raises(ValueError, match="kind mismatch"):
        compare_runs(ref, [rtt])
    with pytest.raises(ValueError, match="kind mismatch"):
        compare_runs(ref, [_tp("c", {0: 1.0})], metric_kind=RTT_MEDIAN_MS)
    with pytest.raises(ValueError, match="unique"):
        compare_runs(ref, [_tp("x", {0: 1.0}), _tp("x", {0: 2.0})])
    zero_ref = _tp("real", {0: 0.0, 1: 0.0})
    with pytest.raises(ValueError, match="no overlapping"):
        compare_runs(zero_ref, [_tp("c", {0: 1.0, 1: 1.0})])


def test_compare_candidate_tables_are_order_invariant():
    ref = _tp("real", {s: 100.0 + 7 * s % 13 for s in range(40)})
    a = _tp("a", {s: 90.0 + 5 * s % 11 for s in range(40)})
    b = _tp("b", {s: 120.0 + 3 * s % 7 for s in range(40)})
    r1 = compare_runs(ref, [a, b])
    r2 = compare_runs(ref, [b, a])
    t1 = {c.label: (c.p90, c.p50, c.mean) for c in r1.candidates}
    t2 = {c.label: (c.p90, c.p50, c.mean) for c in r2.candidates}
    assert t1 == t2


def test_gain_none_when_baseline_error_zero():
    ref = _tp("real", {s: 50.0 for s in range(5)})
    ts = _tp("replay", {s: 60.0 for s in range(5)})
    perfect = _tp("model", {s: 50.0 for s in range(5)})
    report = compare_runs(ref, [ts, perfect])
    assert report.gains["model"]["mean"] is None


# -- serialization -----------------------------------------------------------


def test_series_csv_round_trip():
    s = _tp("run.A>B", {0: 0.0, 5: 123.456, 7: 28_000.125})
    text = s.to_csv()
    back = PerSecondSeries.from_csv(text)
    assert back.kind == s.kind and back.label == s.label
    assert back.values == s.values
    assert back.to_csv() == text


def test_series_csv_rejects_malformed():
    with pytest.raises(ValueError, match="label"):
        PerSecondSeries.from_csv("second,value\n0,1\n")
    good = "# label=x kind=throughput_kbps\nsecond,value\n"
    with pytest.raises(ValueError, match="malformed"):
        PerSecondSeries.from_csv(good + "a,b\n")
    with pytest.raises(ValueError, match="duplicate"):
        PerSecondSeries.from_csv(good + "1,2.0\n1,3.0\n")


def test_series_shift():
    s = series(RTT_MEDIAN_MS, "x", {2: 1.0, 3: 2.0})
    shifted = s.shifted(-2)
    assert shifted.values == {0: 1.0, 1: 2.0}
    assert s.shifted(1).values == {3: 1.0, 4: 2.0}


def test_report_text_and_json(tmp_path):
    ref = _tp("real", {s: 28000.0 for s in range(20)})
    ts = _tp("replay", {s: 26000.0 for s in range(20)})
    ps = _tp("friis", {s: 40000.0 for s in range(20)})
    report = compare_runs(ref, [ts, ps])
    text = report.to_text()
    assert "replay" in text and "friis" in text and "accuracy gain" in text
    files = metrics.write_report(report, tmp_path)
    names = {f.name for f in files}
    assert names == {"report.json", "report.txt", "cdf_replay.csv",
                     "cdf_friis.csv"}
    import json
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["table"][0]["run"] == "replay"
    assert doc["accuracy_gain_of_first"]["friis"]["mean"] is not None
