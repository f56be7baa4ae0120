"""Records: construction, defaults, replace, freezing, repr and field order.

Each case pins a behaviour that callers took from ``dataclasses`` before the
records had their own base.
"""

import pytest

from linksim.channel import PropagationSpec
from linksim.mac import DcfParams, StationStats
from linksim.metrics import RTT_MEDIAN_MS, PerSecondSeries
from linksim.phy import MODES
from linksim.record import replace
from linksim.traffic import UdpFlowConfig


def test_positional_and_keyword_construction_fill_defaults():
    flow = UdpFlowConfig("A", "B", 1e6)
    assert flow == UdpFlowConfig(dst="B", offered_load_bps=1e6, src="A")
    assert (flow.payload_bytes, flow.start_us, flow.stop_us) == \
        (1472, 0, 300_000_000)
    spec = PropagationSpec("logdist", None, 3.0)
    assert (spec.ref_distance_m, spec.rf_gain_db_per_end) == (1.0, -7.0)


@pytest.mark.parametrize("make, message", [
    (lambda: UdpFlowConfig("A"), "missing required argument 'dst'"),
    (lambda: UdpFlowConfig("A", "B", pps=1), "unexpected keyword argument 'pps'"),
    (lambda: UdpFlowConfig("A", "B", src="C"), "multiple values for argument 'src'"),
    (lambda: UdpFlowConfig("A", "B", 1e6, 1472, 0, 1, 2), "takes 6 positional"),
    # the fixed 802.11a timing is a class constant, not a field
    (lambda: DcfParams(slot_us=20), "unexpected keyword argument 'slot_us'"),
])
def test_a_missing_unknown_or_repeated_argument_is_a_type_error(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_a_dict_default_is_not_shared():
    first = PerSecondSeries(RTT_MEDIAN_MS, "a")
    second = PerSecondSeries(RTT_MEDIAN_MS, "b")
    first.values[0] = 1.0
    assert second.values == {}
    assert first.values is not PerSecondSeries.values


def test_replace_validates_the_new_record():
    assert replace(PropagationSpec("friis"), rf_gain_db_per_end=-3.5) == \
        PropagationSpec("friis", None, 2.0, 1.0, None, -3.5)
    with pytest.raises(ValueError, match="rf_gain_db_per_end must be finite"):
        replace(PropagationSpec("friis"), rf_gain_db_per_end=float("nan"))


def test_a_frozen_record_refuses_assignment_and_hashes_by_value():
    spec = PropagationSpec("friis")
    with pytest.raises(AttributeError):
        spec.rf_gain_db_per_end = 10.0
    with pytest.raises(AttributeError):
        del spec.rf_gain_db_per_end
    assert spec.rf_gain_db_per_end == -7.0
    assert hash(PropagationSpec("friis")) == hash(spec)
    assert len({MODES[0], replace(MODES[0])}) == 1


def test_repr_has_the_dataclass_form():
    assert repr(PropagationSpec("logdist", gamma=3.0)) == (
        "PropagationSpec(model='logdist', trace=None, gamma=3.0, "
        "ref_distance_m=1.0, nakagami_m=None, rf_gain_db_per_end=-7.0)")


def test_station_stats_keep_field_order_and_plain_assignment():
    # summary.json is written from vars(stats), and the counters are bumped
    # on every frame, so they take no Python-level __setattr__
    assert list(vars(StationStats())) == [
        "data_frames", "data_attempts", "frames_delivered", "frames_dropped",
        "queue_drops", "acks_sent", "duplicates_suppressed"]
    assert StationStats.__setattr__ is object.__setattr__
    stats = StationStats(acks_sent=2)
    stats.acks_sent += 1
    assert stats == StationStats(acks_sent=3)
