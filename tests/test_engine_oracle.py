"""In-place re-dispatch against a reference engine that always pushes back.

``ReferenceQueue`` keeps the ``run_until`` loop the engine had before it
dispatched a returning handler's entry again in place: every returned time
is a heap push with the next sequence number and a later pop. Each config
below, a bundled scenario crossed with traffic, log, queue, retry, rate and
delay settings, runs for 1 s under both engines, and every artifact must be
byte-identical. An engine that re-dispatched in place on a tie with a
pending entry, or past the end of the run, would reorder same-µs events and
fail here.
"""

import random
from heapq import heappop, heappush
from pathlib import Path

import pytest

from linksim import scenario
from linksim.engine import EventQueue, SchedulingError
from linksim.record import replace
from linksim.scenario import PING, UDP_BIDI, UDP_UNI, execute_run, parse_config

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = sorted(p.stem for p in SCENARIOS.glob("*.ini"))


class ReferenceQueue(EventQueue):
    """The engine with every returned time pushed back onto the heap."""

    def run_until(self, t_end_us: int) -> int:
        if t_end_us < self.clock_us:
            raise SchedulingError(
                f"cannot run to {t_end_us} µs, clock is {self.clock_us} µs")
        dispatched = 0
        heap = self._heap
        while heap and heap[0][0] <= t_end_us:
            entry = heappop(heap)
            fn = entry[2]
            if fn is None:
                continue
            at_us = self.clock_us = entry[0]
            next_us = fn()
            dispatched += 1
            if next_us is not None:
                if next_us < at_us:
                    raise SchedulingError(
                        f"past timestamp: {next_us} µs, clock is {at_us} µs")
                entry[0] = next_us
                entry[1] = self._seq()
                heappush(heap, entry)
        self.clock_us = t_end_us
        return dispatched


DIMENSIONS = {
    "name": BUNDLED,
    "traffic_kind": (UDP_UNI, UDP_BIDI, PING),
    "log_events": (True, False),
    "queue_capacity": (1, 2, 500),
    "retry_limit": (1, 7),
    "rate_control": ("fixed", "minstrel"),
    "processing_delay_us": (0, 250),
    # a 997 µs ping keeps the link busy with requests and replies
    "interval_us": (997, 100_000),
    # traffic that stops early drains its queue with nothing else pending,
    # so an exchange may straddle the end of the run
    "stop_us": (None, 950_000),
}
N_CONFIGS = 30


def _configs() -> list[dict]:
    """N_CONFIGS settings; each column holds every value of its dimension
    about equally often, in a seeded shuffle."""
    rng = random.Random(31)
    columns = {}
    for key, values in DIMENSIONS.items():
        column = [values[i % len(values)] for i in range(N_CONFIGS)]
        rng.shuffle(column)
        columns[key] = column
    return [dict({key: column[i] for key, column in columns.items()},
                 seed=rng.randrange(1, 1000)) for i in range(N_CONFIGS)]


CONFIGS = _configs()


def _run(settings: dict, out: Path, queue_cls, monkeypatch) -> tuple:
    """execute_run under queue_cls; returns the artifacts' bytes by name
    and the sequence numbers the engine drew."""
    engines = []

    def make_queue():
        engines.append(queue_cls())
        return engines[-1]

    overrides = dict(settings)
    cfg = replace(parse_config(SCENARIOS / f"{overrides.pop('name')}.ini"),
                  duration_s=1, **overrides)
    with monkeypatch.context() as patch:
        patch.setattr(scenario, "EventQueue", make_queue)
        execute_run(cfg, out)
    (engine,) = engines
    artifacts = {path.name: path.read_bytes() for path in out.iterdir()}
    return artifacts, engine._seq()


@pytest.mark.parametrize("settings", CONFIGS, ids=lambda s: "-".join(
    str(v) for v in s.values()))
def test_in_place_dispatch_matches_the_push_back_engine(settings, tmp_path,
                                                        monkeypatch):
    want, ref_seq = _run(settings, tmp_path / "ref", ReferenceQueue,
                         monkeypatch)
    got, seq = _run(settings, tmp_path / "got", EventQueue, monkeypatch)
    assert sorted(got) == sorted(want)
    assert ("events.csv" in got) == settings["log_events"]
    for name in want:
        assert got[name] == want[name], name
    assert seq < ref_seq   # some dispatches ran in place


def test_the_configs_cover_every_value():
    for key, values in DIMENSIONS.items():
        assert {settings[key] for settings in CONFIGS} == set(values)
