"""One benchmark operation, run in a fresh single-threaded process.

Usage: python3 perfbench/op.py SPEC.json T_SPAWN

T_SPAWN is time.perf_counter() of the parent just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes.
SPEC.json holds:
  src       directory that contains the ``linksim`` package
  trace     true to wrap every layer entry point in a span
  steps     list of {"cli": argv} | {"relabel": [src, dst, label]}
            | {"rerun": [manifest, out_dir]}
  result    path of the JSON file this process writes on success

Timing is taken around calls into the program, never inside it. The wrappers
draw no randomness and call the wrapped function exactly once, in place, so
a traced run produces the same artifacts as an untraced one.

The process also times a fixed pure-Python loop just before and just after
the steps, so the parent can scale host seconds to a reference CPU speed
(see ``CAL_REF_S`` in run.py).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path


CAL_ITERATIONS = 400_000


def calibrate() -> float:
    """Seconds this CPU currently takes for a fixed loop of integer arithmetic."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


class Tracer:
    """Aggregated spans: per span name the call count, total and self time.

    Span names are ``<layer>:<qualname>``. A span's self time is its duration
    minus the durations of the spans it directly encloses. Parent links are
    kept as counts of (parent name, child name) pairs, which is what the
    per-layer split needs without holding millions of span records.
    """

    def __init__(self) -> None:
        self.stack: list[list] = []           # [name, child seconds]
        self.spans: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.edges: Counter = Counter()       # (parent, child) -> calls
        self.outcomes: Counter = Counter()    # (name, returned value) -> calls
        self.handlers: set[str] = set()
        self.extra: Counter = Counter()

    def span(self, name: str, fn, on_exit=None):
        stack = self.stack
        spans = self.spans
        edges = self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    edges[parent[0], name] += 1
                else:
                    edges[None, name] += 1
            if on_exit is not None:
                on_exit(args, result, frame, t0, t1)
            return result

        return wrapper

    def count_outcome(self, args, result, frame, t0, t1) -> None:
        self.outcomes[frame[0], result] += 1

    def handler(self, fn):
        owner = getattr(fn, "__self__", None)
        module = type(owner).__module__ if owner is not None else fn.__module__
        name = f"{_layer(module)}:{fn.__qualname__}"
        self.handlers.add(name)
        return self.span(name, fn)

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "edges": [[p, c, n] for (p, c), n in sorted(
                self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "outcomes": [[name, str(value), n]
                         for (name, value), n in sorted(
                             self.outcomes.items(), key=lambda kv: str(kv[0]))],
            "handlers": sorted(self.handlers),
            "extra": dict(self.extra),
        }


def _layer(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def _span_name(fn) -> str:
    return f"{_layer(fn.__module__)}:{fn.__qualname__}"


def install(tracer: Tracer | None, marks: dict) -> None:
    """Wrap the program's layer entry points; marks receives run_until times."""
    import linksim.channel as channel
    import linksim.cli as cli
    import linksim.engine as engine
    import linksim.mac as mac
    import linksim.metrics as metrics
    import linksim.phy as phy
    import linksim.scenario as scenario
    import linksim.traces as traces

    queue = engine.EventQueue
    run_until = queue.run_until
    clock = time.perf_counter

    if tracer is not None:
        span = tracer.span

        def patch(owner, attr, on_exit=None):
            fn = getattr(owner, attr)
            setattr(owner, attr, span(_span_name(fn), fn, on_exit))

        schedule = span(_span_name(queue.schedule), queue.schedule)
        queue.schedule = lambda self, at_us, fn: schedule(
            self, at_us, tracer.handler(fn))

        cancel = queue.cancel

        def counting_cancel(self, event_id):
            if event_id[2] is not None:   # a pending event, not a no-op
                tracer.extra["engine.cancelled"] += 1
            return cancel(self, event_id)
        queue.cancel = span(_span_name(cancel), counting_cancel)
        run_until = span(_span_name(run_until), run_until)

        patch(mac.Station, "enqueue_packet", tracer.count_outcome)
        patch(mac.Minstrel, "select")
        patch(mac, "frame_duration_us")
        patch(mac, "ack_mode_for")
        patch(phy, "receive", tracer.count_outcome)
        patch(channel.Channel, "snr")
        patch(traces.SnrTrace, "snr_at")
        patch(traces.MobilityTrace, "link_distance")
        for attr in ("tx", "rx", "drop"):
            patch(scenario.CsvEventLog, attr)
        patch(metrics, "throughput_series")

        def parsed(args, result, frame, t0, t1):
            data = args[0]
            newline = b"\n" if isinstance(data, bytes) else "\n"
            tracer.extra["traces.parse_rows"] += data.count(newline) - 1
        patch(traces, "parse_snr_trace", parsed)

        def compared(args, result, frame, t0, t1):
            tracer.extra["metrics.kept_seconds"] += len(result.kept_seconds)
        patch(metrics, "compare_runs", compared)

        patch(cli, "parse_config")

        def phases(args, result, frame, t0, t1):
            # execute_run's own time splits at run_until into the build
            # before simulated time 0 and the artifact writing after it.
            t_in, child_in = marks["enter"]
            t_out, child_out = marks["exit"]
            tracer.extra["scenario.build_s"] += (t_in - t0) - child_in
            tracer.extra["scenario.artifacts_s"] += (
                (t1 - t_out) - (frame[1] - child_out))
        patch(cli, "execute_run", phases)

    stack = tracer.stack if tracer is not None else None

    def timed_run_until(self, t_end_us):
        start_us = self.clock_us
        marks["enter"] = (clock(), stack[-1][1] if stack else 0.0)
        dispatched = run_until(self, t_end_us)
        marks["exit"] = (clock(), stack[-1][1] if stack else 0.0)
        marks["sim_us"] = t_end_us - start_us
        return dispatched

    queue.run_until = timed_run_until


def peak_rss_kb() -> int:
    """Peak resident set of this process image (VmHWM).

    ru_maxrss would also count the parent's pages that the forked child held
    before exec, so it tracks the parent's size once that is the larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def relabel(src: str, dst: str, label: str) -> None:
    """Copy a series CSV under a new ``# label=``; compare needs unique labels."""
    head, _, body = Path(src).read_text(encoding="utf-8").partition("\n")
    fields = [f"label={label}" if f.startswith("label=") else f
              for f in head[1:].split()]
    Path(dst).write_text("# " + " ".join(fields) + "\n" + body, encoding="utf-8")


def main(spec_path: str, t_spawn: float) -> int:
    cal_before = calibrate()
    t_spawn += cal_before   # the loop is not part of the operation
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import linksim.cli
    import linksim.scenario

    marks: dict = {}
    tracer = Tracer() if spec["trace"] else None
    install(tracer, marks)
    for step in spec["steps"]:
        if "cli" in step:
            rc = linksim.cli.main(step["cli"])
            if rc != 0:
                return rc
        elif "relabel" in step:
            relabel(*step["relabel"])
        else:
            linksim.scenario.rerun_from_manifest(*step["rerun"])
    t_done = time.perf_counter()
    result = {
        "cal_s": [cal_before, calibrate()],
        "wall_s": t_done - t_spawn,
        "peak_rss_kb": peak_rss_kb(),
    }
    if "enter" in marks:
        result["setup_s"] = marks["enter"][0] - t_spawn
        result["run_until_s"] = marks["exit"][0] - marks["enter"][0]
        result["sim_s"] = marks["sim_us"] / 1e6
    if tracer is not None:
        result["trace"] = tracer.to_json()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
