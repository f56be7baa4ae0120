"""linksim benchmark: host time of whole simulator runs, checked byte for byte.

Run from the root of a checkout that holds ``src/linksim``:

    python3 perfbench/run.py --workload uni_saturated --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each timed operation is a fresh single-threaded process (``perfbench/op.py``)
that calls ``linksim.cli.main`` on a config generated from ``--seed``;
operations run one after another, one in flight at a time. The offered load
lives inside the simulation as the CBR rate of each config. Every artifact
of every operation is hashed: at the pinned seed the hashes must equal
``perfbench/golden.json``, at any other seed every operation must give the
hashes of the first one. A mismatch fails the operation.

``--trace 0`` reports the end-to-end metrics (median over operations).
``--trace 1`` also runs untraced operations for the overhead baseline, then
operations whose layer entry points are wrapped in spans, and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Work files go under
``.perfbench_out/`` in the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1          # the seed whose artifact hashes are pinned
SIM_SECONDS = 10          # simulated seconds per operation; golden hashes depend on it
MIN_REPS = 3
MIN_TRACED_REPS = 2
UNTRACED_SHARE = 0.35     # of --seconds, with --trace 1
START_LIMIT_S = 115       # no new operation after this many seconds
DEADLINE_S = 170          # every child is stopped by then
# The shared host's CPU speed swings by up to 2x for seconds to minutes at a
# time. Each operation times op.calibrate() just before and after its steps;
# end-to-end times are scaled by CAL_REF_S / (the faster of the two, since
# any interruption inflates a short loop), i.e. reported in seconds at the
# speed where that loop takes CAL_REF_S.
CAL_REF_S = 0.030

# Why each workload exists is in BENCHMARK.json and perfbench/NOTES.md.
WORKLOADS = ("uni_saturated", "bidi_fading_logged", "replay_recorded")

FRIIS = ("model = friis",)
FADING = ("model = logdist", "gamma = 1.7", "ref_distance_m = 1.0",
          "nakagami_m = 1.25")
REPLAY = ("model = trace", "trace_file = trace.csv")
FLOW = "throughput_ClientA_to_Master.csv"

NOTICE = ("CPU pinning and frequency control are not available to the "
          "benchmark; operations run unpinned on a shared host. The "
          "repository holds no measured reference data, so the model's "
          "accuracy is unvalidated and no simulator-error figure is claimed.")


def scenario_ini(seed: int, log: bool, propagation: tuple, kind: str) -> str:
    return "\n".join([
        "[scenario]", f"duration_s = {SIM_SECONDS}", f"seed = {seed}",
        f"log_events = {'true' if log else 'false'}", "",
        "[nodes]", "Master = 0,0,0", "ClientA = 6,0,0", "",
        "[propagation]", *propagation, "",
        "[traffic]", f"kind = {kind}", "src = ClientA", "dst = Master",
        "payload_bytes = 1472", "offered_load_bps = 54e6", "",
        "[mac]", "rate_control = minstrel", "",
    ])


def workload_plan(name: str, seed: int) -> tuple[dict, list, callable]:
    """Return (input files, untimed setup steps, rep dir -> timed steps)."""
    run = lambda rep: [{"cli": ["run", "inputs/run.ini", "--out-dir", rep]}]
    if name == "uni_saturated":
        return {"run.ini": scenario_ini(seed, False, FRIIS, "udp_uni")}, [], run
    if name == "bidi_fading_logged":
        return {"run.ini": scenario_ini(seed, True, FADING, "udp_bidi")}, [], run
    inputs = {
        "record.ini": scenario_ini(seed, False, FADING, "udp_uni"),
        "run.ini": scenario_ini(seed + 1, True, REPLAY, "udp_uni"),
    }
    # record-trace writes no series, so the same config and seed run once
    # more for the recording's throughput series (the SNR sink draws nothing).
    setup = [
        {"cli": ["record-trace", "inputs/record.ini", "-o", "inputs/trace.csv"]},
        {"cli": ["run", "inputs/record.ini", "--out-dir", "inputs/recording"]},
    ]

    def replay(rep):
        # compare rejects two series with one label, and series labels come
        # from flow names; the candidate copy gets its own label.
        return run(rep) + [
            {"relabel": [f"{rep}/{FLOW}", f"{rep}/candidate.csv", "replay"]},
            {"cli": ["compare", "--metric", "throughput", "--reference",
                     f"inputs/recording/{FLOW}", f"{rep}/candidate.csv",
                     "--out-dir", f"{rep}/compare"]},
        ]
    return inputs, setup, replay


def file_digest(path: Path) -> str:
    if path.name == "manifest.json":
        # base_dir and input paths record where the config was passed from
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.pop("base_dir", None)
        doc["inputs"] = {Path(k).name: v for k, v in doc["inputs"].items()}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): file_digest(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


class Bench:
    """Starts operations one at a time, each in a fresh process in work."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.t0 = time.perf_counter()
        self.n_ops = 0
        self.errors: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def op(self, steps: list, trace: bool) -> dict | None:
        """Run steps in a fresh process; None if it failed or timed out."""
        self.n_ops += 1
        tag = f"op{self.n_ops:03d}"
        ops = self.work / "ops"
        spec = {"src": str(self.root / "src"), "trace": trace, "steps": steps,
                "result": str(ops / f"{tag}.json")}
        (ops / f"{tag}.spec.json").write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        with open(ops / f"{tag}.log", "wb") as log:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "op.py"), str(ops / f"{tag}.spec.json"),
                 repr(t_spawn)],
                cwd=self.work, stdout=log, stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                rc = None
            finally:   # also on SIGTERM, see main()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if rc is None:
            self.errors.append(f"{tag}: timed out after {timeout:.0f} s")
            return None
        if rc != 0:
            tail = (ops / f"{tag}.log").read_text(errors="replace")[-400:]
            self.errors.append(f"{tag}: exit {rc}: {tail.strip()}")
            return None
        return json.loads((ops / f"{tag}.json").read_text(encoding="utf-8"))


def trace_metrics(trace: dict, rep: Path) -> dict[str, float]:
    """Per-layer metrics of one traced operation whose artifacts are in rep."""
    spans = trace["spans"]
    extra = trace["extra"]
    calls = lambda *names: sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)
    total = lambda *names: sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)
    layer_self = {}
    for name, (_, _, self_s) in spans.items():
        layer = name.split(":", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    outcome = {(n, v): c for n, v, c in trace["outcomes"]}
    handlers = trace["handlers"]
    summary = json.loads((rep / "summary.json").read_text(encoding="utf-8"))
    stations = summary["stations"].values()
    attempts = sum(s["data_attempts"] for s in stations)
    enqueue = "mac:Station.enqueue_packet"
    receive = "phy:receive"
    lookups = ("traces:SnrTrace.snr_at", "traces:MobilityTrace.link_distance")
    log_calls = [f"scenario:CsvEventLog.{a}" for a in ("tx", "rx", "drop")]
    events = calls(*handlers)
    scheduled = calls("engine:EventQueue.schedule")
    events_csv = rep / "events.csv"
    ratio = lambda a, b: a / b if b else 0.0
    return {
        "engine.events": events,
        "engine.scheduled": scheduled,
        "engine.cancelled": extra.get("engine.cancelled", 0),
        "engine.useful_ratio": ratio(events, scheduled),
        "engine.self_s": layer_self.get("engine", 0.0),
        "traffic.arrivals": calls(*[h for h in handlers if h.startswith("traffic:")]),
        "traffic.accepted_ratio": ratio(outcome.get((enqueue, "accepted"), 0),
                                        calls(enqueue)),
        "traffic.self_s": layer_self.get("traffic", 0.0),
        "mac.self_s": layer_self.get("mac", 0.0),
        "mac.enqueue_calls": calls(enqueue),
        "mac.rate_select_calls": calls("mac:Minstrel.select"),
        "mac.rate_select_s": total("mac:Minstrel.select"),
        "mac.data_attempts": attempts,
        "mac.delivery_ratio": ratio(sum(s["frames_delivered"] for s in stations),
                                    attempts),
        "mac.queue_drops": sum(s["queue_drops"] for s in stations),
        "channel.snr_calls": calls("channel:Channel.snr"),
        "channel.self_s": layer_self.get("channel", 0.0),
        "traces.lookup_calls": calls(*lookups),
        "traces.lookup_s": total(*lookups),
        "traces.parse_rows": extra.get("traces.parse_rows", 0),
        "traces.parse_s": total("traces:parse_snr_trace"),
        "phy.receive_calls": calls(receive),
        "phy.receive_s": total(receive),
        "phy.delivered_ratio": ratio(outcome.get((receive, "delivered"), 0),
                                     calls(receive)),
        "phy.airtime_calls": calls("phy:frame_duration_us"),
        "phy.airtime_s": total("phy:frame_duration_us"),
        "scenario.parse_s": total("scenario:parse_config"),
        "scenario.build_s": extra.get("scenario.build_s", 0.0),
        "scenario.log_rows": calls(*log_calls),
        "scenario.log_bytes": events_csv.stat().st_size if events_csv.exists() else 0,
        "scenario.log_s": total(*log_calls),
        "scenario.artifacts_s": extra.get("scenario.artifacts_s", 0.0),
        "metrics.series_s": total("metrics:throughput_series"),
        "metrics.compare_s": total("metrics:compare_runs"),
        "metrics.kept_seconds": extra.get("metrics.kept_seconds", 0),
    }


def summarize(samples: dict[str, list], specs: list[dict]) -> dict:
    """Median, quartiles and count of each metric named in BENCHMARK.json."""
    metrics = {}
    for spec in specs:
        values = samples[spec["name"]] or [0.0]
        if len(values) == 1:
            q1 = med = q3 = values[0]
        else:
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = (statistics.median_low(values) if isinstance(values[0], int)
                   else statistics.median(values))
        metrics[spec["name"]] = {"value": med, "unit": spec["unit"], "q1": q1,
                                 "q3": q3, "n": len(samples[spec["name"]]),
                                 "samples": values}
    return metrics


def host_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "notice": NOTICE}


def run_workload(root: Path, spec: dict, workload: str, seed: int,
                 seconds: int, trace: bool, pin: bool) -> dict:
    work = root / ".perfbench_out" / f"{workload}-seed{seed}-{os.getpid()}"
    bench = Bench(root, work)
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    (work / "ops").mkdir()
    load_before = os.getloadavg()[0]
    inputs, setup, rep_steps = workload_plan(workload, seed)
    for name, text in inputs.items():
        (work / "inputs" / name).write_text(text, encoding="utf-8")

    # Untimed: generate recorded inputs, and compile bytecode once.
    if bench.op(setup, trace=False) is None:
        raise RuntimeError("setup failed: " + "; ".join(bench.errors))
    input_hashes = tree_digests(work / "inputs")
    facts = {"workload": workload, "seed": seed, "sim_seconds": SIM_SECONDS}
    if (work / "inputs" / "trace.csv").exists():
        with open(work / "inputs" / "trace.csv", "rb") as fh:
            facts["trace_rows"] = sum(1 for _ in fh) - 1
        facts["trace_sha256"] = input_hashes["trace.csv"]
        facts["replay_seed"] = seed + 1

    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    pinned = golden.get("workloads", {}).get(workload) if seed == DEFAULT_SEED else None
    problems: list[str] = []
    if seed == DEFAULT_SEED and not pin:
        if pinned is None:
            problems.append(f"no golden hashes pinned for {workload}")
        elif pinned["inputs"] != input_hashes:
            problems.append("recorded inputs differ from the golden hashes")
    expected = pinned["artifacts"] if pinned and not pin else None

    def timed(traced: bool, budget: float, min_reps: int) -> list[tuple]:
        nonlocal expected
        done = []
        t_phase = time.perf_counter()
        while (len(done) < min_reps
               or time.perf_counter() - t_phase < budget) \
                and bench.elapsed() < START_LIMIT_S:
            rep = f"rep{bench.n_ops + 1:03d}"
            result = bench.op(rep_steps(rep), trace=traced)
            ok = result is not None
            if ok:
                hashes = tree_digests(work / rep)
                if expected is None:
                    expected = hashes
                if hashes != expected:
                    differ = sorted(k for k in set(hashes) | set(expected)
                                    if hashes.get(k) != expected.get(k))
                    bench.errors.append(f"{rep}: artifact hashes differ: {differ}")
                    ok = False
            # the first good untraced rep keeps its log for the rerun check
            if not traced and any(good for _, good, _ in done):
                (work / rep / "events.csv").unlink(missing_ok=True)
            done.append((rep, ok, result))
        return done

    budget = seconds * (UNTRACED_SHARE if trace else 1.0)
    plain = timed(False, budget, MIN_REPS)
    traced = timed(True, seconds - budget, MIN_TRACED_REPS) if trace else []
    ops = plain + traced
    good = [r for _, ok, r in plain if ok]

    # Reproducibility spot check, outside every metric.
    first_ok = next((rep for rep, ok, _ in plain if ok), None)
    if first_ok is None:
        problems.append("no operation succeeded")
    else:
        rerun = "rerun"
        if bench.op([{"rerun": [f"{first_ok}/manifest.json", rerun]}], False) is None:
            problems.append("rerun_from_manifest failed")
        else:
            again = tree_digests(work / rerun)
            first = tree_digests(work / first_ok)
            if not again or any(first.get(k) != v for k, v in again.items()):
                problems.append("rerun_from_manifest artifacts differ")

    report = {"facts": facts, "host": host_facts(), "load_1m_before": load_before}
    if trace:
        layer = [trace_metrics(r["trace"], work / rep)
                 for rep, ok, r in traced if ok]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        counts = [{k: v for k, v in m.items() if units[k] != "s"} for m in layer]
        if not layer:
            problems.append("no traced operation succeeded")
        elif any(c != counts[0] for c in counts[1:]):
            problems.append("per-layer counts differ between traced runs")
        samples = {name: [m[name] for m in layer] for name in units
                   if name != "trace.overhead_s"}
        base = statistics.median(r["wall_s"] for r in good) if good else 0.0
        samples["trace.overhead_s"] = [r["wall_s"] - base
                                       for _, ok, r in traced if ok]
        metrics = summarize(samples, spec["per_layer"])
        if layer:   # spans with parent links, for attribution beyond the metrics
            report["spans"] = next(r["trace"] for _, ok, r in traced if ok)
    else:
        scale = [CAL_REF_S / min(r["cal_s"]) for r in good]
        metrics = summarize({
            "wall_s": [r["wall_s"] * k for r, k in zip(good, scale)],
            "setup_s": [r["setup_s"] * k for r, k in zip(good, scale)],
            "sim_s_per_s": [r["sim_s"] / (r["run_until_s"] * k)
                            for r, k in zip(good, scale)],
            "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in good],
        }, spec["end_to_end"])
        report["unscaled"] = {"wall_s": [r["wall_s"] for r in good],
                              "setup_s": [r["setup_s"] for r in good],
                              "speed_scale": scale}
    if pin and seed == DEFAULT_SEED and expected is not None and not problems:
        golden.setdefault("workloads", {})[workload] = {
            "inputs": input_hashes, "artifacts": expected}
        golden["default_seed"] = DEFAULT_SEED
        golden["sim_seconds"] = SIM_SECONDS
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    report.update({
        "load_1m_after": os.getloadavg()[0],
        "artifact_sha256": expected,
        "attempted": len(ops),
        "failed": sum(1 for _, ok, _ in ops if not ok),
        "problems": problems,
        "errors": bench.errors,
        "metrics": metrics,
        "correct": not problems and all(ok for _, ok, _ in ops),
    })
    shutil.rmtree(work, ignore_errors=True)
    return report


def print_report(report: dict) -> None:
    facts = report["facts"]
    print(f"== {facts['workload']} seed={facts['seed']} "
          f"ops={report['attempted']} failed={report['failed']} "
          f"correct={report['correct']}")
    print("   host: " + json.dumps({k: v for k, v in report["host"].items()
                                    if k != "notice"}))
    print(f"   load 1m: before {report['load_1m_before']:.2f} "
          f"after {report['load_1m_after']:.2f}")
    print("   inputs: " + json.dumps(facts))
    for name, m in report["metrics"].items():
        print(f"   {name:24s} {m['value']:>14.6g} {m['unit']:6s} "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]")
    for line in report["problems"] + report["errors"]:
        print(f"   problem: {line}")
    print("   " + report["host"]["notice"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measurement budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help=f"record this run's artifact hashes as golden "
                             f"(only with --seed {DEFAULT_SEED})")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "linksim" / "cli.py").is_file():
        print("error: run from the root of a linksim checkout "
              "(src/linksim not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = WORKLOADS if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        try:
            reports.append(run_workload(root, spec, name, args.seed,
                                        args.seconds, bool(args.trace),
                                        args.pin))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_report(reports[-1])
        results = root / ".perfbench_out" / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(reports[-1], indent=2) + "\n", encoding="utf-8")
    prefix = len(reports) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            (f"{r['facts']['workload']}.{k}" if prefix else k):
                {"value": m["value"], "unit": m["unit"]}
            for r in reports for k, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
