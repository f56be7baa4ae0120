"""Process footprint: a run loads only what it uses, with unchanged output.

A run hashes a few hundred bytes of seed labels and config text, so it takes
SHA-256 from the interpreter's builtin module rather than ``hashlib``, whose
OpenSSL backend costs a process ~3.6 MB. ``logging`` is loaded only for the
warning about a gapped SNR trace. Records come from ``linksim.record``, not
``dataclasses``, which would load ``inspect`` and ``ast`` with it. Each check
starts a fresh interpreter, since this test process has loaded these modules
already.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from linksim import engine

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


def python(code, *args):
    """Run code in a fresh interpreter that imports linksim from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=120)


RUN_RECORD_COMPARE = """
import sys
from linksim import cli

out = sys.argv[1]
run = f"{out}/run"
assert cli.main(["run", "scenarios/udp_bidirectional.ini", "--duration", "1",
                 "--out-dir", run]) == 0
assert cli.main(["record-trace", "scenarios/logdist_fading.ini",
                 "--duration", "1", "-o", f"{out}/trace.csv"]) == 0
assert cli.main(["compare", "--metric", "throughput", "--reference",
                 f"{run}/throughput_Master_to_ClientA.csv",
                 f"{run}/throughput_ClientA_to_Master.csv",
                 "--out-dir", f"{out}/compare"]) == 0
print(" ".join(m for m in ("hashlib", "_hashlib", "logging", "dataclasses",
                           "inspect", "ast") if m in sys.modules))
"""


def test_run_record_and_compare_load_no_hashlib_logging_or_dataclasses(
        tmp_path):
    proc = python(RUN_RECORD_COMPARE, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == ""
    assert (tmp_path / "compare" / "report.json").exists()


def test_a_gapped_trace_still_prints_its_gap_line(tmp_path):
    (tmp_path / "gap.csv").write_text(
        "t_us,tx,rx,snr_db\n0,Master,ClientA,35.0\n0,ClientA,Master,35.0\n"
        "2000000,Master,ClientA,30.0\n", encoding="utf-8")
    cfg = (SCENARIOS / "replay_constant.ini").read_text(encoding="utf-8")
    (tmp_path / "gap.ini").write_text(cfg.replace(
        "traces/constant_35db.csv", "gap.csv"), encoding="utf-8")
    proc = python("import sys; from linksim import cli; "
                  "sys.exit(cli.main(sys.argv[1:]))",
                  "run", tmp_path / "gap.ini", "--duration", "3",
                  "--out-dir", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("link Master->ClientA has a 2.000 s sample gap "
                           "(hold-last applies)\n")


def test_builtin_sha256_is_hashlib_sha256():
    label = b"%d\x1f%s" % (1, "mac.backoff.Master".encode("utf-8"))
    for data in (b"", label, bytes(range(256)) * 8192):   # 2 MiB
        assert engine.sha256(data).hexdigest() == \
            hashlib.sha256(data).hexdigest()


DRAWS_AND_MANIFEST = """
import json, sys
if sys.argv[3] == "hashlib":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None   # no builtin SHA-256
    import hashlib
from linksim import engine
from linksim.engine import RngStream
from linksim.record import replace
from linksim.scenario import execute_run, parse_config

if sys.argv[3] == "hashlib":
    assert engine.sha256 is hashlib.sha256
stream = RngStream(1, "mac.backoff.Master")
draws = ([stream.random() for _ in range(4)]
         + [stream.randint(0, 1023) for _ in range(4)])
cfg = replace(parse_config(sys.argv[1]), duration_s=1)
_, manifest = execute_run(cfg, sys.argv[2], overrides={"duration_s": 1})
print(json.dumps({"draws": draws, "config_sha256": manifest["config_sha256"],
                  "inputs": manifest["inputs"]}))
"""


def test_the_hashlib_fallback_seeds_and_certifies_the_same(tmp_path):
    trace = SCENARIOS / "traces" / "constant_35db.csv"
    results = []
    for sha256 in ("builtin", "hashlib"):
        proc = python(DRAWS_AND_MANIFEST, SCENARIOS / "replay_constant.ini",
                      tmp_path / sha256, sha256)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    assert results[0] == results[1]
    assert results[0]["inputs"] == {
        str(trace): hashlib.sha256(trace.read_bytes()).hexdigest()}
