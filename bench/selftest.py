"""Self-test of the benchmark on tiny inputs.

    python3 bench/selftest.py

Checks, for every workload in BENCHMARK.json: the result line has exactly
the contract's keys; every end-to-end and per-layer metric appears with
its unit; a clean run is correct with no failures; a planted wrong oracle
expectation makes ``failed`` > 0; per-layer counts keep the layers apart
and repeat exactly between two traced runs.  It also checks that the
benchmark refuses to run in a directory without ``src/rotbell``.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload: str, trace: int, *extra: str) -> dict:
    proc = run(workload, trace, *extra)
    expect(proc.returncode == 0, f"{workload} trace={trace} {extra} exited {proc.returncode}: {proc.stderr[-500:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(doc) == KEYS, f"{workload}: result keys {sorted(doc)}")
    expect(isinstance(doc["attempted"], int) and doc["attempted"] >= 1, f"{workload}: attempted {doc['attempted']}")
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in metrics}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    expect(got == want, f"{workload} trace={trace}: metric names/units differ: {set(got) ^ set(want)}")
    return doc


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def main() -> int:
    sweeps = {}
    for w in (wl["name"] for wl in SPEC["workloads"]):
        clean = result(w, 0)
        expect(clean["correct"] and clean["failed"] == 0, f"{w}: clean run failed {clean['failed']}")
        expect(all(m["value"] > 0 for m in clean["metrics"].values()), f"{w}: an end-to-end metric is 0")

        planted = result(w, 0, "--plant-fault")
        expect(not planted["correct"] and planted["failed"] > 0, f"{w}: planted fault not caught")

        traced = result(w, 1)
        expect(traced["correct"], f"{w}: traced run failed {traced['failed']}")
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        expect(m["trace.absent_functions"] == 0, f"{w}: traced functions missing")
        states_calls = sum(v for k, v in m.items() if k.startswith("states.") and k.endswith(".calls"))
        expect((states_calls > 0) == (w == "measured_states"), f"{w}: states calls {states_calls}")
        if w in ("ghz_scan", "measured_states"):
            expect(m["lhv.verify_bound.calls"] == 0, f"{w}: verify_bound called")
        expect((m["cli.main.calls"] > 0) == (w == "cli"), f"{w}: cli.main calls {m['cli.main.calls']}")
        sweeps[w] = m["tensor_analysis.t_max.sweeps"]
        print(f"selftest {w}: ok ({clean['attempted']} attempted, planted fault failed {planted['failed']})")

    again = result("measured_states", 1)["metrics"]["tensor_analysis.t_max.sweeps"]["value"]
    expect(again == sweeps["measured_states"], f"t_max sweeps {again} != {sweeps['measured_states']}")

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("ghz_scan", 0, cwd=bare)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout, "ran without src/rotbell")
    finally:
        shutil.rmtree(bare)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
